"""Sensor degradation layer: depth dropout/fog/quantization, IMU/odometry noise.

The paper's sensors are ideal: the depth camera returns exact ranges and the
odometry is near-perfect.  Real RGB-D cameras drop returns (specular or
distant surfaces), quantize depth, and lose range in fog; IMUs and odometry
pipelines are noisy.  This layer degrades the simulated sensor outputs
according to a declarative, picklable configuration so that scenarios can
stress the perception stage without touching the sensor implementations.

All stochastic degradation (pixel dropout, added noise) is driven by seeded
generators, keeping missions bit-reproducible across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.rosmw.message import DepthImageMsg
from repro.sim.sensors import ImuConfig, OdometryConfig


@dataclass(frozen=True)
class SensorDegradationConfig:
    """Declarative sensor degradation specification (picklable, hashable).

    ``depth_dropout`` is the per-pixel probability of losing the return
    (the pixel reads "nothing within range"); ``depth_quantization`` rounds
    ranges to that step in metres (0 disables); ``depth_range_scale`` scales
    the camera's effective maximum range (fog -- returns beyond the reduced
    range are lost); ``imu_noise_scale`` multiplies the IMU's accelerometer
    and gyro noise; ``odometry_position_noise`` / ``odometry_velocity_noise``
    add Gaussian noise to the odometry output (metres, m/s).
    """

    depth_dropout: float = 0.0
    depth_quantization: float = 0.0
    depth_range_scale: float = 1.0
    imu_noise_scale: float = 1.0
    odometry_position_noise: float = 0.0
    odometry_velocity_noise: float = 0.0

    def __post_init__(self) -> None:
        # A NaN passes every ``< 0`` check below and then silently turns its
        # degradation off (``enabled`` compares with ``> 0``) or makes every
        # sample NaN, so non-finite values are rejected first.
        for name in (
            "depth_dropout",
            "depth_quantization",
            "depth_range_scale",
            "imu_noise_scale",
            "odometry_position_noise",
            "odometry_velocity_noise",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.depth_dropout < 1.0:
            raise ValueError(
                f"depth_dropout must be in [0, 1), got {self.depth_dropout}"
            )
        if self.depth_quantization < 0:
            raise ValueError(
                f"depth_quantization must be >= 0, got {self.depth_quantization}"
            )
        if not 0.0 < self.depth_range_scale <= 1.0:
            raise ValueError(
                f"depth_range_scale must be in (0, 1], got {self.depth_range_scale}"
            )
        for name in ("imu_noise_scale", "odometry_position_noise", "odometry_velocity_noise"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def enabled(self) -> bool:
        """Whether this configuration degrades any sensor at all."""
        return (
            self.depth_dropout > 0
            or self.depth_quantization > 0
            or self.depth_range_scale < 1.0
            or self.imu_noise_scale != 1.0
            or self.odometry_position_noise > 0
            or self.odometry_velocity_noise > 0
        )

    def canonical(self) -> Tuple:
        """Deterministic tuple form (enters the :class:`RunSpec` key)."""
        return tuple(
            round(float(v), 9)
            for v in (
                self.depth_dropout,
                self.depth_quantization,
                self.depth_range_scale,
                self.imu_noise_scale,
                self.odometry_position_noise,
                self.odometry_velocity_noise,
            )
        )


class SensorDegradation:
    """Applies a :class:`SensorDegradationConfig` to live sensor outputs."""

    def __init__(self, config: SensorDegradationConfig, seed: int = 0) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)

    # ----------------------------------------------------------------- camera
    def degrade_depth(self, msg: DepthImageMsg) -> DepthImageMsg:
        """Degrade one freshly-captured depth image in place and return it."""
        cfg = self.config
        depth = msg.depth
        if cfg.depth_range_scale < 1.0:
            effective_range = msg.max_range * cfg.depth_range_scale
            depth[depth > effective_range] = np.inf
            msg.max_range = float(effective_range)
        if cfg.depth_quantization > 0:
            finite = np.isfinite(depth)
            depth[finite] = (
                np.round(depth[finite] / cfg.depth_quantization)
                * cfg.depth_quantization
            )
        if cfg.depth_dropout > 0:
            dropped = self._rng.random(depth.shape) < cfg.depth_dropout
            depth[dropped] = np.inf
        return msg

    # ------------------------------------------------------------ imu/odometry
    def imu_config(self, base: Optional[ImuConfig] = None) -> ImuConfig:
        """IMU noise configuration with this degradation's scaling applied."""
        base = base if base is not None else ImuConfig()
        scale = self.config.imu_noise_scale
        return ImuConfig(
            accel_noise_std=base.accel_noise_std * scale,
            gyro_noise_std=base.gyro_noise_std * scale,
        )

    def odometry_config(self, base: Optional[OdometryConfig] = None) -> OdometryConfig:
        """Odometry noise configuration with this degradation's noise added."""
        base = base if base is not None else OdometryConfig()
        return OdometryConfig(
            position_noise_std=base.position_noise_std
            + self.config.odometry_position_noise,
            velocity_noise_std=base.velocity_noise_std
            + self.config.odometry_velocity_noise,
        )
