"""Quadrotor state and velocity-command kinematics.

AirSim exposes the MAV to the companion computer as a vehicle that tracks
velocity and yaw-rate commands subject to acceleration and speed limits.  The
PPC pipeline's flight commands are exactly such velocity/yaw-rate set-points,
so a first-order velocity-tracking model with saturation reproduces the
closed-loop behaviour the pipeline experiences: commands take effect with a
time constant, speed is bounded, and large (possibly corrupted) commands are
clipped rather than teleporting the vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.sim.tickmath import clip, norm


@dataclass
class QuadrotorParams:
    """Physical and control-tracking parameters of the simulated MAV.

    The defaults approximate the AirSim default quadrotor used by MAVBench;
    the DJI-Spark-class vehicle of Fig. 8 is modelled in
    :mod:`repro.platforms.visual_performance`.
    """

    mass: float = 1.0
    max_speed: float = 6.0
    max_vertical_speed: float = 2.5
    max_acceleration: float = 4.0
    max_yaw_rate: float = 1.5
    velocity_time_constant: float = 0.35
    collision_radius: float = 0.4
    hover_power: float = 160.0
    drag_power_coefficient: float = 4.0

    def __post_init__(self) -> None:
        if self.max_speed <= 0 or self.max_acceleration <= 0:
            raise ValueError("speed and acceleration limits must be positive")
        if self.velocity_time_constant <= 0:
            raise ValueError("velocity time constant must be positive")


@dataclass
class QuadrotorState:
    """Kinematic state of the vehicle."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0
    yaw_rate: float = 0.0
    time: float = 0.0

    def copy(self) -> "QuadrotorState":
        """Deep copy of the state."""
        return QuadrotorState(
            position=self.position.copy(),
            velocity=self.velocity.copy(),
            yaw=float(self.yaw),
            yaw_rate=float(self.yaw_rate),
            time=float(self.time),
        )

    @property
    def speed(self) -> float:
        """Magnitude of the velocity vector."""
        return float(np.linalg.norm(self.velocity))


class QuadrotorDynamics:
    """First-order velocity tracking with saturation.

    The vehicle accelerates towards the commanded velocity with time constant
    ``velocity_time_constant``, limited by ``max_acceleration``, and its speed
    is clipped to ``max_speed`` (separately for the vertical axis).  Yaw
    integrates the commanded yaw rate clipped to ``max_yaw_rate``.
    """

    def __init__(
        self,
        params: Optional[QuadrotorParams] = None,
        initial_state: Optional[QuadrotorState] = None,
        wind_model=None,
    ) -> None:
        self.params = params if params is not None else QuadrotorParams()
        self.state = initial_state.copy() if initial_state is not None else QuadrotorState()
        #: Optional :class:`~repro.sim.wind.WindModel`; when set, the sampled
        #: wind carries the vehicle with the air mass each step.
        self.wind_model = wind_model
        self.distance_travelled = 0.0
        self.energy_used = 0.0

    def reset(self, state: QuadrotorState) -> None:
        """Reset the vehicle to ``state`` and zero the integrators."""
        self.state = state.copy()
        self.distance_travelled = 0.0
        self.energy_used = 0.0

    # ---------------------------------------------------------------- helpers
    def _sanitize_command(self, command: np.ndarray) -> Tuple[float, float, float]:
        """Clip a (possibly corrupted) commanded velocity to the flight envelope.

        Non-finite components are treated as zero: a NaN or inf command would
        otherwise poison the whole state, whereas a real flight controller
        rejects such set-points.
        """
        p = self.params
        # Bound extreme (possibly corrupted) set-points before computing the
        # norm so the clipping arithmetic cannot overflow.
        x, y, z = [
            clip(v, -1e6, 1e6) if math.isfinite(v) else 0.0
            for v in np.asarray(command, dtype=float).tolist()
        ]
        h_speed = norm(np.array((x, y)))
        if h_speed > p.max_speed:
            scale = p.max_speed / h_speed
            x, y = x * scale, y * scale
        return x, y, clip(z, -p.max_vertical_speed, p.max_vertical_speed)

    # ------------------------------------------------------------------- step
    def step(
        self,
        commanded_velocity: np.ndarray,
        commanded_yaw_rate: float,
        dt: float,
    ) -> QuadrotorState:
        """Integrate the dynamics for ``dt`` seconds under the given command.

        Computes with Python floats under the rules of :mod:`repro.sim.tickmath`.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self.params
        cx, cy, cz = self._sanitize_command(commanded_velocity)
        vx, vy, vz = self.state.velocity.tolist()

        # First-order tracking of the velocity command, acceleration limited.
        tau = p.velocity_time_constant
        ax, ay, az = (cx - vx) / tau, (cy - vy) / tau, (cz - vz) / tau
        accel_norm = norm(np.array((ax, ay, az)))
        if accel_norm > p.max_acceleration:
            scale = p.max_acceleration / accel_norm
            ax, ay, az = ax * scale, ay * scale, az * scale
        nx, ny, nz = vx + ax * dt, vy + ay * dt, vz + az * dt

        # Envelope limits on the resulting velocity.
        h_speed = norm(np.array((nx, ny)))
        if h_speed > p.max_speed:
            scale = p.max_speed / h_speed
            nx, ny = nx * scale, ny * scale
        nz = clip(nz, -p.max_vertical_speed, p.max_vertical_speed)
        new_velocity = np.array((nx, ny, nz))

        dx, dy, dz = (vx + nx) / 2.0 * dt, (vy + ny) / 2.0 * dt, (vz + nz) / 2.0 * dt
        if self.wind_model is not None:
            # The air mass carries the vehicle: wind adds a drift on top of
            # the air-relative velocity the controller commands.  The control
            # loop only sees the resulting position error through odometry and
            # compensates by feedback, as a real velocity controller would.
            wx, wy, wz = self.wind_model.sample(dt).tolist()
            dx, dy, dz = dx + wx * dt, dy + wy * dt, dz + wz * dt
        displacement = np.array((dx, dy, dz))
        new_position = self.state.position + displacement

        if not math.isfinite(commanded_yaw_rate):
            commanded_yaw_rate = 0.0
        yaw_rate = clip(float(commanded_yaw_rate), -p.max_yaw_rate, p.max_yaw_rate)
        new_yaw = _wrap_angle(self.state.yaw + yaw_rate * dt)

        self.distance_travelled += norm(displacement)
        self.energy_used += self.power(norm(new_velocity)) * dt

        self.state = QuadrotorState(
            position=new_position,
            velocity=new_velocity,
            yaw=new_yaw,
            yaw_rate=yaw_rate,
            time=self.state.time + dt,
        )
        return self.state

    def power(self, speed: float) -> float:
        """Electrical power draw (W) of the rotors at the given speed."""
        return self.params.hover_power + self.params.drag_power_coefficient * speed**2


def _wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = (angle + np.pi) % (2.0 * np.pi) - np.pi
    return float(wrapped)
