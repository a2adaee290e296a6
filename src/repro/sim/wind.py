"""Wind disturbance model: constant wind plus Dryden-style gusts.

The paper evaluates fault tolerance in still air only; real MAV deployments
fly through wind, and the scenario subsystem uses this model to widen the
workload space.  The model follows the structure of the Dryden turbulence
model used in flight simulation: a constant mean wind vector plus a
first-order Gauss-Markov (coloured-noise) gust process per axis, whose
stationary standard deviation is the gust intensity and whose correlation
time is the gust time constant.  Everything is driven by a seeded
:class:`numpy.random.Generator`, so the same scenario and mission seed always
produce the same wind history -- the property the serial-vs-parallel
bit-identity guarantee of the campaign engine rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class WindConfig:
    """Declarative wind disturbance specification (picklable, hashable).

    ``mean`` is the constant wind vector in world coordinates (m/s);
    ``gust_intensity`` the stationary standard deviation of the horizontal
    gust components (m/s, 0 disables gusts); ``gust_time_constant`` the gust
    correlation time (seconds); ``vertical_fraction`` scales the vertical
    gust component relative to the horizontal ones (vertical turbulence is
    weaker near the ground).
    """

    mean: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    gust_intensity: float = 0.0
    gust_time_constant: float = 2.0
    vertical_fraction: float = 0.3

    def __post_init__(self) -> None:
        if len(self.mean) != 3:
            raise ValueError(f"mean wind must have 3 components, got {self.mean!r}")
        # A non-finite value reaches every physics step's displacement (or,
        # as a NaN gust_intensity, silently turns the gusts off).
        if not all(math.isfinite(v) for v in self.mean):
            raise ValueError(f"mean wind must be finite, got {self.mean!r}")
        for name in ("gust_intensity", "gust_time_constant", "vertical_fraction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gust_intensity < 0:
            raise ValueError(f"gust_intensity must be >= 0, got {self.gust_intensity}")
        if self.gust_time_constant <= 0:
            raise ValueError(
                f"gust_time_constant must be positive, got {self.gust_time_constant}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this configuration produces any wind at all."""
        return self.gust_intensity > 0 or any(v != 0.0 for v in self.mean)

    def canonical(self) -> Tuple:
        """Deterministic tuple form (enters the :class:`RunSpec` key)."""
        return (
            tuple(round(float(v), 9) for v in self.mean),
            round(float(self.gust_intensity), 9),
            round(float(self.gust_time_constant), 9),
            round(float(self.vertical_fraction), 9),
        )


class WindModel:
    """Seeded wind sampler applied once per physics step.

    The gust state ``g`` follows the exact discretisation of an
    Ornstein-Uhlenbeck process: ``g' = phi * g + sigma * sqrt(1 - phi^2) * w``
    with ``phi = exp(-dt / tau)`` and ``w ~ N(0, I)``, which keeps the
    stationary per-axis standard deviation at ``sigma`` for any step size.
    """

    def __init__(self, config: WindConfig, seed: int = 0) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._gust = np.zeros(3)
        self._mean = np.asarray(config.mean, dtype=float)
        self._axis_scale = np.array([1.0, 1.0, config.vertical_fraction])

    def sample(self, dt: float) -> np.ndarray:
        """Advance the gust process by ``dt`` and return the wind vector (m/s)."""
        cfg = self.config
        if cfg.gust_intensity > 0:
            phi = float(np.exp(-dt / cfg.gust_time_constant))
            noise = self._rng.standard_normal(3) * self._axis_scale
            self._gust = phi * self._gust + cfg.gust_intensity * np.sqrt(
                1.0 - phi * phi
            ) * noise
        return self._mean + self._gust
