"""Declarative flight scenarios: environment x wind x sensors x mission shape.

The paper evaluates fault tolerance in four static environments with one
fixed start-to-goal mission flown in still air on ideal sensors.  A
:class:`Scenario` widens that workload space along four orthogonal axes:

* **environment family + seed** -- the four paper environments plus the
  ``forest`` and ``urban_canyon`` families of :mod:`repro.sim.environments`;
* **wind** -- constant wind and Dryden-style gusts applied inside the
  vehicle dynamics (:mod:`repro.sim.wind`);
* **sensor degradation** -- depth dropout/fog/quantization and IMU/odometry
  noise scaling (:mod:`repro.sim.degradation`);
* **mission shape** -- multi-waypoint missions (patrol and survey routes)
  instead of the single start-to-goal delivery.

Scenarios are small frozen dataclasses of primitives, so they pickle across
process boundaries unchanged and hash deterministically into
:class:`~repro.core.executor.RunSpec` keys; every stochastic element they
introduce is seeded per mission, preserving the engine's serial-vs-parallel
bit-identity guarantee.  The module also maintains a named registry of preset
scenarios (``calm-sparse``, ``gusty-dense``, ``foggy-factory``, ...), which
the campaign CLI exposes via ``--scenario`` / ``--list-scenarios``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.sim.degradation import SensorDegradationConfig
from repro.sim.wind import WindConfig


@dataclass(frozen=True)
class MissionPlan:
    """Mission shape: optional endpoint overrides plus intermediate waypoints.

    ``waypoints`` are visited in order *before* the final goal; ``start`` and
    ``goal`` override the environment's default endpoints when given.  All
    coordinates are world-frame metres.
    """

    waypoints: Tuple[Tuple[float, float, float], ...] = ()
    start: Optional[Tuple[float, float, float]] = None
    goal: Optional[Tuple[float, float, float]] = None

    def __post_init__(self) -> None:
        for point in self.waypoints:
            if len(point) != 3:
                raise ValueError(f"waypoints must be 3-D points, got {point!r}")

    def canonical(self) -> Tuple:
        """Deterministic tuple form (enters the :class:`RunSpec` key)."""
        as_tuple = lambda p: tuple(round(float(v), 9) for v in p)  # noqa: E731
        return (
            tuple(as_tuple(p) for p in self.waypoints),
            as_tuple(self.start) if self.start is not None else None,
            as_tuple(self.goal) if self.goal is not None else None,
        )


@dataclass(frozen=True)
class Scenario:
    """One declarative, picklable flight-scenario specification.

    A scenario names one point in the workload space spanned by the four
    orthogonal axes (environment family/seed, wind, sensor degradation,
    mission shape).  It carries **no live objects** -- only primitives and
    frozen sub-configs -- so it pickles across process boundaries unchanged
    and :meth:`canonical` hashes into the deterministic
    :class:`~repro.core.executor.RunSpec` key used for JSONL resume.

    Use it anywhere a campaign is configured::

        from repro.core.campaign import Campaign, CampaignConfig
        from repro.scenarios import Scenario
        from repro.sim.wind import WindConfig

        campaign = Campaign(CampaignConfig(scenario="foggy-factory"))
        # or a custom one:
        custom = Scenario(name="my-gusts", environment="forest",
                          wind=WindConfig(gust_intensity=2.0))
        Campaign(CampaignConfig(scenario=custom))

    ``env_seed=None`` (the default) inherits the campaign's ``env_seed``, so
    the same scenario can be flown over many procedurally generated layouts.
    Presets live in the registry (:func:`get_scenario`, :func:`iter_scenarios`)
    and are what the CLI's ``--scenario``/``--list-scenarios`` expose.
    """

    name: str
    environment: str = "sparse"
    #: Environment layout seed; ``None`` inherits the campaign's ``env_seed``.
    env_seed: Optional[int] = None
    wind: WindConfig = field(default_factory=WindConfig)
    sensors: SensorDegradationConfig = field(default_factory=SensorDegradationConfig)
    mission: MissionPlan = field(default_factory=MissionPlan)
    description: str = ""

    def canonical(self) -> Tuple:
        """Deterministic identity tuple (enters the :class:`RunSpec` key)."""
        return (
            self.name,
            self.environment,
            self.env_seed if self.env_seed is None else int(self.env_seed),
            self.wind.canonical(),
            self.sensors.canonical(),
            self.mission.canonical(),
        )


# --------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add a scenario to the named registry (``overwrite=False`` guards typos)."""
    if not overwrite and scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return _REGISTRY[name]


def resolve_scenario(value: Union[str, Scenario, None]) -> Optional[Scenario]:
    """Normalise a scenario argument: name, :class:`Scenario` or ``None``."""
    if value is None or isinstance(value, Scenario):
        return value
    return get_scenario(value)


def iter_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


# ---------------------------------------------------------------------- presets
#: The preset catalog.  Each preset stresses a different combination of the
#: four scenario axes; ``calm-sparse`` is the paper's baseline expressed as a
#: scenario, so sweeps always include an anchor comparable to Table I.
PRESETS = (
    Scenario(
        name="calm-sparse",
        environment="sparse",
        description="Paper baseline: Sparse environment, still air, clean sensors.",
    ),
    Scenario(
        name="gusty-dense",
        environment="dense",
        wind=WindConfig(mean=(1.2, 0.8, 0.0), gust_intensity=1.5, gust_time_constant=2.5),
        description="Dense environment in a gusty tailwind pushing toward obstacles.",
    ),
    Scenario(
        name="foggy-factory",
        environment="factory",
        sensors=SensorDegradationConfig(
            depth_dropout=0.06, depth_quantization=0.25, depth_range_scale=0.55
        ),
        description="Factory with fog-shortened depth range, dropout and coarse quantization.",
    ),
    Scenario(
        name="patrol-farm",
        environment="farm",
        mission=MissionPlan(waypoints=((18.0, 18.0, 2.0), (36.0, -18.0, 2.0))),
        description="Farm patrol: two survey waypoints before the delivery point.",
    ),
    Scenario(
        name="windy-forest",
        environment="forest",
        wind=WindConfig(mean=(0.8, -0.6, 0.0), gust_intensity=1.2),
        description="Tree-trunk forest crossed in moderate wind and gusts.",
    ),
    Scenario(
        name="canyon-crosswind",
        environment="urban_canyon",
        wind=WindConfig(mean=(0.0, 1.8, 0.0), gust_intensity=0.8),
        description="Urban canyon with a crosswind pushing toward the building faces.",
    ),
    Scenario(
        name="shaky-sparse",
        environment="sparse",
        sensors=SensorDegradationConfig(
            imu_noise_scale=20.0,
            odometry_position_noise=0.12,
            odometry_velocity_noise=0.08,
        ),
        description="Sparse environment on a degraded IMU and noisy odometry.",
    ),
    Scenario(
        name="stormy-survey-dense",
        environment="dense",
        wind=WindConfig(mean=(1.0, -0.6, 0.0), gust_intensity=1.2, gust_time_constant=1.8),
        sensors=SensorDegradationConfig(depth_dropout=0.04, depth_range_scale=0.7),
        # The route is flyable in calm air (~50% success); the storm and the
        # degraded vision are what make this the catalog's kill-case.
        mission=MissionPlan(waypoints=((15.0, 6.0, 2.5), (30.0, -6.0, 2.5))),
        description="Worst case: dense survey route in a storm on degraded vision.",
    ),
    Scenario(
        name="blind-farm",
        environment="farm",
        sensors=SensorDegradationConfig(
            depth_dropout=0.15, depth_quantization=0.5, depth_range_scale=0.4
        ),
        description="Open farm flown nearly blind: heavy dropout and short depth range.",
    ),
)

for _preset in PRESETS:
    register_scenario(_preset)
