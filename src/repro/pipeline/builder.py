"""Pipeline construction: from a configuration to a ready-to-run node graph.

``build_pipeline`` assembles the full Fig. 2 topology:

* the AirSim interface node (sensors out, flight commands in, physics inside),
* the perception kernels (point cloud generation, OctoMap, collision check),
* the planning kernels (mission planner, motion planner),
* the control kernel (path tracking / command issue).

Kernel latencies and pipeline rates come from the compute-platform model, and
the safe cruise velocity is derated on slower platforms following the visual
performance model -- which is how the TX2 comparison of Fig. 9 is reproduced.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.control.path_tracking import ControlNode, TrackerConfig
from repro.perception.collision_check import CollisionCheckNode
from repro.perception.occupancy import OctoMapNode
from repro.perception.point_cloud import PointCloudNode
from repro.pipeline.kernel import KernelNode
from repro.planning.mission import MissionPlannerNode
from repro.planning.motion_planner import MotionPlannerNode, PlannerConfig
from repro.planning.smoothing import SmootherConfig
from repro.platforms.compute import PlatformModel, get_platform
from repro.rosmw.graph import NodeGraph
from repro.scenarios import Scenario, resolve_scenario
from repro.sim.airsim import AirSimInterfaceNode, MissionConfig
from repro.sim.degradation import SensorDegradation
from repro.sim.environments import environment_spec, make_environment
from repro.sim.sensors import CameraConfig
from repro.sim.vehicle import QuadrotorParams
from repro.sim.wind import WindModel
from repro.sim.world import World

#: Environment variable disabling the per-process construction caches (worlds
#: here, detectors in :mod:`repro.core.executor`): the escape hatch for the
#: campaign-throughput engine's cache layer.
NO_CACHE_ENV = "REPRO_NO_CACHE"


def construction_caches_enabled() -> bool:
    """Whether the per-process construction caches are active (the default).

    The knob registry is imported lazily: this module is reached during
    ``repro.core``'s own package initialisation.
    """
    from repro.core import knobs

    return not knobs.flag(NO_CACHE_ENV)


#: Per-process cache of generated worlds.  Worlds are immutable once built
#: (missions only query them: ray casts, collision and distance checks), so
#: every pipeline of a campaign can share one instance per (environment
#: family, environment seed) pair instead of regenerating the obstacles for
#: each of the thousands of runs.
_WORLD_CACHE: "OrderedDict[Tuple[str, int], World]" = OrderedDict()
_WORLD_CACHE_MAX = 8
_WORLD_CACHE_STATS = {"hits": 0, "misses": 0}


def world_for(environment: str, seed: int) -> World:
    """Generated :class:`World` for ``(environment family, env seed)``.

    Served from the per-process construction cache when enabled; the returned
    world is shared across pipelines and must be treated as immutable.
    """
    if not construction_caches_enabled():
        return make_environment(environment, seed=seed)
    key = (str(environment), int(seed))
    world = _WORLD_CACHE.get(key)
    if world is not None:
        _WORLD_CACHE.move_to_end(key)
        _WORLD_CACHE_STATS["hits"] += 1
        return world
    _WORLD_CACHE_STATS["misses"] += 1
    world = make_environment(environment, seed=seed)
    _WORLD_CACHE[key] = world
    while len(_WORLD_CACHE) > _WORLD_CACHE_MAX:
        _WORLD_CACHE.popitem(last=False)
    return world


def world_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the per-process world cache."""
    return dict(_WORLD_CACHE_STATS)


def reset_world_cache() -> None:
    """Drop all cached worlds and zero the counters (tests, benchmarks)."""
    _WORLD_CACHE.clear()
    _WORLD_CACHE_STATS["hits"] = 0
    _WORLD_CACHE_STATS["misses"] = 0


#: Seed offsets deriving the per-mission wind and sensor-degradation streams
#: from the mission seed (disjoint from the start-jitter offset below and the
#: sensor seeds, so enabling one scenario axis never perturbs another).
_WIND_SEED_OFFSET = 2_000_000
_DEGRADATION_SEED_OFFSET = 3_000_000


@dataclass
class PipelineConfig:
    """Configuration of one closed-loop pipeline instance."""

    environment: Union[str, World] = "sparse"
    env_seed: int = 0
    #: Optional flight scenario (a registered name or a
    #: :class:`~repro.scenarios.Scenario`).  A scenario overrides the
    #: environment family/seed, adds wind and sensor degradation, and may turn
    #: the mission into a multi-waypoint route.
    scenario: Optional[Union[str, "Scenario"]] = None
    planner_name: str = "rrt_star"
    platform: Union[str, PlatformModel] = "i9"
    seed: int = 0
    mission_time_limit: float = 120.0
    goal_tolerance: float = 2.0
    map_resolution: float = 1.0
    camera_rate: float = 5.0
    physics_rate: float = 20.0
    octomap_rate: float = 2.0
    collision_check_rate: float = 4.0
    planner_decision_rate: float = 2.0
    control_rate: float = 10.0
    cruise_speed: float = 4.0
    max_speed: float = 6.0
    camera_width: int = 24
    camera_height: int = 18
    planner_max_iterations: int = 400
    #: Standard deviation of the per-mission start-position jitter (metres in
    #: x/y, scaled down in z).  The paper's golden runs vary run to run only
    #: through real-time nondeterminism; the jitter plays that role here while
    #: the planner seed stays tied to the environment, so run-to-run QoF
    #: differences are dominated by the injected faults rather than by
    #: re-sampling the planner.
    start_jitter_std: float = 0.4

    def resolved_platform(self) -> PlatformModel:
        """The platform model instance for this configuration."""
        if isinstance(self.platform, PlatformModel):
            return self.platform
        return get_platform(self.platform)

    def resolved_scenario(self) -> Optional[Scenario]:
        """The :class:`~repro.scenarios.Scenario` for this configuration."""
        return resolve_scenario(self.scenario)


@dataclass
class PipelineHandles:
    """Everything the campaign and the mission runner need to drive one run."""

    graph: NodeGraph
    world: World
    airsim: AirSimInterfaceNode
    kernels: Dict[str, KernelNode]
    platform: PlatformModel
    config: PipelineConfig
    extras: Dict[str, object] = field(default_factory=dict)

    def kernel(self, name: str) -> KernelNode:
        """Look a kernel node up by name."""
        return self.kernels[name]

    def stage_kernels(self, stage: str) -> list:
        """All kernel nodes belonging to one PPC stage."""
        return [k for k in self.kernels.values() if k.stage == stage]


def _resolve_world(config: PipelineConfig, scenario: Optional[Scenario]) -> World:
    if isinstance(config.environment, World) and scenario is None:
        return config.environment
    if scenario is not None:
        return world_for(scenario.environment, _effective_env_seed(config, scenario))
    return world_for(config.environment, config.env_seed)


def _effective_env_seed(config: PipelineConfig, scenario: Optional[Scenario]) -> int:
    if scenario is not None and scenario.env_seed is not None:
        return scenario.env_seed
    return config.env_seed


def _free_waypoint(
    world: World, point, clearance: float = 2.5, max_radius: float = 14.0
) -> np.ndarray:
    """Deterministically nudge a waypoint out of (or away from) obstacles.

    Scenario waypoints are authored against an environment *family*; a
    particular seed may drop an obstacle right on one, which would make the
    mission unflyable (the vehicle must come within the goal tolerance of the
    waypoint).  The nudge searches outward ring by ring for the nearest
    position with enough clearance -- a pure function of the world, so every
    mission of a campaign (serial or parallel) sees the same route.
    """
    p = np.asarray(point, dtype=float)
    if world.distance_to_nearest(p) >= clearance:
        return p
    for radius in np.arange(1.0, max_radius + 0.5, 1.0):
        for angle in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            candidate = p + radius * np.array([np.cos(angle), np.sin(angle), 0.0])
            if not world.in_bounds(candidate, margin=1.0):
                continue
            if world.distance_to_nearest(candidate) >= clearance:
                return candidate
    return p


def build_pipeline(config: Optional[PipelineConfig] = None) -> PipelineHandles:
    """Build the full PPC pipeline node graph for one mission.

    The graph is returned un-started so that a fault injector and/or the
    anomaly detection and recovery nodes can be attached before launch.
    """
    config = config if config is not None else PipelineConfig()
    platform = config.resolved_platform()
    scenario = config.resolved_scenario()
    world = _resolve_world(config, scenario)

    if scenario is not None:
        spec = environment_spec(scenario.environment)
        start = np.asarray(spec.start, dtype=float)
        goal = np.asarray(spec.goal, dtype=float)
    elif isinstance(config.environment, World):
        start = np.array([0.0, 0.0, 1.5])
        goal = np.array([55.0, 0.0, 2.0])
    else:
        spec = environment_spec(config.environment)
        start = np.asarray(spec.start, dtype=float)
        goal = np.asarray(spec.goal, dtype=float)
    waypoints: tuple = ()
    if scenario is not None:
        mission_plan = scenario.mission
        # Overridden endpoints get the same free-space nudge as waypoints:
        # the generator's keep-out only protects the environment's default
        # endpoints, so a custom start/goal could land inside an obstacle.
        if mission_plan.start is not None:
            start = _free_waypoint(world, mission_plan.start)
        if mission_plan.goal is not None:
            goal = _free_waypoint(world, mission_plan.goal)
        waypoints = tuple(
            tuple(_free_waypoint(world, p)) for p in mission_plan.waypoints
        )
    if config.start_jitter_std > 0:
        jitter_rng = np.random.default_rng(1_000_000 + config.seed)
        jitter = jitter_rng.normal(0.0, config.start_jitter_std, size=3)
        jitter[2] *= 0.3
        start = start + jitter

    wind_model = None
    degradation = None
    if scenario is not None and scenario.wind.enabled:
        wind_model = WindModel(scenario.wind, seed=_WIND_SEED_OFFSET + config.seed)
    if scenario is not None and scenario.sensors.enabled:
        degradation = SensorDegradation(
            scenario.sensors, seed=_DEGRADATION_SEED_OFFSET + config.seed
        )

    velocity_factor = platform.velocity_factor
    cruise_speed = config.cruise_speed * velocity_factor
    max_speed = config.max_speed * velocity_factor

    graph = NodeGraph()

    airsim = AirSimInterfaceNode(
        world=world,
        mission=MissionConfig(
            start=start,
            goal=goal,
            goal_tolerance=config.goal_tolerance,
            time_limit=config.mission_time_limit,
            waypoints=waypoints,
        ),
        vehicle_params=QuadrotorParams(max_speed=max_speed),
        camera_config=CameraConfig(width=config.camera_width, height=config.camera_height),
        physics_rate=config.physics_rate,
        camera_rate=platform.scaled_rate(config.camera_rate),
        odometry_rate=config.physics_rate,
        seed=config.seed,
        wind_model=wind_model,
        degradation=degradation,
    )

    point_cloud = PointCloudNode(latency=platform.kernel_latency("point_cloud_generation"))
    octomap = OctoMapNode(
        resolution=config.map_resolution,
        latency=platform.kernel_latency("octomap_generation"),
        update_rate=platform.scaled_rate(config.octomap_rate),
    )
    collision_check = CollisionCheckNode(
        latency=platform.kernel_latency("collision_check"),
        check_rate=platform.scaled_rate(config.collision_check_rate),
    )
    mission_planner = MissionPlannerNode(
        goal=goal,
        goal_tolerance=config.goal_tolerance,
        latency=platform.kernel_latency("mission_planner"),
        waypoints=waypoints,
    )
    bounds_margin = 0.5
    motion_planner = MotionPlannerNode(
        config=PlannerConfig(
            planner_name=config.planner_name,
            decision_rate=platform.scaled_rate(config.planner_decision_rate),
            # The planner seed is tied to the environment, not the mission, so
            # that error-free runs of the same environment fly near-identical
            # missions (the paper's golden baseline) and per-run differences
            # reflect the injected faults.
            planner_seed=_effective_env_seed(config, scenario),
            bounds_lo=(
                world.bounds_lo[0] + bounds_margin,
                world.bounds_lo[1] + bounds_margin,
                world.bounds_lo[2] + bounds_margin,
            ),
            bounds_hi=(
                world.bounds_hi[0] - bounds_margin,
                world.bounds_hi[1] - bounds_margin,
                world.bounds_hi[2] - bounds_margin,
            ),
            max_iterations=config.planner_max_iterations,
            smoother=SmootherConfig(cruise_speed=cruise_speed),
        ),
        latency=platform.kernel_latency("motion_planner"),
    )
    control = ControlNode(
        config=TrackerConfig(max_speed=max_speed),
        latency=platform.kernel_latency("pid_control"),
        control_rate=platform.scaled_rate(config.control_rate),
    )

    kernels: Dict[str, KernelNode] = {
        node.name: node
        for node in (
            point_cloud,
            octomap,
            collision_check,
            mission_planner,
            motion_planner,
            control,
        )
    }

    graph.add_node(airsim)
    for kernel in kernels.values():
        graph.add_node(kernel)

    handles = PipelineHandles(
        graph=graph,
        world=world,
        airsim=airsim,
        kernels=kernels,
        platform=platform,
        config=config,
    )
    if scenario is not None:
        handles.extras["scenario"] = scenario
    return handles
