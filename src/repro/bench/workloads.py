"""Fixed, seeded workloads for the hot-path benchmarks.

The benchmark harness measures kernels on data that looks like what a real
campaign produces: depth frames ray-cast from poses along a sweep through a
procedurally generated Sparse environment, the point clouds reconstructed
from those frames, the occupied set a mid-mission collision checker sees and
seeded query poses against it.  Everything is seeded, so two bench runs (or
the vector and scalar sides of one run) see byte-identical inputs.

The motion-planning and ray-casting kernels are measured on a *reference
corpus* instead (:func:`record_corpus`): every planning problem and every
``World.ray_cast`` call of seeded golden missions in each environment
family, plus hand-built corner cases.  The equivalence tests replay the same
corpus against the reference kernels of :mod:`repro.bench.scalar_ref`.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.perception.point_cloud import PointCloudGenerator
from repro.planning.rrt import PLANNER_CLASSES, PlanningProblem, _TreePlannerBase
from repro.rosmw.message import DepthImageMsg, Waypoint
from repro.sim.environments import make_environment
from repro.sim.sensors import CameraConfig, DepthCamera
from repro.sim.vehicle import QuadrotorState
from repro.sim.world import CERT_SLACK, Cuboid, World


@dataclass
class HotpathWorkload:
    """The inputs every kernel benchmark consumes."""

    world: World
    depth_frames: List[DepthImageMsg]
    clouds: List[np.ndarray]
    occupied_centers: np.ndarray
    query_poses: List[Dict]
    description: Dict = field(default_factory=dict)


def _camera_sweep(world: World, n_frames: int, seed: int) -> List[DepthImageMsg]:
    """Depth frames captured along a seeded sweep through the world."""
    rng = np.random.default_rng(seed)
    camera = DepthCamera(world, CameraConfig(width=96, height=72))
    frames = []
    for index in range(n_frames):
        position = np.array(
            [
                2.0 + index * (55.0 / max(n_frames - 1, 1)),
                float(rng.uniform(-12.0, 12.0)),
                float(rng.uniform(1.5, 4.0)),
            ]
        )
        yaw = float(rng.uniform(-0.6, 0.6))
        frames.append(camera.capture(QuadrotorState(position=position, yaw=yaw)))
    return frames


def build_workload(smoke: bool = False, seed: int = 0) -> HotpathWorkload:
    """Build the fixed bench workload (a smaller one with ``smoke=True``)."""
    n_frames = 6 if smoke else 24
    world = make_environment("sparse", seed=seed)
    frames = _camera_sweep(world, n_frames=n_frames, seed=seed)
    generator = PointCloudGenerator()
    clouds = [np.asarray(generator.compute(frame).points, dtype=float) for frame in frames]

    # The occupied set a mid-mission collision checker would see: integrate
    # the first half of the sweep into a map and take its occupied centres.
    from repro.perception.occupancy import OccupancyMap

    occupancy = OccupancyMap(resolution=1.0)
    for cloud in clouds[: max(len(clouds) // 2, 1)]:
        occupancy.insert_point_cloud(cloud)
    occupied_centers = occupancy.occupied_centers()

    rng = np.random.default_rng(seed + 7)
    query_poses = []
    for _ in range(8 if smoke else 32):
        position = np.array(
            [rng.uniform(0.0, 60.0), rng.uniform(-15.0, 15.0), rng.uniform(1.0, 5.0)]
        )
        velocity = rng.uniform(-3.0, 3.0, size=3)
        waypoints = [
            Waypoint(
                x=float(position[0] + k * rng.uniform(0.5, 2.0)),
                y=float(position[1] + rng.uniform(-1.0, 1.0)),
                z=float(np.clip(position[2] + rng.uniform(-0.5, 0.5), 0.5, 8.0)),
            )
            for k in range(12)
        ]
        query_poses.append(
            {"position": position, "velocity": velocity, "waypoints": waypoints}
        )

    return HotpathWorkload(
        world=world,
        depth_frames=frames,
        clouds=clouds,
        occupied_centers=occupied_centers,
        query_poses=query_poses,
        description={
            "environment": "sparse",
            "seed": seed,
            "depth_frames": n_frames,
            "camera": "96x72",
            "cloud_points": int(sum(len(c) for c in clouds)),
            "occupied_voxels": int(len(occupied_centers)),
            "collision_poses": len(query_poses),
            "smoke": bool(smoke),
        },
    )


# ----------------------------------------------------- reference corpus
#: Environment families the reference corpus flies golden missions in.
CORPUS_ENVIRONMENTS = ("factory", "forest", "urban_canyon", "sparse", "dense", "farm")
#: Simulated-time limit (s) of each corpus mission.
CORPUS_MISSION_TIME_LIMIT = 30.0


@dataclass
class PlanningCase:
    """One planning query: the problem, and the planner that got it (name and arguments)."""

    source: str
    problem: PlanningProblem
    planner_name: str
    planner_kwargs: Dict[str, Any]

    def planner(self, name: Optional[str] = None) -> _TreePlannerBase:
        """The planner ``name`` (default: the recorded one) with this case's arguments."""
        cls = PLANNER_CLASSES[name or self.planner_name]
        accepted = inspect.signature(cls).parameters
        return cls(**{k: v for k, v in self.planner_kwargs.items() if k in accepted})


@dataclass
class RayCastCase:
    """One ``World.ray_cast`` call."""

    source: str
    world: World
    origin: np.ndarray
    directions: np.ndarray
    max_range: float


@dataclass
class ReferenceCorpus:
    """Planning problems and ray casts to replay against the reference kernels.

    ``plans``/``ray_casts`` were recorded from golden missions; the ``edge_*``
    lists are hand-built corner cases.
    """

    plans: List[PlanningCase]
    ray_casts: List[RayCastCase]
    edge_plans: List[PlanningCase]
    edge_ray_casts: List[RayCastCase]
    description: Dict = field(default_factory=dict)


@contextmanager
def _recording(source: List[str], plans: List[PlanningCase], casts: List[RayCastCase]):
    """Record every planner ``plan`` and ``World.ray_cast`` call while active."""
    original_plans = {cls: vars(cls)["plan"] for cls in PLANNER_CLASSES.values()}
    original_cast = vars(World)["ray_cast"]

    def plan(planner: _TreePlannerBase, problem: PlanningProblem):
        plans.append(PlanningCase(source[0], problem, planner.name, dict(vars(planner))))
        return original_plans[type(planner)](planner, problem)

    def ray_cast(world: World, origin, directions, max_range: float = 25.0):
        casts.append(
            RayCastCase(
                source[0],
                world,
                np.array(origin, dtype=float),
                np.array(directions, dtype=float),
                float(max_range),
            )
        )
        return original_cast(world, origin, directions, max_range)

    for cls in original_plans:
        cls.plan = plan  # type: ignore[method-assign]
    World.ray_cast = ray_cast  # type: ignore[method-assign]
    try:
        yield
    finally:
        for cls, original in original_plans.items():
            cls.plan = original  # type: ignore[method-assign]
        World.ray_cast = original_cast  # type: ignore[method-assign]


def _edge_case_plans() -> List[PlanningCase]:
    """Hand-built planning corner cases."""
    start = np.array([0.0, 0.0, 2.0])
    goal = np.array([40.0, 0.0, 2.0])
    enclosure = np.array(
        [
            [40.0 + dx, dy, 3.0 + dz]
            for dx in np.arange(-3.0, 3.5, 1.0)
            for dy in np.arange(-3.0, 3.5, 1.0)
            for dz in np.arange(-3.0, 3.5, 1.0)
            if max(abs(dx), abs(dy), abs(dz)) >= 2.0
        ]
    )
    wall = np.array(
        [
            [20.0, y, z]
            for y in np.arange(-29.0, 30.0, 1.0)
            for z in np.arange(0.5, 10.0, 1.0)
            if abs(y - 6.0) >= 3.0
        ]
    )
    problems = {
        "empty-map": PlanningProblem(start=start, goal=goal),
        # The first voxel is within clearance of the start; the others block
        # the straight line just outside the start's escape ball.
        "start-inside-clearance": PlanningProblem(
            start=start,
            goal=goal,
            occupied_centers=np.array(
                [[0.8, 0.0, 2.0], [3.5, 0.0, 2.0], [3.5, 1.0, 2.0], [3.5, -1.0, 2.0]]
            ),
        ),
        "unreachable-goal": PlanningProblem(
            start=start, goal=np.array([40.0, 0.0, 3.0]), occupied_centers=enclosure
        ),
        "goal-out-of-bounds": PlanningProblem(
            start=start, goal=np.array([70.0, 35.0, 12.0]), occupied_centers=wall
        ),
        "start-on-bounds-corner": PlanningProblem(
            start=np.array([-5.0, -30.0, 0.5]), goal=goal, occupied_centers=wall
        ),
        "goal-at-start": PlanningProblem(start=start, goal=start.copy(), occupied_centers=wall),
        "wall-with-gap": PlanningProblem(start=start, goal=goal, occupied_centers=wall),
        # Inside the bounds, so the exact checks accept both ends, but within
        # CERT_SLACK of them, so no certificate may cover either.
        "ends-within-slack-of-bounds": PlanningProblem(
            start=np.array([-5.0 + CERT_SLACK / 2, 0.0, 2.0]),
            goal=np.array([40.0, 0.0, 10.0 - CERT_SLACK / 2]),
            occupied_centers=wall,
        ),
    }
    cases = []
    for name, problem in problems.items():
        for seed in (0, 1):
            cases.append(
                PlanningCase(
                    f"edge:{name}", problem, "rrt_star", {"seed": seed, "max_iterations": 300}
                )
            )
    return cases


def _edge_case_ray_casts() -> List[RayCastCase]:
    """Hand-built ray-cast corner cases.

    Origins on box faces, edges and corners, inside a box and on the face two
    boxes share, each casting every direction whose components come from
    ``{-1, -0.5, -0.0, 0.0, 0.5, 1}`` (so many are exactly zero, of either sign).
    """
    world = World(name="edge-cases")
    world.add_obstacles(
        [
            Cuboid(lo=(10.0, -2.0, 0.0), hi=(12.0, 2.0, 4.0)),
            Cuboid(lo=(12.0, -2.0, 0.0), hi=(14.0, 2.0, 4.0)),  # shares the x=12 face
            Cuboid(lo=(20.0, 5.0, 1.0), hi=(20.0, 7.0, 3.0)),  # zero thickness
            Cuboid(lo=(30.0, -1.0, 2.0), hi=(31.0, 1.0, 3.0)),
        ]
    )
    axis_values = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
    directions = np.array(
        [[x, y, z] for x in axis_values for y in axis_values for z in axis_values]
    )
    origins = {
        "outside": (5.0, 0.0, 2.0),
        "on-face": (10.0, 0.0, 2.0),
        "on-shared-face": (12.0, 0.0, 2.0),
        "on-edge": (10.0, 2.0, 2.0),
        "on-corner": (10.0, -2.0, 4.0),
        "inside": (11.0, 0.5, 1.5),
        "on-flat-box": (20.0, 6.0, 2.0),
        "on-ground": (5.0, 0.0, 0.0),
    }
    cases = [
        RayCastCase(f"edge:{name}", world, np.array(origin), directions, 25.0)
        for name, origin in origins.items()
    ]
    # The x = 10 face is exactly max_range away along +x.
    cases.append(
        RayCastCase("edge:at-max-range", world, np.array([5.0, 0.0, 2.5]), directions, 5.0)
    )
    cases.append(
        RayCastCase(
            "edge:no-obstacles", World(name="empty"), np.array([5.0, 0.0, 2.0]), directions, 25.0
        )
    )
    return cases


def record_corpus(missions: int = 1) -> ReferenceCorpus:
    """Fly golden missions and record every planning query and ray cast.

    ``missions`` seeded golden missions (seeds ``0..missions-1``) of at most
    :data:`CORPUS_MISSION_TIME_LIMIT` simulated seconds fly in each of
    :data:`CORPUS_ENVIRONMENTS`.  They fly with the construction caches off,
    so no kernel memo can serve a plan query or a depth capture (and its ray
    cast) that an earlier flight already posed.
    """
    from repro.core import knobs
    from repro.pipeline.builder import PipelineConfig, build_pipeline
    from repro.pipeline.runner import MissionRunner

    plans: List[PlanningCase] = []
    casts: List[RayCastCase] = []
    source = [""]
    with knobs.temporary({"REPRO_NO_CACHE": "1"}), _recording(source, plans, casts):
        for environment in CORPUS_ENVIRONMENTS:
            for seed in range(missions):
                source[0] = f"{environment}:{seed}"
                handles = build_pipeline(
                    PipelineConfig(
                        environment=environment,
                        seed=seed,
                        mission_time_limit=CORPUS_MISSION_TIME_LIMIT,
                    )
                )
                MissionRunner(handles).run(setting="golden", seed=seed)
    return ReferenceCorpus(
        plans=plans,
        ray_casts=casts,
        edge_plans=_edge_case_plans(),
        edge_ray_casts=_edge_case_ray_casts(),
        description={
            "environments": list(CORPUS_ENVIRONMENTS),
            "missions_per_environment": missions,
            "mission_time_limit_s": CORPUS_MISSION_TIME_LIMIT,
            "planning_problems": len(plans),
            "ray_casts": len(casts),
        },
    )
