"""Scalar (point-by-point) reference implementations of the hot-path kernels.

Every function here computes the same result as its vectorized counterpart in
``repro.perception`` / ``repro.detection``, but one element at a time -- the
shape the code had before the hot paths were vectorized.  The motion
planners and the depth ray cast keep their previous implementation here too:
one kd-tree query per validity check, a per-node ``np.vstack`` and a
``(rays, boxes, 3)`` slab broadcast.  They exist for two reasons:

* the benchmark harness (``python -m repro bench``) measures the vectorized
  kernels *against* them, so ``BENCH_hotpath.json`` records honest speedups;
* the equivalence tests assert that vectorization did not change behaviour
  (identical occupancy keys and log-odds, identical collision verdicts,
  identical detector scores, identical plans and ray hits on seeded
  workloads).

The occupancy-map scalar reference is :class:`ScalarOccupancyMap` (re-exported
here), which can also drive whole campaigns via ``REPRO_SCALAR_KERNELS=1``.
The planning and ray-casting references are used only by tests and the bench.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.detection.autoencoder import AadDetector
from repro.detection.gaussian import GaussianDetector
from repro.detection.preprocess import sign_exponent_int16
from repro.perception.collision_check import CollisionCheckConfig
from repro.perception.occupancy import ScalarOccupancyMap  # noqa: F401  (re-export)
from repro.planning.rrt import (
    PlannerResult,
    PlanningProblem,
    RRTStarPlanner,
    _TreePlannerBase,
)
from repro.rosmw.message import DepthImageMsg
from repro.sim.world import World


def scalar_point_cloud(
    depth_msg: DepthImageMsg, stride: int = 1, max_points: int = 4096
) -> np.ndarray:
    """Per-pixel reference of :class:`~repro.perception.point_cloud.PointCloudGenerator`.

    Walks the depth image pixel by pixel, reconstructing and rotating one ray
    direction at a time.  Point order matches the vectorized kernel
    (row-major over the strided image); values agree to float round-off (the
    vectorized kernel batches the rotation into one matmul).
    """
    depth = np.asarray(depth_msg.depth, dtype=float)
    if depth.ndim != 2 or depth.size == 0:
        return np.zeros((0, 3))
    height, width = depth.shape
    az = np.deg2rad(np.linspace(-depth_msg.fov_h / 2, depth_msg.fov_h / 2, width))
    el = np.deg2rad(np.linspace(-depth_msg.fov_v / 2, depth_msg.fov_v / 2, height))
    yaw = float(depth_msg.camera_yaw)
    cos_yaw, sin_yaw = np.cos(yaw), np.sin(yaw)
    points: List[List[float]] = []
    for i in range(0, height, stride):
        for j in range(0, width, stride):
            r = depth[i, j]
            if not np.isfinite(r) or r <= 0 or r > depth_msg.max_range:
                continue
            x = np.cos(el[i]) * np.cos(az[j])
            y = np.cos(el[i]) * np.sin(az[j])
            z = np.sin(el[i])
            wx = cos_yaw * x - sin_yaw * y
            wy = sin_yaw * x + cos_yaw * y
            points.append(
                [
                    depth_msg.camera_position[0] + wx * r,
                    depth_msg.camera_position[1] + wy * r,
                    depth_msg.camera_position[2] + z * r,
                ]
            )
            if len(points) >= max_points:
                return np.asarray(points, dtype=float)
    if not points:
        return np.zeros((0, 3))
    return np.asarray(points, dtype=float)


class ScalarCollisionChecker:
    """Point-by-point reference of :class:`~repro.perception.collision_check.CollisionChecker`.

    No KD-tree and no batched queries: every lookahead sample and every
    trajectory way-point is checked with its own distance computation over
    the occupied voxel centres.
    """

    def __init__(self, config: Optional[CollisionCheckConfig] = None) -> None:
        self.config = config if config is not None else CollisionCheckConfig()
        self._centers = np.zeros((0, 3))
        self._map_resolution = 1.0

    def update_map(self, occupied_centers: np.ndarray, resolution: float) -> None:
        """Remember the occupied voxel centres (no acceleration structure)."""
        self._centers = np.asarray(occupied_centers, dtype=float).reshape(-1, 3)
        self._map_resolution = float(resolution)

    def _nearest(self, point: np.ndarray) -> float:
        if self._centers.size == 0:
            return float("inf")
        best = float("inf")
        for center in self._centers:
            d = float(np.sqrt(((center - point) ** 2).sum()))
            if d < best:
                best = d
        return best

    def distance_to_nearest(self, position: np.ndarray) -> float:
        """Distance from ``position`` to the nearest occupied voxel surface."""
        dist = self._nearest(np.asarray(position, dtype=float))
        return float(max(dist - self._map_resolution / 2.0, 0.0))

    def time_to_collision(self, position: np.ndarray, velocity: np.ndarray) -> float:
        """Sample-by-sample lookahead along the velocity vector."""
        cfg = self.config
        speed = float(np.linalg.norm(velocity))
        if self._centers.size == 0 or speed < cfg.min_speed:
            return float("inf")
        direction = np.asarray(velocity, dtype=float) / speed
        position = np.asarray(position, dtype=float)
        distances = np.arange(
            cfg.lookahead_step, speed * cfg.lookahead_time, cfg.lookahead_step
        )
        for travelled in distances:
            sample = position + travelled * direction
            if self._nearest(sample) <= cfg.collision_clearance:
                return float(travelled) / speed
        return float("inf")

    def trajectory_collides(self, waypoints: Sequence, from_position: np.ndarray) -> bool:
        """Way-point-by-way-point check of the remaining trajectory."""
        if self._centers.size == 0 or not waypoints:
            return False
        points = np.array([[w.x, w.y, w.z] for w in waypoints], dtype=float)
        dists = np.linalg.norm(points - np.asarray(from_position)[None, :], axis=1)
        start_idx = int(np.argmin(dists))
        for point in points[start_idx:]:
            if self._nearest(point) <= self.config.collision_clearance:
                return True
        return False


def scalar_gad_scores(
    detector: GaussianDetector, matrix: np.ndarray, features: Optional[Sequence[str]] = None
) -> np.ndarray:
    """Cell-by-cell reference of :meth:`GaussianDetector.score_batch`.

    Replicates the frozen arithmetic of :meth:`~repro.detection.gaussian.CGad.check`
    (no online update) one sample and one feature at a time; returns the
    boolean anomaly matrix of shape ``(N, F)``.
    """
    features = list(features) if features is not None else list(detector.detectors)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    out = np.zeros(matrix.shape, dtype=bool)
    for row in range(matrix.shape[0]):
        for col, feature in enumerate(features):
            cgad = detector.detectors[feature]
            cfg = cgad.config  # per-cGAD config, exactly like CGad.check
            std = max(cgad.model.std, cfg.min_std)
            deviation = abs(float(matrix[row, col]) - cgad.model.mean)
            armed = cgad.model.count >= cfg.min_samples
            out[row, col] = bool(armed and deviation > cfg.n_sigma * std)
    return out


def scalar_aad_errors(detector: AadDetector, vectors: np.ndarray) -> np.ndarray:
    """Row-by-row reference of :meth:`AadDetector.score_batch`."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    errors = np.zeros(vectors.shape[0])
    for row in range(vectors.shape[0]):
        normalized = (vectors[row] - detector.feature_mean) / detector.feature_std
        errors[row] = float(detector.autoencoder.reconstruction_error(normalized)[0])
    return errors


def scalar_sign_exponent(values: np.ndarray) -> np.ndarray:
    """Value-by-value reference of :func:`~repro.detection.preprocess.sign_exponent_transform`."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    return np.array([sign_exponent_int16(v) for v in flat], dtype=np.int64)


# ---------------------------------------------------------------- ray casting
def scalar_ray_cast(
    world: World,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float = 25.0,
) -> np.ndarray:
    """Reference of :meth:`~repro.sim.world.World.ray_cast`.

    The slab test broadcast to ``(n_rays, n_boxes, 3)`` and reduced over its
    3-wide last axis.
    """
    origin = np.asarray(origin, dtype=float)
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != 3:
        raise ValueError(f"directions must have shape (N, 3), got {directions.shape}")
    n_rays = directions.shape[0]
    hits = np.full(n_rays, np.inf)

    if world.num_obstacles > 0:
        lo, hi = world._lo, world._hi
        # Slab test, broadcast to (n_rays, n_boxes, 3).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv_d = 1.0 / directions  # inf where direction component is 0
        with np.errstate(invalid="ignore", over="ignore"):
            t1 = (lo[None, :, :] - origin[None, None, :]) * inv_d[:, None, :]
            t2 = (hi[None, :, :] - origin[None, None, :]) * inv_d[:, None, :]
        tmin = np.minimum(t1, t2)
        tmax = np.maximum(t1, t2)
        # A zero direction component against a slab not containing the
        # origin yields (inf, -inf) or (nan); treat nan as no constraint.
        tmin = np.where(np.isnan(tmin), -np.inf, tmin)
        tmax = np.where(np.isnan(tmax), np.inf, tmax)
        t_enter = tmin.max(axis=2)
        t_exit = tmax.min(axis=2)
        valid = (t_exit >= np.maximum(t_enter, 0.0)) & (t_enter <= max_range)
        t_enter = np.where(valid, np.maximum(t_enter, 0.0), np.inf)
        hits = t_enter.min(axis=1)

    # Ground plane.
    ground_z = world.bounds_lo[2]
    dz = directions[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = (ground_z - origin[2]) / dz
    t_ground = np.where((dz < 0) & (t_ground > 0), t_ground, np.inf)
    hits = np.minimum(hits, t_ground)
    hits = np.where(hits <= max_range, hits, np.inf)
    return hits


# ------------------------------------------------------------------- planning
def scalar_state_valid(problem: PlanningProblem, point: np.ndarray) -> bool:
    """Reference of :meth:`~repro.planning.rrt.PlanningProblem.state_valid`."""
    p = np.asarray(point, dtype=float)
    lo = np.asarray(problem.bounds_lo, dtype=float)
    hi = np.asarray(problem.bounds_hi, dtype=float)
    if np.any(p < lo) or np.any(p > hi):
        return False
    if problem._tree is None:
        if np.isnan(p).any():
            raise ValueError("NaN coordinate in a planning query point")
        return True
    if np.linalg.norm(p - problem.start) < problem.start_escape_radius:
        return True
    dist, _ = problem._tree.query(p)
    return bool(dist > problem.clearance)


def scalar_edge_valid(
    problem: PlanningProblem, a: np.ndarray, b: np.ndarray, step: float = 0.5
) -> bool:
    """Reference of :meth:`~repro.planning.rrt.PlanningProblem.edge_valid`."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.linalg.norm(b - a))
    n_samples = max(2, int(np.ceil(length / step)) + 1)
    ts = np.linspace(0.0, 1.0, n_samples)
    samples = a[None, :] + ts[:, None] * (b - a)[None, :]
    lo = np.asarray(problem.bounds_lo, dtype=float)
    hi = np.asarray(problem.bounds_hi, dtype=float)
    if np.any(samples < lo[None, :]) or np.any(samples > hi[None, :]):
        return False
    if problem._tree is None:
        return True
    dists, _ = problem._tree.query(samples)
    near_start = (
        np.linalg.norm(samples - problem.start[None, :], axis=1) < problem.start_escape_radius
    )
    return bool(np.all((dists > problem.clearance) | near_start))


def _sample(
    planner: _TreePlannerBase, rng: np.random.Generator, problem: PlanningProblem
) -> np.ndarray:
    if rng.uniform() < planner.goal_bias:
        return problem.goal.copy()
    lo = np.asarray(problem.bounds_lo, dtype=float)
    hi = np.asarray(problem.bounds_hi, dtype=float)
    return rng.uniform(lo, hi)


def _steer(planner: _TreePlannerBase, from_point: np.ndarray, to_point: np.ndarray) -> np.ndarray:
    delta = to_point - from_point
    dist = float(np.linalg.norm(delta))
    if dist <= planner.step_size:
        return to_point.copy()
    return from_point + delta * (planner.step_size / dist)


def _nearest(nodes: np.ndarray, point: np.ndarray) -> int:
    dists = np.linalg.norm(nodes - point[None, :], axis=1)
    return int(np.argmin(dists))


def _extract_path(nodes: List[np.ndarray], parents: List[int], leaf: int) -> List[np.ndarray]:
    path = []
    idx = leaf
    while idx != -1:
        path.append(nodes[idx].copy())
        idx = parents[idx]
    path.reverse()
    return path


def scalar_rrt_plan(planner: _TreePlannerBase, problem: PlanningProblem) -> PlannerResult:
    """Reference of :meth:`~repro.planning.rrt.RRTPlanner.plan`."""
    rng = np.random.default_rng(planner.seed)
    if not scalar_state_valid(problem, problem.start):
        # The vehicle may legitimately be closer to an obstacle than the
        # planner clearance; planning from an invalid start is allowed as
        # long as the rest of the path is clear.
        pass
    nodes: List[np.ndarray] = [problem.start.copy()]
    parents: List[int] = [-1]
    node_array = np.array([problem.start])
    for iteration in range(1, planner.max_iterations + 1):
        target = _sample(planner, rng, problem)
        nearest_idx = _nearest(node_array, target)
        new_point = _steer(planner, nodes[nearest_idx], target)
        if not scalar_state_valid(problem, new_point):
            continue
        if not scalar_edge_valid(problem, nodes[nearest_idx], new_point):
            continue
        nodes.append(new_point)
        parents.append(nearest_idx)
        node_array = np.vstack([node_array, new_point[None, :]])
        if np.linalg.norm(new_point - problem.goal) <= planner.goal_tolerance:
            if scalar_edge_valid(problem, new_point, problem.goal):
                nodes.append(problem.goal.copy())
                parents.append(len(nodes) - 2)
                path = _extract_path(nodes, parents, len(nodes) - 1)
                return PlannerResult(
                    success=True,
                    path=path,
                    iterations=iteration,
                    tree_size=len(nodes),
                    planner_name=planner.name,
                )
    return PlannerResult(
        success=False,
        iterations=planner.max_iterations,
        tree_size=len(nodes),
        planner_name=planner.name,
    )


def scalar_rrt_star_plan(planner: RRTStarPlanner, problem: PlanningProblem) -> PlannerResult:
    """Reference of :meth:`~repro.planning.rrt.RRTStarPlanner.plan`."""
    rng = np.random.default_rng(planner.seed)
    nodes: List[np.ndarray] = [problem.start.copy()]
    parents: List[int] = [-1]
    costs: List[float] = [0.0]
    node_array = np.array([problem.start])
    goal_nodes: List[int] = []
    first_goal_iteration: Optional[int] = None
    iterations = 0

    for iteration in range(1, planner.max_iterations + 1):
        if (
            first_goal_iteration is not None
            and iteration - first_goal_iteration > planner.goal_extra_iterations
        ):
            break
        iterations = iteration
        target = _sample(planner, rng, problem)
        nearest_idx = _nearest(node_array, target)
        new_point = _steer(planner, nodes[nearest_idx], target)
        if not scalar_state_valid(problem, new_point):
            continue
        if not scalar_edge_valid(problem, nodes[nearest_idx], new_point):
            continue

        # Choose the lowest-cost parent within the rewire radius.
        dists = np.linalg.norm(node_array - new_point[None, :], axis=1)
        neighbor_idx = np.where(dists <= planner.rewire_radius)[0]
        best_parent = nearest_idx
        best_cost = costs[nearest_idx] + float(dists[nearest_idx])
        for idx in neighbor_idx:
            candidate_cost = costs[idx] + float(dists[idx])
            if candidate_cost < best_cost and scalar_edge_valid(problem, nodes[idx], new_point):
                best_parent = int(idx)
                best_cost = candidate_cost

        nodes.append(new_point)
        parents.append(best_parent)
        costs.append(best_cost)
        new_idx = len(nodes) - 1
        node_array = np.vstack([node_array, new_point[None, :]])

        # Rewire neighbours through the new node when that is cheaper.
        for idx in neighbor_idx:
            rewired_cost = best_cost + float(dists[idx])
            if rewired_cost < costs[idx] and scalar_edge_valid(problem, new_point, nodes[idx]):
                parents[idx] = new_idx
                costs[idx] = rewired_cost

        if np.linalg.norm(new_point - problem.goal) <= planner.goal_tolerance:
            goal_nodes.append(new_idx)
            if first_goal_iteration is None:
                first_goal_iteration = iteration

    if goal_nodes:
        best_goal = min(goal_nodes, key=lambda idx: costs[idx])
        path = _extract_path(nodes, parents, best_goal)
        path.append(problem.goal.copy())
        return PlannerResult(
            success=True,
            path=path,
            iterations=iterations,
            tree_size=len(nodes),
            planner_name=planner.name,
        )
    return PlannerResult(
        success=False,
        iterations=iterations,
        tree_size=len(nodes),
        planner_name=planner.name,
    )


def scalar_rrt_connect_plan(planner: _TreePlannerBase, problem: PlanningProblem) -> PlannerResult:
    """Reference of :meth:`~repro.planning.rrt.RRTConnectPlanner.plan`."""
    rng = np.random.default_rng(planner.seed)
    trees: List[Dict] = [
        {"nodes": [problem.start.copy()], "parents": [-1]},
        {"nodes": [problem.goal.copy()], "parents": [-1]},
    ]
    for iteration in range(1, planner.max_iterations + 1):
        active, other = trees[iteration % 2], trees[(iteration + 1) % 2]
        target = _sample(planner, rng, problem)
        active_array = np.asarray(active["nodes"])
        nearest_idx = _nearest(active_array, target)
        new_point = _steer(planner, active["nodes"][nearest_idx], target)
        if not scalar_state_valid(problem, new_point):
            continue
        if not scalar_edge_valid(problem, active["nodes"][nearest_idx], new_point):
            continue
        active["nodes"].append(new_point)
        active["parents"].append(nearest_idx)

        # Try to connect the other tree directly to the new point.
        other_array = np.asarray(other["nodes"])
        other_nearest = _nearest(other_array, new_point)
        if np.linalg.norm(
            other["nodes"][other_nearest] - new_point
        ) <= planner.step_size * 1.5 and scalar_edge_valid(
            problem, other["nodes"][other_nearest], new_point
        ):
            path_active = _extract_path(
                active["nodes"], active["parents"], len(active["nodes"]) - 1
            )
            path_other = _extract_path(other["nodes"], other["parents"], other_nearest)
            if iteration % 2 == 0:
                # ``active`` is the start tree; ``other`` is the goal tree.
                path = path_active + list(reversed(path_other))
            else:
                # ``active`` is the goal tree: its path runs goal->connect.
                path = path_other + list(reversed(path_active))
            return PlannerResult(
                success=True,
                path=path,
                iterations=iteration,
                tree_size=len(trees[0]["nodes"]) + len(trees[1]["nodes"]),
                planner_name=planner.name,
            )
    return PlannerResult(
        success=False,
        iterations=planner.max_iterations,
        tree_size=len(trees[0]["nodes"]) + len(trees[1]["nodes"]),
        planner_name=planner.name,
    )


#: Planner name -> reference ``plan`` body.
SCALAR_PLANS: Dict[str, Callable[..., PlannerResult]] = {
    "rrt": scalar_rrt_plan,
    "rrt_star": scalar_rrt_star_plan,
    "rrt_connect": scalar_rrt_connect_plan,
}


def scalar_plan(planner: _TreePlannerBase, problem: PlanningProblem) -> PlannerResult:
    """Run the reference ``plan`` body of ``planner``'s class."""
    return SCALAR_PLANS[planner.name](planner, problem)

