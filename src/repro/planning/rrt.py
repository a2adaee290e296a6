"""Sampling-based motion planners: RRT, RRT-Connect and RRT*.

The motion planner kernel of MAVBench uses OMPL's sampling-based planners;
the paper evaluates RRT, RRTConnect and RRT* (Fig. 3).  These planners operate
on the occupancy map snapshot: a state is valid when it keeps a clearance
distance from every occupied voxel centre, and an edge is valid when all its
samples are valid.  The implementations are deterministic given the seed.

Validity checks are the planners' cost.  Extending the tree answers "is the
new state valid and is the edge to it valid" with one kd-tree query, and RRT*
validates all its choose-parent candidates, then all its rewire candidates,
with one batched query each before replaying its sequential accept loop over
the verdicts.  Every float is computed with the same operations as the
one-check-at-a-time formulation (``repro.bench.scalar_ref`` keeps it), so
plans are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

#: Spacing (m) of the collision samples along an edge.
EDGE_STEP = 0.5


def _norm(vector: np.ndarray) -> float:
    """Euclidean norm of one vector: ``sqrt(v . v)``, as ``np.linalg.norm`` computes it."""
    return math.sqrt(vector.dot(vector))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms, as ``np.linalg.norm(rows, axis=1)`` computes them."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _sample_count(length: float, step: float) -> int:
    """Samples on a segment of ``length``: at most ``step`` apart, both ends included."""
    return max(2, math.ceil(length / step) + 1)


@lru_cache(maxsize=256)
def _fractions(n_samples: int) -> np.ndarray:
    """``np.linspace(0, 1, n_samples)`` as a read-only column."""
    ts = np.linspace(0.0, 1.0, n_samples)[:, None]
    ts.flags.writeable = False
    return ts


@dataclass
class PlanningProblem:
    """One motion-planning query against an occupancy snapshot.

    ``start_escape_radius`` relaxes the clearance constraint in a small ball
    around the start: the vehicle may legitimately be closer to an obstacle
    than the planning clearance (e.g. after braking in front of it), and the
    planner must still be able to back out of that pocket.
    """

    start: np.ndarray
    goal: np.ndarray
    occupied_centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    map_resolution: float = 1.0
    bounds_lo: Sequence[float] = (-5.0, -30.0, 0.5)
    bounds_hi: Sequence[float] = (65.0, 30.0, 10.0)
    clearance: float = 1.1
    start_escape_radius: float = 2.5

    def __post_init__(self) -> None:
        self.start = np.asarray(self.start, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        self.occupied_centers = np.asarray(self.occupied_centers, dtype=float)
        if self.occupied_centers.size:
            self._tree: Optional[cKDTree] = cKDTree(self.occupied_centers)
        else:
            self._tree = None
        self._lo = np.asarray(self.bounds_lo, dtype=float)
        self._hi = np.asarray(self.bounds_hi, dtype=float)

    # ---------------------------------------------------------------- queries
    def _out_of_bounds(self, points: np.ndarray) -> bool:
        return bool((points < self._lo).any() or (points > self._hi).any())

    def _clear(self, samples: np.ndarray, dists: np.ndarray) -> np.ndarray:
        """Per sample: clear of the occupied voxels, or inside the start's escape ball."""
        clear = dists > self.clearance
        if not clear.all():
            clear |= _row_norms(samples - self.start) < self.start_escape_radius
        return clear

    def state_valid(self, point: np.ndarray) -> bool:
        """Whether ``point`` is inside bounds and clear of occupied voxels."""
        p = np.asarray(point, dtype=float)
        if self._out_of_bounds(p):
            return False
        if self._tree is None:
            return True
        if _norm(p - self.start) < self.start_escape_radius:
            return True
        dist, _ = self._tree.query(p)
        return bool(dist > self.clearance)

    def edge_valid(self, a: np.ndarray, b: np.ndarray, step: float = EDGE_STEP) -> bool:
        """Whether the straight segment between ``a`` and ``b`` is collision-free."""
        a = np.asarray(a, dtype=float)
        delta = np.asarray(b, dtype=float) - a
        samples = _fractions(_sample_count(_norm(delta), step)) * delta + a
        if self._out_of_bounds(samples):
            return False
        if self._tree is None:
            return True
        dists, _ = self._tree.query(samples)
        return bool(self._clear(samples, dists).all())

    def extend_valid(self, a: np.ndarray, b: np.ndarray) -> bool:
        """``state_valid(b) and edge_valid(a, b)``, with one kd-tree query.

        ``b`` must be a point steered from ``a``, so that a NaN segment length
        means a NaN ``b``.  :meth:`state_valid` raises on that in the kd-tree
        query, and so does this.
        """
        if self._tree is None:
            return not self._out_of_bounds(b) and self.edge_valid(a, b)
        delta = b - a
        length = _norm(delta)
        ts = _fractions(_sample_count(length, EDGE_STEP) if length == length else 2)
        points = np.empty((len(ts) + 1, 3))
        points[0] = b
        samples = points[1:]
        np.multiply(ts, delta, out=samples)
        samples += a
        if self._out_of_bounds(points):
            return False
        dists, _ = self._tree.query(points)
        if not (dists[0] > self.clearance or _norm(b - self.start) < self.start_escape_radius):
            return False
        return bool(self._clear(samples, dists[1:]).all())

    def edges_valid(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`edge_valid` of every edge ``a[i]``-``b[i]``, with one kd-tree query.

        ``a`` and ``b`` are ``(E, 3)`` arrays, or one of them a single point
        shared by every edge.  Returns ``E`` booleans.
        """
        delta = np.asarray(b, dtype=float) - a
        lengths = np.sqrt(np.matmul(delta[:, None, :], delta[:, :, None]).ravel())
        counts = np.maximum(np.ceil(lengths / EDGE_STEP).astype(np.intp) + 1, 2)
        ends = np.cumsum(counts)
        starts = ends - counts
        edge = np.repeat(np.arange(len(counts)), counts)
        # np.linspace(0, 1, n) of every edge: k * (1 / (n - 1)), ending at exactly 1.
        ts = (np.arange(ends[-1]) - starts[edge]) * (1.0 / (counts - 1))[edge]
        ts[ends - 1] = 1.0
        samples = ts[:, None] * delta[edge]
        samples += a[edge] if a.ndim == 2 else a
        bad = (samples < self._lo).any(axis=1) | (samples > self._hi).any(axis=1)
        if self._tree is not None:
            dists, _ = self._tree.query(samples)
            bad |= ~self._clear(samples, dists)
        return ~np.logical_or.reduceat(bad, starts)


@dataclass
class PlannerResult:
    """Outcome of one planning query."""

    success: bool
    path: List[np.ndarray] = field(default_factory=list)
    iterations: int = 0
    tree_size: int = 0
    planner_name: str = "rrt"

    @property
    def length(self) -> float:
        """Total Euclidean length of the returned path."""
        if len(self.path) < 2:
            return 0.0
        pts = np.asarray(self.path)
        return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


class _TreePlannerBase:
    """Common machinery for the single- and dual-tree planners.

    A tree is a preallocated ``(max_iterations + 1, 3)`` node buffer (one new
    node per iteration at most) plus a parent list.
    """

    name = "rrt"

    def __init__(
        self,
        max_iterations: int = 600,
        step_size: float = 3.0,
        goal_bias: float = 0.15,
        goal_tolerance: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.max_iterations = int(max_iterations)
        self.step_size = float(step_size)
        self.goal_bias = float(goal_bias)
        self.goal_tolerance = float(goal_tolerance)
        self.seed = int(seed)

    # ------------------------------------------------------------ primitives
    def _new_tree(self, root: np.ndarray) -> np.ndarray:
        nodes = np.empty((max(self.max_iterations, 0) + 1, 3))
        nodes[0] = root
        return nodes

    def _sample(
        self, rng: np.random.Generator, problem: PlanningProblem
    ) -> np.ndarray:
        if rng.uniform() < self.goal_bias:
            return problem.goal.copy()
        return rng.uniform(problem._lo, problem._hi)

    def _steer(self, from_point: np.ndarray, to_point: np.ndarray) -> np.ndarray:
        delta = to_point - from_point
        dist = _norm(delta)
        if dist <= self.step_size:
            return to_point.copy()
        return from_point + delta * (self.step_size / dist)

    @staticmethod
    def _nearest(nodes: np.ndarray, point: np.ndarray) -> int:
        return int(_row_norms(nodes - point).argmin())

    @staticmethod
    def _extract_path(nodes: np.ndarray, parents: List[int], leaf: int) -> List[np.ndarray]:
        path = []
        idx = leaf
        while idx != -1:
            path.append(nodes[idx].copy())
            idx = parents[idx]
        path.reverse()
        return path

    def plan(self, problem: PlanningProblem) -> PlannerResult:  # pragma: no cover - abstract
        raise NotImplementedError


class RRTPlanner(_TreePlannerBase):
    """Classic single-tree RRT."""

    name = "rrt"

    def plan(self, problem: PlanningProblem) -> PlannerResult:
        """Grow a tree from the start until the goal region is reached.

        The start itself is not validated: the vehicle may legitimately be
        closer to an obstacle than the planner clearance, and planning from
        there is allowed as long as the rest of the path is clear.
        """
        rng = np.random.default_rng(self.seed)
        nodes = self._new_tree(problem.start)
        parents: List[int] = [-1]
        for iteration in range(1, self.max_iterations + 1):
            target = self._sample(rng, problem)
            nearest_idx = self._nearest(nodes[: len(parents)], target)
            new_point = self._steer(nodes[nearest_idx], target)
            if not problem.extend_valid(nodes[nearest_idx], new_point):
                continue
            nodes[len(parents)] = new_point
            parents.append(nearest_idx)
            if _norm(new_point - problem.goal) <= self.goal_tolerance:
                if problem.edge_valid(new_point, problem.goal):
                    path = self._extract_path(nodes, parents, len(parents) - 1)
                    path.append(problem.goal.copy())
                    return PlannerResult(
                        success=True,
                        path=path,
                        iterations=iteration,
                        tree_size=len(parents) + 1,
                        planner_name=self.name,
                    )
        return PlannerResult(
            success=False,
            iterations=self.max_iterations,
            tree_size=len(parents),
            planner_name=self.name,
        )


class RRTStarPlanner(_TreePlannerBase):
    """RRT* with local rewiring for asymptotically optimal paths."""

    name = "rrt_star"

    def __init__(
        self,
        max_iterations: int = 600,
        step_size: float = 3.0,
        goal_bias: float = 0.15,
        goal_tolerance: float = 2.0,
        rewire_radius: float = 5.0,
        goal_extra_iterations: int = 150,
        seed: int = 0,
    ) -> None:
        super().__init__(max_iterations, step_size, goal_bias, goal_tolerance, seed)
        self.rewire_radius = float(rewire_radius)
        self.goal_extra_iterations = int(goal_extra_iterations)

    def plan(self, problem: PlanningProblem) -> PlannerResult:
        """Grow and rewire a tree; return the best goal-reaching path found.

        Once the goal region has been reached, the planner keeps refining for
        ``goal_extra_iterations`` more samples (closing in on the shortest
        path) and then stops, rather than always exhausting the full budget.
        ``iterations`` in the result counts the iterations actually run.
        """
        rng = np.random.default_rng(self.seed)
        nodes = self._new_tree(problem.start)
        parents: List[int] = [-1]
        costs = np.zeros(len(nodes))
        goal_nodes: List[int] = []
        first_goal_iteration: Optional[int] = None
        iterations = 0

        for iteration in range(1, self.max_iterations + 1):
            if (
                first_goal_iteration is not None
                and iteration - first_goal_iteration > self.goal_extra_iterations
            ):
                break
            iterations = iteration
            target = self._sample(rng, problem)
            size = len(parents)
            nearest_idx = self._nearest(nodes[:size], target)
            new_point = self._steer(nodes[nearest_idx], target)
            if not problem.extend_valid(nodes[nearest_idx], new_point):
                continue

            # Choose the lowest-cost parent within the rewire radius.  Only
            # neighbours cheaper than the nearest node can win, so only their
            # edges are validated (one batched query); the sequential accept
            # loop then runs over those verdicts in neighbour order.
            dists = _row_norms(nodes[:size] - new_point)
            neighbor_idx = np.flatnonzero(dists <= self.rewire_radius)
            neighbor_costs = costs[neighbor_idx]
            neighbor_dists = dists[neighbor_idx]
            best_parent = nearest_idx
            best_cost = costs[nearest_idx] + dists[nearest_idx]
            via = neighbor_costs + neighbor_dists
            cheaper = via < best_cost
            if cheaper.any():
                candidates = neighbor_idx[cheaper]
                valid = problem.edges_valid(nodes[candidates], new_point)
                for idx, candidate_cost, ok in zip(candidates, via[cheaper], valid):
                    if ok and candidate_cost < best_cost:
                        best_parent = int(idx)
                        best_cost = candidate_cost

            new_idx = size
            nodes[new_idx] = new_point
            parents.append(best_parent)
            costs[new_idx] = best_cost

            # Rewire neighbours through the new node when that is cheaper.
            rewired = best_cost + neighbor_dists
            cheaper = rewired < neighbor_costs
            if cheaper.any():
                candidates = neighbor_idx[cheaper]
                valid = problem.edges_valid(new_point, nodes[candidates])
                for idx in candidates[valid]:
                    parents[idx] = new_idx
                costs[candidates[valid]] = rewired[cheaper][valid]

            if _norm(new_point - problem.goal) <= self.goal_tolerance:
                goal_nodes.append(new_idx)
                if first_goal_iteration is None:
                    first_goal_iteration = iteration

        if goal_nodes:
            best_goal = min(goal_nodes, key=lambda idx: costs[idx])
            path = self._extract_path(nodes, parents, best_goal)
            path.append(problem.goal.copy())
            return PlannerResult(
                success=True,
                path=path,
                iterations=iterations,
                tree_size=len(parents),
                planner_name=self.name,
            )
        return PlannerResult(
            success=False,
            iterations=iterations,
            tree_size=len(parents),
            planner_name=self.name,
        )


class RRTConnectPlanner(_TreePlannerBase):
    """Bidirectional RRT-Connect: two trees grown towards each other."""

    name = "rrt_connect"

    def plan(self, problem: PlanningProblem) -> PlannerResult:
        """Alternate extending a start tree and a goal tree until they connect."""
        rng = np.random.default_rng(self.seed)
        trees = [self._new_tree(problem.start), self._new_tree(problem.goal)]
        tree_parents: List[List[int]] = [[-1], [-1]]
        for iteration in range(1, self.max_iterations + 1):
            active, other = trees[iteration % 2], trees[(iteration + 1) % 2]
            parents, other_parents = tree_parents[iteration % 2], tree_parents[(iteration + 1) % 2]
            target = self._sample(rng, problem)
            nearest_idx = self._nearest(active[: len(parents)], target)
            new_point = self._steer(active[nearest_idx], target)
            if not problem.extend_valid(active[nearest_idx], new_point):
                continue
            active[len(parents)] = new_point
            parents.append(nearest_idx)

            # Try to connect the other tree directly to the new point.
            other_nearest = self._nearest(other[: len(other_parents)], new_point)
            if _norm(
                other[other_nearest] - new_point
            ) <= self.step_size * 1.5 and problem.edge_valid(other[other_nearest], new_point):
                path_active = self._extract_path(active, parents, len(parents) - 1)
                path_other = self._extract_path(other, other_parents, other_nearest)
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
                    tree_size=len(tree_parents[0]) + len(tree_parents[1]),
                    planner_name=self.name,
                )
        return PlannerResult(
            success=False,
            iterations=self.max_iterations,
            tree_size=len(tree_parents[0]) + len(tree_parents[1]),
            planner_name=self.name,
        )


PLANNER_CLASSES = {
    "rrt": RRTPlanner,
    "rrt_connect": RRTConnectPlanner,
    "rrt_star": RRTStarPlanner,
}


def make_planner(name: str, seed: int = 0, **kwargs) -> _TreePlannerBase:
    """Instantiate a planner by name (``rrt``, ``rrt_connect`` or ``rrt_star``)."""
    key = name.lower()
    if key not in PLANNER_CLASSES:
        raise KeyError(f"unknown planner '{name}'; expected one of {sorted(PLANNER_CLASSES)}")
    return PLANNER_CLASSES[key](seed=seed, **kwargs)
