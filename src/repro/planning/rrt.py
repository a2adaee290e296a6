"""Sampling-based motion planners: RRT, RRT-Connect and RRT*.

The motion planner kernel of MAVBench uses OMPL's sampling-based planners;
the paper evaluates RRT, RRTConnect and RRT* (Fig. 3).  These planners operate
on the occupancy map snapshot: a state is valid when it keeps a clearance
distance from every occupied voxel centre, and an edge is valid when all its
samples are valid.  The implementations are deterministic given the seed.

Validity checks are the planners' cost, and most of that is the number of
kd-tree queries.  Every tree node therefore carries a *radius*, a lower bound
on its distance to the nearest occupied voxel centre (a safety certificate,
after Bialkowski, Otte, Karaman and Frazzoli, IJRR 2016).  By the triangle
inequality a node of radius ``r`` clears every point within
``r - clearance`` of it, so an extension or an edge that its endpoint radii
cover is valid with no query.  A certificate only ever accepts, and only with
:data:`CERT_SLACK` to spare; every other check runs the exact code.  That
code answers an extension ("is the new state valid and is the edge to it
valid") with one kd-tree query, whose first row is also the new node's
radius, and RRT* validates its uncertified choose-parent candidates, then its
uncertified rewire candidates, with one batched query each before replaying
its sequential accept loop over the verdicts.  Every verdict and every float
is the one-check-at-a-time formulation's (``repro.bench.scalar_ref`` keeps
it), so plans are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.spatial import cKDTree

from repro.sim.world import CERT_SLACK

#: Spacing (m) of the collision samples along an edge.
EDGE_STEP = 0.5

#: Doubles the sample stream draws from the generator at a time.
_SAMPLE_BLOCK = 256


def _norm(vector: np.ndarray) -> float:
    """Euclidean norm of one vector: ``sqrt(v . v)``, as ``np.linalg.norm`` computes it."""
    return math.sqrt(vector.dot(vector))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms, as ``np.linalg.norm(rows, axis=1)`` computes them."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _reject_nan(*points: np.ndarray) -> None:
    """Raise ``ValueError`` on a NaN coordinate, as a kd-tree query would.

    The bounds test passes NaN (every comparison with it is false), so the
    empty-map checks, which make no query, call this instead.
    """
    if any(np.isnan(p).any() for p in points):
        raise ValueError("NaN coordinate in a planning query point")


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
        self._lo = np.asarray(self.bounds_lo, dtype=float)
        self._hi = np.asarray(self.bounds_hi, dtype=float)
        # The bounds shrunk by CERT_SLACK, clipped to finite floats so that an
        # infinite coordinate is never inside them.
        largest = np.finfo(float).max
        self._cert_lo = np.clip(self._lo + CERT_SLACK, -largest, largest).tolist()
        self._cert_hi = np.clip(self._hi - CERT_SLACK, -largest, largest).tolist()
        self._cert_clearance = self.clearance + CERT_SLACK

    @cached_property
    def _tree(self) -> Optional[cKDTree]:
        """The kd-tree over the occupied centres, built on the first query;
        ``None`` for an empty map."""
        return cKDTree(self.occupied_centers) if self.occupied_centers.size else None

    # ---------------------------------------------------------------- queries
    def _out_of_bounds(self, points: np.ndarray) -> bool:
        return bool((points < self._lo).any() or (points > self._hi).any())

    def _certifiable(self, point: np.ndarray) -> bool:
        """Whether ``point`` is finite and inside the bounds shrunk by :data:`CERT_SLACK`."""
        x, y, z = point.tolist()
        (lx, ly, lz), (hx, hy, hz) = self._cert_lo, self._cert_hi
        return lx <= x <= hx and ly <= y <= hy and lz <= z <= hz

    def radius(self, point: np.ndarray) -> float:
        """Certificate radius of ``point``: its distance to the nearest occupied voxel centre.

        ``+inf`` on an empty map.  ``-inf``, which certifies nothing, when
        ``point`` is non-finite or outside the bounds shrunk by
        :data:`CERT_SLACK`.
        """
        p = np.asarray(point, dtype=float)
        if not self._certifiable(p):
            return -math.inf
        if self._tree is None:
            return math.inf
        return float(self._tree.query(p)[0])

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
            _reject_nan(p)
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
        return self.extend_certified(a, b, -math.inf)[0]

    def extend_certified(self, a: np.ndarray, b: np.ndarray, radius_a: float) -> Tuple[bool, float]:
        """:meth:`extend_valid` of ``a``-``b``, and a certificate radius of ``b``.

        ``radius_a`` is at most :meth:`radius` of ``a``.  When
        ``radius_a - |b - a|`` beats the clearance by more than
        :data:`CERT_SLACK` and ``b`` is inside the shrunk bounds, every point
        of the segment is clear of the occupied voxels and inside the bounds,
        so the extension is valid with no query and ``b``'s radius is
        ``radius_a - |b - a|``.  Otherwise the exact check runs, and its one
        query also gives ``b``'s radius.  An invalid extension's radius is
        ``-inf``.
        """
        delta = b - a
        length = _norm(delta)
        radius_b = radius_a - length
        if radius_b > self._cert_clearance and self._certifiable(b):
            return True, radius_b
        if self._tree is None:
            _reject_nan(b)
            if self._out_of_bounds(b) or not self.edge_valid(a, b):
                return False, -math.inf
            return True, math.inf if self._certifiable(b) else -math.inf
        ts = _fractions(_sample_count(length, EDGE_STEP) if length == length else 2)
        points = np.empty((len(ts) + 1, 3))
        points[0] = b
        samples = points[1:]
        np.multiply(ts, delta, out=samples)
        samples += a
        if self._out_of_bounds(points):
            return False, -math.inf
        dists, _ = self._tree.query(points)
        if not (dists[0] > self.clearance or _norm(b - self.start) < self.start_escape_radius):
            return False, -math.inf
        if not self._clear(samples, dists[1:]).all():
            return False, -math.inf
        return True, float(dists[0]) if self._certifiable(b) else -math.inf

    def edges_valid(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`edge_valid` of every edge ``a[i]``-``b[i]``, with one kd-tree query.

        ``a`` and ``b`` are ``(E, 3)`` arrays, or one of them a single point
        shared by every edge.  Returns ``E`` booleans.
        """
        if self._tree is None:
            _reject_nan(a, b)
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

    def edges_certified(
        self,
        a: np.ndarray,
        radius_a: Union[float, np.ndarray],
        b: np.ndarray,
        radius_b: Union[float, np.ndarray],
    ) -> np.ndarray:
        """:meth:`edges_valid`, answering the edges that the endpoint radii certify with no query.

        ``a`` and ``b`` are shaped as for :meth:`edges_valid`; ``radius_a``
        and ``radius_b`` are at most :meth:`radius` of their points (one per
        edge, or one for a single shared point).  An edge is certified when
        ``(radius_a + radius_b - |b - a|) / 2`` beats the clearance by more
        than :data:`CERT_SLACK`: every point of it is at least that far from
        every occupied voxel, and inside the bounds because both ends are.
        The other edges go through one :meth:`edges_valid` call.
        """
        lengths = _row_norms(np.subtract(b, a))
        valid = (np.add(radius_a, radius_b) - lengths) / 2 > self._cert_clearance
        if not valid.all():
            rest = ~valid
            valid[rest] = self.edges_valid(
                a[rest] if a.ndim == 2 else a, b[rest] if b.ndim == 2 else b
            )
        return valid


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


def _targets(seed: int, goal_bias: float, problem: PlanningProblem) -> Iterator[np.ndarray]:
    """The planners' sample targets: the goal with probability ``goal_bias``, else a bounds point.

    The generator's doubles are drawn in blocks and consumed exactly as
    ``rng.uniform()`` (one double, the goal test) and then, for a point in the
    bounds, ``rng.uniform(lo, hi)`` (one double per axis,
    ``lo + (hi - lo) * u``) consumed them, so every target has those calls'
    bits.  Where ``rng.uniform(lo, hi)`` raised, at the first point in the
    bounds, this raises too.  The goal itself is yielded, not a copy: the
    planners never write to a target.
    """
    rng = np.random.default_rng(seed)
    lo, hi = problem._lo, problem._hi
    span = hi - lo
    span_ok = bool(np.isfinite(span).all() and not np.signbit(span).any())
    draws = np.empty(0)
    pos = 0
    while True:
        if pos + 4 > len(draws):
            draws = np.concatenate((draws[pos:], rng.random(_SAMPLE_BLOCK)))
            goal_tests = draws.tolist()
            pos = 0
        if goal_tests[pos] < goal_bias:
            pos += 1
            yield problem.goal
            continue
        if not span_ok:
            rng.uniform(lo, hi)  # raises, as drawing this sample did
        target = lo + span * draws[pos + 1 : pos + 4]
        pos += 4
        yield target


class _TreePlannerBase:
    """Common machinery for the single- and dual-tree planners.

    A tree is a preallocated ``(max_iterations + 1, 3)`` node buffer (one new
    node per iteration at most), a radius buffer beside it holding each node's
    certificate radius (see :meth:`PlanningProblem.radius`), and a parent
    list.
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
    def _new_tree(
        self, problem: PlanningProblem, root: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        size = max(self.max_iterations, 0) + 1
        nodes = np.empty((size, 3))
        nodes[0] = root
        radii = np.empty(size)
        radii[0] = problem.radius(root)
        return nodes, radii

    def _steer(self, from_point: np.ndarray, to_point: np.ndarray) -> np.ndarray:
        """The point one step from ``from_point`` towards ``to_point``.

        ``to_point`` itself, not a copy, when it is within one step.
        """
        delta = to_point - from_point
        dist = _norm(delta)
        if dist <= self.step_size:
            return to_point
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
        targets = _targets(self.seed, self.goal_bias, problem)
        nodes, radii = self._new_tree(problem, problem.start)
        parents: List[int] = [-1]
        goal_row = problem.goal[None]
        goal_radius = problem.radius(problem.goal)
        for iteration in range(1, self.max_iterations + 1):
            target = next(targets)
            nearest_idx = self._nearest(nodes[: len(parents)], target)
            new_point = self._steer(nodes[nearest_idx], target)
            valid, radius = problem.extend_certified(
                nodes[nearest_idx], new_point, radii[nearest_idx]
            )
            if not valid:
                continue
            nodes[len(parents)] = new_point
            radii[len(parents)] = radius
            parents.append(nearest_idx)
            if _norm(new_point - problem.goal) <= self.goal_tolerance:
                if problem.edges_certified(new_point, radius, goal_row, goal_radius)[0]:
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
        targets = _targets(self.seed, self.goal_bias, problem)
        nodes, radii = self._new_tree(problem, problem.start)
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
            target = next(targets)
            size = len(parents)
            dists = _row_norms(nodes[:size] - target)
            nearest_idx = int(dists.argmin())
            new_point = self._steer(nodes[nearest_idx], target)
            valid, radius = problem.extend_certified(
                nodes[nearest_idx], new_point, radii[nearest_idx]
            )
            if not valid:
                continue
            if new_point is not target:
                # Steering shortened the step: measure the neighbours from the new point.
                dists = _row_norms(nodes[:size] - new_point)

            # Choose the lowest-cost parent within the rewire radius.  Only
            # neighbours cheaper than the nearest node can win, so only their
            # edges are validated (one batched check); the sequential accept
            # loop then runs over those verdicts in neighbour order.
            neighbor_idx = np.flatnonzero(dists <= self.rewire_radius)
            neighbor_costs = costs[neighbor_idx]
            neighbor_dists = dists[neighbor_idx]
            best_parent = nearest_idx
            best_cost = costs[nearest_idx] + dists[nearest_idx]
            via = neighbor_costs + neighbor_dists
            cheaper = via < best_cost
            if cheaper.any():
                candidates = neighbor_idx[cheaper]
                valid = problem.edges_certified(
                    nodes[candidates], radii[candidates], new_point, radius
                )
                for idx, candidate_cost, ok in zip(candidates, via[cheaper], valid):
                    if ok and candidate_cost < best_cost:
                        best_parent = int(idx)
                        best_cost = candidate_cost

            new_idx = size
            nodes[new_idx] = new_point
            radii[new_idx] = radius
            parents.append(best_parent)
            costs[new_idx] = best_cost

            # Rewire neighbours through the new node when that is cheaper.
            rewired = best_cost + neighbor_dists
            cheaper = rewired < neighbor_costs
            if cheaper.any():
                candidates = neighbor_idx[cheaper]
                valid = problem.edges_certified(
                    new_point, radius, nodes[candidates], radii[candidates]
                )
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
        targets = _targets(self.seed, self.goal_bias, problem)
        trees = [self._new_tree(problem, problem.start), self._new_tree(problem, problem.goal)]
        tree_parents: List[List[int]] = [[-1], [-1]]
        for iteration in range(1, self.max_iterations + 1):
            (active, active_radii), (other, other_radii) = (
                trees[iteration % 2],
                trees[(iteration + 1) % 2],
            )
            parents, other_parents = tree_parents[iteration % 2], tree_parents[(iteration + 1) % 2]
            target = next(targets)
            nearest_idx = self._nearest(active[: len(parents)], target)
            new_point = self._steer(active[nearest_idx], target)
            valid, radius = problem.extend_certified(
                active[nearest_idx], new_point, active_radii[nearest_idx]
            )
            if not valid:
                continue
            active[len(parents)] = new_point
            active_radii[len(parents)] = radius
            parents.append(nearest_idx)

            # Try to connect the other tree directly to the new point.
            other_nearest = self._nearest(other[: len(other_parents)], new_point)
            if _norm(
                other[other_nearest] - new_point
            ) <= self.step_size * 1.5 and problem.edges_certified(
                other[other_nearest : other_nearest + 1],
                other_radii[other_nearest],
                new_point,
                radius,
            )[0]:
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
