"""A 3-D world of axis-aligned cuboid obstacles.

The evaluation environments of the paper (Factory, Farm, Sparse, Dense) are
collections of blocks, walls and hedges; the Sparse and Dense environments are
generated procedurally from an ``[obstacle density, cuboid side length]``
configuration pair.  An axis-aligned-box world captures exactly that geometry
and supports the three queries the rest of the system needs:

* ray casting (for the depth camera),
* sphere/segment collision checks (for planner collision checking and for
  ground-truth collision detection of the vehicle), and
* distance-to-nearest-obstacle (for time-to-collision estimation).

All queries are vectorised over obstacles with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Cuboid:
    """An axis-aligned cuboid obstacle defined by its min and max corners."""

    lo: Tuple[float, float, float]
    hi: Tuple[float, float, float]
    name: str = "obstacle"

    def __post_init__(self) -> None:
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"cuboid has hi < lo: lo={self.lo}, hi={self.hi}")

    @classmethod
    def from_center(
        cls,
        center: Sequence[float],
        size: Sequence[float],
        name: str = "obstacle",
    ) -> "Cuboid":
        """Build a cuboid from a centre point and per-axis extents."""
        center = np.asarray(center, dtype=float)
        half = np.asarray(size, dtype=float) / 2.0
        lo = tuple((center - half).tolist())
        hi = tuple((center + half).tolist())
        return cls(lo=lo, hi=hi, name=name)

    @property
    def center(self) -> np.ndarray:
        """Centre of the cuboid."""
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def size(self) -> np.ndarray:
        """Per-axis extents of the cuboid."""
        return np.asarray(self.hi) - np.asarray(self.lo)

    def contains(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the cuboid."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))


@dataclass
class World:
    """A bounded world populated with cuboid obstacles.

    Parameters
    ----------
    bounds_lo, bounds_hi:
        World bounding box; the vehicle and all planning happen inside it.
    obstacles:
        The cuboid obstacles.
    name:
        Environment name (``factory``, ``farm``, ``sparse``, ``dense`` or
        ``training``).

    Worlds are *immutable once populated*: missions only query them (ray
    casts, collision and distance checks), which is what lets the pipeline
    builder's per-process world cache and the golden-prefix checkpoint forks
    share one instance across runs.  ``add_obstacle(s)`` is a construction-
    time API, not a mid-campaign one.
    """

    bounds_lo: Tuple[float, float, float] = (-5.0, -30.0, 0.0)
    bounds_hi: Tuple[float, float, float] = (65.0, 30.0, 12.0)
    obstacles: List[Cuboid] = field(default_factory=list)
    name: str = "empty"

    def __post_init__(self) -> None:
        self._refresh_arrays()

    # ---------------------------------------------------------------- set-up
    def _refresh_arrays(self) -> None:
        if self.obstacles:
            self._lo = np.array([o.lo for o in self.obstacles], dtype=float)
            self._hi = np.array([o.hi for o in self.obstacles], dtype=float)
        else:
            self._lo = np.zeros((0, 3))
            self._hi = np.zeros((0, 3))

    def add_obstacle(self, obstacle: Cuboid) -> None:
        """Add one obstacle and refresh the vectorised representation."""
        self.obstacles.append(obstacle)
        self._refresh_arrays()

    def add_obstacles(self, obstacles: Iterable[Cuboid]) -> None:
        """Add several obstacles at once."""
        self.obstacles.extend(obstacles)
        self._refresh_arrays()

    @property
    def num_obstacles(self) -> int:
        """Number of obstacles in the world."""
        return len(self.obstacles)

    def in_bounds(self, point: Sequence[float], margin: float = 0.0) -> bool:
        """Whether ``point`` lies inside the world bounds (shrunk by ``margin``)."""
        p = np.asarray(point, dtype=float)
        lo = np.asarray(self.bounds_lo) + margin
        hi = np.asarray(self.bounds_hi) - margin
        return bool(np.all(p >= lo) and np.all(p <= hi))

    # ------------------------------------------------------------ collisions
    def point_collides(self, point: Sequence[float], inflation: float = 0.0) -> bool:
        """Whether ``point`` is inside any obstacle inflated by ``inflation``."""
        if self.num_obstacles == 0:
            return False
        p = np.asarray(point, dtype=float)
        inside = np.all(p >= self._lo - inflation, axis=1) & np.all(
            p <= self._hi + inflation, axis=1
        )
        return bool(inside.any())

    def sphere_collides(self, center: Sequence[float], radius: float) -> bool:
        """Whether a sphere at ``center`` with ``radius`` intersects any obstacle."""
        return self.distance_to_nearest(center) <= radius

    def distance_to_nearest(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the closest obstacle surface.

        Returns ``inf`` when the world has no obstacles.  Points inside an
        obstacle have distance 0.
        """
        if self.num_obstacles == 0:
            return float("inf")
        p = np.asarray(point, dtype=float)
        closest = np.clip(p, self._lo, self._hi)
        dists = np.linalg.norm(closest - p, axis=1)
        return float(dists.min())

    def segment_collides(
        self,
        start: Sequence[float],
        end: Sequence[float],
        inflation: float = 0.0,
        step: float = 0.25,
    ) -> bool:
        """Whether the segment ``start``-``end`` passes through any obstacle.

        The segment is sampled every ``step`` metres; each sample is tested
        against the obstacles inflated by ``inflation`` (the vehicle radius
        plus clearance).  Sampling is exact enough for planner-resolution
        obstacles, which are metres across.
        """
        if self.num_obstacles == 0:
            return False
        a = np.asarray(start, dtype=float)
        b = np.asarray(end, dtype=float)
        length = float(np.linalg.norm(b - a))
        n_samples = max(2, int(np.ceil(length / step)) + 1)
        ts = np.linspace(0.0, 1.0, n_samples)
        samples = a[None, :] + ts[:, None] * (b - a)[None, :]
        lo = self._lo - inflation
        hi = self._hi + inflation
        inside = np.all(samples[:, None, :] >= lo[None, :, :], axis=2) & np.all(
            samples[:, None, :] <= hi[None, :, :], axis=2
        )
        return bool(inside.any())

    # ------------------------------------------------------------ ray casting
    def ray_cast(
        self,
        origin: Sequence[float],
        directions: np.ndarray,
        max_range: float = 25.0,
    ) -> np.ndarray:
        """Cast rays from ``origin`` along ``directions`` (shape ``(N, 3)``).

        Returns an array of ``N`` hit distances; rays that hit nothing within
        ``max_range`` get ``inf``.  Uses the slab method vectorised over both
        rays and obstacles, one axis at a time: each axis gives an
        ``(n_boxes, n_rays)`` plane of slab entry and exit distances, folded
        into the running entry maximum and exit minimum.  The ground plane at
        ``z = bounds_lo[2]`` is also intersected so that the depth camera sees
        the floor.
        """
        origin = np.asarray(origin, dtype=float)
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != 3:
            raise ValueError(f"directions must have shape (N, 3), got {directions.shape}")
        hits = np.full(directions.shape[0], np.inf)

        if self.num_obstacles > 0:
            # Slab test one axis at a time on (n_boxes, n_rays) planes.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                inv_d = 1.0 / directions  # inf where direction component is 0
                for axis in range(3):
                    t1 = (self._lo[:, axis] - origin[axis])[:, None] * inv_d[:, axis]
                    t2 = (self._hi[:, axis] - origin[axis])[:, None] * inv_d[:, axis]
                    near = np.minimum(t1, t2)
                    far = np.maximum(t1, t2, out=t2)
                    # A zero direction component against a slab not containing
                    # the origin yields (inf, -inf) or (nan); treat nan as no
                    # constraint.
                    near[np.isnan(near)] = -np.inf
                    far[np.isnan(far)] = np.inf
                    if axis == 0:
                        t_enter, t_exit = near, far
                    else:
                        np.maximum(t_enter, near, out=t_enter)
                        np.minimum(t_exit, far, out=t_exit)
            missed = t_enter > max_range
            np.maximum(t_enter, 0.0, out=t_enter)
            missed |= t_exit < t_enter
            t_enter[missed] = np.inf
            hits = t_enter.min(axis=0)

        # Ground plane.
        ground_z = self.bounds_lo[2]
        dz = directions[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = (ground_z - origin[2]) / dz
        t_ground = np.where((dz < 0) & (t_ground > 0), t_ground, np.inf)
        hits = np.minimum(hits, t_ground)
        hits = np.where(hits <= max_range, hits, np.inf)
        return hits

    # -------------------------------------------------------------- utilities
    def free_position(
        self,
        rng: np.random.Generator,
        clearance: float = 1.5,
        z_range: Tuple[float, float] = (1.0, 4.0),
        max_tries: int = 200,
    ) -> Optional[np.ndarray]:
        """Sample a collision-free position inside the world bounds."""
        lo = np.asarray(self.bounds_lo, dtype=float)
        hi = np.asarray(self.bounds_hi, dtype=float)
        for _ in range(max_tries):
            p = rng.uniform(lo, hi)
            p[2] = rng.uniform(z_range[0], min(z_range[1], hi[2]))
            if self.distance_to_nearest(p) > clearance:
                return p
        return None

    def occupied_fraction(self, resolution: float = 2.0) -> float:
        """Fraction of the world footprint covered by obstacles (diagnostic)."""
        lo = np.asarray(self.bounds_lo)
        hi = np.asarray(self.bounds_hi)
        xs = np.arange(lo[0], hi[0], resolution)
        ys = np.arange(lo[1], hi[1], resolution)
        if xs.size == 0 or ys.size == 0:
            return 0.0
        grid = np.array([[x, y] for x in xs for y in ys])
        if self.num_obstacles == 0:
            return 0.0
        z_mid = (lo[2] + hi[2]) / 4.0
        points = np.column_stack([grid, np.full(len(grid), z_mid)])
        inside = np.zeros(len(points), dtype=bool)
        for i, p in enumerate(points):
            inside[i] = self.point_collides(p)
        return float(inside.mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"World(name={self.name!r}, obstacles={self.num_obstacles}, "
            f"bounds={self.bounds_lo}..{self.bounds_hi})"
        )
