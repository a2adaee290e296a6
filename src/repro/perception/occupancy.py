"""Probabilistic occupancy map (OctoMap-style) and its kernel node.

The OctoMap generation kernel integrates point clouds into a voxel-based
occupancy map with log-odds updates.  The map is the inter-kernel state that
the paper found remarkably resilient: corrupting a single voxel rarely changes
the planner's decisions because the surrounding voxels still mark the obstacle
(Section III-A).

Two storage backends implement the same clamped log-odds semantics:

* :class:`OccupancyMap` -- the **vectorized** backend, the one
  :class:`OctoMapNode` builds.  Voxel keys are packed into sorted ``int64``
  arrays (21 bits per axis) and every update or query operates on whole point
  clouds with ``np.unique`` / ``searchsorted`` batch merges instead of
  per-voxel dict operations.  This is the hot path of every campaign mission
  (the map updates at camera-ish rate for the whole flight), and the array
  backend is what makes it cheap.
* :class:`ScalarOccupancyMap` -- the original Python-dict backend, kept as the
  bit-exact *scalar reference* for the benchmark harness and the equivalence
  tests.  No mission flies it.

Both backends produce identical log-odds values (the arithmetic is the same
IEEE-754 double operations) and enumerate voxels in the same canonical order
(lexicographic by voxel index), so a mission flown on either backend writes
the same record.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import topics
from repro.pipeline.kernel import KernelNode
from repro.rosmw.message import OccupancyMapMsg, PointCloudMsg

VoxelKey = Tuple[int, int, int]

#: Bits per axis in the packed ``int64`` voxel key (signed range +-2**20).
_AXIS_BITS = 21
_AXIS_OFFSET = 1 << (_AXIS_BITS - 1)
_AXIS_MASK = (1 << _AXIS_BITS) - 1


def _pack_indices(idx: np.ndarray) -> np.ndarray:
    """Pack integer voxel indices (shape ``(N, 3)``) into sorted-friendly int64.

    The packed order equals the lexicographic order of ``(ix, iy, iz)``, which
    is the canonical voxel enumeration order shared by both backends.
    """
    shifted = idx.astype(np.int64) + _AXIS_OFFSET
    return (
        (shifted[..., 0] << (2 * _AXIS_BITS))
        | (shifted[..., 1] << _AXIS_BITS)
        | shifted[..., 2]
    )


def _unpack_keys(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack_indices`; returns ``(N, 3)`` int64 indices."""
    packed = np.asarray(packed, dtype=np.int64)
    ix = (packed >> (2 * _AXIS_BITS)) - _AXIS_OFFSET
    iy = ((packed >> _AXIS_BITS) & _AXIS_MASK) - _AXIS_OFFSET
    iz = (packed & _AXIS_MASK) - _AXIS_OFFSET
    return np.stack([ix, iy, iz], axis=-1)


class _OccupancyMapBase:
    """Parameters and geometry shared by both occupancy-map backends."""

    def __init__(
        self,
        resolution: float = 1.0,
        hit_log_odds: float = 0.85,
        occupied_threshold: float = 0.5,
        clamp: float = 3.5,
        origin: Iterable[float] = (0.0, 0.0, 0.0),
    ) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        self.resolution = float(resolution)
        self.hit_log_odds = float(hit_log_odds)
        self.occupied_threshold = float(occupied_threshold)
        self.clamp = float(clamp)
        self.origin = np.asarray(list(origin), dtype=float)
        self.update_count = 0

    # ------------------------------------------------------------------ keys
    def indices_for(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel indices (shape ``(N, 3)``) containing ``points``.

        Indices are clipped to the packable +-2**20 range; any point that far
        outside the world (hundreds of kilometres at default resolution) can
        only come from a corrupted message, and the clip keeps it "some
        far-away voxel" in both backends.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        # One working buffer end to end: subtract, scale, floor, clip in place.
        idx = points - self.origin[None, :]
        np.true_divide(idx, self.resolution, out=idx)
        np.floor(idx, out=idx)
        np.clip(idx, -_AXIS_OFFSET, _AXIS_OFFSET - 1, out=idx)
        return idx.astype(np.int64)

    def key_for(self, point: np.ndarray) -> VoxelKey:
        """Voxel key containing ``point``."""
        idx = self.indices_for(point)[0]
        return (int(idx[0]), int(idx[1]), int(idx[2]))

    def center_of(self, key: VoxelKey) -> np.ndarray:
        """World-frame centre of the voxel ``key``."""
        return self.origin + (np.asarray(key, dtype=float) + 0.5) * self.resolution

    @staticmethod
    def _filter_finite(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            return points.reshape(0, 3)
        finite = np.isfinite(points)
        if finite.all():  # the common case: no mask copy
            return points
        return points[finite.all(axis=1)]

    # ------------------------------------------------------- derived queries
    def occupied_centers(self) -> np.ndarray:
        """Array of world-frame centres of all occupied voxels, shape (N, 3)."""
        keys = self.occupied_keys()
        if not keys:
            return np.zeros((0, 3))
        key_array = np.asarray(keys, dtype=float)
        return self.origin[None, :] + (key_array + 0.5) * self.resolution

    @property
    def num_occupied(self) -> int:
        """Number of occupied voxels."""
        return len(self.occupied_keys())

    # Implemented by the backends.
    def occupied_keys(self) -> List[VoxelKey]:  # pragma: no cover - interface
        raise NotImplementedError


class ScalarOccupancyMap(_OccupancyMapBase):
    """The scalar reference backend: a Python dict keyed by voxel tuples.

    This is the pre-vectorization implementation, kept bit-exact so the
    benchmark harness can measure the vectorized backend against it and the
    equivalence tests can assert identical keys and log-odds.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._log_odds: Dict[VoxelKey, float] = {}

    # --------------------------------------------------------------- updates
    def insert_point_cloud(self, points: np.ndarray) -> int:
        """Integrate a point cloud; returns the number of voxels touched."""
        points = self._filter_finite(points)
        if points.size == 0:
            return 0
        idx = self.indices_for(points)
        touched = set(map(tuple, idx.tolist()))
        for key in touched:
            current = self._log_odds.get(key, 0.0)
            self._log_odds[key] = min(current + self.hit_log_odds, self.clamp)
        self.update_count += 1
        return len(touched)

    def set_voxel(self, key: VoxelKey, occupied: bool) -> None:
        """Force a voxel occupied or free (used by fault injection)."""
        self._log_odds[tuple(key)] = self.clamp if occupied else -self.clamp

    # --------------------------------------------------------------- queries
    def log_odds_at(self, key: VoxelKey) -> float:
        """Log-odds of voxel ``key`` (0.0 when never observed)."""
        return self._log_odds.get(tuple(key), 0.0)

    def is_occupied(self, point: np.ndarray) -> bool:
        """Whether the voxel containing ``point`` is occupied."""
        return self._log_odds.get(self.key_for(point), 0.0) > self.occupied_threshold

    def query(self, points: np.ndarray) -> np.ndarray:
        """Occupancy verdict for every point (boolean array of length N)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.array([self.is_occupied(p) for p in points], dtype=bool)

    def all_keys(self) -> List[VoxelKey]:
        """All observed voxel keys in canonical (lexicographic) order."""
        return sorted(self._log_odds)

    def occupied_keys(self) -> List[VoxelKey]:
        """Keys of all occupied voxels in canonical (lexicographic) order."""
        return sorted(
            key
            for key, value in self._log_odds.items()
            if value > self.occupied_threshold
        )

    @property
    def num_voxels(self) -> int:
        """Number of voxels with any information."""
        return len(self._log_odds)

    def clear(self) -> None:
        """Drop all voxels."""
        self._log_odds.clear()
        self.update_count = 0


class OccupancyMap(_OccupancyMapBase):
    """Vectorized voxel occupancy map with clamped log-odds updates.

    Voxel keys live in a sorted packed ``int64`` array with a parallel
    log-odds value array; :meth:`insert_point_cloud` folds a whole cloud into
    the store with one ``np.unique`` + two ``searchsorted`` merges, and
    :meth:`query` answers batched occupancy lookups.  Semantics (including
    float results) are identical to :class:`ScalarOccupancyMap`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=float)

    # --------------------------------------------------------------- updates
    def insert_point_cloud(self, points: np.ndarray) -> int:
        """Integrate a point cloud; returns the number of voxels touched."""
        points = self._filter_finite(points)
        if points.size == 0:
            return 0
        packed = np.sort(_pack_indices(self.indices_for(points)))
        keep = np.empty(packed.size, dtype=bool)
        keep[0] = True
        np.not_equal(packed[1:], packed[:-1], out=keep[1:])
        self._merge(packed[keep])
        self.update_count += 1
        return int(keep.sum())

    def _merge(self, touched: np.ndarray) -> None:
        """Fold one log-odds hit into every voxel of sorted-unique ``touched``."""
        pos = np.searchsorted(self._keys, touched)
        if self._keys.size:
            in_range = pos < self._keys.size
            exists = np.zeros(touched.size, dtype=bool)
            exists[in_range] = self._keys[pos[in_range]] == touched[in_range]
        else:
            exists = np.zeros(touched.size, dtype=bool)
        hit_pos = pos[exists]
        self._values[hit_pos] = np.minimum(self._values[hit_pos] + self.hit_log_odds, self.clamp)
        if exists.all():
            return
        # Single preallocated sorted merge of the unseen keys (np.insert would
        # reallocate once per call *and* run its slow sequence path).
        new_keys = touched[~exists]
        target = pos[~exists] + np.arange(new_keys.size)
        merged = np.ones(self._keys.size + new_keys.size, dtype=bool)
        merged[target] = False
        out_keys = np.empty(merged.size, dtype=np.int64)
        out_values = np.empty(merged.size, dtype=float)
        out_keys[target] = new_keys
        out_values[target] = min(self.hit_log_odds, self.clamp)
        out_keys[merged] = self._keys
        out_values[merged] = self._values
        self._keys, self._values = out_keys, out_values

    def set_voxel(self, key: VoxelKey, occupied: bool) -> None:
        """Force a voxel occupied or free (used by fault injection)."""
        packed = int(_pack_indices(np.asarray(key, dtype=np.int64)[None, :])[0])
        value = self.clamp if occupied else -self.clamp
        pos = int(np.searchsorted(self._keys, packed))
        if pos < self._keys.size and self._keys[pos] == packed:
            self._values[pos] = value
        else:
            self._keys = np.insert(self._keys, pos, packed)
            self._values = np.insert(self._values, pos, value)

    # --------------------------------------------------------------- queries
    def _lookup(self, packed: np.ndarray) -> np.ndarray:
        """Log-odds of packed keys (0.0 where never observed)."""
        if self._keys.size == 0:
            return np.zeros(packed.shape, dtype=float)
        pos = np.searchsorted(self._keys, packed)
        in_range = pos < self._keys.size
        values = np.zeros(packed.shape, dtype=float)
        hit = np.zeros(packed.shape, dtype=bool)
        hit[in_range] = self._keys[pos[in_range]] == packed[in_range]
        values[hit] = self._values[pos[hit]]
        return values

    def log_odds_at(self, key: VoxelKey) -> float:
        """Log-odds of voxel ``key`` (0.0 when never observed)."""
        packed = _pack_indices(np.asarray(key, dtype=np.int64)[None, :])
        return float(self._lookup(packed)[0])

    def is_occupied(self, point: np.ndarray) -> bool:
        """Whether the voxel containing ``point`` is occupied."""
        return bool(self.query(point)[0])

    def query(self, points: np.ndarray) -> np.ndarray:
        """Occupancy verdict for every point (boolean array of length N)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            return np.zeros(0, dtype=bool)
        packed = _pack_indices(self.indices_for(points))
        return self._lookup(packed) > self.occupied_threshold

    def all_keys(self) -> List[VoxelKey]:
        """All observed voxel keys in canonical (lexicographic) order."""
        return [tuple(row) for row in _unpack_keys(self._keys).tolist()]

    def occupied_keys(self) -> List[VoxelKey]:
        """Keys of all occupied voxels in canonical (lexicographic) order."""
        occupied = self._keys[self._values > self.occupied_threshold]
        return [tuple(row) for row in _unpack_keys(occupied).tolist()]

    def occupied_centers(self) -> np.ndarray:
        """Array of world-frame centres of all occupied voxels, shape (N, 3)."""
        occupied = self._keys[self._values > self.occupied_threshold]
        if occupied.size == 0:
            return np.zeros((0, 3))
        key_array = _unpack_keys(occupied).astype(float)
        return self.origin[None, :] + (key_array + 0.5) * self.resolution

    @property
    def num_occupied(self) -> int:
        """Number of occupied voxels."""
        return int((self._values > self.occupied_threshold).sum())

    @property
    def num_voxels(self) -> int:
        """Number of voxels with any information."""
        return int(self._keys.size)

    @property
    def _log_odds(self) -> Mapping[VoxelKey, float]:
        """Read-only mapping view of the store (compatibility/introspection).

        Returned as a :class:`types.MappingProxyType` so the old dict-backend
        mutation idiom (``map._log_odds[key] = v``) raises instead of silently
        writing to a throwaway copy; mutate via :meth:`set_voxel`.
        """
        return MappingProxyType(dict(zip(self.all_keys(), self._values.tolist())))

    def clear(self) -> None:
        """Drop all voxels."""
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=float)
        self.update_count = 0


class OctoMapNode(KernelNode):
    """Node wrapper for the OctoMap generation kernel.

    Point clouds arrive at camera rate, but the map update is the most
    expensive kernel of the pipeline (hundreds of milliseconds on the paper's
    i9), so the node integrates the *latest* point cloud at its own update
    rate -- the same back-pressure behaviour MAVBench exhibits.
    """

    stage = "perception"

    def __init__(
        self,
        resolution: float = 1.0,
        latency: float = 0.289,
        update_rate: float = 2.0,
    ) -> None:
        super().__init__("octomap_generation", latency=latency)
        self.map = OccupancyMap(resolution=resolution)
        self.update_rate = update_rate
        self._latest_cloud: Optional[PointCloudMsg] = None

    def on_start(self) -> None:
        self._map_pub = self.create_publisher(topics.OCCUPANCY_MAP, OccupancyMapMsg)
        self.create_subscription(topics.POINT_CLOUD, PointCloudMsg, self._on_cloud)
        self.create_timer(1.0 / self.update_rate, self._update_map, offset=0.02)

    def _on_cloud(self, msg: PointCloudMsg) -> None:
        self._latest_cloud = msg

    def _update_map(self) -> None:
        if self._latest_cloud is None:
            return
        cloud = self._latest_cloud
        self.cache_inputs(cloud=cloud)
        self.charge_invocation()
        self.map.insert_point_cloud(cloud.points)
        self._publish_map()

    def _publish_map(self) -> None:
        msg = OccupancyMapMsg(
            resolution=self.map.resolution,
            occupied_centers=self.map.occupied_centers(),
            origin=self.map.origin.copy(),
        )
        self.publish_output(self._map_pub, msg)

    def _do_recompute(self) -> None:
        cloud: Optional[PointCloudMsg] = self.cached_input("cloud")
        if cloud is None:
            return
        self.map.insert_point_cloud(cloud.points)
        self._publish_map()

    def corrupt_internal(self, rng: np.random.Generator, bit: int) -> str:
        """Flip the occupancy of a single voxel of the persistent map.

        This reproduces the paper's OctoMap fault model: "even if an occupied
        voxel is corrupted and mistaken as a free voxel, all other voxels
        around it are still occupied".  The victim voxel is drawn from the
        canonical (lexicographic) key order so that the choice is independent
        of the storage backend.
        """
        keys = self.map.all_keys()
        if keys:
            key = keys[int(rng.integers(len(keys)))]
            occupied = self.map.log_odds_at(key) > self.map.occupied_threshold
            self.map.set_voxel(key, not occupied)
            return f"{self.name}: voxel {key} flipped to {'free' if occupied else 'occupied'}"
        # Map still empty: fabricate a spurious occupied voxel near the origin.
        key = (int(rng.integers(-5, 60)), int(rng.integers(-20, 20)), int(rng.integers(0, 8)))
        self.map.set_voxel(key, True)
        return f"{self.name}: spurious occupied voxel {key}"
