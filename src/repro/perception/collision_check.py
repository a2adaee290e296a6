"""Collision check kernel.

The collision check kernel watches the vehicle's immediate future: it
estimates the time to collision along the current velocity vector and checks
whether the currently executed trajectory passes through newly observed
obstacles.  Its two published scalars, ``time_to_collision`` and
``future_collision_seq``, are the perception-stage inter-kernel states
monitored by the anomaly detectors (Fig. 4 / Fig. 5a).  The paper found this
kernel to be the critical one of the perception stage: "a false alarm can
lead to re-planning or collisions".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro import topics
from repro.pipeline.kernel import KernelNode
from repro.rosmw.message import (
    CollisionCheckMsg,
    MultiDOFTrajectoryMsg,
    OccupancyMapMsg,
    OdometryMsg,
)
from repro.sim.memo import Memo, memo_key
from repro.sim.tickmath import norm

#: An empty ``(0, 3)`` block for :meth:`CollisionChecker.compute`'s stacked query.
_NO_POINTS = np.zeros((0, 3))

#: Collision verdicts ``(time_to_collision, future_collision, closest)`` by
#: map, configuration and vehicle state (:mod:`repro.sim.memo`).
COLLISION_CHECK_MEMO: "Memo[CollisionCheckMsg, Tuple[float, bool, float]]" = Memo(
    "collision_check", 1024
)


@dataclass
class CollisionCheckConfig:
    """Parameters of the collision checker."""

    collision_clearance: float = 1.1
    lookahead_time: float = 6.0
    lookahead_step: float = 0.5
    min_speed: float = 0.2


class CollisionChecker:
    """Pure compute kernel for collision checking against the occupancy map."""

    def __init__(self, config: Optional[CollisionCheckConfig] = None) -> None:
        self.config = config if config is not None else CollisionCheckConfig()
        self._centers: np.ndarray = _NO_POINTS
        self._map_resolution: float = 1.0
        #: :func:`~repro.sim.memo.memo_key` of the occupied centres and the
        #: resolution; ``None`` before the first map.
        self.map_key: Optional[bytes] = None
        self.future_collision_seq = 0
        self._last_future_collision = False

    # -------------------------------------------------------------- map input
    def update_map(self, occupied_centers: np.ndarray, resolution: float) -> None:
        """Take a new occupancy map; the kd-tree over it is built on the first query.

        The map node republishes at a fixed rate, but the occupied set changes
        on almost every message, so content that equals the current map (same
        :attr:`map_key`) keeps the current tree, and content that no check
        queries before the next map costs no tree at all.
        """
        occupied_centers = np.ascontiguousarray(occupied_centers, dtype=float)
        map_key = memo_key(occupied_centers, float(resolution))
        if map_key == self.map_key:
            return
        self.map_key = map_key
        self._centers = occupied_centers
        self._map_resolution = float(resolution)
        vars(self).pop("_tree", None)

    @cached_property
    def _tree(self) -> Optional[cKDTree]:
        """The kd-tree over the occupied centres, ``None`` for an empty map."""
        return cKDTree(self._centers) if self._centers.size else None

    def reset(self) -> None:
        """Forget the map and the future-collision latch (between missions)."""
        self._centers = _NO_POINTS
        self.map_key = None
        vars(self).pop("_tree", None)
        self.future_collision_seq = 0
        self._last_future_collision = False

    # --------------------------------------------------------------- queries
    def distance_to_nearest(self, position: np.ndarray) -> float:
        """Distance from ``position`` to the nearest occupied voxel surface."""
        if self._tree is None:
            return float("inf")
        dist, _ = self._tree.query(np.asarray(position, dtype=float))
        return self._surface_distance(dist)

    def time_to_collision(self, position: np.ndarray, velocity: np.ndarray) -> float:
        """Time until the vehicle, continuing at ``velocity``, hits an obstacle."""
        if self._tree is None:
            return float("inf")
        lookahead = self._lookahead(np.asarray(position, dtype=float), velocity)
        if lookahead is None:
            return float("inf")
        samples, distances, speed = lookahead
        hit_dists, _ = self._tree.query(samples)
        return self._first_hit_time(hit_dists, distances, speed)

    def trajectory_collides(
        self, waypoints: List, from_position: np.ndarray
    ) -> bool:
        """Whether the remaining trajectory passes through occupied space."""
        if self._tree is None or not waypoints:
            return False
        ahead = self._points_ahead(waypoints, np.asarray(from_position, dtype=float))
        if ahead.size == 0:
            return False
        hit_dists, _ = self._tree.query(ahead)
        return bool((hit_dists <= self.config.collision_clearance).any())

    def compute(
        self,
        position: np.ndarray,
        velocity: np.ndarray,
        waypoints: Optional[List] = None,
    ) -> CollisionCheckMsg:
        """Produce one collision-check message.

        The message equals composing :meth:`time_to_collision`,
        :meth:`trajectory_collides` and :meth:`distance_to_nearest`, but the
        position, the lookahead samples and the way-points ahead go to the
        kd-tree in one query, which answers each point independently.  The
        verdict then goes through :meth:`report`.
        """
        ttc = float("inf")
        future_collision = False
        closest = float("inf")
        if self._tree is not None:
            position = np.asarray(position, dtype=float)
            lookahead = self._lookahead(position, velocity)
            samples = lookahead[0] if lookahead is not None else _NO_POINTS
            ahead = self._points_ahead(waypoints, position) if waypoints else _NO_POINTS
            hit_dists, _ = self._tree.query(
                np.concatenate((position[None, :], samples, ahead))
            )
            closest = self._surface_distance(hit_dists[0])
            samples_end = 1 + len(samples)
            if lookahead is not None:
                _, distances, speed = lookahead
                ttc = self._first_hit_time(hit_dists[1:samples_end], distances, speed)
            future_collision = bool(
                (hit_dists[samples_end:] <= self.config.collision_clearance).any()
            )
        return self.report(float(ttc), future_collision, closest)

    def report(
        self, time_to_collision: float, future_collision: bool, closest: float
    ) -> CollisionCheckMsg:
        """The message for one check's verdict; advances the future-collision latch.

        ``future_collision_seq`` counts the checks on which the trajectory
        ahead turned blocked.
        """
        if future_collision and not self._last_future_collision:
            self.future_collision_seq += 1
        self._last_future_collision = future_collision
        return CollisionCheckMsg(
            time_to_collision=time_to_collision,
            future_collision_seq=int(self.future_collision_seq),
            closest_obstacle_distance=closest,
        )

    @property
    def future_collision(self) -> bool:
        """Whether the last check found the trajectory ahead blocked."""
        return self._last_future_collision

    # --------------------------------------------------------------- helpers
    def _surface_distance(self, dist: float) -> float:
        """Voxel-centre distance from the kd-tree to distance to the voxel surface."""
        return float(max(dist - self._map_resolution / 2.0, 0.0))

    def _lookahead(
        self, position: np.ndarray, velocity: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, float]]:
        """Samples along the velocity ray: ``(points, distances, speed)``.

        ``None`` when the vehicle is slower than ``min_speed`` or the
        lookahead holds no sample.
        """
        cfg = self.config
        velocity = np.asarray(velocity, dtype=float)
        speed = norm(velocity)
        if speed < cfg.min_speed:
            return None
        distances = np.arange(cfg.lookahead_step, speed * cfg.lookahead_time, cfg.lookahead_step)
        if distances.size == 0:
            return None
        samples = np.multiply.outer(distances, velocity / speed)
        samples += position
        return samples, distances, speed

    def _first_hit_time(
        self, hit_dists: np.ndarray, distances: np.ndarray, speed: float
    ) -> float:
        """Time to the first lookahead sample within the clearance, or inf."""
        blocked = hit_dists <= self.config.collision_clearance
        first = int(blocked.argmax())
        if not blocked[first]:
            return float("inf")
        return float(distances[first]) / speed

    @staticmethod
    def _points_ahead(waypoints: List, from_position: np.ndarray) -> np.ndarray:
        """The finite way-points from the one nearest ``from_position`` on.

        Only the part of the trajectory still ahead of the vehicle is checked.
        Corrupted (non-finite) way-points are never the nearest one and are
        left out, because the kd-tree query raises on non-finite points.
        """
        points = np.array(
            [c for w in waypoints for c in (w.x, w.y, w.z)], dtype=float
        ).reshape(-1, 3)
        finite = np.isfinite(points).all(axis=1)
        offsets = points - from_position
        # np.linalg.norm(offsets, axis=1), bit for bit; the square root stays
        # because it can round two distances to a tie that argmin resolves.
        dists_to_vehicle = np.sqrt(np.add.reduce(offsets * offsets, axis=1))
        dists_to_vehicle[~finite] = np.inf
        start_idx = int(dists_to_vehicle.argmin())
        return points[start_idx:][finite[start_idx:]]


class CollisionCheckNode(KernelNode):
    """Node wrapper for the collision check kernel."""

    stage = "perception"

    def __init__(
        self,
        latency: float = 0.005,
        check_rate: float = 4.0,
        config: Optional[CollisionCheckConfig] = None,
    ) -> None:
        super().__init__("collision_check", latency=latency)
        self.kernel = CollisionChecker(config)
        self.check_rate = check_rate
        self._latest_odometry: Optional[OdometryMsg] = None
        self._latest_trajectory: Optional[MultiDOFTrajectoryMsg] = None

    def on_start(self) -> None:
        self._check_pub = self.create_publisher(topics.COLLISION_CHECK, CollisionCheckMsg)
        self.create_subscription(topics.OCCUPANCY_MAP, OccupancyMapMsg, self._on_map)
        self.create_subscription(topics.ODOMETRY, OdometryMsg, self._on_odometry)
        self.create_subscription(topics.TRAJECTORY, MultiDOFTrajectoryMsg, self._on_trajectory)
        self.create_timer(1.0 / self.check_rate, self._check, offset=0.03)

    def _on_map(self, msg: OccupancyMapMsg) -> None:
        self.kernel.update_map(msg.occupied_centers, msg.resolution)

    def _on_odometry(self, msg: OdometryMsg) -> None:
        self._latest_odometry = msg

    def _on_trajectory(self, msg: MultiDOFTrajectoryMsg) -> None:
        self._latest_trajectory = msg

    def _check(self) -> None:
        if self._latest_odometry is None:
            return
        odometry = self._latest_odometry
        waypoints = self._latest_trajectory.waypoints if self._latest_trajectory else []
        self.cache_inputs(odometry=odometry, waypoints=waypoints)
        self.charge_invocation()
        msg = self._compute(odometry, waypoints)
        self.publish_output(self._check_pub, msg)

    def _do_recompute(self) -> None:
        odometry: Optional[OdometryMsg] = self.cached_input("odometry")
        if odometry is None:
            return
        waypoints = self.cached_input("waypoints") or []
        msg = self._compute(odometry, waypoints)
        self.publish_output(self._check_pub, msg)

    def _compute(self, odometry: OdometryMsg, waypoints: List) -> CollisionCheckMsg:
        """``self.kernel.compute(...)`` with its kd-tree query memoized.

        The key is what the query reads: the map, every configuration field,
        the position, the velocity and the way-points' coordinates.  The
        verdict goes through :meth:`CollisionChecker.report` on a hit too, so
        the future-collision latch moves on every check.
        """
        kernel = self.kernel
        position, velocity = odometry.position, odometry.velocity
        return COLLISION_CHECK_MEMO.call(
            (
                kernel.map_key,
                kernel.config,
                position,
                velocity,
                np.array([c for w in waypoints for c in (w.x, w.y, w.z)], dtype=float),
            ),
            lambda: kernel.compute(position, velocity, waypoints),
            lambda msg: (
                msg.time_to_collision,
                kernel.future_collision,
                msg.closest_obstacle_distance,
            ),
            lambda verdict: kernel.report(*verdict),
        )

    def reset_kernel(self) -> None:
        super().reset_kernel()
        self.kernel.reset()
        self._latest_odometry = None
        self._latest_trajectory = None
