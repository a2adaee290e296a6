"""Tests for the collision check kernel and the localization filter."""

import numpy as np
import pytest

from repro import topics
from repro.perception.collision_check import (
    CollisionCheckConfig,
    CollisionChecker,
    CollisionCheckNode,
)
from repro.perception.localization import ComplementaryFilter, StateEstimate
from repro.rosmw.graph import NodeGraph
from repro.rosmw.message import (
    MultiDOFTrajectoryMsg,
    OccupancyMapMsg,
    OdometryMsg,
    Waypoint,
)


def _wall_centers(x=10.0):
    """Occupied voxel centres forming a wall at the given x."""
    ys = np.arange(-3.0, 3.5, 1.0)
    zs = np.arange(0.5, 5.5, 1.0)
    return np.array([[x, y, z] for y in ys for z in zs])


class TestCollisionChecker:
    def test_no_map_reports_infinite_ttc(self):
        checker = CollisionChecker()
        msg = checker.compute(np.zeros(3), np.array([3.0, 0, 0]))
        assert np.isinf(msg.time_to_collision)
        assert msg.future_collision_seq == 0

    def test_time_to_collision_towards_wall(self):
        checker = CollisionChecker()
        checker.update_map(_wall_centers(x=10.0), resolution=1.0)
        msg = checker.compute(np.array([0.0, 0.0, 2.0]), np.array([2.0, 0.0, 0.0]))
        assert msg.time_to_collision == pytest.approx(10.0 / 2.0, abs=1.0)

    def test_no_collision_when_moving_away(self):
        checker = CollisionChecker()
        checker.update_map(_wall_centers(x=10.0), resolution=1.0)
        msg = checker.compute(np.array([0.0, 0.0, 2.0]), np.array([-2.0, 0.0, 0.0]))
        assert np.isinf(msg.time_to_collision)

    def test_slow_speed_reports_infinite_ttc(self):
        checker = CollisionChecker(CollisionCheckConfig(min_speed=0.5))
        checker.update_map(_wall_centers(), resolution=1.0)
        msg = checker.compute(np.array([0.0, 0.0, 2.0]), np.array([0.1, 0.0, 0.0]))
        assert np.isinf(msg.time_to_collision)

    def test_closest_obstacle_distance(self):
        checker = CollisionChecker()
        checker.update_map(np.array([[5.0, 0.0, 2.0]]), resolution=1.0)
        msg = checker.compute(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0]))
        assert msg.closest_obstacle_distance == pytest.approx(4.5, abs=0.1)

    def test_future_collision_seq_increments_once_per_event(self):
        checker = CollisionChecker()
        checker.update_map(_wall_centers(x=10.0), resolution=1.0)
        waypoints = [Waypoint(x=float(x), y=0.0, z=2.0) for x in range(0, 20, 2)]
        position = np.array([0.0, 0.0, 2.0])
        velocity = np.array([1.0, 0.0, 0.0])
        first = checker.compute(position, velocity, waypoints)
        second = checker.compute(position, velocity, waypoints)
        assert first.future_collision_seq == 1
        assert second.future_collision_seq == 1  # same, still-present event

    def test_future_collision_clears_when_trajectory_avoids(self):
        checker = CollisionChecker()
        checker.update_map(_wall_centers(x=10.0), resolution=1.0)
        clear_waypoints = [Waypoint(x=float(x), y=10.0, z=2.0) for x in range(0, 20, 2)]
        msg = checker.compute(np.array([0, 10.0, 2.0]), np.array([1.0, 0, 0]), clear_waypoints)
        assert msg.future_collision_seq == 0

    def test_reset(self):
        checker = CollisionChecker()
        checker.update_map(_wall_centers(), resolution=1.0)
        checker.reset()
        assert np.isinf(checker.distance_to_nearest(np.zeros(3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_waypoint_is_skipped(self, bad):
        checker = CollisionChecker()
        checker.update_map(_wall_centers(x=10.0), resolution=1.0)
        position = np.array([0.0, 0.0, 2.0])
        velocity = np.array([1.0, 0.0, 0.0])
        clear = [Waypoint(x=bad, y=0.0, z=2.0), Waypoint(x=0.0, y=10.0, z=2.0)]
        assert checker.compute(position, velocity, clear).future_collision_seq == 0
        # The non-finite row sits between the nearest way-point and one in
        # the wall: it must neither become the nearest nor hide the wall.
        blocked = [
            Waypoint(x=0.0, y=0.0, z=2.0),
            Waypoint(x=10.0, y=0.0, z=2.0),
            Waypoint(x=bad, y=0.0, z=2.0),
            Waypoint(x=20.0, y=10.0, z=2.0),
        ]
        assert checker.trajectory_collides(blocked, position)

    def test_all_non_finite_waypoints_never_collide(self):
        checker = CollisionChecker()
        checker.update_map(_wall_centers(x=10.0), resolution=1.0)
        waypoints = [
            Waypoint(x=np.nan, y=0.0, z=2.0),
            Waypoint(x=10.0, y=np.inf, z=2.0),
            Waypoint(x=10.0, y=0.0, z=-np.inf),
        ]
        msg = checker.compute(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0]), waypoints)
        assert msg.future_collision_seq == 0


class TestCollisionCheckNode:
    def test_node_publishes_after_receiving_inputs(self):
        graph = NodeGraph()
        node = CollisionCheckNode(check_rate=4.0)
        graph.add_node(node)
        graph.start_all()
        graph.topic_bus.publish(
            topics.OCCUPANCY_MAP,
            OccupancyMapMsg(resolution=1.0, occupied_centers=_wall_centers(x=8.0)),
        )
        graph.topic_bus.publish(
            topics.ODOMETRY,
            OdometryMsg(position=np.array([0.0, 0.0, 2.0]), velocity=np.array([2.0, 0, 0])),
        )
        graph.spin_until(1.0)
        msg = graph.topic_bus.last_message(topics.COLLISION_CHECK)
        assert msg is not None
        assert np.isfinite(msg.time_to_collision)

    def test_node_silent_without_odometry(self):
        graph = NodeGraph()
        node = CollisionCheckNode()
        graph.add_node(node)
        graph.start_all()
        graph.spin_until(1.0)
        assert graph.topic_bus.last_message(topics.COLLISION_CHECK) is None

    def test_node_uses_trajectory_for_future_collision(self):
        graph = NodeGraph()
        node = CollisionCheckNode(check_rate=4.0)
        graph.add_node(node)
        graph.start_all()
        graph.topic_bus.publish(
            topics.OCCUPANCY_MAP,
            OccupancyMapMsg(resolution=1.0, occupied_centers=_wall_centers(x=12.0)),
        )
        graph.topic_bus.publish(
            topics.ODOMETRY,
            OdometryMsg(position=np.array([0.0, 0.0, 2.0]), velocity=np.array([0.5, 0, 0])),
        )
        graph.topic_bus.publish(
            topics.TRAJECTORY,
            MultiDOFTrajectoryMsg(
                waypoints=[Waypoint(x=float(x), y=0.0, z=2.0) for x in range(0, 20, 2)]
            ),
        )
        graph.spin_until(1.0)
        msg = graph.topic_bus.last_message(topics.COLLISION_CHECK)
        assert msg.future_collision_seq >= 1

    def test_node_survives_a_corrupted_trajectory(self):
        graph = NodeGraph()
        node = CollisionCheckNode(check_rate=4.0)
        graph.add_node(node)
        graph.start_all()
        graph.topic_bus.publish(
            topics.OCCUPANCY_MAP,
            OccupancyMapMsg(resolution=1.0, occupied_centers=_wall_centers(x=12.0)),
        )
        graph.topic_bus.publish(
            topics.ODOMETRY,
            OdometryMsg(position=np.array([0.0, 0.0, 2.0]), velocity=np.array([0.5, 0, 0])),
        )
        waypoints = [Waypoint(x=float(x), y=0.0, z=2.0) for x in range(0, 20, 2)]
        waypoints[3].x = float("nan")
        waypoints[4].y = float("inf")
        graph.topic_bus.publish(topics.TRAJECTORY, MultiDOFTrajectoryMsg(waypoints=waypoints))
        graph.spin_until(1.0)
        msg = graph.topic_bus.last_message(topics.COLLISION_CHECK)
        assert msg is not None
        assert msg.future_collision_seq == 1
        assert node.recompute()

    def test_reset_kernel_clears_state(self):
        graph = NodeGraph()
        node = CollisionCheckNode()
        graph.add_node(node)
        graph.start_all()
        graph.topic_bus.publish(
            topics.ODOMETRY, OdometryMsg(position=np.zeros(3), velocity=np.zeros(3))
        )
        node.reset_kernel()
        assert node._latest_odometry is None


class TestComplementaryFilter:
    def test_invalid_gain_rejected(self):
        with pytest.raises(ValueError):
            ComplementaryFilter(correction_gain=1.5)

    def test_first_correction_snaps_to_measurement(self):
        filt = ComplementaryFilter(correction_gain=0.5)
        estimate = filt.correct(np.array([1.0, 2.0, 3.0]), np.zeros(3), 0.3)
        assert np.allclose(estimate.position, [1, 2, 3])
        assert estimate.yaw == pytest.approx(0.3)

    def test_prediction_integrates_acceleration(self):
        filt = ComplementaryFilter()
        filt.correct(np.zeros(3), np.zeros(3), 0.0)
        estimate = filt.predict(np.array([1.0, 0.0, 0.0]), 0.0, 1.0)
        assert estimate.velocity[0] == pytest.approx(1.0)
        assert estimate.position[0] == pytest.approx(0.5)

    def test_correction_blends(self):
        filt = ComplementaryFilter(correction_gain=0.5)
        filt.correct(np.zeros(3), np.zeros(3), 0.0)
        estimate = filt.correct(np.array([2.0, 0, 0]), np.zeros(3), 0.0)
        assert estimate.position[0] == pytest.approx(1.0)

    def test_yaw_blend_wraps_correctly(self):
        filt = ComplementaryFilter(correction_gain=1.0)
        filt.correct(np.zeros(3), np.zeros(3), 3.1)
        estimate = filt.correct(np.zeros(3), np.zeros(3), -3.1)
        assert abs(estimate.yaw) > 3.0  # blended across the wrap, not through 0

    def test_negative_dt_rejected(self):
        filt = ComplementaryFilter()
        with pytest.raises(ValueError):
            filt.predict(np.zeros(3), 0.0, -0.1)

    def test_reset(self):
        filt = ComplementaryFilter()
        filt.correct(np.array([5.0, 0, 0]), np.zeros(3), 0.0)
        filt.reset()
        assert np.allclose(filt.estimate.position, 0.0)

    def test_reset_to_estimate(self):
        filt = ComplementaryFilter()
        filt.reset(StateEstimate(position=np.array([1.0, 1.0, 1.0])))
        assert np.allclose(filt.estimate.position, 1.0)
