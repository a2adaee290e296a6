"""Tests for the simulated sensors and the AirSim interface node."""

import copy

import numpy as np
import pytest

from repro import topics
from repro.rosmw.graph import NodeGraph
from repro.rosmw.message import FlightCommandMsg, ImuMsg
from repro.sim.airsim import AirSimInterfaceNode, MissionConfig
from repro.sim.sensors import CameraConfig, DepthCamera, Imu, OdometrySensor
from repro.sim.vehicle import QuadrotorState
from repro.sim.world import Cuboid, World


class TestDepthCamera:
    def test_image_shape_matches_config(self, simple_world):
        camera = DepthCamera(simple_world, CameraConfig(width=16, height=8))
        msg = camera.capture(QuadrotorState(position=np.array([0.0, 0.0, 3.0])))
        assert msg.depth.shape == (8, 16)

    def test_sees_obstacle_ahead(self, simple_world):
        camera = DepthCamera(simple_world, CameraConfig(width=17, height=9))
        msg = camera.capture(QuadrotorState(position=np.array([0.0, 0.0, 3.0])))
        center = msg.depth[4, 8]
        assert center == pytest.approx(8.0, abs=0.3)

    def test_obstacle_behind_not_seen(self, simple_world):
        state = QuadrotorState(position=np.array([20.0, 0.0, 3.0]))
        camera = DepthCamera(simple_world, CameraConfig(width=17, height=9))
        msg = camera.capture(state)
        assert np.isinf(msg.depth[4, 8])

    def test_yaw_rotates_view(self, simple_world):
        # Facing +y (yaw 90 deg) the box at +x is out of the 90 deg FOV.
        state = QuadrotorState(position=np.array([0.0, 0.0, 3.0]), yaw=np.pi / 2)
        camera = DepthCamera(simple_world, CameraConfig(width=17, height=9))
        msg = camera.capture(state)
        assert np.isinf(msg.depth[4, 8])

    def test_max_range_respected(self, simple_world):
        camera = DepthCamera(simple_world, CameraConfig(width=9, height=5, max_range=5.0))
        msg = camera.capture(QuadrotorState(position=np.array([0.0, 0.0, 3.0])))
        finite = msg.depth[np.isfinite(msg.depth)]
        assert np.all(finite <= 5.0 + 1e-9)


class TestImuOdometry:
    def test_imu_reports_acceleration(self):
        imu = Imu(seed=1)
        imu.measure(QuadrotorState(velocity=np.zeros(3), time=0.0))
        msg = imu.measure(QuadrotorState(velocity=np.array([1.0, 0, 0]), time=0.5))
        assert msg.linear_acceleration[0] == pytest.approx(2.0, abs=0.2)

    def test_imu_reset(self):
        imu = Imu(seed=1)
        imu.measure(QuadrotorState(velocity=np.array([5.0, 0, 0]), time=1.0))
        imu.reset()
        msg = imu.measure(QuadrotorState(velocity=np.array([0.0, 0, 0]), time=2.0))
        assert np.allclose(msg.linear_acceleration, 0.0, atol=0.2)

    def test_odometry_reports_pose(self):
        sensor = OdometrySensor()
        state = QuadrotorState(
            position=np.array([1.0, 2.0, 3.0]), velocity=np.array([0.5, 0, 0]), yaw=0.7
        )
        msg = sensor.measure(state)
        assert np.allclose(msg.position, [1, 2, 3])
        assert msg.yaw == pytest.approx(0.7)


def _make_airsim(world=None, goal=(10.0, 0.0, 1.5), time_limit=30.0):
    world = world if world is not None else World(name="open")
    graph = NodeGraph()
    node = AirSimInterfaceNode(
        world=world,
        mission=MissionConfig(
            start=np.array([0.0, 0.0, 1.5]),
            goal=np.array(goal),
            time_limit=time_limit,
        ),
    )
    graph.add_node(node)
    graph.start_all()
    return graph, node


class TestAirSimInterface:
    def test_publishes_sensor_topics(self):
        graph, _ = _make_airsim()
        # The IMU is measured only for a reader.
        graph.topic_bus.subscribe(topics.IMU, ImuMsg, lambda msg: None)
        graph.spin_until(1.0)
        assert graph.topic_bus.publish_count(topics.DEPTH_IMAGE) >= 4
        assert graph.topic_bus.publish_count(topics.ODOMETRY) >= 15
        assert graph.topic_bus.publish_count(topics.IMU) >= 15

    def test_flight_command_moves_vehicle(self):
        graph, node = _make_airsim()
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=2.0))
        graph.spin_until(3.0)
        assert node.state.position[0] > 2.0

    def test_goal_reached_terminates_mission(self):
        graph, node = _make_airsim(goal=(5.0, 0.0, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=3.0))
        graph.spin_until(15.0)
        assert node.mission_done
        assert node.outcome.success
        assert node.outcome.reason == "goal reached"
        assert node.outcome.flight_time > 0.0

    def test_collision_terminates_mission(self):
        world = World(name="wall")
        world.add_obstacle(Cuboid.from_center((5.0, 0.0, 2.0), (2, 20, 4)))
        graph, node = _make_airsim(world=world, goal=(20.0, 0.0, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=4.0))
        graph.spin_until(15.0)
        assert node.mission_done
        assert node.outcome.collision
        assert not node.outcome.success

    def test_timeout_terminates_mission(self):
        graph, node = _make_airsim(goal=(50.0, 0.0, 1.5), time_limit=2.0)
        graph.spin_until(5.0)
        assert node.mission_done
        assert node.outcome.timeout

    def test_trajectory_recorded(self):
        graph, node = _make_airsim(goal=(6.0, 0.0, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=3.0))
        graph.spin_until(10.0)
        assert len(node.outcome.trajectory) > 3

    def test_abort_marks_failure(self):
        graph, node = _make_airsim(goal=(50.0, 0.0, 1.5))
        graph.spin_until(1.0)
        node.abort(reason="runner time limit", timeout=True)
        assert node.mission_done
        assert not node.outcome.success
        assert node.outcome.timeout
        assert node.outcome.reason == "runner time limit"
        assert node.outcome.flight_time > 0.0

    def test_abort_never_overwrites_a_real_outcome(self):
        graph, node = _make_airsim(goal=(3.0, 0.0, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=3.0))
        graph.spin_until(10.0)
        assert node.outcome.success
        node.abort(reason="late abort", timeout=True)
        assert node.outcome.success
        assert node.outcome.reason == "goal reached"
        assert not node.outcome.timeout

    def _waypoint_airsim(self, waypoint):
        graph = NodeGraph()
        node = AirSimInterfaceNode(
            world=World(name="open"),
            mission=MissionConfig(
                start=np.array([0.0, 0.0, 1.5]),
                goal=np.array([10.0, 0.0, 1.5]),
                waypoints=(waypoint,),
                time_limit=60.0,
            ),
        )
        graph.add_node(node)
        graph.start_all()
        return graph, node

    def test_waypoint_on_route_then_goal_succeeds(self):
        graph, node = self._waypoint_airsim((6.0, 0.0, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=3.0))
        graph.spin_until(15.0)
        assert node.waypoints_reached == 1
        assert node.mission_done
        assert node.outcome.success

    def test_intermediate_waypoints_use_flyby_capture_radius(self):
        # 2.5 m off the flight line: outside the 2.0 m goal tolerance but
        # inside the 1.5x fly-by capture radius.  The looser ground-truth
        # credit keeps airsim's route index from diverging from the mission
        # planner's odometry-based advancement under sensor noise.
        graph, node = self._waypoint_airsim((6.0, 2.5, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=3.0))
        graph.spin_until(15.0)
        assert node.waypoints_reached == 1
        assert node.outcome.success

    def test_missed_waypoint_blocks_success(self):
        # Fly straight through the final goal: the mission must NOT succeed,
        # because the off-route intermediate waypoint was never visited.
        graph, node = self._waypoint_airsim((5.0, 8.0, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=3.0))
        graph.spin_until(10.0)
        assert node.waypoints_reached == 0
        assert not node.mission_done
        assert np.allclose(node.current_target, [5.0, 8.0, 1.5])

    def test_sensors_stop_after_mission_done(self):
        graph, node = _make_airsim(goal=(3.0, 0.0, 1.5))
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=3.0))
        graph.spin_until(10.0)
        assert node.mission_done
        count = graph.topic_bus.publish_count(topics.DEPTH_IMAGE)
        graph.spin_until(12.0)
        assert graph.topic_bus.publish_count(topics.DEPTH_IMAGE) == count


class TestImuReaders:
    """The IMU is measured and published only while someone reads it."""

    @staticmethod
    def _launch(attach, seed=7):
        """A flight whose IMU ``attach(graph, node)`` may read, attached before launch."""
        graph = NodeGraph()
        node = AirSimInterfaceNode(
            world=World(name="open"),
            mission=MissionConfig(goal=np.array([50.0, 0.0, 1.5]), time_limit=30.0),
            seed=seed,
        )
        graph.add_node(node)
        attach(graph, node)
        graph.start_all()
        graph.topic_bus.publish(topics.FLIGHT_COMMAND, FlightCommandMsg(vx=2.0, vz=0.5, yaw_rate=0.3))
        graph.spin_until(2.0)
        return graph

    def test_unread_imu_is_never_measured(self, monkeypatch):
        calls = []
        measure = Imu.measure
        monkeypatch.setattr(Imu, "measure", lambda imu, state: calls.append(state) or measure(imu, state))
        graph = self._launch(lambda graph, node: None)
        assert calls == []
        assert graph.topic_bus.publish_count(topics.IMU) == 0
        assert graph.topic_bus.publish_count(topics.ODOMETRY) >= 30

    @pytest.mark.parametrize("reader", ["subscriber", "tap"])
    def test_reader_gets_the_ungated_stream(self, reader):
        received, states = [], []

        def read(msg, node):
            received.append(msg)
            states.append(copy.deepcopy(node.vehicle.state))

        def attach(graph, node):
            if reader == "subscriber":
                graph.topic_bus.subscribe(topics.IMU, ImuMsg, lambda msg: read(msg, node))
            else:
                graph.topic_bus.add_tap(topics.IMU, lambda name, msg: read(msg, node) or msg)

        graph = self._launch(attach)
        assert len(received) == graph.topic_bus.publish_count(topics.IMU) >= 30
        ungated = Imu(seed=7)
        for msg, state in zip(received, states):
            expected = ungated.measure(state)
            for name in ("linear_acceleration", "angular_velocity"):
                assert getattr(msg, name).tobytes() == getattr(expected, name).tobytes()
            assert msg.orientation_yaw == expected.orientation_yaw
        assert np.abs(received[-1].angular_velocity[2]) > 0.1
