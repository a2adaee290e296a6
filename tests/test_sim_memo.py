"""Tests for the exact-input kernel memos (``repro.sim.memo``) at their node call sites."""

import numpy as np
import pytest

from repro import topics
from repro.core import checkpoint
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import SerialExecutor
from repro.core.results import mission_result_to_dict
from repro.perception.collision_check import (
    COLLISION_CHECK_MEMO,
    CollisionChecker,
    CollisionCheckNode,
)
from repro.perception.point_cloud import POINT_CLOUD_MEMO, PointCloudGenerator, PointCloudNode
from repro.planning.memo import PLAN_MEMO, memoized_waypoints
from repro.planning.rrt import PlanningProblem, make_planner
from repro.planning.smoothing import PathSmoother
from repro.rosmw.graph import NodeGraph
from repro.rosmw.message import (
    CollisionCheckMsg,
    DepthImageMsg,
    Header,
    MultiDOFTrajectoryMsg,
    OccupancyMapMsg,
    OdometryMsg,
    PointCloudMsg,
    Waypoint,
)
from repro.sim.airsim import DEPTH_CAPTURE_MEMO, AirSimInterfaceNode
from repro.sim.degradation import SensorDegradation, SensorDegradationConfig
from repro.sim.memo import memo_stats
from repro.sim.sensors import DepthCamera
from repro.sim.vehicle import QuadrotorState
from repro.sim.world import Cuboid, World

SENSING_MEMOS = (DEPTH_CAPTURE_MEMO, POINT_CLOUD_MEMO, COLLISION_CHECK_MEMO)


@pytest.fixture(autouse=True)
def memo_enabled(monkeypatch):
    """The memos are on unless a test turns them off, whatever the environment says."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the kernel calls that actually run, by kernel."""
    calls = {"capture": 0, "cloud": 0, "collision": 0}
    for owner, method, label in (
        (DepthCamera, "capture", "capture"),
        (PointCloudGenerator, "compute", "cloud"),
        (CollisionChecker, "compute", "collision"),
    ):
        original = getattr(owner, method)

        def counting(self, *args, _original=original, _label=label, **kwargs):
            calls[_label] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, method, counting)
    return calls


def _nudged(value):
    return np.nextafter(value, np.inf)


def _nan(payload):
    """A quiet NaN with ``payload`` in its low mantissa bits."""
    value = np.array([np.nan])
    value.view(np.uint64)[0] |= payload
    return float(value[0])


# ------------------------------------------------------------------ camera
def _world():
    world = World(name="memo-test")
    world.add_obstacle(Cuboid.from_center((10.0, 0.0, 3.0), (4.0, 4.0, 6.0), name="box"))
    return world


def _camera(world=None, degradation=None):
    """A started AirSim node and the depth images it delivers."""
    graph = NodeGraph()
    node = AirSimInterfaceNode(world or _world(), degradation=degradation)
    graph.add_node(node)
    graph.start_all()
    images = []
    graph.topic_bus.subscribe(topics.DEPTH_IMAGE, DepthImageMsg, images.append)
    node.vehicle.state.position = np.array([0.0, 0.5, 3.0])
    node.vehicle.state.yaw = 0.25
    return node, images


def _image_bytes(image):
    return (
        image.depth.tobytes(),
        image.camera_position.tobytes(),
        np.array([image.fov_h, image.fov_v, image.max_range, image.camera_yaw]).tobytes(),
    )


class TestDepthCapture:
    def test_hit_equals_a_fresh_capture(self, kernel_calls):
        node, images = _camera()
        node._publish_camera()
        node._publish_camera()
        assert kernel_calls["capture"] == 1
        assert DEPTH_CAPTURE_MEMO.stats() == {"hits": 1, "misses": 1}
        fresh = DepthCamera(node.world).capture(node.vehicle.state)
        assert _image_bytes(images[0]) == _image_bytes(fresh)
        assert _image_bytes(images[1]) == _image_bytes(fresh)

    @pytest.mark.parametrize(
        "change", ["position", "yaw", "negative_zero_yaw", "obstacle", "bounds", "config"]
    )
    def test_any_input_change_misses(self, change, kernel_calls):
        node, _ = _camera()
        state = node.vehicle.state
        if change == "negative_zero_yaw":
            state.yaw = 0.0
        node._publish_camera()
        if change == "position":
            state.position = state.position.copy()
            state.position[1] = _nudged(state.position[1])
        elif change == "yaw":
            state.yaw = float(_nudged(state.yaw))
        elif change == "negative_zero_yaw":
            state.yaw = -0.0
        elif change == "obstacle":
            node.world.add_obstacle(Cuboid.from_center((30.0, 0.0, 3.0), (2.0, 2.0, 2.0)))
        elif change == "bounds":
            node.world.bounds_lo = (-5.0, -30.0, -0.5)
        else:
            node.camera.config.max_range = 20.0
        node._publish_camera()
        assert kernel_calls["capture"] == 2
        assert DEPTH_CAPTURE_MEMO.stats() == {"hits": 0, "misses": 2}

    def test_degrading_a_hit_in_place_leaves_the_next_hit_unchanged(self, monkeypatch):
        fog = SensorDegradationConfig(depth_dropout=0.3, depth_range_scale=0.5)

        def fly():
            node, images = _camera(degradation=SensorDegradation(fog, seed=4))
            for _ in range(3):
                node._publish_camera()
            return [_image_bytes(image) for image in images]

        memoized = fly()
        assert DEPTH_CAPTURE_MEMO.stats() == {"hits": 2, "misses": 1}
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert memoized == fly()

    def test_hits_are_fresh_writable_arrays_and_entries_read_only(self):
        node, images = _camera()
        node._publish_camera()
        node._publish_camera()
        first, second = images
        assert first.depth is not second.depth
        assert first.camera_position is not second.camera_position
        assert second.depth.flags.writeable and second.camera_position.flags.writeable
        (entry,) = DEPTH_CAPTURE_MEMO._entries.values()
        assert not entry.depth.flags.writeable
        assert not entry.camera_position.flags.writeable

    def test_world_content_key_follows_the_world(self):
        world = _world()
        key = world.content_key()
        assert _world().content_key() == key
        world.add_obstacle(Cuboid.from_center((30.0, 0.0, 3.0), (2.0, 2.0, 2.0)))
        assert world.content_key() != key


# ------------------------------------------------------------- point cloud
#: A depth image of ``_world()``, captured once so no test counts it.
DEPTH = DepthCamera(_world()).capture(
    QuadrotorState(position=np.array([0.0, 0.5, 3.0]), yaw=0.25)
).depth


def _depth_msg(**overrides):
    fields = dict(
        depth=DEPTH.copy(),
        camera_position=np.array([0.0, 0.5, 3.0]),
        camera_yaw=0.25,
    )
    fields.update(overrides)
    return DepthImageMsg(**fields)


def _cloud_node():
    graph = NodeGraph()
    node = PointCloudNode()
    graph.add_node(node)
    graph.start_all()
    clouds = []
    graph.topic_bus.subscribe(topics.POINT_CLOUD, PointCloudMsg, clouds.append)
    return node, clouds


class TestPointCloud:
    def test_hit_equals_a_fresh_cloud_whatever_the_header(self, kernel_calls):
        node, clouds = _cloud_node()
        node._on_depth(_depth_msg())
        node._on_depth(_depth_msg(header=Header(stamp=3.5, seq=9, frame_id="elsewhere")))
        assert kernel_calls["cloud"] == 1
        assert POINT_CLOUD_MEMO.stats() == {"hits": 1, "misses": 1}
        fresh = PointCloudGenerator().compute(_depth_msg()).points
        assert fresh.size
        assert [cloud.points.tobytes() for cloud in clouds] == [fresh.tobytes()] * 2

    @pytest.mark.parametrize(
        "change", ["pixel", "camera_position", "negative_zero_yaw", "fov_h", "max_range", "stride"]
    )
    def test_any_input_change_misses(self, change, kernel_calls):
        node, _ = _cloud_node()
        base = _depth_msg(camera_yaw=0.0)
        node._on_depth(base)
        if change == "pixel":
            depth = base.depth.copy()
            pixel = np.unravel_index(np.flatnonzero(np.isfinite(depth))[0], depth.shape)
            depth[pixel] = _nudged(depth[pixel])
            other = _depth_msg(camera_yaw=0.0, depth=depth)
        elif change == "camera_position":
            other = _depth_msg(camera_yaw=0.0, camera_position=np.array([0.0, _nudged(0.5), 3.0]))
        elif change == "negative_zero_yaw":
            other = _depth_msg(camera_yaw=-0.0)
        elif change == "fov_h":
            other = _depth_msg(camera_yaw=0.0, fov_h=89.0)
        elif change == "max_range":
            other = _depth_msg(camera_yaw=0.0, max_range=12.0)
        else:
            node.kernel.stride = 2
            other = base
        node._on_depth(other)
        assert kernel_calls["cloud"] == 2
        assert POINT_CLOUD_MEMO.stats() == {"hits": 0, "misses": 2}

    @pytest.mark.parametrize("faulted", [0, 1], ids=["on_the_miss", "on_a_hit"])
    def test_corrupting_a_cloud_in_place_leaves_the_next_hit_unchanged(self, faulted):
        node, clouds = _cloud_node()
        for index in range(3):
            if index == faulted:
                node.corrupt_internal(np.random.default_rng(0), bit=62)
            node._on_depth(_depth_msg())
        fresh = PointCloudGenerator().compute(_depth_msg()).points.tobytes()
        delivered = [cloud.points.tobytes() for cloud in clouds]
        assert delivered[faulted] != fresh
        assert [d for i, d in enumerate(delivered) if i != faulted] == [fresh, fresh]
        (entry,) = POINT_CLOUD_MEMO._entries.values()
        assert not entry.flags.writeable
        assert entry.tobytes() == fresh

    def test_recompute_is_served_from_the_memo(self, kernel_calls):
        node, clouds = _cloud_node()
        node._on_depth(_depth_msg())
        assert node.recompute()
        assert kernel_calls["cloud"] == 1
        assert POINT_CLOUD_MEMO.stats() == {"hits": 1, "misses": 1}
        assert clouds[0].points.tobytes() == clouds[1].points.tobytes()
        assert clouds[0].points is not clouds[1].points


# ---------------------------------------------------------- collision check
def _wall():
    ys = np.arange(-6.0, 6.5, 1.0)
    zs = np.arange(0.5, 6.5, 1.0)
    return np.array([[15.0, y, z] for y in ys for z in zs])


def _trajectory(end_x=30.0):
    return [Waypoint(x=float(x), y=0.0, z=2.0) for x in np.linspace(0.0, end_x, 11)]


def _collision_node(config=None):
    graph = NodeGraph()
    node = CollisionCheckNode(config=config)
    graph.add_node(node)
    graph.start_all()
    checks = []
    graph.topic_bus.subscribe(topics.COLLISION_CHECK, CollisionCheckMsg, checks.append)
    node._on_map(OccupancyMapMsg(resolution=1.0, occupied_centers=_wall()))
    return node, checks


def _check(node, position=(0.0, 0.0, 2.0), velocity=(2.0, 0.0, 0.0), waypoints=None):
    node._on_odometry(
        OdometryMsg(
            position=np.array(position, dtype=float), velocity=np.array(velocity, dtype=float)
        )
    )
    if waypoints is None:
        waypoints = _trajectory()
    node._on_trajectory(MultiDOFTrajectoryMsg(waypoints=waypoints))
    node._check()


def _fields(msg):
    return (msg.time_to_collision, msg.future_collision_seq, msg.closest_obstacle_distance)


class TestCollisionCheck:
    def test_hits_equal_fresh_checks_and_move_the_latch(self, kernel_calls):
        """Blocked, clear, blocked: the third check is a hit and still counts a new collision."""
        node, checks = _collision_node()
        fresh = CollisionChecker()
        fresh.update_map(_wall(), 1.0)
        position, velocity = np.array([0.0, 0.0, 2.0]), np.array([2.0, 0.0, 0.0])
        expected = []
        for end_x in (30.0, 10.0, 30.0, 30.0):
            _check(node, waypoints=_trajectory(end_x))
            expected.append(_fields(fresh.compute(position, velocity, _trajectory(end_x))))
        assert kernel_calls["collision"] == 2 + 4  # two node misses, four direct checks
        assert COLLISION_CHECK_MEMO.stats() == {"hits": 2, "misses": 2}
        assert [_fields(msg) for msg in checks] == expected
        assert [seq for _, seq, _ in expected] == [1, 1, 2, 2]

    @pytest.mark.parametrize(
        "change", ["position", "velocity", "nan_payload_waypoint", "voxel", "resolution", "config"]
    )
    def test_any_input_change_misses(self, change, kernel_calls):
        node, _ = _collision_node()
        waypoints = _trajectory()
        waypoints[-1].z = _nan(1)
        _check(node, waypoints=waypoints)
        position, velocity = [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]
        if change == "position":
            position[0] = _nudged(0.0)
        elif change == "velocity":
            velocity[0] = _nudged(2.0)
        elif change == "nan_payload_waypoint":
            waypoints = _trajectory()
            waypoints[-1].z = _nan(2)
        elif change == "voxel":
            centers = _wall()
            centers[7, 2] += 0.5
            node._on_map(OccupancyMapMsg(resolution=1.0, occupied_centers=centers))
        elif change == "resolution":
            node._on_map(OccupancyMapMsg(resolution=0.5, occupied_centers=_wall()))
        else:
            node.kernel.config.collision_clearance = 1.2
        _check(node, position=position, velocity=velocity, waypoints=waypoints)
        assert kernel_calls["collision"] == 2
        assert COLLISION_CHECK_MEMO.stats() == {"hits": 0, "misses": 2}

    def test_recompute_is_served_from_the_memo(self, kernel_calls):
        node, checks = _collision_node()
        _check(node)
        assert node.recompute()
        assert kernel_calls["collision"] == 1
        assert COLLISION_CHECK_MEMO.stats() == {"hits": 1, "misses": 1}
        assert _fields(checks[1]) == _fields(checks[0])


# ----------------------------------------------------------------- lifecycle
def _fill_every_memo():
    node, _ = _camera()
    node._publish_camera()
    cloud_node, _ = _cloud_node()
    cloud_node._on_depth(_depth_msg())
    collision_node, _ = _collision_node()
    _check(collision_node)
    problem = PlanningProblem(start=np.array([0.0, 0.0, 2.0]), goal=np.array([9.0, 0.0, 2.0]))
    planner = make_planner("rrt", seed=0, max_iterations=50, step_size=3.0)
    memoized_waypoints(planner, problem, PathSmoother())


class TestLifecycle:
    def test_lru_bound_holds(self, monkeypatch, kernel_calls):
        monkeypatch.setattr(DEPTH_CAPTURE_MEMO, "capacity", 2)
        node, _ = _camera()
        positions = [np.array([0.0, y, 3.0]) for y in (0.0, 1.0, 2.0)]
        for position in positions:
            node.vehicle.state.position = position
            node._publish_camera()
        assert len(DEPTH_CAPTURE_MEMO) == 2
        node._publish_camera()  # newest: still stored
        node.vehicle.state.position = positions[0]
        node._publish_camera()  # oldest: evicted, captured again
        assert kernel_calls["capture"] == 4
        assert DEPTH_CAPTURE_MEMO.stats() == {"hits": 1, "misses": 4}
        assert len(DEPTH_CAPTURE_MEMO) == 2

    def test_no_cache_knob_computes_every_call(self, monkeypatch, kernel_calls):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        for _ in range(2):
            _fill_every_memo()
        assert kernel_calls == {"capture": 2, "cloud": 2, "collision": 2}
        for memo in (*SENSING_MEMOS, PLAN_MEMO):
            assert memo.stats() == {"hits": 0, "misses": 0}
            assert len(memo) == 0

    def test_checkpoint_reset_empties_every_memo(self):
        for _ in range(2):
            _fill_every_memo()
        stats = memo_stats()
        assert {"depth_capture", "point_cloud", "collision_check", "motion_plan"} <= set(stats)
        for memo in (*SENSING_MEMOS, PLAN_MEMO):
            assert memo.stats() == {"hits": 1, "misses": 1}
        checkpoint.reset_checkpoint_caches()
        for name, counters in memo_stats().items():
            assert counters == {"hits": 0, "misses": 0}, name
        for memo in (*SENSING_MEMOS, PLAN_MEMO):
            assert len(memo) == 0

    def test_degraded_preset_flown_twice_writes_identical_records(self):
        config = CampaignConfig(
            scenario="foggy-factory",
            num_golden=1,
            num_injections_per_stage=1,
            mission_time_limit=30.0,
        )
        campaign = Campaign(config)
        specs = campaign.golden_specs() + campaign.stage_injection_specs("injection")
        first = [mission_result_to_dict(r) for r in SerialExecutor().map(specs)]
        before = {memo.name: memo.hits for memo in SENSING_MEMOS}
        second = [mission_result_to_dict(r) for r in SerialExecutor().map(specs)]
        assert second == first
        assert all(memo.hits > before[memo.name] for memo in SENSING_MEMOS)
