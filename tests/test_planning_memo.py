"""Tests for the motion-plan memo (``repro.planning.memo``)."""

import gc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from repro import topics
from repro.core import checkpoint
from repro.planning.memo import PLAN_MEMO, memoized_waypoints, plan_key
from repro.planning.motion_planner import MotionPlannerNode, PlannerConfig
from repro.planning.rrt import PLANNER_CLASSES, PlanningProblem, make_planner
from repro.planning.smoothing import PathSmoother, SmootherConfig
from repro.rosmw.graph import NodeGraph
from repro.rosmw.message import MissionStatusMsg, OccupancyMapMsg, OdometryMsg, Waypoint

#: The way-point fields, in declaration order.
WAYPOINT_FIELDS = tuple(f.name for f in fields(Waypoint))


def _wall():
    ys = np.arange(-6.0, 6.5, 1.0)
    zs = np.arange(0.5, 6.5, 1.0)
    return np.array([[15.0, y, z] for y in ys for z in zs])


def _problem(**overrides):
    fields = dict(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([30.0, 0.0, 2.0]),
        occupied_centers=_wall(),
        clearance=1.1,
    )
    fields.update(overrides)
    return PlanningProblem(**fields)


def _planner(name="rrt_star", **overrides):
    kwargs = dict(seed=3, max_iterations=300, step_size=3.0)
    kwargs.update(overrides)
    return make_planner(name, **kwargs)


def _smoother(**overrides):
    return PathSmoother(SmootherConfig(**overrides))


def _memoized(planner, problem, smoother=None):
    return memoized_waypoints(planner, problem, smoother or _smoother())


def _key(planner, problem, smoother=None):
    return plan_key(planner, problem, smoother or _smoother())


@pytest.fixture(autouse=True)
def memo_enabled(monkeypatch):
    """The memo is on unless a test turns it off, whatever the environment says."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


@pytest.fixture
def plan_calls(monkeypatch):
    """Counts the planner ``plan`` calls that actually run."""
    calls = []
    for cls in PLANNER_CLASSES.values():
        original = cls.plan

        def counting(planner, problem, _original=original):
            calls.append(type(planner).__name__)
            return _original(planner, problem)

        monkeypatch.setattr(cls, "plan", counting)
    return calls


@pytest.fixture
def smoother_calls(monkeypatch):
    """Counts the ``shortcut`` and ``resample`` calls that actually run."""
    calls = []
    for name in ("shortcut", "resample"):
        original = getattr(PathSmoother, name)

        def counting(smoother, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(smoother, *args)

        monkeypatch.setattr(PathSmoother, name, counting)
    return calls


def _fingerprint(waypoints):
    """The exact bytes of every way-point field (``None`` for a failed plan)."""
    if waypoints is None:
        return None
    rows = [[getattr(w, name) for name in WAYPOINT_FIELDS] for w in waypoints]
    return np.array(rows, dtype=float).reshape(-1, len(WAYPOINT_FIELDS)).tobytes()


def _fresh(planner, problem, smoother=None):
    """The planner and smoother run directly, without the memo."""
    result = planner.plan(problem)
    smoother = smoother or _smoother()
    return smoother.to_trajectory(result.path, problem).waypoints if result.success else None


class TestHits:
    @pytest.mark.parametrize("name", sorted(PLANNER_CLASSES))
    def test_hit_equals_a_fresh_plan(self, name, plan_calls):
        fresh = _fresh(_planner(name), _problem())
        first = _memoized(_planner(name), _problem())
        hit = _memoized(_planner(name), _problem())
        assert len(plan_calls) == 2  # the direct call and the one miss
        assert PLAN_MEMO.stats() == {"hits": 1, "misses": 1}
        assert fresh
        assert _fingerprint(first) == _fingerprint(fresh)
        assert _fingerprint(hit) == _fingerprint(fresh)
        assert all(type(getattr(w, f)) is float for w in hit for f in WAYPOINT_FIELDS)

    def test_failed_plans_are_served_too(self, plan_calls):
        far = _problem(goal=np.array([60.0, 0.0, 2.0]))
        planner = _planner(max_iterations=5)
        first = _memoized(planner, far)
        second = _memoized(planner, far)
        assert first is None
        assert second is None
        assert len(plan_calls) == 1

    def test_mutating_returned_waypoints_cannot_change_a_later_hit(self):
        expected = _fingerprint(_memoized(_planner(), _problem()))
        hit = _memoized(_planner(), _problem())
        for waypoint in hit:
            waypoint.x += 100.0
        hit.append(Waypoint())
        assert _fingerprint(_memoized(_planner(), _problem())) == expected

    def test_miss_result_is_not_the_stored_copy(self):
        first = _memoized(_planner(), _problem())
        expected = _fingerprint(first)
        first[0].x = float("nan")
        assert _fingerprint(_memoized(_planner(), _problem())) == expected

    def test_keeps_no_reference_to_the_problem(self):
        problem = _problem()
        problem_ref = weakref.ref(problem)
        centers_ref = weakref.ref(problem.occupied_centers)
        _memoized(_planner(), problem)
        del problem
        gc.collect()
        assert problem_ref() is None
        assert centers_ref() is None


class TestKey:
    def _nudged(self, vector, index=0):
        moved = vector.copy()
        moved[index] = np.nextafter(moved[index], np.inf)
        return moved

    def test_equal_inputs_share_a_key(self):
        assert _key(_planner(), _problem()) == _key(_planner(), _problem())

    @pytest.mark.parametrize(
        "change",
        [
            "start",
            "goal",
            "occupied_centre",
            "clearance",
            "bounds_lo",
            "bounds_hi",
            "start_escape_radius",
            "map_resolution",
        ],
    )
    def test_any_problem_change_misses(self, change, plan_calls):
        base = _problem()
        if change == "start":
            other = _problem(start=self._nudged(base.start))
        elif change == "goal":
            other = _problem(goal=self._nudged(base.goal, index=1))
        elif change == "occupied_centre":
            centers = base.occupied_centers.copy()
            centers[7, 2] += 0.5
            other = _problem(occupied_centers=centers)
        elif change == "clearance":
            other = _problem(clearance=1.2)
        elif change == "bounds_lo":
            other = _problem(bounds_lo=(-5.0, -30.0, 0.25))
        elif change == "bounds_hi":
            other = _problem(bounds_hi=(65.0, 30.0, 11.0))
        elif change == "start_escape_radius":
            other = _problem(start_escape_radius=2.0)
        else:
            other = _problem(map_resolution=0.5)
        assert _key(_planner(), other) != _key(_planner(), base)
        _memoized(_planner(), base)
        _memoized(_planner(), other)
        assert PLAN_MEMO.stats() == {"hits": 0, "misses": 2}
        assert len(plan_calls) == 2

    @pytest.mark.parametrize(
        "planner",
        [
            _planner(seed=4),
            _planner(max_iterations=301),
            _planner(step_size=np.nextafter(3.0, 4.0)),
            _planner("rrt"),
            _planner("rrt_connect"),
        ],
        ids=["seed", "max_iterations", "step_size", "rrt", "rrt_connect"],
    )
    def test_any_planner_change_misses(self, planner, plan_calls):
        _memoized(_planner(), _problem())
        _memoized(planner, _problem())
        assert PLAN_MEMO.stats() == {"hits": 0, "misses": 2}
        assert len(plan_calls) == 2

    def test_planner_attribute_set_after_construction_is_keyed(self):
        planner = _planner()
        planner.goal_bias = 0.3
        assert _key(planner, _problem()) != _key(_planner(), _problem())

    @pytest.mark.parametrize(
        "change",
        [
            {"waypoint_spacing": np.nextafter(2.0, 3.0)},
            {"cruise_speed": 4.5},
            {"approach_distance": 5.0},
            {"min_speed": 0.5},
            {"shortcut_passes": 1},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_smoother_change_misses(self, change, plan_calls):
        assert _key(_planner(), _problem(), _smoother(**change)) != _key(_planner(), _problem())
        _memoized(_planner(), _problem())
        _memoized(_planner(), _problem(), _smoother(**change))
        assert PLAN_MEMO.stats() == {"hits": 0, "misses": 2}
        assert len(plan_calls) == 2

    def test_smoother_attribute_set_after_construction_is_keyed(self):
        smoother = _smoother()
        smoother.extra = 1
        assert _key(_planner(), _problem(), smoother) != _key(_planner(), _problem())

    def test_keys_compare_bytes_not_values(self):
        zero = _problem(start=np.array([0.0, 0.0, 2.0]))
        negative_zero = _problem(start=np.array([-0.0, 0.0, 2.0]))
        assert _key(_planner(), zero) != _key(_planner(), negative_zero)
        quiet = np.array([np.nan, 0.0, 2.0])
        payload = quiet.copy()
        payload.view(np.uint64)[0] |= 1
        assert np.isnan(payload[0])
        assert _key(_planner(), _problem(goal=quiet)) != _key(
            _planner(), _problem(goal=payload)
        )
        assert _key(_planner(), _problem(clearance=0.0)) != _key(
            _planner(), _problem(clearance=-0.0)
        )

    def test_shape_and_dtype_are_keyed(self):
        centers = _wall()
        flat = _problem(occupied_centers=centers)
        assert _key(_planner(), flat) != _key(
            _planner(), replace(flat, occupied_centers=centers.reshape(3, -1))
        )
        wide = replace(flat, bounds_lo=np.array([-5.0, -30.0, 0.5]))
        narrow = replace(flat, bounds_lo=np.array([-5.0, -30.0, 0.5], dtype=np.float32))
        assert _key(_planner(), wide) != _key(_planner(), narrow)

    @pytest.mark.parametrize(
        "value", [{"not": "keyable"}, np.array([1.0, None], dtype=object)], ids=["dict", "object"]
    )
    def test_unsupported_field_type_is_refused(self, value):
        # Object arrays would enter by their pointers, not their contents.
        problem = _problem()
        problem.bounds_lo = value
        with pytest.raises(TypeError):
            _key(_planner(), problem)


class TestLifecycle:
    def test_raising_plan_is_not_stored(self, plan_calls):
        bad = _problem(start=np.array([np.nan, 0.0, 2.0]))
        for _ in range(2):
            with pytest.raises(ValueError):
                _memoized(_planner(), bad)
        assert len(plan_calls) == 2
        assert PLAN_MEMO.stats() == {"hits": 0, "misses": 2}
        assert len(PLAN_MEMO) == 0

    def test_lru_bound_holds(self, monkeypatch, plan_calls):
        monkeypatch.setattr(PLAN_MEMO, "capacity", 2)
        planners = [_planner(seed=seed, max_iterations=30) for seed in range(3)]
        for planner in planners:
            _memoized(planner, _problem())
        assert len(PLAN_MEMO) == 2
        _memoized(planners[2], _problem())  # newest: still stored
        _memoized(planners[0], _problem())  # oldest: evicted, runs again
        assert len(plan_calls) == 4
        assert PLAN_MEMO.stats() == {"hits": 1, "misses": 4}
        assert len(PLAN_MEMO) == 2

    def test_no_cache_knob_runs_every_plan(self, monkeypatch, plan_calls):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        for _ in range(3):
            _memoized(_planner(), _problem())
        assert len(plan_calls) == 3
        assert PLAN_MEMO.stats() == {"hits": 0, "misses": 0}
        assert len(PLAN_MEMO) == 0

    def test_checkpoint_reset_clears_the_memo(self, plan_calls):
        _memoized(_planner(), _problem())
        checkpoint.reset_checkpoint_caches()
        assert PLAN_MEMO.stats() == {"hits": 0, "misses": 0}
        _memoized(_planner(), _problem())
        assert len(plan_calls) == 2


class TestMotionPlannerNode:
    def _fly(self):
        graph = NodeGraph()
        node = MotionPlannerNode(config=PlannerConfig(planner_name="rrt_star"))
        graph.add_node(node)
        graph.start_all()
        graph.topic_bus.publish(
            topics.OCCUPANCY_MAP, OccupancyMapMsg(resolution=1.0, occupied_centers=_wall())
        )
        graph.topic_bus.publish(
            topics.ODOMETRY, OdometryMsg(position=np.array([0.0, 0.0, 2.0]))
        )
        graph.topic_bus.publish(
            topics.MISSION_STATUS, MissionStatusMsg(goal=np.array([40.0, 0.0, 2.0]))
        )
        graph.spin_until(1.0)
        return graph, node

    def _waypoints(self, graph):
        trajectory = graph.topic_bus.last_message(topics.TRAJECTORY)
        return [(w.x, w.y, w.z, w.yaw) for w in trajectory.waypoints]

    def test_second_identical_mission_is_served_from_the_memo(self, plan_calls):
        first_graph, _ = self._fly()
        second_graph, _ = self._fly()
        assert len(plan_calls) == 1
        assert PLAN_MEMO.stats() == {"hits": 1, "misses": 1}
        assert self._waypoints(second_graph) == self._waypoints(first_graph)

    def test_hit_runs_no_smoother_and_yields_the_computed_fields(self, smoother_calls):
        first_graph, _ = self._fly()
        computed = first_graph.topic_bus.last_message(topics.TRAJECTORY)
        assert smoother_calls == ["shortcut", "resample"]
        second_graph, _ = self._fly()
        served = second_graph.topic_bus.last_message(topics.TRAJECTORY)
        assert smoother_calls == ["shortcut", "resample"]
        assert PLAN_MEMO.stats() == {"hits": 1, "misses": 1}
        assert served.waypoints
        assert _fingerprint(served.waypoints) == _fingerprint(computed.waypoints)
        assert (served.planner_name, served.replan_index) == (
            computed.planner_name,
            computed.replan_index,
        )

    def test_recompute_is_served_from_the_memo(self, plan_calls, smoother_calls):
        graph, node = self._fly()
        published = self._waypoints(graph)
        assert node.recompute()
        assert len(plan_calls) == 1
        assert len(smoother_calls) == 2
        assert PLAN_MEMO.stats()["hits"] == 1
        assert self._waypoints(graph) == published
