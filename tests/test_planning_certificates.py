"""Free-space certificates answer validity checks exactly as the kd-tree does.

Every tree node carries a radius, a lower bound on its distance to the
nearest occupied voxel centre; :meth:`PlanningProblem.extend_certified` and
:meth:`PlanningProblem.edges_certified` accept what the radii cover without a
query and send everything else to the exact checks.  These tests pin the
verdicts to :meth:`~PlanningProblem.extend_valid` and
:meth:`~PlanningProblem.edges_valid` on random maps and points (inside, on
and past the bounds, non-finite), probe the thresholds where a certificate
must hand over to the kd-tree, and check that the planners' block-drawn
sample stream has the bits of per-sample ``rng.uniform`` calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scalar_ref import scalar_plan
from repro.planning.rrt import (
    CERT_SLACK,
    PLANNER_CLASSES,
    PlanningProblem,
    _targets,
)

LO = (0.0, 0.0, 0.0)
HI = (12.0, 12.0, 12.0)
#: Rounding a returned radius may carry; CERT_SLACK covers it a thousandfold.
ROUNDING = 1e-9


class _CountingTree:
    """A kd-tree stand-in that counts the queries reaching it."""

    def __init__(self, tree):
        self.tree = tree
        self.queries = 0

    def query(self, points):
        self.queries += 1
        return self.tree.query(points)


def _axis_problem(occupied_centers=((14.5, 5.0, 5.0),)):
    """One voxel 4.5 m along +x from ``A``: exactly ``clearance + step`` (1.5 + 3.0)."""
    problem = PlanningProblem(
        start=np.array([1.0, 1.0, 1.0]),
        goal=np.array([11.0, 11.0, 11.0]),
        occupied_centers=np.array(occupied_centers, dtype=float),
        bounds_lo=(0.0, 0.0, 0.0),
        bounds_hi=(20.0, 10.0, 10.0),
        clearance=1.5,
        start_escape_radius=0.5,
    )
    if problem._tree is not None:
        problem._tree = _CountingTree(problem._tree)
    return problem


A = np.array([10.0, 5.0, 5.0])


class TestThresholds:
    def test_radius_is_the_kd_tree_distance(self):
        assert _axis_problem().radius(A) == 4.5

    def test_extension_ending_at_the_clearance_goes_to_the_kd_tree(self):
        problem = _axis_problem()
        b = np.array([13.0, 5.0, 5.0])  # exactly `clearance` from the voxel
        assert problem.extend_certified(A, b, 4.5) == (False, -math.inf)
        assert problem._tree.queries == 1
        assert not problem.extend_valid(A, b)

    def test_extension_short_of_the_clearance_is_certified(self):
        problem = _axis_problem()
        b = np.array([12.75, 5.0, 5.0])
        assert problem.extend_certified(A, b, 4.5) == (True, 4.5 - 2.75)
        assert problem._tree.queries == 0
        assert problem.extend_valid(A, b)

    def test_edge_ending_at_the_clearance_goes_to_the_kd_tree(self):
        problem = _axis_problem()
        b = np.array([[13.0, 5.0, 5.0]])
        assert problem.edges_certified(A, 4.5, b, np.array([1.5])).tolist() == [False]
        assert problem._tree.queries == 1
        assert problem.edges_valid(A, b).tolist() == [False]

    def test_edge_short_of_the_clearance_is_certified(self):
        problem = _axis_problem()
        b = np.array([[12.75, 5.0, 5.0]])
        assert problem.edges_certified(A, 4.5, b, np.array([1.75])).tolist() == [True]
        assert problem._tree.queries == 0

    def test_extension_past_the_bounds_is_rejected(self):
        # Far from the voxel, so only the bounds can reject it.
        problem = _axis_problem()
        a = np.array([5.0, 9.0, 5.0])
        b = np.array([5.0, 10.5, 5.0])
        assert problem.extend_certified(a, b, problem.radius(a)) == (False, -math.inf)
        assert not problem.extend_valid(a, b)

    def test_extension_within_slack_of_the_bounds_certifies_nothing(self):
        problem = _axis_problem()
        a = np.array([5.0, 9.0, 5.0])
        b = np.array([5.0, 10.0 - CERT_SLACK / 2, 5.0])
        assert problem.extend_certified(a, b, problem.radius(a)) == (True, -math.inf)
        assert problem.radius(b) == -math.inf

    @pytest.mark.parametrize(
        "point", [[np.nan, 5.0, 5.0], [5.0, np.inf, 5.0], [5.0, 5.0, -np.inf], [-1.0, 5.0, 5.0]]
    )
    def test_non_finite_or_outside_points_certify_nothing(self, point):
        assert _axis_problem().radius(np.array(point)) == -math.inf
        assert _axis_problem(occupied_centers=np.zeros((0, 3))).radius(np.array(point)) == -math.inf

    def test_empty_map_radius_is_infinite(self):
        assert _axis_problem(occupied_centers=np.zeros((0, 3))).radius(A) == math.inf


# ------------------------------------------------------------------ property
_near_bounds = [edge + k * CERT_SLACK / 2 for edge in (0.0, 12.0) for k in range(-3, 4)]
_coordinate = st.one_of(
    st.floats(-3.0, 15.0),
    st.sampled_from(_near_bounds),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_inside = st.floats(LO[0], HI[0])
_point = st.one_of(
    # Inside the bounds, where certificates can fire.
    st.tuples(_inside, _inside, _inside),
    st.tuples(_coordinate, _coordinate, _coordinate),
).map(np.array)
_offset = st.tuples(*[st.floats(-4.0, 4.0)] * 3).map(np.array)
_voxels = st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=8)
# A radius given to a certificate: exact (decay 0), decayed by some step, or
# none at all (``None``: ``-inf``).
_radius_kind = st.one_of(st.just(0.0), st.floats(0.0, 6.0), st.none())


@st.composite
def _problem(draw):
    voxels = draw(_voxels)
    return PlanningProblem(
        start=draw(_point),
        goal=np.array([6.0, 6.0, 6.0]),
        occupied_centers=np.array(voxels, dtype=float).reshape(-1, 3),
        bounds_lo=LO,
        bounds_hi=HI,
        clearance=draw(st.floats(0.5, 2.0)),
        start_escape_radius=draw(st.floats(0.0, 2.0)),
    )


@st.composite
def _end(draw, problem, a):
    """A point near ``a`` (certificates can fire), near a voxel (the check can fail) or anywhere."""
    kind = draw(st.sampled_from(["near-a", "near-voxel", "anywhere"]))
    if kind == "near-a":
        return a + draw(_offset)
    if kind == "near-voxel" and len(problem.occupied_centers):
        voxel = draw(st.sampled_from(list(problem.occupied_centers)))
        return voxel + draw(_offset) / 2
    return draw(_point)


def _given_radius(problem, point, decay):
    return -math.inf if decay is None else problem.radius(point) - decay


def _outcome(check, *args):
    """``check(*args)``, or the type of what it raised."""
    with np.errstate(invalid="ignore"):
        try:
            return check(*args)
        except (ValueError, OverflowError) as exc:
            return type(exc)


def _kd_distance(problem, point):
    if problem._tree is None:
        return math.inf
    return float(problem._tree.query(point)[0])


class TestCertifiedVerdicts:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_extension_verdicts_and_radii(self, data):
        problem = data.draw(_problem())
        a = data.draw(_point)
        b = data.draw(_end(problem, a))
        radius_a = _given_radius(problem, a, data.draw(_radius_kind))
        expected = _outcome(problem.extend_valid, a, b)
        got = _outcome(problem.extend_certified, a, b, radius_a)
        if isinstance(expected, type):
            assert got is expected
            return
        valid, radius_b = got
        assert valid == expected
        if radius_b > -math.inf:
            # Only a point inside the shrunk bounds may certify anything.
            assert problem.radius(b) > -math.inf
        if not valid:
            assert radius_b == -math.inf
        elif math.isfinite(radius_b):
            assert radius_b <= _kd_distance(problem, b) + ROUNDING
        else:
            assert radius_b <= problem.radius(b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_edge_verdicts(self, data):
        problem = data.draw(_problem())
        count = data.draw(st.integers(1, 5))
        a = np.array([data.draw(_point) for _ in range(count)])
        b = np.array([data.draw(_end(problem, point)) for point in a])
        radius_a = np.array(
            [_given_radius(problem, p, data.draw(_radius_kind)) for p in a]
        )
        radius_b = np.array(
            [_given_radius(problem, p, data.draw(_radius_kind)) for p in b]
        )
        expected = _outcome(problem.edges_valid, a, b)
        got = _outcome(problem.edges_certified, a, radius_a, b, radius_b)
        if isinstance(expected, type):
            assert got is expected
        else:
            assert got.tolist() == expected.tolist()
        # One shared endpoint, on either side.
        for args, exact in (
            ((a[0], radius_a[0], b, radius_b), (a[0], b)),
            ((a, radius_a, b[0], radius_b[0]), (a, b[0])),
        ):
            expected = _outcome(problem.edges_valid, *exact)
            got = _outcome(problem.edges_certified, *args)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert got.tolist() == expected.tolist()


# ------------------------------------------------------------- sample stream
class TestSampleStream:
    @pytest.mark.parametrize("goal_bias", [0.0, 0.15, 0.9])
    def test_targets_have_the_bits_of_per_sample_draws(self, goal_bias):
        problem = PlanningProblem(start=A, goal=np.array([40.0, 0.0, 2.0]))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            targets = _targets(seed, goal_bias, problem)
            # Enough targets to cross several block boundaries.
            for _ in range(400):
                if rng.uniform() < goal_bias:
                    expected = problem.goal
                else:
                    expected = rng.uniform(problem._lo, problem._hi)
                assert next(targets).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(PLANNER_CLASSES))
    @pytest.mark.parametrize(
        "bounds_hi",
        [(65.0, np.nan, 10.0), (65.0, np.inf, 10.0), (65.0, -40.0, 10.0), (65.0, -0.0, 10.0)],
    )
    def test_bad_bounds_raise_like_the_reference(self, name, bounds_hi):
        problem = PlanningProblem(
            start=np.array([0.0, -1.0, 2.0]),
            goal=np.array([40.0, -1.0, 2.0]),
            occupied_centers=np.array([[20.0, -1.0, 2.0]]),
            bounds_lo=(-5.0, 0.0, 0.5),
            bounds_hi=bounds_hi,
        )
        planner = PLANNER_CLASSES[name](seed=0, max_iterations=50)
        with np.errstate(invalid="ignore"):
            with pytest.raises((ValueError, OverflowError)) as expected:
                scalar_plan(planner, problem)
            with pytest.raises(type(expected.value)) as raised:
                planner.plan(problem)
        assert str(raised.value) == str(expected.value)
