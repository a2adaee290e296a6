"""The planners and the depth ray cast are bit-identical to their references.

``repro.bench.scalar_ref`` keeps the previous implementations (one kd-tree
query per validity check, a per-node ``np.vstack``, a ``(rays, boxes, 3)``
slab broadcast).  These tests replay the reference corpus -- every planning
query and ray cast of one golden mission per environment family, plus
hand-built corner cases -- through both and compare bytes.
"""

import numpy as np
import pytest

from repro.bench.scalar_ref import (
    scalar_edge_valid,
    scalar_plan,
    scalar_ray_cast,
    scalar_state_valid,
)
from repro.bench.workloads import CORPUS_ENVIRONMENTS, record_corpus
from repro.planning.rrt import PLANNER_CLASSES, PlanningProblem
from repro.planning.smoothing import PathSmoother


@pytest.fixture(scope="module")
def corpus():
    return record_corpus(missions=1)


def _path_bytes(path):
    return np.asarray(path, dtype=float).tobytes()


class _ReferenceEdges:
    """A planning problem whose edge checks are the reference's (for the smoother)."""

    def __init__(self, problem):
        self.problem = problem

    def edge_valid(self, a, b, step=0.5):
        return scalar_edge_valid(self.problem, a, b, step)


class TestCorpus:
    def test_every_environment_family_is_recorded(self, corpus):
        plan_sources = {case.source.split(":")[0] for case in corpus.plans}
        cast_sources = {case.source.split(":")[0] for case in corpus.ray_casts}
        assert plan_sources == set(CORPUS_ENVIRONMENTS)
        assert cast_sources == set(CORPUS_ENVIRONMENTS)

    def test_recording_restores_the_kernels(self, corpus):
        from repro.sim.world import World

        assert World.ray_cast.__qualname__ == "World.ray_cast"
        for cls in PLANNER_CLASSES.values():
            assert cls.plan.__qualname__ == f"{cls.__name__}.plan"


class TestRayCastEquivalence:
    def test_recorded_casts_are_byte_identical(self, corpus):
        for case in corpus.ray_casts:
            hits = case.world.ray_cast(case.origin, case.directions, case.max_range)
            expected = scalar_ray_cast(case.world, case.origin, case.directions, case.max_range)
            assert hits.tobytes() == expected.tobytes(), case.source

    def test_edge_cases_are_byte_identical(self, corpus):
        # Origins on faces, edges, corners and inside boxes, with direction
        # components of exactly +0.0 and -0.0: byte equality covers the signs
        # of zero hits too.
        for case in corpus.edge_ray_casts:
            hits = case.world.ray_cast(case.origin, case.directions, case.max_range)
            expected = scalar_ray_cast(case.world, case.origin, case.directions, case.max_range)
            assert hits.tobytes() == expected.tobytes(), case.source

    def test_edge_cases_hit_something(self, corpus):
        origins = {case.source for case in corpus.edge_ray_casts}
        assert {"edge:on-face", "edge:inside", "edge:on-shared-face"} <= origins
        for case in corpus.edge_ray_casts:
            hits = case.world.ray_cast(case.origin, case.directions, case.max_range)
            if case.source == "edge:inside":
                assert (hits == 0.0).any()
            if case.source != "edge:no-obstacles":
                assert np.isfinite(hits).any()


class TestPlannerEquivalence:
    @pytest.mark.parametrize("name", sorted(PLANNER_CLASSES))
    def test_recorded_plans_are_identical(self, corpus, name):
        smoother = PathSmoother()
        for case in corpus.plans + corpus.edge_plans:
            planner = case.planner(name)
            result = planner.plan(case.problem)
            expected = scalar_plan(planner, case.problem)
            assert (result.success, result.iterations, result.tree_size) == (
                expected.success, expected.iterations, expected.tree_size,
            ), case.source
            assert _path_bytes(result.path) == _path_bytes(expected.path), case.source
            if result.success:
                assert _path_bytes(smoother.shortcut(result.path, case.problem)) == _path_bytes(
                    smoother.shortcut(expected.path, _ReferenceEdges(case.problem))
                ), case.source

    def test_edge_cases_cover_success_and_failure(self, corpus):
        outcomes = {}
        for case in corpus.edge_plans:
            outcomes.setdefault(case.source, set()).add(case.planner().plan(case.problem).success)
        assert outcomes["edge:unreachable-goal"] == {False}
        assert outcomes["edge:empty-map"] == {True}
        assert outcomes["edge:start-inside-clearance"] == {True}

    def test_validity_queries_match_reference(self, corpus):
        rng = np.random.default_rng(0)
        problems = [case.problem for case in corpus.plans[:6] + corpus.edge_plans[::2]]
        for problem in problems:
            lo, hi = np.asarray(problem.bounds_lo), np.asarray(problem.bounds_hi)
            # Points spill past the bounds so both verdicts of the bounds test occur.
            points = rng.uniform(lo - 2.0, hi + 2.0, size=(40, 3))
            ends = points + rng.normal(0.0, 3.0, size=points.shape)
            for a, b in zip(points, ends):
                assert problem.state_valid(b) == scalar_state_valid(problem, b)
                expected = scalar_edge_valid(problem, a, b)
                assert problem.edge_valid(a, b) == expected
                assert problem.extend_valid(a, b) == (
                    scalar_state_valid(problem, b) and expected
                )
            batch = problem.edges_valid(points, ends)
            assert batch.tolist() == [scalar_edge_valid(problem, a, b) for a, b in zip(points, ends)]
            shared = problem.edges_valid(points[0], ends)
            assert shared.tolist() == [scalar_edge_valid(problem, points[0], b) for b in ends]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("occupied", [np.zeros((0, 3)), np.array([[10.0, 0.0, 2.0]])])
    def test_nan_point_raises_on_either_map(self, occupied):
        """Every validity check raises on a NaN point, with or without a kd-tree to query."""
        problem = PlanningProblem(
            start=[0.0, 0.0, 2.0], goal=[40.0, 0.0, 2.0], occupied_centers=occupied
        )
        nan, ok = np.array([np.nan, 0.0, 2.0]), np.array([1.0, 0.0, 2.0])
        checks = [
            lambda: problem.state_valid(nan),
            lambda: scalar_state_valid(problem, nan),
            lambda: problem.edge_valid(ok, nan),
            lambda: problem.extend_valid(ok, nan),
            lambda: problem.edges_valid(ok[None], nan[None]),
            lambda: problem.edges_valid(ok, np.array([ok, nan])),
        ]
        with np.errstate(invalid="ignore"):
            for check in checks:
                with pytest.raises(ValueError):
                    check()

    @pytest.mark.parametrize("name", sorted(PLANNER_CLASSES))
    @pytest.mark.parametrize(
        "start, goal",
        [
            ([np.nan, 0.0, 2.0], [40.0, 0.0, 2.0]),
            ([np.inf, 0.0, 2.0], [40.0, 0.0, 2.0]),
            ([0.0, 0.0, 2.0], [np.nan, 0.0, 2.0]),
        ],
    )
    @pytest.mark.parametrize("occupied", [np.zeros((0, 3)), np.array([[10.0, 0.0, 2.0]])])
    def test_raises_like_reference(self, name, start, goal, occupied):
        """A corrupted start or goal fails with the reference's error, not a new one."""
        problem = PlanningProblem(start=start, goal=goal, occupied_centers=occupied)
        planner = PLANNER_CLASSES[name](seed=0, max_iterations=50)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError) as expected:
                scalar_plan(planner, problem)
            with pytest.raises(ValueError) as raised:
                planner.plan(problem)
        assert str(raised.value) == str(expected.value)
