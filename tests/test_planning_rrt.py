"""Tests for the sampling-based motion planners (RRT, RRT-Connect, RRT*)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.planning.rrt import (
    PlanningProblem,
    RRTConnectPlanner,
    RRTPlanner,
    RRTStarPlanner,
    make_planner,
)


def _wall_problem(gap_y=8.0):
    """A wall at x=25 with a gap around y=gap_y (occupied voxel centres)."""
    centers = []
    for y in np.arange(-28.0, 28.0, 1.0):
        if abs(y - gap_y) < 4.0:
            continue
        for z in np.arange(0.5, 9.5, 1.0):
            centers.append([25.0, y, z])
    return PlanningProblem(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([50.0, 0.0, 2.0]),
        occupied_centers=np.array(centers),
        clearance=1.2,
    )


def _free_problem():
    return PlanningProblem(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([40.0, 0.0, 2.0]),
    )


class TestPlanningProblem:
    def test_state_valid_respects_bounds(self):
        problem = _free_problem()
        assert problem.state_valid(np.array([10.0, 0.0, 2.0]))
        assert not problem.state_valid(np.array([100.0, 0.0, 2.0]))

    def test_state_valid_respects_clearance(self):
        problem = _wall_problem()
        assert not problem.state_valid(np.array([25.0, 0.0, 2.0]))
        assert problem.state_valid(np.array([25.0, 8.0, 2.0]))

    def test_edge_valid_through_wall_rejected(self):
        problem = _wall_problem()
        assert not problem.edge_valid(np.array([20.0, 0.0, 2.0]), np.array([30.0, 0.0, 2.0]))
        assert problem.edge_valid(np.array([20.0, 8.0, 2.0]), np.array([30.0, 8.0, 2.0]))

    def test_edge_valid_free_space(self):
        problem = _free_problem()
        assert problem.edge_valid(np.array([0.0, 0, 2]), np.array([40.0, 0, 2]))


@pytest.mark.parametrize("planner_name", ["rrt", "rrt_connect", "rrt_star"])
class TestPlannersSucceed:
    def test_free_space(self, planner_name):
        planner = make_planner(planner_name, seed=1, max_iterations=400)
        result = planner.plan(_free_problem())
        assert result.success
        assert result.planner_name == planner_name
        assert len(result.path) >= 2

    def test_path_endpoints(self, planner_name):
        planner = make_planner(planner_name, seed=1, max_iterations=400)
        problem = _free_problem()
        result = planner.plan(problem)
        assert np.linalg.norm(result.path[0] - problem.start) < 1e-6
        assert np.linalg.norm(result.path[-1] - problem.goal) <= planner.goal_tolerance + planner.step_size

    def test_path_avoids_obstacles(self, planner_name):
        planner = make_planner(planner_name, seed=2, max_iterations=900)
        problem = _wall_problem()
        result = planner.plan(problem)
        assert result.success
        for a, b in zip(result.path[:-1], result.path[1:]):
            assert problem.edge_valid(a, b, step=0.5)

    def test_deterministic_given_seed(self, planner_name):
        problem = _wall_problem()
        r1 = make_planner(planner_name, seed=7, max_iterations=700).plan(problem)
        r2 = make_planner(planner_name, seed=7, max_iterations=700).plan(problem)
        assert r1.success == r2.success
        if r1.success:
            assert np.allclose(np.asarray(r1.path), np.asarray(r2.path))


class TestPlannerSpecifics:
    def test_unknown_planner_rejected(self):
        with pytest.raises(KeyError):
            make_planner("prm")

    def test_impossible_problem_fails_gracefully(self):
        # Goal completely enclosed by occupied voxels.
        centers = []
        for dx in np.arange(-3, 3.5, 1.0):
            for dy in np.arange(-3, 3.5, 1.0):
                for dz in np.arange(-3, 3.5, 1.0):
                    if max(abs(dx), abs(dy), abs(dz)) >= 2.0:
                        centers.append([40.0 + dx, dy, 3.0 + dz])
        problem = PlanningProblem(
            start=np.array([0.0, 0.0, 2.0]),
            goal=np.array([40.0, 0.0, 3.0]),
            occupied_centers=np.array(centers),
            clearance=1.0,
        )
        result = RRTPlanner(max_iterations=150, seed=0).plan(problem)
        assert not result.success
        assert result.path == []

    def test_rrt_star_path_not_longer_than_rrt(self):
        """RRT* refines towards shorter paths than plain RRT (same budget)."""
        problem = _wall_problem()
        rrt = make_planner("rrt", seed=3, max_iterations=800).plan(problem)
        rrt_star = make_planner("rrt_star", seed=3, max_iterations=800).plan(problem)
        if rrt.success and rrt_star.success:
            assert rrt_star.length <= rrt.length * 1.25

    def test_rrt_star_early_stop_after_goal(self):
        planner = RRTStarPlanner(max_iterations=2000, goal_extra_iterations=50, seed=1)
        result = planner.plan(_free_problem())
        assert result.success
        # ``iterations`` counts the iterations actually run: the refinement
        # budget after the first goal hit ended the search long before 2000.
        assert planner.goal_extra_iterations < result.iterations < 2000
        assert result.tree_size <= result.iterations + 1

    def test_rrt_star_reports_full_budget_when_goal_unreached(self):
        # The goal sits on an occupied voxel, so no state near it is valid.
        block = [[x, y, z] for x in (39.0, 40.0, 41.0) for y in (-1.0, 0.0, 1.0) for z in (1.0, 2.0, 3.0)]
        problem = PlanningProblem(
            start=np.array([0.0, 0.0, 2.0]),
            goal=np.array([40.0, 0.0, 2.0]),
            occupied_centers=np.array(block),
        )
        result = RRTStarPlanner(max_iterations=120, seed=0).plan(problem)
        assert not result.success
        assert result.iterations == 120

    def test_rrt_connect_uses_two_trees(self):
        planner = RRTConnectPlanner(seed=1, max_iterations=400)
        result = planner.plan(_free_problem())
        assert result.success
        assert result.tree_size >= 2

    def test_result_length_property(self):
        result = make_planner("rrt", seed=1).plan(_free_problem())
        assert result.length >= np.linalg.norm(np.array([40.0, 0, 0]) - 0) - 5.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_returned_path_is_always_collision_free(self, seed):
        """Property: any successful RRT* path has only valid edges."""
        problem = _wall_problem()
        result = RRTStarPlanner(seed=seed, max_iterations=500).plan(problem)
        if result.success:
            for a, b in zip(result.path[:-1], result.path[1:]):
                assert problem.edge_valid(a, b)
