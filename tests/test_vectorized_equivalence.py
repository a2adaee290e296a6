"""Vectorized-vs-scalar equivalence tests for the hot-path kernels.

The vectorized kernels (array-backed occupancy map, batched back-projection,
KD-tree collision checks) must behave exactly like their scalar references:
identical occupancy keys and log-odds and identical collision verdicts on
seeded workloads -- and, end to end, bit-identical mission records when the
OctoMap node is built on the scalar map instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scalar_ref import ScalarCollisionChecker, scalar_point_cloud
from repro.bench.workloads import build_workload
from repro.core.injector import FaultInjectorNode, FaultPlan
from repro.core.results import mission_result_to_dict
from repro.perception import occupancy
from repro.perception.collision_check import CollisionChecker
from repro.perception.occupancy import OccupancyMap, ScalarOccupancyMap
from repro.perception.point_cloud import PointCloudGenerator
from repro.pipeline.builder import PipelineConfig, build_pipeline
from repro.pipeline.runner import MissionRunner
from repro.sim.memo import memo_key


@pytest.fixture(scope="module")
def workload():
    """The (smoke-sized) bench workload shared by the equivalence tests."""
    return build_workload(smoke=True, seed=3)


class TestOccupancyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), resolution=st.floats(0.4, 2.5))
    def test_random_clouds_identical_store(self, seed, resolution):
        """Property: both backends agree on keys, log-odds and verdicts."""
        rng = np.random.default_rng(seed)
        vector = OccupancyMap(resolution=resolution)
        scalar = ScalarOccupancyMap(resolution=resolution)
        for _ in range(4):
            cloud = rng.uniform(-40.0, 60.0, size=(int(rng.integers(0, 400)), 3))
            cloud[rng.random(len(cloud)) < 0.05] = np.nan
            assert vector.insert_point_cloud(cloud) == scalar.insert_point_cloud(cloud)
        assert vector.all_keys() == scalar.all_keys()
        assert vector.occupied_keys() == scalar.occupied_keys()
        for key in vector.all_keys():
            assert vector.log_odds_at(key) == scalar.log_odds_at(key)
        queries = rng.uniform(-45.0, 65.0, size=(200, 3))
        assert np.array_equal(vector.query(queries), scalar.query(queries))
        np.testing.assert_array_equal(
            vector.occupied_centers(), scalar.occupied_centers()
        )

    def test_mission_scale_clouds_identical(self, workload):
        """The real camera-sweep clouds integrate identically."""
        vector, scalar = OccupancyMap(), ScalarOccupancyMap()
        for cloud in workload.clouds:
            assert vector.insert_point_cloud(cloud) == scalar.insert_point_cloud(cloud)
        assert vector.all_keys() == scalar.all_keys()
        assert vector._log_odds == scalar._log_odds

    def test_set_voxel_and_clamp_identical(self):
        vector, scalar = OccupancyMap(clamp=2.0), ScalarOccupancyMap(clamp=2.0)
        for backend in (vector, scalar):
            for _ in range(5):
                backend.insert_point_cloud(np.array([[1.0, 1.0, 1.0]]))
            backend.set_voxel((4, -2, 1), True)
            backend.set_voxel((1, 1, 1), False)
        assert vector._log_odds == scalar._log_odds
        assert vector.num_occupied == scalar.num_occupied

    def test_far_outside_points_clip_identically(self):
        """Corruption-scale coordinates land in the same clipped voxel."""
        cloud = np.array([[1e30, -1e30, 5.0], [2.0, 3.0, 1.0]])
        vector, scalar = OccupancyMap(), ScalarOccupancyMap()
        assert vector.insert_point_cloud(cloud) == scalar.insert_point_cloud(cloud)
        assert vector.all_keys() == scalar.all_keys()


class TestPointCloudEquivalence:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_back_projection_matches_per_pixel_loop(self, workload, stride):
        generator = PointCloudGenerator(stride=stride)
        for frame in workload.depth_frames:
            vector = np.asarray(generator.compute(frame).points)
            scalar = scalar_point_cloud(frame, stride=stride)
            assert vector.shape == scalar.shape
            np.testing.assert_allclose(vector, scalar, rtol=1e-12, atol=1e-12)

    def test_direction_cache_is_bit_identical_across_frames(self, workload):
        """The cached direction grid gives the same cloud as a fresh kernel."""
        cached = PointCloudGenerator()
        for frame in workload.depth_frames:
            first = cached.compute(frame).points
            fresh = PointCloudGenerator().compute(frame).points
            np.testing.assert_array_equal(first, fresh)


class TestCollisionEquivalence:
    def test_verdicts_match_brute_force(self, workload):
        vector, scalar = CollisionChecker(), ScalarCollisionChecker()
        vector.update_map(workload.occupied_centers, resolution=1.0)
        scalar.update_map(workload.occupied_centers, resolution=1.0)
        for pose in workload.query_poses:
            ttc_v = vector.time_to_collision(pose["position"], pose["velocity"])
            ttc_s = scalar.time_to_collision(pose["position"], pose["velocity"])
            assert ttc_v == pytest.approx(ttc_s, rel=1e-9)
            assert vector.trajectory_collides(
                pose["waypoints"], pose["position"]
            ) == scalar.trajectory_collides(pose["waypoints"], pose["position"])
            assert vector.distance_to_nearest(pose["position"]) == pytest.approx(
                scalar.distance_to_nearest(pose["position"]), rel=1e-9
            )

    def test_fingerprint_skips_rebuild_only_for_identical_maps(self, workload):
        checker = CollisionChecker()
        checker.update_map(workload.occupied_centers, resolution=1.0)
        assert "_tree" not in vars(checker)  # built on the first query
        tree_before = checker._tree
        checker.update_map(workload.occupied_centers.copy(), resolution=1.0)
        assert vars(checker)["_tree"] is tree_before  # unchanged content: no rebuild
        changed = workload.occupied_centers + 1.0
        checker.update_map(changed, resolution=1.0)
        assert "_tree" not in vars(checker)
        assert checker._tree is not tree_before
        np.testing.assert_array_equal(checker._tree.data, changed)
        # The fingerprint is the collision memo's map key.
        assert checker.map_key == memo_key(changed, 1.0)


def _fly(monkeypatch, scalar: bool, fault_plan=None):
    """One fixed-seed mission, its OctoMap node built on the selected map backend."""
    backend = ScalarOccupancyMap if scalar else OccupancyMap
    # OctoMapNode instantiates the module-level name, so this swaps the backend
    # of the map the mission flies and nothing else.
    monkeypatch.setattr(occupancy, "OccupancyMap", backend)
    handles = build_pipeline(
        PipelineConfig(environment="farm", seed=2, mission_time_limit=60.0)
    )
    assert type(handles.kernel("octomap_generation").map) is backend
    if fault_plan is not None:
        handles.graph.add_node(FaultInjectorNode(fault_plan, handles.kernels))
    return MissionRunner(handles).run(setting="equivalence", seed=2)


class TestCampaignEquivalence:
    def test_golden_mission_bit_identical_across_backends(self, monkeypatch):
        vector = _fly(monkeypatch, scalar=False)
        scalar = _fly(monkeypatch, scalar=True)
        assert mission_result_to_dict(vector) == mission_result_to_dict(scalar)

    def test_octomap_state_injection_bit_identical_across_backends(self, monkeypatch):
        """The fault path that enumerates map voxels picks the same victim."""
        plan = FaultPlan(
            target_type="kernel", target="octomap_generation",
            injection_time=6.0, bit=40, seed=9,
        )
        vector = _fly(monkeypatch, scalar=False, fault_plan=plan)
        scalar = _fly(monkeypatch, scalar=True, fault_plan=plan)
        assert mission_result_to_dict(vector) == mission_result_to_dict(scalar)
