"""Tests for the scenario subsystem: specs, registry, wind, degradation,
multi-waypoint missions and end-to-end campaign integration."""

from __future__ import annotations

import inspect
import pickle
import textwrap

import numpy as np
import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    execute_spec,
    materialize_scenario,
)
from repro.core.results import (
    JsonlResultStore,
    mission_result_from_dict,
    mission_result_to_dict,
    mission_results_equal,
)
from repro.pipeline.builder import PipelineConfig, build_pipeline
from repro.scenarios import (
    MissionPlan,
    Scenario,
    get_scenario,
    iter_scenarios,
    register_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.sim.degradation import SensorDegradation, SensorDegradationConfig
from repro.sim.sensors import CameraConfig, DepthCamera
from repro.sim.vehicle import QuadrotorDynamics, QuadrotorState
from repro.sim.wind import WindConfig, WindModel
from repro.sim.world import Cuboid, World

#: A fast scenario exercising every axis at once: wind + degraded sensors +
#: a survey waypoint, in the obstacle-light Farm so missions stay quick.
STRESS_SCENARIO = Scenario(
    name="test-windy-patrol",
    environment="farm",
    wind=WindConfig(mean=(0.8, 0.4, 0.0), gust_intensity=1.0),
    sensors=SensorDegradationConfig(
        depth_dropout=0.05, depth_quantization=0.25, imu_noise_scale=5.0
    ),
    mission=MissionPlan(waypoints=((20.0, 10.0, 2.0),)),
)


class TestRegistry:
    def test_presets_registered(self):
        names = scenario_names()
        assert len(names) >= 8
        for expected in ("calm-sparse", "gusty-dense", "foggy-factory", "patrol-farm"):
            assert expected in names

    def test_presets_cover_new_environment_families(self):
        environments = {s.environment for s in iter_scenarios()}
        assert "forest" in environments
        assert "urban_canyon" in environments

    def test_get_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_guarded(self):
        scenario = get_scenario("calm-sparse")
        with pytest.raises(ValueError):
            register_scenario(scenario)
        assert register_scenario(scenario, overwrite=True) is scenario

    def test_resolve_scenario(self):
        assert resolve_scenario(None) is None
        assert resolve_scenario("calm-sparse").name == "calm-sparse"
        assert resolve_scenario(STRESS_SCENARIO) is STRESS_SCENARIO

    def test_scenarios_pickle_unchanged(self):
        for scenario in [*iter_scenarios(), STRESS_SCENARIO]:
            assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_canonical_is_deterministic_and_content_sensitive(self):
        a = STRESS_SCENARIO.canonical()
        assert a == STRESS_SCENARIO.canonical()
        other = Scenario(
            name="test-windy-patrol",
            environment="farm",
            wind=WindConfig(mean=(0.8, 0.4, 0.0), gust_intensity=2.0),
        )
        assert other.canonical() != a


def _literal_block(doc: str, marker: str) -> str:
    """The indented literal block that follows ``marker`` in a docstring."""
    block = []
    for line in doc.split(marker, 1)[1].splitlines()[1:]:
        if line and not line.startswith("    "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


class TestDocumentedCustomScenario:
    def test_docstring_example_runs_and_generates_specs(self):
        # The Scenario docstring's example is the documented custom-scenario
        # flow; run it as written, then generate the campaign's specs.
        namespace: dict = {}
        exec(_literal_block(inspect.getdoc(Scenario), "is configured::"), namespace)
        custom = namespace["custom"]
        assert custom.wind.enabled and custom.wind.gust_intensity == 2.0

        campaign = Campaign(CampaignConfig(scenario=custom, num_golden=2))
        specs = campaign.evaluation_specs()
        assert specs and all(spec.effective_scenario() is custom for spec in specs)
        plain = Campaign(CampaignConfig(num_golden=2)).evaluation_specs()
        assert len(plain) == len(specs)
        assert {spec.key() for spec in specs}.isdisjoint(spec.key() for spec in plain)


class TestWindModel:
    def test_disabled_by_default(self):
        assert not WindConfig().enabled
        assert WindConfig(mean=(1.0, 0.0, 0.0)).enabled
        assert WindConfig(gust_intensity=0.5).enabled

    def test_constant_wind_without_gusts(self):
        model = WindModel(WindConfig(mean=(2.0, -1.0, 0.0)), seed=0)
        for _ in range(5):
            assert np.allclose(model.sample(0.05), [2.0, -1.0, 0.0])

    def test_gusts_deterministic_per_seed(self):
        config = WindConfig(gust_intensity=1.5)
        a = WindModel(config, seed=7)
        b = WindModel(config, seed=7)
        other = WindModel(config, seed=8)
        seq_a = np.array([a.sample(0.05) for _ in range(50)])
        seq_b = np.array([b.sample(0.05) for _ in range(50)])
        seq_c = np.array([other.sample(0.05) for _ in range(50)])
        assert np.array_equal(seq_a, seq_b)
        assert not np.array_equal(seq_a, seq_c)

    def test_gust_magnitude_tracks_intensity(self):
        model = WindModel(WindConfig(gust_intensity=1.0, gust_time_constant=0.5), seed=3)
        samples = np.array([model.sample(0.05) for _ in range(4000)])
        # Stationary per-axis std approaches the configured intensity
        # (vertical axis is scaled down).
        assert samples[:, 0].std() == pytest.approx(1.0, rel=0.15)
        assert samples[:, 2].std() < samples[:, 0].std()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            WindConfig(gust_intensity=-1.0)
        with pytest.raises(ValueError):
            WindConfig(gust_time_constant=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gust_time_constant", float("nan")),
            ("gust_time_constant", float("inf")),
            ("gust_intensity", float("nan")),
            ("gust_intensity", float("inf")),
            ("vertical_fraction", float("nan")),
            ("mean", (float("nan"), 0.0, 0.0)),
            ("mean", (0.0, float("inf"), 0.0)),
            ("mean", (0.0, 0.0, -float("inf"))),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        # Accepted, a NaN or inf would reach every physics step's
        # displacement, and a NaN intensity would turn the gusts off.
        with pytest.raises(ValueError, match="mean wind" if field == "mean" else field):
            WindConfig(**{field: value})

    def test_wind_drifts_the_vehicle(self):
        calm = QuadrotorDynamics()
        windy = QuadrotorDynamics(
            wind_model=WindModel(WindConfig(mean=(0.0, 2.0, 0.0)), seed=0)
        )
        for _ in range(40):
            calm.step(np.array([2.0, 0.0, 0.0]), 0.0, 0.05)
            windy.step(np.array([2.0, 0.0, 0.0]), 0.0, 0.05)
        assert calm.state.position[1] == pytest.approx(0.0)
        # 2 m/s crosswind for 2 s -> ~4 m of lateral drift.
        assert windy.state.position[1] == pytest.approx(4.0, abs=0.2)
        assert windy.state.position[0] == pytest.approx(calm.state.position[0])


class TestSensorDegradation:
    def _depth_image(self):
        world = World(name="deg")
        world.add_obstacle(Cuboid.from_center((8.0, 0.0, 3.0), (2.0, 30.0, 6.0)))
        camera = DepthCamera(world, CameraConfig(width=24, height=18, max_range=25.0))
        return camera.capture(QuadrotorState(position=np.array([0.0, 0.0, 2.0])))

    def test_disabled_by_default(self):
        assert not SensorDegradationConfig().enabled
        assert SensorDegradationConfig(depth_dropout=0.1).enabled
        assert SensorDegradationConfig(imu_noise_scale=2.0).enabled

    def test_dropout_fraction(self):
        config = SensorDegradationConfig(depth_dropout=0.3)
        layer = SensorDegradation(config, seed=0)
        msg = self._depth_image()
        finite_before = int(np.isfinite(msg.depth).sum())
        layer.degrade_depth(msg)
        finite_after = int(np.isfinite(msg.depth).sum())
        dropped = 1.0 - finite_after / finite_before
        assert dropped == pytest.approx(0.3, abs=0.1)

    def test_quantization_rounds_ranges(self):
        layer = SensorDegradation(SensorDegradationConfig(depth_quantization=0.5), seed=0)
        msg = layer.degrade_depth(self._depth_image())
        finite = msg.depth[np.isfinite(msg.depth)]
        assert np.allclose(finite % 0.5, 0.0, atol=1e-9)

    def test_fog_shortens_range(self):
        msg = self._depth_image()
        far_before = int((np.isfinite(msg.depth) & (msg.depth > 10.0)).sum())
        assert far_before > 0  # the ground plane provides far returns
        layer = SensorDegradation(SensorDegradationConfig(depth_range_scale=0.4), seed=0)
        layer.degrade_depth(msg)
        assert msg.max_range == pytest.approx(10.0)
        assert not np.any(np.isfinite(msg.depth) & (msg.depth > 10.0))

    def test_degradation_deterministic_per_seed(self):
        config = SensorDegradationConfig(depth_dropout=0.2)
        a = SensorDegradation(config, seed=5).degrade_depth(self._depth_image())
        b = SensorDegradation(config, seed=5).degrade_depth(self._depth_image())
        assert np.array_equal(a.depth, b.depth)

    def test_imu_and_odometry_configs_scaled(self):
        config = SensorDegradationConfig(
            imu_noise_scale=10.0,
            odometry_position_noise=0.2,
            odometry_velocity_noise=0.1,
        )
        layer = SensorDegradation(config, seed=0)
        imu = layer.imu_config()
        assert imu.accel_noise_std == pytest.approx(0.2)
        odom = layer.odometry_config()
        assert odom.position_noise_std == pytest.approx(0.2)
        assert odom.velocity_noise_std == pytest.approx(0.1)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SensorDegradationConfig(depth_dropout=1.5)
        with pytest.raises(ValueError):
            SensorDegradationConfig(depth_range_scale=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("odometry_position_noise", -0.1),
            ("odometry_position_noise", float("nan")),
            ("odometry_position_noise", float("inf")),
            ("odometry_velocity_noise", -0.1),
            ("odometry_velocity_noise", float("nan")),
            ("depth_quantization", float("nan")),
            ("depth_quantization", float("inf")),
            ("imu_noise_scale", float("nan")),
            ("imu_noise_scale", float("inf")),
        ],
    )
    def test_disabling_or_poisoning_values_rejected(self, field, value):
        # Accepted, a negative or NaN noise or a NaN quantization would read
        # as "disabled", and a NaN IMU scale would make every sample NaN.
        with pytest.raises(ValueError, match=field):
            SensorDegradationConfig(**{field: value})


class TestBuilderThreading:
    def test_scenario_overrides_environment(self):
        handles = build_pipeline(PipelineConfig(environment="dense", scenario="patrol-farm"))
        assert handles.world.name == "farm"
        assert handles.extras["scenario"].name == "patrol-farm"

    def test_scenario_name_resolves_from_registry(self):
        handles = build_pipeline(PipelineConfig(scenario="gusty-dense"))
        assert handles.airsim.vehicle.wind_model is not None
        assert handles.airsim.degradation is None

    def test_degradation_and_waypoints_threaded(self):
        handles = build_pipeline(PipelineConfig(scenario=STRESS_SCENARIO))
        assert handles.airsim.degradation is not None
        assert handles.airsim.vehicle.wind_model is not None
        # Both the simulator and the mission planner see the full route.
        assert len(handles.airsim.mission.route()) == 2
        planner = handles.kernels["mission_planner"]
        assert len(planner.route) == 2
        assert np.allclose(planner.route[0], [20.0, 10.0, 2.0])

    def test_overridden_endpoints_nudged_out_of_obstacles(self):
        from repro.sim.environments import make_environment

        world = make_environment("dense", seed=0)
        blocked = world.obstacles[0].center.copy()
        blocked[2] = 2.0
        scenario = Scenario(
            name="test-blocked-goal",
            environment="dense",
            mission=MissionPlan(goal=tuple(float(v) for v in blocked)),
        )
        handles = build_pipeline(
            PipelineConfig(scenario=scenario, start_jitter_std=0.0)
        )
        goal = np.asarray(handles.airsim.mission.goal, dtype=float)
        assert handles.world.distance_to_nearest(goal) >= 2.0

    def test_no_scenario_leaves_pipeline_untouched(self):
        handles = build_pipeline(PipelineConfig(environment="farm"))
        assert handles.airsim.vehicle.wind_model is None
        assert handles.airsim.degradation is None
        assert "scenario" not in handles.extras
        assert len(handles.kernels["mission_planner"].route) == 1


def _campaign(scenario=None, num_golden=3) -> Campaign:
    return Campaign(
        CampaignConfig(
            environment="farm",
            scenario=scenario,
            num_golden=num_golden,
            num_injections_per_stage=1,
            mission_time_limit=60.0,
        )
    )


class TestSpecIntegration:
    def test_spec_key_depends_on_scenario(self):
        campaign = _campaign()
        base = RunSpec(config=campaign.config, setting="golden", seed=0)
        scenario_spec = RunSpec(
            config=campaign.config, setting="golden", seed=0, scenario="calm-sparse"
        )
        assert base.key() != scenario_spec.key()
        # A campaign-wide scenario and a per-spec scenario describe the same
        # mission, so they share a key (and therefore resume records).
        via_config = RunSpec(
            config=_campaign(scenario="calm-sparse").config, setting="golden", seed=0
        )
        assert via_config.key() == scenario_spec.key()

    def test_materialize_scenario_pins_names_to_objects(self):
        # Scenario names resolve through the process-local registry; specs
        # shipped to spawned workers must carry the resolved object instead
        # (a custom registration would be unknown in the worker process).
        campaign = _campaign(scenario="patrol-farm")
        by_name = RunSpec(config=campaign.config, setting="golden", seed=0)
        pinned = materialize_scenario(by_name)
        assert isinstance(pinned.scenario, Scenario)
        assert pinned.scenario.name == "patrol-farm"
        assert pinned.key() == by_name.key()
        # Specs already carrying the object pass through untouched.
        direct = RunSpec(
            config=_campaign().config, setting="golden", seed=0, scenario=STRESS_SCENARIO
        )
        assert materialize_scenario(direct) is direct
        assert materialize_scenario(RunSpec(config=_campaign().config, setting="golden", seed=0)).scenario is None

    def test_mission_result_records_scenario(self):
        campaign = _campaign(scenario="patrol-farm", num_golden=1)
        result = execute_spec(campaign.golden_specs()[0])
        assert result.scenario == "patrol-farm"

    def test_scenario_jsonl_round_trip(self, tmp_path):
        campaign = _campaign(scenario=STRESS_SCENARIO, num_golden=1)
        result = execute_spec(campaign.golden_specs()[0])
        assert result.scenario == "test-windy-patrol"
        data = mission_result_to_dict(result)
        assert data["scenario"] == "test-windy-patrol"
        assert mission_results_equal(result, mission_result_from_dict(data))
        store = JsonlResultStore(tmp_path / "scenario.jsonl")
        store.append("k", result)
        loaded = store.load_results()["k"]
        assert loaded.scenario == "test-windy-patrol"
        assert mission_results_equal(result, loaded)

    def test_legacy_records_without_scenario_field_load(self):
        campaign = _campaign(num_golden=1)
        result = execute_spec(campaign.golden_specs()[0])
        data = mission_result_to_dict(result)
        del data["scenario"]
        assert mission_result_from_dict(data).scenario == ""

    def test_scenario_sweep_groups_by_name(self):
        campaign = _campaign(num_golden=1)
        by_scenario = campaign.run_scenario_sweep(["patrol-farm", "blind-farm"])
        assert sorted(by_scenario) == ["blind-farm", "patrol-farm"]
        for name, records in by_scenario.items():
            assert all(r.scenario == name for r in records)

    def test_full_evaluation_accepts_scenarios(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "0.01")
        campaign = _campaign(num_golden=1)
        outcome = campaign.full_evaluation(scenarios=["patrol-farm"])
        assert "scenario:patrol-farm" in outcome.settings()

    def test_serial_and_parallel_bit_identical_under_stress_scenario(self):
        campaign = _campaign(scenario=STRESS_SCENARIO, num_golden=3)
        specs = campaign.golden_specs()
        serial = SerialExecutor().map(specs)
        parallel = ParallelExecutor(workers=2).map(specs)
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            assert mission_results_equal(a, b)
        assert all(r.scenario == "test-windy-patrol" for r in serial)

    def test_scenario_sweep_resumes_from_store(self, tmp_path):
        campaign = _campaign(num_golden=1)
        store = JsonlResultStore(tmp_path / "sweep.jsonl")
        first = campaign.run_scenario_sweep(["patrol-farm"], store=store)
        recorded = len(store)
        again = campaign.run_scenario_sweep(["patrol-farm"], store=store)
        assert len(store) == recorded  # nothing re-flown
        assert mission_results_equal(
            first["patrol-farm"][0], again["patrol-farm"][0]
        )
