"""Tests for the fault injector node, QoF metrics and campaign management."""

import pytest

from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    RunSetting,
    runs_scale,
    scaled_count,
)
from repro.core.executor import DETECTOR_GAUSSIAN, RunSpec
from repro.core.fault import BitField
from repro.core.injector import FaultInjectorNode, FaultPlan
from repro.core.qof import (
    failure_recovery_rate,
    summarize_runs,
    worst_case_increase,
    worst_case_recovery,
)
from repro.pipeline.builder import PipelineConfig, build_pipeline


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(target_type="nowhere")
        with pytest.raises(ValueError):
            FaultPlan(injection_time=0.0)

    def test_defaults(self):
        plan = FaultPlan()
        assert plan.target_type == "kernel"
        assert plan.bit_field == BitField.ANY


class TestFaultInjectorNode:
    def test_kernel_injection_fires_at_scheduled_time(self):
        handles = build_pipeline(PipelineConfig(environment="farm", seed=0))
        plan = FaultPlan(
            target_type="kernel", target="octomap_generation", injection_time=2.0, bit=40, seed=1
        )
        injector = FaultInjectorNode(plan, handles.kernels)
        handles.graph.add_node(injector)
        handles.graph.start_all()
        handles.graph.spin_until(1.0)
        assert not injector.injected
        handles.graph.spin_until(2.5)
        assert injector.injected
        assert "octomap" in injector.description

    def test_stage_injection_picks_kernel_of_stage(self):
        handles = build_pipeline(PipelineConfig(environment="farm", seed=0))
        plan = FaultPlan(target_type="stage", target="perception", injection_time=1.0, seed=2)
        injector = FaultInjectorNode(plan, handles.kernels)
        handles.graph.add_node(injector)
        handles.graph.start_all()
        handles.graph.spin_until(1.5)
        assert injector.injected
        assert any(
            name in injector.description
            for name in ("point_cloud", "octomap", "collision_check")
        )

    def test_unknown_kernel_target_is_reported(self):
        handles = build_pipeline(PipelineConfig(environment="farm", seed=0))
        plan = FaultPlan(target_type="kernel", target="nonexistent", injection_time=1.0)
        injector = FaultInjectorNode(plan, handles.kernels)
        handles.graph.add_node(injector)
        handles.graph.start_all()
        handles.graph.spin_until(1.5)
        assert "no kernel" in injector.description

    def test_state_injection_corrupts_live_message(self):
        handles = build_pipeline(PipelineConfig(environment="farm", seed=0))
        plan = FaultPlan(
            target_type="state", target="command_vx", injection_time=2.0, bit=63, seed=3
        )
        injector = FaultInjectorNode(plan, handles.kernels)
        handles.graph.add_node(injector)
        handles.graph.start_all()
        handles.graph.spin_until(3.0)
        assert injector.injected
        assert "command_vx" in injector.description

    def test_state_injection_arms_tap_when_no_message_yet(self, graph):
        injector = FaultInjectorNode(
            FaultPlan(target_type="state", target="waypoint_x", injection_time=1.0, bit=63),
            {},
        )
        graph.add_node(injector)
        graph.start_all()
        description = injector.inject()
        assert "armed" in description

    def test_injection_happens_once(self):
        handles = build_pipeline(PipelineConfig(environment="farm", seed=0))
        plan = FaultPlan(target_type="kernel", target="pid_control", injection_time=1.0, seed=4)
        injector = FaultInjectorNode(plan, handles.kernels)
        handles.graph.add_node(injector)
        handles.graph.start_all()
        handles.graph.spin_until(5.0)
        first = injector.description
        injector._fire()
        assert injector.description == first


class TestQofSummary:
    def _fake_results(self, times, successes):
        results = []
        for time, success in zip(times, successes):
            results.append(
                type(
                    "R",
                    (),
                    {"flight_time": time, "success": success, "mission_energy": time * 100},
                )()
            )
        return results

    def test_summary_over_successful_runs(self):
        results = self._fake_results([10, 12, 50], [True, True, False])
        summary = summarize_runs(results)
        assert summary.num_runs == 3
        assert summary.num_success == 2
        assert summary.success_rate == pytest.approx(2 / 3)
        assert summary.worst_flight_time == 12
        assert summary.num_failures == 1

    def test_summary_all_runs(self):
        results = self._fake_results([10, 50], [True, False])
        summary = summarize_runs(results, successful_only=False)
        assert summary.worst_flight_time == 50

    def test_empty_summary(self):
        summary = summarize_runs([])
        assert summary.num_runs == 0
        assert summary.success_rate == 0.0
        assert not summary.fell_back_to_failures

    def test_all_failed_fallback_is_flagged(self):
        # Regression: with successful_only=True and zero successes the
        # statistics silently averaged *failed* runs; the summary must now
        # announce that fallback explicitly.
        results = self._fake_results([40, 60], [False, False])
        summary = summarize_runs(results)
        assert summary.num_success == 0
        assert summary.fell_back_to_failures
        assert summary.mean_flight_time == pytest.approx(50.0)

    def test_no_fallback_flag_when_successes_exist(self):
        results = self._fake_results([10, 50], [True, False])
        assert not summarize_runs(results).fell_back_to_failures
        # successful_only=False never falls back either: the failed runs are
        # included by request, not silently.
        all_runs = summarize_runs(
            self._fake_results([40, 60], [False, False]), successful_only=False
        )
        assert not all_runs.fell_back_to_failures
        assert all_runs.worst_flight_time == 60

    def test_worst_case_increase_and_recovery(self):
        golden = summarize_runs(self._fake_results([10, 11], [True, True]))
        faulty = summarize_runs(self._fake_results([10, 16], [True, True]))
        recovered = summarize_runs(self._fake_results([10, 12], [True, True]))
        assert worst_case_increase(golden, faulty) == pytest.approx(5 / 11)
        assert worst_case_recovery(golden, faulty, recovered) == pytest.approx(0.8)

    def test_failure_recovery_rate(self):
        golden = summarize_runs(self._fake_results([10] * 10, [True] * 10))
        faulty = summarize_runs(self._fake_results([10] * 10, [*[True] * 8, False, False]))
        recovered = summarize_runs(self._fake_results([10] * 10, [*[True] * 9, False]))
        assert failure_recovery_rate(golden, faulty, recovered) == pytest.approx(0.5)

    def test_failure_recovery_rate_no_induced_failures(self):
        # No induced failure (a zero or negative gap): 0/0 is no rate.
        golden = summarize_runs(self._fake_results([10], [True]))
        assert failure_recovery_rate(golden, golden, golden) is None
        worse_golden = summarize_runs(self._fake_results([10, 10], [True, False]))
        assert failure_recovery_rate(worse_golden, golden, golden) is None

    def test_worst_case_recovery_no_degradation(self):
        golden = summarize_runs(self._fake_results([10, 12], [True, True]))
        faster = summarize_runs(self._fake_results([10, 11], [True, True]))
        assert worst_case_recovery(golden, golden, faster) is None
        # A negative gap (faults flew a shorter worst case) is no degradation.
        assert worst_case_recovery(golden, faster, golden) is None


class TestCampaign:
    def test_runs_scale_env_var(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "2.0")
        assert runs_scale() == 2.0
        assert scaled_count(10) == 20
        monkeypatch.delenv("MAVFI_RUNS")
        assert runs_scale() == 1.0

    def test_runs_scale_rejects_invalid_values(self, monkeypatch):
        for bad in ("garbage", "-1", "-0.5", "nan", "inf", "-inf"):
            monkeypatch.setenv("MAVFI_RUNS", bad)
            with pytest.raises(ValueError):
                runs_scale()
        # Tiny positive values are floored, not rejected.
        monkeypatch.setenv("MAVFI_RUNS", "0")
        assert runs_scale() == 0.01
        monkeypatch.setenv("MAVFI_RUNS", "0.001")
        assert runs_scale() == 0.01

    def test_runs_scale_follows_the_environment(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "3.0")
        assert runs_scale() == 3.0
        assert runs_scale() == 3.0
        monkeypatch.setenv("MAVFI_RUNS", "4.0")
        assert runs_scale() == 4.0

    def test_golden_runs(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=2))
        runs = campaign.run_specs(campaign.golden_specs(2))
        assert len(runs) == 2
        assert all(r.setting == RunSetting.GOLDEN for r in runs)
        assert all(r.success for r in runs)

    def test_stage_injections_share_seed_pool(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(
            CampaignConfig(environment="farm", num_golden=2, num_injections_per_stage=1)
        )
        runs = campaign.run_specs(
            campaign.stage_injection_specs(RunSetting.INJECTION, count_per_stage=1)
        )
        assert len(runs) == 3  # one per PPC stage
        assert {r.fault_target for r in runs} == {"perception", "planning", "control"}
        golden_seeds = {r.seed for r in campaign.run_specs(campaign.golden_specs(2))}
        assert {r.seed for r in runs}.issubset(golden_seeds)

    def test_dr_golden_specs_are_fault_free_with_detector(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=3))
        specs = campaign.dr_golden_specs("gaussian")
        assert len(specs) == 3
        assert all(s.setting == RunSetting.DR_GOLDEN_GAUSSIAN for s in specs)
        assert all(s.fault_plan is None for s in specs)
        assert all(s.detector == "gaussian" for s in specs)
        # Same mission seed pool as the golden runs (paired comparison).
        golden_seeds = {s.seed for s in campaign.golden_specs()}
        assert {s.seed for s in specs} == golden_seeds
        aad = campaign.dr_golden_specs("autoencoder", count=2)
        assert len(aad) == 2
        assert all(s.setting == RunSetting.DR_GOLDEN_AUTOENCODER for s in aad)
        with pytest.raises(ValueError, match="detector tag"):
            campaign.dr_golden_specs("custom")

    def test_kernel_injections_grouped_by_label(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=1))
        [record] = campaign.run_specs(
            campaign.kernel_injection_specs(
                [("OctoMap", "octomap_generation", "rrt_star")], count_per_kernel=1
            )
        )
        assert record.setting == "kernel:OctoMap"
        assert record.fault_target == "octomap_generation"

    def test_state_injections(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=1))
        [record] = campaign.run_specs(
            campaign.state_injection_specs(["command_vx"], count_per_state=1)
        )
        assert record.setting == "state:command_vx"
        assert record.fault_target == "command_vx"

    def test_dr_run_attaches_detector(self, monkeypatch, trained_gad):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=1), gad=trained_gad)
        plan = campaign._fault_plan("stage", "planning", 0)
        spec = RunSpec(
            config=campaign.config,
            setting=RunSetting.DR_GAUSSIAN,
            seed=0,
            fault_plan=plan,
            detector=DETECTOR_GAUSSIAN,
        )
        [record] = campaign.run_specs([spec])
        assert record.detection_checked_samples > 0
