"""Tests for the fault injector node, QoF metrics and campaign management."""

import math

import pytest

from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    RunSetting,
    runs_scale,
    scaled_count,
)
from repro.core.fault import BitField
from repro.core.injector import FaultInjectorNode, FaultPlan
from repro.core.qof import (
    QofMetrics,
    failure_recovery_rate,
    summarize_runs,
    worst_case_increase,
    worst_case_recovery,
)
from repro.core.results import distribution_stats, iqr_outlier_count, recovery_percentage
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


class TestQofMetrics:
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

    def test_all_failed_nan_policy(self):
        import math

        results = self._fake_results([40, 60], [False, False])
        summary = summarize_runs(results, on_no_success="nan")
        assert not summary.fell_back_to_failures
        assert math.isnan(summary.mean_flight_time)
        assert math.isnan(summary.worst_flight_time)
        assert math.isnan(summary.mean_energy)
        assert summary.num_runs == 2

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

    def test_invalid_no_success_policy_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([], on_no_success="explode")

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
        golden = summarize_runs(self._fake_results([10], [True]))
        assert failure_recovery_rate(golden, golden, golden) == 1.0

    def test_qof_metrics_from_result(self):
        result = self._fake_results([12.5], [True])[0]
        metrics = QofMetrics.from_result(result)
        assert metrics.flight_time == 12.5
        assert metrics.success


class TestResultsHelpers:
    def test_distribution_stats(self):
        stats = distribution_stats([1, 2, 3, 4, 5])
        assert stats.median == 3
        assert stats.minimum == 1
        assert stats.maximum == 5
        assert stats.count == 5

    def test_distribution_stats_empty(self):
        stats = distribution_stats([])
        assert stats.count == 0
        # NaN (not 0.0) statistics: an empty sample must not masquerade as a
        # sample of genuinely zero flight times.
        assert all(
            math.isnan(v)
            for v in (stats.minimum, stats.median, stats.maximum, stats.mean)
        )

    def test_recovery_percentage(self):
        assert recovery_percentage(10, 20, 12) == pytest.approx(0.8)
        assert recovery_percentage(10, 10, 10) == 1.0

    def test_iqr_outliers(self):
        values = [*[10.0] * 20, 100.0]
        assert iqr_outlier_count(values) == 1
        assert iqr_outlier_count([1, 2]) == 0


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

    def test_campaign_result_bookkeeping(self):
        result = CampaignResult(config=CampaignConfig())
        fake = type("R", (), {"flight_time": 10.0, "success": True, "mission_energy": 1.0})()
        result.add("golden", fake)
        result.extend("golden", [fake])
        assert len(result.results("golden")) == 2
        assert result.success_rate("golden") == 1.0
        assert result.flight_times("golden") == [10.0, 10.0]
        assert result.settings() == ["golden"]

    def test_golden_runs(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=2))
        runs = campaign.run_golden(2)
        assert len(runs) == 2
        assert all(r.setting == RunSetting.GOLDEN for r in runs)
        assert all(r.success for r in runs)

    def test_stage_injections_share_seed_pool(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(
            CampaignConfig(environment="farm", num_golden=2, num_injections_per_stage=1)
        )
        runs = campaign.run_stage_injections(RunSetting.INJECTION, count_per_stage=1)
        assert len(runs) == 3  # one per PPC stage
        assert {r.fault_target for r in runs} == {"perception", "planning", "control"}
        golden_seeds = {r.seed for r in campaign.run_golden(2)}
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
        by_kernel = campaign.run_kernel_injections(
            [("OctoMap", "octomap_generation", "rrt_star")], count_per_kernel=1
        )
        assert list(by_kernel) == ["OctoMap"]
        assert by_kernel["OctoMap"][0].setting == "kernel:OctoMap"

    def test_state_injections(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=1))
        by_state = campaign.run_state_injections(["command_vx"], count_per_state=1)
        assert by_state["command_vx"][0].fault_target == "command_vx"

    def test_dr_run_attaches_detector(self, monkeypatch, trained_gad):
        monkeypatch.setenv("MAVFI_RUNS", "1.0")
        campaign = Campaign(CampaignConfig(environment="farm", num_golden=1), gad=trained_gad)
        plan = campaign._fault_plan("stage", "planning", 0)
        record = campaign.run_one(
            seed=0, setting=RunSetting.DR_GAUSSIAN, fault_plan=plan, detector=trained_gad
        )
        assert record.detection_checked_samples > 0
