"""Tests for the streaming paper-report engine and the detection metrics.

Covers the ISSUE-5 acceptance criteria: shard-order-invariant byte-identical
``report.json``, JSONL round-trip of the first-alarm fields (including
pre-format-bump records), detection-metrics sanity on a smoke campaign with
known injections (golden runs contribute FPR only, injected runs TPR), and
the ``repro-report-v1`` validator.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.detection_metrics import (
    detection_accuracy,
    detector_label,
    format_detection_accuracy_table,
)
from repro.analysis.report import (
    REPORT_SCHEMA,
    GroupAggregate,
    GroupKey,
    StreamingAggregator,
    build_report,
    render_report,
    validate_report,
    write_report,
)
from repro.cli import main
from repro.core.qof import bootstrap_ci, qof_pool_confidence_intervals, summarize_runs
from repro.core.results import (
    JsonlResultStore,
    mission_result_from_dict,
    mission_result_to_dict,
)
from repro.pipeline.runner import MissionResult
from repro.sim.airsim import FlightOutcome


# --------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    """A smoke campaign with known injections streamed to one JSONL shard.

    Golden + unprotected injections + D&R(Gaussian/Autoencoder) injections +
    the detector-on-golden false-positive settings, all in the farm
    environment with a 1-environment detector training run (cached).
    """
    tmp = tmp_path_factory.mktemp("report-campaign")
    out = tmp / "results.jsonl"
    rc = main(
        [
            "campaign",
            "--env",
            "farm",
            "--settings",
            "golden,injection,dr_gaussian,dr_autoencoder,"
            "dr_golden_gaussian,dr_golden_autoencoder",
            "--golden",
            "3",
            "--per-stage",
            "2",
            "--time-limit",
            "60",
            "--training-envs",
            "1",
            "--cache-dir",
            str(tmp / "cache"),
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert rc == 0
    return out


def _fake_result(
    setting="dr_gaussian",
    success=True,
    alarms=0,
    checked=100,
    alarms_by_stage=None,
    fault_target="",
    injection_time=None,
    first_alarm_time=None,
    flight_time=12.0,
):
    """A minimal synthetic MissionResult for detection-metric unit tests."""
    return MissionResult(
        success=success,
        flight_time=flight_time,
        mission_energy=1000.0,
        flight_energy=900.0,
        compute_energy=100.0,
        distance_travelled=30.0,
        outcome=FlightOutcome(success=success, flight_time=flight_time),
        environment="farm",
        platform="i9",
        planner="rrt_star",
        setting=setting,
        detection_alarms=alarms,
        detection_alarms_by_stage=alarms_by_stage or {},
        detection_checked_samples=checked,
        first_alarm_time=first_alarm_time,
        injection_time=injection_time,
        fault_target=fault_target,
    )


def _k1_line(flight_time):
    """One JSONL record line for spec key ``k1`` with the given flight time."""
    record = {
        "key": "k1",
        "meta": {},
        "result": mission_result_to_dict(_fake_result(flight_time=flight_time)),
    }
    return json.dumps(record) + "\n"


# ------------------------------------------------------- first-alarm fields
class TestFirstAlarmRoundTrip:
    def test_round_trip_exact(self):
        result = _fake_result(
            alarms=3,
            alarms_by_stage={"planning": 2, "control": 1},
            fault_target="planning",
            injection_time=4.25,
            first_alarm_time=4.75,
        )
        result.first_alarm_time_by_stage = {"planning": 4.75, "control": 5.0}
        data = json.loads(json.dumps(mission_result_to_dict(result)))
        restored = mission_result_from_dict(data)
        assert restored.first_alarm_time == 4.75
        assert restored.first_alarm_time_by_stage == {"planning": 4.75, "control": 5.0}
        assert restored.injection_time == 4.25
        assert mission_result_to_dict(restored) == mission_result_to_dict(result)

    def test_none_round_trips_as_null(self):
        result = _fake_result()
        text = json.dumps(mission_result_to_dict(result))
        assert "NaN" not in text and "Infinity" not in text
        restored = mission_result_from_dict(json.loads(text))
        assert restored.first_alarm_time is None
        assert restored.injection_time is None

    def test_pre_bump_record_loads_with_defaults(self):
        """Version-1 records (no format marker, no timing fields) still load."""
        data = mission_result_to_dict(_fake_result(alarms=2))
        for legacy_missing in (
            "format",
            "first_alarm_time",
            "first_alarm_time_by_stage",
            "injection_time",
        ):
            del data[legacy_missing]
        restored = mission_result_from_dict(data)
        assert restored.detection_alarms == 2
        assert restored.first_alarm_time is None
        assert restored.first_alarm_time_by_stage == {}
        assert restored.injection_time is None

    def test_store_round_trip_from_campaign(self, campaign_store):
        results = JsonlResultStore(campaign_store).load_results()
        injected = [
            r
            for r in results.values()
            if r.fault_target and detector_label(r.setting) is not None
        ]
        assert injected, "campaign must contain detector-attached injections"
        # Every injected run carries its fault activation time.
        assert all(r.injection_time is not None for r in injected)
        # At least one injection raised an alarm whose time round-tripped.
        alarmed = [r for r in injected if r.detection_alarms > 0]
        assert alarmed
        for r in alarmed:
            assert r.first_alarm_time is not None
            assert r.first_alarm_time_by_stage
            assert min(r.first_alarm_time_by_stage.values()) == r.first_alarm_time
        # Fault-free runs have no injection time.
        for r in results.values():
            if not r.fault_target:
                assert r.injection_time is None


# ------------------------------------------------------- detection metrics
class TestDetectionMetrics:
    def test_golden_runs_contribute_fpr_only(self):
        golden = [_fake_result(setting="dr_golden_gaussian", alarms=0)] * 3
        noisy_golden = _fake_result(setting="dr_golden_gaussian", alarms=5)
        injected = [
            _fake_result(
                fault_target="planning",
                alarms=1,
                alarms_by_stage={"planning": 1},
                injection_time=4.0,
                first_alarm_time=4.5,
            ),
            _fake_result(fault_target="planning", injection_time=4.0),
        ]
        acc = detection_accuracy([*golden, noisy_golden], injected, "gaussian")
        assert acc.golden_runs == 4
        assert acc.injected_runs == 2
        assert acc.run_fpr == pytest.approx(0.25)
        assert acc.sample_fpr == pytest.approx(5 / 400)
        assert acc.tpr == pytest.approx(0.5)
        assert acc.precision == pytest.approx(0.5)
        assert acc.mean_time_to_detect == pytest.approx(0.5)
        stage = acc.per_stage["planning"]
        assert stage.injected_runs == 2
        assert stage.detected_runs == 1
        assert stage.localized_runs == 1

    def test_clean_detector_reports_zero_fpr(self):
        acc = detection_accuracy(
            [_fake_result(setting="dr_golden_gaussian")] * 5, [], "gaussian"
        )
        assert acc.run_fpr == 0.0
        assert acc.sample_fpr == 0.0
        assert math.isnan(acc.tpr)

    def test_pre_injection_alarm_is_not_a_detection(self):
        """An alarm that fired before the fault is spurious: it must inflate
        neither the TPR nor the latency statistics."""
        result = _fake_result(
            fault_target="control",
            alarms=1,
            alarms_by_stage={"control": 1},
            injection_time=6.0,
            first_alarm_time=2.0,  # false alarm fired before the fault
        )
        result.first_alarm_time_by_stage = {"control": 2.0}
        acc = detection_accuracy([], [result], "gaussian")
        assert acc.tpr == 0.0
        assert acc.per_stage["control"].localized_runs == 0
        assert math.isnan(acc.mean_time_to_detect)

    def test_late_stage_alarm_still_detects_after_early_false_alarm(self):
        """A pre-injection false alarm followed by a genuine post-injection
        alarm in another stage counts as detected, with the post-injection
        latency."""
        result = _fake_result(
            fault_target="planning",
            alarms=3,
            alarms_by_stage={"control": 1, "planning": 2},
            injection_time=6.0,
            first_alarm_time=2.0,
        )
        result.first_alarm_time_by_stage = {"control": 2.0, "planning": 7.5}
        acc = detection_accuracy([], [result], "gaussian")
        assert acc.tpr == pytest.approx(1.0)
        assert acc.per_stage["planning"].localized_runs == 1
        assert acc.mean_time_to_detect == pytest.approx(1.5)

    def test_detector_label_mapping(self):
        assert detector_label("dr_gaussian") == "gaussian"
        assert detector_label("dr_golden_gaussian") == "gaussian"
        assert detector_label("dr_autoencoder") == "autoencoder"
        assert detector_label("dr_golden_autoencoder") == "autoencoder"
        assert detector_label("golden") is None
        assert detector_label("injection") is None

    def test_table_renders_nan_as_dash(self):
        acc = detection_accuracy([], [], "gaussian")
        text = format_detection_accuracy_table([acc])
        assert "gaussian" in text
        assert "-" in text

    def test_campaign_detection_sanity(self, campaign_store):
        """On the smoke campaign: FPR comes from golden rows, TPR from injections."""
        report = build_report([campaign_store])
        rows = {row["detector"]: row for row in report["detection_accuracy"]}
        assert set(rows) == {"gaussian", "autoencoder"}
        for row in rows.values():
            # dr_golden_* contributed the golden pool, injections the rest.
            assert row["golden_runs"] == 3
            assert row["injected_runs"] == 6
            assert row["golden_checked_samples"] > 0
        # The Gaussian detector catches every planted fault in this campaign.
        assert rows["gaussian"]["tpr"] > 0.0
        # FPR=0 rows are representable (the autoencoder is quiet on golden).
        assert rows["autoencoder"]["run_fpr"] == 0.0


# ------------------------------------------------------------ report engine
class TestStreamingAggregator:
    def test_identical_duplicates_counted_once(self, tmp_path, campaign_store):
        lines = campaign_store.read_text().splitlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("\n".join(lines + lines) + "\n")
        aggregator = StreamingAggregator([doubled])
        assert aggregator.total_records == 2 * len(lines)
        assert aggregator.unique_missions == len(lines)
        assert aggregator.duplicates_dropped == len(lines)

    def test_last_write_wins_within_shard(self, tmp_path):
        record = {
            "key": "k1",
            "meta": {},
            "result": mission_result_to_dict(_fake_result(flight_time=10.0)),
        }
        newer = json.loads(json.dumps(record))
        newer["result"]["flight_time"] = 99.0
        shard = tmp_path / "shard.jsonl"
        shard.write_text(json.dumps(record) + "\n" + json.dumps(newer) + "\n")
        aggregator = StreamingAggregator([shard])
        (group,) = aggregator.groups.values()
        assert group.all_flight_times == [99.0]

    def test_superseded_record_loses_to_its_correction(self, tmp_path):
        """A record a shard proves outdated (followed by a correction for the
        same key) must lose the election even when an older backup shard
        still carries it as its last record -- regardless of which record's
        digest is larger, so the tie-break alone cannot resurrect it."""
        import hashlib

        def digest(record):
            return hashlib.sha1(
                json.dumps(record, sort_keys=True).encode("utf-8")
            ).hexdigest()

        stale = {
            "key": "k1",
            "meta": {},
            "result": mission_result_to_dict(_fake_result(flight_time=10.0)),
        }
        # One correction whose digest sorts below the stale record's and one
        # above: the supersession rule must win in both regimes.
        fresh_variants = {}
        for flight_time in range(90, 200):
            fresh = json.loads(json.dumps(stale))
            fresh["result"]["flight_time"] = float(flight_time)
            fresh_variants[digest(fresh) > digest(stale)] = fresh
            if len(fresh_variants) == 2:
                break
        assert len(fresh_variants) == 2
        for fresh in fresh_variants.values():
            current = tmp_path / "current.jsonl"
            backup = tmp_path / "backup.jsonl"
            current.write_text(json.dumps(stale) + "\n" + json.dumps(fresh) + "\n")
            backup.write_text(json.dumps(stale) + "\n")
            for shards in ([current, backup], [backup, current]):
                aggregator = StreamingAggregator(shards)
                (group,) = aggregator.groups.values()
                assert group.all_flight_times == [fresh["result"]["flight_time"]]
                assert aggregator.unique_missions == 1

    def test_cross_shard_conflict_resolves_order_invariantly(self, tmp_path):
        base = {
            "key": "k1",
            "meta": {},
            "result": mission_result_to_dict(_fake_result(flight_time=10.0)),
        }
        other = json.loads(json.dumps(base))
        other["result"]["flight_time"] = 42.0
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(json.dumps(base) + "\n")
        b.write_text(json.dumps(other) + "\n")
        first = StreamingAggregator([a, b])
        second = StreamingAggregator([b, a])
        (group1,) = first.groups.values()
        (group2,) = second.groups.values()
        assert group1.all_flight_times == group2.all_flight_times
        assert first.unique_missions == second.unique_missions == 1

    def test_conflicting_keys_count_only_differing_winners(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(_k1_line(10.0))
        b.write_text(_k1_line(42.0))
        assert StreamingAggregator([a, b]).conflicting_keys == 1
        # Identical copies in two shards are duplicates, not a conflict.
        b.write_text(_k1_line(10.0))
        assert StreamingAggregator([a, b]).conflicting_keys == 0
        # A shard overriding its own record supersedes it: no conflict.
        a.write_text(_k1_line(10.0) + _k1_line(42.0))
        assert StreamingAggregator([a]).conflicting_keys == 0

    def test_torn_tail_skipped(self, tmp_path, campaign_store):
        torn = tmp_path / "torn.jsonl"
        torn.write_text(campaign_store.read_text() + '{"key": "torn-li')
        intact = len(campaign_store.read_text().splitlines())
        aggregator = StreamingAggregator([torn])
        assert aggregator.total_records == intact


class TestReportDeterminism:
    def test_shard_order_yields_byte_identical_json(self, tmp_path, campaign_store):
        lines = campaign_store.read_text().splitlines()
        cut = len(lines) * 2 // 3
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        # Overlapping shards, as produced by two resumed campaign passes.
        a.write_text("\n".join(lines[:cut]) + "\n")
        b.write_text("\n".join(lines[cut // 2 :]) + "\n")
        out_ab = tmp_path / "ab.json"
        out_ba = tmp_path / "ba.json"
        write_report(build_report([a, b]), out_ab)
        write_report(build_report([b, a]), out_ba)
        assert out_ab.read_bytes() == out_ba.read_bytes()
        # And the merged shards reproduce the unsharded campaign's groups.
        whole = build_report([campaign_store])
        merged = json.loads(out_ab.read_text())
        assert merged["groups"] == whole["groups"]
        assert merged["detection_accuracy"] == whole["detection_accuracy"]
        assert merged["recovery"] == whole["recovery"]

    def test_same_store_twice_is_stable(self, campaign_store):
        first = build_report([campaign_store])
        second = build_report([campaign_store])
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestReportContent:
    def test_report_validates_and_renders(self, campaign_store):
        report = build_report([campaign_store], title="smoke")
        validate_report(report)
        assert report["schema"] == REPORT_SCHEMA
        settings = {group["setting"] for group in report["groups"]}
        assert {"golden", "injection", "dr_gaussian", "dr_autoencoder"} <= settings
        text = render_report(report)
        for banner in (
            "Table I",
            "Table II",
            "Fig. 6",
            "Fig. 7",
            "Detection accuracy",
            "Recovery summary",
        ):
            assert banner in text
        # The recovery summary pairs golden/injection/D&R cells.
        assert {row["setting"] for row in report["recovery"]} == {
            "dr_gaussian",
            "dr_autoencoder",
        }

    def test_confidence_intervals_bracket_value(self, campaign_store):
        report = build_report([campaign_store])
        for group in report["groups"]:
            ci = group["confidence"]["mean_flight_time"]
            if ci["lower"] is None:
                continue
            assert ci["lower"] <= ci["value"] <= ci["upper"]
            assert ci["samples"] == group["qof"]["num_success"]

    def test_strict_json_output(self, tmp_path, campaign_store):
        out = tmp_path / "report.json"
        write_report(build_report([campaign_store]), out)
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        json.loads(text)


class TestReportValidator:
    def _valid(self, campaign_store):
        return build_report([campaign_store])

    def test_rejects_wrong_schema(self, campaign_store):
        report = self._valid(campaign_store)
        report["schema"] = "repro-report-v0"
        with pytest.raises(ValueError, match="schema"):
            validate_report(report)

    def test_rejects_inconsistent_record_accounting(self, campaign_store):
        report = self._valid(campaign_store)
        report["records"]["total"] += 1
        with pytest.raises(ValueError, match="records.total"):
            validate_report(report)

    def test_rejects_nan_statistics(self, campaign_store):
        report = self._valid(campaign_store)
        report["groups"][0]["qof"]["mean_flight_time"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            validate_report(report)

    def test_rejects_unsorted_shards(self, campaign_store):
        report = self._valid(campaign_store)
        report["shards"] = ["b.jsonl", "a.jsonl"]
        with pytest.raises(ValueError, match="sorted"):
            validate_report(report)

    def test_rejects_out_of_range_success_rate(self, campaign_store):
        report = self._valid(campaign_store)
        report["groups"][0]["qof"]["success_rate"] = 1.5
        with pytest.raises(ValueError, match="success_rate"):
            validate_report(report)

    # Regressions for fields the validator historically never looked at
    # (found by the RL011 schema-drift checker): each emitted section must
    # now be rejected when it goes missing or malformed.

    def test_rejects_missing_bootstrap_settings(self, campaign_store):
        report = self._valid(campaign_store)
        report.pop("bootstrap")
        with pytest.raises(ValueError, match="bootstrap"):
            validate_report(report)

    def test_rejects_out_of_range_bootstrap_confidence(self, campaign_store):
        report = self._valid(campaign_store)
        report["bootstrap"]["confidence"] = 1.0
        with pytest.raises(ValueError, match="bootstrap.confidence"):
            validate_report(report)

    def test_rejects_missing_num_injected(self, campaign_store):
        report = self._valid(campaign_store)
        report["groups"][0]["qof"].pop("num_injected")
        with pytest.raises(ValueError, match="num_injected"):
            validate_report(report)

    def test_rejects_non_boolean_fallback_marker(self, campaign_store):
        report = self._valid(campaign_store)
        report["groups"][0]["qof"]["fell_back_to_failures"] = "no"
        with pytest.raises(ValueError, match="fell_back_to_failures"):
            validate_report(report)

    def test_rejects_missing_trajectory_section(self, campaign_store):
        report = self._valid(campaign_store)
        report["groups"][0].pop("trajectory")
        with pytest.raises(ValueError, match="trajectory"):
            validate_report(report)

    def test_rejects_negative_trajectory_counter(self, campaign_store):
        report = self._valid(campaign_store)
        report["groups"][0]["trajectory"]["replans_total"] = -1
        with pytest.raises(ValueError, match="replans_total"):
            validate_report(report)

    def test_rejects_missing_accuracy_sample_counter(self, campaign_store):
        report = self._valid(campaign_store)
        if not report["detection_accuracy"]:
            pytest.skip("fixture store produced no detection rows")
        report["detection_accuracy"][0].pop("golden_checked_samples")
        with pytest.raises(ValueError, match="golden_checked_samples"):
            validate_report(report)

    def test_message_names_the_path_not_the_document(self, campaign_store):
        report = self._valid(campaign_store)
        report["groups"][0]["qof"] = [report["groups"][0]["qof"]]
        with pytest.raises(ValueError) as caught:
            validate_report(report)
        assert str(caught.value) == (
            "invalid repro-report-v1 report: groups[0].qof must be an object, got list"
        )

    # Holes the hand-written validator left open: missing keys, wrong types,
    # unknown keys and bools standing in for numbers.

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda r: r["groups"][0].pop("detector"), r"groups\[0\]\.detector"),
            (lambda r: r["groups"][0].update(detector=5), r"groups\[0\]\.detector"),
            (
                lambda r: r["groups"][0]["confidence"]["success_rate"].update(
                    confidence="x"
                ),
                r"groups\[0\]\.confidence\.success_rate\.confidence",
            ),
            (
                lambda r: r["detection_accuracy"][0].update(environment=None),
                r"detection_accuracy\[0\]\.environment",
            ),
            (
                lambda r: r["detection_accuracy"][0].pop("scenario"),
                r"detection_accuracy\[0\]\.scenario",
            ),
            (lambda r: r["recovery"][0].update(scenario=7), r"recovery\[0\]\.scenario"),
            (lambda r: r.update(extra=1), "extra"),
            (
                lambda r: r["groups"][0]["qof"].update(success_rate=True),
                r"groups\[0\]\.qof\.success_rate",
            ),
            (lambda r: r["bootstrap"].update(seed=True), r"bootstrap\.seed"),
            (
                lambda r: r["records"].update(duplicates_dropped=False),
                r"records\.duplicates_dropped",
            ),
            (
                lambda r: next(
                    g["flight_time_distribution"]
                    for g in r["groups"]
                    if g["flight_time_distribution"] is not None
                ).update(count=True),
                r"flight_time_distribution\.count",
            ),
        ],
        ids=[
            "detector-missing",
            "detector-int",
            "interval-confidence-str",
            "accuracy-environment-null",
            "accuracy-scenario-missing",
            "recovery-scenario-int",
            "unknown-top-level-key",
            "success-rate-bool",
            "bootstrap-seed-bool",
            "duplicates-dropped-bool",
            "distribution-count-bool",
        ],
    )
    def test_rejects_shape_holes(self, campaign_store, mutate, match):
        report = self._valid(campaign_store)
        assert report["detection_accuracy"] and report["recovery"]
        mutate(report)
        with pytest.raises(ValueError, match=match):
            validate_report(report)


# ---------------------------------------------------------------- bootstrap
class TestBootstrapCI:
    def test_seeded_and_deterministic(self):
        values = list(np.random.default_rng(5).normal(12.0, 3.0, size=40))
        first = bootstrap_ci(values, np.mean, seed=7)
        second = bootstrap_ci(values, np.mean, seed=7)
        assert (first.lower, first.upper) == (second.lower, second.upper)
        different = bootstrap_ci(values, np.mean, seed=8)
        assert (first.lower, first.upper) != (different.lower, different.upper)

    def test_brackets_the_statistic(self):
        rng = np.random.default_rng(0)
        values = rng.normal(50.0, 5.0, size=200)
        ci = bootstrap_ci(values, np.mean, confidence=0.95, seed=1)
        assert ci.lower <= ci.value <= ci.upper
        assert ci.lower == pytest.approx(50.0, abs=2.0)
        assert ci.samples == 200

    def test_degenerate_samples_yield_nan(self):
        empty = bootstrap_ci([], np.mean)
        assert empty.samples == 0
        assert math.isnan(empty.value) and math.isnan(empty.lower)
        single = bootstrap_ci([3.0], np.mean)
        assert single.value == 3.0
        assert math.isnan(single.lower) and math.isnan(single.upper)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], np.mean, confidence=1.0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], np.mean, n_resamples=0)

    def test_qof_intervals_order_invariant(self):
        flags = [1.0, 1.0, 1.0, 0.0]
        times = [10.0, 12.0, 14.0]
        energies = [1000.0, 1100.0, 1200.0]
        forward = qof_pool_confidence_intervals(flags, times, energies, seed=3)
        backward = qof_pool_confidence_intervals(
            flags[::-1], times[::-1], energies[::-1], seed=3
        )
        for name in forward:
            assert forward[name] == backward[name]
        assert forward["success_rate"].value == pytest.approx(0.75)


def _group(results):
    group = GroupAggregate(key=GroupKey("dr_gaussian", "", "farm"))
    for result in results:
        group.add(result)
    return group


class TestGroupStatistics:
    """The report's group statistics are the only implementation of each
    paper statistic; these pin them down on known samples."""

    # Flight times whose float sum depends on the summation order.
    TIMES = [0.1, 0.2, 0.3, 1e-17, 13.7, 14.2, 0.7]

    def test_qof_summary_equals_summarize_runs_in_any_order(self):
        results = [
            _fake_result(flight_time=t, success=i != 2) for i, t in enumerate(self.TIMES)
        ]
        summary = summarize_runs(results)
        assert _group(results).qof_summary() == summary
        assert _group(results[::-1]).qof_summary() == summary
        assert summarize_runs(results[::-1]) == summary
        assert summary.num_success == 6 and summary.worst_flight_time == 14.2

    def test_all_failed_summary_falls_back_to_the_failed_runs(self):
        results = [_fake_result(flight_time=t, success=False) for t in (40.0, 60.0)]
        summary = _group(results).qof_summary()
        assert summary == summarize_runs(results)
        assert summary.fell_back_to_failures
        assert summary.mean_flight_time == pytest.approx(50.0)

    def test_five_number_summary_matches_numpy(self):
        times = [5.0, 1.0, 4.0, 2.0, 3.0, 9.5]
        dist = _group(_fake_result(flight_time=t) for t in times).flight_time_distribution()
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        assert dist == {
            "count": 6,
            "min": 1.0,
            "q1": pytest.approx(q1),
            "median": pytest.approx(median),
            "q3": pytest.approx(q3),
            "max": 9.5,
            "mean": pytest.approx(np.mean(times)),
        }

    def test_empty_five_number_summary_is_none(self):
        assert _group([_fake_result(success=False)]).flight_time_distribution() is None

    def test_overhead_fractions_pool_every_run(self):
        def charged(compute, categories):
            return replace(
                _fake_result(),
                compute_time={"octomap_generation": compute},
                categories_by_node=categories,
            )

        results = [
            charged(
                10.0,
                {
                    "octomap_generation": {"compute": 9.0, "recovery": 1.0},
                    "anomaly_detection": {"detection:perception": 0.001},
                },
            ),
            charged(30.0, {"pid_control": {"recovery": 0.4}}),
        ]
        report = _group(results).overhead_report("gaussian")
        assert report.total_compute_time == 40.0
        assert report.detection_fraction == {"perception": pytest.approx(0.001 / 40.0)}
        assert report.recovery_fraction == {
            "perception": pytest.approx(1.0 / 40.0),
            "control": pytest.approx(0.4 / 40.0),
        }
        assert report.stages() == ["perception", "control"]

    def test_no_overhead_without_detection_or_recovery_charges(self):
        quiet = replace(_fake_result(), compute_time={"pid_control": 5.0})
        assert _group([quiet]).overhead_report("gaussian") is None


# --------------------------------------------------------------- CLI surface
class TestReportCli:
    def test_cli_report_writes_and_validates(self, tmp_path, campaign_store, capsys):
        out = tmp_path / "report.json"
        assert main(
            ["report", "--results", str(campaign_store), "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "Table I" in stdout and "Detection accuracy" in stdout
        assert out.exists()
        assert main(["report", "--validate", str(out)]) == 0
        assert "valid repro-report-v1" in capsys.readouterr().out

    def test_cli_report_quiet_only_writes(self, tmp_path, campaign_store, capsys):
        out = tmp_path / "report.json"
        assert main(
            ["report", "--results", str(campaign_store), "--out", str(out), "--quiet"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "Table I" not in stdout
        assert str(out) in stdout

    def test_cli_report_missing_shard_fails(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path / "none.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_cli_report_empty_store_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--results", str(empty)]) == 1
        assert "no intact records" in capsys.readouterr().out

    def test_cli_report_needs_results_or_validate(self, capsys):
        assert main(["report"]) == 2
        assert "needs --results" in capsys.readouterr().err

    def test_cli_report_warns_about_conflicting_records(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(_k1_line(10.0))
        b.write_text(_k1_line(42.0))
        out = tmp_path / "report.json"
        assert main(
            ["report", "--results", str(a), str(b), "--out", str(out), "--quiet"]
        ) == 0
        assert "WARNING: 1 spec key(s) have conflicting records" in capsys.readouterr().err
        records = json.loads(out.read_text())["records"]
        assert (records["duplicates_dropped"], records["conflicting_keys"]) == (1, 1)

    def test_cli_report_shard_order_invariant(self, tmp_path, campaign_store):
        lines = campaign_store.read_text().splitlines()
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        b.write_text("\n".join(lines[len(lines) // 2 :]) + "\n")
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(
            ["report", "--results", str(a), str(b), "--out", str(out1), "--quiet"]
        ) == 0
        assert main(
            ["report", "--results", str(b), str(a), "--out", str(out2), "--quiet"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()


# ------------------------------------------------------ dataclass behaviour
def test_fake_result_replace_keeps_new_fields():
    """The new MissionResult fields behave like every other dataclass field."""
    result = _fake_result(injection_time=3.0, first_alarm_time=3.5)
    clone = replace(result, flight_time=1.0)
    assert clone.injection_time == 3.0
    assert clone.first_alarm_time == 3.5
