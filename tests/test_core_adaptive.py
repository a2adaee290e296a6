"""Tests for the adaptive campaign driver (``repro.core.adaptive``).

Covers the ISSUE-8 determinism and invariant contracts: identical
(budget, seed) produce a byte-identical ``adaptive-plan-v1`` audit trail and
identical sampled spec-key sets across serial vs 2-worker execution and
across shard-resume restarts; bisection brackets always contain a known
synthetic boundary and terminate within their probe budget; and the plan
validator accepts driver output while rejecting structurally corrupt trails.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import (
    BISECT_BUDGET,
    BISECT_CONVERGED,
    BISECT_NO_BOUNDARY,
    BISECT_PROBE_BUDGET,
    PLAN_SCHEMA,
    STOP_BUDGET,
    STOP_CONVERGED,
    AdaptiveConfig,
    AdaptiveDriver,
    CellKey,
    bisect_boundary,
    validate_plan,
    validate_plan_file,
    write_plan,
)
from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.executor import ParallelExecutor
from repro.core.results import JsonlResultStore


def _fast_campaign(**overrides) -> Campaign:
    config = CampaignConfig(
        environment="farm",
        num_golden=overrides.pop("num_golden", 3),
        mission_time_limit=overrides.pop("mission_time_limit", 60.0),
        **overrides,
    )
    return Campaign(config)


def _driver(campaign=None, *, stages=("planning",), bisect=False, **overrides):
    campaign = campaign if campaign is not None else _fast_campaign()
    config = AdaptiveConfig(
        budget=overrides.pop("budget", 12),
        ci_width=overrides.pop("ci_width", 0.3),
        round_size=overrides.pop("round_size", 2),
        min_runs=overrides.pop("min_runs", 4),
        bisect=bisect,
        bisect_max_probes=overrides.pop("bisect_max_probes", 4),
        bisect_tolerance=overrides.pop("bisect_tolerance", 2.0),
        **overrides,
    )
    return AdaptiveDriver(
        campaign,
        config,
        settings=(RunSetting.GOLDEN, RunSetting.INJECTION),
        stages=stages,
    )


def _plan_bytes(plan) -> str:
    return json.dumps(plan, sort_keys=True, indent=2)


def _sampled_keys(plan):
    keys = set()
    for cell in plan["cells"]:
        keys.update(cell["spec_keys"])
    return keys


class TestAdaptiveConfig:
    def test_defaults_are_valid(self):
        AdaptiveConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0},
            {"ci_width": 0.0},
            {"ci_width": 1.0},
            {"confidence": 1.0},
            {"round_size": 0},
            {"min_runs": 0},
            {"max_rounds": 0},
            {"bisect_tolerance": 0.0},
            {"bisect_max_probes": -1},
            {"bisect_votes": 2},
            {"bisect_votes": 0},
        ],
    )
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)


class TestCellSpace:
    def test_fault_settings_get_one_cell_per_stage(self):
        driver = _driver(stages=("perception", "planning", "control"))
        keys = driver.cell_keys()
        assert CellKey("", RunSetting.GOLDEN, "") in keys
        for stage in ("perception", "planning", "control"):
            assert CellKey("", RunSetting.INJECTION, stage) in keys
        assert len(keys) == 4
        assert keys == sorted(keys)

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match="unsupported adaptive settings"):
            AdaptiveDriver(_fast_campaign(), settings=("warp-drive",))

    def test_spec_keys_unique_and_reproducible(self):
        driver = _driver(stages=("planning",))
        cell = CellKey("", RunSetting.INJECTION, "planning")
        keys = [driver.spec_for(cell, i).key() for i in range(8)]
        assert len(set(keys)) == 8  # distinct runs, distinct keys
        again = [driver.spec_for(cell, i).key() for i in range(8)]
        assert keys == again
        # A fresh driver over a *larger* cell space derives identical keys:
        # a cell's sample stream never depends on which other cells exist.
        wider = _driver(stages=("perception", "planning", "control"))
        assert [wider.spec_for(cell, i).key() for i in range(8)] == keys

    def test_golden_indices_are_fresh_missions(self):
        driver = _driver()
        cell = CellKey("", RunSetting.GOLDEN, "")
        pool = driver._seed_pool
        specs = [driver.spec_for(cell, i) for i in range(2 * len(pool))]
        # Un-pooled seeds: every additional golden run is a new mission, so
        # Wilson tallies never double-count a replayed spec key.
        assert len({spec.key() for spec in specs}) == len(specs)
        assert [spec.seed for spec in specs[: len(pool)]] == pool

    def test_fault_cells_draw_from_common_seed_pool(self):
        driver = _driver()
        cell = CellKey("", RunSetting.INJECTION, "planning")
        pool = driver._seed_pool
        specs = [driver.spec_for(cell, i) for i in range(len(pool) + 1)]
        assert [spec.seed for spec in specs[: len(pool)]] == pool
        assert specs[len(pool)].seed == pool[0]  # wraps, but with a new plan
        assert specs[len(pool)].key() != specs[0].key()

    def test_probe_specs_use_distinct_setting_label(self):
        driver = _driver()
        cell = CellKey("", RunSetting.INJECTION, "planning")
        probe = driver.probe_spec(cell, 4.25, vote=0)
        assert probe.setting == "probe:injection:planning"
        assert probe.fault_plan is not None
        assert probe.fault_plan.injection_time == pytest.approx(4.25)
        assert probe.key() == driver.probe_spec(cell, 4.25, vote=0).key()
        assert probe.key() != driver.probe_spec(cell, 4.25, vote=1).key()
        assert probe.key() != driver.probe_spec(cell, 4.75, vote=0).key()


class TestDriverDeterminism:
    def test_plan_is_byte_identical_across_repeats(self):
        plan_a = _driver().run()
        plan_b = _driver().run()
        assert _plan_bytes(plan_a) == _plan_bytes(plan_b)

    def test_serial_vs_two_workers_byte_identical(self, tmp_path):
        serial_store = JsonlResultStore(tmp_path / "serial.jsonl")
        plan_serial = _driver().run(store=serial_store)

        parallel_store = JsonlResultStore(tmp_path / "parallel.jsonl")
        plan_parallel = _driver().run(
            executor=ParallelExecutor(workers=2), store=parallel_store
        )

        assert _plan_bytes(plan_serial) == _plan_bytes(plan_parallel)
        assert _sampled_keys(plan_serial) == _sampled_keys(plan_parallel)
        assert set(serial_store.load_results()) == set(parallel_store.load_results())

    def test_shard_resume_restart_is_byte_identical(self, tmp_path):
        path = tmp_path / "results.jsonl"
        plan_full = _driver(bisect=True).run(store=JsonlResultStore(path))

        # Simulate an interrupted campaign: keep only ~60% of the shard.
        lines = path.read_text().splitlines(keepends=True)
        keep = max(1, (len(lines) * 3) // 5)
        path.write_text("".join(lines[:keep]))

        plan_resumed = _driver(bisect=True).run(store=JsonlResultStore(path))
        assert _plan_bytes(plan_full) == _plan_bytes(plan_resumed)

    def test_complete_shard_resume_flies_nothing_new(self, tmp_path):
        path = tmp_path / "results.jsonl"
        _driver(bisect=True).run(store=JsonlResultStore(path))
        flown = []
        plan = _driver(bisect=True).run(
            store=JsonlResultStore(path),
            on_result=lambda spec, record: flown.append(spec.key()),
        )
        # on_result only fires for freshly flown missions; a complete shard
        # resumes every spec.
        assert flown == []
        assert plan["totals"]["runs_used"] > 0

    def test_seed_changes_the_sampled_keys(self):
        plan_a = _driver(_fast_campaign(seed=0)).run()
        plan_b = _driver(_fast_campaign(seed=1)).run()

        def fault_keys(plan):
            return {
                key
                for cell in plan["cells"]
                if cell["stage"]
                for key in cell["spec_keys"]
            }

        # Fault plans derive from the campaign seed, so fault-cell spec keys
        # are fully disjoint across seeds; golden cells shift their mission
        # seed range (overlapping keys are the same missions by design).
        assert fault_keys(plan_a).isdisjoint(fault_keys(plan_b))
        assert _sampled_keys(plan_a) != _sampled_keys(plan_b)


class TestDriverBudgeting:
    def test_early_stop_fires_and_respects_budget(self):
        plan = _driver(budget=12, ci_width=0.3, min_runs=4).run()
        assert plan["schema"] == PLAN_SCHEMA
        assert plan["totals"]["runs_used"] <= plan["totals"]["budget"]
        assert plan["totals"]["early_stopped"] >= 1
        converged = [
            c for c in plan["cells"] if c["stop_reason"] == STOP_CONVERGED
        ]
        for cell in converged:
            assert cell["runs"] >= 4
            assert cell["wilson"]["half_width"] <= 0.3
            assert cell["stop_round"] is not None

    def test_tiny_budget_reports_budget_stops(self):
        plan = _driver(budget=3, round_size=2, min_runs=4).run()
        assert plan["totals"]["runs_used"] <= 3
        assert any(c["stop_reason"] == STOP_BUDGET for c in plan["cells"])

    def test_budget_starved_bisection_reports_budget(self):
        # Sampling consumes the whole budget; bisection gets nothing.
        plan = _driver(budget=8, ci_width=0.01, bisect=True).run()
        assert plan["boundaries"]
        for boundary in plan["boundaries"]:
            assert boundary["reason"] == BISECT_BUDGET
            assert boundary["probes"] == 0

    def test_leftover_budget_funds_bisection(self):
        plan = _driver(budget=16, bisect=True).run()
        assert plan["boundaries"]
        total = plan["totals"]
        assert total["bisection_probes"] > 0
        assert total["runs_used"] == total["sampling_runs"] + total["bisection_probes"]
        # Everything survives in this easy fixture, so the window has no
        # survives/fails transition to refine.
        assert plan["boundaries"][0]["reason"] == BISECT_NO_BOUNDARY


class TestBisectBoundary:
    def test_validation(self):
        oracle = lambda t, vote: True  # noqa: E731
        with pytest.raises(ValueError):
            bisect_boundary(oracle, 5.0, 2.0, tolerance=0.5, max_probes=8)
        with pytest.raises(ValueError):
            bisect_boundary(oracle, 2.0, 9.0, tolerance=0.0, max_probes=8)
        with pytest.raises(ValueError):
            bisect_boundary(oracle, 2.0, 9.0, tolerance=0.5, max_probes=8, votes=2)

    @given(
        boundary=st.floats(min_value=2.1, max_value=8.9),
        tolerance=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_oracle_bracket_contains_boundary(self, boundary, tolerance):
        probes = []

        def oracle(t, vote):
            probes.append(t)
            return t < boundary  # survives strictly before the boundary

        outcome = bisect_boundary(oracle, 2.0, 9.0, tolerance, max_probes=64)
        assert outcome.converged and outcome.reason == BISECT_CONVERGED
        assert outcome.lo <= boundary <= outcome.hi
        assert outcome.hi - outcome.lo <= tolerance
        assert outcome.lo_survives is True and outcome.hi_survives is False
        assert outcome.boundary == pytest.approx(0.5 * (outcome.lo + outcome.hi))
        # Endpoint evaluation plus one halving per bisection step.
        bound = 2 + math.ceil(math.log2((9.0 - 2.0) / tolerance))
        assert outcome.probes == len(probes) <= bound

    def test_inverted_step_oracle(self):
        outcome = bisect_boundary(
            lambda t, vote: t > 6.0, 2.0, 9.0, tolerance=0.25, max_probes=64
        )
        assert outcome.converged
        assert outcome.lo <= 6.0 <= outcome.hi
        assert outcome.lo_survives is False and outcome.hi_survives is True

    @pytest.mark.parametrize("survives", [True, False])
    def test_uniform_response_is_no_boundary(self, survives):
        outcome = bisect_boundary(
            lambda t, vote: survives, 2.0, 9.0, tolerance=0.5, max_probes=64
        )
        assert outcome.reason == BISECT_NO_BOUNDARY
        assert outcome.boundary is None
        assert outcome.probes == 2
        assert (outcome.lo, outcome.hi) == (2.0, 9.0)

    def test_noisy_boundary_contained_within_noise_band(self):
        """Deterministic noise inside |t - b| < delta flips the response;
        outside the band the oracle is truthful, so the bracket can miss the
        true boundary by at most delta per side."""
        boundary, delta = 5.3, 0.1

        def noisy(t, vote):
            truth = t < boundary
            if abs(t - boundary) < delta:
                # Deterministic flip pattern inside the noise band.
                return truth if int(t * 1000) % 2 == 0 else not truth
            return truth

        outcome = bisect_boundary(noisy, 2.0, 9.0, tolerance=0.5, max_probes=64)
        assert outcome.converged
        assert outcome.lo - delta <= boundary <= outcome.hi + delta

    def test_majority_vote_restores_exact_containment(self):
        """With votes=3 a single flipped vote per probe cannot change the
        majority, so the bracket contains the true boundary exactly."""
        boundary, delta = 5.3, 0.1

        def one_bad_vote(t, vote):
            truth = t < boundary
            if vote == 0 and abs(t - boundary) < delta:
                return not truth
            return truth

        outcome = bisect_boundary(
            one_bad_vote, 2.0, 9.0, tolerance=0.25, max_probes=96, votes=3
        )
        assert outcome.converged
        assert outcome.lo <= boundary <= outcome.hi
        assert outcome.probes % 3 == 0

    def test_probe_budget_terminates_early(self):
        outcome = bisect_boundary(
            lambda t, vote: t < 5.0, 2.0, 9.0, tolerance=0.01, max_probes=4
        )
        assert not outcome.converged
        assert outcome.reason == BISECT_PROBE_BUDGET
        assert outcome.probes <= 4
        assert outcome.lo <= 5.0 <= outcome.hi  # bracket invariant still holds

    def test_budget_below_endpoint_cost_probes_nothing(self):
        outcome = bisect_boundary(
            lambda t, vote: t < 5.0, 2.0, 9.0, tolerance=0.5, max_probes=1
        )
        assert outcome.probes == 0
        assert outcome.reason == BISECT_PROBE_BUDGET
        assert (outcome.lo, outcome.hi) == (2.0, 9.0)


class TestPlanValidation:
    @pytest.fixture(scope="class")
    def plan(self):
        return _driver(bisect=True).run()

    def test_driver_output_validates(self, plan):
        assert validate_plan(plan) is plan

    def test_round_trip_through_file(self, plan, tmp_path):
        path = write_plan(plan, tmp_path / "plan.json")
        loaded = validate_plan_file(path)
        assert _plan_bytes(loaded) == _plan_bytes(plan)

    def test_unreadable_file_rejected(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ValueError, match="cannot read adaptive plan"):
            validate_plan_file(missing)
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read adaptive plan"):
            validate_plan_file(garbage)

    def _corrupt(self, plan, mutate):
        copy = json.loads(json.dumps(plan, sort_keys=True))
        mutate(copy)
        with pytest.raises(ValueError, match="invalid adaptive-plan-v1"):
            validate_plan(copy)

    def test_rejects_wrong_schema(self, plan):
        self._corrupt(plan, lambda p: p.update(schema="adaptive-plan-v0"))

    def test_rejects_missing_section(self, plan):
        self._corrupt(plan, lambda p: p.pop("rounds"))

    # Regressions for sections the validator historically never looked at
    # (found by the RL011 schema-drift checker).

    def test_rejects_missing_campaign_field(self, plan):
        self._corrupt(plan, lambda p: p["campaign"].pop("environment"))

    def test_rejects_unordered_injection_window(self, plan):
        self._corrupt(
            plan, lambda p: p["campaign"].update(injection_window=[15.0, 10.0])
        )

    def test_rejects_bad_seed_pool_size(self, plan):
        self._corrupt(plan, lambda p: p["campaign"].update(seed_pool_size=0))

    def test_rejects_non_boolean_bisect_flag(self, plan):
        self._corrupt(plan, lambda p: p["config"].update(bisect="yes"))

    def test_rejects_even_bisect_votes(self, plan):
        self._corrupt(plan, lambda p: p["config"].update(bisect_votes=0))

    def test_rejects_out_of_range_cell_success_rate(self, plan):
        self._corrupt(plan, lambda p: p["cells"][0].update(success_rate=1.5))

    def test_rejects_boundary_without_votes(self, plan):
        def mutate(p):
            if not p["boundaries"]:
                pytest.skip("fixture plan produced no boundaries")
            p["boundaries"][0]["votes"] = 0

        self._corrupt(plan, mutate)

    def test_rejects_budget_overrun(self, plan):
        def mutate(p):
            p["totals"]["runs_used"] = p["totals"]["budget"] + 1
            p["totals"]["sampling_runs"] = (
                p["totals"]["runs_used"] - p["totals"]["bisection_probes"]
            )

        self._corrupt(plan, mutate)

    def test_rejects_allocation_tally_mismatch(self, plan):
        self._corrupt(
            plan, lambda p: p["cells"][0].update(runs=p["cells"][0]["runs"] + 1)
        )

    def test_rejects_successes_above_runs(self, plan):
        def mutate(p):
            cell = p["cells"][0]
            cell["successes"] = cell["runs"] + 1

        self._corrupt(plan, mutate)

    def test_rejects_unknown_stop_reason(self, plan):
        self._corrupt(plan, lambda p: p["cells"][0].update(stop_reason="tired"))

    def test_rejects_duplicate_cells(self, plan):
        self._corrupt(plan, lambda p: p["cells"].append(p["cells"][0]))

    def test_rejects_bracket_outside_window(self, plan):
        def mutate(p):
            boundary = p["boundaries"][0]
            boundary["bracket"] = [
                boundary["window"][0] - 1.0,
                boundary["window"][1],
            ]

        self._corrupt(plan, mutate)

    def test_rejects_probe_tally_mismatch(self, plan):
        def mutate(p):
            p["boundaries"][0]["probes"] += 1

        self._corrupt(plan, mutate)

    def test_rejects_spec_key_reordering(self, plan):
        def mutate(p):
            keys = p["cells"][0]["spec_keys"]
            keys.reverse()
            if keys == sorted(keys):  # degenerate single-key cell
                p["cells"][0]["spec_keys"] = [*keys, "bogus"]

        self._corrupt(plan, mutate)

    # Holes the hand-written validator left open.

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p["rounds"][0].pop("runs_used"),
            lambda p: p["rounds"][0].update(runs_used="x"),
            lambda p: p["cells"][0]["wilson"].update(confidence="x"),
            lambda p: p.update(extra=1),
        ],
        ids=[
            "runs-used-missing",
            "runs-used-str",
            "wilson-confidence-str",
            "unknown-top-level-key",
        ],
    )
    def test_rejects_shape_holes(self, plan, mutate):
        self._corrupt(plan, mutate)


class TestReportIngestion:
    def test_report_consumes_adaptive_shard_unchanged(self, tmp_path):
        from repro.analysis.report import build_report

        path = tmp_path / "results.jsonl"
        plan = _driver(bisect=True).run(store=JsonlResultStore(path))
        report = build_report([path], bootstrap_resamples=50)
        assert report["records"]["unique"] == plan["totals"]["runs_used"]
        settings_seen = {group["setting"] for group in report["groups"]}
        assert RunSetting.GOLDEN in settings_seen
        assert RunSetting.INJECTION in settings_seen
        # Bisection probes land in their own groups, not the cell tallies.
        assert any(s.startswith("probe:") for s in settings_seen)


class TestCli:
    def test_adaptive_flags_require_adaptive(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--budget", "5"]) == 2
        err = capsys.readouterr().err
        assert "--budget" in err and "--adaptive" in err

    def test_validate_plan_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = write_plan(_driver().run(), tmp_path / "plan.json")
        assert main(["campaign", "--validate-plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid adaptive-plan-v1 plan" in out

    def test_validate_plan_cli_rejects_corrupt(self, tmp_path, capsys):
        from repro.cli import main

        plan = _driver().run()
        plan["totals"]["cells"] += 1
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan, sort_keys=True))
        assert main(["campaign", "--validate-plan", str(path)]) == 2

    def test_adaptive_campaign_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        out_path = tmp_path / "results.jsonl"
        code = main(
            [
                "campaign",
                "--adaptive",
                "--env",
                "farm",
                "--settings",
                "golden,injection",
                "--golden",
                "3",
                "--time-limit",
                "60",
                "--budget",
                "10",
                "--ci-width",
                "0.3",
                "--round-size",
                "2",
                "--plan-out",
                str(plan_path),
                "--out",
                str(out_path),
                "--quiet",
            ]
        )
        assert code == 0
        plan = validate_plan_file(plan_path)
        assert plan["totals"]["runs_used"] <= 10
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "Adaptive search" in out
