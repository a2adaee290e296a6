"""Tests for the ``python -m repro`` command line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.core.results import JsonlResultStore
from repro.scenarios import scenario_names
from repro.version import __version__


def _campaign_args(tmp_path, *extra):
    return [
        "campaign",
        "--env",
        "farm",
        "--settings",
        "golden",
        "--golden",
        "2",
        "--time-limit",
        "60",
        "--out",
        str(tmp_path / "results.jsonl"),
        "--quiet",
        *extra,
    ]


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_campaign_writes_jsonl_and_summarises(tmp_path, capsys):
    assert main(_campaign_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "Campaign summary" in out
    assert "golden" in out
    store = JsonlResultStore(tmp_path / "results.jsonl")
    assert len(store) == 2

    assert main(["summarize", "--results", str(tmp_path / "results.jsonl")]) == 0
    assert "golden" in capsys.readouterr().out


def test_campaign_resumes_from_store(tmp_path, capsys):
    assert main(_campaign_args(tmp_path)) == 0
    capsys.readouterr()
    assert main(_campaign_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "resumed from store: 2" in out
    # No duplicate records were appended on the resumed run.
    assert len(JsonlResultStore(tmp_path / "results.jsonl")) == 2


def test_summarize_deduplicates_rewritten_records(tmp_path, capsys):
    assert main(_campaign_args(tmp_path)) == 0
    assert main(_campaign_args(tmp_path, "--no-resume")) == 0
    # Two campaign passes -> 4 raw records, but each mission counts once.
    assert len(JsonlResultStore(tmp_path / "results.jsonl")) == 4
    capsys.readouterr()
    assert main(["summarize", "--results", str(tmp_path / "results.jsonl")]) == 0
    out = capsys.readouterr().out
    assert re.search(r"golden\s+2\s", out)


def test_campaign_parallel_workers(tmp_path, capsys):
    assert main(_campaign_args(tmp_path, "--workers", "2")) == 0
    out = capsys.readouterr().out
    assert "executor=parallel workers=2" in out
    assert len(JsonlResultStore(tmp_path / "results.jsonl")) == 2


def test_campaign_rejects_unknown_setting(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--settings", "bogus"])


def test_summarize_missing_file_fails(tmp_path, capsys):
    assert main(["summarize", "--results", str(tmp_path / "none.jsonl")]) == 1
    assert "no intact records" in capsys.readouterr().out


def test_list_scenarios(capsys):
    assert main(["campaign", "--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "Scenario catalog" in out
    for name in scenario_names():
        assert name in out


def test_campaign_with_scenario(tmp_path, capsys):
    assert main(_campaign_args(tmp_path, "--scenario", "patrol-farm")) == 0
    out = capsys.readouterr().out
    assert "scenarios=patrol-farm" in out
    assert "patrol-farm:golden" in out
    results = JsonlResultStore(tmp_path / "results.jsonl").load_results()
    assert len(results) == 2
    assert all(r.scenario == "patrol-farm" for r in results.values())
    # Summaries group scenario-tagged records under their scenario.
    capsys.readouterr()
    assert main(["summarize", "--results", str(tmp_path / "results.jsonl")]) == 0
    assert "patrol-farm:golden" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scenarios, golden, labels",
    [
        ("patrol-farm,blind-farm", "1", ("patrol-farm:golden", "blind-farm:golden")),
        # A repeated name sweeps once, like a repeated setting.
        ("patrol-farm,patrol-farm", "2", ("patrol-farm:golden",)),
    ],
)
def test_campaign_scenario_sweep(tmp_path, capsys, scenarios, golden, labels):
    assert main(
        _campaign_args(tmp_path, "--scenario", scenarios, "--golden", golden)
    ) == 0
    out = capsys.readouterr().out
    assert "specs=2 " in out
    runs = [int(re.search(rf"^{label}\s+(\d+)\s", out, re.M).group(1)) for label in labels]
    assert sum(runs) == 2
    assert len(JsonlResultStore(tmp_path / "results.jsonl")) == 2


def test_campaign_rejects_unknown_scenario(tmp_path, capsys):
    assert main(_campaign_args(tmp_path, "--scenario", "bogus")) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_campaign_rejects_unknown_environment(tmp_path, capsys):
    # Must fail fast with exit 2 -- the resilience engine would otherwise
    # retry and record the deterministic per-spec KeyError as harness
    # failures and exit 0 with an empty campaign.
    assert main(_campaign_args(tmp_path, "--env", "bogus")) == 2
    assert "unknown environment" in capsys.readouterr().err


def test_campaign_resilience_follows_the_knobs(tmp_path, monkeypatch, capsys):
    # Every attempt raises; REPRO_MAX_ATTEMPTS=2 allows one retry per spec.
    monkeypatch.setenv("REPRO_CHAOS", "raise=1.0")
    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "2")
    assert main(_campaign_args(tmp_path)) == 0
    assert "ChaosMissionError" in capsys.readouterr().out
    store = JsonlResultStore(tmp_path / "results.jsonl")
    assert len(store) == 0
    failures = store.load_failures()
    by_key = {}
    for record in failures:
        by_key.setdefault(record["key"], []).append(record["failure"])
    assert len(by_key) == 2
    for attempts in by_key.values():
        assert [f["error_type"] for f in attempts] == ["ChaosMissionError"] * 2
        assert [(f["attempt"], f["outcome"]) for f in attempts] == [
            (1, "retried"),
            (2, "failed"),
        ]


def test_campaign_rejects_garbage_run_scale(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MAVFI_RUNS", "garbage")
    assert main(_campaign_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MAVFI_RUNS must be a number")
    assert "Traceback" not in err
