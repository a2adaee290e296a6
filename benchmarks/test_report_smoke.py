"""Report-engine benchmark: the full paper bundle from a streamed campaign.

Reads the miniature farm campaign's shard (golden + FI + both D&R schemes +
the detector-on-golden false-positive settings; the ``smoke_shard`` fixture
that the other smoke tables read too), runs the streaming report engine over
it and regenerates the whole artifact set in one pass -- the
``python -m repro report`` code path end to end.  The smoke case is part of
the CI smoke job; it also re-checks the engine's shard-order determinism on
real campaign output.
"""

import json

import pytest

from repro.analysis.report import build_report, render_report, write_report
from repro.core.campaign import RunSetting

from conftest import print_artifact


@pytest.mark.smoke
def test_smoke_report_bundle(benchmark, smoke_shard, tmp_path):
    report = benchmark.pedantic(build_report, args=([smoke_shard],), rounds=1, iterations=1)
    out = write_report(report, tmp_path / "report.json")

    body = render_report(report)
    print_artifact("Paper report bundle (repro report, smoke campaign)", body)

    settings = {group["setting"] for group in report["groups"]}
    assert set(RunSetting.EXTENDED) <= settings
    # Detection-accuracy rows exist for both detectors, with golden rows
    # contributing FPR material and injection rows TPR material.
    rows = {row["detector"]: row for row in report["detection_accuracy"]}
    assert set(rows) == {"gaussian", "autoencoder"}
    for row in rows.values():
        assert row["golden_runs"] > 0
        assert row["injected_runs"] > 0
        assert row["golden_checked_samples"] > 0
    assert any(row["tpr"] and row["tpr"] > 0 for row in rows.values())
    # The written artifact is strict JSON and round-trips.
    parsed = json.loads(out.read_text())
    assert parsed["schema"] == "repro-report-v1"


@pytest.mark.smoke
def test_smoke_report_shard_order_invariant(smoke_shard, tmp_path):
    lines = smoke_shard.read_text().splitlines()
    cut = len(lines) // 2
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text("\n".join(lines[:cut]) + "\n")
    b.write_text("\n".join(lines[cut:]) + "\n")
    forward = write_report(build_report([a, b]), tmp_path / "forward.json")
    backward = write_report(build_report([b, a]), tmp_path / "backward.json")
    assert forward.read_bytes() == backward.read_bytes()
