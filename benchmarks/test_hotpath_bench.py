"""Benchmark harness self-test: the hot-path bench produces a valid report.

Runs the ``python -m repro bench`` machinery on the smoke workload, validates
the ``BENCH_hotpath.json`` schema, and sanity-checks the measured speedups.
The hard >=3x occupancy-integration acceptance gate applies to the full
(non-smoke) workload; the smoke assertion is deliberately looser so a noisy
shared CI runner cannot flake this test.
"""

import json
from pathlib import Path

import pytest

from repro.bench import (
    format_bench_table,
    run_bench,
    time_pair,
    validate_report,
    validate_report_file,
)

from conftest import print_artifact

COMMITTED_REPORT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


@pytest.mark.smoke
def test_smoke_bench_writes_valid_report(tmp_path):
    out = tmp_path / "BENCH_hotpath.json"
    report = run_bench(smoke=True, out=out)
    assert out.exists()
    loaded = validate_report_file(out)
    assert loaded["schema"] == report["schema"]
    kernels = loaded["kernels"]
    assert set(kernels) == {
        "occupancy_integration",
        "point_cloud_generation",
        "collision_check",
        "motion_planning",
        "depth_raycast",
    }
    # The committed report must list exactly the kernels the bench runs, so
    # it goes stale (and fails here) when a kernel is added or deleted.
    assert set(validate_report_file(COMMITTED_REPORT)["kernels"]) == set(kernels)
    # Every vectorized kernel must beat its scalar reference; the occupancy
    # gate is looser here than the full-bench >=3x because the smoke workload
    # is tiny and CI machines are noisy.
    for name, entry in kernels.items():
        assert entry["speedup"] > 1.2, (
            f"{name} did not beat its scalar reference: {entry['speedup']:.2f}x"
        )
    assert kernels["occupancy_integration"]["speedup"] > 1.5
    print_artifact("Hot-path bench: smoke workload", format_bench_table(report))


def test_time_pair_interleaves_measured_runs():
    # Both sides warm up, then their measured runs alternate, so a drift of
    # the host's speed during the measurement reaches both sides alike.
    calls = []
    vector, scalar = time_pair(
        lambda: calls.append("v"), lambda: calls.append("s"),
        repeats=3, scalar_repeats=1, calls_per_run=5,
    )
    assert calls == ["v", "s", "v", "s", "v", "v"]
    assert (vector.repeats, scalar.repeats, vector.calls_per_run) == (3, 1, 5)
    calls.clear()
    time_pair(lambda: calls.append("v"), lambda: calls.append("s"), repeats=2)
    assert calls == ["v", "s", "v", "s", "v", "s"]


def test_malformed_reports_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        validate_report_file(bad)
    with pytest.raises(ValueError):
        validate_report({"schema": "wrong"})
    with pytest.raises(ValueError):
        validate_report({"schema": "repro-bench-v1", "kernels": {}})
    # A tampered timing must fail validation.
    out = tmp_path / "BENCH_hotpath.json"
    run_bench(smoke=True, repeats=1, out=out)
    report = json.loads(out.read_text())
    report["kernels"]["occupancy_integration"]["vector"]["best_ms"] = float("nan")
    with pytest.raises(ValueError):
        validate_report(report)
    # Holes the hand-written validator left open.
    for mutate in (
        lambda r: r.update(created_unix="x"),
        lambda r: r["kernels"]["occupancy_integration"]["vector"].update(repeats=True),
        lambda r: r["kernels"]["occupancy_integration"]["vector"].pop("calls_per_run"),
    ):
        tampered = json.loads(out.read_text())
        mutate(tampered)
        with pytest.raises(ValueError, match="invalid repro-bench-v1 report"):
            validate_report(tampered)


def test_committed_hotpath_report_validates():
    """The committed BENCH_hotpath.json passes the strict validator as it is."""
    report = validate_report_file(COMMITTED_REPORT)
    assert report["workload"]["smoke"] is False
