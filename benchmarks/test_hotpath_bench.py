"""Benchmark harness self-test: the hot-path bench produces a valid report.

Runs the ``python -m repro bench`` machinery on the smoke workload, validates
the ``BENCH_hotpath.json`` schema, and sanity-checks the measured speedups.
The hard >=3x occupancy-integration acceptance gate applies to the full
(non-smoke) workload; the smoke assertion is deliberately looser so a noisy
shared CI runner cannot flake this test.
"""

import json

import pytest

from repro.bench import format_bench_table, run_bench, validate_report, validate_report_file

from conftest import print_artifact


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
        "detector_gad_window",
        "detector_aad_window",
        "preprocess_transform",
        "motion_planning",
        "depth_raycast",
    }
    # Every vectorized kernel must beat its scalar reference; the occupancy
    # gate is looser here than the full-bench >=3x because the smoke workload
    # is tiny and CI machines are noisy.
    for name, entry in kernels.items():
        assert entry["speedup"] > 1.2, f"{name} did not beat its scalar reference"
    assert kernels["occupancy_integration"]["speedup"] > 1.5
    # The profiled mission must have exercised the perception kernels.
    per_kernel = loaded["pipeline"]["per_kernel"]
    for kernel in ("point_cloud_generation", "octomap_generation", "collision_check"):
        assert per_kernel[kernel]["calls"] > 0
    print_artifact("Hot-path bench: smoke workload", format_bench_table(report))


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
