"""Benchmark subsystem: ``python -m repro bench``.

Times the vectorized hot-path kernels against their scalar references on a
fixed seeded workload and writes the ``BENCH_hotpath.json`` perf-trajectory
artifact.  See ``docs/BENCHMARKS.md`` for the schema and workflow.
"""

from repro.bench.campaign import (
    CAMPAIGN_BENCH_SCHEMA,
    DEFAULT_CAMPAIGN_REPORT_NAME,
    campaign_workload,
    format_campaign_table,
    parse_worker_list,
    run_campaign_bench,
    validate_campaign_report,
    validate_campaign_report_file,
    write_campaign_report,
)
from repro.bench.harness import (
    BENCH_SCHEMA,
    DEFAULT_REPORT_NAME,
    TimingStats,
    time_pair,
    validate_report,
    validate_report_file,
    write_report,
)
from repro.bench.hotpath import format_bench_table, run_bench
from repro.bench.workloads import build_workload

__all__ = [
    "BENCH_SCHEMA",
    "CAMPAIGN_BENCH_SCHEMA",
    "DEFAULT_CAMPAIGN_REPORT_NAME",
    "DEFAULT_REPORT_NAME",
    "TimingStats",
    "build_workload",
    "campaign_workload",
    "format_bench_table",
    "parse_worker_list",
    "format_campaign_table",
    "run_bench",
    "run_campaign_bench",
    "time_pair",
    "validate_campaign_report",
    "validate_campaign_report_file",
    "validate_report",
    "validate_report_file",
    "write_campaign_report",
    "write_report",
]
