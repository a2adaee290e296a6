"""Result analysis: trajectory comparison, report formatting, paper reports.

Every paper table and figure is read from JSONL result shards:
:func:`~repro.analysis.report.build_report` aggregates them into one report
dict, and the renderers format its ``groups`` and ``recovery`` rows.

* :mod:`repro.analysis.trajectory` -- flight-trajectory metrics (path length,
  detour ratio, deviation from a reference flight) used for the Fig. 7
  trajectory analysis.
* :mod:`repro.analysis.reporting` -- text rendering of the paper's tables and
  figures (Table I, Table II, Fig. 3/4/6/8/9) from report dicts.
* :mod:`repro.analysis.detection_metrics` -- detection-accuracy metrics
  (TPR/FPR/precision/time-to-detect) from golden and injection runs.
* :mod:`repro.analysis.report` -- the streaming paper-report engine behind
  ``python -m repro report`` and the benchmark tables: shard-merging
  aggregation, bootstrap confidence intervals and the schema-validated
  ``repro-report-v1`` artifact.
"""

from repro.analysis.detection_metrics import (
    DetectionAccuracy,
    StageDetection,
    detection_accuracy,
    detector_label,
    format_detection_accuracy_table,
)
from repro.analysis.report import (
    DEFAULT_REPORT_NAME,
    REPORT_SCHEMA,
    StreamingAggregator,
    build_report,
    render_report,
    validate_report,
    validate_report_file,
    write_report,
)
from repro.analysis.reporting import (
    format_distribution_table,
    format_overhead_table,
    format_success_rate_table,
    format_table,
)
from repro.analysis.trajectory import TrajectoryComparison, TrajectoryMetrics, analyze_trajectory, compare_trajectories

__all__ = [
    "TrajectoryMetrics",
    "TrajectoryComparison",
    "analyze_trajectory",
    "compare_trajectories",
    "format_table",
    "format_success_rate_table",
    "format_distribution_table",
    "format_overhead_table",
    "DetectionAccuracy",
    "StageDetection",
    "detection_accuracy",
    "detector_label",
    "format_detection_accuracy_table",
    "DEFAULT_REPORT_NAME",
    "REPORT_SCHEMA",
    "StreamingAggregator",
    "build_report",
    "render_report",
    "validate_report",
    "validate_report_file",
    "write_report",
]
