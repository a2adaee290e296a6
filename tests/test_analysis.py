"""Tests for trajectory analysis and report formatting."""

import pytest

from repro.analysis.reporting import (
    format_distribution_table,
    format_overhead_table,
    format_percent,
    format_success_rate_table,
    format_table,
)
from repro.analysis.trajectory import analyze_trajectory, compare_trajectories
from repro.core.overhead import OverheadReport


class TestTrajectoryAnalysis:
    def test_straight_line_metrics(self):
        trajectory = [[float(x), 0.0, 2.0] for x in range(0, 11)]
        metrics = analyze_trajectory(trajectory)
        assert metrics.path_length == pytest.approx(10.0)
        assert metrics.straight_line_distance == pytest.approx(10.0)
        assert metrics.detour_ratio == pytest.approx(1.0)
        assert metrics.max_lateral_deviation == pytest.approx(0.0)

    def test_detour_metrics(self):
        trajectory = [[0, 0, 2], [5, 5, 2], [10, 0, 2]]
        metrics = analyze_trajectory(trajectory)
        assert metrics.detour_ratio > 1.3
        assert metrics.max_lateral_deviation == pytest.approx(5.0)

    def test_single_point_trajectory(self):
        metrics = analyze_trajectory([[1.0, 2.0, 3.0]])
        assert metrics.path_length == 0.0
        assert metrics.num_points == 1

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            analyze_trajectory([[1.0, 2.0]])

    def test_compare_identical_trajectories(self):
        trajectory = [[float(x), 0.0, 2.0] for x in range(10)]
        comparison = compare_trajectories(trajectory, trajectory)
        assert comparison.mean_deviation == pytest.approx(0.0)
        assert comparison.length_ratio == pytest.approx(1.0)

    def test_compare_detoured_trajectory(self):
        reference = [[float(x), 0.0, 2.0] for x in range(11)]
        detour = [[float(x), 3.0 if 3 <= x <= 7 else 0.0, 2.0] for x in range(11)]
        comparison = compare_trajectories(detour, reference)
        assert comparison.max_deviation >= 2.5
        assert comparison.length_ratio > 1.0

    def test_degenerate_reference_yields_inf_length_ratio(self):
        """Regression: a zero-length reference used to report length_ratio 1.0
        ("identical length") even against an arbitrarily long trajectory."""
        long_trajectory = [[float(x), 0.0, 2.0] for x in range(11)]
        hover = [[5.0, 5.0, 2.0]] * 4
        comparison = compare_trajectories(long_trajectory, hover)
        assert comparison.length_ratio == float("inf")

    def test_both_degenerate_trajectories_ratio_one(self):
        hover = [[5.0, 5.0, 2.0]] * 4
        comparison = compare_trajectories(hover, hover)
        assert comparison.length_ratio == pytest.approx(1.0)
        assert comparison.mean_deviation == pytest.approx(0.0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2], [30, 40]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[1]
        assert len(lines) == 5

    def test_success_rate_table(self):
        rates = {"golden": {"farm": 1.0, "dense": 0.85}, "injection": {"farm": 0.97}}
        text = format_success_rate_table(
            rates,
            environments=["farm", "dense"],
            settings=["golden", "injection"],
            setting_labels={"golden": "Golden Run", "injection": "Injection Run"},
        )
        assert "Golden Run" in text
        assert "85.0%" in text
        assert "-" in text  # missing dense/injection cell

    @staticmethod
    def _dist(values):
        return {
            "count": len(values),
            "min": min(values),
            "q1": values[0],
            "median": values[len(values) // 2],
            "q3": values[-1],
            "max": max(values),
            "mean": sum(values) / len(values),
        }

    def test_percent_renders_undefined_rates_as_n_a(self):
        assert format_percent(0.875) == "88%"
        assert format_percent(0.875, 1) == "87.5%"
        assert format_percent(None) == "n/a"

    def test_distribution_table(self):
        text = format_distribution_table(
            [("golden", self._dist([10, 11, 12])), ("fi", self._dist([10, 20, 30]))]
        )
        assert "golden" in text and "fi" in text
        assert "30.0" in text

    def test_distribution_table_empty_sample_renders_dashes(self):
        """Regression: an empty sample used to render as a real 0.0 row,
        indistinguishable from genuinely zero flight times."""
        text = format_distribution_table([("empty", None), ("zero", self._dist([0.0, 0.0]))])
        empty_row = next(line for line in text.splitlines() if line.startswith("empty"))
        zero_row = next(line for line in text.splitlines() if line.startswith("zero"))
        assert "0.0" not in empty_row
        assert empty_row.split()[1] == "0"  # n column
        assert empty_row.count("-") >= 6
        assert "0.0" in zero_row

    def test_overhead_table(self):
        report = OverheadReport(
            detector="gad",
            environment="sparse",
            detection_fraction={"perception": 1e-6},
            recovery_fraction={"perception": 0.01},
        )
        text = format_overhead_table([("[sparse] detector=gad", report)])
        assert text.splitlines()[1] == "[sparse] detector=gad"
        assert "RECOV" in text

    def test_overhead_table_without_blocks_says_so(self):
        assert "no detection/recovery runs" in format_overhead_table([])

    def test_overhead_rows_follow_the_pipeline_order(self):
        report = OverheadReport(
            detector="gad",
            environment="farm",
            detection_fraction={"control": 1e-6, "perception": 1e-6, "planning": 1e-6},
            recovery_fraction={"planning": 0.01},
        )
        assert report.stages() == ["perception", "planning", "control"]

    def test_overhead_report_round_trips_through_its_dict(self):
        report = OverheadReport(
            detector="aad",
            environment="dense",
            detection_fraction={"ppc": 6.1e-5},
            recovery_fraction={"control": 1.0e-5},
            total_compute_time=123.0,
        )
        again = OverheadReport.from_dict(report.to_dict(), "dense")
        assert again == report
        assert again.rows() == report.rows()

    def test_overhead_rows_cover_recovery_only_stages(self):
        """Regression: the AAD report detects under "ppc" but recovers under
        "control"; iterating only the detection keys dropped the control
        RECOV row while the sum line still included it."""
        report = OverheadReport(
            detector="aad",
            environment="farm",
            detection_fraction={"ppc": 0.0001},
            recovery_fraction={"control": 0.0040},
        )
        rows = report.rows()
        assert any(row.startswith("control") for row in rows)
        assert report.stages() == ["ppc", "control"]

    def test_overhead_rows_sum_to_total(self):
        report = OverheadReport(
            detector="aad",
            environment="farm",
            detection_fraction={"ppc": 0.0001},
            recovery_fraction={"control": 0.0040, "perception": 0.0002},
        )
        printed = 0.0
        for row in report.rows()[:-1]:
            parts = row.split()
            printed += float(parts[2].rstrip("%")) + float(parts[4].rstrip("%"))
        assert printed / 100 == pytest.approx(report.total_overhead, abs=1e-7)
        assert f"{report.total_overhead * 100:.4f}%" in report.rows()[-1]
