"""Text rendering of the paper's tables and figures.

The benchmark harnesses regenerate every evaluation artefact of the paper as a
text table (one per Table/Fig.) from a :func:`~repro.analysis.report.build_report`
dict; the helpers here do the formatting, so benches, examples and
``repro report`` share one presentation.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.overhead import OverheadReport


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render a simple aligned text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_percent(value: Optional[float], decimals: int = 0) -> str:
    """A fraction as a percentage; ``n/a`` when it is undefined (``None``)."""
    return "n/a" if value is None else f"{value * 100:.{decimals}f}%"


def format_success_rate_table(
    success_rates: Mapping[str, Mapping[str, float]],
    environments: Sequence[str],
    settings: Sequence[str],
    setting_labels: Mapping[str, str],
    title: str = "Table I: flight success rate",
) -> str:
    """Render a Table-I-style success-rate table.

    ``success_rates[setting][environment]`` is the success rate in [0, 1].
    """
    headers = ["Setting", *(env.capitalize() for env in environments)]
    rows = []
    for setting in settings:
        label = setting_labels.get(setting, setting)
        row = [label]
        for env in environments:
            rate = success_rates.get(setting, {}).get(env)
            row.append("-" if rate is None else f"{rate * 100:.1f}%")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_distribution_table(
    distributions: Iterable[Tuple[str, Optional[Mapping[str, float]]]],
    title: str = "Flight time distribution",
    unit: str = "s",
) -> str:
    """Render box-plot-style five-number summaries, one row per ``(label, summary)``.

    Each summary is a report group's ``flight_time_distribution``
    (:meth:`~repro.analysis.report.GroupAggregate.flight_time_distribution`);
    an empty sample (``None``) renders as ``-`` cells, so it cannot be
    mistaken for a sample of genuinely zero flight times.
    """
    headers = ["Setting", "n", f"min [{unit}]", "q1", "median", "q3", f"max [{unit}]", "mean"]
    stats = ("min", "q1", "median", "q3", "max", "mean")
    rows = [
        [label, 0, *("-" for _ in stats)]
        if dist is None
        else [label, dist["count"], *(f"{dist[name]:.1f}" for name in stats)]
        for label, dist in distributions
    ]
    return format_table(headers, rows, title=title)


def format_overhead_table(
    blocks: Iterable[Tuple[str, OverheadReport]],
    title: str = "Table II: compute time overhead of detection and recovery",
) -> str:
    """Render a Table-II-style overhead table, one ``(heading, report)`` block each."""
    lines: List[str] = [title]
    for heading, report in blocks:
        lines.append(heading)
        lines.extend("  " + row for row in report.rows())
    if len(lines) == 1:
        lines.append("  (no detection/recovery runs in the stores)")
    return "\n".join(lines)
