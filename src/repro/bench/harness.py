"""Timing harness and report schema for the hot-path benchmarks.

Small, dependency-free ``timeit``-style plumbing: :func:`time_pair` runs a
kernel and its scalar reference repeatedly, interleaved, and keeps best/mean
wall time of each, :func:`kernel_entry` folds such a pair of timings into one
report entry, and
:func:`validate_report` / :func:`validate_report_file` enforce the
``BENCH_hotpath.json`` schema (the CI bench job fails on malformed output
through them).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import shape

#: Schema identifier written into (and required from) every report.
BENCH_SCHEMA = "repro-bench-v1"

#: Default report file name (repo-root perf-trajectory artifact).
DEFAULT_REPORT_NAME = "BENCH_hotpath.json"


def results_dir(default: Union[str, Path]) -> Path:
    """Directory where benchmark runs persist regenerated figure/table text.

    Resolves the ``REPRO_BENCH_RESULTS_DIR`` knob (registry-parsed, so the
    bench harness and any external caller agree on the default semantics);
    ``default`` is the caller's untracked fallback directory.
    """
    from repro.core import knobs

    return Path(knobs.raw_or("REPRO_BENCH_RESULTS_DIR", str(default)))


@dataclass(frozen=True)
class TimingStats:
    """Wall-clock statistics of one timed section."""

    best_ms: float
    mean_ms: float
    repeats: int
    calls_per_run: int = 1

    @property
    def runs_per_sec(self) -> float:
        """Workload executions per second at the best observed time."""
        if self.best_ms <= 0:
            return float("inf")
        return 1e3 / self.best_ms

    def to_dict(self) -> Dict[str, float]:
        """JSON form of the statistics."""
        return {
            "best_ms": self.best_ms,
            "mean_ms": self.mean_ms,
            "repeats": self.repeats,
            "calls_per_run": self.calls_per_run,
            "runs_per_sec": self.runs_per_sec,
        }


def time_pair(
    vector: Callable[[], object],
    scalar: Callable[[], object],
    repeats: int,
    scalar_repeats: Optional[int] = None,
    warmup: int = 1,
    calls_per_run: int = 1,
) -> Tuple[TimingStats, TimingStats]:
    """Time a kernel and its reference, their measured runs interleaved.

    Each side first runs ``warmup`` unmeasured times.  The measured runs
    then alternate (vector, scalar, vector, ...) until the vector side has
    ``repeats`` and the scalar side ``scalar_repeats`` (default: the same).
    Timing one side after the other would let the host's speed drift
    between the two phases move their ratio; interleaved, drift reaches
    both sides alike.
    """
    sides = (vector, scalar)
    counts = (max(repeats, 1), max(repeats if scalar_repeats is None else scalar_repeats, 1))
    for fn in sides:
        for _ in range(max(warmup, 0)):
            fn()
    samples: Tuple[List[float], List[float]] = ([], [])
    for i in range(max(counts)):
        for fn, count, times in zip(sides, counts, samples):
            if i < count:
                start = time.perf_counter()
                fn()
                times.append((time.perf_counter() - start) * 1e3)
    vector_stats, scalar_stats = (
        TimingStats(
            best_ms=min(times),
            mean_ms=sum(times) / len(times),
            repeats=len(times),
            calls_per_run=calls_per_run,
        )
        for times in samples
    )
    return vector_stats, scalar_stats


def kernel_entry(vector: TimingStats, scalar: Optional[TimingStats]) -> Dict:
    """One per-kernel report entry: vector timings, scalar timings, speedup."""
    entry: Dict = {"vector": vector.to_dict()}
    if scalar is not None:
        entry["scalar"] = scalar.to_dict()
        entry["speedup"] = (
            scalar.best_ms / vector.best_ms if vector.best_ms > 0 else float("inf")
        )
    return entry


def host_fingerprint() -> Dict[str, str]:
    """Interpreter/platform identification stored with every report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


#: The :func:`host_fingerprint` object, shared with the campaign bench report.
HOST_SHAPE = shape.Obj(
    python=shape.STR,
    implementation=shape.STR,
    numpy=shape.STR,
    machine=shape.STR,
    system=shape.STR,
)
_TIMINGS = shape.Obj(
    best_ms=shape.POSITIVE,
    mean_ms=shape.POSITIVE,
    repeats=shape.POSITIVE_INT,
    calls_per_run=shape.POSITIVE_INT,
    runs_per_sec=shape.POSITIVE,
)
REPORT_SHAPE = shape.Obj(
    schema=shape.Literal(BENCH_SCHEMA),
    created_unix=shape.POSITIVE,
    host=HOST_SHAPE,
    env=shape.MapOf(shape.STR),
    workload=shape.OPEN,
    repeats=shape.POSITIVE_INT,
    kernels=shape.MapOf(
        shape.Obj(
            vector=_TIMINGS,
            scalar=_TIMINGS,
            speedup=shape.POSITIVE,
            optional=("scalar", "speedup"),
        ),
        nonempty=True,
    ),
)


def validate_report(report: Dict) -> None:
    """Validate a bench report dict against :data:`REPORT_SHAPE`.

    Raises ``ValueError`` when malformed, including a kernel entry that has
    scalar timings without a speedup or a speedup without scalar timings.
    """
    prefix = f"invalid {BENCH_SCHEMA} report"
    shape.check_shape(REPORT_SHAPE, report, prefix)
    for name, entry in report["kernels"].items():
        if ("scalar" in entry) != ("speedup" in entry):
            raise ValueError(f"{prefix}: kernels.{name} needs both scalar and speedup or neither")


def validate_report_file(path: Union[str, Path]) -> Dict:
    """Load and validate a report file; returns the parsed report."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot read bench report {path}: {error}") from error
    validate_report(report)
    return report


def write_report(report: Dict, path: Union[str, Path]) -> Path:
    """Validate and write a report as pretty-printed JSON; returns the path."""
    validate_report(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
