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
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

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


def validate_report(report: Dict) -> None:
    """Validate a bench report dict; raises ``ValueError`` when malformed.

    Checks the schema marker, the presence and well-formedness of every
    kernel entry (finite, positive timings; finite speedup when a scalar
    reference was measured) and the pipeline-profile section.
    """
    if not isinstance(report, dict):
        raise ValueError("bench report must be a JSON object")
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"bench report schema must be {BENCH_SCHEMA!r}, got {report.get('schema')!r}"
        )
    kernels = report.get("kernels")
    if not isinstance(kernels, dict) or not kernels:
        raise ValueError("bench report must contain a non-empty 'kernels' object")
    for name, entry in kernels.items():
        if not isinstance(entry, dict) or "vector" not in entry:
            raise ValueError(f"kernel {name!r}: missing 'vector' timings")
        for side in ("vector", "scalar"):
            stats = entry.get(side)
            if stats is None:
                continue
            if not isinstance(stats, dict):
                raise ValueError(f"kernel {name!r}: {side} must be a timings object")
            for field_name in ("best_ms", "mean_ms", "repeats", "runs_per_sec"):
                value = stats.get(field_name)
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    raise ValueError(
                        f"kernel {name!r}: {side}.{field_name} must be finite, got {value!r}"
                    )
            if stats["best_ms"] <= 0 or stats["mean_ms"] <= 0:
                raise ValueError(f"kernel {name!r}: {side} timings must be positive")
        if "scalar" in entry:
            speedup = entry.get("speedup")
            if not isinstance(speedup, (int, float)) or not math.isfinite(speedup) or speedup <= 0:
                raise ValueError(f"kernel {name!r}: speedup must be finite and positive")
    pipeline = report.get("pipeline")
    if not isinstance(pipeline, dict):
        raise ValueError("bench report must contain a 'pipeline' profile object")
    per_kernel = pipeline.get("per_kernel")
    if not isinstance(per_kernel, dict):
        raise ValueError("pipeline profile must contain a 'per_kernel' object")
    for name, stats in per_kernel.items():
        if not isinstance(stats, dict):
            raise ValueError(f"pipeline kernel {name!r}: stats must be an object")
        for field_name in ("wall_ms", "calls", "ms_per_call"):
            value = stats.get(field_name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(
                    f"pipeline kernel {name!r}: {field_name} must be finite, got {value!r}"
                )
    if not isinstance(report.get("host"), dict):
        raise ValueError("bench report must record the 'host' fingerprint")
    if not isinstance(report.get("workload"), dict):
        raise ValueError("bench report must describe its 'workload'")


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
