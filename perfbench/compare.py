#!/usr/bin/env python3
"""Regression gate: compare two result sets of the repository benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records ``run.py`` writes to
``.perfbench/results/`` (copy that directory aside after measuring each
commit).  For every workload and end-to-end metric in ``BENCHMARK.json`` the
gate prints each side's median and quartiles and a verdict within the
metric's bound:

* ``worse``: the new median is worse than the base median by more than the
  bound.  The span whose median self time moved most between the two sides'
  ``--trace 1`` runs is named.
* ``improved``: the new median is better by more than the base runs' own
  spread (quartile distance over median), and the new side wins at least
  nine in ten pairs (runs paired by seed, ties counting for neither).
* ``unresolved``: the base spread is wider than the bound (unless every new
  run beats every base run), or a side has fewer than two runs.
* ``unchanged``: anything else.
* ``unmeasured``: ``scenario_pool`` ran with fewer than two effective
  workers on either side, so its numbers say nothing about the pool.

Runs whose output check failed (``correct: false``) are left out of the
medians but counted per workload and side.  Exits 1 when any pair is
``worse``, when any new run is incorrect, or when the new side has more
failed specs than the base side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def recorded_ns(path: Path) -> int:
    """When run.py wrote the record: its ``...-<time_ns>.json`` suffix."""
    return int(path.stem.rsplit("-", 1)[-1])


def load_runs(directory: Path) -> List[Dict]:
    """Every run record in ``directory``, in the order they were recorded."""
    paths = sorted(directory.glob("*.json"), key=recorded_ns)
    runs = [json.loads(path.read_text()) for path in paths]
    if not runs:
        raise SystemExit(f"error: no run records in {directory}")
    return runs


def values(runs: List[Dict], workload: str, trace: int, metric: str) -> List[Tuple[int, float]]:
    """(seed, value) of ``metric`` over the correct runs of one workload."""
    return [
        (run["seed"], run["metrics"][metric]["value"])
        for run in runs
        if run["workload"] == workload and run["trace"] == trace and run["correct"]
        and metric in run["metrics"]
    ]


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def gain(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` over ``base``; positive means better."""
    change = (new - base) / base
    return change if better == "higher" else -change


def pair_wins(base: List[Tuple[int, float]], new: List[Tuple[int, float]], better: str) -> float:
    """Share of paired runs the new side wins.  Runs at the same seed pair
    up in recorded order; if no seed is on both sides, all runs pair up in
    recorded order."""
    by_seed: Dict[int, Tuple[List[float], List[float]]] = {}
    for side, samples in enumerate((base, new)):
        for seed, value in samples:
            by_seed.setdefault(seed, ([], []))[side].append(value)
    pairs = [pair for sides in by_seed.values() for pair in zip(*sides)]
    if not pairs:
        pairs = list(zip((v for _, v in base), (v for _, v in new)))
    wins = sum(1 for b, n in pairs if gain(b, n, better) > 0)
    return wins / len(pairs)


def verdict(base: List[Tuple[int, float]], new: List[Tuple[int, float]], better: str, bound: float) -> str:
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    base_values = [v for _, v in base]
    new_values = [v for _, v in new]
    q1, median, q3 = quartiles(base_values)
    spread = (q3 - q1) / median
    change = gain(median, statistics.median(new_values), better)
    if spread > bound:
        every = all(gain(b, n, better) > 0 for b in base_values for n in new_values)
        return "improved" if every else "unresolved"
    if change < -bound:
        return "worse"
    if change > spread and pair_wins(base, new, better) >= 0.9:
        return "improved"
    return "unchanged"


def moved_span(base_runs: List[Dict], new_runs: List[Dict], workload: str) -> Optional[str]:
    """The span whose median self time moved most between the traced runs."""
    moves = []
    spans = {
        metric[: -len(".self_ms")]
        for run in base_runs + new_runs
        if run["workload"] == workload and run["trace"] == 1
        for metric in run["metrics"]
        if metric.endswith(".self_ms")
    }
    for span in spans:
        base = [v for _, v in values(base_runs, workload, 1, f"{span}.self_ms")]
        new = [v for _, v in values(new_runs, workload, 1, f"{span}.self_ms")]
        if base and new:
            moves.append((statistics.median(new) - statistics.median(base), span))
    if not moves:
        return None
    delta, span = max(moves, key=lambda move: abs(move[0]))
    return f"{span} ({delta:+.1f} ms self time)"


def correctness(runs: List[Dict], workload: str) -> Tuple[int, int, int]:
    """(runs, incorrect runs, failed specs) of one workload."""
    mine = [run for run in runs if run["workload"] == workload]
    return len(mine), sum(1 for run in mine if not run["correct"]), sum(run["failed"] for run in mine)


def unmeasured(runs: List[Dict], workload: str) -> bool:
    return any(run["workload"] == workload and run["scaling"] == "unmeasured" for run in runs)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    base_runs, new_runs = (load_runs(Path(arg)) for arg in argv)
    benchmark = json.loads(BENCHMARK.read_text())
    regressions = broken = 0
    header = f"{'workload':<14} {'metric':<12} {'base q1/median/q3':>30} {'new q1/median/q3':>30}  verdict"
    print(header)
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            base = values(base_runs, workload, 0, metric["name"])
            new = values(new_runs, workload, 0, metric["name"])
            cells = []
            for side in (base, new):
                samples = [v for _, v in side]
                if len(samples) >= 2:
                    cells.append("/".join(f"{q:.4g}" for q in quartiles(samples)))
                else:
                    cells.append(" ".join(f"{v:.4g}" for v in samples) or "-")
            if unmeasured(base_runs, workload) or unmeasured(new_runs, workload):
                outcome = "unmeasured"
            else:
                outcome = verdict(base, new, metric["better"], metric["bound"])
            line = f"{workload:<14} {metric['name']:<12} {cells[0]:>30} {cells[1]:>30}  {outcome}"
            if outcome == "worse":
                regressions += 1
                span = moved_span(base_runs, new_runs, workload)
                line += f"; moved most: {span}" if span else "; no --trace 1 runs to attribute it"
            print(line)
        (base_n, base_bad, base_failed), (new_n, new_bad, new_failed) = (
            correctness(runs, workload) for runs in (base_runs, new_runs)
        )
        line = (
            f"{workload:<14} {'correctness':<12} base {base_bad}/{base_n} runs incorrect, "
            f"{base_failed} failed specs; new {new_bad}/{new_n} runs incorrect, {new_failed} failed specs"
        )
        if new_bad or new_failed > base_failed:
            broken += 1
            line += "  BROKEN"
        print(line)
    print(f"{regressions} regression(s) beyond the bounds in {BENCHMARK.name}")
    print(f"{broken} workload(s) with incorrect new runs or more failed specs")
    return 1 if regressions or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
