"""Campaign-throughput benchmark: ``python -m repro bench --campaign``.

Times one *standard injection-sweep workload* -- a seeded, late-window,
bit-sensitivity-style sweep (many injections per mission seed, activation
late in the flight) plus its golden baselines -- through the campaign
execution engine in several modes:

* ``serial_scratch`` -- the PR 3 baseline: serial executor, construction
  caches and golden-prefix checkpointing disabled (every run rebuilds its
  world and re-flies its prefix);
* ``serial_cached`` -- construction caches only (worlds, detector forks and
  the kernel memos of :mod:`repro.sim.memo`);
* ``serial_checkpointed`` -- caches plus golden-prefix checkpoint forks (the
  headline serial comparison);
* ``parallel_checkpointed`` -- the full shipped engine (caches, checkpoints,
  prefix-affinity parallel scheduling), measured at every worker count of the
  ``--workers`` list; the per-count measurements form the report's *scaling
  curve* and the headline entry (2 workers when the list has it) doubles as
  the ``parallel_checkpointed`` mode.

``parallel_vs_baseline`` is the shipped parallel engine against the scratch
baseline.

Every mode's -- and every scaling point's -- result stream is checked
bit-identical against the baseline's (the hard correctness gate: a faster
engine that changes a single bit of a mission record fails the bench), every
scaling point must report **zero duplicate cursor builds** (the
prefix-affinity scheduling invariant), and the report records the
world-cache, plan-memo and checkpoint statistics (hit rates, prefix seconds
saved) alongside the throughputs.  The schema-validated artifact is
``BENCH_campaign.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.reporting import format_table
from repro.bench.harness import HOST_SHAPE, host_fingerprint
from repro.core import checkpoint, knobs, shape
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    oversubscription_allowed,
)
from repro.core.results import mission_results_equal
from repro.pipeline import builder
from repro.planning.memo import PLAN_MEMO

#: Schema identifier written into (and required from) every campaign report.
CAMPAIGN_BENCH_SCHEMA = "repro-campaign-bench-v2"

#: Default report file name (repo-root perf-trajectory artifact).
DEFAULT_CAMPAIGN_REPORT_NAME = "BENCH_campaign.json"

#: Mode names in report/table order.
CAMPAIGN_BENCH_MODES = (
    "serial_scratch",
    "serial_cached",
    "serial_checkpointed",
    "parallel_checkpointed",
)

#: Worker counts of the default scaling curve.
DEFAULT_SCALING_WORKERS = (1, 2)


def parse_worker_list(value: Union[int, str, Iterable[int], None]) -> List[int]:
    """Normalise a ``--workers`` value into a sorted list of unique counts.

    Accepts an int, an iterable of ints, or a comma-separated string
    (``"1,2,4"``); ``None`` yields the default curve.  Counts must be
    positive -- the campaign bench measures explicit worker counts, so the
    executor's ``0 = one per CPU`` convention is rejected here.
    """
    if value is None:
        counts = list(DEFAULT_SCALING_WORKERS)
    elif isinstance(value, int):
        counts = [value]
    elif isinstance(value, str):
        parts = [part.strip() for part in value.split(",") if part.strip()]
        try:
            counts = [int(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"--workers must be a comma-separated list of integers, got {value!r}"
            ) from None
    else:
        counts = [int(item) for item in value]
    if not counts:
        raise ValueError("worker list must not be empty")
    for count in counts:
        if count < 1:
            raise ValueError(f"worker counts must be >= 1, got {count}")
    return sorted(set(counts))


@contextmanager
def _engine_env(no_cache: bool, no_checkpoint: bool):
    """Temporarily pin the engine's cache/checkpoint escape hatches."""
    with knobs.temporary({
        builder.NO_CACHE_ENV: "1" if no_cache else "0",
        checkpoint.NO_CHECKPOINT_ENV: "1" if no_checkpoint else "0",
    }):
        yield


def campaign_workload(
    smoke: bool = False,
) -> Tuple[CampaignConfig, List[RunSpec], Dict]:
    """The standard injection-sweep workload (config, specs, description).

    Late-window sweep in the Factory environment: every mission seed carries
    many single-bit injections activating in the ``(10, 15) s`` window of a
    ~16 s flight, plus the golden baselines -- the shape of the paper's
    bit-sensitivity characterisation, and the shape golden-prefix
    checkpointing exists for.  Counts are pinned (independent of
    ``MAVFI_RUNS``) so every bench run times the same campaign.
    """
    config = CampaignConfig(
        environment="factory",
        env_seed=0,
        seed=0,
        # Two mission seeds even in smoke: with a single seed there is only
        # one prefix group, and a one-group scaling curve cannot exercise (or
        # gate) multi-worker scheduling at all.
        num_golden=2,
        num_injections_per_stage=2 if smoke else 12,
        injection_window=(10.0, 15.0),
        mission_time_limit=60.0,
    )
    with knobs.temporary({"MAVFI_RUNS": "1.0"}):
        campaign = Campaign(config)
        specs = campaign.golden_specs() + campaign.stage_injection_specs("injection")
    description = {
        "environment": config.environment,
        "mission_seeds": config.num_golden,
        "injections_per_stage": config.num_injections_per_stage,
        "injection_window": list(config.injection_window),
        "mission_time_limit": config.mission_time_limit,
        "specs": len(specs),
        "prefix_groups": len({spec.prefix_key() for spec in specs}),
        "smoke": bool(smoke),
    }
    return config, specs, description


def _reset_engine_caches() -> None:
    checkpoint.reset_checkpoint_caches()
    builder.reset_world_cache()


def _run_mode(
    config: CampaignConfig,
    specs: List[RunSpec],
    no_cache: bool,
    no_checkpoint: bool,
    workers: int = 1,
    repeats: int = 1,
    executor=None,
) -> Tuple[List, float, object]:
    """Run the workload in one engine mode; returns (results, best wall_s,
    executor).

    Each repeat starts from cold per-process caches (reset between runs), so
    the best-of-``repeats`` time measures the mode itself rather than shared
    machine noise or a pre-warmed cache.  The executor is returned so callers
    can read :class:`~repro.core.executor.ParallelExecutor`'s post-run
    bookkeeping (``last_effective_workers``, ``last_checkpoint_stats``).
    """
    if executor is None:
        executor = (
            SerialExecutor() if workers <= 1 else ParallelExecutor(workers=workers)
        )
    results: List = []
    wall_s = float("inf")
    with _engine_env(no_cache=no_cache, no_checkpoint=no_checkpoint):
        for repeat in range(max(repeats, 1)):
            _reset_engine_caches()
            start = time.perf_counter()
            run_results = Campaign(config).run_specs(specs, executor=executor)
            wall_s = min(wall_s, time.perf_counter() - start)
            if repeat == 0:
                results = run_results
    return results, wall_s, executor


def run_campaign_bench(
    smoke: bool = False,
    workers: Union[int, str, Iterable[int], None] = None,
    out: Union[str, Path, None] = None,
    min_speedup: Optional[float] = None,
    repeats: Optional[int] = None,
    min_parallel_efficiency: Optional[float] = None,
) -> Dict:
    """Benchmark the campaign engine on the standard injection-sweep workload.

    ``workers`` is the scaling curve's worker-count list (int, iterable or
    ``"1,2,4"``-style string; default ``(1, 2)``): the shipped parallel engine
    (caches + checkpointing + prefix-affinity scheduling) is timed once per
    count, and the 2-worker point (or the largest count) doubles as the
    ``parallel_checkpointed`` headline mode.

    Hard gates, always enforced: every mode's and scaling point's result
    stream must be bit-identical to the serial scratch baseline
    (:class:`~repro.core.checkpoint.CheckpointDivergenceError`), and every
    scaling point must report zero duplicate cursor builds -- the
    prefix-affinity scheduler's invariant that no golden prefix is ever flown
    twice across the worker fleet (``ValueError``).

    Optional gates: ``min_speedup`` requires the serial cached+checkpointed
    engine to beat the serial scratch baseline by that factor;
    ``min_parallel_efficiency`` requires the best multi-worker scaling point
    to reach that per-effective-worker efficiency (points whose worker count
    was clamped to 1 -- e.g. a single-CPU host without
    ``MAVFI_OVERSUBSCRIBE`` -- cannot measure parallel efficiency and are
    exempt).  Writes the validated report to ``out`` when given.
    """
    config, specs, description = campaign_workload(smoke=smoke)
    n = len(specs)
    groups = int(description["prefix_groups"])
    worker_counts = parse_worker_list(workers)
    headline_workers = 2 if 2 in worker_counts else max(worker_counts)
    if repeats is None:
        repeats = 1 if smoke else 2
    description["repeats"] = int(repeats)

    serial_plan = {
        "serial_scratch": dict(no_cache=True, no_checkpoint=True),
        "serial_cached": dict(no_cache=False, no_checkpoint=True),
        "serial_checkpointed": dict(no_cache=False, no_checkpoint=False),
    }

    best_wall: Dict[str, float] = {name: float("inf") for name in serial_plan}
    curve_wall: Dict[int, float] = {count: float("inf") for count in worker_counts}
    curve_info: Dict[int, Dict] = {}
    baseline_results: Optional[List] = None
    bit_identical = True
    cache_stats: Dict[str, int] = {}
    memo_stats: Dict[str, int] = {}
    checkpoint_stats: Dict[str, float] = {}

    def check_identical(label: str, results: List) -> None:
        nonlocal bit_identical
        identical = len(results) == len(baseline_results) and all(
            mission_results_equal(a, b) for a, b in zip(baseline_results, results)
        )
        bit_identical = bit_identical and identical
        if not identical:
            raise checkpoint.CheckpointDivergenceError(
                f"campaign bench {label} produced results that are not "
                f"bit-identical to the serial scratch baseline"
            )

    # Rounds are interleaved (every mode and scaling point once per round,
    # best-of over rounds) so drifting load on a shared machine biases all
    # measurements equally instead of whichever one happened to run during
    # the noisy minute.
    for round_index in range(max(repeats, 1)):
        for name, plan in serial_plan.items():
            results, wall_s, _ = _run_mode(config, specs, repeats=1, **plan)
            best_wall[name] = min(best_wall[name], wall_s)
            if name == "serial_checkpointed":
                # Captured before the next mode resets the per-process caches.
                cache_stats = builder.world_cache_stats()
                memo_stats = PLAN_MEMO.stats()
                checkpoint_stats = checkpoint.checkpoint_stats().as_dict()
            if round_index > 0:
                continue
            if baseline_results is None:
                baseline_results = results
            else:
                check_identical(f"mode {name!r}", results)
        for count in worker_counts:
            results, wall_s, executor = _run_mode(
                config,
                specs,
                no_cache=False,
                no_checkpoint=False,
                repeats=1,
                executor=ParallelExecutor(workers=count),
            )
            curve_wall[count] = min(curve_wall[count], wall_s)
            if round_index > 0:
                continue
            check_identical(f"scaling point ({count} workers)", results)
            fleet = executor.last_checkpoint_stats
            curve_info[count] = {
                "effective_workers": int(executor.last_effective_workers),
                "checkpoint": fleet.as_dict() if fleet is not None else {},
            }

    serial_ckpt_sps = n / best_wall["serial_checkpointed"]
    curve: List[Dict] = []
    for count in worker_counts:
        wall_s = curve_wall[count]
        sps = n / wall_s if wall_s > 0 else float("inf")
        info = curve_info[count]
        effective = info["effective_workers"]
        fleet = info["checkpoint"]
        speedup = sps / serial_ckpt_sps
        # Efficiency is normalised by what the workload *can* use: a curve
        # with fewer prefix groups than workers is group-limited, not
        # scheduler-limited.
        usable = max(1, min(effective, groups))
        curve.append(
            {
                "workers": count,
                "effective_workers": effective,
                "wall_s": wall_s,
                "specs": n,
                "specs_per_sec": sps,
                "speedup_vs_serial_checkpointed": speedup,
                "parallel_efficiency": speedup / usable,
                "duplicate_cursor_builds": int(
                    fleet.get("duplicate_cursor_builds", 0)
                ),
                "cursors_built": int(fleet.get("cursors_built", 0)),
                "forks": int(fleet.get("forks", 0)),
            }
        )

    for entry in curve:
        if entry["duplicate_cursor_builds"]:
            raise ValueError(
                f"prefix-affinity invariant violated: the {entry['workers']}-"
                f"worker scaling point rebuilt {entry['duplicate_cursor_builds']} "
                f"golden prefix(es) another worker had already built"
            )

    headline = next(e for e in curve if e["workers"] == headline_workers)
    modes: Dict[str, Dict] = {
        name: {
            "wall_s": best_wall[name],
            "specs": n,
            "specs_per_sec": n / best_wall[name] if best_wall[name] > 0 else float("inf"),
            "workers": 1,
        }
        for name in serial_plan
    }
    modes["parallel_checkpointed"] = {
        "wall_s": headline["wall_s"],
        "specs": n,
        "specs_per_sec": headline["specs_per_sec"],
        "workers": headline_workers,
        "effective_workers": headline["effective_workers"],
    }

    def _speedup(mode: str) -> float:
        return modes[mode]["specs_per_sec"] / modes["serial_scratch"]["specs_per_sec"]

    report = {
        "schema": CAMPAIGN_BENCH_SCHEMA,
        "created_unix": time.time(),
        "host": host_fingerprint(),
        "workload": description,
        "modes": modes,
        "scaling": {
            "workers": list(worker_counts),
            "headline_workers": headline_workers,
            "start_method": multiprocessing.get_start_method(),
            "cpu_count": os.cpu_count() or 1,
            "oversubscribe": oversubscription_allowed(),
            "curve": curve,
        },
        "speedups": {
            "cached_vs_baseline": _speedup("serial_cached"),
            "cached_checkpointed_vs_baseline": _speedup("serial_checkpointed"),
            "parallel_vs_baseline": _speedup("parallel_checkpointed"),
            "parallel_checkpointed_vs_baseline": _speedup("parallel_checkpointed"),
            "parallel_vs_serial_checkpointed": headline[
                "speedup_vs_serial_checkpointed"
            ],
        },
        "cache": cache_stats,
        "plan_memo": memo_stats,
        "checkpoint": checkpoint_stats,
        "bit_identical": bit_identical,
    }
    validate_campaign_report(report)
    if min_speedup is not None:
        achieved = report["speedups"]["cached_checkpointed_vs_baseline"]
        if achieved < min_speedup:
            raise ValueError(
                f"campaign throughput gate failed: cached+checkpointed is "
                f"{achieved:.2f}x the scratch baseline, gate is {min_speedup:.2f}x"
            )
    if min_parallel_efficiency is not None:
        multi = [e for e in curve if e["effective_workers"] > 1]
        if multi:
            best = max(e["parallel_efficiency"] for e in multi)
            if best < min_parallel_efficiency:
                raise ValueError(
                    f"parallel-efficiency gate failed: best multi-worker "
                    f"scaling point reached {best:.2f} per effective worker, "
                    f"gate is {min_parallel_efficiency:.2f}"
                )
    if out is not None:
        write_campaign_report(report, out)
    return report


# ------------------------------------------------------------------ reporting
def format_campaign_table(report: Dict) -> str:
    """The campaign bench report as a text table."""
    rows = []
    base = report["modes"]["serial_scratch"]["specs_per_sec"]
    for name in CAMPAIGN_BENCH_MODES:
        mode = report["modes"][name]
        rows.append(
            [
                name,
                mode["workers"],
                f"{mode['wall_s']:.2f}",
                f"{mode['specs_per_sec']:.2f}",
                f"{mode['specs_per_sec'] / base:.2f}x",
            ]
        )
    workload = report["workload"]
    ckpt = report["checkpoint"]
    table = format_table(
        ["Mode", "Workers", "Wall [s]", "Specs/s", "vs baseline"],
        rows,
        title=(
            f"Campaign throughput ({workload['environment']}, "
            f"{workload['specs']} specs, window "
            f"{workload['injection_window'][0]:.0f}-"
            f"{workload['injection_window'][1]:.0f}s)"
        ),
    )
    scaling = report["scaling"]
    points = [
        f"w={entry['workers']} (eff {entry['effective_workers']}): "
        f"{entry['specs_per_sec']:.2f}/s, "
        f"{entry['speedup_vs_serial_checkpointed']:.2f}x serial-ckpt, "
        f"eff'cy {entry['parallel_efficiency']:.2f}, "
        f"dup builds {entry['duplicate_cursor_builds']}"
        for entry in scaling["curve"]
    ]
    table += (
        f"\nscaling curve [{scaling['start_method']}, "
        f"{scaling['cpu_count']} CPU(s)]: " + " | ".join(points)
    )
    table += (
        f"\nbit-identical across modes: {report['bit_identical']}"
        f" | prefix sim-seconds saved: "
        f"{ckpt.get('prefix_sim_seconds_saved', 0.0):.1f}"
        f" (forks: {ckpt.get('forks', 0)}, golden served: "
        f"{ckpt.get('golden_served', 0)}, cursor restarts: "
        f"{ckpt.get('cursor_restarts', 0)})"
    )
    memo = report["plan_memo"]
    if memo:
        table += (
            f"\nplan memo (serial checkpointed): {memo.get('hits', 0)} hits, "
            f"{memo.get('misses', 0)} misses"
        )
    return table


# ----------------------------------------------------------------- validation
_MODE = shape.Obj(
    wall_s=shape.POSITIVE,
    specs=shape.POSITIVE_INT,
    specs_per_sec=shape.POSITIVE,
    workers=shape.POSITIVE_INT,
    effective_workers=shape.POSITIVE_INT,
    optional=("effective_workers",),
)
CAMPAIGN_REPORT_SHAPE = shape.Obj(
    schema=shape.Literal(CAMPAIGN_BENCH_SCHEMA),
    created_unix=shape.POSITIVE,
    host=HOST_SHAPE,
    workload=shape.Obj(
        environment=shape.NAME,
        mission_seeds=shape.POSITIVE_INT,
        injections_per_stage=shape.COUNT,
        injection_window=shape.Pair(),
        mission_time_limit=shape.POSITIVE,
        specs=shape.POSITIVE_INT,
        prefix_groups=shape.POSITIVE_INT,
        smoke=shape.BOOL,
        repeats=shape.POSITIVE_INT,
    ),
    modes=shape.Obj(**dict.fromkeys(CAMPAIGN_BENCH_MODES, _MODE)),
    scaling=shape.Obj(
        workers=shape.ListOf(shape.POSITIVE_INT, nonempty=True),
        headline_workers=shape.POSITIVE_INT,
        start_method=shape.STR,
        cpu_count=shape.POSITIVE_INT,
        oversubscribe=shape.BOOL,
        curve=shape.ListOf(
            shape.Obj(
                workers=shape.POSITIVE_INT,
                effective_workers=shape.POSITIVE_INT,
                wall_s=shape.POSITIVE,
                specs=shape.COUNT,
                specs_per_sec=shape.POSITIVE,
                speedup_vs_serial_checkpointed=shape.POSITIVE,
                parallel_efficiency=shape.POSITIVE,
                duplicate_cursor_builds=shape.COUNT,
                cursors_built=shape.COUNT,
                forks=shape.COUNT,
            ),
            nonempty=True,
        ),
    ),
    speedups=shape.Obj(
        cached_vs_baseline=shape.POSITIVE,
        cached_checkpointed_vs_baseline=shape.POSITIVE,
        parallel_vs_baseline=shape.POSITIVE,
        parallel_checkpointed_vs_baseline=shape.POSITIVE,
        parallel_vs_serial_checkpointed=shape.POSITIVE,
    ),
    cache=shape.OPEN,
    plan_memo=shape.OPEN,
    checkpoint=shape.OPEN,
    bit_identical=shape.Literal(True),
)


def validate_campaign_report(report: Dict) -> None:
    """Validate a campaign bench report; raises ``ValueError`` when malformed.

    Beyond :data:`CAMPAIGN_REPORT_SHAPE` (which requires ``bit_identical``
    true), the scaling curve needs one point per worker count, the headline
    count among them.
    """
    prefix = f"invalid {CAMPAIGN_BENCH_SCHEMA} report"
    shape.check_shape(CAMPAIGN_REPORT_SHAPE, report, prefix)
    scaling = report["scaling"]
    if sorted(entry["workers"] for entry in scaling["curve"]) != sorted(scaling["workers"]):
        raise ValueError(
            f"{prefix}: scaling.curve must hold exactly one point per scaling.workers entry"
        )
    if scaling["headline_workers"] not in scaling["workers"]:
        raise ValueError(
            f"{prefix}: scaling.headline_workers must be one of the scaling.workers counts"
        )


def validate_campaign_report_file(path: Union[str, Path]) -> Dict:
    """Load and validate a campaign report file; returns the parsed report."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot read campaign bench report {path}: {error}") from error
    validate_campaign_report(report)
    return report


def write_campaign_report(report: Dict, path: Union[str, Path]) -> Path:
    """Validate and write a report as pretty-printed JSON; returns the path."""
    validate_campaign_report(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
