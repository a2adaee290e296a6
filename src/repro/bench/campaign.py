"""Campaign-throughput benchmark: ``python -m repro bench --campaign``.

Times one *standard injection-sweep workload* -- a seeded, late-window,
bit-sensitivity-style sweep (many injections per mission seed, activation
late in the flight) plus its golden baselines -- through the campaign
execution engine in several modes:

* ``serial_scratch`` -- the PR 3 baseline: serial executor, construction
  caches and golden-prefix checkpointing disabled (every run rebuilds its
  world and re-flies its prefix);
* ``serial_cached`` -- construction caches only (worlds, detector forks and
  the motion-plan memo);
* ``serial_checkpointed`` -- caches plus golden-prefix checkpoint forks (the
  headline serial comparison);
* ``parallel_checkpointed`` -- the full shipped engine (caches, checkpoints,
  prefix-affinity parallel scheduling), measured at every worker count of the
  ``--workers`` list; the per-count measurements form the report's *scaling
  curve* and the headline entry (2 workers when the list has it) doubles as
  the ``parallel_checkpointed`` mode.

The v1 schema's ``parallel_scratch`` mode timed a configuration the engine
never ships (worker pools with every cache disabled); v2 drops it and defines
``parallel_vs_baseline`` as the shipped parallel engine against the scratch
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
import math
import multiprocessing
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.reporting import format_table
from repro.bench.harness import host_fingerprint
from repro.core import checkpoint, knobs
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    oversubscription_allowed,
)
from repro.core.results import mission_results_equal
from repro.pipeline import builder
from repro.planning.memo import plan_memo_stats

#: Schema identifier written into every new campaign report.
CAMPAIGN_BENCH_SCHEMA = "repro-campaign-bench-v2"

#: The previous schema; still accepted by the validator so committed v1
#: artifacts and external tooling keep working.
CAMPAIGN_BENCH_SCHEMA_V1 = "repro-campaign-bench-v1"

#: Every schema :func:`validate_campaign_report` accepts.
SUPPORTED_CAMPAIGN_BENCH_SCHEMAS = (CAMPAIGN_BENCH_SCHEMA_V1, CAMPAIGN_BENCH_SCHEMA)

#: Default report file name (repo-root perf-trajectory artifact).
DEFAULT_CAMPAIGN_REPORT_NAME = "BENCH_campaign.json"

#: Mode names in report/table order (v2; v1 additionally had
#: ``parallel_scratch``, which the validator still accepts in old reports).
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
                memo_stats = plan_memo_stats()
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
                "snapshots_restored": int(fleet.get("snapshots_restored", 0)),
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
    """The campaign bench report as a text table (v1 or v2)."""
    rows = []
    base = report["modes"]["serial_scratch"]["specs_per_sec"]
    mode_order = list(CAMPAIGN_BENCH_MODES)
    if "parallel_scratch" in report["modes"]:  # v1 reports
        mode_order.insert(-1, "parallel_scratch")
    for name in mode_order:
        mode = report["modes"].get(name)
        if mode is None:
            continue
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
    ckpt = report.get("checkpoint", {})
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
    scaling = report.get("scaling")
    if scaling:
        points = []
        for entry in scaling.get("curve", []):
            points.append(
                f"w={entry['workers']} (eff {entry['effective_workers']}): "
                f"{entry['specs_per_sec']:.2f}/s, "
                f"{entry['speedup_vs_serial_checkpointed']:.2f}x serial-ckpt, "
                f"eff'cy {entry['parallel_efficiency']:.2f}, "
                f"dup builds {entry['duplicate_cursor_builds']}"
            )
        table += (
            f"\nscaling curve [{scaling.get('start_method', '?')}, "
            f"{scaling.get('cpu_count', '?')} CPU(s)]: " + " | ".join(points)
        )
    table += (
        f"\nbit-identical across modes: {report['bit_identical']}"
        f" | prefix sim-seconds saved: "
        f"{ckpt.get('prefix_sim_seconds_saved', 0.0):.1f}"
        f" (forks: {ckpt.get('forks', 0)}, golden served: "
        f"{ckpt.get('golden_served', 0)}, cursor restarts: "
        f"{ckpt.get('cursor_restarts', 0)})"
    )
    memo = report.get("plan_memo")
    if memo:
        table += (
            f"\nplan memo (serial checkpointed): {memo.get('hits', 0)} hits, "
            f"{memo.get('misses', 0)} misses"
        )
    return table


# ----------------------------------------------------------------- validation
def _validate_scaling_section(report: Dict) -> None:
    """Validate the v2 ``scaling`` section (curve of per-worker-count points)."""
    scaling = report.get("scaling")
    if not isinstance(scaling, dict):
        raise ValueError("v2 campaign bench report must contain a 'scaling' object")
    workers = scaling.get("workers")
    if (
        not isinstance(workers, list)
        or not workers
        or not all(isinstance(w, int) and w >= 1 for w in workers)
    ):
        raise ValueError(
            "scaling.workers must be a non-empty list of positive integers"
        )
    for field_name in ("headline_workers", "cpu_count"):
        value = scaling.get(field_name)
        if not isinstance(value, int) or value < 1:
            raise ValueError(
                f"scaling.{field_name} must be a positive integer, got {value!r}"
            )
    if scaling["headline_workers"] not in workers:
        raise ValueError(
            "scaling.headline_workers must be one of the scaling.workers counts"
        )
    if not isinstance(scaling.get("start_method"), str):
        raise ValueError("scaling.start_method must be a string")
    if not isinstance(scaling.get("oversubscribe"), bool):
        raise ValueError("scaling.oversubscribe must be a boolean")
    curve = scaling.get("curve")
    if not isinstance(curve, list) or not curve:
        raise ValueError("scaling.curve must be a non-empty list of points")
    for entry in curve:
        if not isinstance(entry, dict):
            raise ValueError("scaling.curve entries must be objects")
        for field_name in ("workers", "effective_workers"):
            value = entry.get(field_name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"scaling point {field_name} must be a positive integer, "
                    f"got {value!r}"
                )
        for field_name in (
            "wall_s",
            "specs_per_sec",
            "speedup_vs_serial_checkpointed",
            "parallel_efficiency",
        ):
            value = entry.get(field_name)
            if (
                not isinstance(value, (int, float))
                or not math.isfinite(value)
                or value <= 0
            ):
                raise ValueError(
                    f"scaling point {field_name} must be finite and positive, "
                    f"got {value!r}"
                )
        for field_name in (
            "duplicate_cursor_builds",
            "cursors_built",
            "snapshots_restored",
            "forks",
            "specs",
        ):
            value = entry.get(field_name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"scaling point {field_name} must be a non-negative "
                    f"integer, got {value!r}"
                )
    if {entry["workers"] for entry in curve} != set(workers):
        raise ValueError(
            "scaling.curve must contain exactly one point per scaling.workers entry"
        )


def validate_campaign_report(report: Dict) -> None:
    """Validate a campaign bench report (v1 or v2); raises ``ValueError``."""
    if not isinstance(report, dict):
        raise ValueError("campaign bench report must be a JSON object")
    schema = report.get("schema")
    if schema not in SUPPORTED_CAMPAIGN_BENCH_SCHEMAS:
        raise ValueError(
            f"campaign bench schema must be one of "
            f"{list(SUPPORTED_CAMPAIGN_BENCH_SCHEMAS)}, got {schema!r}"
        )
    modes = report.get("modes")
    if not isinstance(modes, dict) or not modes:
        raise ValueError("campaign bench report must contain a 'modes' object")
    for required in ("serial_scratch", "serial_checkpointed"):
        if required not in modes:
            raise ValueError(f"campaign bench report must time the {required!r} mode")
    for name, mode in modes.items():
        if not isinstance(mode, dict):
            raise ValueError(f"mode {name!r}: must be an object")
        for field_name in ("wall_s", "specs_per_sec"):
            value = mode.get(field_name)
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
                raise ValueError(
                    f"mode {name!r}: {field_name} must be finite and positive, got {value!r}"
                )
        if not isinstance(mode.get("specs"), int) or mode["specs"] <= 0:
            raise ValueError(f"mode {name!r}: specs must be a positive integer")
    speedups = report.get("speedups")
    if not isinstance(speedups, dict):
        raise ValueError("campaign bench report must contain a 'speedups' object")
    for name, value in speedups.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            raise ValueError(f"speedup {name!r} must be finite and positive, got {value!r}")
    headline = speedups.get("cached_checkpointed_vs_baseline")
    if headline is None:
        raise ValueError(
            "campaign bench report must record 'cached_checkpointed_vs_baseline'"
        )
    created = report.get("created_unix")
    if not isinstance(created, (int, float)) or not math.isfinite(created) or created <= 0:
        raise ValueError(
            f"campaign bench report created_unix must be a positive timestamp, "
            f"got {created!r}"
        )
    if schema == CAMPAIGN_BENCH_SCHEMA:
        for required in ("serial_cached", "parallel_checkpointed"):
            if required not in modes:
                raise ValueError(
                    f"v2 campaign bench report must time the {required!r} mode"
                )
        for name in (
            "cached_vs_baseline",
            "parallel_vs_baseline",
            "parallel_checkpointed_vs_baseline",
            "parallel_vs_serial_checkpointed",
        ):
            if speedups.get(name) is None:
                raise ValueError(
                    f"v2 campaign bench report must record speedups.{name!r}"
                )
        workload = report.get("workload")
        if isinstance(workload, dict):
            repeats = workload.get("repeats")
            if not isinstance(repeats, int) or repeats < 1:
                raise ValueError(
                    f"v2 campaign bench workload.repeats must be a positive "
                    f"integer, got {repeats!r}"
                )
        _validate_scaling_section(report)
    if report.get("bit_identical") is not True:
        raise ValueError(
            "campaign bench report must record bit_identical=true (checkpointed "
            "results must match from-scratch execution exactly)"
        )
    for section in ("checkpoint", "cache", "workload", "host"):
        if not isinstance(report.get(section), dict):
            raise ValueError(f"campaign bench report must contain a {section!r} object")
    # Optional: reports written before the plan memo existed lack it.
    if not isinstance(report.get("plan_memo", {}), dict):
        raise ValueError("campaign bench report's 'plan_memo' must be an object")


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
