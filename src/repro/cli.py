"""Command-line interface for the MAVFI reproduction (``python -m repro``).

The CLI drives the campaign execution engine from the shell::

    # 8-worker fault-injection campaign in the Sparse environment,
    # streamed to (and resumable from) results.jsonl
    python -m repro campaign --env sparse --workers 8 --out results.jsonl

    # summarise a (possibly still growing) result file
    python -m repro summarize --results results.jsonl

    # render the paper's full report bundle (Table I/II, Fig. 6/7, detection
    # accuracy, recovery summary) from one or many shards, with a
    # schema-validated JSON artifact
    python -m repro report --results shard0.jsonl shard1.jsonl --out report.json

Campaign run counts scale with ``MAVFI_RUNS``, and a sweep's failure capture
and retry follow the ``REPRO_*`` resilience knobs; worker counts come from
``--workers`` or ``MAVFI_WORKERS`` (0 means one worker per CPU).
Re-running a campaign with the same parameters and ``--out`` file skips every
mission whose deterministic spec key is already in the file, so interrupted
campaigns pick up where they left off.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.core.campaign import (
    Campaign,
    CampaignConfig,
    RunSetting,
)
from repro.core.executor import (
    DETECTOR_AUTOENCODER,
    DETECTOR_GAUSSIAN,
    RunSpec,
    get_executor,
)
from repro.core.qof import summarize_runs
from repro.core.resilience import ResiliencePolicy
from repro.core.results import JsonlResultStore
from repro.scenarios import get_scenario, iter_scenarios
from repro.sim.environments import EXTENDED_ENVIRONMENT_NAMES
from repro.version import __version__

#: Settings the ``campaign`` subcommand can run, in canonical order.  The
#: default run sticks to the paper's four (``RunSetting.ALL``); the
#: ``dr_golden_*`` false-positive settings are opt-in via ``--settings``.
CAMPAIGN_SETTINGS = tuple(RunSetting.EXTENDED)
DEFAULT_CAMPAIGN_SETTINGS = tuple(RunSetting.ALL)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAVFI reproduction: fault-injection campaigns from the shell.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    campaign = subparsers.add_parser(
        "campaign",
        help="run golden / fault-injection / D&R missions for one environment",
        description=(
            "Generate the campaign's run specs and dispatch them through the "
            "execution engine, optionally in parallel and/or streamed to a "
            "resumable JSONL result file.  In a sweep, harness failures "
            "become structured records in the store; attempts, the pool "
            "watchdog and quarantine follow the REPRO_MAX_ATTEMPTS / "
            "REPRO_TASK_TIMEOUT / REPRO_QUARANTINE_STRIKES / "
            "REPRO_POOL_RESPAWNS knobs.  MAVFI_RUNS scales the run counts."
        ),
    )
    campaign.add_argument(
        "--env",
        default="sparse",
        help=(
            "evaluation environment "
            f"({', '.join(EXTENDED_ENVIRONMENT_NAMES)}; default sparse)"
        ),
    )
    campaign.add_argument(
        "--scenario",
        default=None,
        help=(
            "flight scenario name, or a comma-separated list to sweep "
            "(see --list-scenarios); overrides --env"
        ),
    )
    campaign.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the scenario catalog and exit",
    )
    campaign.add_argument(
        "--settings",
        default=",".join(DEFAULT_CAMPAIGN_SETTINGS),
        help=(
            "comma-separated subset of "
            f"{','.join(CAMPAIGN_SETTINGS)} (default: "
            f"{','.join(DEFAULT_CAMPAIGN_SETTINGS)}; the dr_golden_* settings "
            "fly fault-free missions with the detector attached for "
            "false-positive-rate measurement)"
        ),
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default MAVFI_WORKERS; 0 = one per CPU; 1 = serial)",
    )
    campaign.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSONL result file to stream to (enables resume on re-run)",
    )
    campaign.add_argument(
        "--no-resume",
        action="store_true",
        help="re-run every spec even if --out already contains it",
    )
    campaign.add_argument("--golden", type=int, default=None, help="golden-run count")
    campaign.add_argument(
        "--per-stage", type=int, default=None, help="injections per PPC stage"
    )
    campaign.add_argument("--seed", type=int, default=0, help="campaign base seed")
    campaign.add_argument("--env-seed", type=int, default=0, help="environment seed")
    campaign.add_argument("--planner", default="rrt_star", help="motion planner")
    campaign.add_argument("--platform", default="i9", help="compute platform")
    campaign.add_argument(
        "--time-limit", type=float, default=120.0, help="mission time limit [s]"
    )
    campaign.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="detector cache directory (reused across runs)",
    )
    campaign.add_argument(
        "--training-envs",
        type=int,
        default=6,
        help="number of detector-training environments",
    )
    campaign.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress output"
    )
    adaptive = campaign.add_argument_group(
        "adaptive search",
        description=(
            "With --adaptive the campaign *searches* the fault space instead "
            "of sweeping it: a budgeted sampler allocates runs across "
            "(setting, scenario, stage) cells and early-stops each cell once "
            "its Wilson CI on the success rate converges, then bisects each "
            "stage's injection-time vulnerability boundary.  The audit trail "
            "(schema adaptive-plan-v1) records every allocation and stop "
            "decision."
        ),
    )
    adaptive.add_argument(
        "--adaptive",
        action="store_true",
        help="search the fault space with CI-gated early stopping",
    )
    adaptive.add_argument(
        "--budget",
        type=int,
        default=None,
        help="total mission budget (sampling runs + bisection probes)",
    )
    adaptive.add_argument(
        "--ci-width",
        type=float,
        default=None,
        help="target Wilson half-width at which a cell early-stops",
    )
    adaptive.add_argument(
        "--round-size",
        type=int,
        default=None,
        help="runs allocated per cell per sampling round",
    )
    adaptive.add_argument(
        "--no-bisect",
        action="store_true",
        help="skip the activation-window boundary bisection phase",
    )
    adaptive.add_argument(
        "--plan-out",
        type=Path,
        default=None,
        help=(
            "audit-trail JSON file to write (schema adaptive-plan-v1; "
            "default adaptive-plan.json)"
        ),
    )
    adaptive.add_argument(
        "--validate-plan",
        type=Path,
        default=None,
        metavar="PLAN",
        help="validate an existing adaptive-plan-v1 file and exit (no runs)",
    )

    summarize = subparsers.add_parser(
        "summarize",
        help="summarise a JSONL result file produced by `repro campaign`",
    )
    summarize.add_argument(
        "--results", type=Path, required=True, help="JSONL result file to summarise"
    )

    report = subparsers.add_parser(
        "report",
        help="render the paper's report bundle from JSONL result shards",
        description=(
            "Stream one or more (possibly overlapping) JSONL result shards "
            "through the report engine and render the paper bundle: Table I "
            "success rates, Table II overhead, Fig. 6 flight-time "
            "distributions, Fig. 7 trajectory metrics, the detection-accuracy "
            "table and the recovery summary.  Shards are deduplicated by spec "
            "key; the output is deterministic regardless of shard order.  "
            "--out additionally writes the schema-validated repro-report-v1 "
            "JSON artifact."
        ),
    )
    report.add_argument(
        "--results",
        type=Path,
        default=None,
        nargs="+",
        help="JSONL result shard(s) to aggregate",
    )
    report.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report JSON file to write (schema repro-report-v1)",
    )
    report.add_argument(
        "--title", default="", help="free-text title recorded in the report"
    )
    report.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="bootstrap confidence level (default 0.95)",
    )
    report.add_argument(
        "--bootstrap",
        type=int,
        default=500,
        help="bootstrap resamples per statistic (default 500)",
    )
    report.add_argument(
        "--seed", type=int, default=0, help="bootstrap base seed (default 0)"
    )
    report.add_argument(
        "--validate",
        type=Path,
        default=None,
        metavar="REPORT",
        help="validate an existing report.json and exit (no aggregation)",
    )
    report.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the text bundle (write --out only)",
    )

    bench = subparsers.add_parser(
        "bench",
        help="benchmark hot-path kernels or campaign throughput (BENCH_*.json)",
        description=(
            "Time the vectorized hot-path kernels against their scalar "
            "references (default, schema repro-bench-v1), or -- with "
            "--campaign -- time the campaign engine's execution modes "
            "(serial scratch/cached/checkpointed plus a parallel scaling "
            "curve) on the standard injection-sweep workload (schema "
            "repro-campaign-bench-v2)."
        ),
    )
    bench.add_argument(
        "--campaign",
        action="store_true",
        help=(
            "benchmark campaign throughput (construction caches + "
            "golden-prefix checkpointing) instead of the hot-path kernels"
        ),
    )
    bench.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report file to write (default BENCH_hotpath.json / BENCH_campaign.json)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="small workload (the CI bench jobs)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help=(
            "timed repeats (hot-path: per kernel, default 7 or 3 with "
            "--smoke; campaign: per mode, default 2 or 1 with --smoke)"
        ),
    )
    bench.add_argument(
        "--workers",
        type=str,
        default=None,
        help=(
            "worker counts of the campaign bench's scaling curve, as a "
            "comma-separated list (e.g. '1,2,4'; default '1,2'); the "
            "2-worker point doubles as the parallel_checkpointed mode"
        ),
    )
    bench.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "campaign bench gate: fail unless cached+checkpointed beats the "
            "scratch baseline by this factor"
        ),
    )
    bench.add_argument(
        "--min-parallel-efficiency",
        type=float,
        default=None,
        help=(
            "campaign bench gate: fail unless the best multi-worker scaling "
            "point reaches this per-effective-worker efficiency (points "
            "clamped to one worker are exempt)"
        ),
    )
    bench.add_argument(
        "--validate",
        type=Path,
        default=None,
        metavar="REPORT",
        help=(
            "validate an existing report file (schema auto-detected) and "
            "exit (no benchmarking)"
        ),
    )

    lint = subparsers.add_parser(
        "lint",
        help="determinism & fork-safety static analysis (RL001..RL007)",
        description=(
            "AST lint of the engine for replay-breaking constructs: unseeded "
            "randomness, wall-clock reads in sim paths, fork-unsafe "
            "callbacks, order-sensitive accumulation, iteration-order "
            "hazards and unregistered env knobs. Exit codes: 0 clean, "
            "1 findings, 2 usage error."
        ),
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)

    subparsers.add_parser("version", help="print the package version")
    return parser


def _scenario_catalog() -> str:
    """The scenario catalog as a text table."""
    rows = []
    for scenario in iter_scenarios():
        axes = []
        if scenario.wind.enabled:
            axes.append("wind")
        if scenario.sensors.enabled:
            axes.append("sensors")
        if scenario.mission.waypoints:
            axes.append(f"{len(scenario.mission.waypoints)}wp")
        rows.append(
            [
                scenario.name,
                scenario.environment,
                "+".join(axes) or "-",
                scenario.description,
            ]
        )
    return format_table(["Scenario", "Environment", "Axes", "Description"], rows,
                        title="Scenario catalog")


def _settings_list(raw: str) -> List[str]:
    settings = []
    for setting in (s.strip() for s in raw.split(",") if s.strip()):
        if setting not in CAMPAIGN_SETTINGS:
            raise SystemExit(
                f"unknown setting {setting!r}; expected a subset of "
                f"{','.join(CAMPAIGN_SETTINGS)}"
            )
        if setting not in settings:
            settings.append(setting)
    return settings


def _campaign_specs(campaign: Campaign, settings: Sequence[str]) -> List[RunSpec]:
    specs: List[RunSpec] = []
    for setting in settings:
        if setting == RunSetting.GOLDEN:
            specs += campaign.golden_specs()
        elif setting == RunSetting.INJECTION:
            specs += campaign.stage_injection_specs(RunSetting.INJECTION)
        elif setting == RunSetting.DR_GAUSSIAN:
            specs += campaign.stage_injection_specs(
                RunSetting.DR_GAUSSIAN, detector=DETECTOR_GAUSSIAN
            )
        elif setting == RunSetting.DR_AUTOENCODER:
            specs += campaign.stage_injection_specs(
                RunSetting.DR_AUTOENCODER, detector=DETECTOR_AUTOENCODER
            )
        elif setting == RunSetting.DR_GOLDEN_GAUSSIAN:
            specs += campaign.dr_golden_specs(DETECTOR_GAUSSIAN)
        elif setting == RunSetting.DR_GOLDEN_AUTOENCODER:
            specs += campaign.dr_golden_specs(DETECTOR_AUTOENCODER)
    return specs


def _summary_table(by_setting: Dict[str, List], title: str) -> str:
    rows = []
    any_fallback = False
    for setting, records in by_setting.items():
        summary = summarize_runs(records)
        # Flag flight-time/energy statistics that describe *failed* runs
        # (no mission of the row succeeded) -- they are not comparable to
        # the successful-run statistics of the other rows.
        mark = "*" if summary.fell_back_to_failures else ""
        any_fallback = any_fallback or summary.fell_back_to_failures
        rows.append(
            [
                setting,
                summary.num_runs,
                f"{summary.success_rate * 100:.0f}%",
                f"{summary.mean_flight_time:.1f}{mark}",
                f"{summary.worst_flight_time:.1f}{mark}",
                f"{summary.mean_energy / 1000:.1f}{mark}",
            ]
        )
    table = format_table(
        [
            "Setting",
            "Runs",
            "Success",
            "Mean flight [s]",
            "Worst flight [s]",
            "Mean energy [kJ]",
        ],
        rows,
        title=title,
    )
    if any_fallback:
        table += "\n(* statistics over failed runs: no mission of that row succeeded)"
    return table


def _scenario_label(setting: str, scenario_name: str) -> str:
    """Summary-table row label: the setting, scenario-qualified when present."""
    if scenario_name and not setting.startswith("scenario:"):
        return f"{scenario_name}:{setting}"
    return setting


def _spec_label(spec: RunSpec) -> str:
    scenario = spec.effective_scenario()
    return _scenario_label(spec.setting, scenario.name if scenario else "")


def _adaptive_cell_table(plan: Dict, title: str) -> str:
    """Per-cell convergence summary of an ``adaptive-plan-v1`` audit trail."""
    rows = []
    for cell in plan["cells"]:
        wilson = cell["wilson"]
        if cell["runs"]:
            rate = f"{cell['success_rate'] * 100:.0f}%"
            interval = f"[{wilson['lower']:.2f}, {wilson['upper']:.2f}]"
        else:
            rate, interval = "-", "-"
        stop = cell["stop_reason"]
        if cell["stop_round"] is not None:
            stop = f"{stop} (r{cell['stop_round']})"
        rows.append([cell["cell"], cell["runs"], rate, interval, stop])
    return format_table(
        ["Cell", "Runs", "Success", "Wilson CI", "Stop"], rows, title=title
    )


def _adaptive_boundary_table(plan: Dict) -> str:
    """Vulnerability-boundary summary of an ``adaptive-plan-v1`` audit trail."""
    rows = []
    for boundary in plan["boundaries"]:
        bracket = boundary["bracket"]
        estimate = (
            f"{boundary['boundary']:.2f}" if boundary["boundary"] is not None else "-"
        )
        rows.append(
            [
                boundary["cell"],
                f"[{bracket[0]:.2f}, {bracket[1]:.2f}]",
                estimate,
                boundary["probes"],
                boundary["reason"],
            ]
        )
    return format_table(
        ["Cell", "Bracket [s]", "Boundary [s]", "Probes", "Reason"],
        rows,
        title="Activation-window bisection",
    )


def _run_adaptive_campaign(
    args: argparse.Namespace,
    campaign: Campaign,
    settings: Sequence[str],
    scenarios: Sequence[str],
) -> int:
    """The ``repro campaign --adaptive`` path: search instead of sweep."""
    from repro.core.adaptive import (
        DEFAULT_PLAN_NAME,
        AdaptiveConfig,
        AdaptiveDriver,
        write_plan,
    )

    overrides: Dict[str, object] = {}
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.ci_width is not None:
        overrides["ci_width"] = args.ci_width
    if args.round_size is not None:
        overrides["round_size"] = args.round_size
    if args.no_bisect:
        overrides["bisect"] = False
    adaptive_config = AdaptiveConfig(**overrides)  # type: ignore[arg-type]
    driver = AdaptiveDriver(
        campaign,
        adaptive_config,
        settings=settings,
        scenarios=scenarios or None,
    )
    executor = get_executor(args.workers)
    store = JsonlResultStore(args.out) if args.out is not None else None
    print(
        f"adaptive campaign: env={args.env} "
        + (f"scenarios={','.join(scenarios)} " if scenarios else "")
        + f"settings={','.join(settings)} cells={len(driver.cell_keys())} "
        f"budget={adaptive_config.budget} ci-width={adaptive_config.ci_width} "
        f"executor={executor.name}"
        + (f" workers={executor.workers}" if hasattr(executor, "workers") else "")
    )

    done = [0]

    def progress(spec: RunSpec, record) -> None:
        done[0] += 1
        flag = "ok" if record.success else "FAIL"
        print(
            f"  [{done[0]}] {spec.setting:<24s} seed={spec.seed:<4d} "
            f"{flag} flight={record.flight_time:.1f}s",
            flush=True,
        )

    failures: List = []
    start = time.perf_counter()
    plan = driver.run(
        executor=executor,
        store=store,
        resume=not args.no_resume,
        on_result=None if args.quiet else progress,
        policy=ResiliencePolicy.from_knobs(),
        on_failure=failures.append,
    )
    elapsed = time.perf_counter() - start

    totals = plan["totals"]
    print(
        _adaptive_cell_table(
            plan,
            title=(
                f"Adaptive search ({totals['runs_used']}/{totals['budget']} budget, "
                f"{totals['early_stopped']}/{totals['cells']} cells converged, "
                f"{elapsed:.1f}s wall clock)"
            ),
        )
    )
    if plan["boundaries"]:
        print(_adaptive_boundary_table(plan))
    if failures:
        print(_failure_table(failures))
    plan_path = args.plan_out if args.plan_out is not None else Path(DEFAULT_PLAN_NAME)
    write_plan(plan, plan_path)
    print(f"plan: {plan_path} (schema {plan['schema']})")
    if store is not None:
        print(f"results: {store.path} ({len(store.load_results())} missions)")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        print(_scenario_catalog())
        return 0
    if args.validate_plan is not None:
        from repro.core.adaptive import validate_plan_file

        plan = validate_plan_file(args.validate_plan)
        totals = plan["totals"]
        print(
            f"{args.validate_plan}: valid {plan['schema']} plan "
            f"({totals['runs_used']}/{totals['budget']} budget, "
            f"{totals['cells']} cells, {totals['early_stopped']} converged)"
        )
        return 0
    adaptive_only = {
        "--budget": args.budget,
        "--ci-width": args.ci_width,
        "--round-size": args.round_size,
        "--plan-out": args.plan_out,
    }
    if args.no_bisect:
        adaptive_only["--no-bisect"] = True
    misapplied = [name for name, value in adaptive_only.items() if value is not None]
    if not args.adaptive and misapplied:
        # Refuse rather than silently ignore: without --adaptive the campaign
        # sweeps the full grid and none of the search knobs apply.
        raise ValueError(
            f"{', '.join(misapplied)} appl{'ies' if len(misapplied) == 1 else 'y'} "
            f"to the adaptive driver only; add --adaptive"
        )
    settings = _settings_list(args.settings)
    # Repeated names sweep once, the first occurrence winning (like settings).
    scenarios = list(
        dict.fromkeys(s.strip() for s in (args.scenario or "").split(",") if s.strip())
    )
    for name in scenarios:
        get_scenario(name)  # Fail fast on a typo, before anything flies.
    if not scenarios and args.env not in EXTENDED_ENVIRONMENT_NAMES:
        # Fail fast here too: the resilience engine would otherwise retry
        # and record the deterministic per-spec KeyError instead of
        # surfacing the configuration error.
        raise ValueError(
            f"unknown environment '{args.env}'; "
            f"expected one of {tuple(EXTENDED_ENVIRONMENT_NAMES)}"
        )
    config = CampaignConfig(
        environment=args.env,
        env_seed=args.env_seed,
        scenario=scenarios[0] if len(scenarios) == 1 else None,
        planner_name=args.planner,
        platform=args.platform,
        seed=args.seed,
        mission_time_limit=args.time_limit,
        training_environments=args.training_envs,
        detector_cache_dir=args.cache_dir,
    )
    if args.golden is not None:
        config.num_golden = args.golden
    if args.per_stage is not None:
        config.num_injections_per_stage = args.per_stage
    campaign = Campaign(config)
    if args.adaptive:
        return _run_adaptive_campaign(args, campaign, settings, scenarios)
    if len(scenarios) > 1:
        # Scenario sweep: every requested setting, once per scenario.
        specs = []
        for name in scenarios:
            specs += _campaign_specs(
                Campaign(replace(config, scenario=name)), settings
            )
    else:
        specs = _campaign_specs(campaign, settings)
    executor = get_executor(args.workers)
    store = JsonlResultStore(args.out) if args.out is not None else None
    policy = ResiliencePolicy.from_knobs()
    failures: List = []

    already = 0
    if store is not None and not args.no_resume:
        keys = {spec.key() for spec in specs}
        already = len(keys & store.completed_keys())
    print(
        f"campaign: env={args.env} "
        + (f"scenarios={','.join(scenarios)} " if scenarios else "")
        + f"settings={','.join(settings)} "
        f"specs={len(specs)} (resumed from store: {already}) "
        f"executor={executor.name}"
        + (f" workers={executor.workers}" if hasattr(executor, "workers") else "")
    )

    done = [0]
    total_fresh = len(specs) - already

    def progress(spec: RunSpec, record) -> None:
        done[0] += 1
        if not args.quiet:
            flag = "ok" if record.success else "FAIL"
            print(
                f"  [{done[0]}/{total_fresh}] {spec.setting:<16s} seed={spec.seed:<4d} "
                f"{flag} flight={record.flight_time:.1f}s",
                flush=True,
            )

    start = time.perf_counter()
    results = campaign.run_specs(
        specs,
        executor=executor,
        store=store,
        resume=not args.no_resume,
        on_result=None if args.quiet else progress,
        policy=policy,
        on_failure=failures.append,
    )
    elapsed = time.perf_counter() - start

    by_setting: Dict[str, List] = {}
    for spec, record in zip(specs, results):
        if record is None:
            continue  # failed/quarantined under the resilience policy
        by_setting.setdefault(_spec_label(spec), []).append(record)
    scope = ",".join(scenarios) if scenarios else args.env
    print(
        _summary_table(
            by_setting,
            title=f"Campaign summary ({scope}, {elapsed:.1f}s wall clock)",
        )
    )
    if failures:
        print(_failure_table(failures))
    if store is not None:
        print(f"results: {store.path} ({len(store.load_results())} missions)")
    return 0


def _failure_table(failures: Sequence) -> str:
    """Render captured harness failures grouped by (error type, outcome)."""
    lines = [f"Harness failures ({len(failures)} captured):"]
    groups: Dict[Tuple[str, str], int] = {}
    lost = set()
    for record in failures:
        groups[(record.error_type, record.outcome)] = (
            groups.get((record.error_type, record.outcome), 0) + 1
        )
        if record.outcome in ("failed", "quarantined"):
            lost.add(record.spec_key)
    for (error_type, outcome), count in sorted(groups.items()):
        lines.append(f"  {error_type:<24s} {outcome:<12s} x{count}")
    lines.append(f"  specs without a surviving result: {len(lost)}")
    return "\n".join(lines)


def _cmd_summarize(args: argparse.Namespace) -> int:
    store = JsonlResultStore(args.results)
    # The key-deduplicated view (last write wins), matching resume semantics:
    # a --no-resume re-run appends a second record per key but each mission
    # still counts once.
    results = store.load_results()
    if not results:
        print(f"no intact records in {args.results}")
        return 1
    by_setting: Dict[str, List] = {}
    for result in results.values():
        label = _scenario_label(result.setting, result.scenario)
        by_setting.setdefault(label, []).append(result)
    print(_summary_table(by_setting, title=f"Summary of {args.results}"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        build_report,
        render_report,
        validate_report_file,
        write_report,
    )

    if args.validate is not None:
        report = validate_report_file(args.validate)
        print(
            f"{args.validate}: valid {report['schema']} report "
            f"({report['records']['unique']} missions, "
            f"{len(report['groups'])} groups)"
        )
        return 0
    if not args.results:
        raise ValueError("repro report needs --results (or --validate)")
    missing = [str(path) for path in args.results if not path.exists()]
    if missing:
        raise ValueError(f"result shard(s) not found: {', '.join(missing)}")
    report = build_report(
        args.results,
        confidence=args.confidence,
        bootstrap_resamples=args.bootstrap,
        bootstrap_seed=args.seed,
        title=args.title,
    )
    for row in report.get("shard_health", []):
        if row["corrupt"] > 0:
            print(
                f"WARNING: shard {row['path']} has {row['corrupt']} corrupt "
                f"record(s); the surviving records were aggregated",
                file=sys.stderr,
            )
    conflicting = report["records"]["conflicting_keys"]
    if conflicting > 0:
        print(
            f"WARNING: {conflicting} spec key(s) have conflicting records "
            f"across shards; the digest tie-break kept one record per key",
            file=sys.stderr,
        )
    if not report["records"]["unique"]:
        print(f"no intact records in {', '.join(str(p) for p in args.results)}")
        return 1
    if not args.quiet:
        print(render_report(report))
    if args.out is not None:
        write_report(report, args.out)
        print(f"report: {args.out} ({report['records']['unique']} missions)")
    return 0


def _validate_bench_report(path: Path) -> int:
    """Validate a bench report of either schema (auto-detected)."""
    import json

    from repro.bench import (
        CAMPAIGN_BENCH_SCHEMA,
        validate_campaign_report_file,
        validate_report_file,
    )

    try:
        schema = json.loads(path.read_text()).get("schema")
    except (OSError, json.JSONDecodeError, AttributeError) as error:
        raise ValueError(f"cannot read bench report {path}: {error}") from error
    if schema == CAMPAIGN_BENCH_SCHEMA:
        report = validate_campaign_report_file(path)
        print(
            f"{path}: valid {report['schema']} report "
            f"({len(report['modes'])} modes, "
            f"{report['speedups']['cached_checkpointed_vs_baseline']:.2f}x "
            f"cached+checkpointed vs baseline)"
        )
    else:
        report = validate_report_file(path)
        print(f"{path}: valid {report['schema']} report "
              f"({len(report['kernels'])} kernels)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        DEFAULT_CAMPAIGN_REPORT_NAME,
        DEFAULT_REPORT_NAME,
        format_bench_table,
        format_campaign_table,
        run_bench,
        run_campaign_bench,
    )

    if args.validate is not None:
        return _validate_bench_report(args.validate)
    campaign_only = {
        "--min-speedup": args.min_speedup,
        "--workers": args.workers,
        "--min-parallel-efficiency": args.min_parallel_efficiency,
    }
    misapplied = [name for name, value in campaign_only.items() if value is not None]
    if not args.campaign and misapplied:
        # Refuse rather than silently ignore: a user adding --min-speedup to
        # the hot-path bench would believe a perf gate is enforced when the
        # flag only applies to the campaign bench.
        raise ValueError(
            f"{', '.join(misapplied)} appl{'ies' if len(misapplied) == 1 else 'y'} "
            f"to the campaign bench only; add --campaign (the hot-path bench "
            f"gates on occupancy_integration)"
        )
    if args.campaign:
        out = args.out if args.out is not None else Path(DEFAULT_CAMPAIGN_REPORT_NAME)
        start = time.perf_counter()
        report = run_campaign_bench(
            smoke=args.smoke,
            workers=args.workers,
            out=out,
            min_speedup=args.min_speedup,
            repeats=args.repeats,
            min_parallel_efficiency=args.min_parallel_efficiency,
        )
        elapsed = time.perf_counter() - start
        print(format_campaign_table(report))
        print(
            f"cached+checkpointed speedup vs scratch baseline: "
            f"{report['speedups']['cached_checkpointed_vs_baseline']:.2f}x"
        )
        headline = report["speedups"]["parallel_vs_serial_checkpointed"]
        print(
            f"parallel ({report['modes']['parallel_checkpointed']['workers']} "
            f"workers) vs serial checkpointed: {headline:.2f}x"
        )
        print(f"report: {out} ({elapsed:.1f}s wall clock)")
        return 0
    out = args.out if args.out is not None else Path(DEFAULT_REPORT_NAME)
    start = time.perf_counter()
    report = run_bench(smoke=args.smoke, repeats=args.repeats, out=out)
    elapsed = time.perf_counter() - start
    print(format_bench_table(report))
    occupancy = report["kernels"]["occupancy_integration"]
    print(
        f"occupancy-integration speedup vs scalar reference: "
        f"{occupancy['speedup']:.1f}x"
    )
    print(f"report: {out} ({elapsed:.1f}s wall clock)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(__version__)
            return 0
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "lint":
            from repro.lint.cli import run_from_args

            return run_from_args(args)
    except (ValueError, KeyError) as error:
        # Invalid worker counts, MAVFI_RUNS values, environment names etc.
        # raise with descriptive messages; surface them as one clean line
        # instead of a traceback.
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro campaign | head`) closed the pipe;
        # redirect stdout to devnull so the interpreter shutdown doesn't
        # print a second traceback, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
