#!/usr/bin/env python3
"""Repository benchmark: MAVFI campaign workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload paper_eval --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload late_sweep --trace 1  # per-layer trace
    python3 perfbench/run.py --workload late_sweep --record-expected

Each workload is a closed loop from one process: one batch of run specs at a
time, dispatched through ``Campaign.run_specs`` (the ``repro campaign`` path,
with ``ResiliencePolicy.from_knobs()``) into a fresh ``JsonlResultStore``
shard, then ``build_report`` over that shard.  Passes are flown from cold
engine caches until ``--seconds`` are measured and at least
``MIN_LATENCY_SAMPLES`` per-spec latencies exist.  Each pass flies one vetted
fault draw of the batch (``workloads.py``); the seed picks where in the
cyclic list of vetted draws a run starts.  Tune on seed 0 and re-check a
claim on seed 2, whose draws a seed-0 run never flies.

Every time is host-normalized: a fixed probe kernel runs after each spec and
around each set-up, and the time is rescaled to a host on which the probe
takes ``PROBE_NOMINAL_MS`` (README.md, "Host normalization").

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints per-layer
metrics from a separate, traced run (``tracer.py``).  Every run checks its
output: every spec's record hash against ``expected.json``, every shard
against the returned records, and ``validate_report`` on every report.
``--record-expected`` additionally re-flies one spec per setting of every
draw from scratch, without checkpoint forks.  Any mismatch makes the run
exit 1.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (spec executions without a surviving or correct
record) and ``metrics``.
"""

import argparse
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run artifacts (shards, span dumps, run records); listed in .gitignore.
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

WORKLOAD_NAMES = ("paper_eval", "late_sweep", "scenario_pool")
#: Set-ups per ``--trace 0`` run; ``setup_s`` adds their median to the
#: median start-up of ``IMPORT_REPEATS`` fresh interpreters.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
#: What a fresh interpreter runs before its first set-up.
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import run; run.import_repro(); import workloads"
)
#: A p90 needs at least 10 samples beyond it.
MIN_LATENCY_SAMPLES = 100
#: The host-speed probe (``_probe_kernel``) runs ``PROBE_STEPS`` interpreter
#: steps among its other work.  Timed metrics are rescaled to a host on which
#: one probe takes ``PROBE_NOMINAL_MS`` (about what it takes on a 2-vCPU
#: development VM).
PROBE_STEPS = 300
PROBE_NOMINAL_MS = 2.5
#: Probes per side of a timed set-up, and neighbours on each side of a spec
#: whose probes are pooled (median) into that spec's host speed.
SETUP_PROBES = 10
PROBE_HALF_WINDOW = 8
#: Hex digits of each record's sha256 kept in expected.json.
DIGEST_CHARS = 16

END_TO_END_UNITS = {
    "specs_per_s": "specs/s",
    "spec_ms_p50": "ms",
    "spec_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and import the engine."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no {SRC / 'repro'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    # A fresh `import repro.perception` (or planning/control) dies on a
    # package-init import cycle; entering through repro.pipeline works both
    # with the cycle and once it is fixed.
    import repro.pipeline  # noqa: F401
    import repro.core.campaign  # noqa: F401


@functools.lru_cache(maxsize=None)
def _probe_data():
    """Fixed inputs of the probe: a 4 MB array with gather indices, a
    50k-key dict with lookup keys, and a 20k-element array."""
    import numpy as np

    rng = np.random.default_rng(0)
    large = rng.random(1 << 19)
    table = {key: float(key) for key in range(50_000)}
    return (
        large,
        rng.integers(0, large.size, 4000),
        table,
        [int(key) for key in rng.integers(0, len(table), 3000)],
        rng.random(20_000),
    )


def _probe_kernel() -> float:
    """Interpreter steps, small-array numpy calls, cache-missing gathers and
    dict lookups, and medium-array arithmetic: the program's kinds of work."""
    import numpy as np

    large, gather, table, keys, medium = _probe_data()
    scratch: Dict[int, float] = {}
    total = 0.0
    vector = np.arange(3.0)
    for index in range(PROBE_STEPS):
        scratch[index % 17] = total
        total += (index * 0.5) % 7
        vector = vector * 0.999 + 0.001
    total += float(large[gather].sum())
    for key in keys:
        total += table[key]
    for _ in range(20):
        medium = np.sqrt(medium * medium + 1.0)
    return total + float(np.dot(vector, vector)) + float(medium.sum()) + len(scratch)


def probe_ms() -> float:
    """How long this host takes for one run of the probe kernel now, in ms."""
    start = perf_counter()
    _probe_kernel()
    return (perf_counter() - start) * 1e3


def host_normalized(times: List[float], probes: List[float]) -> List[float]:
    """Rescale each time to the nominal host, by the median probe around it.

    ``probes[i]`` was taken right after ``times[i]`` was measured; the shared
    host's speed drifts by tens of percent within a minute, and the probe's
    rolling median tracks that drift.
    """
    scaled = []
    for index, value in enumerate(times):
        near = probes[max(0, index - PROBE_HALF_WINDOW) : index + PROBE_HALF_WINDOW + 1]
        scaled.append(value * PROBE_NOMINAL_MS / statistics.median(near))
    return scaled


def timed_on_host(action):
    """(result, wall s, host-normalized s) of one call of ``action``."""
    before = [probe_ms() for _ in range(SETUP_PROBES)]
    start = perf_counter()
    result = action()
    wall = perf_counter() - start
    after = [probe_ms() for _ in range(SETUP_PROBES)]
    return result, wall, wall * PROBE_NOMINAL_MS / statistics.median(before + after)


def fresh_import() -> None:
    """One fresh interpreter from start to engine imported."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], cwd=ROOT, check=True)


def record_hash(record: Dict) -> str:
    """Truncated sha256 of a result record's canonical sorted-key JSON."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:DIGEST_CHARS]


def reset_engine_caches() -> None:
    from repro.core import checkpoint
    from repro.pipeline import builder

    checkpoint.reset_checkpoint_caches()
    builder.reset_world_cache()


@dataclass
class Prepared:
    """A workload ready for its first dispatch."""

    campaign: object
    specs: list
    executor: object
    policy: object


def set_up(workload, workers: int) -> Prepared:
    """Spec generation, detector training (no cache), executor and policy."""
    import workloads
    from repro.core.executor import ParallelExecutor, SerialExecutor
    from repro.core.resilience import ResiliencePolicy

    reset_engine_caches()
    campaign, specs = workloads.build(workload)
    if workload.detectors:
        campaign.ensure_detectors()
    executor = SerialExecutor() if workers == 1 else ParallelExecutor(workers=workers)
    return Prepared(campaign, specs, executor, ResiliencePolicy.from_knobs())


@contextmanager
def pool_spec_times(directory: Path):
    """Per-spec execution times inside pool workers, as measured and
    host-normalized, filled in on exit.

    Pool results arrive a whole prefix group at a time, so the parent cannot
    time single specs.  ``execute_spec`` is wrapped before the pool forks;
    each process appends its spec times, each followed by a host-speed
    probe, to its own file, read back at exit.  Workers started by ``spawn``
    or ``forkserver`` import an unwrapped module and write nothing, so an
    empty result is an error.
    """
    from repro.core import executor

    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.txt"):
        stale.unlink()
    original = executor.execute_spec

    def timed(spec, detectors=None):
        start = perf_counter()
        try:
            return original(spec, detectors)
        finally:
            elapsed_ms = (perf_counter() - start) * 1e3
            with open(directory / f"{os.getpid()}.txt", "a") as handle:
                handle.write(f"{elapsed_ms!r} {probe_ms()!r}\n")

    times: List[float] = []
    scaled: List[float] = []
    executor.execute_spec = timed
    try:
        yield times, scaled
    finally:
        executor.execute_spec = original
        for path in sorted(directory.glob("*.txt")):
            rows = [line.split() for line in path.read_text().splitlines()]
            worker_times = [float(row[0]) for row in rows]
            times += worker_times
            scaled += host_normalized(worker_times, [float(row[1]) for row in rows])
            path.unlink()
    if not times:
        raise SystemExit(
            "error: the pool workers timed no spec; per-spec pool times need "
            f"the fork start method (this host's is {multiprocessing.get_start_method()})"
        )


@dataclass
class Pass:
    """One flight of one fault draw of the batch."""

    draw: int
    specs: list
    #: Wall time of ``run_specs``, without the probes the parent ran.
    wall_s: float
    latencies_ms: List[float]
    #: The same, host-normalized (see ``host_normalized``).
    scaled_wall_s: float
    scaled_latencies_ms: List[float]
    #: Record digests in batch order; ``None`` where no result survived.
    digests: List[Optional[str]]
    failures: list
    checkpoint: Dict[str, float]
    effective_workers: int
    shard: Path
    shard_mismatches: int
    report_error: str = ""


def fly(prepared: Prepared, draw: int, shard: Path) -> Pass:
    """Dispatch one fault draw, from cold engine caches, into a fresh shard."""
    import workloads
    from repro.core import checkpoint
    from repro.core.results import JsonlResultStore, mission_result_to_dict

    specs = workloads.fault_draw(prepared.specs, draw)
    reset_engine_caches()
    shard.parent.mkdir(parents=True, exist_ok=True)
    shard.unlink(missing_ok=True)
    failures: list = []
    pooled = getattr(prepared.executor, "distributed", False)
    # Serial: a spec's time is the gap since the previous callback ended; the
    # callback then probes the host, which the gaps and the wall leave out.
    latencies: List[float] = []
    probes: List[float] = []
    last_edge = probing_s = 0.0

    def on_result(spec, record) -> None:
        nonlocal last_edge, probing_s
        if pooled:
            return
        now = perf_counter()
        latencies.append((now - last_edge) * 1e3)
        probes.append(probe_ms())
        last_edge = perf_counter()
        probing_s += last_edge - now

    with pool_spec_times(OUT / "work") if pooled else nullcontext() as worker_times:
        start = last_edge = perf_counter()
        results = prepared.campaign.run_specs(
            specs,
            executor=prepared.executor,
            store=JsonlResultStore(shard),
            on_result=on_result,
            policy=prepared.policy,
            on_failure=failures.append,
        )
        wall_s = perf_counter() - start - probing_s
    if pooled:
        latencies, scaled = worker_times
    else:
        scaled = host_normalized(latencies, probes)
    # The wall rescaled by the time-weighted host speed of its specs.
    scaled_wall_s = wall_s * sum(scaled) / sum(latencies)
    digests = [
        None if result is None else record_hash(mission_result_to_dict(result))
        for result in results
    ]
    on_disk = {}
    with shard.open() as handle:
        for line in handle:
            line_record = json.loads(line)
            if "result" in line_record:
                on_disk[line_record["key"]] = record_hash(line_record["result"])
    stats = getattr(prepared.executor, "last_checkpoint_stats", None)
    if stats is None:
        stats = checkpoint.checkpoint_stats()
    return Pass(
        draw=draw,
        specs=specs,
        wall_s=wall_s,
        latencies_ms=latencies,
        scaled_wall_s=scaled_wall_s,
        scaled_latencies_ms=scaled,
        digests=digests,
        failures=failures,
        checkpoint=stats.as_dict(),
        effective_workers=int(getattr(prepared.executor, "last_effective_workers", 1)),
        shard=shard,
        shard_mismatches=sum(
            1
            for spec, digest in zip(specs, digests)
            if digest is not None and on_disk.get(spec.key()) != digest
        ),
    )


def report(flown: Pass) -> None:
    """Build the pass's report (the ``repro report`` step) and validate it."""
    from repro.analysis.report import build_report, validate_report

    try:
        validate_report(build_report([flown.shard]))
    except ValueError as error:
        flown.report_error = str(error)


def fly_for(
    prepared: Prepared,
    draws: Iterator[int],
    seconds: float,
    label: str,
    min_samples: int = 0,
) -> List[Pass]:
    """Fly passes until ``seconds`` are measured and ``min_samples`` per-spec
    latencies exist."""
    passes: List[Pass] = []
    while (
        not passes
        or sum(p.wall_s for p in passes) < seconds
        or sum(len(p.latencies_ms) for p in passes) < min_samples
    ):
        shard = OUT / "shards" / f"{label}-{len(passes)}.jsonl"
        passes.append(fly(prepared, next(draws), shard))
        report(passes[-1])
    return passes


def specs_per_s(passes: List[Pass], scaled: bool = True) -> float:
    """Host-normalized throughput, or as measured with ``scaled=False``."""
    wall = sum(p.scaled_wall_s if scaled else p.wall_s for p in passes)
    return sum(len(p.digests) for p in passes) / wall


@dataclass
class Check:
    """Correctness bookkeeping of one run."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} {note}")


def lost_specs(flown: Pass) -> int:
    return sum(1 for digest in flown.digests if digest is None)


def check_passes(passes: List[Pass], expected: Dict[str, List[str]], check: Check, label: str) -> None:
    """Every spec has a result, the shard holds it, and it is the expected one."""
    for flown in passes:
        check.count(len(flown.digests), lost_specs(flown), f"{label} specs without a surviving result")
        check.count(0, flown.shard_mismatches, f"{label} shard records differ from the returned ones")
        check.count(0, int(bool(flown.report_error)), f"{label} report invalid: {flown.report_error}")
        stored = expected[str(flown.draw)]
        differ = sum(
            1
            for got, want in itertools.zip_longest(flown.digests, stored)
            if got is not None and got != want
        )
        check.count(0, differ, f"{label} records differ from expected.json (draw {flown.draw})")


def scratch_check(prepared: Prepared, flown: Pass, check: Check) -> None:
    """Re-fly one seeded spec per setting from scratch (no checkpoint forks)."""
    import numpy as np

    from repro.core import checkpoint, knobs
    from repro.core.executor import execute_spec
    from repro.core.results import mission_result_to_dict

    by_setting: Dict[str, list] = {}
    for spec, digest in zip(flown.specs, flown.digests):
        by_setting.setdefault(spec.setting, []).append((spec, digest))
    rng = np.random.default_rng(flown.draw)
    chosen = [group[int(rng.integers(len(group)))] for _, group in sorted(by_setting.items())]
    detectors = prepared.campaign.detector_objects()
    with knobs.temporary({checkpoint.NO_CHECKPOINT_ENV: "1"}):
        reset_engine_caches()
        differ = sum(
            1
            for spec, digest in chosen
            if record_hash(mission_result_to_dict(execute_spec(spec, detectors))) != digest
        )
    check.count(len(chosen), differ, "from-scratch re-executions differ from the dispatched records")


def draw_schedule(workload, expected: Dict[str, List[str]], seed: int) -> Iterator[int]:
    """The vetted draws a run flies, cyclically from ``seed * stride``."""
    vetted = sorted(int(draw) for draw in expected)
    return (vetted[(seed * workload.stride + index) % len(vetted)] for index in itertools.count())


def outcome_table(flown: Pass) -> List[str]:
    """Simulated success rate and mean flight time per setting (must repeat)."""
    from repro.core.qof import summarize_runs
    from repro.core.results import JsonlResultStore

    results = JsonlResultStore(flown.shard).load_results()
    by_setting: Dict[str, list] = {}
    for spec in flown.specs:
        record = results.get(spec.key())
        if record is not None:
            by_setting.setdefault(spec.setting, []).append(record)
    lines = []
    for setting, records in sorted(by_setting.items()):
        summary = summarize_runs(records)
        lines.append(
            f"  {setting:<16s} runs={summary.num_runs:<4d} success={summary.success_rate:.4f} "
            f"mean_flight_s={summary.mean_flight_time:.4f}"
        )
    return lines


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_context(workload, effective_workers: int) -> Dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "requested_workers": workload.workers,
        "effective_workers": effective_workers,
    }


def scaling_state(workload, effective_workers: int) -> str:
    if workload.workers == 1:
        return "serial"
    # One effective worker measures nothing about parallelism: unmeasured,
    # not failed.
    return "measured" if effective_workers >= 2 else "unmeasured"


def end_to_end(workload, draws: Iterator[int], seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        prepared, *times = timed_on_host(lambda: set_up(workload, workload.workers))
        setups.append(times)
    passes = fly_for(
        prepared, draws, seconds, f"{workload.name}-e2e", min_samples=MIN_LATENCY_SAMPLES
    )
    rss_mb = peak_rss_mb()
    # Timed after the peak RSS is read: the fresh interpreters are child
    # processes too.
    imports = [timed_on_host(fresh_import)[1:] for _ in range(IMPORT_REPEATS)]

    def timings(scaled: int) -> Dict[str, float]:
        latencies = [
            ms for p in passes for ms in (p.scaled_latencies_ms if scaled else p.latencies_ms)
        ]
        p50, p90 = statistics.quantiles(latencies, n=10, method="inclusive")[4::4]
        return {
            "specs_per_s": specs_per_s(passes, scaled=bool(scaled)),
            "spec_ms_p50": p50,
            "spec_ms_p90": p90,
            "setup_s": statistics.median(s[scaled] for s in imports)
            + statistics.median(s[scaled] for s in setups),
        }

    metrics = {**timings(1), "peak_rss_mb": rss_mb}
    as_measured = timings(0)
    notes = [
        f"latency samples={sum(len(p.latencies_ms) for p in passes)}"
        + (" (per-spec execution time in the pool workers)" if workload.workers > 1 else ""),
        f"setup: median of {IMPORT_REPEATS} fresh-interpreter imports "
        + ", ".join(f"{s[0]:.3f}" for s in imports)
        + f" + median of {SETUP_REPEATS} set-ups "
        + ", ".join(f"{s[0]:.3f}" for s in setups)
        + " (wall s)",
        f"host probe median {statistics.median(probe_ms() for _ in range(SETUP_PROBES)):.4f} ms "
        f"(nominal {PROBE_NOMINAL_MS} ms); timed metrics below are host-normalized",
        "as measured (wall, not normalized): "
        + ", ".join(f"{name} {value:.6g}" for name, value in as_measured.items()),
    ]
    return prepared, {"pass": passes}, metrics, notes


def per_layer(workload, schedule, seconds: float):
    """Untraced reference passes, then the traced run; each phase measures
    half of ``seconds`` so the whole run stays within a few ``seconds``."""
    from tracer import Tracer

    seconds /= 2
    prepared = set_up(workload, workload.workers)
    runs = {"untraced pass": fly_for(prepared, schedule(), seconds, f"{workload.name}-base")}
    base = serial = runs["untraced pass"]
    if workload.workers > 1:
        # Parallel efficiency needs the same batch's serial throughput, and
        # the traced run below is serial: pool workers' spans never reach us.
        serial = runs["serial pass"] = fly_for(
            set_up(workload, 1), schedule(), seconds, f"{workload.name}-serial"
        )

    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        traced_prepared = set_up(workload, 1)
        traced = runs["traced pass"] = fly_for(
            traced_prepared, schedule(), seconds, f"{workload.name}-traced"
        )
        traced_wall = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(OUT / "spans" / f"{workload.name}.npz")
    table, unattributed = tracer.layer_table(traced_wall)

    ckpt = base[0].checkpoint
    effective = base[0].effective_workers
    untraced_serial = specs_per_s(serial)
    metrics: Dict[str, float] = {
        f"{span}.{key}": value for span, row in table.items() for key, value in row.items()
    }
    failures = [f for p in base for f in p.failures]
    metrics.update(
        {
            "checkpoint.forks": ckpt["forks"],
            "checkpoint.cursors_built": ckpt["cursors_built"],
            "checkpoint.saved_ratio": (
                ckpt["prefix_sim_seconds_saved"] / ckpt["forked_prefix_sim_seconds"]
                if ckpt["forked_prefix_sim_seconds"]
                else 0.0
            ),
            "executor.effective_workers": effective,
            "executor.parallel_efficiency": specs_per_s(base) / (untraced_serial * max(effective, 1)),
            "resilience.failures": sum(1 for f in failures if f.outcome != "retried"),
            "resilience.retries": sum(1 for f in failures if f.outcome == "retried"),
            "unattributed.share": unattributed,
            "trace.overhead": (untraced_serial - specs_per_s(traced)) / untraced_serial,
        }
    )
    notes = [
        f"traced wall {traced_wall:.3f} s over {len(tracer.start)} spans "
        f"(set-up, then {len(traced)} serial pass(es) each with its report)",
        f"untraced serial {untraced_serial:.3f} specs/s, traced {specs_per_s(traced):.3f} specs/s",
    ]
    return prepared, runs, metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith((".share", ".saved_ratio", ".parallel_efficiency", ".overhead")):
        return "ratio"
    return "count"


def load_expected(name: str) -> Dict[str, List[str]]:
    stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    return stored.get(name, {})


def record_expected(name: str) -> int:
    """Fly fault draws 0, 1, ... and keep the first ``workload.draws`` whose
    every spec leaves a result; write their record digests to expected.json."""
    import workloads

    workload = workloads.WORKLOADS[name]
    prepared = set_up(workload, workload.workers)
    kept: Dict[str, List[str]] = {}
    check = Check()
    for draw in itertools.count():
        if len(kept) == workload.draws:
            break
        flown = fly(prepared, draw, OUT / "shards" / f"{name}-record.jsonl")
        lost = lost_specs(flown)
        if lost:
            print(f"draw {draw} dropped: {lost} spec(s) raised on every attempt")
            continue
        check.count(0, flown.shard_mismatches, f"draw {draw} shard records differ")
        scratch_check(prepared, flown, check)
        kept[str(draw)] = flown.digests
        print(f"draw {draw} kept ({len(flown.digests)} records, {flown.wall_s:.2f} s)")
    if check.failed:
        print("\n".join(f"recording FAILED: {note}" for note in check.notes))
        return 1
    stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    stored[name] = kept
    EXPECTED.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
    print(f"expected.json: {name} now holds draws {', '.join(kept)}")
    return 0


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_repro()
    import workloads

    os.environ["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    workload = workloads.WORKLOADS[name]
    expected = load_expected(name)
    if not expected:
        raise SystemExit(f"error: expected.json has no {name} draws; run with --record-expected")
    probe_ms()  # builds the probe's inputs before anything is timed

    def schedule() -> Iterator[int]:
        return draw_schedule(workload, expected, seed)

    if trace:
        prepared, runs, metrics, notes = per_layer(workload, schedule, seconds)
        units = {metric: layer_unit(metric) for metric in metrics}
    else:
        prepared, runs, metrics, notes = end_to_end(workload, schedule(), seconds)
        units = END_TO_END_UNITS
    check = Check()
    for label, passes in runs.items():
        check_passes(passes, expected, check, label)
    first = next(iter(runs.values()))

    effective = first[0].effective_workers
    host = host_context(workload, effective)
    scaling = scaling_state(workload, effective)
    print(f"workload {name} seed={seed} trace={int(trace)} scaling={scaling}")
    print("host " + " ".join(f"{key}={value}" for key, value in host.items()))
    print(
        f"passes={len(first)} specs/pass={len(prepared.specs)} draws="
        + ",".join(str(p.draw) for p in first)
        + " walls [s]="
        + ",".join(f"{p.wall_s:.3f}" for p in first)
    )
    for note in notes:
        print(note)
    print(f"simulated outcomes of draw {first[0].draw} (repeat exactly; not validated against real flight):")
    for line in outcome_table(first[0]):
        print(line)
    for note in check.notes:
        print(f"correctness FAILED: {note}")
    print(f"spec_error_rate {check.failed / check.attempted:.6f} ratio ({check.failed}/{check.attempted})")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units[metric]}")

    correct = check.failed == 0
    result = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }
    records = OUT / "results"
    records.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "host": host, "scaling": scaling,
        "notes": notes, **result,
    }
    (records / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process (peak RSS is per process)."""
    combined: Dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or completed.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help="vet the workload's fault draws and store their record hashes in expected.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_expected:
        if args.workload == "all":
            parser.error("--record-expected needs one --workload")
        import_repro()
        return record_expected(args.workload)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
