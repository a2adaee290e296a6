"""Campaign execution engine: picklable run specs and pluggable executors.

The paper's evaluation campaigns run hundreds of independent missions per
environment.  Each mission is described here by a :class:`RunSpec` -- a small,
picklable record of *what* to fly (environment, seeds, planner, platform),
*which* fault to inject (an optional :class:`~repro.core.injector.FaultPlan`)
and *which* detection scheme to attach (a detector tag, not a live object, so
that specs can cross process boundaries).  Executors turn lists of specs into
:class:`~repro.pipeline.runner.MissionResult` streams:

* :class:`SerialExecutor` -- runs specs in order in the calling process; the
  default and the reference for determinism.
* :class:`ParallelExecutor` -- fans specs out over ``multiprocessing``
  worker processes, one pipe each; worker count comes from the
  ``MAVFI_WORKERS`` environment variable (or the constructor), each worker
  flies one whole prefix group at a time and reports every spec's start,
  failed attempts and result as they happen, and the parent reconstructs
  the detectors the batch names from each spec's campaign configuration and
  hands them to every worker it starts; workers build their own worlds and
  cursors.

Because every mission is fully seeded, the two executors produce bit-identical
result streams for the same spec list; :func:`execute_specs` additionally
persists results to a JSONL store as they arrive and skips specs whose
deterministic key is already present (resume-from-partial-campaign).

Every dispatch runs under a :class:`~repro.core.resilience.ResiliencePolicy`
value: the default, ``PASS_THROUGH``, re-raises the first failure; a capturing
policy turns failures into records, retries them and replaces lost workers.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import multiprocessing
import os
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core import knobs
from repro.core.injector import FaultInjectorNode, FaultPlan
from repro.core.resilience import (
    OUTCOME_FAILED,
    OUTCOME_QUARANTINED,
    OUTCOME_RETRIED,
    PASS_THROUGH,
    ChaosSchedule,
    FailureCallback,
    FailureRecord,
    ResiliencePolicy,
    crash_failure,
    guarded_execute,
    hang_failure,
)
from repro.pipeline.builder import (
    PipelineConfig,
    build_pipeline,
    construction_caches_enabled,
)
from repro.pipeline.runner import DEFAULT_ABORT_GRACE, MissionResult, MissionRunner
from repro.scenarios import Scenario, resolve_scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.campaign import CampaignConfig
    from repro.core.checkpoint import CheckpointStats
    from repro.core.results import JsonlResultStore

#: Detector tags a :class:`RunSpec` may carry.  ``gaussian`` and
#: ``autoencoder`` are reconstructible in worker processes from the campaign
#: configuration (training-environment count, cache directory, planner and
#: platform); ``custom`` refers to an in-memory detector object supplied by
#: the caller and therefore only works with the serial executor.
DETECTOR_GAUSSIAN = "gaussian"
DETECTOR_AUTOENCODER = "autoencoder"
DETECTOR_CUSTOM = "custom"
RECONSTRUCTIBLE_DETECTORS = (DETECTOR_GAUSSIAN, DETECTOR_AUTOENCODER)

#: Streaming callback type: invoked once per completed spec (possibly out of
#: submission order under the parallel executor).
ResultCallback = Callable[["RunSpec", MissionResult], None]


@dataclass(frozen=True)
class RunSpec:
    """Picklable description of one campaign mission.

    ``config`` is the owning campaign's :class:`CampaignConfig`; ``seed`` is
    the mission seed, ``index`` the spec's position within its generated batch
    (kept for ordering and reporting; it does not enter the spec key).
    ``planner_name`` and ``platform`` override the campaign defaults for
    per-kernel characterisation runs; ``scenario`` (a registered name or a
    :class:`~repro.scenarios.Scenario`) overrides the campaign's scenario for
    scenario-sweep runs.
    """

    config: "CampaignConfig"
    setting: str
    seed: int
    index: int = 0  # repro-lint: disable=RL008 ordering/reporting metadata; two specs differing only in index are the same mission
    fault_plan: Optional[FaultPlan] = None
    detector: Optional[str] = None
    planner_name: Optional[str] = None
    platform: Optional[str] = None
    scenario: Optional[Union[str, Scenario]] = None

    def effective_scenario(self) -> Optional[Scenario]:
        """The scenario this spec flies under (spec override, else campaign)."""
        scenario = self.scenario
        if scenario is None:
            scenario = getattr(self.config, "scenario", None)
        return resolve_scenario(scenario)

    def key(self) -> str:
        """Deterministic identity of this spec (stable across processes).

        Two specs with the same key describe the same fully-seeded mission
        and therefore the same :class:`MissionResult`; the JSONL resume logic
        relies on this to skip already-completed runs.
        """
        return hashlib.sha1(repr(self._canonical()).encode("utf-8")).hexdigest()[:16]

    def prefix_key(self) -> str:
        """Identity of this spec's fault-free *prefix* (stable across processes).

        Two specs with the same prefix key fly bit-identical missions up to
        their fault-activation times: same pipeline, seed, scenario, detector
        and timing -- only the fault plan (and the setting label) may differ.
        The golden-prefix checkpoint engine keys its cursors on this, and the
        execution engine groups spec batches by it so each pool task is one
        whole prefix group.
        """
        return hashlib.sha1(
            repr(self.prefix_canonical()).encode("utf-8")
        ).hexdigest()[:16]

    def prefix_canonical(self) -> Tuple:
        """Canonical tuple of everything that shapes the fault-free prefix."""
        return ("prefix-v1", *self._prefix_fields())

    def _prefix_fields(self) -> Tuple:
        cfg = self.config
        environment = getattr(cfg.environment, "name", cfg.environment)
        platform = getattr(cfg.platform, "name", cfg.platform)
        scenario = self.effective_scenario()
        return (
            scenario.canonical() if scenario is not None else (),
            int(self.seed),
            self.detector or "",
            # A detector-bearing spec's result depends on how the detector is
            # trained; detector-free runs deliberately ignore these so golden
            # results resume across detector-configuration changes.
            int(cfg.training_environments) if self.detector else 0,
            self.planner_name or "",
            self.platform or "",
            str(environment),
            int(cfg.env_seed),
            cfg.planner_name,
            str(platform),
            round(float(cfg.mission_time_limit), 9),
            round(float(cfg.time_step), 9),
            round(float(getattr(cfg, "abort_grace", DEFAULT_ABORT_GRACE)), 9),
        )

    def _canonical(self) -> Tuple:
        plan = self.fault_plan
        plan_fields: Tuple = ()
        if plan is not None:
            plan_fields = (
                plan.target_type,
                plan.target,
                round(float(plan.injection_time), 9),
                plan.bit,
                plan.bit_field.value,
                plan.seed,
            )
        return ("runspec-v3", self.setting, *self._prefix_fields(), plan_fields)


# --------------------------------------------------------------- spec running
#: Per-process cache of reconstructed detectors, keyed by the training
#: parameters that determine them.  Worker processes fill this lazily on the
#: first spec that needs a detector and reuse it for the rest of the campaign.
_PROCESS_DETECTORS: Dict[Tuple, object] = {}


def _reconstruct_detector(spec: RunSpec) -> object:
    """Train (or load cached) the detector named by ``spec.detector``.

    Training is fully seeded, so independently reconstructing a detector in
    every worker yields the same detector the parent process would train; when
    the campaign configuration names a ``detector_cache_dir`` the workers load
    the cached detectors instead of retraining.
    """
    from repro.detection.training import train_detectors

    cfg = spec.config
    base_key = (
        int(cfg.training_environments),
        str(cfg.detector_cache_dir) if cfg.detector_cache_dir else "",
        cfg.planner_name,
        str(getattr(cfg.platform, "name", cfg.platform)),
    )
    cache_key = (spec.detector, *base_key)
    if cache_key not in _PROCESS_DETECTORS:
        training = train_detectors(
            num_environments=cfg.training_environments,
            cache_dir=cfg.detector_cache_dir,
            planner_name=cfg.planner_name,
            platform=cfg.platform,
        )
        # One training session yields both detectors; cache both so a mixed
        # D&R campaign trains at most once per worker process.
        _PROCESS_DETECTORS[(DETECTOR_GAUSSIAN, *base_key)] = training.gad
        _PROCESS_DETECTORS[(DETECTOR_AUTOENCODER, *base_key)] = training.aad
    return _PROCESS_DETECTORS[cache_key]


def _resolve_detector(
    spec: RunSpec, detectors: Optional[Mapping[str, object]]
) -> Optional[object]:
    if spec.detector is None:
        return None
    if detectors is not None and detectors.get(spec.detector) is not None:
        return detectors[spec.detector]
    if spec.detector in RECONSTRUCTIBLE_DETECTORS:
        return _reconstruct_detector(spec)
    raise ValueError(
        f"detector tag {spec.detector!r} cannot be reconstructed in a worker "
        f"process; pass the detector object via the serial executor instead"
    )


def pipeline_config_for(spec: RunSpec) -> PipelineConfig:
    """The :class:`PipelineConfig` a spec's mission is built from.

    Shared by the from-scratch path and the golden-prefix cursor so both
    construct bit-identical pipelines.
    """
    cfg = spec.config
    return PipelineConfig(
        environment=cfg.environment,
        env_seed=cfg.env_seed,
        scenario=spec.effective_scenario(),
        planner_name=spec.planner_name or cfg.planner_name,
        platform=spec.platform or cfg.platform,
        seed=spec.seed,
        mission_time_limit=cfg.mission_time_limit,
    )


def fork_detector(detector: object) -> object:
    """Per-mission detector instance: cheap state fork, or deep copy.

    Detectors exposing ``fork_for_run`` (GAD, AAD) share their frozen trained
    parameters and get fresh per-mission state; anything else falls back to
    the historical per-run ``copy.deepcopy``.  With ``REPRO_NO_CACHE=1`` the
    deep copy is always used (the pre-cache reference behaviour).
    """
    fork = getattr(detector, "fork_for_run", None)
    if fork is not None and construction_caches_enabled():
        return fork()
    return copy.deepcopy(detector)


def _abort_grace(cfg: "CampaignConfig") -> float:
    return float(getattr(cfg, "abort_grace", DEFAULT_ABORT_GRACE))


def _execute_spec_scratch(spec: RunSpec, detector: Optional[object]) -> MissionResult:
    """Fly ``spec`` from scratch (build, launch, step to termination)."""
    from repro.detection.node import attach_detection

    cfg = spec.config
    handles = build_pipeline(pipeline_config_for(spec))
    if detector is not None:
        attach_detection(handles, fork_detector(detector))
    injector = None
    if spec.fault_plan is not None:
        injector = FaultInjectorNode(spec.fault_plan, handles.kernels)
        handles.graph.add_node(injector)
    runner = MissionRunner(
        handles, time_step=cfg.time_step, abort_grace=_abort_grace(cfg)
    )
    result = runner.run(
        setting=spec.setting,
        seed=spec.seed,
        fault_target=spec.fault_plan.target if spec.fault_plan else "",
    )
    if injector is not None:
        result.fault_description = injector.description
    return result


def execute_spec(
    spec: RunSpec, detectors: Optional[Mapping[str, object]] = None
) -> MissionResult:
    """Fly the mission described by ``spec`` and return its result.

    ``detectors`` optionally maps detector tags to live detector objects (the
    serial path); without it, reconstructible tags are trained or loaded in
    this process.  Each run gets its own detector state via
    :func:`fork_detector`, so one run's detector state never leaks into the
    next.

    Specs are served from the golden-prefix checkpoint engine when possible
    (:mod:`repro.core.checkpoint`): fault-free prefixes are flown once per
    (config, seed, scenario, detector) identity and injection runs fork from
    the snapshot.  ``REPRO_NO_CHECKPOINT=1`` forces every spec from scratch;
    ``REPRO_CHECKPOINT_VERIFY=1`` additionally cross-checks every forked
    result against a scratch run and raises on divergence.
    """
    from repro.core import checkpoint

    detector = _resolve_detector(spec, detectors)
    result = None
    if checkpoint.checkpointing_enabled() and checkpoint.supports_spec(spec):
        result = checkpoint.manager().run_spec(spec, detector)
        if result is not None and checkpoint.verification_enabled():
            from repro.core.results import mission_results_equal

            scratch = _execute_spec_scratch(spec, detector)
            if not mission_results_equal(result, scratch):
                raise checkpoint.CheckpointDivergenceError(
                    f"checkpoint fork diverged from scratch execution for "
                    f"spec {spec.key()} ({spec.setting}, seed {spec.seed}, "
                    f"fault {spec.fault_plan})"
                )
    if result is None:
        result = _execute_spec_scratch(spec, detector)
    if spec.fault_plan is not None:
        # Stamp the fault activation time so the time-to-detect analysis can
        # compare it against the result's first_alarm_time without needing
        # the spec (stamped here, after the verify cross-check, so both
        # execution paths produce identical pre-stamp results).
        result.injection_time = float(spec.fault_plan.injection_time)
    return result


#: One pool task: the (position, spec) pairs of one prefix group (or of the
#: part of it a lost worker left unflown), in cache order, and the attempts
#: each spec already used up in earlier workers.
GroupTask = Tuple[List[Tuple[int, "RunSpec"]], Dict[str, int]]


def _pool_worker(
    conn: Connection,
    detectors: Mapping[Tuple, object],
    policy: ResiliencePolicy,
    schedule: Optional[ChaosSchedule],
) -> None:
    """Pool process entry: fly the prefix groups the parent sends over ``conn``.

    ``detectors`` holds :data:`_PROCESS_DETECTORS` entries the parent
    reconstructed, keyed the same way, so this process's specs find them
    instead of training again: a ``fork`` worker inherits the mapping at no
    cost, a ``spawn`` worker unpickles it once.  Everything else -- the
    generated worlds and each group's golden-prefix cursor -- the worker
    builds on first use, because rebuilding a cursor costs less than
    pickling one.

    Every spec goes through :func:`~repro.core.resilience.guarded_execute`,
    and the worker reports as it goes: ``("start",)`` before each spec, one
    ``("failure", record)`` per failed attempt, ``("done", status, result)``
    after it, and ``("idle", delta)`` with the group's checkpoint-statistics
    delta once the group is through.  So the parent always knows which spec
    and attempt a lost worker was flying.  Under a pass-through policy the
    first mission exception goes back as ``("error", exc)`` and the worker
    exits.
    """
    from repro.core import checkpoint

    _PROCESS_DETECTORS.update(detectors)

    def report(record: FailureRecord) -> None:
        conn.send(("failure", record))

    while True:
        try:
            specs, bases = conn.recv()
        except EOFError:
            return
        before = checkpoint.checkpoint_stats().raw_dict()
        for spec in specs:
            conn.send(("start",))
            try:
                status, result, _ = guarded_execute(
                    spec, None, policy, schedule, bases.get(spec.key(), 0), report,
                    in_worker=True,
                )
            except Exception as exc:
                # Only a pass-through policy lets one out of guarded_execute.
                conn.send(("error", exc))
                return
            conn.send(("done", status, result))
        conn.send(("idle", checkpoint.diff_raw(checkpoint.checkpoint_stats().raw_dict(), before)))


class _PoolWorker:
    """One pool process, its pipe, and what the parent knows of its progress."""

    def __init__(self, ctx, payload: Tuple) -> None:
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_pool_worker, args=(child, *payload), daemon=True)
        self.process.start()
        child.close()
        #: Whether a group is assigned and its ``idle`` report not yet read.
        self.busy = False
        #: The group's unfinished pairs, the one in flight first.
        self.rest: List[Tuple[int, RunSpec]] = []
        self.bases: Dict[str, int] = {}
        #: Attempts the spec in flight has used up; None between specs.
        self.attempt: Optional[int] = None
        #: Watchdog deadline of the spec in flight (monotonic seconds).
        self.deadline: Optional[float] = None

    def assign(self, task: GroupTask) -> None:
        self.busy = True
        self.rest, self.bases = task
        # A worker that died idle fails this send; the parent's next pass
        # over its pipe sees the death and requeues the task.
        with contextlib.suppress(OSError):
            self.conn.send(([spec for _, spec in self.rest], self.bases))

    def stop(self) -> None:
        self.process.terminate()
        self.process.join()
        self.conn.close()


def _quarantine(
    spec: RunSpec, struck: int, policy: ResiliencePolicy, emit: FailureCallback
) -> None:
    """Walk a hanging spec's strike ladder to quarantine, after ``struck`` strikes.

    Used when a chaos hang is simulated rather than killed by the watchdog:
    chaos hangs do not depend on the attempt, so every further strike is
    certain.
    """
    for strike in range(struck + 1, policy.quarantine_strikes + 1):
        final = strike == policy.quarantine_strikes
        emit(hang_failure(spec, strike, OUTCOME_QUARANTINED if final else OUTCOME_RETRIED))


def _run_in_process(
    work: Iterable[Tuple[int, RunSpec, int]],
    results: List[Optional[MissionResult]],
    detectors: Optional[Mapping[str, object]],
    policy: ResiliencePolicy,
    on_result: Optional[ResultCallback],
    emit: Optional[FailureCallback],
    strikes: Mapping[str, int],
) -> None:
    """The in-process loop: fly ``(position, spec, base attempt)`` items.

    Shared by :class:`SerialExecutor`, the one-worker fallback and the pool's
    degraded tail.  A spec the chaos schedule marks as hanging is never
    flown: it walks the rest of its quarantine ladder at once, after the
    strikes already in ``strikes`` -- the ones the pool's watchdog dealt.
    Surviving results land in ``results`` by position.
    """
    schedule = policy.chaos()
    if emit is None:
        emit = _drop_failure
    for pos, spec, base in work:
        status, result, _ = guarded_execute(spec, detectors, policy, schedule, base, emit)
        if status == "hang":
            _quarantine(spec, strikes.get(spec.key(), 0), policy, emit)
        elif result is not None:
            results[pos] = result
            if on_result is not None:
                on_result(spec, result)


def _drop_failure(record: FailureRecord) -> None:
    """Failure sink for callers that pass no ``on_failure``."""


def cache_order_key(spec: RunSpec):
    """Sort key grouping specs for construction-cache and checkpoint locality.

    Specs sharing a fault-free prefix (same :meth:`RunSpec.prefix_key`) land
    next to each other; within a group, injection specs come in ascending
    fault-activation order and golden (fault-free) specs come last -- exactly
    the order in which a golden-prefix cursor can serve them all with one
    monotonic pass.  Results are always returned in submission order; only
    the execution order changes.
    """
    plan = spec.fault_plan
    activation = float(plan.injection_time) if plan is not None else float("inf")
    return (spec.prefix_key(), activation)


def cache_friendly_order(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Stable reordering of ``specs`` by :func:`cache_order_key`."""
    return sorted(specs, key=cache_order_key)


def prefix_groups(
    indexed_specs: Sequence[Tuple[int, RunSpec]]
) -> List[List[Tuple[int, RunSpec]]]:
    """Partition (position, spec) pairs into whole prefix groups.

    Each group holds every spec sharing one :meth:`RunSpec.prefix_key`, in
    cache order (ascending fault-activation time, golden runs last) -- the
    order in which one golden-prefix cursor serves the whole group with a
    single monotonic pass.  Groups are the scheduling atoms of the parallel
    executor: a group is never split across workers, so no two processes ever
    fly the same fault-free prefix.
    """
    ordered = sorted(indexed_specs, key=lambda pair: cache_order_key(pair[1]))
    groups: List[List[Tuple[int, RunSpec]]] = []
    current_key: Optional[str] = None
    for pos, spec in ordered:
        key = spec.prefix_key()
        if key != current_key:
            groups.append([])
            current_key = key
        groups[-1].append((pos, spec))
    return groups


def estimate_group_cost(group: Sequence[Tuple[int, RunSpec]]) -> float:
    """Estimated simulated-seconds cost of one prefix group.

    The cursor flies the shared prefix once (up to the deepest fork point, or
    the whole mission when the group holds a golden run), and every fork then
    flies its own suffix.  The estimate is deliberately simple -- prefix depth
    plus the summed suffixes, with a small per-spec constant for construction
    and fork overhead -- because it only drives the longest-processing-time
    ordering of group submission, not any correctness property.
    """
    if not group:
        return 0.0
    prefix_depth = 0.0
    suffix_total = 0.0
    for _, spec in group:
        limit = float(spec.config.mission_time_limit)
        plan = spec.fault_plan
        if plan is None:
            prefix_depth = max(prefix_depth, limit)
            suffix_total += 0.5
        else:
            activation = min(float(plan.injection_time), limit)
            prefix_depth = max(prefix_depth, activation)
            suffix_total += limit - activation + 0.5
    return prefix_depth + suffix_total


def materialize_scenario(spec: RunSpec) -> RunSpec:
    """Pin the spec's effective scenario as a :class:`Scenario` object.

    Scenario *names* resolve through the process-local registry; a custom
    scenario registered only in the parent would be unknown to spawned
    workers.  Shipping the resolved (picklable) object instead makes the spec
    self-contained.  The spec key is unchanged -- it already hashes the
    resolved scenario's content.
    """
    resolved = spec.effective_scenario()
    if resolved is None or spec.scenario is resolved:
        return spec
    return replace(spec, scenario=resolved)


# ------------------------------------------------------------- worker counts
#: Environment variable allowing more worker processes than CPUs.  By default
#: the parallel executor clamps its effective worker count to ``os.cpu_count()``
#: (process oversubscription makes campaigns *slower* than serial -- the
#: committed ``BENCH_campaign.json`` history shows 0.87x for 2 workers on one
#: CPU); set ``MAVFI_OVERSUBSCRIBE=1`` to lift the clamp, e.g. to exercise the
#: real pool machinery on a single-core box.
OVERSUBSCRIBE_ENV = "MAVFI_OVERSUBSCRIBE"


def oversubscription_allowed() -> bool:
    """Whether ``MAVFI_OVERSUBSCRIBE`` lifts the CPU-count worker clamp."""
    return knobs.flag(OVERSUBSCRIBE_ENV)


def env_worker_count() -> int:
    """Worker count requested via the ``MAVFI_WORKERS`` environment variable.

    Unset or empty means 1 (serial); ``0`` means "one worker per CPU";
    anything non-numeric or negative is rejected explicitly (the validation
    lives with the knob declaration in :mod:`repro.core.knobs`).
    """
    value = knobs.value("MAVFI_WORKERS")
    if value is None:
        return 1
    return resolve_worker_count(int(value))


def resolve_worker_count(workers: Optional[int]) -> int:
    """Normalise a worker count: ``None``/1 -> 1, 0 -> CPU count, <0 -> error."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"worker count must be non-negative, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# ------------------------------------------------------------------ executors
class SerialExecutor:
    """Runs specs one after another in the calling process (the default)."""

    name = "serial"
    distributed = False

    def map(
        self,
        specs: Iterable[RunSpec],
        on_result: Optional[ResultCallback] = None,
        detectors: Optional[Mapping[str, object]] = None,
        policy: ResiliencePolicy = PASS_THROUGH,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[MissionResult]]:
        """Execute ``specs`` in order; returns results in the same order.

        Under the default pass-through ``policy`` any mission exception
        propagates and every returned entry is a result.  Under a capturing
        one, each spec goes through the capture/retry/quarantine ladder
        (:mod:`repro.core.resilience`); failed or quarantined specs yield
        ``None`` entries and their :class:`FailureRecord`\\ s flow through
        ``on_failure``.  This executor is the determinism reference the
        parallel path must match record for record.
        """
        specs = list(specs)
        results: List[Optional[MissionResult]] = [None] * len(specs)
        _run_in_process(
            ((pos, spec, 0) for pos, spec in enumerate(specs)),
            results, detectors, policy, on_result, on_failure, {},
        )
        return results


class ParallelExecutor:
    """Fans whole prefix groups out over a pool of worker processes.

    ``workers`` follows :func:`resolve_worker_count` semantics (``None`` reads
    ``MAVFI_WORKERS``).  The scheduling atom is a *prefix group* -- every spec
    sharing one :meth:`RunSpec.prefix_key` -- and each pool task carries
    exactly one, so a golden-prefix cursor is built exactly once per group.
    Tasks go out in descending estimated-cost order (longest processing time
    first), one per worker at a time, each to whichever worker frees up, so
    straggler rebalancing -- work-stealing of whole groups -- falls out of
    the queue discipline.  Every worker has its own pipe and reports each
    spec's start, failed attempts and result as they happen, so a lost
    worker costs only its in-flight spec's attempt.

    The effective worker count is clamped to ``os.cpu_count()`` unless
    ``oversubscribe`` (or ``MAVFI_OVERSUBSCRIBE=1``) lifts the clamp; when the
    clamp leaves one worker, the batch runs serially in-process -- parallel
    dispatch never loses to serial by oversubscribing cores.

    Every start method warms workers the same way.  The parent reconstructs
    the detectors the batch names -- training is the one warm-up that costs
    seconds -- and hands them to every worker process it starts, so ``fork``
    workers inherit them and ``spawn`` workers unpickle them once.  Each
    worker then generates its own worlds and builds each group's
    golden-prefix cursor on first use, which costs less than shipping a
    pickled cursor.  In-memory detector mappings passed to :meth:`map` are
    deliberately **not** shipped -- only detectors reconstructible from the
    campaign configuration are.

    After each :meth:`map`, ``last_effective_workers`` holds the worker count
    actually used and ``last_checkpoint_stats`` the fleet-wide aggregated
    :class:`~repro.core.checkpoint.CheckpointStats` (parent + every worker
    task delta) -- the bench reads ``duplicate_cursor_builds`` off it to
    assert the scheduler's zero-duplicates invariant.
    """

    name = "parallel"
    distributed = True

    def __init__(
        self,
        workers: Optional[int] = None,
        oversubscribe: Optional[bool] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.workers = env_worker_count() if workers is None else resolve_worker_count(workers)
        self.oversubscribe = (
            oversubscription_allowed() if oversubscribe is None else bool(oversubscribe)
        )
        self.start_method = start_method
        #: Workers actually used by the last :meth:`map` (1 = serial fallback).
        self.last_effective_workers = 0
        #: Fleet-wide checkpoint statistics of the last :meth:`map`.
        self.last_checkpoint_stats = None

    def _group_tasks(self, specs: Sequence[RunSpec]) -> List[List[Tuple[int, RunSpec]]]:
        """Whole prefix groups, one per pool task, costliest first (LPT order).

        Original positions ride along so the result stream is returned in
        submission order regardless of completion order.
        """
        groups = prefix_groups(list(enumerate(specs)))
        groups.sort(key=estimate_group_cost, reverse=True)
        return groups

    def _effective_workers(self, specs: Sequence[RunSpec]) -> int:
        workers = min(self.workers, max(1, len(specs)))
        if not self.oversubscribe:
            workers = min(workers, os.cpu_count() or 1)
        return workers

    @staticmethod
    def _warm_detectors(specs: Sequence[RunSpec]) -> Dict[Tuple, object]:
        """Reconstruct the detectors ``specs`` name; every worker receives them.

        Returns the :data:`_PROCESS_DETECTORS` entries those specs resolve
        to.  Empty, with nothing trained, when ``REPRO_NO_CACHE`` is set.
        """
        if not construction_caches_enabled():
            return {}
        named = {
            id(_reconstruct_detector(spec))
            for spec in specs
            if spec.detector in RECONSTRUCTIBLE_DETECTORS
        }
        return {key: obj for key, obj in _PROCESS_DETECTORS.items() if id(obj) in named}

    def map(
        self,
        specs: Iterable[RunSpec],
        on_result: Optional[ResultCallback] = None,
        detectors: Optional[Mapping[str, object]] = None,
        policy: ResiliencePolicy = PASS_THROUGH,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[MissionResult]]:
        """Execute ``specs`` across the pool; returns results in spec order.

        ``on_result`` fires as results arrive (completion order); the returned
        list is always in submission order, bit-identical to the serial path.

        Under the default pass-through ``policy`` the first mission exception
        re-raises unchanged and a lost worker raises ``BrokenProcessPool``.
        Under a capturing one, mission exceptions become retried/persisted
        :class:`FailureRecord`\\ s instead of dead pools, a wall-clock
        watchdog bounds each spec a worker flies, hanging specs are
        quarantined after ``quarantine_strikes``, and a lost worker (crashed
        or killed by the watchdog) is replaced, up to ``max_pool_respawns``
        times, with only its unfinished specs requeued, before the rest of
        the batch degrades to in-process serial execution.  Failed or
        quarantined specs yield ``None`` entries.
        """
        from repro.core import checkpoint

        # Reset per-map telemetry up front: a misuse error below must not
        # leave stale stats from the previous map() visible to callers.
        self.last_effective_workers = 0
        self.last_checkpoint_stats = None
        specs = list(specs)
        unshippable = {
            spec.detector
            for spec in specs
            if spec.detector is not None
            and spec.detector not in RECONSTRUCTIBLE_DETECTORS
        }
        if unshippable:
            # Fail before any mission flies: in-memory detector objects are
            # never shipped to workers, so these specs would crash mid-pool.
            raise ValueError(
                f"detector tags {sorted(unshippable)} reference in-memory "
                f"objects that cannot be reconstructed in worker processes; "
                f"use the serial executor for custom detectors"
            )
        # Scenario names resolve through the parent's registry; workers may
        # not have custom registrations, so ship resolved Scenario objects.
        specs = [materialize_scenario(spec) for spec in specs]
        groups = self._group_tasks(specs)
        workers = max(1, min(self._effective_workers(specs), len(groups)))
        self.last_effective_workers = workers
        before = checkpoint.checkpoint_stats().raw_dict()
        stats = checkpoint.CheckpointStats()
        results: List[Optional[MissionResult]] = [None] * len(specs)
        if workers == 1:
            # Clamped to one worker: fly in-process in cache order -- the
            # per-group monotonic order a pool worker uses -- which keeps the
            # zero duplicate-cursor-builds invariant.
            order = sorted(range(len(specs)), key=lambda i: cache_order_key(specs[i]))
            _run_in_process(
                ((pos, specs[pos], 0) for pos in order),
                results, detectors, policy, on_result, on_failure, {},
            )
        else:
            self._pool_map(
                specs, groups, workers, results, stats, policy, on_result, on_failure
            )
        # Fold in what the parent itself flew (the one-worker fallback, the
        # degraded tail), so duplicate accounting spans the whole fleet.
        stats.merge(checkpoint.diff_raw(checkpoint.checkpoint_stats().raw_dict(), before))
        self.last_checkpoint_stats = stats
        return results

    def _pool_map(
        self,
        specs: Sequence[RunSpec],
        groups: Sequence[Sequence[Tuple[int, RunSpec]]],
        workers: int,
        results: List[Optional[MissionResult]],
        stats: "CheckpointStats",
        policy: ResiliencePolicy,
        on_result: Optional[ResultCallback],
        on_failure: Optional[FailureCallback],
    ) -> None:
        """The pool loop, with the capture/retry/quarantine/degrade ladder.

        ``workers`` processes fly one prefix group at a time, costliest
        first, and stream per-spec progress (:func:`_pool_worker`); results
        land in ``results`` and each group's stats delta merges into
        ``stats``.  A worker that dies crashed on its in-flight spec's next
        attempt.  One whose spec outlives ``policy.task_timeout``, armed per
        spec, is killed, and the spec earns a hang strike.  Either way the
        parent writes that record itself, requeues the rest of the group as
        one task and replaces only that worker; the others keep flying.
        Once ``max_pool_respawns`` replacements are used up, the surviving
        workers finish their groups and the remaining work flies in the
        in-process loop (chaos faults are simulated there, so a chaos-ridden
        campaign always ends; a *genuine* hang in that tail would stall the
        parent).  Under a pass-through policy a worker's exception
        re-raises, and a lost worker raises ``BrokenProcessPool``.
        Checkpoint statistics are best-effort: a lost worker's delta dies
        with it.
        """
        import time  # harness watchdog only; sim time stays on the middleware clock

        ctx = multiprocessing.get_context(self.start_method)
        payload = (self._warm_detectors(specs), policy, policy.chaos())
        emit = on_failure or _drop_failure
        pending: Deque[GroupTask] = deque((list(group), {}) for group in groups)
        strikes: Dict[str, int] = {}
        pool: List[_PoolWorker] = []
        started, budget = 0, workers + policy.max_pool_respawns

        def receive(worker: _PoolWorker, message: Tuple) -> None:
            kind = message[0]
            if kind == "start":
                worker.attempt = worker.bases.get(worker.rest[0][1].key(), 0)
                if policy.task_timeout is not None:
                    # repro-lint: disable=RL002 harness watchdog deadline, not simulated time
                    worker.deadline = time.monotonic() + policy.task_timeout
            elif kind == "failure":
                emit(message[1])
                worker.attempt = message[1].attempt
            elif kind == "done":
                pos, spec = worker.rest.pop(0)
                worker.attempt = worker.deadline = None
                status, result = message[1:]
                if status == "hang":
                    _quarantine(spec, strikes.get(spec.key(), 0), policy, emit)
                elif result is not None:
                    results[pos] = result
                    if on_result is not None:
                        on_result(spec, result)
            elif kind == "idle":
                stats.merge(message[1])
                worker.busy = False
            else:
                raise message[1]  # "error": the worker's pass-through exception

        def lose(worker: _PoolWorker, hung: bool) -> None:
            """Retire a dead or overrunning worker and requeue what it left."""
            worker.stop()
            pool.remove(worker)
            if not policy.capture:
                raise BrokenProcessPool(
                    "a pool worker " + ("overran its watchdog" if hung else "died")
                )
            rest, bases = worker.rest, dict(worker.bases)
            if worker.attempt is not None:
                _, spec = rest[0]
                key = spec.key()
                if hung:
                    strikes[key] = strikes.get(key, 0) + 1
                    final = strikes[key] >= policy.quarantine_strikes
                    emit(hang_failure(
                        spec, strikes[key], OUTCOME_QUARANTINED if final else OUTCOME_RETRIED
                    ))
                    bases[key] = worker.attempt
                else:
                    bases[key] = worker.attempt + 1
                    final = bases[key] >= policy.max_attempts
                    emit(crash_failure(
                        spec, bases[key], OUTCOME_FAILED if final else OUTCOME_RETRIED
                    ))
                if final:
                    rest = rest[1:]
            if rest:
                pending.appendleft((rest, bases))

        def service(worker: _PoolWorker) -> None:
            """Handle what ``worker`` sent; a broken pipe or exited process is a loss."""
            while True:
                try:
                    if not worker.conn.poll():
                        break
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # EOF, or a reset when the worker died with a task unread.
                    lose(worker, hung=False)
                    return
                receive(worker, message)
            if not worker.process.is_alive():
                lose(worker, hung=False)

        try:
            while True:
                # Start the workers, then replace lost ones while there is
                # work and the budget can restore full strength.  A
                # short-handed pool dispatches nothing more: its remaining
                # work is the in-process tail's.
                missing = workers - len(pool)
                if pending and missing and started + missing <= budget:
                    pool.extend(_PoolWorker(ctx, payload) for _ in range(missing))
                    started += missing
                if len(pool) == workers:
                    for worker in pool:
                        if not worker.busy and pending:
                            worker.assign(pending.popleft())
                busy = [worker for worker in pool if worker.busy]
                if not busy:
                    break
                deadlines = [w.deadline for w in busy if w.deadline is not None]
                timeout = None
                if deadlines:
                    # repro-lint: disable=RL002 harness watchdog deadline, not simulated time
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                wait([obj for w in busy for obj in (w.conn, w.process.sentinel)], timeout)
                for worker in busy:
                    service(worker)
                # repro-lint: disable=RL002 harness watchdog deadline, not simulated time
                now = time.monotonic()
                for worker in busy:
                    if worker in pool and worker.deadline is not None and now >= worker.deadline:
                        lose(worker, hung=True)
        finally:
            # Normal or not (a pass-through failure, a raising callback, an
            # interrupt), no worker outlives the map.
            for worker in pool:
                worker.stop()
        # Graceful degradation: finish the remaining work in-process.
        _run_in_process(
            (
                (pos, spec, bases.get(spec.key(), 0))
                for rest, bases in pending
                for pos, spec in rest
            ),
            results, None, policy, on_result, emit, strikes,
        )


def get_executor(workers: Optional[int] = None):
    """Executor for ``workers`` (``None`` reads ``MAVFI_WORKERS``; <=1 serial)."""
    count = env_worker_count() if workers is None else resolve_worker_count(workers)
    if count <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers=count)


# ------------------------------------------------------- store-aware dispatch
def execute_specs(
    specs: Iterable[RunSpec],
    executor=None,
    store: Optional["JsonlResultStore"] = None,
    detectors: Optional[Mapping[str, object]] = None,
    resume: bool = True,
    on_result: Optional[ResultCallback] = None,
    known_results: Optional[Dict[str, MissionResult]] = None,
    policy: ResiliencePolicy = PASS_THROUGH,
    on_failure: Optional[FailureCallback] = None,
) -> List[Optional[MissionResult]]:
    """Run ``specs`` through ``executor`` with optional JSONL persistence.

    When ``store`` is given, every completed run is appended to it as soon as
    it arrives, and (with ``resume=True``) specs whose key is already in the
    store are served from disk instead of being re-flown.  The returned list
    is always in ``specs`` order, mixing loaded and freshly-run results.
    ``known_results`` lets a caller that already parsed the store (e.g.
    :meth:`Campaign.run_specs`) pass the key->result map in instead of having
    it re-read from disk.

    Under a capturing ``policy`` the run goes through the resilience
    ladder: failures become structured
    :class:`~repro.core.resilience.FailureRecord` lines in the store (and
    ``on_failure`` callbacks), retries/timeouts/quarantine apply, and the
    returned list holds ``None`` for specs that produced no surviving
    result.  Under the default pass-through policy any mission exception
    propagates, no chaos is drawn and the list has no ``None`` entries.
    """
    specs = list(specs)
    if executor is None:
        executor = SerialExecutor()
    known: Dict[str, MissionResult] = {}
    if known_results is not None:
        known = dict(known_results)
    elif store is not None and resume:
        known = store.load_results()
    pending: List[RunSpec] = []
    pending_keys = set()
    for spec in specs:
        spec_key = spec.key()
        if spec_key not in known and spec_key not in pending_keys:
            pending.append(spec)
            pending_keys.add(spec_key)
    # Cache-friendly execution order (construction caches, golden-prefix
    # cursors); the returned list is rebuilt in submission order below, so
    # only completion order -- already unordered under the parallel
    # executor -- is affected.
    pending = cache_friendly_order(pending)

    schedule = policy.chaos()

    def record(spec: RunSpec, result: MissionResult) -> None:
        if store is not None:
            store.append(
                spec.key(),
                result,
                meta={"setting": spec.setting, "seed": spec.seed, "index": spec.index},
            )
            if schedule is not None:
                # Chaos shard faults: splice junk *after* the real record so
                # the record itself survives; resume/report must tolerate it.
                action = schedule.shard_action(spec.key())
                if action is not None:
                    store.append_junk(action)
        if on_result is not None:
            on_result(spec, result)

    def capture(record_obj: FailureRecord) -> None:
        if store is not None:
            store.append_failure(
                record_obj.spec_key,
                record_obj.to_dict(),
                meta={
                    "setting": record_obj.setting,
                    "seed": record_obj.seed,
                    "index": record_obj.index,
                },
            )
        if on_failure is not None:
            on_failure(record_obj)

    fresh = executor.map(
        pending,
        on_result=record,
        detectors=detectors,
        policy=policy,
        on_failure=capture,
    )
    for spec, result in zip(pending, fresh):
        if result is not None:
            known[spec.key()] = result
    # Duplicate keys (same mission requested twice) are flown once but must
    # yield independent records, so callers mutating one entry don't silently
    # mutate its twin.
    emitted = set()
    ordered: List[Optional[MissionResult]] = []
    for spec in specs:
        spec_key = spec.key()
        result = known.get(spec_key)
        ordered.append(
            copy.deepcopy(result)
            if result is not None and spec_key in emitted
            else result
        )
        emitted.add(spec_key)
    return ordered
