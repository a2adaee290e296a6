"""Golden-prefix checkpointing: snapshot the fault-free prefix, fork the rest.

Every fault-injection mission of a campaign is bit-identical to the error-free
("golden") mission of the same (configuration, seed, scenario, detector) up to
the instant its fault activates.  Re-simulating that shared prefix for each of
the N injections of a sweep is the single largest source of redundant work in
a campaign, so this module holds one *golden-prefix cursor* at a time: a live
pipeline advanced lazily along the mission runner's exact time grid.  An
injection run *forks* from the cursor -- a deep copy of the full pipeline
state (graph clock, executor timer heap, node/kernel state, RNG streams,
vehicle, octomap, detector windows, topic/service buses) -- attaches its fault
injector, and resumes the stepping loop from the pause point instead of
re-flying the prefix; the golden run, last of its group, takes the cursor itself.

Correctness is held to a hard bit-identity standard: a forked run must produce
exactly the :class:`~repro.pipeline.runner.MissionResult` of a from-scratch
run, byte for byte through the JSON round-trip.  The pieces that make that
true:

* the cursor pauses only on the runner's accumulated time grid, and the fork
  resumes the loop from the exact accumulated float, so the continued grid is
  the one an uninterrupted run would have used;
* the forked injector's one-shot timer is re-anchored to the *absolute*
  injection time and wins ties against every re-registered periodic timer
  (:meth:`~repro.rosmw.executor.Executor.reschedule_timer` with
  ``front=True``), matching the from-scratch registration order;
* service handlers and topic taps are callable objects, not closures, so the
  deep copy rebinds them to the copied nodes;
* immutable constituents (the generated world, the platform model, the
  pipeline config, a frozen autoencoder) are shared across forks via the
  deep-copy memo -- everything mutable is copied.

``REPRO_NO_CHECKPOINT=1`` disables forking entirely (every spec runs from
scratch): the reference the bit-identity gates in tests and CI compare forked
records against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core import knobs
from repro.core.injector import FaultInjectorNode
from repro.pipeline.builder import build_pipeline
from repro.pipeline.runner import MissionRunner
from repro.sim.memo import reset_memos

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import RunSpec
    from repro.pipeline.builder import PipelineHandles
    from repro.pipeline.runner import MissionResult

#: Environment variable disabling golden-prefix checkpointing (escape hatch).
NO_CHECKPOINT_ENV = "REPRO_NO_CHECKPOINT"


class CheckpointDivergenceError(AssertionError):
    """A checkpointed or cached run diverged from its from-scratch reference."""


def checkpointing_enabled() -> bool:
    """Whether golden-prefix checkpointing is active (the default)."""
    return not knobs.flag(NO_CHECKPOINT_ENV)


def supports_spec(spec: "RunSpec") -> bool:
    """Whether ``spec``'s prefix identity is capturable by a cursor key.

    Excluded: in-memory :class:`~repro.sim.world.World` environments (their
    content is not part of the spec key).  Detector objects need no key: a
    cursor serves only the object it was flown with
    (:attr:`GoldenPrefixCursor.detector_source`).
    """
    return isinstance(spec.config.environment, str)


# ------------------------------------------------------------------ statistics
#: The additive (raw) counter fields of :class:`CheckpointStats`; everything
#: shipped across process boundaries and merged by :meth:`CheckpointStats.merge`.
_RAW_COUNTERS = (
    "cursors_built",
    "cursor_restarts",
    "cursor_hits",
    "forks",
    "golden_served",
    "forked_prefix_sim_seconds",
    "cursor_sim_seconds",
)


@dataclass
class CheckpointStats:
    """Per-process counters of the checkpoint engine (benchmark reporting).

    Under the parallel executor each worker process has its own instance;
    workers ship per-task *deltas* (:meth:`raw_dict` / :func:`diff_raw`) back
    to the parent, which :meth:`merge`\\ s them into one campaign-wide view.
    ``built_prefixes`` maps prefix keys to build counts so duplicate cursor
    builds -- the same golden prefix re-flown by two workers, the scheduling
    bug the prefix-affinity scheduler exists to prevent -- are countable
    across the whole worker fleet.
    """

    #: Cursors built from scratch (no held cursor of the spec's prefix identity).
    cursors_built: int = 0
    #: Cursors rebuilt because a spec needed an earlier time than the cursor
    #: had already passed (out-of-cache-order dispatch).
    cursor_restarts: int = 0
    #: Cursor reuses (a spec found a usable cursor for its prefix identity).
    cursor_hits: int = 0
    #: Injection runs served by forking a cursor.
    forks: int = 0
    #: Golden (fault-free) runs served by finishing a cursor.
    golden_served: int = 0
    #: Simulated seconds the served runs did *not* re-fly (sum of resume times).
    forked_prefix_sim_seconds: float = 0.0
    #: Simulated seconds the cursors themselves flew (the shared cost).
    cursor_sim_seconds: float = 0.0
    #: Prefix key -> number of cursor builds for that prefix identity.
    built_prefixes: Dict[str, int] = field(default_factory=dict)

    @property
    def prefix_sim_seconds_saved(self) -> float:
        """Net simulated seconds saved versus re-flying every prefix."""
        return self.forked_prefix_sim_seconds - self.cursor_sim_seconds

    @property
    def duplicate_cursor_builds(self) -> int:
        """Cursor builds beyond the first per prefix identity.

        Zero means every golden prefix was flown exactly once across the
        campaign (the prefix-affinity scheduling invariant); positive values
        mean workers re-flew a prefix another worker (or an earlier build in
        the same process) had already paid for.
        """
        return sum(count - 1 for count in self.built_prefixes.values() if count > 1)

    def record_build(self, prefix_key: str) -> None:
        """Count one cursor build for ``prefix_key``."""
        self.cursors_built += 1
        self.built_prefixes[prefix_key] = self.built_prefixes.get(prefix_key, 0) + 1

    def raw_dict(self) -> Dict:
        """The additive counters (process-boundary / delta form)."""
        raw: Dict = {name: getattr(self, name) for name in _RAW_COUNTERS}
        raw["built_prefixes"] = dict(self.built_prefixes)
        return raw

    def merge(self, raw: Dict) -> None:
        """Fold another process's (or task's) raw counters into this view."""
        for name in _RAW_COUNTERS:
            setattr(self, name, getattr(self, name) + raw.get(name, 0))
        for key, count in raw.get("built_prefixes", {}).items():
            self.built_prefixes[key] = self.built_prefixes.get(key, 0) + count

    def as_dict(self) -> Dict[str, float]:
        """JSON form (the ``checkpoint`` section of ``BENCH_campaign.json``)."""
        return {
            "cursors_built": self.cursors_built,
            "cursor_restarts": self.cursor_restarts,
            "cursor_hits": self.cursor_hits,
            "forks": self.forks,
            "golden_served": self.golden_served,
            "forked_prefix_sim_seconds": self.forked_prefix_sim_seconds,
            "cursor_sim_seconds": self.cursor_sim_seconds,
            "prefix_sim_seconds_saved": self.prefix_sim_seconds_saved,
            "duplicate_cursor_builds": self.duplicate_cursor_builds,
        }


def diff_raw(after: Dict, before: Dict) -> Dict:
    """The counter delta between two :meth:`CheckpointStats.raw_dict` calls.

    Worker tasks snapshot the per-process stats at task start and ship the
    difference back, so the parent can aggregate per-campaign statistics
    without double-counting state inherited across ``fork`` or accumulated by
    earlier tasks on the same worker.
    """
    delta: Dict = {
        name: after.get(name, 0) - before.get(name, 0) for name in _RAW_COUNTERS
    }
    before_prefixes = before.get("built_prefixes", {})
    delta["built_prefixes"] = {
        key: count - before_prefixes.get(key, 0)
        for key, count in after.get("built_prefixes", {}).items()
        if count - before_prefixes.get(key, 0) > 0
    }
    return delta


# ---------------------------------------------------------------- the cursor
class GoldenPrefixCursor:
    """A live golden pipeline advanced lazily along the runner's time grid.

    The cursor replicates :meth:`MissionRunner.run` exactly -- same node
    start order, same ``t += time_step; spin_until(t)`` accumulation -- but
    pauses between grid steps so forks can be taken.  It never aborts or
    collects its own mission while forks may still be taken: only the golden
    spec that takes it out of the manager's slot finishes it.
    """

    def __init__(self, spec: "RunSpec", detector: Optional[object]) -> None:
        from repro.core.executor import fork_detector, pipeline_config_for

        cfg = spec.config
        self.time_step = float(cfg.time_step)
        self.hard_limit = float(cfg.mission_time_limit) + float(cfg.abort_grace)
        handles = build_pipeline(pipeline_config_for(spec))
        #: The detector object this cursor's prefix was flown with.  Kept (by
        #: strong reference) so the manager can refuse to serve a spec whose
        #: live detector is a *different* object than the one in the prefix --
        #: the prefix key names only the detector's tag, which cannot tell two
        #: detector objects apart.
        self.detector_source = detector
        if detector is not None:
            from repro.detection.node import attach_detection

            attach_detection(handles, fork_detector(detector))
        handles.graph.start_all()
        self.handles = handles
        #: The runner-loop accumulator; bit-equal to a from-scratch runner's
        #: ``t`` after the same number of iterations.
        self.t = handles.graph.clock.now
        self._shared = self._shared_atoms(handles)

    @staticmethod
    def _shared_atoms(handles: "PipelineHandles") -> List[object]:
        """Objects every fork may share by reference (immutable during runs)."""
        shared: List[object] = [handles.world, handles.platform, handles.config]
        scenario = handles.extras.get("scenario")
        if scenario is not None:
            shared.append(scenario)
        detector = getattr(handles.extras.get("detection_node"), "detector", None)
        autoencoder = getattr(detector, "autoencoder", None)
        if autoencoder is not None:
            # AAD inference is pure forward passes: the network (weights and
            # Adam buffers) and the normalisation vectors are frozen.
            shared.append(autoencoder)
            shared.append(detector.feature_mean)
            shared.append(detector.feature_std)
        return shared

    # ------------------------------------------------------------- advancing
    @property
    def mission_done(self) -> bool:
        """Whether the golden mission terminated on its own."""
        return self.handles.airsim.mission_done

    def _can_step(self) -> bool:
        return not self.mission_done and self.t < self.hard_limit

    def advance_before(self, limit_time: float) -> float:
        """Advance while the *next* grid step would still end strictly before
        ``limit_time``; returns the paused loop time.

        Stopping one step short guarantees the fork's injector (scheduled at
        exactly ``limit_time``) is in the graph before any timer at or beyond
        that instant fires.
        """
        graph = self.handles.graph
        while self._can_step() and self.t + self.time_step < limit_time:
            self.t += self.time_step
            graph.spin_until(self.t)
        return self.t

    # --------------------------------------------------------------- forking
    def fork(self):
        """Deep-copied pipeline state plus the exact paused loop time."""
        memo = {id(obj): obj for obj in self._shared}
        handles = copy.deepcopy(self.handles, memo)
        return handles, self.t


# ---------------------------------------------------------------- the manager
class CheckpointManager:
    """Per-process slot holding one golden-prefix cursor and its prefix key.

    Every dispatcher flies a prefix group back to back, in
    :func:`~repro.core.executor.cache_order_key` order (injections by
    ascending activation time, golden runs last), so the slot's cursor
    advances monotonically: a spec of another prefix releases it, and the
    golden spec that ends the group takes it.  Any other order only rebuilds
    a bit-identical cursor.
    """

    def __init__(self) -> None:
        self._key: Optional[str] = None
        self._cursor: Optional[GoldenPrefixCursor] = None
        self.stats = CheckpointStats()

    # -------------------------------------------------------------- plumbing
    def _cursor_for(
        self, spec: "RunSpec", detector: Optional[object], needed_before: float
    ) -> GoldenPrefixCursor:
        key = spec.prefix_key()
        cursor = self._cursor if key == self._key else None
        # Empty the slot first: a released pipeline is freed before the next is built.
        self._key = self._cursor = None
        if cursor is not None and (
            cursor.t >= needed_before or cursor.detector_source is not detector
        ):
            # The cursor flew past the requested fork point (out-of-order
            # dispatch), or the caller's live detector is a different object
            # than the one the prefix was flown with; rebuild.
            cursor = None
            self.stats.cursor_restarts += 1
        if cursor is None:
            cursor = GoldenPrefixCursor(spec, detector)
            self.stats.record_build(key)
        else:
            self.stats.cursor_hits += 1
        self._key, self._cursor = key, cursor
        return cursor

    def _advance(self, cursor: GoldenPrefixCursor, limit_time: float) -> None:
        before = cursor.t
        cursor.advance_before(limit_time)
        self.stats.cursor_sim_seconds += cursor.t - before

    def discard(self, prefix_key: str) -> None:
        """Drop the held cursor if it is ``prefix_key``'s (no-op otherwise).

        The resilience engine calls this after a failed execution attempt: a
        mission that raised mid-flight may have advanced its group's cursor
        past states the retry needs, and a rebuilt cursor is bit-identical by
        construction, so dropping it makes retries deterministic.
        """
        if prefix_key == self._key:
            self._key = self._cursor = None

    def reset(self) -> None:
        """Drop the held cursor and zero the statistics."""
        self._key = self._cursor = None
        self.stats = CheckpointStats()

    # ------------------------------------------------------------- execution
    def run_spec(
        self, spec: "RunSpec", detector: Optional[object]
    ) -> Optional["MissionResult"]:
        """Serve ``spec`` from the golden-prefix cursor, or ``None`` to decline.

        Declining (a fault too early for any prefix to be worth sharing)
        falls back to the engine's from-scratch path.
        """
        if spec.fault_plan is None:
            return self._run_golden(spec, detector)
        return self._run_injection(spec, detector)

    def _run_golden(
        self, spec: "RunSpec", detector: Optional[object]
    ) -> "MissionResult":
        cursor = self._cursor_for(spec, detector, needed_before=float("inf"))
        # The golden spec ends its prefix group: it takes the cursor and
        # finishes the mission on it instead of on a copy.
        self._key = self._cursor = None
        self._advance(cursor, float("inf"))
        self.stats.golden_served += 1
        self.stats.forked_prefix_sim_seconds += cursor.handles.graph.clock.now
        return self._finish(spec, cursor.handles, cursor.t, injector=None)

    def _run_injection(
        self, spec: "RunSpec", detector: Optional[object]
    ) -> Optional["MissionResult"]:
        plan = spec.fault_plan
        injection_time = float(plan.injection_time)
        if injection_time <= spec.config.time_step:
            # No full grid step fits before the fault: nothing to share.
            return None
        cursor = self._cursor_for(spec, detector, needed_before=injection_time)
        self._advance(cursor, injection_time)
        handles, loop_t = cursor.fork()
        self.stats.forks += 1
        self.stats.forked_prefix_sim_seconds += handles.graph.clock.now

        injector = FaultInjectorNode(plan, handles.kernels)
        handles.graph.add_node(injector)
        injector.start()
        if injector._timer is not None:
            # The timer was created relative to the resumed clock; re-anchor
            # it to the absolute injection time, winning ties like the
            # launch-registered timer of a from-scratch run does.
            handles.graph.executor.reschedule_timer(
                injector._timer, injection_time, front=True
            )
        return self._finish(spec, handles, loop_t, injector=injector)

    def _finish(
        self,
        spec: "RunSpec",
        handles: "PipelineHandles",
        loop_t: float,
        injector: Optional[FaultInjectorNode],
    ) -> "MissionResult":
        cfg = spec.config
        runner = MissionRunner(handles, time_step=cfg.time_step, abort_grace=cfg.abort_grace)
        result = runner.run(
            setting=spec.setting,
            seed=spec.seed,
            fault_target=spec.fault_plan.target if spec.fault_plan else "",
            resume_from=loop_t,
        )
        if injector is not None:
            result.fault_description = injector.description
        return result


#: The per-process manager used by the execution engine.
_MANAGER = CheckpointManager()


def manager() -> CheckpointManager:
    """The process-wide :class:`CheckpointManager`."""
    return _MANAGER


def checkpoint_stats() -> CheckpointStats:
    """The process-wide checkpoint statistics."""
    return _MANAGER.stats


def reset_checkpoint_caches() -> None:
    """Drop all cursors and empty the kernel memos (:mod:`repro.sim.memo`), and
    zero their statistics (tests, benchmarks)."""
    _MANAGER.reset()
    reset_memos()
