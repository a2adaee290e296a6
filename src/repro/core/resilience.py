"""Campaign resilience engine: failure capture, retry policy and chaos.

The paper's methodology is thousands of fault-injected missions flown to
completion; a campaign driver that dies wholesale when *one* mission raises,
one worker process is OOM-killed or one spec hangs cannot fly them.  This
module supplies the monitor half that the checkpoint/resume machinery always
assumed existed:

* :class:`FailureRecord` -- the structured, JSONL-persisted form of a mission
  that did not produce a result (exception, worker crash, hang), carrying the
  spec key, error identity, attempt number and final outcome so the report
  engine can account for every spec the campaign touched.
* :class:`ResiliencePolicy` -- bounded deterministic retry, a per-spec
  wall-clock watchdog, quarantine after N hang strikes and a bounded budget
  of pool-worker replacements before the pool degrades to the in-process
  loop; its :data:`PASS_THROUGH` value captures nothing and re-raises.
* :class:`ChaosSchedule` -- a seeded fault schedule that injects worker
  crashes, mission exceptions, hangs and torn/garbage shard writes into the
  harness itself.  Every chaos decision is a pure function of (schedule seed,
  spec key, attempt), so the serial and parallel executors draw the *same*
  faults for the same specs and a chaos-ridden campaign converges to
  bit-identical surviving results vs a clean run.

The per-spec capture -> retry ladder (:func:`guarded_execute`) lives here;
the executors run every spec through it, and the result store persists the
failure records next to the mission results they explain.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core import knobs
from repro.core.qof import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.executor import RunSpec
    from repro.pipeline.runner import MissionResult

# Failure outcomes, in ladder order.
OUTCOME_RETRIED = "retried"
OUTCOME_FAILED = "failed"
OUTCOME_QUARANTINED = "quarantined"

#: Normalised error types for harness-level (non-exception) failures.  Fixed
#: strings -- never wall-clock values -- so the serial and parallel executors
#: emit byte-identical failure records for the same chaos draw.
HANG_ERROR_TYPE = "HangTimeout"
CRASH_ERROR_TYPE = "WorkerCrash"
HANG_MESSAGE = "task exceeded its wall-clock watchdog"
CRASH_MESSAGE = "worker process died mid-task"

#: Exit status a chaos-crashed worker dies with (visible in pool post-mortems).
CHAOS_CRASH_EXIT_CODE = 17


class ChaosMissionError(RuntimeError):
    """Chaos-injected mission exception (``REPRO_CHAOS`` ``raise`` kind)."""


# ------------------------------------------------------------ failure records
def failure_digest(
    error_type: str, message: str, frame: Optional[Tuple[str, str]] = None
) -> str:
    """Stable identity of one failure mode (canonical JSON, sha1 prefix)."""
    payload = json.dumps(
        [error_type, message, list(frame) if frame is not None else None],
        sort_keys=True,
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class FailureRecord:
    """Structured record of one failed execution attempt of one spec.

    ``attempt`` is 1-based; for hang records it counts quarantine *strikes*
    rather than execution attempts (a hanging spec never completes an
    attempt).  ``outcome`` states what the policy did next: ``retried`` (the
    spec ran again), ``failed`` (attempts exhausted) or ``quarantined``
    (strikes exhausted; the spec is withheld for the rest of the campaign).
    """

    spec_key: str
    setting: str
    seed: int
    index: int
    error_type: str
    message: str
    traceback_digest: str
    attempt: int
    outcome: str

    def identity(self) -> Tuple[str, int, str, str]:
        """Identity of one failure: one attempt of one spec fails at most once."""
        return (self.spec_key, self.attempt, self.error_type, self.traceback_digest)

    def to_dict(self) -> Dict:
        return {
            "spec_key": self.spec_key,
            "setting": self.setting,
            "seed": int(self.seed),
            "index": int(self.index),
            "error_type": self.error_type,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempt": int(self.attempt),
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FailureRecord":
        return cls(
            spec_key=str(data["spec_key"]),
            setting=str(data.get("setting", "")),
            seed=int(data.get("seed", 0)),
            index=int(data.get("index", 0)),
            error_type=str(data["error_type"]),
            message=str(data.get("message", "")),
            traceback_digest=str(data.get("traceback_digest", "")),
            attempt=int(data.get("attempt", 1)),
            outcome=str(data.get("outcome", OUTCOME_FAILED)),
        )


#: Callback invoked once per captured failure record.
FailureCallback = Callable[[FailureRecord], None]


def failure_from_exception(
    spec: "RunSpec", exc: BaseException, attempt: int, outcome: str
) -> FailureRecord:
    """Normalised record of a raising mission attempt.

    The digest hashes the exception type, message and innermost traceback
    frame (file basename and function name) -- all of which are identical
    whether the spec raised in the parent or in a worker, so serial and
    parallel campaigns produce identical failure-record sets.  The frame's
    line number is left out, so editing code above a raise site does not
    change the failure's identity.
    """
    frame: Optional[Tuple[str, str]] = None
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        frame = (os.path.basename(code.co_filename), code.co_name)
        tb = tb.tb_next
    error_type = type(exc).__name__
    message = str(exc)
    return FailureRecord(
        spec_key=spec.key(),
        setting=spec.setting,
        seed=int(spec.seed),
        index=int(spec.index),
        error_type=error_type,
        message=message,
        traceback_digest=failure_digest(error_type, message, frame),
        attempt=int(attempt),
        outcome=outcome,
    )


def hang_failure(spec: "RunSpec", strike: int, outcome: str) -> FailureRecord:
    """Normalised record of one hang strike (watchdog kill or chaos hang)."""
    return FailureRecord(
        spec_key=spec.key(),
        setting=spec.setting,
        seed=int(spec.seed),
        index=int(spec.index),
        error_type=HANG_ERROR_TYPE,
        message=HANG_MESSAGE,
        traceback_digest=failure_digest(HANG_ERROR_TYPE, HANG_MESSAGE),
        attempt=int(strike),
        outcome=outcome,
    )


def crash_failure(spec: "RunSpec", attempt: int, outcome: str) -> FailureRecord:
    """Normalised record of a worker-crash attempt."""
    return FailureRecord(
        spec_key=spec.key(),
        setting=spec.setting,
        seed=int(spec.seed),
        index=int(spec.index),
        error_type=CRASH_ERROR_TYPE,
        message=CRASH_MESSAGE,
        traceback_digest=failure_digest(CRASH_ERROR_TYPE, CRASH_MESSAGE),
        attempt=int(attempt),
        outcome=outcome,
    )


# ---------------------------------------------------------------------- policy
@dataclass(frozen=True)
class ResiliencePolicy:
    """Bounded-retry / watchdog / quarantine / degradation configuration.

    Picklable plain data so the parallel executor can ship it to workers.
    ``task_timeout`` bounds each spec's wall-clock time in a pool worker;
    ``None`` disables the watchdog (hangs are then only caught when chaos
    simulates them cooperatively).  ``max_pool_respawns`` counts the lost
    pool workers replaced before the rest of the batch degrades to the
    in-process loop.

    ``capture=False`` turns the policy into a pass-through: the first
    mission exception or lost pool worker re-raises to the caller, no
    failure record is emitted and no chaos is drawn.  The default
    policy of every dispatch entry point is :data:`PASS_THROUGH`.
    """

    max_attempts: int = 3
    task_timeout: Optional[float] = None
    quarantine_strikes: int = 2
    max_pool_respawns: int = 2
    capture: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.quarantine_strikes < 1:
            raise ValueError(
                f"quarantine_strikes must be >= 1, got {self.quarantine_strikes}"
            )
        if self.max_pool_respawns < 0:
            raise ValueError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {self.task_timeout}"
            )

    @classmethod
    def from_knobs(cls) -> "ResiliencePolicy":
        """Capturing policy as configured by the ``REPRO_*`` resilience knobs.

        An unset knob keeps the field's dataclass default.
        """
        values = {
            "max_attempts": knobs.value("REPRO_MAX_ATTEMPTS"),
            "task_timeout": knobs.value("REPRO_TASK_TIMEOUT"),
            "quarantine_strikes": knobs.value("REPRO_QUARANTINE_STRIKES"),
            "max_pool_respawns": knobs.value("REPRO_POOL_RESPAWNS"),
        }
        return cls(**{name: value for name, value in values.items() if value is not None})

    def chaos(self) -> Optional["ChaosSchedule"]:
        """The ``REPRO_CHAOS`` schedule this policy draws from.

        ``None`` when chaos is off, and always under a pass-through policy.
        """
        return ChaosSchedule.from_knobs() if self.capture else None


#: The policy that captures nothing: one attempt, no watchdog, no respawn,
#: no chaos draws, and the first failure re-raised unchanged.
PASS_THROUGH = ResiliencePolicy(max_attempts=1, max_pool_respawns=0, capture=False)


# ------------------------------------------------------------------ chaos plan
@dataclass(frozen=True)
class ChaosSchedule:
    """Seeded fault schedule injected into the harness itself.

    Every decision is a deterministic function of (seed, fault kind, spec
    key[, attempt]): the same schedule replays the same faults regardless of
    executor, worker count or completion order.  ``hangs`` is deliberately
    *attempt-independent* -- a hang models a persistent pathology that only
    the quarantine ladder resolves -- while ``crashes`` and
    ``mission_raises`` are per-(key, attempt), modelling transient faults a
    retry can clear.
    """

    raise_rate: float = 0.0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    torn_rate: float = 0.0
    garbage_rate: float = 0.0
    seed: int = 0

    @classmethod
    def from_knobs(cls) -> Optional["ChaosSchedule"]:
        """The ``REPRO_CHAOS`` schedule, or ``None`` when chaos is off."""
        rates = knobs.value("REPRO_CHAOS")
        if rates is None:
            return None
        assert isinstance(rates, dict)
        seed = knobs.value("REPRO_CHAOS_SEED")
        return cls(
            raise_rate=float(rates.get("raise", 0.0)),
            crash_rate=float(rates.get("crash", 0.0)),
            hang_rate=float(rates.get("hang", 0.0)),
            torn_rate=float(rates.get("torn", 0.0)),
            garbage_rate=float(rates.get("garbage", 0.0)),
            seed=0 if seed is None else int(seed),
        )

    def _draw(self, kind: str, *parts: object) -> float:
        seed = derive_seed("chaos", kind, *parts, base=self.seed)
        return float(np.random.default_rng(seed).random())

    def mission_raises(self, key: str, attempt: int) -> bool:
        """Whether this spec's ``attempt`` raises a :class:`ChaosMissionError`."""
        return self._draw("raise", key, attempt) < self.raise_rate

    def crashes(self, key: str, attempt: int) -> bool:
        """Whether this spec's ``attempt`` kills its worker process."""
        return self._draw("crash", key, attempt) < self.crash_rate

    def hangs(self, key: str) -> bool:
        """Whether this spec hangs (persistently; attempt-independent)."""
        return self._draw("hang", key) < self.hang_rate

    def shard_action(self, key: str) -> Optional[str]:
        """Shard damage to inject after this spec's record: torn/garbage/None."""
        if self._draw("torn", key) < self.torn_rate:
            return "torn"
        if self._draw("garbage", key) < self.garbage_rate:
            return "garbage"
        return None


# ------------------------------------------------------------ guarded running
def discard_checkpoint_cursor(spec: "RunSpec") -> None:
    """Drop the golden-prefix cursor a failed attempt may have corrupted.

    A mission that raised mid-flight can leave its group's cursor advanced
    past states the retry needs; dropping it forces a clean rebuild, and
    cursor rebuilds are bit-deterministic, so the retried result is
    bit-identical to a first-try run.
    """
    from repro.core import checkpoint

    if checkpoint.checkpointing_enabled():
        checkpoint.manager().discard(spec.prefix_key())


def _hang_in_worker(policy: ResiliencePolicy) -> None:
    """Cooperatively simulate a hang inside a worker process.

    With a watchdog configured the sleep overshoots it by 4x, so the parent
    observes a real timeout and kills the worker mid-sleep.  Without one the
    sleep returns and the worker reports the hang cooperatively -- the
    quarantine ladder works either way.
    """
    import time

    if policy.task_timeout is not None:
        time.sleep(policy.task_timeout * 4.0)
    else:
        time.sleep(0.05)


def guarded_execute(
    spec: "RunSpec",
    detectors: Optional[Mapping[str, object]],
    policy: ResiliencePolicy,
    schedule: Optional[ChaosSchedule],
    base_attempt: int,
    emit: FailureCallback,
    in_worker: bool = False,
) -> Tuple[str, Optional["MissionResult"], int]:
    """One spec through the capture/retry ladder; returns (status, result, attempts).

    Status is ``"ok"`` (result attached), ``"failed"`` (attempts exhausted;
    every attempt emitted a :class:`FailureRecord`) or ``"hang"`` (the chaos
    schedule marks the spec as hanging; strike accounting is the *caller's*
    job, because strikes accumulate across watchdog kills).  ``base_attempt``
    is how many attempts previous incarnations (e.g. before a worker crash)
    already consumed; numbering continues from there so the serial and
    parallel executors emit identical attempt sequences.

    In a worker (``in_worker=True``) a chaos crash is a real ``os._exit`` and
    a chaos hang really sleeps into the watchdog; the pool's parent, which
    has seen the attempt start and every earlier record, writes the crash or
    hang record itself.  In the parent, both are simulated cooperatively
    with identical records.  This is the only place a chaos mission
    exception is raised, so its record's traceback digest names this
    function wherever the attempt ran.

    Under a pass-through policy (``capture=False``) the first exception
    re-raises unchanged once the spec's cursor is discarded.
    """
    from repro.core.executor import execute_spec

    key = spec.key()
    if schedule is not None and schedule.hangs(key):
        if in_worker:
            _hang_in_worker(policy)
        return ("hang", None, base_attempt)
    attempt = base_attempt
    while attempt < policy.max_attempts:
        attempt += 1
        last = attempt >= policy.max_attempts
        outcome = OUTCOME_FAILED if last else OUTCOME_RETRIED
        if schedule is not None and schedule.crashes(key, attempt):
            if in_worker:
                os._exit(CHAOS_CRASH_EXIT_CODE)
            emit(crash_failure(spec, attempt, outcome))
            continue
        try:
            if schedule is not None and schedule.mission_raises(key, attempt):
                raise ChaosMissionError(f"chaos: injected mission exception (attempt {attempt})")
            result = execute_spec(spec, detectors)
            return ("ok", result, attempt)
        except Exception as exc:
            # Deliberate broad capture: this is the one place harness-level
            # failure capture happens, and under a capturing policy every
            # exception becomes a persisted FailureRecord rather than a dead
            # campaign.
            discard_checkpoint_cursor(spec)
            if not policy.capture:
                raise
            emit(failure_from_exception(spec, exc, attempt, outcome))
    return ("failed", None, attempt)
