"""Central registry of the engine's environment knobs (``REPRO_*`` / ``MAVFI_*``).

Every environment variable the engine reads is declared here, once, with its
type, default semantics and documentation -- and every read goes through this
module.  The discipline is enforced statically by ``repro lint`` checker
RL006: an ``os.environ`` / ``os.getenv`` access of a ``REPRO_*`` or
``MAVFI_*`` name anywhere else in the tree is a lint failure.  Before this
registry existed the escape hatches were parsed at their point of use
(``pipeline.builder``, ``perception.occupancy``, ``core.executor``,
``core.campaign``, two bench modules and both conftests), each with its own
truthiness rules and error messages.

The module deliberately imports nothing from the rest of ``repro`` so that
any module -- including the leaf perception/sim modules imported *during*
``repro.core``'s own package initialisation -- can use it without creating an
import cycle.  (Modules outside ``repro.core`` should still import it inside
their accessor functions; importing ``repro.core.knobs`` at module scope
triggers ``repro.core.__init__``, whose campaign import chain reaches back
into most of the tree.)
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

#: Name prefixes this registry governs.  RL006 flags any direct environment
#: access of a name with one of these prefixes outside this module.
KNOB_PREFIXES: Tuple[str, ...] = ("REPRO_", "MAVFI_")

#: Truthiness contract shared by every boolean knob: unset, ``0``, ``false``
#: and ``no`` (any capitalisation, surrounding whitespace ignored) are falsy,
#: anything else is truthy.
FALSY_FLAG_VALUES: Tuple[str, ...] = ("", "0", "false", "no")


def _parse_flag(name: str, raw: str) -> bool:
    return raw.strip().lower() not in FALSY_FLAG_VALUES


def _parse_runs_scale(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number (campaign run-count scale), got {raw!r}"
        ) from None
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {raw!r}")
    return max(value, 0.01)


def _parse_str(name: str, raw: str) -> str:
    return raw


def _parse_nonneg_int(name: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
    return value


def _parse_positive_int(name: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value


def _parse_timeout_seconds(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None
    if math.isnan(value) or math.isinf(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {raw!r}")
    return value


#: Fault kinds a chaos schedule may inject, in documentation order.
CHAOS_FAULT_KINDS: Tuple[str, ...] = ("raise", "crash", "hang", "torn", "garbage")


def _parse_chaos_spec(name: str, raw: str) -> Dict[str, float]:
    """Parse ``"raise=0.3,crash=0.15,..."`` into a rate-per-kind dict."""
    rates: Dict[str, float] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, rate_text = part.partition("=")
        kind = kind.strip()
        if not sep or kind not in CHAOS_FAULT_KINDS:
            raise ValueError(
                f"{name} entries must be kind=rate with kind in "
                f"{'/'.join(CHAOS_FAULT_KINDS)}, got {part!r}"
            )
        if kind in rates:
            raise ValueError(f"{name} repeats fault kind {kind!r}")
        try:
            rate = float(rate_text)
        except ValueError:
            raise ValueError(
                f"{name} rate for {kind!r} must be a number, got {rate_text!r}"
            ) from None
        if math.isnan(rate) or not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"{name} rate for {kind!r} must be in [0, 1], got {rate_text!r}"
            )
        rates[kind] = rate
    if not rates:
        raise ValueError(f"{name} must name at least one kind=rate entry")
    return rates


@dataclass(frozen=True)
class Knob:
    """One declared environment knob."""

    name: str
    kind: str  # "flag" | "float" | "int" | "path" | "str"
    description: str
    #: Human-readable statement of what an unset knob means.
    default: str
    #: Parser for a *set* raw value; raises ``ValueError`` on junk.
    parse: Callable[[str, str], object] = field(default=_parse_str, repr=False)
    #: Whether a set-but-empty (or whitespace) value counts as unset.  The
    #: worker count historically treats ``MAVFI_WORKERS=""`` as "not
    #: configured", while ``MAVFI_RUNS=""`` is rejected as junk.
    empty_is_unset: bool = True


#: The registry itself, in documentation order.
KNOBS: Dict[str, Knob] = {}


def _register(knob: Knob) -> Knob:
    if knob.name in KNOBS:
        raise ValueError(f"duplicate knob registration: {knob.name}")
    KNOBS[knob.name] = knob
    return knob


NO_CACHE = _register(Knob(
    name="REPRO_NO_CACHE",
    kind="flag",
    description=(
        "Disable the per-process construction caches (worlds in "
        "pipeline.builder, detector forks in core.executor, the motion-plan "
        "memo in planning.memo); every run then rebuilds its world, "
        "deep-copies its detector and runs every planning query from scratch."
    ),
    default="caches enabled",
    parse=_parse_flag,
))

NO_CHECKPOINT = _register(Knob(
    name="REPRO_NO_CHECKPOINT",
    kind="flag",
    description=(
        "Disable golden-prefix checkpoint/fork (core.checkpoint); every "
        "injection spec then simulates its fault-free prefix from scratch."
    ),
    default="checkpointing enabled",
    parse=_parse_flag,
))

CHECKPOINT_VERIFY = _register(Knob(
    name="REPRO_CHECKPOINT_VERIFY",
    kind="flag",
    description=(
        "Cross-check every forked run against a from-scratch reference and "
        "raise CheckpointDivergenceError on any mismatch (slow; debugging)."
    ),
    default="verification off",
    parse=_parse_flag,
))

SCALAR_KERNELS = _register(Knob(
    name="REPRO_SCALAR_KERNELS",
    kind="flag",
    description=(
        "Select the scalar (dict-backed) reference kernels instead of the "
        "vectorized hot-path kernels (perception.occupancy and friends)."
    ),
    default="vectorized kernels",
    parse=_parse_flag,
))

BENCH_RESULTS_DIR = _register(Knob(
    name="REPRO_BENCH_RESULTS_DIR",
    kind="path",
    description=(
        "Directory where benchmark runs persist regenerated figure/table "
        "text; point it at benchmarks/results to refresh the committed "
        "references."
    ),
    default="benchmarks/results/local (untracked)",
))

WORKERS = _register(Knob(
    name="MAVFI_WORKERS",
    kind="int",
    description=(
        "Default campaign worker-process count (0 = one per CPU, 1 = "
        "serial); the --workers CLI flag overrides it."
    ),
    default="1 (serial)",
    parse=_parse_nonneg_int,
))

OVERSUBSCRIBE = _register(Knob(
    name="MAVFI_OVERSUBSCRIBE",
    kind="flag",
    description=(
        "Lift the parallel executor's CPU-count worker clamp (process "
        "oversubscription; used by the test suite to exercise real pools on "
        "single-CPU hosts)."
    ),
    default="clamp active",
    parse=_parse_flag,
))

RUNS = _register(Knob(
    name="MAVFI_RUNS",
    kind="float",
    description=(
        "Global scale factor for campaign run counts; 1.0 reproduces the "
        "default counts, larger values approach the paper's campaigns. "
        "Values below 0.01 are raised to that floor."
    ),
    default="1.0",
    parse=_parse_runs_scale,
    empty_is_unset=False,
))

CHAOS = _register(Knob(
    name="REPRO_CHAOS",
    kind="str",
    description=(
        "Chaos-harness fault schedule as comma-separated kind=rate entries "
        "(kinds: raise/crash/hang/torn/garbage, rates in [0, 1]); faults are "
        "drawn deterministically per spec key from REPRO_CHAOS_SEED."
    ),
    default="chaos harness off",
    parse=_parse_chaos_spec,
))

CHAOS_SEED = _register(Knob(
    name="REPRO_CHAOS_SEED",
    kind="int",
    description=(
        "Seed mixed into every chaos-harness fault draw; the same schedule, "
        "seed and spec set replays the exact same faults."
    ),
    default="0",
    parse=_parse_nonneg_int,
))

MAX_ATTEMPTS = _register(Knob(
    name="REPRO_MAX_ATTEMPTS",
    kind="int",
    description=(
        "Maximum execution attempts per spec under a resilience policy "
        "(first run plus retries) before the spec is recorded as failed."
    ),
    default="3",
    parse=_parse_positive_int,
))

TASK_TIMEOUT = _register(Knob(
    name="REPRO_TASK_TIMEOUT",
    kind="float",
    description=(
        "Wall-clock watchdog, in seconds, applied per spec by the parallel "
        "executor's workers; a worker whose spec overruns it is killed, and "
        "the spec earns a hang strike (retried, or quarantined after "
        "REPRO_QUARANTINE_STRIKES)."
    ),
    default="watchdog off",
    parse=_parse_timeout_seconds,
))

QUARANTINE_STRIKES = _register(Knob(
    name="REPRO_QUARANTINE_STRIKES",
    kind="int",
    description=(
        "Hang strikes (watchdog kills or chaos hangs) a single spec may "
        "accumulate before the resilience policy quarantines it for the rest "
        "of the campaign; a crash uses up an attempt instead."
    ),
    default="2",
    parse=_parse_positive_int,
))

POOL_RESPAWNS = _register(Knob(
    name="REPRO_POOL_RESPAWNS",
    kind="int",
    description=(
        "Lost pool workers (crashed or killed by the watchdog) the parallel "
        "executor replaces before the rest of the batch degrades to "
        "in-process execution (0 = degrade on the first loss)."
    ),
    default="2",
    parse=_parse_nonneg_int,
))


def registered_names() -> Tuple[str, ...]:
    """Every declared knob name, in registry order."""
    return tuple(KNOBS)


def get_knob(name: str) -> Knob:
    """The :class:`Knob` declared under ``name`` (KeyError when undeclared)."""
    try:
        return KNOBS[name]
    except KeyError:
        raise KeyError(
            f"unregistered engine knob {name!r}; declare it in repro.core.knobs"
        ) from None


def raw(name: str) -> Optional[str]:
    """The raw environment value of a declared knob (``None`` when unset).

    This is the single point where the engine touches ``os.environ`` for its
    own knobs.
    """
    return os.environ.get(get_knob(name).name)


def raw_or(name: str, default: str) -> str:
    """Like :func:`raw` but substituting ``default`` when unset."""
    value = raw(name)
    return default if value is None else value


def flag(name: str) -> bool:
    """A boolean knob's value under the shared truthiness contract."""
    knob = get_knob(name)
    if knob.kind != "flag":
        raise ValueError(f"knob {name} is a {knob.kind}, not a flag")
    value = os.environ.get(knob.name)
    return False if value is None else bool(knob.parse(knob.name, value))


def value(name: str):
    """A knob's parsed value, or ``None`` when unset/empty.

    Parsing/validation lives in exactly one place (the knob's declared
    parser); junk values raise ``ValueError`` with the knob's canonical
    message.
    """
    knob = get_knob(name)
    raw_value = os.environ.get(knob.name)
    if raw_value is None:
        return None
    if knob.empty_is_unset and not raw_value.strip():
        return None
    return knob.parse(knob.name, raw_value)


def set_env(name: str, new_value: str) -> None:
    """Set a declared knob in the process environment."""
    os.environ[get_knob(name).name] = str(new_value)


def unset_env(name: str) -> None:
    """Remove a declared knob from the process environment (if present)."""
    os.environ.pop(get_knob(name).name, None)


def setdefault_env(name: str, new_value: str) -> str:
    """``os.environ.setdefault`` for a declared knob."""
    return os.environ.setdefault(get_knob(name).name, str(new_value))


@contextmanager
def temporary(values: Mapping[str, Optional[str]]) -> Iterator[None]:
    """Temporarily pin declared knobs; ``None`` pins *unset*.

    Restores the previous environment on exit, including knobs that were
    unset before.
    """
    names = [get_knob(name).name for name in values]
    saved = {name: os.environ.get(name) for name in names}
    try:
        for name, pinned in zip(names, values.values()):
            if pinned is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = str(pinned)
        yield
    finally:
        for name, previous in saved.items():
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous


def snapshot(names: Optional[Sequence[str]] = None) -> Dict[str, str]:
    """Raw values of the given knobs (default: all), ``""`` for unset.

    The shape the bench reports embed so artifacts record the knob state
    they were produced under.
    """
    return {name: raw_or(name, "") for name in (names or registered_names())}


def describe_rows() -> Tuple[Tuple[str, str, str, str], ...]:
    """``(name, kind, default, description)`` rows for docs and CLI tables."""
    return tuple(
        (knob.name, knob.kind, knob.default, knob.description)
        for knob in KNOBS.values()
    )
