"""Per-process memo of motion-plan results.

Most single-bit injections of a campaign are masked, so after a golden-prefix
fork most missions pose planning queries that the golden run or an earlier
fork already solved, byte for byte.  A planner's ``plan`` is a pure function
of its instance attributes and the problem's fields, so
:class:`~repro.planning.motion_planner.MotionPlannerNode` looks every query
up here before it runs the planner (:func:`memoized_plan`).

The memo is part of the construction-cache layer: it is active exactly when
``REPRO_NO_CACHE`` is unset, and
:func:`repro.core.checkpoint.reset_checkpoint_caches` clears it.  No pipeline
object references it, so checkpoint forks and pool workers never copy it.

The key is a sha256 digest of the planner's class and every instance
attribute, and of the problem's class and every dataclass field.  Both lists
are read off the objects, so a field added later cannot be left out.  Floats
and arrays enter by their bytes (arrays with dtype and shape), so ``-0.0``
and ``0.0``, or two NaN payloads, are different keys.  A problem's arrays
must not change after it is built: its kd-tree is built from them once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections import OrderedDict
from typing import Dict, NamedTuple

import numpy as np

from repro.planning.rrt import PlannerResult, PlanningProblem, _TreePlannerBase

#: Entries kept; beyond it the least recently used one is dropped.
PLAN_MEMO_MAX = 1024


class _Entry(NamedTuple):
    """One stored plan.  Keeps no reference to the problem or its arrays."""

    success: bool
    path: np.ndarray  # read-only (n, 3)
    iterations: int
    tree_size: int
    planner_name: str

    def result(self) -> PlannerResult:
        """A fresh result; its way-points are copies the caller may change."""
        return PlannerResult(
            success=self.success,
            path=[row.copy() for row in self.path],
            iterations=self.iterations,
            tree_size=self.tree_size,
            planner_name=self.planner_name,
        )


_PLAN_MEMO: "OrderedDict[bytes, _Entry]" = OrderedDict()
_PLAN_MEMO_STATS = {"hits": 0, "misses": 0}


def _feed(digest, value: object) -> None:
    """Feed ``value``'s type tag and exact bytes into ``digest``."""
    if isinstance(value, np.generic):
        value = np.asarray(value)
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        digest.update(b"a%s%r" % (value.dtype.str.encode(), value.shape))
        digest.update(value.tobytes())
    elif isinstance(value, bool):
        digest.update(b"b1" if value else b"b0")
    elif isinstance(value, int):
        digest.update(b"i%d;" % value)
    elif isinstance(value, float):
        digest.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, str):
        encoded = value.encode()
        digest.update(b"s%d;" % len(encoded) + encoded)
    elif isinstance(value, (tuple, list)):
        digest.update(b"t%d;" % len(value))
        for item in value:
            _feed(digest, item)
    elif value is None:
        digest.update(b"n")
    else:
        raise TypeError(f"plan memo cannot key a value of type {type(value).__name__}")


def plan_key(planner: _TreePlannerBase, problem: PlanningProblem) -> bytes:
    """Digest of everything ``planner.plan(problem)`` reads."""
    attributes = sorted(vars(planner).items())
    fields = [(f.name, getattr(problem, f.name)) for f in dataclasses.fields(problem)]
    digest = hashlib.sha256()
    for owner, items in ((planner, attributes), (problem, fields)):
        _feed(digest, f"{type(owner).__module__}.{type(owner).__qualname__}")
        _feed(digest, items)
    return digest.digest()


def memoized_plan(planner: _TreePlannerBase, problem: PlanningProblem) -> PlannerResult:
    """``planner.plan(problem)``, served from the memo on an exact input match.

    A ``plan`` that raises is not stored, so it raises again on the next call.
    """
    # Imported lazily: the planning layer sits below ``repro.core``.
    from repro.core import knobs

    if knobs.flag("REPRO_NO_CACHE"):
        return planner.plan(problem)
    key = plan_key(planner, problem)
    entry = _PLAN_MEMO.get(key)
    if entry is not None:
        _PLAN_MEMO.move_to_end(key)
        _PLAN_MEMO_STATS["hits"] += 1
        return entry.result()
    _PLAN_MEMO_STATS["misses"] += 1
    result = planner.plan(problem)
    path = np.array(result.path, dtype=float).reshape(-1, 3)
    path.flags.writeable = False
    _PLAN_MEMO[key] = _Entry(
        result.success, path, result.iterations, result.tree_size, result.planner_name
    )
    while len(_PLAN_MEMO) > PLAN_MEMO_MAX:
        _PLAN_MEMO.popitem(last=False)
    return result


def plan_memo_stats() -> Dict[str, int]:
    """Hit/miss counters of the per-process plan memo."""
    return dict(_PLAN_MEMO_STATS)


def reset_plan_memo() -> None:
    """Drop all stored plans and zero the counters (tests, benchmarks)."""
    _PLAN_MEMO.clear()
    _PLAN_MEMO_STATS["hits"] = 0
    _PLAN_MEMO_STATS["misses"] = 0
