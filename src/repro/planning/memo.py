"""The motion-plan memo (``motion_plan`` in :mod:`repro.sim.memo`).

A planner's ``plan`` is a pure function of its instance attributes and the
problem's fields, and the smoother's way-points are a pure function of that
plan, the problem and the smoother's
:class:`~repro.planning.smoothing.SmootherConfig`.  So
:class:`~repro.planning.motion_planner.MotionPlannerNode` looks every query
up in :data:`PLAN_MEMO` before it plans (:func:`memoized_waypoints`).  An
entry holds the finished way-point table, so a hit runs neither the planner
nor the smoother.

The key (:func:`plan_key`) covers the planner's and the smoother's classes
and every instance attribute (the smoother's config by its dataclass
fields), and the problem's class and every dataclass field.  All of them are
read off the objects, so a field added later cannot be left out.  A
problem's arrays must not change after it is built: its kd-tree is built
from them on the first query.
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.planning.rrt import PlanningProblem, _TreePlannerBase
from repro.planning.smoothing import PathSmoother
from repro.rosmw.message import Waypoint
from repro.sim.memo import Memo, frozen, memo_key

#: The :class:`Waypoint` field of each way-point table column, in order.
_COLUMNS = tuple(f.name for f in dataclasses.fields(Waypoint))


class _Entry(NamedTuple):
    """One stored plan.  Keeps no reference to the problem or its arrays."""

    success: bool
    table: np.ndarray  # read-only (n, len(_COLUMNS)); empty for a failed plan

    @classmethod
    def of(cls, waypoints: Optional[List[Waypoint]]) -> "_Entry":
        """The entry for computed way-points (``None``: the plan failed)."""
        rows = [[getattr(w, name) for name in _COLUMNS] for w in waypoints or ()]
        table = np.array(rows, dtype=float).reshape(-1, len(_COLUMNS))
        return cls(waypoints is not None, frozen(table))

    def waypoints(self) -> Optional[List[Waypoint]]:
        """Fresh way-points the caller may change, or ``None`` for a failed plan."""
        if not self.success:
            return None
        return [Waypoint(*row) for row in self.table.tolist()]


#: Smoothed way-points by planner, problem and smoother.
PLAN_MEMO: "Memo[Optional[List[Waypoint]], _Entry]" = Memo("motion_plan", 1024)


def _instance(obj: object) -> Tuple:
    owner = type(obj)
    return (f"{owner.__module__}.{owner.__qualname__}", sorted(vars(obj).items()))


def _inputs(planner: _TreePlannerBase, problem: PlanningProblem, smoother: PathSmoother) -> Tuple:
    """Everything planning and smoothing read."""
    return (_instance(planner), problem, _instance(smoother))


def plan_key(planner: _TreePlannerBase, problem: PlanningProblem, smoother: PathSmoother) -> bytes:
    """The memo key of ``planner``'s plan for ``problem``, smoothed by ``smoother``."""
    return memo_key(*_inputs(planner, problem, smoother))


def _plan_and_smooth(
    planner: _TreePlannerBase, problem: PlanningProblem, smoother: PathSmoother
) -> Optional[List[Waypoint]]:
    result = planner.plan(problem)
    if not result.success:
        return None
    return smoother.to_trajectory(result.path, problem).waypoints


def memoized_waypoints(
    planner: _TreePlannerBase, problem: PlanningProblem, smoother: PathSmoother
) -> Optional[List[Waypoint]]:
    """The smoothed way-points of ``planner.plan(problem)`` (``None`` when the
    plan fails), served from the memo on an exact input match."""
    return PLAN_MEMO.call(
        _inputs(planner, problem, smoother),
        lambda: _plan_and_smooth(planner, problem, smoother),
        _Entry.of,
        _Entry.waypoints,
    )
