"""The motion-plan memo (``motion_plan`` in :mod:`repro.sim.memo`).

A planner's ``plan`` is a pure function of its instance attributes and the
problem's fields, so :class:`~repro.planning.motion_planner.MotionPlannerNode`
looks every query up in :data:`PLAN_MEMO` before it runs the planner
(:func:`memoized_plan`).

The key (:func:`plan_key`) covers the planner's class and every instance
attribute, and the problem's class and every dataclass field.  Both lists
are read off the objects, so a field added later cannot be left out.  A
problem's arrays must not change after it is built: its kd-tree is built
from them on the first query.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.planning.rrt import PlannerResult, PlanningProblem, _TreePlannerBase
from repro.sim.memo import Memo, frozen, memo_key


class _Entry(NamedTuple):
    """One stored plan.  Keeps no reference to the problem or its arrays."""

    success: bool
    path: np.ndarray  # read-only (n, 3)
    iterations: int
    tree_size: int
    planner_name: str

    @classmethod
    def of(cls, result: PlannerResult) -> "_Entry":
        """The entry for a computed result."""
        path = frozen(np.array(result.path, dtype=float).reshape(-1, 3))
        return cls(result.success, path, result.iterations, result.tree_size, result.planner_name)

    def result(self) -> PlannerResult:
        """A fresh result; its way-points are copies the caller may change."""
        return PlannerResult(
            success=self.success,
            path=[row.copy() for row in self.path],
            iterations=self.iterations,
            tree_size=self.tree_size,
            planner_name=self.planner_name,
        )


#: Planner results by planner and problem.
PLAN_MEMO: "Memo[PlannerResult, _Entry]" = Memo("motion_plan", 1024)


def _inputs(planner: _TreePlannerBase, problem: PlanningProblem) -> Tuple:
    """Everything ``planner.plan(problem)`` reads."""
    owner = type(planner)
    return (f"{owner.__module__}.{owner.__qualname__}", sorted(vars(planner).items()), problem)


def plan_key(planner: _TreePlannerBase, problem: PlanningProblem) -> bytes:
    """The memo key of ``planner.plan(problem)``."""
    return memo_key(*_inputs(planner, problem))


def memoized_plan(planner: _TreePlannerBase, problem: PlanningProblem) -> PlannerResult:
    """``planner.plan(problem)``, served from the memo on an exact input match."""
    return PLAN_MEMO.call(
        _inputs(planner, problem), lambda: planner.plan(problem), _Entry.of, _Entry.result
    )
