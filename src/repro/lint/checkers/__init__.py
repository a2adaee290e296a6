"""The checker registry: one module per invariant.

RL001..RL007 are per-file checkers; RL008, RL009, RL010 and RL012 are project
checkers that run against the whole-program index (``repro.lint.project``).
"""

from typing import Dict, List, Type, Union

from repro.lint.base import Checker
from repro.lint.checkers.rl001_randomness import UnseededRandomness
from repro.lint.checkers.rl002_wallclock import WallClockInSimPath
from repro.lint.checkers.rl003_forksafety import ForkUnsafeCallback
from repro.lint.checkers.rl004_accumulation import OrderSensitiveAccumulation
from repro.lint.checkers.rl005_iterorder import IterationOrderHazard
from repro.lint.checkers.rl006_knobs import UnregisteredEnvKnob
from repro.lint.checkers.rl007_swallowed import SwallowedException
from repro.lint.checkers.rl008_speckey import SpecKeyCompleteness
from repro.lint.checkers.rl009_layering import LayeringViolation
from repro.lint.checkers.rl010_knob_lifecycle import KnobLifecycle
from repro.lint.checkers.rl012_pickle_boundary import PickleBoundary
from repro.lint.project import ProjectChecker

ALL_CHECKERS: List[Type[Checker]] = [
    UnseededRandomness,
    WallClockInSimPath,
    ForkUnsafeCallback,
    OrderSensitiveAccumulation,
    IterationOrderHazard,
    UnregisteredEnvKnob,
    SwallowedException,
]

PROJECT_CHECKERS: List[Type[ProjectChecker]] = [
    SpecKeyCompleteness,
    LayeringViolation,
    KnobLifecycle,
    PickleBoundary,
]

AnyChecker = Union[Type[Checker], Type[ProjectChecker]]

CHECKERS_BY_CODE: Dict[str, AnyChecker] = {
    c.code: c for c in [*ALL_CHECKERS, *PROJECT_CHECKERS]
}

__all__ = ["ALL_CHECKERS", "PROJECT_CHECKERS", "CHECKERS_BY_CODE"]
