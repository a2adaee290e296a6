"""RL012: process-boundary pickle safety.

``RunSpec`` instances, the chaos/resilience schedules and the pool
workers' start-up payload all cross the fork/spawn process boundary.  A
lambda, generator, nested function or ``threading.Lock`` that
sneaks into one of those surfaces pickles fine nowhere -- and under the
``fork`` start method the failure is deferred until the first ``spawn``
platform (macOS CI) runs the campaign.  The checker statically flags
unpicklable value expressions reaching:

* ``RunSpec(...)`` / ``CampaignConfig(...)`` / ``ChaosSchedule(...)`` /
  ``ResiliencePolicy(...)`` constructor arguments (including
  ``dataclasses.replace(spec, ...)``),
* ``Process(target=..., args=(...))`` (``multiprocessing.Process`` or a
  context's ``ctx.Process``) and ``ProcessPoolExecutor(initializer=...,
  initargs=...)`` -- the target or initializer must be a module-level
  callable, and every element of its arguments must pickle,
* ``pool.submit(fn, ...)`` arguments.

Class names resolve through each module's import table, so an aliased
``from repro.core.executor import RunSpec as Spec`` is still caught.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.base import dotted_name, nested_function_names
from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectChecker, ProjectIndex

#: Constructors whose arguments cross a process boundary, by canonical name.
BOUNDARY_CLASSES = {
    "repro.core.executor.RunSpec": "RunSpec",
    "repro.core.campaign.CampaignConfig": "CampaignConfig",
    "repro.core.resilience.ChaosSchedule": "ChaosSchedule",
    "repro.core.resilience.ResiliencePolicy": "ResiliencePolicy",
}

#: Bare class names accepted when the module defines the class itself.
BOUNDARY_CLASS_NAMES = set(BOUNDARY_CLASSES.values())

#: Constructors that start worker processes, by the last part of their name
#: (``ctx.Process`` and ``multiprocessing.Process`` alike): the keyword
#: naming the callable each worker runs, and the keyword of its arguments.
WORKER_ENTRIES = {
    "ProcessPoolExecutor": ("initializer", "initargs"),
    "Process": ("target", "args"),
}

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}


def _unpicklable_reason(
    node: ast.AST,
    module: ModuleInfo,
    nested_defs: Dict[str, int],
) -> Optional[str]:
    """Why ``node``'s value cannot cross a process boundary (None = fine)."""
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(node, ast.Name) and node.id in nested_defs:
        return f"the nested function {node.id!r} (defined at line {nested_defs[node.id]})"
    if isinstance(node, ast.Call):
        raw = dotted_name(node.func)
        if raw is not None:
            canonical = module.imports.canonical(raw)
            if canonical in _LOCK_FACTORIES:
                return f"a {canonical}() synchronization primitive"
    return None


class PickleBoundary(ProjectChecker):
    code = "RL012"
    name = "pickle-boundary"
    description = (
        "lambda/generator/nested-function/lock value reaching a RunSpec "
        "field, a process target or pool initializer, or a chaos/resilience "
        "schedule"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.modules.values():
            yield from self._check_module(info)

    def _check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        for scope, nested in _scopes(info.tree):
            for node in _walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_call(info, node, nested)

    def _check_call(
        self,
        info: ModuleInfo,
        call: ast.Call,
        nested_defs: Dict[str, int],
    ) -> Iterator[Finding]:
        target = self._boundary_target(info, call)
        if target is not None:
            values: List[Tuple[Optional[str], ast.AST]] = [
                (None, arg) for arg in call.args
            ]
            values += [(kw.arg, kw.value) for kw in call.keywords]
            for arg_name, value in values:
                reason = _unpicklable_reason(value, info, nested_defs)
                if reason is not None:
                    where = f"argument {arg_name!r}" if arg_name else "a positional argument"
                    yield self.finding(
                        info,
                        value.lineno,
                        f"{reason} passed as {where} of {target}; this value "
                        f"crosses a process boundary and cannot be pickled",
                    )
            return
        yield from self._check_pool_call(info, call, nested_defs)

    def _boundary_target(self, info: ModuleInfo, call: ast.Call) -> Optional[str]:
        """Boundary-class description if ``call`` constructs/replaces one."""
        raw = dotted_name(call.func)
        if raw is None:
            return None
        canonical = info.imports.canonical(raw)
        if canonical in BOUNDARY_CLASSES:
            return f"{BOUNDARY_CLASSES[canonical]}(...)"
        if raw in BOUNDARY_CLASS_NAMES and raw in info.classes:
            return f"{raw}(...)"
        if canonical == "dataclasses.replace" and call.args:
            # dataclasses.replace(spec, ...): flag when the original is a
            # known spec-ish name; conservatively accept any replace() whose
            # kwargs carry an unpicklable -- replace only exists for
            # dataclasses, all of which cross boundaries here.
            return "dataclasses.replace(...)"
        return None

    def _check_pool_call(
        self,
        info: ModuleInfo,
        call: ast.Call,
        nested_defs: Dict[str, int],
    ) -> Iterator[Finding]:
        raw = dotted_name(call.func)
        owner = info.imports.canonical(raw).rsplit(".", 1)[-1] if raw else None
        if owner in WORKER_ENTRIES:
            callable_kw, args_kw = WORKER_ENTRIES[owner]
            for kw in call.keywords:
                if kw.arg == callable_kw:
                    reason = _unpicklable_reason(kw.value, info, nested_defs)
                    if reason is not None:
                        yield self.finding(
                            info,
                            kw.value.lineno,
                            f"{reason} used as a {owner} {callable_kw}; "
                            f"workers receive it by pickling -- use a "
                            f"module-level function",
                        )
                elif kw.arg == args_kw and isinstance(kw.value, (ast.Tuple, ast.List)):
                    for element in kw.value.elts:
                        reason = _unpicklable_reason(element, info, nested_defs)
                        if reason is not None:
                            yield self.finding(
                                info,
                                element.lineno,
                                f"{reason} in {owner} {args_kw}; the payload "
                                f"is pickled into every worker",
                            )
            return
        # <pool>.submit(fn, ...): the callable and every argument pickle.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "submit"
            and call.args
        ):
            for value in call.args:
                reason = _unpicklable_reason(value, info, nested_defs)
                if reason is not None:
                    yield self.finding(
                        info,
                        value.lineno,
                        f"{reason} passed to submit(); executor tasks are "
                        f"pickled into the worker process",
                    )


def _scopes(tree: ast.Module) -> Iterator[Tuple[ast.AST, Dict[str, int]]]:
    """Module + every function, each paired with its nested-def names.

    The module scope pairs with the empty dict: a module-level ``def`` is
    picklable by reference.  Scope walks do not descend into inner
    functions (each inner function is its own scope), so every call is
    checked exactly once, against the correct nested-def table.
    """
    yield tree, {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, nested_function_names(node)


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """All nodes of ``scope`` without entering nested function bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
