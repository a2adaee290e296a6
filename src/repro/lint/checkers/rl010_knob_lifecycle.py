"""RL010: knob lifecycle -- registry and read sites must agree.

RL006 already forbids raw ``os.environ`` access to engine knobs; this
checker closes the loop on the registry itself, statically (pure AST, no
imports).  Two drift directions:

* a knob registered in ``repro.core.knobs`` that no indexed module ever
  reads is dead weight -- its documented default silently stops being true
  the day the read site is deleted (flagged at the registration);
* a knobs-API read of a name the registry never declared bypasses the
  registry's parsing/validation (flagged at the read site; the static
  counterpart of RL006's import-based check).

Read sites are matched through string literals *and* module-level string
constants (``knobs.flag(OVERSUBSCRIBE_ENV)`` resolves), so routing a knob
name through a constant does not hide it.  One level of wrapper
indirection is also resolved: a function that forwards one of its own
parameters into a knobs-API read (``def flag_on(name): return
knobs.flag(name)``) is itself treated as a read site, so calls like
``flag_on(NO_CACHE_ENV)`` count.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.base import dotted_name
from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectChecker, ProjectIndex

KNOB_PREFIXES = ("REPRO_", "MAVFI_")

#: rel-path suffix of the registry module.
REGISTRY_MODULE = "repro/core/knobs.py"

#: knobs-API entry points that read (not mutate) a knob by name.
_READ_FUNCS = {
    "raw",
    "raw_or",
    "flag",
    "value",
    "get_knob",
    "set_env",
    "unset_env",
    "setdefault_env",
}


def _knob_name(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    """The knob name in ``node``: a literal or a module-level constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        value = node.value
    elif isinstance(node, ast.Name) and node.id in constants:
        value = constants[node.id]
    else:
        return None
    return value if value.startswith(KNOB_PREFIXES) else None


def _registrations(registry: ModuleInfo) -> Dict[str, int]:
    """Knob name -> registration line, from ``Knob(name=..., ...)`` calls."""
    found: Dict[str, int] = {}
    for node in ast.walk(registry.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee != "Knob":
            continue
        for kw in node.keywords:
            if kw.arg == "name":
                name = _knob_name(kw.value, registry.constants)
                if name is not None:
                    found[name] = node.lineno
        if node.args:
            name = _knob_name(node.args[0], registry.constants)
            if name is not None:
                found[name] = node.lineno
    return found


def _is_knobs_read_call(node: ast.Call, info: ModuleInfo) -> bool:
    """True when ``node`` calls one of the knobs-API read entry points."""
    raw = dotted_name(node.func)
    if raw is None:
        return False
    base, _, func = info.imports.canonical(raw).rpartition(".")
    return base in ("knobs", "repro.core.knobs") and func in _READ_FUNCS


def _wrapper_functions(index: ProjectIndex) -> Dict[str, Tuple[str, str]]:
    """Knob-read forwarders: canonical FQN -> (module, bare name).

    A wrapper is any indexed function whose body passes one of its own
    parameters into a knobs-API read call, typically one that imports the
    registry lazily to break a layering cycle; it would otherwise hide the
    reads of every knob routed through it.
    """
    wrappers: Dict[str, Tuple[str, str]] = {}
    for info in index.modules.values():
        if not info.module:
            continue
        for qualname, func in info.functions.items():
            params = {
                arg.arg
                for arg in (
                    list(func.args.posonlyargs)
                    + list(func.args.args)
                    + list(func.args.kwonlyargs)
                )
            }
            if not params:
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and _is_knobs_read_call(node, info)
                    and any(
                        isinstance(arg, ast.Name) and arg.id in params
                        for arg in list(node.args)
                        + [kw.value for kw in node.keywords]
                    )
                ):
                    bare = qualname.rpartition(".")[2]
                    wrappers[f"{info.module}.{qualname}"] = (info.module, bare)
                    break
    return wrappers


class KnobLifecycle(ProjectChecker):
    code = "RL010"
    name = "knob-lifecycle"
    description = (
        "knob registered in repro.core.knobs but never read, or a knobs-API "
        "read of a name the registry never declared"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        registry = None
        for info in index.modules.values():
            if info.rel.endswith(REGISTRY_MODULE):
                registry = info
                break
        if registry is None:
            return  # partial tree: no registry to check against
        registered = _registrations(registry)
        wrappers = _wrapper_functions(index)
        reads: Dict[str, List[Tuple[ModuleInfo, int]]] = {}
        for info in index.modules.values():
            if info is registry:
                continue
            for name, line in self._knob_reads(info, wrappers):
                reads.setdefault(name, []).append((info, line))
        for name, line in sorted(registered.items(), key=lambda kv: kv[1]):
            if name not in reads:
                yield self.finding(
                    registry,
                    line,
                    f"knob {name!r} is registered but never read anywhere in "
                    f"the linted tree; delete the registration or route its "
                    f"read site through repro.core.knobs",
                )
        for name in sorted(reads):
            if name in registered:
                continue
            for info, line in reads[name]:
                yield self.finding(
                    info,
                    line,
                    f"knobs-API read of {name!r}, which is not declared in "
                    f"repro.core.knobs; register the knob (name, kind, "
                    f"default, description) first",
                )

    def _knob_reads(
        self, info: ModuleInfo, wrappers: Dict[str, Tuple[str, str]]
    ) -> Iterator[Tuple[str, int]]:
        """(knob name, line) for every knobs-API call in ``info``."""
        local_wrappers = {
            bare for module, bare in wrappers.values() if module == info.module
        }
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if raw is None:
                continue
            canonical = info.imports.canonical(raw)
            if canonical in wrappers or raw in local_wrappers:
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    name = _knob_name(arg, info.constants)
                    if name is not None:
                        yield name, node.lineno
                continue
            parts = canonical.rsplit(".", 1)
            if len(parts) != 2:
                continue
            base, func = parts
            if base not in ("knobs", "repro.core.knobs"):
                continue
            if func not in _READ_FUNCS:
                # snapshot/temporary/describe_rows take collections; look
                # one level into dict/tuple/list arguments.
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    elements: List[ast.AST] = []
                    if isinstance(arg, ast.Dict):
                        elements = [k for k in arg.keys if k is not None]
                    elif isinstance(arg, (ast.Tuple, ast.List, ast.Set)):
                        elements = list(arg.elts)
                    for element in elements:
                        name = _knob_name(element, info.constants)
                        if name is not None:
                            yield name, element.lineno
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                name = _knob_name(arg, info.constants)
                if name is not None:
                    yield name, node.lineno
