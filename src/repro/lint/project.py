"""Whole-program index pass and the ``ProjectChecker`` base class.

The per-file checkers (RL001..RL007) see one AST at a time; every expensive
contract bug this repo has actually shipped crossed a file boundary
(``abort_grace`` missing from the RunSpec key, schema emitters drifting from
their validators).  The index pass parses every collected file once and
builds the cross-file tables the project checkers (RL008..RL010, RL012)
need:

* the internal import graph (edge kind: toplevel / lazy / typing),
* per-module class tables (dataclass fields, methods),
* per-module function tables (``name`` or ``Class.method`` -> AST node),
* module-level string constants (so knob names routed through a module
  constant still resolve statically).

The index is pure AST -- nothing is imported -- so a broken tree can still
be linted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.base import FileContext, ImportMap
from repro.lint.findings import Finding
from repro.lint.pragmas import Pragmas

#: Import-edge kinds.  ``toplevel`` imports bind at module import time and
#: define the layering DAG; ``lazy`` (function-scope) imports are the
#: sanctioned cycle-breaking mechanism; ``typing`` imports only exist for
#: the type checker and are exempt from layering entirely.
EDGE_TOPLEVEL = "toplevel"
EDGE_LAZY = "lazy"
EDGE_TYPING = "typing"


@dataclass(frozen=True)
class ImportEdge:
    """One ``import`` statement resolved to an internal module."""

    src: str  #: dotted module name of the importing module
    target: str  #: dotted module name of the imported module
    line: int
    kind: str  #: toplevel | lazy | typing


@dataclass
class ClassInfo:
    """Field and method table of one class definition."""

    name: str
    line: int
    is_dataclass: bool
    #: annotated field name -> definition line (dataclass field order)
    fields: Dict[str, int] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything the index knows about one source file."""

    rel: str  #: repo-relative path, POSIX separators
    module: str  #: dotted module name ("" when not an importable module)
    path: Path
    tree: ast.Module
    pragmas: Pragmas
    imports: ImportMap
    lines: List[str]
    import_edges: List[ImportEdge] = field(default_factory=list)
    #: module-level ``NAME = "literal"`` string constants
    constants: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: ``name`` or ``Class.method`` -> function AST node
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def module_name_for(module_rel: str) -> str:
    """Dotted module name for a path like ``repro/core/executor.py``."""
    if not module_rel.endswith(".py"):
        return ""
    parts = module_rel[: -len(".py")].split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return True
    return False


def _class_info(node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        name=node.name, line=node.lineno, is_dataclass=_is_dataclass_decorated(node)
    )
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.fields[stmt.target.id] = stmt.lineno
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(stmt, ast.FunctionDef):
                info.methods[stmt.name] = stmt
    return info


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


class _ImportCollector(ast.NodeVisitor):
    """Collects import statements with their scope kind."""

    def __init__(self, module: str, package: str) -> None:
        self.module = module
        self.package = package  #: dotted package for resolving relative imports
        self.raw: List[Tuple[str, Optional[List[str]], int, str]] = []
        self._depth = 0
        self._typing_depth = 0

    def _kind(self) -> str:
        if self._typing_depth:
            return EDGE_TYPING
        return EDGE_LAZY if self._depth else EDGE_TOPLEVEL

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._typing_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._typing_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.raw.append((alias.name, None, node.lineno, self._kind()))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            pkg_parts = self.package.split(".") if self.package else []
            if node.level - 1 <= len(pkg_parts):
                prefix = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(prefix + ([base] if base else []))
            else:  # relative import escaping the tree: unresolvable
                return
        names = [alias.name for alias in node.names]
        self.raw.append((base, names, node.lineno, self._kind()))


class ProjectIndex:
    """Cross-file tables over one collected file set."""

    def __init__(self, root: Path) -> None:
        self.root = root
        #: rel path -> ModuleInfo, insertion-ordered (collect_files sorts)
        self.modules: Dict[str, ModuleInfo] = {}
        #: dotted module name -> ModuleInfo (importable modules only)
        self.by_name: Dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------ construction
    @classmethod
    def build(cls, contexts: List[FileContext], root: Path) -> "ProjectIndex":
        index = cls(root)
        for ctx in contexts:
            info = ModuleInfo(
                rel=ctx.rel,
                module=module_name_for(ctx.module_rel),
                path=ctx.path,
                tree=ctx.tree,
                pragmas=ctx.pragmas,
                imports=ctx.imports,
                lines=ctx.lines,
            )
            index.modules[info.rel] = info
            if info.module:
                index.by_name.setdefault(info.module, info)
        for info in index.modules.values():
            index._index_module(info)
        return index

    def _index_module(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    info.constants[target.id] = stmt.value.value
            elif isinstance(stmt, ast.ClassDef):
                cinfo = _class_info(stmt)
                info.classes[cinfo.name] = cinfo
                for mname, mnode in cinfo.methods.items():
                    info.functions[f"{cinfo.name}.{mname}"] = mnode
            elif isinstance(stmt, ast.FunctionDef):
                info.functions[stmt.name] = stmt
        package = info.module
        if info.module and not info.rel.endswith("__init__.py"):
            package = info.module.rpartition(".")[0]
        collector = _ImportCollector(info.module, package)
        collector.visit(info.tree)
        for base, names, line, kind in collector.raw:
            for target in self._edge_targets(base, names):
                info.import_edges.append(
                    ImportEdge(src=info.module, target=target, line=line, kind=kind)
                )

    def _edge_targets(self, base: str, names: Optional[List[str]]) -> List[str]:
        """Internal modules referenced by one import statement."""
        targets: List[str] = []
        if names is None:  # ``import a.b``
            if self._internal(base):
                targets.append(self._nearest_module(base))
            return targets
        # ``from base import x, y``: x may itself be a submodule
        for name in names:
            candidate = f"{base}.{name}" if base else name
            if candidate in self.by_name:
                targets.append(candidate)
            elif self._internal(base):
                targets.append(self._nearest_module(base))
        seen = set()
        unique = []
        for t in targets:
            if t not in seen:
                seen.add(t)
                unique.append(t)
        return unique

    def _internal(self, module: str) -> bool:
        return module == "repro" or module.startswith("repro.")

    def _nearest_module(self, dotted: str) -> str:
        """Longest prefix of ``dotted`` that is an indexed module."""
        parts = dotted.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self.by_name:
                return candidate
            parts.pop()
        return dotted

    # ----------------------------------------------------------------- queries
    def engine_modules(self) -> Iterator[ModuleInfo]:
        """Modules belonging to the shipped ``repro`` package."""
        for info in self.modules.values():
            if self._internal(info.module) and info.module:
                yield info

    def find_class(self, name: str) -> Optional[Tuple[ModuleInfo, ClassInfo]]:
        """First (module, class) whose class name matches, engine modules first."""
        for info in self.engine_modules():
            if name in info.classes:
                return info, info.classes[name]
        for info in self.modules.values():
            if name in info.classes:
                return info, info.classes[name]
        return None

    def graph_dict(self) -> Dict:
        """The internal import graph as a JSON-serializable artifact."""
        from repro.lint.checkers.rl009_layering import layer_for

        nodes = []
        for info in sorted(self.by_name.values(), key=lambda m: m.module):
            if not self._internal(info.module):
                continue
            layer = layer_for(info.module)
            nodes.append(
                {
                    "module": info.module,
                    "path": info.rel,
                    "layer": layer.name if layer else None,
                }
            )
        edges = [
            {
                "src": edge.src,
                "dst": edge.target,
                "line": edge.line,
                "kind": edge.kind,
            }
            for info in sorted(self.modules.values(), key=lambda m: m.rel)
            for edge in info.import_edges
            if self._internal(edge.src or "") and self._internal(edge.target)
        ]
        edges.sort(key=lambda e: (e["src"], e["dst"], e["line"], e["kind"]))
        return {"schema": GRAPH_SCHEMA, "nodes": nodes, "edges": edges}


GRAPH_SCHEMA = "repro-lint-graph-v1"


class ProjectChecker:
    """Base class: one cross-file contract, checked against the index."""

    code: str = "RL899"
    name: str = "unnamed-project"
    description: str = ""

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        line: int,
        message: str,
        col: int = 0,
    ) -> Finding:
        return Finding(
            code=self.code,
            path=module.rel,
            line=line,
            col=col,
            message=message,
            snippet=module.snippet(line),
        )

