"""Declared JSON shapes and the strict walker that checks documents against them.

Every JSON artifact the package writes declares its shape once, at module
level, and its validator walks the document with :func:`check_shape`.  An
:class:`Obj` must carry exactly its declared keys, so an emitter that grows,
drops or retypes a field fails its own validate-before-write call.  Numbers
must be finite and are never ``bool``.  Checks that relate several fields
stay as code in each validator.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional


class ShapeError(ValueError):
    """A value that does not match its declared shape."""


def _fail(path: str, problem: str) -> ShapeError:
    return ShapeError(f"{path} {problem}" if path else problem)


def _show(value: Any) -> str:
    """A value for a message: non-empty containers by type, never in full."""
    return type(value).__name__ if isinstance(value, (dict, list)) and value else repr(value)


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class Spec:
    """A declared shape; :meth:`walk` raises :class:`ShapeError` on a mismatch."""

    def walk(self, value: Any, path: str) -> None:
        raise NotImplementedError


class Kind(Spec):
    """A value of one JSON type (a non-empty one when ``nonempty``)."""

    def __init__(self, kind: type, name: str, nonempty: bool = False) -> None:
        self.kind, self.name, self.nonempty = kind, name, nonempty

    def walk(self, value: Any, path: str) -> None:
        if not isinstance(value, self.kind) or (self.nonempty and not value):
            raise _fail(path, f"must be {self.name}, got {_show(value)}")


class Num(Spec):
    """A finite number, never ``bool``; an ``int`` when ``integer``.

    ``lo`` and ``hi`` bound it inclusively, or exclusively when ``exclusive``.
    """

    def __init__(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        integer: bool = False,
        exclusive: bool = False,
    ) -> None:
        self.lo, self.hi, self.integer, self.exclusive = lo, hi, integer, exclusive
        self.name = "an integer" if integer else "a finite number"
        if lo is not None and hi is not None:
            left, right = ("(", ")") if exclusive else ("[", "]")
            self.name += f" in {left}{lo}, {hi}{right}"
        elif lo is not None:
            self.name += f" {'>' if exclusive else '>='} {lo}"

    def _within(self, value: float) -> bool:
        if self.exclusive:
            return (self.lo is None or value > self.lo) and (self.hi is None or value < self.hi)
        return (self.lo is None or value >= self.lo) and (self.hi is None or value <= self.hi)

    def walk(self, value: Any, path: str) -> None:
        if (
            not isinstance(value, int if self.integer else (int, float))
            or isinstance(value, bool)
            or not (isinstance(value, int) or math.isfinite(value))
            or not self._within(value)
        ):
            raise _fail(path, f"must be {self.name}, got {_show(value)}")


class Literal(Spec):
    """One of fixed values, compared by type as well (``1`` is not ``True``)."""

    def __init__(self, *values: Any) -> None:
        self.values = values

    def walk(self, value: Any, path: str) -> None:
        if not any(type(value) is type(v) and value == v for v in self.values):
            allowed = repr(self.values[0]) if len(self.values) == 1 else list(self.values)
            raise _fail(path, f"must be {allowed}, got {_show(value)}")


class Nullable(Spec):
    """``null`` or a value of the ``inner`` shape."""

    def __init__(self, inner: Spec) -> None:
        self.inner = inner

    def walk(self, value: Any, path: str) -> None:
        if value is not None:
            self.inner.walk(value, path)


class Pair(Spec):
    """An ordered ``[lo, hi]`` pair of finite numbers."""

    def walk(self, value: Any, path: str) -> None:
        if not isinstance(value, list) or len(value) != 2:
            raise _fail(path, f"must be an ordered [lo, hi] pair, got {_show(value)}")
        for i, bound in enumerate(value):
            FINITE.walk(bound, f"{path}[{i}]")
        if value[0] > value[1]:
            raise _fail(path, f"must be an ordered [lo, hi] pair, got {value!r}")


class ListOf(Kind):
    """A list of ``item``-shaped values."""

    def __init__(self, item: Spec, nonempty: bool = False) -> None:
        super().__init__(list, "a non-empty list" if nonempty else "a list", nonempty)
        self.item = item

    def walk(self, value: Any, path: str) -> None:
        super().walk(value, path)
        for i, item in enumerate(value):
            self.item.walk(item, f"{path}[{i}]")


class MapOf(Kind):
    """An object with string keys of the emitter's choosing and ``value``-shaped values."""

    def __init__(self, value: Spec, nonempty: bool = False) -> None:
        super().__init__(dict, "a non-empty object" if nonempty else "an object", nonempty)
        self.value = value

    def walk(self, value: Any, path: str) -> None:
        super().walk(value, path)
        for key, item in value.items():
            if not isinstance(key, str):
                raise _fail(path, f"keys must be strings, got {key!r}")
            self.value.walk(item, _key(path, key))


class Obj(Kind):
    """An object with exactly the keys declared as keyword arguments.

    Keys named in ``optional`` may be absent (so no key can be named ``optional``).
    """

    def __init__(self, optional: Iterable[str] = (), **fields: Spec) -> None:
        super().__init__(dict, "an object")
        self.fields, self.optional = fields, frozenset(optional)

    def walk(self, value: Any, path: str) -> None:
        super().walk(value, path)
        unknown = sorted(str(key) for key in value if key not in self.fields)
        if unknown:
            raise _fail(_key(path, unknown[0]), "is not a declared key")
        for key, spec in self.fields.items():
            if key in value:
                spec.walk(value[key], _key(path, key))
            elif key not in self.optional:
                raise _fail(_key(path, key), "is missing")


STR = Kind(str, "a string")
NAME = Kind(str, "a non-empty string", nonempty=True)
BOOL = Kind(bool, "a boolean")
#: Any object: a section that passes another module's stats through.
OPEN = Kind(dict, "an object")
FINITE = Num()
MAYBE_FINITE = Nullable(FINITE)
INT = Num(integer=True)
COUNT = Num(0, integer=True)
POSITIVE_INT = Num(1, integer=True)
POSITIVE = Num(0, exclusive=True)
FRACTION = Num(0, 1)
PROBABILITY = Num(0, 1, exclusive=True)


def check_shape(shape: Spec, document: Any, prefix: str) -> None:
    """Walk ``document`` against ``shape``; raises ``ValueError("<prefix>: <path> ...")``."""
    try:
        shape.walk(document, "")
    except ShapeError as error:
        raise ValueError(f"{prefix}: {error}") from None
