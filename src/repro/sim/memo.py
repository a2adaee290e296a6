"""Per-process exact-input memos of the pure kernels.

Most single-bit injections of a campaign are masked, so after a golden-prefix
fork most missions fly poses, and pose planning queries, that the golden run
or an earlier fork already flew, byte for byte.  Four kernels are pure
functions of their inputs, so their node call sites look every call up in a
:class:`Memo` before they run the kernel:

===================  =====================================================  =======
memo                 kernel call (node)                                     entries
===================  =====================================================  =======
``depth_capture``    ``DepthCamera.capture`` (``AirSimInterfaceNode``)      256
``point_cloud``      ``PointCloudGenerator.compute`` (``PointCloudNode``)   256
``collision_check``  ``CollisionChecker.compute`` (``CollisionCheckNode``)  1024
``motion_plan``      ``planner.plan`` + smoothing (``MotionPlannerNode``)   1024
===================  =====================================================  =======

On a miss the call site runs the kernel's own public method, so every
computed call is the kernel's.  A call that raises stores nothing.

A key is a sha256 digest of the inputs' type tags and exact bytes
(:func:`memo_key`): floats and arrays enter by their bytes (arrays with dtype
and shape), so ``-0.0`` and ``0.0``, or two NaN payloads, are different
keys.  An entry holds read-only arrays and no reference to the inputs; a hit
hands out fresh writable copies, so a caller that writes its result in place
(sensor degradation, an armed output fault) cannot change a later hit.

The memos belong to the construction-cache layer: they are active exactly
when ``REPRO_NO_CACHE`` is unset, and
:func:`repro.core.checkpoint.reset_checkpoint_caches` empties them
(:func:`reset_memos`).  No pipeline object references one, so checkpoint
forks and pool workers never copy them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections import OrderedDict
from typing import Callable, Dict, Generic, Iterable, Sequence, TypeVar

import numpy as np

Result = TypeVar("Result")
Entry = TypeVar("Entry")

#: Every memo of the process, by name.
_MEMOS: Dict[str, "Memo"] = {}


def _feed_array(chunks: list, value: np.ndarray) -> None:
    layout = (value.dtype, value.shape)
    tag = _ARRAY_TAGS.get(layout)
    if tag is None:
        if value.dtype.hasobject:
            # Object arrays would enter by their pointers, not their contents.
            raise TypeError("memo cannot key an object array")
        if len(_ARRAY_TAGS) >= _ARRAY_TAGS_MAX:
            _ARRAY_TAGS.clear()
        tag = _ARRAY_TAGS[layout] = b"a%s%r" % (value.dtype.str.encode(), value.shape)
    chunks.append(tag)
    chunks.append(value.tobytes())


def _feed_sequence(chunks: list, value: Sequence) -> None:
    chunks.append(b"t%d;" % len(value))
    for item in value:
        _feed(chunks, item)


def _feed_str(chunks: list, value: str) -> None:
    encoded = value.encode()
    chunks.append(b"s%d;" % len(encoded))
    chunks.append(encoded)


def _feed_bytes(chunks: list, value: bytes) -> None:
    chunks.append(b"y%d;" % len(value))
    chunks.append(value)


#: The type tag of each (dtype, shape) met lately, at most ``_ARRAY_TAGS_MAX``.
_ARRAY_TAGS: Dict[tuple, bytes] = {}
_ARRAY_TAGS_MAX = 1024

#: The feeder of each exact type met so far; :func:`_feeder` fills it.
_FEEDERS: Dict[type, Callable[[list, object], None]] = {
    np.ndarray: _feed_array,
    bool: lambda chunks, value: chunks.append(b"b1" if value else b"b0"),
    int: lambda chunks, value: chunks.append(b"i%d;" % value),
    float: lambda chunks, value: chunks.append(b"f" + _DOUBLE.pack(value)),
    str: _feed_str,
    bytes: _feed_bytes,
    tuple: _feed_sequence,
    list: _feed_sequence,
    type(None): lambda chunks, value: chunks.append(b"n"),
}

_DOUBLE = struct.Struct("<d")


def _feeder(kind: type) -> Callable[[list, object], None]:
    """The feeder of values of type ``kind`` (numpy scalars, dataclasses, subclasses)."""
    if issubclass(kind, np.generic):
        feeder = lambda chunks, value: _feed_array(chunks, np.asarray(value))  # noqa: E731
    elif dataclasses.is_dataclass(kind):
        # By its class and every field, so a field added later cannot be
        # left out.
        names = tuple(f.name for f in dataclasses.fields(kind))
        tag_chunks: list = []
        _feed_str(tag_chunks, f"{kind.__module__}.{kind.__qualname__}")
        tag = b"".join(tag_chunks) + b"t%d;" % len(names)

        def feeder(chunks: list, value: object) -> None:
            chunks.append(tag)
            for name in names:
                _feed(chunks, getattr(value, name))

    else:
        for base, base_feeder in list(_FEEDERS.items()):
            if base is not type(None) and issubclass(kind, base):
                feeder = base_feeder
                break
        else:
            raise TypeError(f"memo cannot key a value of type {kind.__name__}")
    _FEEDERS[kind] = feeder
    return feeder


def _feed(chunks: list, value: object) -> None:
    """Append ``value``'s type tag and exact bytes to ``chunks``."""
    feeder = _FEEDERS.get(type(value))
    if feeder is None:
        feeder = _feeder(type(value))
    feeder(chunks, value)


def memo_key(*parts: object) -> bytes:
    """Digest of ``parts``' type tags and exact bytes.

    Arrays (not object arrays, which would enter by their pointers), numpy
    and Python scalars, strings, bytes, ``None``, tuples and lists of these,
    and dataclass instances by their class and fields.  Anything else raises
    ``TypeError``.
    """
    chunks: list = []
    _feed(chunks, parts)
    return hashlib.sha256(b"".join(chunks)).digest()


def frozen(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``, for an entry."""
    stored = np.array(array)
    stored.flags.writeable = False
    return stored


def _disabled() -> bool:
    # Imported lazily: the simulator sits below ``repro.core``.
    from repro.core import knobs

    return knobs.flag("REPRO_NO_CACHE")


class Memo(Generic[Result, Entry]):
    """One LRU table of a pure call's results, keyed by :func:`memo_key`.

    At most ``capacity`` entries are kept; beyond it the least recently used
    one is dropped.
    """

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[bytes, Entry]" = OrderedDict()
        _MEMOS[name] = self

    def call(
        self,
        parts: Iterable[object],
        compute: Callable[[], Result],
        store: Callable[[Result], Entry],
        load: Callable[[Entry], Result],
    ) -> Result:
        """``compute()``, or ``load`` of the entry stored for the same ``parts``.

        ``parts`` are everything ``compute`` reads.  ``store`` turns a
        computed result into the entry kept: read-only arrays, no reference
        to the inputs or to the result handed out.  ``load`` turns an entry
        into a fresh result with writable copies.
        """
        if _disabled():
            return compute()
        key = memo_key(*parts)
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
            self.hits += 1
            return load(entry)
        self.misses += 1
        result = compute()
        entries[key] = store(result)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return result

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit and miss counters."""
        return {"hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Hit and miss counters of every memo, by name."""
    return {name: memo.stats() for name, memo in sorted(_MEMOS.items())}


def reset_memos() -> None:
    """Empty every memo and zero its counters (tests, benchmarks)."""
    for memo in _MEMOS.values():
        memo.clear()
