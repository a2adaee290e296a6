"""Outside-in layer tracer: spans recorded by wrapping each layer's public calls.

Nothing in ``src/`` knows about it.  :meth:`Tracer.install` replaces each
function or method named in :data:`LAYERS` with a timing wrapper -- on its
class, or in every loaded ``repro`` module that bound the function by name --
and :meth:`Tracer.uninstall` puts the originals back.  Spans (layer, parent
span, start, end) are kept in flat in-memory arrays and written out
once, when the run ends.

A span's *self time* is its duration minus the time its child spans cover;
the self times of all spans plus the unattributed residual add up to the
traced wall time.  Only single-threaded, in-process execution is traced:
spans recorded inside pool workers would never reach the parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

#: span name -> (module, attribute paths) of the public calls it wraps.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "planning.rrt": (
        "repro.planning.rrt",
        ("RRTPlanner.plan", "RRTStarPlanner.plan", "RRTConnectPlanner.plan"),
    ),
    "planning.smooth": ("repro.planning.smoothing", ("PathSmoother.shortcut", "PathSmoother.resample")),
    "sim.ray_cast": ("repro.sim.world", ("World.ray_cast",)),
    "sim.camera": ("repro.sim.sensors", ("DepthCamera.capture",)),
    "sim.dynamics": ("repro.sim.vehicle", ("QuadrotorDynamics.step",)),
    "rosmw.spin": ("repro.rosmw.executor", ("Executor.spin_until",)),
    "rosmw.publish": ("repro.rosmw.topic", ("TopicBus.publish",)),
    "perception.point_cloud": ("repro.perception.point_cloud", ("PointCloudGenerator.compute",)),
    "perception.occupancy": (
        "repro.perception.occupancy",
        ("OccupancyMap.insert_point_cloud", "ScalarOccupancyMap.insert_point_cloud"),
    ),
    "perception.collision": ("repro.perception.collision_check", ("CollisionChecker.compute",)),
    "control.track": ("repro.control.path_tracking", ("PathTracker.compute",)),
    "detection.gad": ("repro.detection.gaussian", ("GaussianDetector.check_sample",)),
    "detection.aad": ("repro.detection.autoencoder", ("AadDetector.check_sample",)),
    "detection.preprocess": ("repro.detection.preprocess", ("DataPreprocessor.update_many",)),
    "detection.recompute": ("repro.pipeline.kernel", ("KernelNode.recompute",)),
    "detection.train": ("repro.detection.training", ("train_detectors",)),
    "pipeline.build": ("repro.pipeline.builder", ("build_pipeline",)),
    "pipeline.collect": ("repro.pipeline.runner", ("MissionRunner.collect",)),
    "checkpoint.fork": ("repro.core.checkpoint", ("GoldenPrefixCursor.fork",)),
    "results.append": ("repro.core.results", ("JsonlResultStore.append",)),
    # iter_records returns a generator: each record it yields is one call.
    "results.load": ("repro.core.results", ("JsonlResultStore.load_results", "JsonlResultStore.iter_records")),
    "report.build": ("repro.analysis.report", ("build_report",)),
}


class Tracer:
    """Records nested spans around the calls named in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.names: Tuple[str, ...] = tuple(LAYERS)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording
    def _open_span(self, code: int) -> int:
        index = len(self.start)
        self.layer.append(code)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def _close_span(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def _timed_items(self, code: int, iterator):
        while True:
            index = self._open_span(code)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close_span(index)
            yield item

    def _wrap(self, code: int, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open_span(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(index)
            if isinstance(result, types.GeneratorType):
                return self._timed_items(code, result)
            return result

        return traced

    # --------------------------------------------------------- installation
    def install(self) -> None:
        """Wrap every layer call (once; :meth:`uninstall` before re-installing)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for code, (module_name, attributes) in enumerate(LAYERS.values()):
            module = importlib.import_module(module_name)
            for path in attributes:
                if "." in path:
                    class_name, method = path.split(".")
                    owner = getattr(module, class_name)
                    self._patch(owner, method, self._wrap(code, vars(owner)[method]))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(code, original)
                # Rebind the function wherever it was imported by name.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        getattr(loaded, path, None) is original
                    ):
                        self._patch(loaded, path, wrapper)

    def _patch(self, owner: object, attribute: str, wrapper: Callable) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped call."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis
    def layer_table(self, wall_s: float) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per-layer calls, self ms and share of ``wall_s``, plus the
        unattributed share (``wall_s`` minus the time top-level spans cover)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.intc)
        layer = np.frombuffer(self.layer, dtype=np.intc)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        self_s = duration - covered
        calls = np.bincount(layer, minlength=len(self.names))
        self_sum = np.bincount(layer, weights=self_s, minlength=len(self.names))
        table = {
            name: {
                "calls": int(calls[code]),
                "self_ms": float(self_sum[code] * 1e3),
                "share": float(self_sum[code] / wall_s),
            }
            for code, name in enumerate(self.names)
        }
        unattributed = (wall_s - float(duration[~nested].sum())) / wall_s
        return table, unattributed

    def write(self, path: Path) -> None:
        """Write every recorded span (the in-memory arrays) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
