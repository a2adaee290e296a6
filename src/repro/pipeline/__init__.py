"""End-to-end PPC pipeline wiring and the mission runner.

This package turns the perception, planning and control kernels into a ROS
node graph matching Fig. 2 of the paper, defines the registry of monitored
inter-kernel states (Section III-B / Fig. 4), and provides a closed-loop
mission runner that launches the graph against a simulated environment and
reports quality-of-flight (QoF) metrics.

The stage packages import :mod:`repro.pipeline.kernel`, which runs this file
first; the builder and the runner import the stage packages back.  So the
builder's and the runner's names are resolved lazily, on first access, and
importing any stage module first in a fresh interpreter works.
"""

from typing import TYPE_CHECKING, Any

from repro.pipeline.kernel import KernelNode, PendingFault
from repro.pipeline.states import (
    INTER_KERNEL_STATES,
    MONITORED_FEATURES,
    InterKernelState,
    feature_vector_size,
)

if TYPE_CHECKING:
    from repro.pipeline.builder import PipelineConfig, PipelineHandles, build_pipeline
    from repro.pipeline.runner import MissionResult, MissionRunner

#: Lazily resolved name -> defining module.
_LAZY = {
    "PipelineConfig": "repro.pipeline.builder",
    "PipelineHandles": "repro.pipeline.builder",
    "build_pipeline": "repro.pipeline.builder",
    "MissionResult": "repro.pipeline.runner",
    "MissionRunner": "repro.pipeline.runner",
}


def __getattr__(name: str) -> Any:
    """Import the builder or the runner on first access of one of their names."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "KernelNode",
    "PendingFault",
    "PipelineConfig",
    "PipelineHandles",
    "build_pipeline",
    "MissionRunner",
    "MissionResult",
    "InterKernelState",
    "INTER_KERNEL_STATES",
    "MONITORED_FEATURES",
    "feature_vector_size",
]
