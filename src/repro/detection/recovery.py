"""Recovery: the recomputation feedback loop (Section IV-A / IV-E).

"Once an anomalous behavior is detected, an alarm signal will be raised by the
detection modules, triggering the recomputation of the corresponding stage,
which prevents the corrupted inter-kernel states from propagating to the other
kernels."

The :class:`RecoveryCoordinatorNode` advertises one recomputation service per
PPC stage.  A recomputation request re-runs every kernel of the stage from its
cached inputs (in pipeline order) and republishes clean outputs; the
recomputation latency of each kernel is charged to its ``recovery`` accounting
category, which is what Table II reports as the RECOV overhead.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro import topics
from repro.pipeline.kernel import KernelNode
from repro.rosmw.message import RecomputeRequestMsg
from repro.rosmw.node import Node


class _StageRecomputeHandler:
    """Service handler recomputing one stage of one coordinator.

    A callable object (not a closure) so a deep-copied pipeline (golden-prefix
    checkpointing) gets handlers bound to the copied coordinator and kernels.
    """

    def __init__(self, node: "RecoveryCoordinatorNode", stage: str) -> None:
        self.node = node
        self.stage = stage

    def __call__(self, request: RecomputeRequestMsg) -> bool:
        return self.node.recompute_stage(self.stage)


class RecoveryCoordinatorNode(Node):
    """Routes recomputation requests to the kernels of each PPC stage."""

    def __init__(self, kernels: Iterable[KernelNode]) -> None:
        super().__init__("recovery_coordinator")
        self._stage_kernels: Dict[str, List[KernelNode]] = {
            stage: [] for stage in topics.PPC_STAGES
        }
        for kernel in kernels:
            if kernel.stage in self._stage_kernels:
                self._stage_kernels[kernel.stage].append(kernel)
        self.recovery_counts: Dict[str, int] = {stage: 0 for stage in topics.PPC_STAGES}

    def on_start(self) -> None:
        for stage, service_name in topics.RECOMPUTE_SERVICES.items():
            self.advertise_service(service_name, self._make_handler(stage))

    def _make_handler(self, stage: str):
        return _StageRecomputeHandler(self, stage)

    def recompute_stage(self, stage: str) -> bool:
        """Re-run every kernel of ``stage`` from its cached inputs."""
        kernels = self._stage_kernels.get(stage, [])
        recomputed_any = False
        for kernel in kernels:
            if kernel.recompute():
                recomputed_any = True
        if recomputed_any:
            self.recovery_counts[stage] = self.recovery_counts.get(stage, 0) + 1
        return recomputed_any

    @property
    def total_recoveries(self) -> int:
        """Total stage recomputations performed."""
        return sum(self.recovery_counts.values())
