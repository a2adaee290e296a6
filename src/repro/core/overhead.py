"""Detection and recovery compute-overhead accounting (Table II).

Table II of the paper reports, per environment, the detection (DET) and
recovery (RECOV) compute-time overhead of each PPC stage as a percentage of
the pipeline's total compute time, for the Gaussian scheme, and a single
"PPC" row for the autoencoder scheme.  The numbers come from the per-node
accounting gathered during D&R campaign runs: kernels charge their nominal
latency per invocation and their recomputation latency under the
``recovery`` category, while the detection node charges per-check detection
latency under ``detection:<stage>`` (GAD) or ``detection:ppc`` (AAD).  The
report engine (:meth:`repro.analysis.report.GroupAggregate.overhead_report`)
turns those charges into an :class:`OverheadReport` per D&R cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro import topics

#: Mapping from kernel node name to its PPC stage (for recovery attribution).
KERNEL_STAGES: Dict[str, str] = {
    "point_cloud_generation": "perception",
    "octomap_generation": "perception",
    "collision_check": "perception",
    "mission_planner": "planning",
    "motion_planner": "planning",
    "pid_control": "control",
}


@dataclass
class OverheadReport:
    """Per-stage detection/recovery overhead of one D&R configuration."""

    detector: str
    environment: str
    detection_fraction: Dict[str, float] = field(default_factory=dict)
    recovery_fraction: Dict[str, float] = field(default_factory=dict)
    total_compute_time: float = 0.0

    @property
    def total_overhead(self) -> float:
        """Sum of all detection and recovery fractions."""
        return sum(self.detection_fraction.values()) + sum(self.recovery_fraction.values())

    def stages(self) -> List[str]:
        """Every stage charged detection *or* recovery time, in pipeline order.

        ``ppc`` (the AAD scheme's single detection row) comes first, then the
        PPC stages.  The AAD scheme detects under ``"ppc"`` but recovers under
        ``"control"``, so both fraction maps are walked: iterating only the
        detection keys dropped the control RECOV row while the ``sum`` line
        still included it.
        """
        charged = set(self.detection_fraction) | set(self.recovery_fraction)
        order = ("ppc", *topics.PPC_STAGES)
        return [stage for stage in order if stage in charged] + sorted(charged - set(order))

    def rows(self) -> List[str]:
        """Human-readable rows mirroring Table II (rows sum to the sum line)."""
        lines = []
        for stage in self.stages():
            det = self.detection_fraction.get(stage, 0.0)
            rec = self.recovery_fraction.get(stage, 0.0)
            lines.append(
                f"{stage:<12s} DET {det * 100:.4f}%   RECOV {rec * 100:.4f}%"
            )
        lines.append(f"{'sum':<12s} {self.total_overhead * 100:.4f}%")
        return lines

    def to_dict(self) -> Dict:
        """JSON form, as a report group's ``overhead`` entry holds it."""
        return {
            "detector": self.detector,
            "detection_fraction": dict(sorted(self.detection_fraction.items())),
            "recovery_fraction": dict(sorted(self.recovery_fraction.items())),
            "total_overhead": self.total_overhead,
            "total_compute_time": self.total_compute_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping, environment: str = "") -> "OverheadReport":
        """Inverse of :meth:`to_dict` (``total_overhead`` is derived, not read)."""
        return cls(
            detector=data["detector"],
            environment=environment,
            detection_fraction=dict(data["detection_fraction"]),
            recovery_fraction=dict(data["recovery_fraction"]),
            total_compute_time=data["total_compute_time"],
        )
