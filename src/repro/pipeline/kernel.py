"""Base class for PPC compute kernels.

Each ROS node of the MAVBench pipeline "comprises a single compute kernel"
(Section II-A).  :class:`KernelNode` adds, on top of the plain middleware
node, the three facilities the MAVFI framework needs from every kernel:

* **compute-time accounting** -- every kernel invocation charges its modelled
  latency (from the compute-platform model) so that overhead tables and the
  platform comparison can be produced;
* **fault-injection hooks** -- the injector can either arm a one-shot
  corruption of the kernel's next published output or ask the kernel to
  corrupt an element of its internal working state;
* **recomputation** -- each kernel caches the inputs of its last invocation
  and can re-run it on request from the recovery path, charging the
  recomputation latency to the ``recovery`` accounting category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.rosmw.message import Message
from repro.rosmw.node import Node, Publisher


@dataclass
class PendingFault:
    """A one-shot corruption armed on a kernel's next published output.

    ``corrupt`` receives the outgoing message and a random generator and
    mutates the message in place (typically flipping one bit of one field);
    it may return a description of what was actually corrupted (leaf path and
    effective bit), which the kernel records for fault-metadata reporting.
    """

    corrupt: Callable[[Message, np.random.Generator], Optional[str]]
    rng: np.random.Generator
    description: str = "bit flip"
    applied: bool = False


class _MessageFieldCorruption:
    """One-shot single-bit corruption of a kernel's next published message.

    A callable object rather than a closure so that golden-prefix forking
    rebinds the corruption to the copied node through the deepcopy memo.  The
    nested function this replaces pinned the original node through its
    closure cell, so a fork kept corrupting the original node's messages.
    """

    def __init__(self, node: "KernelNode", bit: int, label: str = "output") -> None:
        self.node = node
        self.bit = bit
        self.label = label

    def __call__(
        self, msg: Message, fault_rng: np.random.Generator
    ) -> Optional[str]:
        from repro.core.fault import corrupt_message_field

        corruption = corrupt_message_field(msg, fault_rng, bit=self.bit)
        if corruption is None:
            return None
        return f"{self.node.name}: corrupted {self.label} field {corruption}"


class KernelNode(Node):
    """A single PPC compute kernel wrapped as a middleware node."""

    #: PPC stage this kernel belongs to: ``perception``, ``planning`` or ``control``.
    stage: str = "perception"

    def __init__(self, name: str, latency: float = 0.001) -> None:
        super().__init__(name)
        self.latency = float(latency)
        self.invocation_count = 0
        self.recompute_count = 0
        #: Description of the last applied output fault (leaf path and the
        #: bit actually flipped); "" until an armed fault applies.
        self.applied_fault_description = ""
        self._pending_fault: Optional[PendingFault] = None
        self._last_inputs: Dict[str, Any] = {}
        self._output_publisher: Optional[Publisher] = None

    # ----------------------------------------------------------- fault hooks
    def arm_output_fault(self, fault: PendingFault) -> None:
        """Arm a one-shot corruption of this kernel's next published output."""
        self._pending_fault = fault

    @property
    def has_pending_fault(self) -> bool:
        """Whether an output corruption is armed and not yet applied."""
        return self._pending_fault is not None and not self._pending_fault.applied

    def corrupt_internal(self, rng: np.random.Generator, bit: int) -> str:
        """Corrupt an element of the kernel's internal working state.

        The default implementation has no persistent internal state, so the
        fault is converted into an output corruption of the next publish,
        which is how a transient fault in a stateless kernel manifests.
        Subclasses with persistent state (occupancy map, PID integrators,
        planner way-point buffers) override this.  Returns a human-readable
        description of the corrupted site.
        """
        self.arm_output_fault(
            PendingFault(
                corrupt=_MessageFieldCorruption(self, bit),
                rng=rng,
                description="output",
            )
        )
        return f"{self.name}: pending output corruption (bit {bit})"

    # --------------------------------------------------------------- compute
    def charge_invocation(self, category: str = "compute", scale: float = 1.0) -> None:
        """Charge one kernel invocation of modelled latency."""
        self.invocation_count += 1
        self.charge_compute(self.latency * scale, category=category)

    def publish_output(self, publisher: Publisher, message: Message) -> Message:
        """Publish a kernel output, applying any armed one-shot fault first."""
        if self._pending_fault is not None and not self._pending_fault.applied:
            detail = self._pending_fault.corrupt(message, self._pending_fault.rng)
            self._pending_fault.applied = True
            if detail:
                self.applied_fault_description = detail
        self._output_publisher = publisher
        delivered = publisher.publish(message)
        return message if delivered is None else delivered

    # ------------------------------------------------------------ recompute
    def cache_inputs(self, **inputs: Any) -> None:
        """Remember the inputs of the current invocation for recomputation."""
        self._last_inputs.update(inputs)

    def cached_input(self, name: str) -> Any:
        """Fetch a cached input (``None`` if the kernel has not run yet)."""
        return self._last_inputs.get(name)

    def recompute(self) -> bool:
        """Re-run the kernel from its cached inputs and republish the output.

        Returns ``True`` if a recomputation actually happened (i.e. the kernel
        had already run at least once).  The recomputation latency is charged
        to the ``recovery`` category so Table II can separate detection from
        recovery overhead.
        """
        if not self._last_inputs:
            return False
        self.recompute_count += 1
        self.charge_compute(self.latency, category="recovery")
        self._do_recompute()
        return True

    def _do_recompute(self) -> None:
        """Kernel-specific recomputation; subclasses override."""

    def reset_kernel(self) -> None:
        """Clear caches, counters and pending faults (between missions)."""
        self.invocation_count = 0
        self.recompute_count = 0
        self.applied_fault_description = ""
        self._pending_fault = None
        self._last_inputs.clear()
