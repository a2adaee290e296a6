"""Fork-safety regressions for the callable-object fault callbacks.

Each of these classes replaced a closure that repro lint RL003 now bans:
closures pin the original node through their cells (a deep-copied pipeline
kept corrupting the *original* node's messages) and cannot be pickled at
all.  A callable object rebinds through the deepcopy memo and pickles, which
is exactly what these tests pin down.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.injector import FaultInjectorNode, FaultPlan, _StateFieldTap
from repro.detection.training import FeatureCollectorNode, _TopicRecorder
from repro.perception.point_cloud import PointCloudNode, _PointElementCorruption
from repro.pipeline.kernel import KernelNode, _MessageFieldCorruption
from repro.rosmw.message import PointCloudMsg


class _Probe(KernelNode):
    stage = "perception"


def test_armed_kernel_fault_is_picklable():
    node = _Probe("probe")
    node.corrupt_internal(np.random.default_rng(0), bit=7)
    assert node.has_pending_fault
    clone = pickle.loads(pickle.dumps(node))
    assert clone.has_pending_fault
    fault = clone._pending_fault
    assert isinstance(fault.corrupt, _MessageFieldCorruption)
    assert fault.corrupt.bit == 7


def test_deepcopy_rebinds_corruption_to_the_copy():
    node = _Probe("probe")
    node.corrupt_internal(np.random.default_rng(0), bit=3)
    clone = copy.deepcopy(node)
    # The copied fault must point at the copied node, not the original:
    # before the callable-object refactor the closure kept corrupting the
    # original node's output messages after a golden-prefix fork.
    assert clone._pending_fault.corrupt.node is clone
    assert node._pending_fault.corrupt.node is node
    assert clone._pending_fault.corrupt.node is not node


def test_message_field_corruption_applies_and_describes():
    node = _Probe("probe")
    rng = np.random.default_rng(5)
    corruption = _MessageFieldCorruption(node, bit=11, label="output")
    msg = PointCloudMsg(points=np.ones((4, 3)))
    detail = corruption(msg, rng)
    assert detail is not None and detail.startswith("probe: corrupted output field")


def test_point_element_corruption_pickles_and_mutates():
    armed = PointCloudNode()
    armed.corrupt_internal(np.random.default_rng(2), bit=9)
    clone = pickle.loads(pickle.dumps(armed))
    fault = clone._pending_fault
    assert isinstance(fault.corrupt, _PointElementCorruption)
    msg = PointCloudMsg(points=np.ones((8, 3)))
    before = msg.points.copy()
    fault.corrupt(msg, np.random.default_rng(2))
    assert not np.array_equal(before, msg.points)


def test_state_field_tap_rebinds_with_injector():
    injector = FaultInjectorNode(FaultPlan(target_type="state", target="point_cloud"), {})
    tap = _StateFieldTap(injector, "point_cloud", bit=4)
    injector._state_tap = tap

    copied = copy.deepcopy(injector)
    assert copied._state_tap is not tap
    assert copied._state_tap.injector is copied

    revived = pickle.loads(pickle.dumps(injector))
    assert revived._state_tap.injector is revived
    assert revived._state_tap.bit == 4


def test_topic_recorder_rebinds_with_collector():
    collector = FeatureCollectorNode()
    recorder = _TopicRecorder(collector, "some/topic")

    copied_collector, copied_recorder = copy.deepcopy((collector, recorder))
    assert copied_recorder.node is copied_collector

    revived = pickle.loads(pickle.dumps(recorder))
    assert revived.topic == "some/topic"
    assert isinstance(revived.node, FeatureCollectorNode)


def test_control_node_command_fault_survives_fork():
    from repro.control.path_tracking import ControlNode

    node = ControlNode()
    # Drive corrupt_internal into the armed-command branch (choice >= 2/3
    # with no trajectory cached falls through to arming the next command).
    rng = np.random.default_rng(1)
    description = node.corrupt_internal(rng, bit=13)
    if not node.has_pending_fault:
        pytest.skip(f"rng drew a persistent-state branch: {description}")
    clone = copy.deepcopy(node)
    assert clone._pending_fault.corrupt.node is clone
    pickle.loads(pickle.dumps(node))
