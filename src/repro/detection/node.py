"""The Anomaly Detection Node (Fig. 5a) and its wiring into the pipeline.

The detection node supervises the monitored inter-kernel state topics.  Every
message is preprocessed (sign+exponent transform, delta calculation) and
checked by the configured detector:

* with **GAD**, an anomalous state triggers recomputation of the stage that
  owns the state;
* with **AAD**, any anomaly triggers recomputation of the control stage only
  (the paper's design: one autoencoder supervises the whole pipeline and the
  cheap control recomputation prevents a corrupted command from reaching the
  actuator).

In both cases the corrupted message is abandoned ("the corrupted way-point
will be abandoned once an anomaly is detected") -- implemented by intercepting
the message before delivery -- and the recomputed clean output replaces it.
Detection time is charged per checked sample, recovery time is charged by the
kernels that recompute; together they produce Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import topics
from repro.detection.autoencoder import AadDetector
from repro.detection.gaussian import GaussianDetector
from repro.detection.preprocess import DataPreprocessor
from repro.pipeline.states import (
    extract_feature_samples,
    stage_of_topic,
    MONITORED_TOPICS,
)
from repro.rosmw.message import AlarmMsg, Message
from repro.rosmw.node import Node


#: Features reset at each trajectory message so way-point deltas are computed
#: within one trajectory rather than across re-plans.
_TRAJECTORY_FEATURES = (
    "waypoint_x",
    "waypoint_y",
    "waypoint_z",
    "waypoint_yaw",
    "waypoint_vx",
    "waypoint_vy",
    "waypoint_vz",
)


@dataclass
class _DetectionTap:
    """Topic tap routing messages into one detection node.

    A callable object (not a closure) so deep-copying a pipeline for
    golden-prefix checkpointing rebinds the tap to the copied node; a closure
    would keep feeding the original node's preprocessor from the copy's bus.
    """

    node: "AnomalyDetectionNode"
    topic: str

    def __call__(self, name: str, message: Message) -> Optional[Message]:
        return self.node._inspect(self.topic, message)


@dataclass
class DetectionPolicy:
    """How alarms are turned into recovery actions."""

    #: ``stage`` routes the recomputation to the stage owning the anomalous
    #: state (GAD); ``control`` always recomputes the control stage (AAD).
    recompute_target: str = "stage"
    drop_corrupted_message: bool = True


class AnomalyDetectionNode(Node):
    """Supervises inter-kernel states and triggers recomputation on anomalies."""

    def __init__(
        self,
        detector,
        detection_latency: float = 1.0e-6,
        policy: Optional[DetectionPolicy] = None,
    ) -> None:
        super().__init__("anomaly_detection")
        self.detector = detector
        self.detection_latency = float(detection_latency)
        # One autoencoder scores the whole pipeline and cannot name the
        # anomalous stage, so AAD recomputes control; GAD routes to the owner.
        self.policy = policy or DetectionPolicy(
            recompute_target="control" if isinstance(detector, AadDetector) else "stage"
        )
        self.preprocessor = DataPreprocessor()
        self.alarms_by_stage: Dict[str, int] = {stage: 0 for stage in topics.PPC_STAGES}
        self.dropped_messages = 0
        self.checked_samples = 0
        #: Simulated time of the first alarm of the mission (None = no alarm),
        #: and of the first alarm per PPC stage -- the raw material of the
        #: time-to-detect analysis (repro.analysis.detection_metrics).
        self.first_alarm_time: Optional[float] = None
        self.first_alarm_time_by_stage: Dict[str, float] = {}
        self._in_recovery = False
        self._taps = []

    # --------------------------------------------------------------- topology
    def on_start(self) -> None:
        self._alarm_pub = self.create_publisher(topics.ANOMALY_ALARM, AlarmMsg)
        self._recompute_proxies = {
            stage: self.service_proxy(service)
            for stage, service in topics.RECOMPUTE_SERVICES.items()
        }
        for topic in MONITORED_TOPICS:
            tap = self._make_tap(topic)
            self.graph.topic_bus.add_tap(topic, tap)
            self._taps.append((topic, tap))

    def on_shutdown(self) -> None:
        for topic, tap in self._taps:
            self.graph.topic_bus.remove_tap(topic, tap)
        self._taps.clear()

    # -------------------------------------------------------------- detection
    def _make_tap(self, topic: str):
        return _DetectionTap(self, topic)

    def _detector_stage_category(self, stage: str) -> str:
        if isinstance(self.detector, AadDetector):
            return "detection:ppc"
        return f"detection:{stage}"

    def _inspect(self, topic: str, message: Message) -> Optional[Message]:
        if not self.alive:
            return message
        samples = extract_feature_samples(topic, message)
        if not samples:
            return message
        if topic == topics.TRAJECTORY:
            self.preprocessor.reset_feature(_TRAJECTORY_FEATURES)
        stage = stage_of_topic(topic)

        anomalous_feature: Optional[str] = None
        anomaly_score = 0.0
        anomaly_threshold = 0.0
        for sample in samples:
            deltas = self.preprocessor.update_many(sample)
            if not deltas:
                continue
            self.checked_samples += 1
            self.charge_compute(
                self.detection_latency * max(len(deltas), 1)
                if isinstance(self.detector, GaussianDetector)
                else self.detection_latency,
                category=self._detector_stage_category(stage),
            )
            if self._in_recovery or anomalous_feature is not None:
                # Keep the preprocessor state consistent, but do not raise
                # nested alarms while a recovery is already in progress.
                continue
            if isinstance(self.detector, GaussianDetector):
                decisions = self.detector.check_sample(deltas)
                if decisions:
                    worst = max(decisions, key=lambda d: d.score)
                    anomalous_feature = worst.feature
                    anomaly_score = worst.score
                    anomaly_threshold = worst.threshold
            else:
                anomalous, error = self.detector.check_sample(deltas)
                if anomalous:
                    anomalous_feature = next(iter(deltas))
                    anomaly_score = error
                    anomaly_threshold = self.detector.threshold

        if anomalous_feature is None:
            return message

        self._raise_alarm(topic, stage, anomalous_feature, anomaly_score, anomaly_threshold)
        if self.policy.drop_corrupted_message:
            self.dropped_messages += 1
            return None
        return message

    # ---------------------------------------------------------------- recovery
    def _raise_alarm(
        self, topic: str, stage: str, feature: str, score: float, threshold: float
    ) -> None:
        detector_name = getattr(self.detector, "name", "detector")
        now = float(self.graph.clock.now)
        if self.first_alarm_time is None:
            self.first_alarm_time = now
        self.first_alarm_time_by_stage.setdefault(stage, now)
        self.alarms_by_stage[stage] = self.alarms_by_stage.get(stage, 0) + 1
        self._alarm_pub.publish(
            AlarmMsg(
                stage=stage,
                state_name=feature,
                score=float(score),
                threshold=float(threshold),
                detector=detector_name,
            )
        )
        target_stage = stage if self.policy.recompute_target == "stage" else "control"
        proxy = self._recompute_proxies.get(target_stage)
        if proxy is None or not proxy.exists():
            return
        self._in_recovery = True
        try:
            proxy.call(None)
        finally:
            self._in_recovery = False

    # ------------------------------------------------------------- inspection
    @property
    def total_alarms(self) -> int:
        """Total alarms raised during the mission."""
        return sum(self.alarms_by_stage.values())

    def reset_detection(self) -> None:
        """Clear per-mission detection state."""
        self.preprocessor.reset()
        self.alarms_by_stage = {stage: 0 for stage in topics.PPC_STAGES}
        self.dropped_messages = 0
        self.checked_samples = 0
        self.first_alarm_time = None
        self.first_alarm_time_by_stage = {}
        if isinstance(self.detector, AadDetector):
            self.detector.reset_state()


def attach_detection(handles, detector, detection_latency: Optional[float] = None):
    """Attach the detection and recovery nodes to a built (un-started) pipeline.

    ``handles`` is the :class:`~repro.pipeline.builder.PipelineHandles` of the
    pipeline; ``detector`` is a trained :class:`GaussianDetector` or
    :class:`AadDetector`.  The recovery coordinator is wired to every kernel
    of the pipeline and the detection node taps the monitored topics.  Both
    nodes are registered in ``handles.extras`` so the mission runner can pick
    up their statistics.  Returns ``(detection_node, recovery_node)``.
    """
    from repro.detection.recovery import RecoveryCoordinatorNode

    if detection_latency is None:
        detector_name = getattr(detector, "name", "gad")
        detection_latency = handles.platform.detection_latency(detector_name)

    recovery_node = RecoveryCoordinatorNode(handles.kernels.values())
    detection_node = AnomalyDetectionNode(detector, detection_latency=detection_latency)
    handles.graph.add_node(recovery_node)
    handles.graph.add_node(detection_node)
    handles.extras["detection_node"] = detection_node
    handles.extras["recovery_node"] = recovery_node
    return detection_node, recovery_node
