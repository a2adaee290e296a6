"""Gaussian-based anomaly detection (GAD, Section IV-C).

Each monitored inter-kernel state gets a *customised GAD* (cGAD): an online
Gaussian model of the state's preprocessed delta values, estimated with the
Welford recurrences of Eq. (1)-(2):

    M_k = M_{k-1} + (x_k - M_{k-1}) / k
    S_k = S_{k-1} + (x_k - M_{k-1})(x_k - M_k)
    sigma = sqrt(S_k / (k - 1))          for k >= 2

A sample farther than ``n`` sigma from the mean raises the cGAD's alarm; the
alarms of all cGADs of one PPC stage are OR-ed into the stage alarm, which
triggers recomputation of that stage.  The number of sigma ``n`` is
configurable (the paper optimises it per task complexity).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.pipeline.states import FEATURE_STAGE, MONITORED_FEATURES


class OnlineGaussian:
    """Welford online estimator of mean and standard deviation."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._s = 0.0

    def update(self, value: float) -> None:
        """Fold one sample into the running estimate (Eq. 1-2 of the paper)."""
        value = float(value)
        self.count += 1
        if self.count == 1:
            self.mean = value
            self._s = 0.0
            return
        previous_mean = self.mean
        self.mean = previous_mean + (value - previous_mean) / self.count
        self._s = self._s + (value - previous_mean) * (value - self.mean)

    @property
    def std(self) -> float:
        """Sample standard deviation (0 until two samples are seen)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._s / (self.count - 1))

    def merge_prior(self, mean: float, std: float, count: int) -> None:
        """Initialise the estimator from previously trained statistics."""
        if count < 1:
            return
        self.count = int(count)
        self.mean = float(mean)
        self._s = float(std) ** 2 * max(count - 1, 0)

    def to_dict(self) -> Dict[str, float]:
        """Serialisable snapshot of the estimator."""
        return {"count": self.count, "mean": self.mean, "std": self.std}


@dataclass
class GadConfig:
    """Configuration of the Gaussian-based detector."""

    n_sigma: float = 8.0
    min_samples: int = 20
    min_std: float = 2.0
    online_update: bool = True


@dataclass
class GadDecision:
    """Outcome of checking one sample against one cGAD."""

    anomalous: bool
    feature: str
    score: float
    threshold: float


class CGad:
    """Customised GAD for one inter-kernel state."""

    def __init__(self, feature: str, config: Optional[GadConfig] = None) -> None:
        self.feature = feature
        self.config = config if config is not None else GadConfig()
        self.model = OnlineGaussian()
        self.alarm_count = 0

    def check(self, delta: float) -> GadDecision:
        """Check one preprocessed delta; update the model when configured to."""
        cfg = self.config
        std = max(self.model.std, cfg.min_std)
        deviation = abs(float(delta) - self.model.mean)
        threshold = cfg.n_sigma * std
        armed = self.model.count >= cfg.min_samples
        anomalous = bool(armed and deviation > threshold)
        if anomalous:
            self.alarm_count += 1
        # Anomalous samples are not folded into the model: they would widen
        # the normal range and mask subsequent faults.
        if cfg.online_update and not anomalous:
            self.model.update(float(delta))
        return GadDecision(
            anomalous=anomalous,
            feature=self.feature,
            score=deviation,
            threshold=threshold,
        )


class GaussianDetector:
    """The full GAD scheme: one cGAD per monitored state, grouped per stage."""

    name = "gad"

    def __init__(
        self,
        config: Optional[GadConfig] = None,
        features: Optional[Iterable[str]] = None,
    ) -> None:
        self.config = config if config is not None else GadConfig()
        feature_list = list(features) if features is not None else list(MONITORED_FEATURES)
        self.detectors: Dict[str, CGad] = {
            feature: CGad(feature, self.config) for feature in feature_list
        }

    # ---------------------------------------------------------------- training
    def fit(self, training_deltas: Dict[str, List[float]]) -> None:
        """Estimate the per-state Gaussian parameters from error-free deltas."""
        for feature, values in training_deltas.items():
            if feature not in self.detectors or not values:
                continue
            estimator = OnlineGaussian()
            for value in values:
                estimator.update(float(value))
            self.detectors[feature].model = estimator

    # --------------------------------------------------------------- detection
    def check_sample(self, deltas: Dict[str, float]) -> List[GadDecision]:
        """Check a dict of per-feature deltas; returns decisions for anomalies."""
        anomalies: List[GadDecision] = []
        for feature, delta in deltas.items():
            detector = self.detectors.get(feature)
            if detector is None:
                continue
            decision = detector.check(delta)
            if decision.anomalous:
                anomalies.append(decision)
        return anomalies

    def fork_for_run(self) -> "GaussianDetector":
        """Cheap per-mission fork: trained statistics copied, counters fresh.

        The cGAD models update online during a mission, so each run needs its
        own mutable model state.  This replaces the per-run ``copy.deepcopy``
        of the whole detector with an explicit copy of the ~3 floats per
        monitored state that actually constitute the trained baseline; the
        fork is numerically identical to a deep copy of a freshly trained
        (never-flown) detector.
        """
        clone = GaussianDetector.__new__(GaussianDetector)
        clone.config = self.config
        clone.detectors = {}
        for feature, cgad in self.detectors.items():
            forked = CGad(feature, cgad.config)
            forked.model.count = cgad.model.count
            forked.model.mean = cgad.model.mean
            forked.model._s = cgad.model._s
            clone.detectors[feature] = forked
        return clone

    def stage_of(self, feature: str) -> str:
        """PPC stage owning ``feature`` (for recomputation routing)."""
        return FEATURE_STAGE.get(feature, "control")

    @property
    def total_alarms(self) -> int:
        """Total alarms raised by all cGADs."""
        return sum(d.alarm_count for d in self.detectors.values())

    # ------------------------------------------------------------- persistence
    def save(self, path: Path) -> None:
        """Save the per-state Gaussian parameters to JSON."""
        payload = {
            "config": {
                "n_sigma": self.config.n_sigma,
                "min_samples": self.config.min_samples,
                "min_std": self.config.min_std,
                "online_update": self.config.online_update,
            },
            # Stored explicitly because ``sort_keys`` reorders "models": a
            # reloaded detector keeps the cGAD order it was trained with.
            "features": list(self.detectors),
            "models": {name: det.model.to_dict() for name, det in self.detectors.items()},
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Path) -> "GaussianDetector":
        """Load a detector previously stored with :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        config = GadConfig(**payload["config"])
        features = payload.get("features", list(payload["models"].keys()))
        detector = cls(config=config, features=features)
        for name, stats in payload["models"].items():
            detector.detectors[name].model.merge_prior(
                mean=stats["mean"], std=stats["std"], count=int(stats["count"])
            )
        return detector
