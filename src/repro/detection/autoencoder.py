"""Autoencoder-based anomaly detection (AAD, Section IV-D).

A single fully-connected autoencoder supervises the whole PPC pipeline: its
input is the vector of preprocessed deltas of all monitored inter-kernel
states, so it can learn the correlation *between* states that the per-state
Gaussian detectors cannot see.  Following the paper, the encoder has layers of
13, 6 and 3 neurons and the decoder mirrors it back to 13 outputs; training is
unsupervised with the mean-squared reconstruction error minimised by Adam, and
the detection threshold is the upper bound of the reconstruction error
observed on error-free data.

The network is implemented directly on numpy (no deep-learning framework is
required for a 13-6-3 model), which also keeps the modelled inference cost
honest: one forward pass is a handful of tiny matrix multiplies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.states import MONITORED_FEATURES


@dataclass
class AutoencoderConfig:
    """Architecture and training hyper-parameters."""

    layer_sizes: Tuple[int, ...] = (13, 6, 3, 13)
    learning_rate: float = 5e-3
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    threshold_margin: float = 1.3

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 3:
            raise ValueError("the autoencoder needs at least input, bottleneck and output layers")
        if self.layer_sizes[0] != self.layer_sizes[-1]:
            raise ValueError("the autoencoder input and output sizes must match")


class Autoencoder:
    """Small fully-connected autoencoder with tanh hidden activations."""

    def __init__(self, config: Optional[AutoencoderConfig] = None) -> None:
        self.config = config if config is not None else AutoencoderConfig()
        rng = np.random.default_rng(self.config.seed)
        sizes = self.config.layer_sizes
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / (n_in + n_out))
            self.weights.append(rng.normal(0.0, scale, size=(n_in, n_out)))
            self.biases.append(np.zeros(n_out))
        # Adam state.
        self._m = [np.zeros_like(w) for w in self.weights] + [np.zeros_like(b) for b in self.biases]
        self._v = [np.zeros_like(w) for w in self.weights] + [np.zeros_like(b) for b in self.biases]
        self._adam_t = 0

    # ------------------------------------------------------------------ model
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Reconstruct ``x`` (shape ``(N, D)`` or ``(D,)``)."""
        out, _ = self._forward_full(np.atleast_2d(np.asarray(x, dtype=float)))
        return out if np.asarray(x).ndim > 1 else out[0]

    def _forward_full(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else np.tanh(z)
            activations.append(h)
        return h, activations

    def reconstruction_error(self, x: np.ndarray) -> np.ndarray:
        """Per-sample mean squared reconstruction error."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        recon, _ = self._forward_full(x)
        return np.mean((recon - x) ** 2, axis=1)

    # --------------------------------------------------------------- training
    def _adam_step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.config.learning_rate
        self._adam_t += 1
        for i, (param, grad) in enumerate(zip(params, grads)):
            self._m[i] = beta1 * self._m[i] + (1 - beta1) * grad
            self._v[i] = beta2 * self._v[i] + (1 - beta2) * grad * grad
            m_hat = self._m[i] / (1 - beta1**self._adam_t)
            v_hat = self._v[i] / (1 - beta2**self._adam_t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def _backward(self, x: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray], float]:
        recon, activations = self._forward_full(x)
        n = x.shape[0]
        loss = float(np.mean((recon - x) ** 2))
        grad_out = 2.0 * (recon - x) / (n * x.shape[1])
        weight_grads: List[np.ndarray] = [np.zeros_like(w) for w in self.weights]
        bias_grads: List[np.ndarray] = [np.zeros_like(b) for b in self.biases]
        delta = grad_out
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            a_prev = activations[i]
            weight_grads[i] = a_prev.T @ delta
            bias_grads[i] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
                delta = delta * (1.0 - activations[i] ** 2)  # tanh derivative
        return weight_grads, bias_grads, loss

    def train(self, data: np.ndarray) -> List[float]:
        """Unsupervised training on normal data; returns the per-epoch loss."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.config.layer_sizes[0]:
            raise ValueError(
                f"training data must have shape (N, {self.config.layer_sizes[0]}), got {data.shape}"
            )
        rng = np.random.default_rng(self.config.seed + 1)
        losses: List[float] = []
        n = data.shape[0]
        batch = min(self.config.batch_size, n)
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                wg, bg, loss = self._backward(data[idx])
                self._adam_step(self.weights + self.biases, wg + bg)
                epoch_loss += loss
                n_batches += 1
            losses.append(epoch_loss / max(n_batches, 1))
        return losses

    # ------------------------------------------------------------- persistence
    def state_dict(self) -> Dict[str, list]:
        """Serialisable snapshot of the network weights."""
        return {
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "layer_sizes": list(self.config.layer_sizes),
        }

    def load_state_dict(self, state: Dict[str, list]) -> None:
        """Restore weights saved with :meth:`state_dict`."""
        self.weights = [np.asarray(w, dtype=float) for w in state["weights"]]
        self.biases = [np.asarray(b, dtype=float) for b in state["biases"]]


class AadDetector:
    """The full AAD scheme: feature normalisation, autoencoder and threshold."""

    name = "aad"

    def __init__(
        self,
        config: Optional[AutoencoderConfig] = None,
        features: Optional[Sequence[str]] = None,
    ) -> None:
        self.features = list(features) if features is not None else list(MONITORED_FEATURES)
        if config is None:
            config = AutoencoderConfig(
                layer_sizes=(len(self.features), 6, 3, len(self.features))
            )
        self.config = config
        self.autoencoder = Autoencoder(config)
        self.feature_mean = np.zeros(len(self.features))
        self.feature_std = np.ones(len(self.features))
        self.threshold = float("inf")
        self.alarm_count = 0
        self._latest_deltas: Dict[str, float] = {}

    # ---------------------------------------------------------------- training
    def fit(self, training_deltas: Dict[str, List[float]], vectors: Optional[np.ndarray] = None) -> List[float]:
        """Train the autoencoder on error-free delta vectors.

        ``vectors`` (shape ``(N, 13)``) are full feature vectors sampled during
        error-free missions; when not given they are assembled by aligning the
        per-feature delta traces in ``training_deltas``.
        """
        if vectors is None:
            vectors = self._assemble_vectors(training_deltas)
        vectors = np.asarray(vectors, dtype=float)
        if vectors.size == 0:
            raise ValueError("no training vectors available for the autoencoder")
        self.feature_mean = vectors.mean(axis=0)
        self.feature_std = vectors.std(axis=0)
        self.feature_std[self.feature_std < 1e-6] = 1.0
        normalized = (vectors - self.feature_mean) / self.feature_std
        losses = self.autoencoder.train(normalized)
        errors = self.autoencoder.reconstruction_error(normalized)
        self.threshold = float(errors.max() * self.config.threshold_margin)
        return losses

    def _assemble_vectors(self, training_deltas: Dict[str, List[float]]) -> np.ndarray:
        lengths = [len(training_deltas.get(f, [])) for f in self.features]
        n = min([l for l in lengths if l > 0], default=0)
        if n == 0:
            return np.zeros((0, len(self.features)))
        columns = []
        for feature in self.features:
            values = training_deltas.get(feature, [])
            if len(values) >= n:
                columns.append(np.asarray(values[:n], dtype=float))
            else:
                columns.append(np.zeros(n))
        return np.column_stack(columns)

    # --------------------------------------------------------------- detection
    def check_sample(self, deltas: Dict[str, float]) -> Tuple[bool, float]:
        """Check one sample of per-feature deltas.

        The detector keeps the latest delta of every feature so that a sample
        updating only a subset of features (messages arrive asynchronously) is
        checked against a complete feature vector.  Returns ``(anomalous,
        reconstruction_error)``.
        """
        self._latest_deltas.update(deltas)
        vector = np.array(
            [self._latest_deltas.get(feature, 0.0) for feature in self.features], dtype=float
        )
        normalized = (vector - self.feature_mean) / self.feature_std
        error = float(self.autoencoder.reconstruction_error(normalized)[0])
        anomalous = bool(error > self.threshold)
        if anomalous:
            self.alarm_count += 1
            # Do not keep the anomalous deltas around: they would contaminate
            # the next feature vectors.
            for feature in deltas:
                self._latest_deltas[feature] = 0.0
        return anomalous, error

    def reset_state(self) -> None:
        """Forget the latest deltas (between missions)."""
        self._latest_deltas.clear()
        self.alarm_count = 0

    def fork_for_run(self) -> "AadDetector":
        """Cheap per-mission fork sharing the frozen trained network.

        Detection only runs forward passes, so the autoencoder weights,
        normalisation vectors and threshold are shared by reference; only the
        per-mission mutable state (latest-delta window, alarm counter) is
        fresh.  Replaces the per-run ``copy.deepcopy`` of the whole detector.
        """
        clone = AadDetector.__new__(AadDetector)
        clone.features = self.features
        clone.config = self.config
        clone.autoencoder = self.autoencoder
        clone.feature_mean = self.feature_mean
        clone.feature_std = self.feature_std
        clone.threshold = self.threshold
        clone.alarm_count = 0
        clone._latest_deltas = {}
        return clone

    # ------------------------------------------------------------- persistence
    def save(self, path: Path) -> None:
        """Save the trained detector to JSON."""
        payload = {
            "features": self.features,
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
            "threshold": self.threshold,
            "network": self.autoencoder.state_dict(),
            "threshold_margin": self.config.threshold_margin,
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path: Path) -> "AadDetector":
        """Load a detector previously stored with :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        layer_sizes = tuple(payload["network"]["layer_sizes"])
        config = AutoencoderConfig(
            layer_sizes=layer_sizes, threshold_margin=payload.get("threshold_margin", 1.2)
        )
        detector = cls(config=config, features=payload["features"])
        detector.autoencoder.load_state_dict(payload["network"])
        detector.feature_mean = np.asarray(payload["feature_mean"], dtype=float)
        detector.feature_std = np.asarray(payload["feature_std"], dtype=float)
        detector.threshold = float(payload["threshold"])
        return detector
