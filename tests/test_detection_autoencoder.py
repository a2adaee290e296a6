"""Tests for the autoencoder network and the AAD detector."""

import numpy as np
import pytest

from repro.detection.autoencoder import AadDetector, Autoencoder, AutoencoderConfig
from repro.pipeline.states import MONITORED_FEATURES


def _synthetic_normal_vectors(n=600, seed=0):
    """Correlated 'normal' feature vectors (13-dimensional)."""
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, size=(n, 3))
    mixing = rng.normal(0.0, 1.0, size=(3, len(MONITORED_FEATURES)))
    return base @ mixing + rng.normal(0.0, 0.1, size=(n, len(MONITORED_FEATURES)))


class TestAutoencoderNetwork:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoencoderConfig(layer_sizes=(13, 6))
        with pytest.raises(ValueError):
            AutoencoderConfig(layer_sizes=(13, 6, 12))

    def test_paper_architecture_default(self):
        config = AutoencoderConfig()
        assert config.layer_sizes == (13, 6, 3, 13)

    def test_forward_shapes(self):
        net = Autoencoder(AutoencoderConfig(layer_sizes=(13, 6, 3, 13)))
        single = net.forward(np.zeros(13))
        batch = net.forward(np.zeros((5, 13)))
        assert single.shape == (13,)
        assert batch.shape == (5, 13)

    def test_training_reduces_loss(self):
        data = _synthetic_normal_vectors()
        net = Autoencoder(AutoencoderConfig(layer_sizes=(13, 6, 3, 13), epochs=25, seed=1))
        losses = net.train(data)
        assert losses[-1] < losses[0] * 0.7

    def test_training_shape_validation(self):
        net = Autoencoder()
        with pytest.raises(ValueError):
            net.train(np.zeros((10, 7)))

    def test_reconstruction_error_lower_for_normal_data(self):
        data = _synthetic_normal_vectors()
        net = Autoencoder(AutoencoderConfig(layer_sizes=(13, 6, 3, 13), epochs=30, seed=1))
        net.train(data)
        normal_error = float(net.reconstruction_error(data).mean())
        anomaly = np.full((1, 13), 50.0)
        anomaly_error = float(net.reconstruction_error(anomaly)[0])
        assert anomaly_error > normal_error * 10

    def test_state_dict_round_trip(self):
        net = Autoencoder(AutoencoderConfig(layer_sizes=(13, 6, 3, 13), epochs=2))
        net.train(_synthetic_normal_vectors(n=100))
        clone = Autoencoder(AutoencoderConfig(layer_sizes=(13, 6, 3, 13)))
        clone.load_state_dict(net.state_dict())
        x = np.ones((3, 13))
        assert np.allclose(net.forward(x), clone.forward(x))

    def test_deterministic_given_seed(self):
        data = _synthetic_normal_vectors(n=200)
        a = Autoencoder(AutoencoderConfig(epochs=3, seed=5))
        b = Autoencoder(AutoencoderConfig(epochs=3, seed=5))
        a.train(data)
        b.train(data)
        assert np.allclose(a.weights[0], b.weights[0])


class TestAadDetector:
    def test_fit_sets_threshold_above_training_errors(self, synthetic_training_deltas):
        detector = AadDetector()
        detector.fit(synthetic_training_deltas)
        assert np.isfinite(detector.threshold)
        assert detector.threshold > 0

    def test_normal_sample_not_flagged(self, trained_aad):
        anomalous, error = trained_aad.check_sample({"waypoint_x": 1.0, "command_vx": 0.5})
        assert not anomalous
        assert error <= trained_aad.threshold

    def test_extreme_sample_flagged(self, trained_aad):
        anomalous, error = trained_aad.check_sample({"waypoint_x": 900.0})
        assert anomalous
        assert error > trained_aad.threshold

    def test_alarm_counting_and_reset(self, trained_aad):
        trained_aad.reset_state()
        trained_aad.check_sample({"waypoint_x": 900.0})
        assert trained_aad.alarm_count == 1
        trained_aad.reset_state()
        assert trained_aad.alarm_count == 0

    def test_latest_deltas_cleared_after_alarm(self, trained_aad):
        trained_aad.reset_state()
        trained_aad.check_sample({"waypoint_x": 900.0})
        # The anomalous delta must not linger and poison the next check.
        anomalous, _ = trained_aad.check_sample({"command_vx": 0.5})
        assert not anomalous
        trained_aad.reset_state()

    def test_partial_samples_use_latest_values(self, trained_aad):
        trained_aad.reset_state()
        ok, _ = trained_aad.check_sample({"time_to_collision": 1.0})
        assert not ok
        trained_aad.reset_state()

    def test_check_sample_scores_the_normalized_vector(self, trained_aad):
        """The online error is the autoencoder's error on the normalized vector."""
        rng = np.random.default_rng(11)
        scales = 3.0 + np.arange(len(MONITORED_FEATURES))  # the training spread
        vectors = rng.normal(0.0, 1.0, size=(16, len(MONITORED_FEATURES))) * scales
        vectors[8:] *= 50.0
        verdicts = []
        for vector in vectors:
            detector = trained_aad.fork_for_run()  # no delta state carried over
            anomalous, error = detector.check_sample(dict(zip(detector.features, vector)))
            normalized = (vector - trained_aad.feature_mean) / trained_aad.feature_std
            expected = float(trained_aad.autoencoder.reconstruction_error(normalized)[0])
            assert error == expected
            assert anomalous == (expected > trained_aad.threshold)
            verdicts.append(anomalous)
        assert not any(verdicts[:8]) and all(verdicts[8:])

    def test_partial_sample_completed_with_latest_deltas(self, trained_aad):
        """A sample naming one feature is scored with the others' latest deltas."""
        detector = trained_aad.fork_for_run()
        full = dict(zip(detector.features, np.arange(len(detector.features), dtype=float)))
        detector.check_sample(full)
        _, error = detector.check_sample({"waypoint_x": -4.0})
        vector = np.array([full[name] for name in detector.features])
        vector[detector.features.index("waypoint_x")] = -4.0
        normalized = (vector - trained_aad.feature_mean) / trained_aad.feature_std
        assert error == float(trained_aad.autoencoder.reconstruction_error(normalized)[0])

    def test_fit_requires_data(self):
        detector = AadDetector()
        with pytest.raises(ValueError):
            detector.fit({name: [] for name in MONITORED_FEATURES})

    def test_save_load_round_trip(self, trained_aad, tmp_path):
        path = tmp_path / "aad.json"
        trained_aad.save(path)
        loaded = AadDetector.load(path)
        assert loaded.threshold == pytest.approx(trained_aad.threshold)
        sample = {"waypoint_x": 900.0}
        assert loaded.check_sample(sample)[0] == trained_aad.check_sample(sample)[0]
        trained_aad.reset_state()

    def test_assemble_vectors_from_deltas(self, synthetic_training_deltas):
        detector = AadDetector()
        vectors = detector._assemble_vectors(synthetic_training_deltas)
        assert vectors.shape[1] == len(MONITORED_FEATURES)
        assert vectors.shape[0] > 0
