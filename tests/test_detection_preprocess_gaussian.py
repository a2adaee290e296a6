"""Tests for data preprocessing and the Gaussian-based detector (GAD)."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fault import flip_float_bit
from repro.detection.gaussian import CGad, GadConfig, GaussianDetector, OnlineGaussian
from repro.detection.preprocess import (
    EXPONENT_BIAS,
    DataPreprocessor,
    TRANSFORM_RANGE,
    sign_exponent_int16,
)


class TestSignExponentTransform:
    def test_zero_maps_to_zero(self):
        assert sign_exponent_int16(0.0) == 0
        assert sign_exponent_int16(-0.0) == 0

    def test_sign_preserved(self):
        assert sign_exponent_int16(3.0) > 0
        assert sign_exponent_int16(-3.0) < 0
        assert sign_exponent_int16(3.0) == -sign_exponent_int16(-3.0)

    def test_monotonic_in_magnitude(self):
        values = [0.001, 0.1, 1.0, 10.0, 1e5, 1e100, 1e300]
        transformed = [sign_exponent_int16(v) for v in values]
        assert transformed == sorted(transformed)

    def test_mantissa_flip_invisible(self):
        value = 42.0
        corrupted = flip_float_bit(value, 10)  # mantissa bit
        assert sign_exponent_int16(value) == sign_exponent_int16(corrupted)

    def test_exponent_flip_to_huge_value_very_visible(self):
        # Bit 61 of 42.0 is clear; setting it multiplies the value by 2^512.
        value = 42.0
        corrupted = flip_float_bit(value, 61)
        delta = abs(sign_exponent_int16(corrupted) - sign_exponent_int16(value))
        assert delta > 400

    def test_exponent_flip_to_tiny_value_less_visible(self):
        # Bit 62 of 42.0 is set; clearing it collapses the value towards zero,
        # so the visible delta is only the magnitude of the original value's
        # transform -- the kind of corruption GAD can miss (Section VI-A).
        value = 42.0
        corrupted = flip_float_bit(value, 62)
        delta = abs(sign_exponent_int16(corrupted) - sign_exponent_int16(value))
        assert 0 < delta < 100

    def test_nan_maps_to_extreme(self):
        assert sign_exponent_int16(float("nan")) == TRANSFORM_RANGE

    def test_negative_nan_maps_to_positive_extreme(self):
        # The sign bit of a NaN is ignored: every NaN is the same outlier.
        negative_nan = np.copysign(np.nan, -1.0)
        assert np.signbit(negative_nan)
        assert sign_exponent_int16(negative_nan) == TRANSFORM_RANGE

    def test_denormal_maps_to_zero(self):
        assert sign_exponent_int16(5e-324) == 0
        assert sign_exponent_int16(-5e-324) == 0

    def test_infinities_map_to_signed_extremes(self):
        assert sign_exponent_int16(float("inf")) == TRANSFORM_RANGE
        assert sign_exponent_int16(-float("inf")) == -TRANSFORM_RANGE

    def test_tiny_values_clamped_to_zero(self):
        assert sign_exponent_int16(1e-12) == 0
        assert sign_exponent_int16(-1e-12) == 0

    def test_within_int16_range(self):
        for v in (1e308, -1e308, 1e-308, float("inf"), -float("inf")):
            assert -32768 <= sign_exponent_int16(v) <= 32767

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_property_matches_frexp_exponent(self, value):
        """Property: the bit-level transform equals a frexp-derived reference."""
        if math.isnan(value):
            expected = TRANSFORM_RANGE
        elif math.isinf(value):
            expected = int(math.copysign(TRANSFORM_RANGE, value))
        elif abs(value) < sys.float_info.min:  # zero or denormal: exponent field 0
            expected = 0
        else:
            field = math.frexp(abs(value))[1] + 1022  # IEEE-754 biased exponent
            expected = int(math.copysign(max(field - EXPONENT_BIAS, 0), value))
        assert sign_exponent_int16(value) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_property_non_decreasing(self, a, b):
        """Property: the transform never reverses the order of two values."""
        low, high = min(a, b), max(a, b)
        assert sign_exponent_int16(low) <= sign_exponent_int16(high)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False))
    def test_property_odd_symmetry(self, value):
        """Property: negating a value negates its transform."""
        assert sign_exponent_int16(-value) == -sign_exponent_int16(value)


class TestDataPreprocessor:
    def test_first_sample_has_no_delta(self):
        pre = DataPreprocessor()
        assert pre.update("x", 1.0) is None
        assert pre.update("x", 2.0) is not None

    def test_delta_is_difference_of_transforms(self):
        pre = DataPreprocessor()
        pre.update("x", 1.0)
        delta = pre.update("x", 4.0)
        assert delta == sign_exponent_int16(4.0) - sign_exponent_int16(1.0)

    def test_features_independent(self):
        pre = DataPreprocessor()
        pre.update("x", 1.0)
        assert pre.update("y", 100.0) is None

    def test_update_many(self):
        pre = DataPreprocessor()
        pre.update_many({"a": 1.0, "b": 2.0})
        deltas = pre.update_many({"a": 2.0, "b": 2.0})
        assert set(deltas) == {"a", "b"}
        assert deltas["b"] == 0

    def test_trace_deltas_are_consecutive_transform_differences(self):
        """Replaying a trace yields the differences of consecutive transforms."""
        trace = np.random.default_rng(5).normal(0.0, 100.0, size=37)
        trace[5], trace[9], trace[20] = np.nan, np.inf, -np.inf
        transformed = [sign_exponent_int16(v) for v in trace]
        pre = DataPreprocessor()
        deltas = [pre.update_many({"f": v}).get("f") for v in trace]
        assert deltas[0] is None  # first-ever sample yields no delta
        assert deltas[1:] == np.diff(transformed).tolist()
        # The history carries over: the next sample is differenced against
        # the last value of the trace.
        assert pre.update("f", 1.0) == sign_exponent_int16(1.0) - transformed[-1]

    def test_reset_feature(self):
        pre = DataPreprocessor()
        pre.update("a", 1.0)
        pre.reset_feature(["a"])
        assert pre.update("a", 100.0) is None

    def test_reset_all(self):
        pre = DataPreprocessor()
        pre.update_many({"a": 1.0, "b": 2.0})
        pre.reset()
        assert pre.known_features() == []


class TestOnlineGaussian:
    def test_matches_numpy_statistics(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(5.0, 2.0, size=500)
        estimator = OnlineGaussian()
        for sample in samples:
            estimator.update(sample)
        assert estimator.mean == pytest.approx(samples.mean(), rel=1e-9)
        assert estimator.std == pytest.approx(samples.std(ddof=1), rel=1e-9)

    def test_std_zero_before_two_samples(self):
        estimator = OnlineGaussian()
        assert estimator.std == 0.0
        estimator.update(3.0)
        assert estimator.std == 0.0

    def test_merge_prior(self):
        estimator = OnlineGaussian()
        estimator.merge_prior(mean=10.0, std=2.0, count=100)
        assert estimator.mean == 10.0
        assert estimator.std == pytest.approx(2.0, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_welford_agrees_with_batch_computation(self, values):
        """Property: the Eq. (1)-(2) recurrences equal the batch mean/std."""
        estimator = OnlineGaussian()
        for value in values:
            estimator.update(value)
        assert estimator.mean == pytest.approx(np.mean(values), rel=1e-6, abs=1e-6)
        assert estimator.std == pytest.approx(np.std(values, ddof=1), rel=1e-6, abs=1e-6)


class TestCGad:
    def test_not_armed_before_min_samples(self):
        detector = CGad("x", GadConfig(min_samples=10))
        for _ in range(5):
            assert not detector.check(1000.0).anomalous

    def test_detects_outlier_after_training(self):
        detector = CGad("x", GadConfig(n_sigma=5, min_samples=5, min_std=1.0))
        for value in np.random.default_rng(0).normal(0, 2, 100):
            detector.check(value)
        assert detector.check(100.0).anomalous

    def test_anomalous_sample_not_folded_into_model(self):
        detector = CGad("x", GadConfig(n_sigma=5, min_samples=5, min_std=1.0))
        for value in np.random.default_rng(0).normal(0, 2, 100):
            detector.check(value)
        mean_before = detector.model.mean
        detector.check(1000.0)
        assert detector.model.mean == mean_before

    def test_online_update_disabled(self):
        detector = CGad("x", GadConfig(online_update=False, min_samples=1))
        detector.check(1.0)
        assert detector.model.count == 0


    def test_frozen_check_is_the_n_sigma_test_on_a_fixed_model(self):
        config = GadConfig(n_sigma=3.0, min_samples=5, min_std=1.0, online_update=False)
        detector = CGad("x", config)
        detector.model.merge_prior(mean=2.0, std=4.0, count=50)
        assert detector.model.std == pytest.approx(4.0)
        threshold = 3.0 * detector.model.std
        verdicts = []
        for delta in np.random.default_rng(1).normal(2.0, 8.0, size=64):
            decision = detector.check(delta)
            assert decision.score == abs(delta - 2.0)
            assert decision.threshold == threshold
            assert decision.anomalous == (abs(delta - 2.0) > threshold)
            verdicts.append(decision.anomalous)
        assert any(verdicts) and not all(verdicts)
        assert detector.alarm_count == sum(verdicts)
        assert (detector.model.count, detector.model.mean) == (50, 2.0)


class TestGaussianDetector:
    def test_fit_and_detect(self, synthetic_training_deltas):
        detector = GaussianDetector(GadConfig(n_sigma=6, min_samples=5))
        detector.fit(synthetic_training_deltas)
        anomalies = detector.check_sample({"waypoint_x": 900.0})
        assert anomalies and anomalies[0].feature == "waypoint_x"

    def test_normal_sample_not_flagged(self, trained_gad):
        assert trained_gad.check_sample({"waypoint_x": 1.0, "command_vx": 2.0}) == []

    def test_unknown_feature_ignored(self, trained_gad):
        assert trained_gad.check_sample({"not_a_feature": 1e9}) == []

    def test_stage_routing(self, trained_gad):
        assert trained_gad.stage_of("time_to_collision") == "perception"
        assert trained_gad.stage_of("waypoint_x") == "planning"
        assert trained_gad.stage_of("command_vx") == "control"

    def test_check_sample_honours_per_cgad_config(self, synthetic_training_deltas):
        """A cGAD whose config diverges from the detector default keeps its own."""
        detector = GaussianDetector(GadConfig(n_sigma=6, min_samples=5))
        detector.fit(synthetic_training_deltas)
        detector.detectors["waypoint_x"].config = GadConfig(n_sigma=0.5, min_samples=5)
        # Every feature moves one standard deviation: only the 0.5-sigma cGAD fires.
        sample = {
            name: cgad.model.mean + max(cgad.model.std, cgad.config.min_std)
            for name, cgad in detector.detectors.items()
        }
        anomalies = detector.check_sample(sample)
        assert [decision.feature for decision in anomalies] == ["waypoint_x"]

    def test_alarm_counting(self, synthetic_training_deltas):
        detector = GaussianDetector(GadConfig(n_sigma=6, min_samples=5))
        detector.fit(synthetic_training_deltas)
        detector.check_sample({"waypoint_x": 5000.0})
        assert detector.total_alarms == 1

    def test_save_and_load_round_trip(self, trained_gad, tmp_path):
        path = tmp_path / "gad.json"
        trained_gad.save(path)
        loaded = GaussianDetector.load(path)
        assert set(loaded.detectors) == set(trained_gad.detectors)
        original = trained_gad.detectors["waypoint_x"].model
        restored = loaded.detectors["waypoint_x"].model
        assert restored.mean == pytest.approx(original.mean)
        assert restored.std == pytest.approx(original.std, rel=1e-6)
        # The loaded detector must behave identically on a clear outlier.
        assert bool(loaded.check_sample({"waypoint_x": 9000.0}))
