"""Tests for MissionResult JSONL serialisation and the result store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.results import (
    RESULT_FORMAT_VERSION,
    JsonlResultStore,
    flight_outcome_from_dict,
    flight_outcome_to_dict,
    mission_result_from_dict,
    mission_result_to_dict,
    mission_results_equal,
)
from repro.sim.airsim import FlightOutcome


@pytest.fixture(scope="module")
def sample_result():
    campaign = Campaign(
        CampaignConfig(environment="farm", num_golden=1, mission_time_limit=60.0)
    )
    return campaign.run_specs(campaign.golden_specs())[0]


class TestSerialisation:
    def test_round_trip_is_exact(self, sample_result):
        data = mission_result_to_dict(sample_result)
        restored = mission_result_from_dict(data)
        assert mission_result_to_dict(restored) == data
        assert mission_results_equal(sample_result, restored)
        assert restored.flight_time == sample_result.flight_time
        assert restored.trajectory.shape == sample_result.trajectory.shape
        assert np.array_equal(restored.trajectory, sample_result.trajectory)

    def test_dict_is_json_serialisable(self, sample_result):
        text = json.dumps(mission_result_to_dict(sample_result))
        restored = mission_result_from_dict(json.loads(text))
        assert mission_results_equal(sample_result, restored)

    def test_outcome_round_trip_with_inf_distance(self):
        outcome = FlightOutcome(
            success=False,
            flight_time=1.5,
            trajectory=[np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])],
            reason="test",
        )
        restored = flight_outcome_from_dict(flight_outcome_to_dict(outcome))
        assert restored.final_distance_to_goal == float("inf")
        assert restored.reason == "test"
        assert len(restored.trajectory) == 2
        assert np.array_equal(restored.trajectory[1], outcome.trajectory[1])

    def test_inf_distance_serialises_to_strict_json(self):
        """Non-finite floats must not emit RFC-invalid Infinity/NaN tokens."""
        text = json.dumps(flight_outcome_to_dict(FlightOutcome()))
        assert "Infinity" not in text and "NaN" not in text

        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        restored = flight_outcome_from_dict(
            json.loads(text, parse_constant=no_constants)
        )
        assert restored.final_distance_to_goal == float("inf")

    def test_empty_trajectory_round_trip(self, sample_result):
        data = mission_result_to_dict(sample_result)
        data["trajectory"] = []
        restored = mission_result_from_dict(data)
        assert restored.trajectory.shape == (0, 3)


class TestJsonlResultStore:
    def test_append_and_load(self, tmp_path, sample_result):
        store = JsonlResultStore(tmp_path / "r.jsonl")
        assert store.completed_keys() == set()
        store.append("abc", sample_result, meta={"setting": "golden", "seed": 0})
        store.append("def", sample_result)
        assert store.completed_keys() == {"abc", "def"}
        loaded = store.load_results()
        assert mission_results_equal(loaded["abc"], sample_result)
        records = store.load_records()
        assert records[0]["meta"] == {"setting": "golden", "seed": 0}
        assert len(store) == 2

    def test_skips_corrupt_lines(self, tmp_path, sample_result):
        store = JsonlResultStore(tmp_path / "r.jsonl")
        store.append("abc", sample_result)
        with store.path.open("a") as handle:
            handle.write('{"key": "torn", "result": {"succ\n')
            handle.write("not json at all\n")
        store.append("def", sample_result)
        assert store.completed_keys() == {"abc", "def"}

    def test_append_after_torn_tail_without_newline(self, tmp_path, sample_result):
        """Regression: appending after a newline-less torn tail must not merge
        the fresh record into the garbage line (which silently lost it).

        The torn tail comes from a *previous* killed writer, so the resuming
        campaign opens the file through a fresh store instance (the tail
        check runs once per instance).
        """
        store = JsonlResultStore(tmp_path / "r.jsonl")
        store.append("abc", sample_result)
        with store.path.open("a") as handle:
            handle.write('{"key": "torn", "result": {"succ')  # no newline
        resumed = JsonlResultStore(tmp_path / "r.jsonl")
        resumed.append("def", sample_result)
        assert resumed.completed_keys() == {"abc", "def"}
        loaded = resumed.load_results()
        assert mission_results_equal(loaded["def"], sample_result)

    def test_missing_file_is_empty(self, tmp_path):
        store = JsonlResultStore(tmp_path / "nope" / "r.jsonl")
        assert store.completed_keys() == set()
        assert store.load_results() == {}
        assert len(store) == 0

    def test_append_creates_parent_directory(self, tmp_path, sample_result):
        store = JsonlResultStore(tmp_path / "deep" / "dir" / "r.jsonl")
        store.append("abc", sample_result)
        assert store.path.exists()
        assert len(store) == 1

    def test_last_write_wins(self, tmp_path, sample_result):
        store = JsonlResultStore(tmp_path / "r.jsonl")
        store.append("abc", sample_result, meta={"generation": 1})
        store.append("abc", sample_result, meta={"generation": 2})
        assert len(store.load_results()) == 1
        assert store.load_records()[-1]["meta"] == {"generation": 2}


class TestFormatVersionGuard:
    """Regression: a newer writer's records must be rejected, not misread."""

    def test_writer_stamps_current_version(self, sample_result):
        assert mission_result_to_dict(sample_result)["format"] == RESULT_FORMAT_VERSION

    def test_pre_format_records_load_with_defaults(self, sample_result):
        legacy = mission_result_to_dict(sample_result)
        legacy.pop("format")
        legacy.pop("first_alarm_time", None)
        legacy.pop("injection_time", None)
        loaded = mission_result_from_dict(legacy)
        assert loaded.first_alarm_time is None
        assert loaded.injection_time is None

    def test_newer_format_rejected_loudly(self, sample_result):
        future = mission_result_to_dict(sample_result)
        future["format"] = RESULT_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="upgrade this reader"):
            mission_result_from_dict(future)

    @pytest.mark.parametrize("marker", ["3", 3.0, 0, -1])
    def test_malformed_format_marker_rejected(self, sample_result, marker):
        data = mission_result_to_dict(sample_result)
        data["format"] = marker
        with pytest.raises(ValueError, match="format marker|upgrade this reader"):
            mission_result_from_dict(data)

    def test_record_with_non_dict_meta_is_corrupt(self, tmp_path, sample_result):
        store = JsonlResultStore(tmp_path / "r.jsonl")
        store.append("abc", sample_result)
        record = store.load_records()[0]
        record["key"] = "bad-meta"
        record["meta"] = ["not", "a", "dict"]
        with store.path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        assert store.completed_keys() == {"abc"}
