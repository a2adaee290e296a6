"""Distribution statistics, JSONL result persistence and recovery helpers.

The evaluation figures of the paper are box plots of flight-time
distributions; this module provides the five-number summaries used to render
them as text tables, plus the relative-recovery computations quoted in the
text.  It also owns the streaming result persistence used by the campaign
execution engine: :class:`MissionResult` records are serialised to one JSON
object per line (JSONL), appended as missions complete, and read back to
resume a partially-completed campaign.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.pipeline.runner import MissionResult
from repro.sim.airsim import FlightOutcome


@dataclass(frozen=True)
class DistributionStats:
    """Five-number summary (plus mean/std) of a sample."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    std: float


def distribution_stats(values: Iterable[float]) -> DistributionStats:
    """Compute the five-number summary of ``values``.

    An empty sample yields ``count == 0`` and NaN statistics (it used to
    yield all zeros, which rendered exactly like a sample of genuinely zero
    flight times); :func:`~repro.analysis.reporting.format_distribution_table`
    renders the NaN cells as ``-``.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        nan = float("nan")
        return DistributionStats(0, nan, nan, nan, nan, nan, nan, nan)
    return DistributionStats(
        count=int(data.size),
        minimum=float(data.min()),
        q1=float(np.percentile(data, 25)),
        median=float(np.percentile(data, 50)),
        q3=float(np.percentile(data, 75)),
        maximum=float(data.max()),
        mean=float(data.mean()),
        std=float(data.std()),
    )


def recovery_percentage(golden_worst: float, faulty_worst: float, recovered_worst: float) -> float:
    """Worst-case recovery percentage (0..1) given the three worst-case values."""
    degradation = faulty_worst - golden_worst
    if degradation <= 1e-9:
        return 1.0
    return (faulty_worst - recovered_worst) / degradation


def iqr_outlier_count(values: Sequence[float]) -> int:
    """Number of classic box-plot outliers (outside 1.5 IQR of the quartiles)."""
    data = np.asarray(list(values), dtype=float)
    if data.size < 4:
        return 0
    q1, q3 = np.percentile(data, [25, 75])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return int(((data < lo) | (data > hi)).sum())


# --------------------------------------------------------- result serialisation
def _trajectory_to_lists(trajectory) -> List[List[float]]:
    return [[float(v) for v in point] for point in np.asarray(trajectory).reshape(-1, 3)]


def _finite_or_str(value: float):
    """Non-finite floats as strings so every JSONL line is RFC-valid JSON.

    ``json.dumps`` would otherwise emit the non-standard ``Infinity``/``NaN``
    tokens (e.g. for ``FlightOutcome.final_distance_to_goal``'s ``inf``
    default), which strict parsers like ``jq`` reject.
    """
    value = float(value)
    return value if math.isfinite(value) else str(value)


def flight_outcome_to_dict(outcome: FlightOutcome) -> Dict:
    """JSON-serialisable form of a :class:`FlightOutcome` (exact floats)."""
    return {
        "success": bool(outcome.success),
        "collision": bool(outcome.collision),
        "timeout": bool(outcome.timeout),
        "out_of_bounds": bool(outcome.out_of_bounds),
        "flight_time": float(outcome.flight_time),
        "flight_energy": float(outcome.flight_energy),
        "distance_travelled": float(outcome.distance_travelled),
        "final_distance_to_goal": _finite_or_str(outcome.final_distance_to_goal),
        "trajectory": [_trajectory_to_lists(p)[0] for p in outcome.trajectory]
        if outcome.trajectory
        else [],
        "reason": outcome.reason,
    }


def flight_outcome_from_dict(data: Dict) -> FlightOutcome:
    """Inverse of :func:`flight_outcome_to_dict`."""
    return FlightOutcome(
        success=bool(data["success"]),
        collision=bool(data["collision"]),
        timeout=bool(data["timeout"]),
        out_of_bounds=bool(data["out_of_bounds"]),
        flight_time=float(data["flight_time"]),
        flight_energy=float(data["flight_energy"]),
        distance_travelled=float(data["distance_travelled"]),
        final_distance_to_goal=float(data["final_distance_to_goal"]),
        trajectory=[np.asarray(p, dtype=float) for p in data.get("trajectory", [])],
        reason=data.get("reason", "incomplete"),
    )


#: Serialisation format version written into every result dict.  Version 2
#: added the detection-timing fields (``first_alarm_time``,
#: ``first_alarm_time_by_stage``, ``injection_time``); version-1 records (no
#: ``format`` marker) load with those fields at their "unknown" defaults.
#: Version 3 allows harness *failure* records (``{"key", "meta", "failure":
#: {...}}`` lines from the resilience engine) to interleave with mission
#: results in the same shard; the result-dict shape itself is unchanged, so
#: version-2 shards load identically.
RESULT_FORMAT_VERSION = 3


def mission_result_to_dict(result: MissionResult) -> Dict:
    """Full-fidelity JSON-serialisable form of a :class:`MissionResult`.

    Floats round-trip exactly through :mod:`json` (``repr`` based), so the
    dict form doubles as the bit-identity comparison used by the serial-vs-
    parallel equivalence checks.
    """
    return {
        "format": RESULT_FORMAT_VERSION,
        "success": bool(result.success),
        "flight_time": float(result.flight_time),
        "mission_energy": float(result.mission_energy),
        "flight_energy": float(result.flight_energy),
        "compute_energy": float(result.compute_energy),
        "distance_travelled": float(result.distance_travelled),
        "outcome": flight_outcome_to_dict(result.outcome),
        "environment": result.environment,
        "platform": result.platform,
        "planner": result.planner,
        "setting": result.setting,
        "seed": int(result.seed),
        "scenario": result.scenario,
        "fault_description": result.fault_description,
        "fault_target": result.fault_target,
        "compute_time": {k: float(v) for k, v in result.compute_time.items()},
        "compute_categories": {
            k: float(v) for k, v in result.compute_categories.items()
        },
        "categories_by_node": {
            node: {k: float(v) for k, v in cats.items()}
            for node, cats in result.categories_by_node.items()
        },
        "detection_alarms": int(result.detection_alarms),
        "detection_alarms_by_stage": {
            k: int(v) for k, v in result.detection_alarms_by_stage.items()
        },
        "detection_checked_samples": int(result.detection_checked_samples),
        "first_alarm_time": (
            None if result.first_alarm_time is None else float(result.first_alarm_time)
        ),
        "first_alarm_time_by_stage": {
            k: float(v) for k, v in result.first_alarm_time_by_stage.items()
        },
        "injection_time": (
            None if result.injection_time is None else float(result.injection_time)
        ),
        "recoveries_by_stage": {
            k: int(v) for k, v in result.recoveries_by_stage.items()
        },
        "replan_count": int(result.replan_count),
        "trajectory": _trajectory_to_lists(result.trajectory),
    }


def mission_result_from_dict(data: Dict) -> MissionResult:
    """Inverse of :func:`mission_result_to_dict`.

    Loads every known format version: records written before
    :data:`RESULT_FORMAT_VERSION` 2 (no ``format`` marker) simply lack the
    detection-timing fields and get their defaults (no alarm observed, no
    known injection time).  Records from a *newer* writer are rejected
    loudly -- silently dropping fields this reader does not know about
    would corrupt resumes instead of failing them.
    """
    version = data.get("format", 1)
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"result record has a malformed format marker: {version!r}")
    if version > RESULT_FORMAT_VERSION:
        raise ValueError(
            f"result record has format version {version}, newer than the "
            f"supported {RESULT_FORMAT_VERSION}; upgrade this reader instead "
            f"of guessing at unknown fields"
        )
    first_alarm = data.get("first_alarm_time")
    injection_time = data.get("injection_time")
    trajectory = np.asarray(data.get("trajectory", []), dtype=float)
    if trajectory.size == 0:
        trajectory = np.zeros((0, 3))
    return MissionResult(
        success=bool(data["success"]),
        flight_time=float(data["flight_time"]),
        mission_energy=float(data["mission_energy"]),
        flight_energy=float(data["flight_energy"]),
        compute_energy=float(data["compute_energy"]),
        distance_travelled=float(data["distance_travelled"]),
        outcome=flight_outcome_from_dict(data["outcome"]),
        environment=data["environment"],
        platform=data["platform"],
        planner=data["planner"],
        setting=data["setting"],
        seed=int(data["seed"]),
        scenario=data.get("scenario", ""),
        fault_description=data.get("fault_description", ""),
        fault_target=data.get("fault_target", ""),
        compute_time=dict(data.get("compute_time", {})),
        compute_categories=dict(data.get("compute_categories", {})),
        categories_by_node={
            node: dict(cats) for node, cats in data.get("categories_by_node", {}).items()
        },
        detection_alarms=int(data.get("detection_alarms", 0)),
        detection_alarms_by_stage=dict(data.get("detection_alarms_by_stage", {})),
        detection_checked_samples=int(data.get("detection_checked_samples", 0)),
        first_alarm_time=None if first_alarm is None else float(first_alarm),
        first_alarm_time_by_stage={
            k: float(v)
            for k, v in (data.get("first_alarm_time_by_stage") or {}).items()
        },
        injection_time=None if injection_time is None else float(injection_time),
        recoveries_by_stage=dict(data.get("recoveries_by_stage", {})),
        replan_count=int(data.get("replan_count", 0)),
        trajectory=trajectory.reshape(-1, 3),
    )


def mission_results_equal(a: MissionResult, b: MissionResult) -> bool:
    """Whether two results are bit-identical (via their exact dict forms)."""
    return mission_result_to_dict(a) == mission_result_to_dict(b)


# ----------------------------------------------------------------- JSONL store
@dataclass
class ShardHealth:
    """Line-level health census of one JSONL shard.

    ``intact`` counts mission-result records and ``failures`` harness-failure
    records.  ``torn`` counts a truncated *final* line (the benign signature
    of a killed writer; at most 1 by construction) while ``corrupt`` counts
    undecodable or wrong-shaped lines anywhere *before* the end of file --
    those cannot come from a torn append and indicate real shard damage.
    """

    intact: int = 0
    failures: int = 0
    torn: int = 0
    corrupt: int = 0

    @property
    def is_clean(self) -> bool:
        """Whether the shard shows no mid-file corruption (torn tails are ok)."""
        return self.corrupt == 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "intact": self.intact,
            "failures": self.failures,
            "torn": self.torn,
            "corrupt": self.corrupt,
        }


class JsonlResultStore:
    """Append-only JSONL persistence of keyed mission results.

    Each line is one JSON object ``{"key": ..., "meta": {...}, "result":
    {...}}``; results are appended (and flushed) as missions complete, so a
    killed campaign leaves a valid prefix behind.  A torn final line -- the
    one failure mode of append-only JSONL -- is tolerated and skipped on
    read, and re-running the campaign fills in exactly the missing specs.

    The ``key`` is the spec's deterministic semantic hash
    (:meth:`~repro.core.executor.RunSpec.key`): environment, seeds, fault
    plan, detector, planner, platform and scenario.  Floats round-trip
    exactly through JSON, so a stored record equals the in-memory
    :class:`~repro.pipeline.runner.MissionResult` bit for bit
    (:func:`mission_results_equal`).

    Typical use::

        store = JsonlResultStore("sparse.jsonl")
        campaign.full_evaluation(store=store)        # streams + resumes
        results = store.load_results()               # key -> MissionResult
        # `python -m repro summarize --results sparse.jsonl` renders a table.

    The store is process-safe for the engine's usage pattern (only the
    parent process appends); workers return results over the pool, never
    write files.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        # Whether this instance has verified the file ends in a newline (a
        # torn tail from a killed writer would swallow the next append).
        # Every append we write ends in one, so the check runs at most once.
        self._tail_checked = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path_text = str(self.path)
        return f"JsonlResultStore({path_text!r})"

    def _iter_records(self, health: Optional[ShardHealth] = None) -> Iterable[Dict]:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for raw_line in handle:
                # A line without a trailing newline is by construction the
                # file's final line: only there can an undecodable payload be
                # the benign torn tail of a killed writer.  Anything
                # undecodable (or wrong-shaped) *with* a newline survived a
                # complete write and is real corruption, not a torn append.
                terminal = not raw_line.endswith("\n")
                line = raw_line.strip()
                if not line:
                    continue
                try:
                    record: object = json.loads(line)
                except json.JSONDecodeError:
                    record = None
                if (
                    isinstance(record, dict)
                    and "key" in record
                    and ("result" in record or "failure" in record)
                    and isinstance(record.get("meta", {}), dict)
                ):
                    if health is not None:
                        if "result" in record:
                            health.intact += 1
                        else:
                            health.failures += 1
                    yield record
                elif health is not None:
                    if record is None and terminal:
                        health.torn += 1
                    else:
                        health.corrupt += 1

    def iter_records(self) -> Iterable[Dict]:
        """Stream every intact raw record in file order (constant memory).

        Unlike :meth:`load_records` nothing is materialised: the report
        engine uses this to aggregate arbitrarily large shards line by line.
        Yields both mission-result records (``"result"`` key) and harness
        failure records (``"failure"`` key).
        """
        return self._iter_records()

    def shard_health(self) -> ShardHealth:
        """Line-level census distinguishing a torn tail from corruption."""
        health = ShardHealth()
        for _ in self._iter_records(health=health):
            pass
        return health

    def completed_keys(self) -> set:
        """Keys of every intact mission-result record in the store.

        Failure records deliberately do not count as completed: a spec whose
        every attempt failed is re-run when the campaign resumes.
        """
        return {
            record["key"] for record in self._iter_records() if "result" in record
        }

    def load_results(self) -> Dict[str, MissionResult]:
        """All intact results as ``key -> MissionResult`` (last write wins)."""
        return {
            record["key"]: mission_result_from_dict(record["result"])
            for record in self._iter_records()
            if "result" in record
        }

    def load_records(self) -> List[Dict]:
        """All intact raw records, in file order (``meta`` preserved)."""
        return list(self._iter_records())

    def load_failures(self) -> List[Dict]:
        """All intact harness-failure records, in file order."""
        return [record for record in self._iter_records() if "failure" in record]

    def append(
        self, key: str, result: MissionResult, meta: Optional[Dict] = None
    ) -> None:
        """Append one keyed result (flushed immediately).

        A store killed mid-write can leave a torn final line *without* a
        trailing newline; appending straight after it would merge the new
        record into the torn line and lose both.  The append therefore starts
        a fresh line whenever the file does not end in a newline.
        """
        record = {"key": key, "meta": meta or {}, "result": mission_result_to_dict(result)}
        # sort_keys keeps shard bytes invariant to how the record dict
        # was assembled (canonical serialization; see repro lint RL005).
        self._append_text(json.dumps(record, sort_keys=True) + "\n")

    def append_failure(
        self, key: str, failure: Dict, meta: Optional[Dict] = None
    ) -> None:
        """Append one keyed harness-failure record (flushed immediately).

        The ``failure`` dict is the serialised form of a
        :class:`repro.core.resilience.FailureRecord`; it shares the shard
        with mission results so a single file tells the whole story of a
        campaign, including the specs that never produced a result.
        """
        record = {"key": key, "meta": meta or {}, "failure": failure}
        self._append_text(json.dumps(record, sort_keys=True) + "\n")

    def append_junk(self, kind: str) -> None:
        """Chaos-harness hook: deliberately damage the shard's byte stream.

        ``"torn"`` appends a truncated JSON fragment with no trailing newline
        (the signature of a killed writer) and forgets the tail check so the
        next real append exercises the newline-repair path; ``"garbage"``
        appends a complete non-JSON line.  Both are *additive* -- no real
        record is overwritten -- so surviving results stay bit-identical.
        """
        if kind == "torn":
            self._append_text('{"key": "chaos-torn", "meta"')
            self._tail_checked = False
        elif kind == "garbage":
            self._append_text("%% chaos garbage line %%\n")
        else:
            raise ValueError(f"unknown shard junk kind: {kind!r}")

    def _append_text(self, text: str) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        needs_newline = False
        if not self._tail_checked:
            if self.path.exists():
                with self.path.open("rb") as tail:
                    tail.seek(0, 2)
                    if tail.tell() > 0:
                        tail.seek(-1, 2)
                        needs_newline = tail.read(1) != b"\n"
            self._tail_checked = True
        with self.path.open("a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
            handle.write(text)
            handle.flush()

    def __len__(self) -> int:
        """Number of intact mission-result records (failures not counted)."""
        return sum(1 for record in self._iter_records() if "result" in record)
