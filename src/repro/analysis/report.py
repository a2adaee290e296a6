"""Streaming paper-report engine (``python -m repro report``).

Turns one or many campaign JSONL shards into the paper's full artifact set --
Table I success rates, Table II detection/recovery overhead, Fig. 6
flight-time distributions, Fig. 7 trajectory metrics, the detection-accuracy
table (TPR/FPR/time-to-detect) and the worst-case-recovery summary -- as a
text bundle plus a schema-validated ``report.json`` (``repro-report-v1``).

Design constraints, in order:

* **Streaming / constant memory.**  Shards are read line by line; only
  per-group scalar accumulators and sorted float lists (flight times, not
  trajectories) are retained, so the engine handles result stores far larger
  than RAM.
* **Shard-merge with deterministic dedup.**  Results are deduplicated across
  shards by spec key.  Within one shard the last record wins (matching
  :meth:`~repro.core.results.JsonlResultStore.load_results` resume
  semantics); when different shards disagree on a key, the winner is the
  record with the lexicographically largest canonical-JSON SHA-1 digest -- an
  arbitrary but *shard-order-invariant* rule, so merging ``a.jsonl b.jsonl``
  and ``b.jsonl a.jsonl`` yields byte-identical reports.
* **Determinism.**  Groups are sorted, sample lists are sorted before any
  statistic or bootstrap draw, and every bootstrap RNG is seeded from the
  group key, so the same stores produce the same bytes regardless of shard
  order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.detection_metrics import (
    DetectionAccumulator,
    detector_label,
    format_detection_accuracy_table,
)
from repro.analysis.reporting import (
    format_distribution_table,
    format_overhead_table,
    format_percent,
    format_success_rate_table,
    format_table,
)
from repro.analysis.trajectory import analyze_trajectory
from repro.core.overhead import KERNEL_STAGES, OverheadReport
from repro.core.qof import (
    QofSummary,
    derive_seed,
    failure_recovery_rate,
    qof_pool_confidence_intervals,
    summarize_pools,
    worst_case_recovery,
)
from repro.core.results import JsonlResultStore, mission_result_from_dict
from repro.core import shape
from repro.pipeline.runner import MissionResult
from repro.version import __version__

#: Schema identifier written into (and required from) every report.
REPORT_SCHEMA = "repro-report-v1"

#: Default report file name of the ``repro report`` CLI.
DEFAULT_REPORT_NAME = "report.json"

#: Canonical setting labels of the paper campaign (recovery summary pairing).
_GOLDEN_SETTING = "golden"
_INJECTION_SETTING = "injection"

StorePath = Union[str, Path, JsonlResultStore]


def _finite_or_none(value) -> Optional[float]:
    """Floats for JSON: NaN/inf become ``None`` (strict-RFC output)."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _sorted_stats(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """Five-number-style summary of a *sorted* sample (None when empty)."""
    if not values:
        return None
    n = len(values)
    return {
        "count": n,
        "min": values[0],
        "max": values[-1],
        "mean": sum(values) / n,
        "median": (
            values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2.0
        ),
    }


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a sorted sample (numpy-compatible)."""
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    pos = q * (n - 1)
    low = int(math.floor(pos))
    high = min(low + 1, n - 1)
    frac = pos - low
    return float(sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac)


# ------------------------------------------------------------------ aggregates
@dataclass(frozen=True)
class GroupKey:
    """Identity of one aggregation cell: (setting, scenario, environment)."""

    setting: str
    scenario: str
    environment: str

    def sort_key(self) -> Tuple[str, str, str]:
        return (self.environment, self.scenario, self.setting)


@dataclass
class GroupAggregate:
    """Constant-memory accumulators of one (setting, scenario, environment) cell.

    Holds counters and per-run scalars (flight times, energies, trajectory
    shape metrics) -- never trajectories or full results.  All lists are
    sorted before use, so derived statistics do not depend on the order the
    records were streamed in.
    """

    key: GroupKey
    num_runs: int = 0
    num_success: int = 0
    num_injected: int = 0
    success_flight_times: List[float] = field(default_factory=list)
    all_flight_times: List[float] = field(default_factory=list)
    success_energies: List[float] = field(default_factory=list)
    all_energies: List[float] = field(default_factory=list)
    replan_total: int = 0
    # Detection counters.
    checked_samples: int = 0
    alarms: int = 0
    runs_with_alarm: int = 0
    alarms_by_stage: Dict[str, int] = field(default_factory=dict)
    first_alarm_times: List[float] = field(default_factory=list)
    # Trajectory shape metrics (Fig. 7).
    path_lengths: List[float] = field(default_factory=list)
    detour_ratios: List[float] = field(default_factory=list)
    max_lateral_deviations: List[float] = field(default_factory=list)
    # Compute-overhead pools (Table II).  Kept as per-record samples and
    # summed over a *sorted* copy at derivation time: float addition is not
    # associative, so streaming sums would differ at the ULP level between
    # shard orders and break the byte-identical-report guarantee.
    compute_times: List[float] = field(default_factory=list)
    detection_times: Dict[str, List[float]] = field(default_factory=dict)
    recovery_times: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, result: MissionResult) -> None:
        """Fold one mission result into the accumulators and drop it."""
        self.num_runs += 1
        self.num_injected += int(DetectionAccumulator.is_injected(result))
        flight_time = float(result.flight_time)
        energy = float(result.mission_energy)
        self.all_flight_times.append(flight_time)
        self.all_energies.append(energy)
        if result.success:
            self.num_success += 1
            self.success_flight_times.append(flight_time)
            self.success_energies.append(energy)
        self.replan_total += int(result.replan_count)

        self.checked_samples += int(result.detection_checked_samples)
        self.alarms += int(result.detection_alarms)
        self.runs_with_alarm += int(result.detection_alarms > 0)
        for stage, count in result.detection_alarms_by_stage.items():
            self.alarms_by_stage[stage] = self.alarms_by_stage.get(stage, 0) + int(count)
        if result.first_alarm_time is not None:
            self.first_alarm_times.append(float(result.first_alarm_time))

        if len(result.trajectory) >= 2:
            metrics = analyze_trajectory(result.trajectory)
            self.path_lengths.append(metrics.path_length)
            self.detour_ratios.append(metrics.detour_ratio)
            self.max_lateral_deviations.append(metrics.max_lateral_deviation)

        self.compute_times.append(float(result.total_compute_time))
        for node_name, categories in result.categories_by_node.items():
            stage = KERNEL_STAGES.get(node_name)
            for category, seconds in categories.items():
                if category.startswith("detection:"):
                    stage_key = category.split(":", 1)[1]
                    self.detection_times.setdefault(stage_key, []).append(seconds)
                elif category == "recovery" and stage is not None:
                    self.recovery_times.setdefault(stage, []).append(seconds)

    # ------------------------------------------------------------- derived
    def qof_summary(self) -> QofSummary:
        """Success-only QoF summary (failure fallback flagged, as upstream)."""
        fell_back = bool(self.num_runs and not self.num_success)
        return summarize_pools(
            self.num_runs,
            self.num_success,
            self.all_flight_times if fell_back else self.success_flight_times,
            self.all_energies if fell_back else self.success_energies,
            fell_back_to_failures=fell_back,
        )

    def flight_time_distribution(self) -> Optional[Dict[str, float]]:
        """Fig. 6 five-number summary of the successful flight times."""
        values = sorted(self.success_flight_times)
        if not values:
            return None
        return {
            "count": len(values),
            "min": values[0],
            "q1": _quantile(values, 0.25),
            "median": _quantile(values, 0.50),
            "q3": _quantile(values, 0.75),
            "max": values[-1],
            "mean": sum(values) / len(values),
        }

    def overhead_report(self, detector: str) -> Optional[OverheadReport]:
        """Table II overhead fractions of this cell (None without D&R charges)."""
        total_compute = sum(sorted(self.compute_times))
        if total_compute <= 0 or not (self.detection_times or self.recovery_times):
            return None
        report = OverheadReport(detector=detector, environment=self.key.environment)
        report.total_compute_time = total_compute
        for stage in sorted(self.detection_times):
            report.detection_fraction[stage] = (
                sum(sorted(self.detection_times[stage])) / total_compute
            )
        for stage in sorted(self.recovery_times):
            report.recovery_fraction[stage] = (
                sum(sorted(self.recovery_times[stage])) / total_compute
            )
        return report


# ----------------------------------------------------------------- aggregator
class StreamingAggregator:
    """Streams JSONL result shards into per-(setting, scenario, environment)
    aggregates with deterministic cross-shard deduplication.

    Two passes over the shards, both line-streamed:

    1. **Election** -- for every spec key, pick the winning record.  The last
       record of each shard is that shard's candidate (last-write-wins, as in
       :meth:`JsonlResultStore.load_results`).  Any candidate that some shard
       proves *superseded* (it appears there followed by a different record
       for the same key -- e.g. an older backup shard's copy of a since-
       corrected result) is disqualified; among the remaining candidates the
       lexicographically largest canonical-JSON SHA-1 digest wins (pure
       tie-break, so genuinely conflicting shards still merge
       deterministically; such keys are counted in ``conflicting_keys``).
       Only per-key digest sets are retained.
    2. **Aggregation** -- each key's winning record is parsed into a
       :class:`~repro.pipeline.runner.MissionResult` once, folded into its
       group's :class:`GroupAggregate` and dropped.  Keys with a single
       distinct record (the overwhelmingly common case) skip the digest
       recomputation entirely.

    Both passes see shards as *sets*, so the outcome is invariant to the
    order the shards are supplied in, and identical duplicate records (the
    same mission appended by two campaign passes) aggregate exactly once.

    Harness-failure records (``{"key", "failure"}`` lines written by the
    resilience engine) are routed out of the mission election entirely: they
    never compete with result records for a spec key, and are deduplicated
    across shards by canonical digest into :attr:`failures`.
    """

    def __init__(self, stores: Sequence[StorePath]) -> None:
        if not stores:
            raise ValueError("report aggregation needs at least one result store")
        self.stores = [
            store if isinstance(store, JsonlResultStore) else JsonlResultStore(store)
            for store in stores
        ]
        self.total_records = 0
        self.unique_missions = 0
        #: Spec keys whose winner the digest tie-break had to pick: records
        #: that still differ after superseded ones are removed.
        self.conflicting_keys = 0
        self.groups: Dict[GroupKey, GroupAggregate] = {}
        #: One detection accumulator per (environment, scenario, detector).
        self.detection: Dict[Tuple[str, str, str], DetectionAccumulator] = {}
        #: Unique harness-failure payloads, canonically ordered.
        self.failures: List[Dict] = []
        #: Spec keys that still have a surviving mission record.
        self.winner_keys: set = set()
        #: ``(path, ShardHealth)`` per shard, sorted by path.
        self.shard_healths = sorted(
            ((str(store.path), store.shard_health()) for store in self.stores),
            key=lambda item: item[0],
        )
        self._aggregate()

    @property
    def duplicates_dropped(self) -> int:
        """Records superseded by another record with the same spec key."""
        return self.total_records - self.unique_missions

    @staticmethod
    def _digest(record: Dict) -> str:
        return hashlib.sha1(
            json.dumps(record, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def _aggregate(self) -> None:
        # Pass 1: election.  candidates[key] = every shard's last digest;
        # superseded[key] = digests some shard shows an override for.
        candidates: Dict[str, set] = {}
        superseded: Dict[str, set] = {}
        failure_digests: set = set()
        failure_records: List[Tuple[Tuple, Dict]] = []
        for store in self.stores:
            shard_digests: Dict[str, set] = {}
            shard_last: Dict[str, str] = {}
            for record in store.iter_records():
                if "failure" in record:
                    digest = self._digest(record)
                    if digest not in failure_digests:
                        failure_digests.add(digest)
                        payload = record["failure"]
                        failure_records.append(
                            (
                                (
                                    record["key"],
                                    payload.get("attempt", 0),
                                    payload.get("error_type", ""),
                                    digest,
                                ),
                                payload,
                            )
                        )
                    continue
                self.total_records += 1
                key = record["key"]
                digest = self._digest(record)
                shard_digests.setdefault(key, set()).add(digest)
                shard_last[key] = digest
            for key, last in shard_last.items():
                candidates.setdefault(key, set()).add(last)
                stale = shard_digests[key] - {last}
                if stale:
                    superseded.setdefault(key, set()).update(stale)
        winners: Dict[str, str] = {}
        contested = set()
        conflicting = set()
        for key, shard_lasts in candidates.items():
            if len(shard_lasts | superseded.get(key, set())) > 1:
                contested.add(key)
            # All candidates superseded (shards overriding each other in a
            # cycle): fall back to the pure tie-break over all of them.
            eligible = (shard_lasts - superseded.get(key, set())) or shard_lasts
            if len(eligible) > 1:
                conflicting.add(key)
            winners[key] = max(eligible)
        self.unique_missions = len(winners)
        self.conflicting_keys = len(conflicting)
        self.winner_keys = set(winners)
        failure_records.sort(key=lambda item: item[0])
        self.failures = [payload for _, payload in failure_records]

        # Pass 2: aggregate each key's winner exactly once.  Only contested
        # keys need their digests recomputed to identify the winning record.
        consumed = set()
        for store in self.stores:
            for record in store.iter_records():
                if "failure" in record:
                    continue
                key = record["key"]
                if key in consumed:
                    continue
                if key in contested and winners[key] != self._digest(record):
                    continue
                consumed.add(key)
                self._add(mission_result_from_dict(record["result"]))

    def _add(self, result: MissionResult) -> None:
        group_key = GroupKey(
            setting=result.setting,
            scenario=result.scenario,
            environment=result.environment,
        )
        group = self.groups.get(group_key)
        if group is None:
            group = self.groups[group_key] = GroupAggregate(key=group_key)
        group.add(result)

        detector = detector_label(result.setting)
        if detector is not None:
            detection_key = (result.environment, result.scenario, detector)
            accumulator = self.detection.get(detection_key)
            if accumulator is None:
                accumulator = self.detection[detection_key] = DetectionAccumulator(
                    detector
                )
            accumulator.add(result)

    def sorted_groups(self) -> List[GroupAggregate]:
        """Groups in canonical (environment, scenario, setting) order."""
        return [
            self.groups[key]
            for key in sorted(self.groups, key=GroupKey.sort_key)
        ]


# -------------------------------------------------------------- report builder
def _group_seed(base_seed: int, key: GroupKey) -> int:
    """Deterministic per-group bootstrap seed (shard-order independent).

    Delegates to :func:`repro.core.qof.derive_seed`, which hashes the key
    parts as a canonical JSON list.  The historical ``"|".join`` payload was
    ambiguous (a ``|`` inside a setting label could alias two distinct groups
    onto one resample stream); the canonical encoding guarantees every group
    draws an independent stream that depends only on its own key, so adding a
    group to a campaign never perturbs another group's resamples.
    """
    return derive_seed(
        "report-group", key.setting, key.scenario, key.environment, base=base_seed
    )


def _group_confidence(
    group: GroupAggregate, confidence: float, resamples: int, seed: int
) -> Dict[str, Dict]:
    """Seeded bootstrap CIs of the group's headline QoF statistics."""
    intervals = qof_pool_confidence_intervals(
        success_flags=[1.0] * group.num_success
        + [0.0] * (group.num_runs - group.num_success),
        flight_times=group.success_flight_times,
        energies=group.success_energies,
        confidence=confidence,
        n_resamples=resamples,
        seed=seed,
    )
    return {
        name: {
            "value": _finite_or_none(ci.value),
            "lower": _finite_or_none(ci.lower),
            "upper": _finite_or_none(ci.upper),
            "confidence": ci.confidence,
            "samples": ci.samples,
        }
        for name, ci in intervals.items()
    }


def _group_entry(
    group: GroupAggregate, confidence: float, resamples: int, base_seed: int
) -> Dict:
    summary = group.qof_summary()
    distribution = group.flight_time_distribution()
    detector = detector_label(group.key.setting) or ""
    overhead = group.overhead_report(detector or "none")
    path_lengths = sorted(group.path_lengths)
    detours = sorted(group.detour_ratios)
    laterals = sorted(group.max_lateral_deviations)
    entry = {
        "setting": group.key.setting,
        "scenario": group.key.scenario,
        "environment": group.key.environment,
        "detector": detector,
        "qof": {
            "num_runs": summary.num_runs,
            "num_success": summary.num_success,
            "num_injected": group.num_injected,
            "success_rate": summary.success_rate,
            "mean_flight_time": _finite_or_none(summary.mean_flight_time),
            "worst_flight_time": _finite_or_none(summary.worst_flight_time),
            "best_flight_time": _finite_or_none(summary.best_flight_time),
            "mean_energy": _finite_or_none(summary.mean_energy),
            "worst_energy": _finite_or_none(summary.worst_energy),
            "fell_back_to_failures": summary.fell_back_to_failures,
        },
        "confidence": _group_confidence(
            group, confidence, resamples, _group_seed(base_seed, group.key)
        ),
        "flight_time_distribution": distribution,
        "trajectory": {
            "runs": len(path_lengths),
            "path_length": _sorted_stats(path_lengths),
            "detour_ratio": _sorted_stats(detours),
            "max_lateral_deviation": _sorted_stats(laterals),
            "replans_total": group.replan_total,
        },
        "detection": {
            "checked_samples": group.checked_samples,
            "alarms": group.alarms,
            "runs_with_alarm": group.runs_with_alarm,
            "alarms_by_stage": dict(sorted(group.alarms_by_stage.items())),
            "first_alarm_time": _sorted_stats(sorted(group.first_alarm_times)),
        },
        "overhead": None,
    }
    if overhead is not None:
        entry["overhead"] = overhead.to_dict()
    return entry


def _recovery_rows(aggregator: StreamingAggregator) -> List[Dict]:
    """Worst-case-recovery + failure-recovery-rate rows per detector cell."""
    by_cell: Dict[Tuple[str, str], Dict[str, GroupAggregate]] = {}
    for key, group in aggregator.groups.items():
        by_cell.setdefault((key.environment, key.scenario), {})[key.setting] = group
    rows: List[Dict] = []
    for (environment, scenario) in sorted(by_cell):
        cell = by_cell[(environment, scenario)]
        golden = cell.get(_GOLDEN_SETTING)
        faulty = cell.get(_INJECTION_SETTING)
        if golden is None or faulty is None:
            continue
        for setting in sorted(cell):
            detector = detector_label(setting)
            if detector is None or setting in (_GOLDEN_SETTING, _INJECTION_SETTING):
                continue
            recovered = cell[setting]
            # Only D&R cells that actually flew injections are comparable to
            # the FI cell; dr_golden_* (false-positive material) is not.
            if recovered.num_injected == 0:
                continue
            golden_summary = golden.qof_summary()
            faulty_summary = faulty.qof_summary()
            recovered_summary = recovered.qof_summary()
            rows.append(
                {
                    "environment": environment,
                    "scenario": scenario,
                    "setting": setting,
                    "detector": detector,
                    "worst_case_recovery": _finite_or_none(
                        worst_case_recovery(
                            golden_summary, faulty_summary, recovered_summary
                        )
                    ),
                    "failure_recovery_rate": _finite_or_none(
                        failure_recovery_rate(
                            golden_summary, faulty_summary, recovered_summary
                        )
                    ),
                }
            )
    return rows


def _harness_failure_section(aggregator: StreamingAggregator) -> Dict:
    """Summarise captured harness failures for the report bundle.

    ``rows`` counts unique failure records per (setting, error type, outcome);
    the totals count *specs*: quarantined (hit the strike limit), failed
    (exhausted their attempts), recovered (had failures but a surviving
    mission record exists -- the retry ladder won).
    """
    rows: Dict[Tuple[str, str, str], int] = {}
    keys_seen = set()
    quarantined = set()
    failed = set()
    for payload in aggregator.failures:
        spec_key = payload.get("spec_key", "")
        setting = payload.get("setting", "")
        error_type = payload.get("error_type", "")
        outcome = payload.get("outcome", "")
        rows[(setting, error_type, outcome)] = rows.get(
            (setting, error_type, outcome), 0
        ) + 1
        keys_seen.add(spec_key)
        if outcome == "quarantined":
            quarantined.add(spec_key)
        elif outcome == "failed":
            failed.add(spec_key)
    return {
        "total": len(aggregator.failures),
        "rows": [
            {
                "setting": setting,
                "error_type": error_type,
                "outcome": outcome,
                "count": count,
            }
            for (setting, error_type, outcome), count in sorted(rows.items())
        ],
        "specs_quarantined": len(quarantined),
        "specs_failed": len(failed - quarantined),
        "specs_recovered": len(keys_seen & aggregator.winner_keys),
    }


def build_report(
    stores: Sequence[StorePath],
    confidence: float = 0.95,
    bootstrap_resamples: int = 500,
    bootstrap_seed: int = 0,
    title: str = "",
) -> Dict:
    """Aggregate ``stores`` into a ``repro-report-v1`` dict (validated).

    The returned dict is fully deterministic for a given set of shards: the
    shard list is sorted, groups and sample lists are sorted, and all
    bootstrap draws are seeded per group, so any shard ordering produces
    byte-identical JSON.
    """
    aggregator = StreamingAggregator(stores)
    groups = [
        _group_entry(group, confidence, bootstrap_resamples, bootstrap_seed)
        for group in aggregator.sorted_groups()
    ]
    accuracy_rows = [
        {
            "environment": environment,
            "scenario": scenario,
            **aggregator.detection[(environment, scenario, detector)]
            .accuracy()
            .to_dict(),
        }
        for (environment, scenario, detector) in sorted(aggregator.detection)
    ]
    report = {
        "schema": REPORT_SCHEMA,
        "generator": f"mavfi-repro {__version__}",
        "title": title,
        "shards": sorted(str(store.path) for store in aggregator.stores),
        "records": {
            "total": aggregator.total_records,
            "unique": aggregator.unique_missions,
            "duplicates_dropped": aggregator.duplicates_dropped,
            "conflicting_keys": aggregator.conflicting_keys,
        },
        "bootstrap": {
            "confidence": confidence,
            "resamples": bootstrap_resamples,
            "seed": bootstrap_seed,
        },
        "groups": groups,
        "detection_accuracy": accuracy_rows,
        "recovery": _recovery_rows(aggregator),
        "harness_failures": _harness_failure_section(aggregator),
        "shard_health": [
            {"path": path, **health.to_dict()}
            for path, health in aggregator.shard_healths
        ],
    }
    validate_report(report)
    return report


# ------------------------------------------------------------------- validator
#: Sorted-sample summaries (``_sorted_stats``); null for an empty sample.
_STATS = shape.Nullable(
    shape.Obj(
        count=shape.POSITIVE_INT,
        min=shape.FINITE,
        max=shape.FINITE,
        mean=shape.FINITE,
        median=shape.FINITE,
    )
)
_INTERVAL = shape.Obj(
    value=shape.MAYBE_FINITE,
    lower=shape.MAYBE_FINITE,
    upper=shape.MAYBE_FINITE,
    confidence=shape.PROBABILITY,
    samples=shape.COUNT,
)
_GROUP = shape.Obj(
    setting=shape.STR,
    scenario=shape.STR,
    environment=shape.STR,
    detector=shape.STR,
    qof=shape.Obj(
        num_runs=shape.COUNT,
        num_success=shape.COUNT,
        num_injected=shape.COUNT,
        success_rate=shape.FRACTION,
        mean_flight_time=shape.MAYBE_FINITE,
        worst_flight_time=shape.MAYBE_FINITE,
        best_flight_time=shape.MAYBE_FINITE,
        mean_energy=shape.MAYBE_FINITE,
        worst_energy=shape.MAYBE_FINITE,
        fell_back_to_failures=shape.BOOL,
    ),
    confidence=shape.Obj(
        success_rate=_INTERVAL,
        mean_flight_time=_INTERVAL,
        worst_flight_time=_INTERVAL,
        mean_energy=_INTERVAL,
    ),
    flight_time_distribution=shape.Nullable(
        shape.Obj(
            count=shape.POSITIVE_INT,
            min=shape.FINITE,
            q1=shape.FINITE,
            median=shape.FINITE,
            q3=shape.FINITE,
            max=shape.FINITE,
            mean=shape.FINITE,
        )
    ),
    trajectory=shape.Obj(
        runs=shape.COUNT,
        path_length=_STATS,
        detour_ratio=_STATS,
        max_lateral_deviation=_STATS,
        replans_total=shape.COUNT,
    ),
    detection=shape.Obj(
        checked_samples=shape.COUNT,
        alarms=shape.COUNT,
        runs_with_alarm=shape.COUNT,
        alarms_by_stage=shape.MapOf(shape.COUNT),
        first_alarm_time=_STATS,
    ),
    overhead=shape.Nullable(
        shape.Obj(
            detector=shape.STR,
            detection_fraction=shape.MapOf(shape.FINITE),
            recovery_fraction=shape.MapOf(shape.FINITE),
            total_overhead=shape.FINITE,
            total_compute_time=shape.FINITE,
        )
    ),
)
_ACCURACY_ROW = shape.Obj(
    environment=shape.STR,
    scenario=shape.STR,
    detector=shape.STR,
    golden_runs=shape.COUNT,
    golden_runs_with_alarm=shape.COUNT,
    golden_checked_samples=shape.COUNT,
    golden_alarms=shape.COUNT,
    injected_runs=shape.COUNT,
    injected_runs_with_alarm=shape.COUNT,
    injected_checked_samples=shape.COUNT,
    run_fpr=shape.MAYBE_FINITE,
    sample_fpr=shape.MAYBE_FINITE,
    tpr=shape.MAYBE_FINITE,
    precision=shape.MAYBE_FINITE,
    mean_time_to_detect=shape.MAYBE_FINITE,
    per_stage=shape.MapOf(
        shape.Obj(
            injected_runs=shape.COUNT,
            detected_runs=shape.COUNT,
            localized_runs=shape.COUNT,
            tpr=shape.MAYBE_FINITE,
            localization_rate=shape.MAYBE_FINITE,
            mean_time_to_detect=shape.MAYBE_FINITE,
        )
    ),
)
REPORT_SHAPE = shape.Obj(
    schema=shape.Literal(REPORT_SCHEMA),
    generator=shape.STR,
    title=shape.STR,
    shards=shape.ListOf(shape.STR),
    records=shape.Obj(
        total=shape.COUNT,
        unique=shape.COUNT,
        duplicates_dropped=shape.COUNT,
        conflicting_keys=shape.COUNT,
    ),
    bootstrap=shape.Obj(
        confidence=shape.PROBABILITY,
        resamples=shape.POSITIVE_INT,
        seed=shape.INT,
    ),
    groups=shape.ListOf(_GROUP),
    detection_accuracy=shape.ListOf(_ACCURACY_ROW),
    recovery=shape.ListOf(
        shape.Obj(
            environment=shape.STR,
            scenario=shape.STR,
            setting=shape.STR,
            detector=shape.STR,
            worst_case_recovery=shape.MAYBE_FINITE,
            failure_recovery_rate=shape.MAYBE_FINITE,
        )
    ),
    harness_failures=shape.Obj(
        total=shape.COUNT,
        rows=shape.ListOf(
            shape.Obj(
                setting=shape.STR,
                error_type=shape.STR,
                outcome=shape.STR,
                count=shape.POSITIVE_INT,
            )
        ),
        specs_quarantined=shape.COUNT,
        specs_failed=shape.COUNT,
        specs_recovered=shape.COUNT,
    ),
    shard_health=shape.ListOf(
        shape.Obj(
            path=shape.STR,
            intact=shape.COUNT,
            failures=shape.COUNT,
            torn=shape.COUNT,
            corrupt=shape.COUNT,
        )
    ),
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid {REPORT_SCHEMA} report: {message}")


def validate_report(report: Dict) -> None:
    """Validate a ``repro-report-v1`` dict; raises ``ValueError`` when malformed.

    Checks the declared :data:`REPORT_SHAPE`, then what a shape cannot say:
    the record accounting, sorted shards, successes within runs and the
    harness-failure row sum.
    """
    shape.check_shape(REPORT_SHAPE, report, f"invalid {REPORT_SCHEMA} report")
    records = report["records"]
    _require(
        records["total"] == records["unique"] + records["duplicates_dropped"],
        "records.total must equal unique + duplicates_dropped",
    )
    _require(
        records["conflicting_keys"] <= records["unique"],
        "records.conflicting_keys must not exceed records.unique",
    )
    _require(
        report["shards"] == sorted(report["shards"]),
        "'shards' must be sorted (determinism)",
    )
    for i, group in enumerate(report["groups"]):
        _require(
            group["qof"]["num_success"] <= group["qof"]["num_runs"],
            f"groups[{i}].qof cannot have more successes than runs",
        )
    failures = report["harness_failures"]
    _require(
        sum(row["count"] for row in failures["rows"]) == failures["total"],
        "harness_failures.total must equal the sum of row counts",
    )


def validate_report_file(path: Union[str, Path]) -> Dict:
    """Load and validate a report file; returns the parsed report."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot read report {path}: {error}") from error
    validate_report(report)
    return report


def write_report(report: Dict, path: Union[str, Path]) -> Path:
    """Validate and write a report as canonical JSON; returns the path.

    ``sort_keys`` plus ``allow_nan=False`` makes the bytes a pure function of
    the report content -- the determinism the shard-order tests pin down.
    """
    validate_report(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    return path


# -------------------------------------------------------------------- renderer
def _fmt(value: Optional[float], pattern: str = "{:.1f}") -> str:
    return "-" if value is None else pattern.format(value)


def _group_label(group: Dict) -> str:
    setting = group["setting"]
    scenario = group["scenario"]
    if scenario and not setting.startswith("scenario:"):
        return f"{scenario}:{setting}"
    return setting


def _render_table1(groups: List[Dict]) -> str:
    environments: List[str] = []
    settings: List[str] = []
    rates: Dict[str, Dict[str, float]] = {}
    for group in groups:
        label = _group_label(group)
        env = group["environment"]
        if env not in environments:
            environments.append(env)
        if label not in settings:
            settings.append(label)
        rates.setdefault(label, {})[env] = group["qof"]["success_rate"]
    return format_success_rate_table(
        rates,
        environments=sorted(environments),
        settings=settings,
        setting_labels={},
        title="Table I: flight success rate",
    )


def _render_qof(groups: List[Dict]) -> str:
    rows = []
    for group in groups:
        qof = group["qof"]
        ci = group["confidence"]["success_rate"]
        mark = "*" if qof["fell_back_to_failures"] else ""
        rows.append(
            [
                _group_label(group),
                group["environment"],
                qof["num_runs"],
                f"{qof['success_rate'] * 100:.0f}%"
                + (
                    f" [{ci['lower'] * 100:.0f}-{ci['upper'] * 100:.0f}]"
                    if ci["lower"] is not None
                    else ""
                ),
                _fmt(qof["mean_flight_time"]) + mark,
                _fmt(qof["worst_flight_time"]) + mark,
                _fmt(
                    None
                    if qof["mean_energy"] is None
                    else qof["mean_energy"] / 1000.0
                )
                + mark,
            ]
        )
    table = format_table(
        [
            "Setting",
            "Env",
            "Runs",
            "Success [CI]",
            "Mean flight [s]",
            "Worst flight [s]",
            "Mean energy [kJ]",
        ],
        rows,
        title="QoF summary with bootstrap confidence intervals",
    )
    if any(group["qof"]["fell_back_to_failures"] for group in groups):
        table += "\n(* statistics over failed runs: no mission of that row succeeded)"
    return table


def _render_fig7(groups: List[Dict]) -> str:
    rows = []
    for group in groups:
        trajectory = group["trajectory"]
        path = trajectory["path_length"]
        detour = trajectory["detour_ratio"]
        lateral = trajectory["max_lateral_deviation"]
        rows.append(
            [
                _group_label(group),
                trajectory["runs"],
                _fmt(None if path is None else path["mean"]),
                _fmt(None if detour is None else detour["mean"], "{:.2f}"),
                _fmt(None if detour is None else detour["max"], "{:.2f}"),
                _fmt(None if lateral is None else lateral["mean"]),
                trajectory["replans_total"],
            ]
        )
    return format_table(
        [
            "Setting",
            "n",
            "Path [m]",
            "Detour",
            "Worst detour",
            "Lateral [m]",
            "Replans",
        ],
        rows,
        title="Fig. 7: trajectory metrics",
    )


def _render_detection(accuracy_rows: List[Dict]) -> str:
    if not accuracy_rows:
        return (
            "Detection accuracy\n  (no detector-attached runs in the stores)"
        )
    return format_detection_accuracy_table(
        accuracy_rows,
        title="Detection accuracy (FPR from fault-free runs, TPR from injections)",
    )


def _render_recovery(recovery_rows: List[Dict]) -> str:
    if not recovery_rows:
        return (
            "Recovery summary\n"
            "  (needs golden, injection and D&R settings in the same "
            "environment/scenario cell)"
        )
    rows = [
        [
            row["setting"],
            row["environment"],
            format_percent(row["worst_case_recovery"], 1),
            format_percent(row["failure_recovery_rate"], 1),
        ]
        for row in recovery_rows
    ]
    return format_table(
        ["Setting", "Env", "Worst-case recovery", "Failure recovery rate"],
        rows,
        title="Recovery summary (vs golden / unprotected injection)",
    )


def _render_failures(failures: Dict) -> str:
    rows = [
        [row["setting"], row["error_type"], row["outcome"], str(row["count"])]
        for row in failures["rows"]
    ]
    table = format_table(
        ["Setting", "Error type", "Outcome", "Count"],
        rows,
        title="Harness failures (resilience engine)",
    )
    return table + (
        f"\n  specs: {failures['specs_recovered']} recovered by retry, "
        f"{failures['specs_failed']} failed, "
        f"{failures['specs_quarantined']} quarantined"
    )


def render_report(report: Dict) -> str:
    """The full paper bundle of a report dict as one text block."""
    groups = report["groups"]
    header = [
        f"repro report ({report['schema']})"
        + (f": {report['title']}" if report.get("title") else ""),
        "shards: " + ", ".join(report["shards"]),
        (
            f"missions: {report['records']['unique']} unique "
            f"({report['records']['total']} records, "
            f"{report['records']['duplicates_dropped']} duplicates dropped)"
        ),
    ]
    corrupt = [
        row for row in report.get("shard_health", []) if row["corrupt"] > 0
    ]
    for row in corrupt:
        header.append(
            f"WARNING: shard {row['path']} has {row['corrupt']} corrupt "
            f"record(s) (mid-file, not a torn tail) -- results may be missing"
        )
    sections = [
        "\n".join(header),
        _render_table1(groups),
        _render_qof(groups),
        format_distribution_table(
            [(_group_label(group), group["flight_time_distribution"]) for group in groups],
            title="Fig. 6: flight time distribution (successful runs)",
        ),
        _render_fig7(groups),
        format_overhead_table(
            (
                f"[{group['environment']}] {_group_label(group)}",
                OverheadReport.from_dict(group["overhead"], group["environment"]),
            )
            for group in groups
            if group["overhead"] is not None
        ),
        _render_detection(report["detection_accuracy"]),
        _render_recovery(report["recovery"]),
    ]
    failures = report.get("harness_failures")
    if failures and failures["total"] > 0:
        sections.append(_render_failures(failures))
    return "\n\n".join(sections)


__all__ = [
    "DEFAULT_REPORT_NAME",
    "REPORT_SCHEMA",
    "GroupAggregate",
    "GroupKey",
    "StreamingAggregator",
    "build_report",
    "render_report",
    "validate_report",
    "validate_report_file",
    "write_report",
]
