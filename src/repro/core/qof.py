"""Quality-of-flight (QoF) metrics (the paper's system-level metrics).

The paper's key methodological point is that kernel-level silent-data-
corruption rates do not capture the impact of faults on an autonomous vehicle;
what matters is the effect on the mission: **flight time**, **success rate**
and **mission energy**.  This module defines those metrics and their
aggregation over a set of mission runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class QofSummary:
    """Aggregated QoF metrics over a set of runs.

    ``fell_back_to_failures`` records that flight-time/energy statistics were
    requested over successful runs only, none succeeded, and the statistics
    therefore describe **failed** runs -- a condition that used to be silent
    and is easy to misread as "the missions flew fine".
    """

    num_runs: int
    num_success: int
    success_rate: float
    mean_flight_time: float
    worst_flight_time: float
    best_flight_time: float
    mean_energy: float
    worst_energy: float
    fell_back_to_failures: bool = False

    @property
    def num_failures(self) -> int:
        """Number of failed missions."""
        return self.num_runs - self.num_success


def summarize_pools(
    num_runs: int,
    num_success: int,
    flight_times: Iterable[float],
    energies: Iterable[float],
    fell_back_to_failures: bool = False,
) -> QofSummary:
    """QoF summary of ``num_runs`` runs from the pools its statistics describe.

    ``flight_times`` and ``energies`` are the runs the flight-time and energy
    statistics are taken over.  Both pools are sorted before summing: float
    addition is not associative, so this is what makes a report's numbers
    independent of the order its shards are read in.  Empty pools give 0.0
    statistics.
    """
    times = sorted(float(t) for t in flight_times)
    pooled_energies = sorted(float(e) for e in energies)
    if times:
        mean_time = sum(times) / len(times)
        worst_time, best_time = times[-1], times[0]
        mean_energy = sum(pooled_energies) / len(pooled_energies)
        worst_energy = pooled_energies[-1]
    else:
        mean_time = worst_time = best_time = 0.0
        mean_energy = worst_energy = 0.0
    return QofSummary(
        num_runs=num_runs,
        num_success=num_success,
        success_rate=(num_success / num_runs) if num_runs else 0.0,
        mean_flight_time=mean_time,
        worst_flight_time=worst_time,
        best_flight_time=best_time,
        mean_energy=mean_energy,
        worst_energy=worst_energy,
        fell_back_to_failures=fell_back_to_failures,
    )


def summarize_runs(results: Iterable, successful_only: bool = True) -> QofSummary:
    """Aggregate QoF metrics over mission results.

    Flight time and energy statistics are computed over successful runs only
    (matching Fig. 6: "the flight time of all successful cases"), unless
    ``successful_only`` is False.  When no run succeeded they describe the
    failed runs instead, and :attr:`QofSummary.fell_back_to_failures` says
    so.
    """
    results = list(results)
    successes = [r for r in results if r.success]
    fell_back = bool(successful_only and results and not successes)
    pool = successes if successful_only and successes else results
    return summarize_pools(
        len(results),
        len(successes),
        [r.flight_time for r in pool],
        [r.mission_energy for r in pool],
        fell_back_to_failures=fell_back,
    )


# --------------------------------------------------------------- seed hygiene
def derive_seed(*parts: object, base: int = 0) -> int:
    """Canonical RNG seed derived from a tuple of key parts.

    The parts are stringified and encoded as a canonical JSON *list* before
    hashing, so the derivation is free of separator ambiguity: unlike the
    historical ``"|".join(parts)`` scheme, ``derive_seed("a|b", "c")`` and
    ``derive_seed("a", "b|c")`` hash different payloads and therefore draw
    different resample streams.  Each seed depends only on its own parts (and
    ``base``), never on how many other keys exist or in what order they are
    processed -- adding a cell or report group to a campaign can never perturb
    another cell's bootstrap resamples.

    The result is in ``[0, 2**31)``, directly usable with
    :func:`numpy.random.default_rng` and :func:`bootstrap_ci`.
    """
    payload = json.dumps(
        [str(part) for part in parts],
        separators=(",", ":"),
        ensure_ascii=True,
        sort_keys=True,
    )
    digest = hashlib.sha1(payload.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big") + int(base)) % (2**31)


# ------------------------------------------------------- confidence intervals
@dataclass(frozen=True)
class ConfidenceInterval:
    """Confidence interval of one statistic (bootstrap or closed-form)."""

    value: float
    lower: float
    upper: float
    confidence: float
    samples: int

    @property
    def half_width(self) -> float:
        """Half the interval width (NaN for degenerate intervals)."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval (False when degenerate)."""
        return bool(self.lower <= value <= self.upper)

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """Whether two intervals intersect (False when either is degenerate)."""
        return bool(self.lower <= other.upper and other.lower <= self.upper)

    def to_dict(self) -> dict:
        """JSON form of the interval."""
        return {
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "confidence": self.confidence,
            "samples": self.samples,
        }


def wilson_interval(
    num_success: int, num_runs: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval of a binomial success rate.

    Closed-form and deterministic (no resampling), with sensible behaviour at
    the boundaries: an all-success or all-failure sample still gets a
    nonzero-width interval (unlike the normal approximation), which is what
    makes the half-width usable as an early-stopping power rule -- a cell
    whose interval has converged below a target half-width has enough samples
    regardless of how extreme its rate is.  An empty sample yields NaN bounds
    (``samples == 0``), matching :func:`bootstrap_ci`'s degenerate handling.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    num_runs = int(num_runs)
    num_success = int(num_success)
    if num_runs < 0:
        raise ValueError(f"num_runs must be non-negative, got {num_runs}")
    if not 0 <= num_success <= num_runs:
        raise ValueError(
            f"num_success must be in [0, {num_runs}], got {num_success}"
        )
    if num_runs == 0:
        nan = float("nan")
        return ConfidenceInterval(nan, nan, nan, confidence, 0)
    from scipy.stats import norm

    z = float(norm.ppf(0.5 * (1.0 + confidence)))
    phat = num_success / num_runs
    denom = 1.0 + z * z / num_runs
    center = (phat + z * z / (2.0 * num_runs)) / denom
    spread = (
        z
        * math.sqrt(
            phat * (1.0 - phat) / num_runs + z * z / (4.0 * num_runs * num_runs)
        )
        / denom
    )
    # The Wilson interval contains the point estimate by construction; the
    # min/max against ``phat`` only repairs floating-point rounding at the
    # 0/n and n/n boundaries (e.g. an upper bound of 0.999... for 10/10).
    return ConfidenceInterval(
        value=phat,
        lower=max(0.0, min(center - spread, phat)),
        upper=min(1.0, max(center + spread, phat)),
        confidence=float(confidence),
        samples=num_runs,
    )


def bootstrap_ci(
    values: Sequence[float],
    statistic=np.mean,
    confidence: float = 0.95,
    n_resamples: int = 1000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap confidence interval of ``statistic(values)``.

    Fully seeded and therefore deterministic for a given ``(values, seed)``
    pair; callers that need shard-order-invariant reports must pass ``values``
    in a canonical (e.g. sorted) order.  Degenerate samples (empty, or a
    single observation) yield NaN bounds rather than a misleading zero-width
    interval.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be positive, got {n_resamples}")
    data = np.asarray(list(values), dtype=float)
    nan = float("nan")
    if data.size == 0:
        return ConfidenceInterval(nan, nan, nan, confidence, 0)
    value = float(statistic(data))
    if data.size == 1:
        return ConfidenceInterval(value, nan, nan, confidence, 1)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, data.size, size=(n_resamples, data.size))
    estimates = np.asarray(
        [float(statistic(sample)) for sample in data[indices]], dtype=float
    )
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(estimates, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return ConfidenceInterval(
        value=value,
        lower=float(lower),
        upper=float(upper),
        confidence=float(confidence),
        samples=int(data.size),
    )


def qof_pool_confidence_intervals(
    success_flags: Sequence[float],
    flight_times: Sequence[float],
    energies: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 1000,
    seed: int = 0,
) -> Dict[str, ConfidenceInterval]:
    """Bootstrap CIs of the four headline QoF statistics from raw pools.

    ``success_flags`` is one 0/1 entry per run; ``flight_times`` and
    ``energies`` are the successful-run pools.  Pools are sorted here before
    resampling, so the intervals are invariant to the order the values are
    supplied in (shard-merge order independence).  This is the single place
    that fixes the statistic list and the seed-offset convention.
    """
    flags = sorted(success_flags)
    times = sorted(flight_times)
    pooled_energies = sorted(energies)
    return {
        "success_rate": bootstrap_ci(flags, np.mean, confidence, n_resamples, seed),
        "mean_flight_time": bootstrap_ci(
            times, np.mean, confidence, n_resamples, seed + 1
        ),
        "worst_flight_time": bootstrap_ci(
            times, np.max, confidence, n_resamples, seed + 2
        ),
        "mean_energy": bootstrap_ci(
            pooled_energies, np.mean, confidence, n_resamples, seed + 3
        ),
    }


def worst_case_increase(baseline: QofSummary, other: QofSummary) -> float:
    """Relative increase of the worst-case flight time versus a baseline.

    This is the paper's "the fault injection runs ... increase the flight time
    by X% in the worst case" metric.
    """
    if baseline.worst_flight_time <= 0:
        return 0.0
    return (other.worst_flight_time - baseline.worst_flight_time) / baseline.worst_flight_time


def worst_case_recovery(
    golden: QofSummary, faulty: QofSummary, recovered: QofSummary
) -> Optional[float]:
    """Fraction of the SDC-degraded worst-case flight time recovered by D&R.

    Defined as ``(worst_FI - worst_DR) / (worst_FI - worst_golden)``; 1.0 means
    the worst case is fully restored to the golden worst case.  ``None`` when
    the faults did not degrade the worst case (a gap of at most 1e-9 s,
    negative gaps included): there is nothing to recover, and 0/0 is no rate.
    """
    degradation = faulty.worst_flight_time - golden.worst_flight_time
    if degradation <= 1e-9:
        return None
    improvement = faulty.worst_flight_time - recovered.worst_flight_time
    return improvement / degradation


def failure_recovery_rate(
    golden: QofSummary, faulty: QofSummary, recovered: QofSummary
) -> Optional[float]:
    """Fraction of the fault-induced failure cases recovered by D&R.

    Defined over success rates: ``(SR_DR - SR_FI) / (SR_golden - SR_FI)``; the
    paper's "recovers up to 89.6% / 100% of failure cases".  ``None`` when the
    faults induced no failure (a success-rate gap of at most 1e-9, negative
    gaps included): there is no failure case to recover.
    """
    induced = golden.success_rate - faulty.success_rate
    if induced <= 1e-9:
        return None
    return (recovered.success_rate - faulty.success_rate) / induced
