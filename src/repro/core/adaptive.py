"""Adaptive campaign driver: search the fault space instead of sweeping it.

Exhaustive (stage x bit x activation x scenario) grids grow multiplicatively
with every scenario the catalog gains, yet most of their runs are spent
re-confirming cells whose verdict is already statistically settled.  This
module drives campaigns the other way around -- it *searches*:

* a **budgeted sampler** allocates runs over (setting, scenario, stage) cells
  round by round and early-stops any cell whose Wilson confidence interval on
  the success rate has converged below a target half-width
  (:func:`repro.core.qof.wilson_interval`, the power rule of CI-gated
  campaign cadences);
* an **activation-window bisection** refines the injection-time boundary
  between the always-survives and always-fails regions of each fault cell --
  the golden-prefix checkpoint engine (:mod:`repro.core.checkpoint`) makes
  these dense same-prefix probes nearly free, because every probe forks the
  one shared fault-free prefix instead of re-flying it;
* a **refinement planner** spends each round's budget on the most ambiguous
  cells first: cells whose interval still straddles the fault-free (golden)
  success-rate estimate -- i.e. whose divergence from golden is undecided --
  outrank settled ones.

Everything the driver emits is ordinary engine material: cells turn into
:class:`~repro.core.executor.RunSpec` batches dispatched through the
serial/parallel executors and streamed to the same resumable JSONL shards,
so ``repro report`` consumes adaptive results unchanged.  Every run's seed is
derived canonically from its cell key and per-cell index
(:func:`repro.core.qof.derive_seed`), which makes the whole search
**order- and parallelism-invariant**: the same (budget, seed) produces a
byte-identical ``adaptive-plan-v1`` audit trail whether it ran serially,
across worker processes, or resumed from a partial shard.

The audit trail records every round's allocations, every cell's tallies and
stop reason, and every bisection bracket, so each early-stop decision is
replayable after the fact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import topics
from repro.core.campaign import Campaign, RunSetting
from repro.core.executor import (
    DETECTOR_AUTOENCODER,
    DETECTOR_GAUSSIAN,
    RunSpec,
)
from repro.core.injector import FaultPlan
from repro.core.qof import ConfidenceInterval, derive_seed, wilson_interval
from repro.core.results import JsonlResultStore
from repro.core import shape
from repro.scenarios import Scenario, resolve_scenario

#: Schema identifier written into (and required from) every audit trail.
PLAN_SCHEMA = "adaptive-plan-v1"

#: Default audit-trail file name of ``repro campaign --adaptive``.
DEFAULT_PLAN_NAME = "adaptive-plan.json"

#: Cell stop reasons recorded in the audit trail.
STOP_CONVERGED = "converged"  # Wilson half-width reached the target.
STOP_BUDGET = "budget"  # the campaign budget ran out first.
STOP_MAX_ROUNDS = "max-rounds"  # the round-count safety cap fired.
STOP_REASONS = (STOP_CONVERGED, STOP_BUDGET, STOP_MAX_ROUNDS)

#: Bisection termination reasons recorded in the audit trail.
BISECT_CONVERGED = "converged"  # bracket narrowed below the tolerance.
BISECT_NO_BOUNDARY = "no-boundary"  # both window ends behave identically.
BISECT_PROBE_BUDGET = "probe-budget"  # per-boundary probe cap reached.
BISECT_BUDGET = "budget"  # the campaign budget ran out first.
BISECT_REASONS = (
    BISECT_CONVERGED,
    BISECT_NO_BOUNDARY,
    BISECT_PROBE_BUDGET,
    BISECT_BUDGET,
)

#: Detector tag each supported setting flies with.
_SETTING_DETECTORS: Dict[str, Optional[str]] = {
    RunSetting.GOLDEN: None,
    RunSetting.INJECTION: None,
    RunSetting.DR_GAUSSIAN: DETECTOR_GAUSSIAN,
    RunSetting.DR_AUTOENCODER: DETECTOR_AUTOENCODER,
    RunSetting.DR_GOLDEN_GAUSSIAN: DETECTOR_GAUSSIAN,
    RunSetting.DR_GOLDEN_AUTOENCODER: DETECTOR_AUTOENCODER,
}

#: Settings whose cells carry a fault plan (one cell per PPC stage).
FAULT_SETTINGS = (
    RunSetting.INJECTION,
    RunSetting.DR_GAUSSIAN,
    RunSetting.DR_AUTOENCODER,
)


# ------------------------------------------------------------------ the cells
@dataclass(frozen=True, order=True)
class CellKey:
    """Identity of one sampling cell: (scenario, setting, stage).

    ``scenario`` is the registered scenario name (``""`` when the campaign's
    default applies) and ``stage`` the injected PPC stage (``""`` for
    fault-free cells).  The field order doubles as the canonical sort order,
    so every plan section lists cells deterministically.
    """

    scenario: str
    setting: str
    stage: str

    def label(self) -> str:
        """Human-readable cell label used throughout the audit trail."""
        return f"{self.setting}/{self.scenario or '-'}/{self.stage or '-'}"


@dataclass
class CellState:
    """Mutable per-cell tallies accumulated round by round."""

    key: CellKey
    runs: int = 0
    successes: int = 0
    spec_keys: List[str] = field(default_factory=list)
    stop_reason: Optional[str] = None
    stop_round: Optional[int] = None

    def interval(self, confidence: float) -> ConfidenceInterval:
        """Wilson interval of the cell's success rate so far."""
        return wilson_interval(self.successes, self.runs, confidence)


# -------------------------------------------------------------- configuration
@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning of the adaptive driver (budget, convergence, bisection).

    ``budget`` caps the *total* number of missions the driver may fly --
    sampling runs and bisection probes combined.  ``ci_width`` is the target
    Wilson half-width on a cell's success rate: once a cell's interval is at
    least ``min_runs`` deep and narrower than the target, the cell stops and
    its share of the budget flows to the still-ambiguous cells (and, once
    sampling settles, to boundary bisection).
    """

    budget: int = 96
    ci_width: float = 0.15
    confidence: float = 0.95
    round_size: int = 4
    min_runs: int = 4
    max_rounds: int = 256
    bisect: bool = True
    bisect_tolerance: float = 0.5
    bisect_max_probes: int = 12
    bisect_votes: int = 1

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not 0.0 < self.ci_width < 1.0:
            raise ValueError(f"ci_width must be in (0, 1), got {self.ci_width}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.round_size < 1:
            raise ValueError(f"round_size must be positive, got {self.round_size}")
        if self.min_runs < 1:
            raise ValueError(f"min_runs must be positive, got {self.min_runs}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.bisect_tolerance <= 0.0:
            raise ValueError(
                f"bisect_tolerance must be positive, got {self.bisect_tolerance}"
            )
        if self.bisect_max_probes < 0:
            raise ValueError(
                f"bisect_max_probes must be non-negative, got {self.bisect_max_probes}"
            )
        if self.bisect_votes < 1 or self.bisect_votes % 2 == 0:
            raise ValueError(
                f"bisect_votes must be a positive odd number, got {self.bisect_votes}"
            )


# ------------------------------------------------------------------ bisection
@dataclass(frozen=True)
class BisectionOutcome:
    """Result of one activation-window bisection.

    ``(lo, hi)`` is the final bracket: under a monotone fault response it is
    the boundary's confidence interval -- the true transition instant lies
    inside it whenever the oracle's noise band is narrower than the bracket.
    ``boundary`` is the bracket midpoint (``None`` when no transition exists
    in the window), ``probes`` the number of oracle calls consumed.
    """

    lo: float
    hi: float
    boundary: Optional[float]
    probes: int
    converged: bool
    reason: str
    lo_survives: Optional[bool]
    hi_survives: Optional[bool]


def bisect_boundary(
    oracle: Callable[[float, int], bool],
    lo: float,
    hi: float,
    tolerance: float,
    max_probes: int,
    votes: int = 1,
) -> BisectionOutcome:
    """Bisect the survives/fails boundary of a fault-response oracle.

    ``oracle(t, vote)`` flies (or simulates) one probe with the fault
    activated at time ``t`` and returns True when the mission survives; the
    ``vote`` index distinguishes repeated probes of the same instant so noisy
    responses can be majority-voted (``votes`` must be odd).  Starting from
    the window ``[lo, hi]``, the bracket is narrowed by classic bisection
    until its width is at most ``tolerance`` or ``max_probes`` oracle calls
    have been spent.

    Invariants (the property tests pin these): for a step-function oracle the
    returned bracket always contains the true boundary and its endpoints keep
    their observed outcomes; the call never exceeds ``max_probes`` oracle
    calls; and a window whose two ends behave identically is reported as
    ``no-boundary`` (bracket = the full window) after exactly ``2 * votes``
    probes.
    """
    if not lo < hi:
        raise ValueError(f"bisection window must have lo < hi, got [{lo}, {hi}]")
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if votes < 1 or votes % 2 == 0:
        raise ValueError(f"votes must be a positive odd number, got {votes}")
    probes = 0

    def point(t: float) -> bool:
        nonlocal probes
        survived = sum(1 for vote in range(votes) if bool(oracle(t, vote)))
        probes += votes
        return survived * 2 > votes

    if max_probes < 2 * votes:
        # Not even the two window ends can be evaluated.
        return BisectionOutcome(
            lo, hi, None, 0, False, BISECT_PROBE_BUDGET, None, None
        )
    lo_survives = point(lo)
    hi_survives = point(hi)
    if lo_survives == hi_survives:
        return BisectionOutcome(
            lo, hi, None, probes, False, BISECT_NO_BOUNDARY, lo_survives, hi_survives
        )
    while hi - lo > tolerance and probes + votes <= max_probes:
        mid = 0.5 * (lo + hi)
        if point(mid) == lo_survives:
            lo = mid
        else:
            hi = mid
    converged = (hi - lo) <= tolerance
    return BisectionOutcome(
        lo=lo,
        hi=hi,
        boundary=0.5 * (lo + hi),
        probes=probes,
        converged=converged,
        reason=BISECT_CONVERGED if converged else BISECT_PROBE_BUDGET,
        lo_survives=lo_survives,
        hi_survives=hi_survives,
    )


# ------------------------------------------------------------------ the driver
class AdaptiveDriver:
    """Budgeted, CI-gated search over a campaign's fault space.

    The driver owns no execution machinery of its own: it generates ordinary
    :class:`RunSpec` batches and dispatches them through
    :meth:`Campaign.run_specs`, so executors, JSONL streaming/resume and the
    golden-prefix checkpoint engine all apply unchanged.  Determinism
    contract: for a fixed campaign configuration and
    :class:`AdaptiveConfig`, :meth:`run` produces a byte-identical
    ``adaptive-plan-v1`` audit trail and flies the identical spec-key set
    regardless of executor parallelism or shard-resume restarts, because
    every allocation decision depends only on (deterministic) mission results
    and every seed derives from the cell key alone.
    """

    def __init__(
        self,
        campaign: Campaign,
        config: Optional[AdaptiveConfig] = None,
        settings: Optional[Sequence[str]] = None,
        scenarios: Optional[Sequence[Union[str, Scenario]]] = None,
        stages: Optional[Sequence[str]] = None,
    ) -> None:
        self.campaign = campaign
        self.config = config if config is not None else AdaptiveConfig()
        self.settings = tuple(settings) if settings else tuple(RunSetting.ALL)
        unknown = [s for s in self.settings if s not in _SETTING_DETECTORS]
        if unknown:
            raise ValueError(
                f"unsupported adaptive settings {unknown}; expected a subset "
                f"of {sorted(_SETTING_DETECTORS)}"
            )
        self.stages = tuple(stages) if stages else tuple(topics.PPC_STAGES)
        resolved: List[Optional[Scenario]] = []
        if scenarios:
            for scenario in scenarios:
                obj = resolve_scenario(scenario)
                if obj is None:
                    raise ValueError("adaptive scenario lists require non-None entries")
                resolved.append(obj)
        else:
            resolved.append(None)
        #: Scenario-name -> resolved Scenario (or None for the campaign default).
        self._scenarios: Dict[str, Optional[Scenario]] = {
            (obj.name if obj is not None else ""): obj for obj in resolved
        }
        #: Shared mission-seed pool (common random numbers across settings).
        self._seed_pool = campaign._mission_seed_pool()

    # ------------------------------------------------------------- cell space
    def cell_keys(self) -> List[CellKey]:
        """Every (scenario, setting, stage) cell of this search, in order."""
        cells: List[CellKey] = []
        for scenario_name in self._scenarios:
            for setting in self.settings:
                if setting in FAULT_SETTINGS:
                    for stage in self.stages:
                        cells.append(CellKey(scenario_name, setting, stage))
                else:
                    cells.append(CellKey(scenario_name, setting, ""))
        return sorted(cells)

    def spec_for(self, cell: CellKey, index: int) -> RunSpec:
        """The ``index``-th run spec of ``cell`` (order/parallelism invariant).

        Fault seeds derive canonically from the cell key and the index alone
        (:func:`derive_seed` with the campaign seed as base), so a cell's
        sample stream never depends on which other cells exist or on how many
        rounds preceded the allocation.  Fault cells draw mission seeds from
        the campaign's shared pool (common random numbers across settings);
        fault-free cells take fresh seeds per index so every additional run
        is a genuinely new mission rather than a replay of a pooled one.
        """
        cfg = self.campaign.config
        scenario = self._scenarios[cell.scenario]
        detector = _SETTING_DETECTORS[cell.setting]
        if cell.stage:
            fault_seed = derive_seed(
                "adaptive-fault-v1",
                cell.setting,
                cell.scenario,
                cell.stage,
                str(index),
                base=cfg.seed,
            )
            rng = np.random.default_rng(fault_seed)
            injection_time = float(rng.uniform(*cfg.injection_window))
            plan: Optional[FaultPlan] = FaultPlan(
                target_type="stage",
                target=cell.stage,
                injection_time=injection_time,
                bit=None,
                bit_field=cfg.bit_field,
                seed=fault_seed + 1,
            )
            seed = self._seed_pool[index % len(self._seed_pool)]
        else:
            plan = None
            seed = cfg.seed + index
        return RunSpec(
            config=cfg,
            setting=cell.setting,
            seed=seed,
            index=index,
            fault_plan=plan,
            detector=detector,
            scenario=scenario,
        )

    def probe_spec(self, cell: CellKey, t: float, vote: int) -> RunSpec:
        """One bisection probe of ``cell`` with the fault activated at ``t``.

        Probes fly under the setting label ``probe:<setting>:<stage>`` so
        they land in their own report groups instead of polluting the cell's
        success-rate tallies; they share the cell's mission seed-pool head,
        so the checkpoint engine serves every probe of a stage from the same
        golden-prefix cursor (dense activation sweeps are what the fork
        machinery makes nearly free).
        """
        cfg = self.campaign.config
        fault_seed = derive_seed(
            "adaptive-bisect-v1",
            cell.setting,
            cell.scenario,
            cell.stage,
            format(float(t), ".9f"),
            str(vote),
            base=cfg.seed,
        )
        plan = FaultPlan(
            target_type="stage",
            target=cell.stage,
            injection_time=float(t),
            bit=None,
            bit_field=cfg.bit_field,
            seed=fault_seed,
        )
        return RunSpec(
            config=cfg,
            setting=f"probe:{cell.setting}:{cell.stage}",
            seed=self._seed_pool[0],
            index=vote,
            fault_plan=plan,
            detector=_SETTING_DETECTORS[cell.setting],
            scenario=self._scenarios[cell.scenario],
        )

    # ------------------------------------------------------------ prioritising
    def _golden_rates(self, cells: Dict[CellKey, CellState]) -> Dict[str, float]:
        """Per-scenario fault-free success-rate estimates (golden cells)."""
        rates: Dict[str, float] = {}
        for key, state in cells.items():
            if key.setting == RunSetting.GOLDEN and state.runs > 0:
                rates[key.scenario] = state.successes / state.runs
        return rates

    def _priority_order(
        self, active: List[CellState], golden_rates: Dict[str, float]
    ) -> List[CellState]:
        """Refinement order for one round's allocations.

        Unsampled cells come first (nothing is known about them), then cells
        whose Wilson interval still *contains* the scenario's golden
        success-rate estimate -- their divergence from fault-free behaviour
        is statistically undecided, which is exactly where extra samples
        change the campaign's conclusions.  Ties break toward the widest
        interval, then the canonical cell order, so the whole ordering is
        deterministic.
        """

        def sort_key(state: CellState) -> Tuple[int, int, float, CellKey]:
            if state.runs == 0:
                return (0, 0, 0.0, state.key)
            interval = state.interval(self.config.confidence)
            golden = golden_rates.get(state.key.scenario)
            straddles = True
            if state.key.stage and golden is not None:
                straddles = interval.contains(golden)
            return (1, 0 if straddles else 1, -interval.half_width, state.key)

        return sorted(active, key=sort_key)

    # --------------------------------------------------------------- execution
    def run(
        self,
        executor: Optional[object] = None,
        store: Optional[JsonlResultStore] = None,
        resume: bool = True,
        on_result: Optional[Callable[[RunSpec, object], None]] = None,
    ) -> Dict:
        """Run the adaptive search and return the ``adaptive-plan-v1`` dict.

        ``executor``/``store``/``resume``/``on_result`` are forwarded to
        :meth:`Campaign.run_specs` unchanged, so parallel dispatch, JSONL
        streaming and shard resume behave exactly as in exhaustive campaigns.
        """
        config = self.config
        cells: Dict[CellKey, CellState] = {
            key: CellState(key=key) for key in self.cell_keys()
        }
        rounds: List[Dict] = []
        used = 0
        sampling_runs = 0
        round_no = 0

        while used < config.budget and round_no < config.max_rounds:
            active = [s for s in cells.values() if s.stop_reason is None]
            if not active:
                break
            ordered = self._priority_order(active, self._golden_rates(cells))
            batch: List[Tuple[CellState, List[RunSpec]]] = []
            remaining = config.budget - used
            for state in ordered:
                if remaining <= 0:
                    break
                count = min(config.round_size, remaining)
                specs = [self.spec_for(state.key, state.runs + j) for j in range(count)]
                batch.append((state, specs))
                remaining -= count
            all_specs = [spec for _, specs in batch for spec in specs]
            if not all_specs:
                break
            results = self.campaign.run_specs(
                all_specs,
                executor=executor,
                store=store,
                resume=resume,
                on_result=on_result,
            )
            allocations: List[Dict] = []
            position = 0
            for state, specs in batch:
                cell_results = results[position : position + len(specs)]
                position += len(specs)
                state.runs += len(specs)
                state.successes += sum(1 for r in cell_results if r.success)
                keys = [spec.key() for spec in specs]
                state.spec_keys.extend(keys)
                allocations.append(
                    {
                        "cell": state.key.label(),
                        "runs": len(specs),
                        "spec_keys": keys,
                    }
                )
            used += len(all_specs)
            sampling_runs += len(all_specs)
            for state in cells.values():
                if state.stop_reason is None and state.runs >= config.min_runs:
                    interval = state.interval(config.confidence)
                    if interval.half_width <= config.ci_width:
                        state.stop_reason = STOP_CONVERGED
                        state.stop_round = round_no
            rounds.append(
                {
                    "round": round_no,
                    "allocations": allocations,
                    "runs_used": used,
                }
            )
            round_no += 1

        exhausted_reason = (
            STOP_BUDGET if used >= config.budget else STOP_MAX_ROUNDS
        )
        for state in cells.values():
            if state.stop_reason is None:
                state.stop_reason = exhausted_reason

        boundaries, probe_runs = self._bisect_phase(
            cells, used, executor=executor, store=store, resume=resume
        )
        used += probe_runs

        plan = self._build_plan(cells, rounds, boundaries, used, sampling_runs, probe_runs)
        validate_plan(plan)
        return plan

    def _bisect_phase(
        self,
        cells: Dict[CellKey, CellState],
        used: int,
        executor: Optional[object],
        store: Optional[JsonlResultStore],
        resume: bool,
    ) -> Tuple[List[Dict], int]:
        """Per-stage vulnerability-boundary bisection (budget permitting)."""
        config = self.config
        boundaries: List[Dict] = []
        probe_runs = 0
        if not config.bisect:
            return boundaries, probe_runs
        lo, hi = (float(v) for v in self.campaign.config.injection_window)
        fault_cells = sorted(key for key in cells if key.stage)
        for key in fault_cells:
            budget_left = config.budget - used - probe_runs
            cap = min(config.bisect_max_probes, max(0, budget_left))

            def oracle(t: float, vote: int, _key: CellKey = key) -> bool:
                result = self.campaign.run_specs(
                    [self.probe_spec(_key, t, vote)],
                    executor=executor,
                    store=store,
                    resume=resume,
                )[0]
                return bool(result.success)

            outcome = bisect_boundary(
                oracle,
                lo,
                hi,
                tolerance=config.bisect_tolerance,
                max_probes=cap,
                votes=config.bisect_votes,
            )
            probe_runs += outcome.probes
            reason = outcome.reason
            if reason == BISECT_PROBE_BUDGET and cap < config.bisect_max_probes:
                # The per-boundary cap was itself budget-limited.
                reason = BISECT_BUDGET
            boundaries.append(
                {
                    "cell": key.label(),
                    "setting": key.setting,
                    "scenario": key.scenario,
                    "stage": key.stage,
                    "window": [lo, hi],
                    "bracket": [outcome.lo, outcome.hi],
                    "boundary": outcome.boundary,
                    "probes": outcome.probes,
                    "votes": config.bisect_votes,
                    "tolerance": config.bisect_tolerance,
                    "converged": outcome.converged,
                    "reason": reason,
                    "lo_survives": outcome.lo_survives,
                    "hi_survives": outcome.hi_survives,
                }
            )
        return boundaries, probe_runs

    # ----------------------------------------------------------- the audit trail
    def _build_plan(
        self,
        cells: Dict[CellKey, CellState],
        rounds: List[Dict],
        boundaries: List[Dict],
        used: int,
        sampling_runs: int,
        probe_runs: int,
    ) -> Dict:
        cfg = self.campaign.config
        config = self.config
        cell_entries: List[Dict] = []
        early_stopped = 0
        for key in sorted(cells):
            state = cells[key]
            interval = state.interval(config.confidence)
            if state.stop_reason == STOP_CONVERGED:
                early_stopped += 1
            cell_entries.append(
                {
                    "cell": key.label(),
                    "setting": key.setting,
                    "scenario": key.scenario,
                    "stage": key.stage,
                    "runs": state.runs,
                    "successes": state.successes,
                    "success_rate": (
                        state.successes / state.runs if state.runs else None
                    ),
                    "wilson": {
                        "lower": _finite_or_none(interval.lower),
                        "upper": _finite_or_none(interval.upper),
                        "half_width": _finite_or_none(interval.half_width),
                        "confidence": config.confidence,
                    },
                    "stop_reason": state.stop_reason,
                    "stop_round": state.stop_round,
                    "spec_keys": list(state.spec_keys),
                }
            )
        return {
            "schema": PLAN_SCHEMA,
            "campaign": {
                "environment": str(getattr(cfg.environment, "name", cfg.environment)),
                "env_seed": int(cfg.env_seed),
                "seed": int(cfg.seed),
                "planner": cfg.planner_name,
                "platform": str(getattr(cfg.platform, "name", cfg.platform)),
                "mission_time_limit": float(cfg.mission_time_limit),
                "time_step": float(cfg.time_step),
                "injection_window": [float(v) for v in cfg.injection_window],
                "settings": list(self.settings),
                "scenarios": sorted(self._scenarios),
                "stages": list(self.stages),
                "seed_pool_size": len(self._seed_pool),
            },
            "config": {
                "budget": config.budget,
                "ci_width": config.ci_width,
                "confidence": config.confidence,
                "round_size": config.round_size,
                "min_runs": config.min_runs,
                "max_rounds": config.max_rounds,
                "bisect": config.bisect,
                "bisect_tolerance": config.bisect_tolerance,
                "bisect_max_probes": config.bisect_max_probes,
                "bisect_votes": config.bisect_votes,
            },
            "rounds": rounds,
            "cells": cell_entries,
            "boundaries": boundaries,
            "totals": {
                "budget": config.budget,
                "runs_used": used,
                "sampling_runs": sampling_runs,
                "bisection_probes": probe_runs,
                "cells": len(cells),
                "early_stopped": early_stopped,
            },
        }


def _finite_or_none(value: float) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


# ----------------------------------------------------------------- validation
PLAN_SHAPE = shape.Obj(
    schema=shape.Literal(PLAN_SCHEMA),
    campaign=shape.Obj(
        environment=shape.NAME,
        env_seed=shape.INT,
        seed=shape.INT,
        planner=shape.NAME,
        platform=shape.NAME,
        mission_time_limit=shape.POSITIVE,
        time_step=shape.POSITIVE,
        injection_window=shape.Pair(),
        settings=shape.ListOf(shape.STR),
        scenarios=shape.ListOf(shape.STR),
        stages=shape.ListOf(shape.STR),
        seed_pool_size=shape.POSITIVE_INT,
    ),
    config=shape.Obj(
        budget=shape.POSITIVE_INT,
        ci_width=shape.PROBABILITY,
        confidence=shape.PROBABILITY,
        round_size=shape.POSITIVE_INT,
        min_runs=shape.POSITIVE_INT,
        max_rounds=shape.POSITIVE_INT,
        bisect=shape.BOOL,
        bisect_tolerance=shape.POSITIVE,
        bisect_max_probes=shape.COUNT,
        bisect_votes=shape.POSITIVE_INT,
    ),
    rounds=shape.ListOf(
        shape.Obj(
            round=shape.COUNT,
            allocations=shape.ListOf(
                shape.Obj(
                    cell=shape.NAME,
                    runs=shape.POSITIVE_INT,
                    spec_keys=shape.ListOf(shape.STR),
                ),
                nonempty=True,
            ),
            runs_used=shape.COUNT,
        )
    ),
    cells=shape.ListOf(
        shape.Obj(
            cell=shape.NAME,
            setting=shape.STR,
            scenario=shape.STR,
            stage=shape.STR,
            runs=shape.COUNT,
            successes=shape.COUNT,
            success_rate=shape.Nullable(shape.FRACTION),
            wilson=shape.Obj(
                lower=shape.MAYBE_FINITE,
                upper=shape.MAYBE_FINITE,
                half_width=shape.MAYBE_FINITE,
                confidence=shape.PROBABILITY,
            ),
            stop_reason=shape.Literal(*STOP_REASONS),
            stop_round=shape.Nullable(shape.COUNT),
            spec_keys=shape.ListOf(shape.STR),
        ),
        nonempty=True,
    ),
    boundaries=shape.ListOf(
        shape.Obj(
            cell=shape.NAME,
            setting=shape.STR,
            scenario=shape.STR,
            stage=shape.STR,
            window=shape.Pair(),
            bracket=shape.Pair(),
            boundary=shape.MAYBE_FINITE,
            probes=shape.COUNT,
            votes=shape.POSITIVE_INT,
            tolerance=shape.POSITIVE,
            converged=shape.BOOL,
            reason=shape.Literal(*BISECT_REASONS),
            lo_survives=shape.Nullable(shape.BOOL),
            hi_survives=shape.Nullable(shape.BOOL),
        )
    ),
    totals=shape.Obj(
        budget=shape.POSITIVE_INT,
        runs_used=shape.COUNT,
        sampling_runs=shape.COUNT,
        bisection_probes=shape.COUNT,
        cells=shape.COUNT,
        early_stopped=shape.COUNT,
    ),
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid {PLAN_SCHEMA} plan: {message}")


def validate_plan(plan: Dict) -> Dict:
    """Validate an ``adaptive-plan-v1`` audit trail; returns it or raises ``ValueError``.

    Beyond :data:`PLAN_SHAPE` it checks what a shape cannot express: the
    budget, allocation and probe sums, spec-key order, unique cell labels,
    null success rates exactly for cells without runs, ordered Wilson
    intervals and brackets within their windows.
    """
    shape.check_shape(PLAN_SHAPE, plan, f"invalid {PLAN_SCHEMA} plan")
    budget = plan["config"]["budget"]
    totals = plan["totals"]
    sampling, probes = totals["sampling_runs"], totals["bisection_probes"]
    _require(
        totals["runs_used"] == sampling + probes,
        "totals.runs_used must equal sampling_runs + bisection_probes",
    )
    _require(totals["runs_used"] <= budget, "totals.runs_used must not exceed the budget")
    _require(totals["budget"] == budget, "totals.budget must match config.budget")

    allocated_keys: Dict[str, List[str]] = {}
    round_total = 0
    for i, entry in enumerate(plan["rounds"]):
        _require(entry["round"] == i, f"round {i} must be numbered in order")
        for allocation in entry["allocations"]:
            _require(
                len(allocation["spec_keys"]) == allocation["runs"],
                f"round {i} allocation spec_keys must list one key per run",
            )
            allocated_keys.setdefault(allocation["cell"], []).extend(allocation["spec_keys"])
            round_total += allocation["runs"]
    _require(round_total == sampling, "per-round allocations must sum to totals.sampling_runs")

    cells = plan["cells"]
    labels = [cell["cell"] for cell in cells]
    for cell in cells:
        label = cell["cell"]
        _require(labels.count(label) == 1, f"duplicate cell label {label!r}")
        runs = cell["runs"]
        _require(cell["successes"] <= runs, f"cell {label} successes must not exceed its runs")
        _require(
            (cell["success_rate"] is None) == (runs == 0),
            f"cell {label} success_rate must be null exactly when it has no runs",
        )
        keys = allocated_keys.get(label, [])
        _require(runs == len(keys), f"cell {label} runs must equal its summed round allocations")
        _require(
            cell["spec_keys"] == keys,
            f"cell {label} spec_keys must match its round allocations in order",
        )
        lower, upper = cell["wilson"]["lower"], cell["wilson"]["upper"]
        _require(
            lower is None or upper is None or lower <= upper,
            f"cell {label} wilson interval must be ordered",
        )
    early = sum(1 for cell in cells if cell["stop_reason"] == STOP_CONVERGED)
    _require(totals["early_stopped"] == early, "totals.early_stopped must count converged cells")
    _require(totals["cells"] == len(cells), "totals.cells must match the cells section")

    for boundary in plan["boundaries"]:
        label = boundary["cell"]
        (window_lo, window_hi), (lo, hi) = boundary["window"], boundary["bracket"]
        _require(
            window_lo <= lo and hi <= window_hi,
            f"boundary {label} bracket must lie within its window",
        )
        estimate = boundary["boundary"]
        _require(
            estimate is None or lo <= estimate <= hi,
            f"boundary {label} estimate must lie within its bracket",
        )
    _require(
        sum(boundary["probes"] for boundary in plan["boundaries"]) == probes,
        "per-boundary probes must sum to totals.bisection_probes",
    )
    return plan


def validate_plan_file(path: Union[str, Path]) -> Dict:
    """Load and validate an audit-trail file; returns the plan dict."""
    path = Path(path)
    try:
        plan = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot read adaptive plan {path}: {error}") from error
    return validate_plan(plan)


def write_plan(plan: Dict, path: Union[str, Path]) -> Path:
    """Validate and write an audit trail as canonical, deterministic JSON."""
    validate_plan(plan)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(plan, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
