"""Campaign management: golden, fault-injection and D&R evaluation runs.

Section VI of the paper evaluates each environment with 100 error-free
("golden") runs plus 900 single-bit injections split over three settings --
plain fault injection (FI), detection & recovery with the Gaussian scheme
(D&R(G)) and with the autoencoder scheme (D&R(A)) -- with 100 injections per
PPC stage in each setting.  The :class:`Campaign` class turns that structure,
with configurable run counts, into lists of run specs, plus the per-kernel
(Fig. 3) and per-inter-kernel-state (Fig. 4) characterisation campaigns, and
flies them with :meth:`Campaign.run_specs`.  Streamed to a JSONL shard, the
flown campaign is the one input of every paper table
(:func:`repro.analysis.report.build_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import knobs
from repro.core.executor import (
    DETECTOR_AUTOENCODER,
    DETECTOR_GAUSSIAN,
    RunSpec,
    SerialExecutor,
    execute_specs,
)
from repro.core.fault import BitField
from repro.core.injector import FaultPlan
from repro.core.resilience import PASS_THROUGH, ResiliencePolicy
from repro.core.results import JsonlResultStore
from repro.detection.training import train_detectors
from repro.scenarios import Scenario, resolve_scenario
from repro.pipeline.runner import MissionResult
from repro import topics


class RunSetting:
    """Canonical labels of the evaluation settings."""

    GOLDEN = "golden"
    INJECTION = "injection"
    DR_GAUSSIAN = "dr_gaussian"
    DR_AUTOENCODER = "dr_autoencoder"
    #: Fault-free runs with a detector attached: every alarm is a false
    #: positive, which is what the detection-accuracy FPR rows are made of.
    DR_GOLDEN_GAUSSIAN = "dr_golden_gaussian"
    DR_GOLDEN_AUTOENCODER = "dr_golden_autoencoder"

    ALL = (GOLDEN, INJECTION, DR_GAUSSIAN, DR_AUTOENCODER)
    #: ALL plus the detector-on-golden false-positive settings (not part of
    #: the default campaign; opt in via ``--settings`` or the spec methods).
    EXTENDED = (*ALL, DR_GOLDEN_GAUSSIAN, DR_GOLDEN_AUTOENCODER)


def runs_scale() -> float:
    """Global scale factor for campaign run counts (``MAVFI_RUNS`` env var).

    Setting ``MAVFI_RUNS=1.0`` reproduces the default counts; larger values
    approach the paper's 100-runs-per-cell campaigns at proportionally larger
    runtime.  Non-numeric, negative, NaN or infinite values are rejected with
    a :class:`ValueError` (they used to be silently clamped or defaulted);
    values below the 0.01 floor are raised to it so a tiny scale still yields
    at least one run per cell.  Parsing and validation live with the knob
    declaration in :mod:`repro.core.knobs`.
    """
    parsed = knobs.value("MAVFI_RUNS")
    return 1.0 if parsed is None else float(parsed)


def scaled_count(base: int) -> int:
    """Apply :func:`runs_scale` to a base run count (minimum of 1)."""
    return max(1, int(round(base * runs_scale())))


@dataclass
class CampaignConfig:
    """Configuration of one environment's campaign."""

    environment: str = "sparse"
    env_seed: int = 0
    #: Optional flight scenario every run of the campaign flies under (a
    #: registered scenario name or a :class:`~repro.scenarios.Scenario`);
    #: per-spec scenarios (scenario sweeps) override it.
    scenario: Optional[Union[str, Scenario]] = None
    planner_name: str = "rrt_star"
    platform: str = "i9"
    num_golden: int = 15
    num_injections_per_stage: int = 12
    mission_time_limit: float = 120.0
    time_step: float = 0.25
    #: Extra simulated seconds the mission runner grants past the time limit
    #: before force-aborting a mission that failed to terminate on its own
    #: (was hardcoded to 5 s inside :class:`~repro.pipeline.runner.MissionRunner`).
    abort_grace: float = 5.0
    injection_window: Tuple[float, float] = (2.0, 9.0)
    bit_field: BitField = BitField.ANY
    seed: int = 0
    training_environments: int = 6
    detector_cache_dir: Optional[Path] = None  # repro-lint: disable=RL008 cache *location* only; detector weights are keyed by training content, not path


class Campaign:
    """Drives golden, fault-injection and D&R runs for one environment.

    A campaign turns its :class:`CampaignConfig` into lists of picklable
    :class:`~repro.core.executor.RunSpec`\\ s (``golden_specs``,
    ``stage_injection_specs``, ``kernel_injection_specs``,
    ``state_injection_specs``) and dispatches them through the execution
    engine with :meth:`run_specs` -- serially or across worker processes,
    optionally streamed to a resumable
    :class:`~repro.core.results.JsonlResultStore`.  :meth:`evaluation_specs`
    is the Table I / Fig. 6 / Table II campaign; the report engine reads the
    flown shard back.

    Detectors (``gad``/``aad``) may be passed in pre-trained; otherwise
    :meth:`ensure_detectors` trains them, or loads them from
    ``config.detector_cache_dir``, the first time a run needs one.  Every
    executor flies these very objects; a process pool ships them to its
    workers.
    """

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        gad=None,
        aad=None,
        executor=None,
    ) -> None:
        self.config = config if config is not None else CampaignConfig()
        self.gad = gad
        self.aad = aad
        #: Default executor for every campaign method; ``None`` means serial.
        #: Per-call ``executor=`` arguments override it.
        self.executor = executor

    # ---------------------------------------------------------------- set-up
    def ensure_detectors(self) -> None:
        """Train (or load cached) detectors if none were supplied."""
        if self.gad is not None and self.aad is not None:
            return
        training = train_detectors(
            num_environments=self.config.training_environments,
            cache_dir=self.config.detector_cache_dir,
            planner_name=self.config.planner_name,
            platform=self.config.platform,
        )
        if self.gad is None:
            self.gad = training.gad
        if self.aad is None:
            self.aad = training.aad

    def _train_missing_detectors(self, tags: Iterable[Optional[str]]) -> None:
        """:meth:`ensure_detectors` when a tag in ``tags`` has no detector object yet."""
        missing = {DETECTOR_GAUSSIAN: self.gad is None, DETECTOR_AUTOENCODER: self.aad is None}
        if any(missing.get(tag, False) for tag in tags):
            self.ensure_detectors()

    def _mission_seed_pool(self) -> List[int]:
        """Pool of mission seeds shared by every setting of the campaign.

        All settings (golden, FI, D&R) draw their mission seeds from the same
        pool, so natural, fault-free variability (e.g. an unlucky planner seed
        in a cluttered environment) affects every setting equally and the
        setting-to-setting differences reflect the faults and the recovery
        schemes rather than sampling noise -- the common-random-numbers
        technique for paired simulation experiments.
        """
        pool_size = scaled_count(self.config.num_golden)
        return [self.config.seed + i for i in range(pool_size)]

    # ----------------------------------------------------- engine integration
    def detector_objects(
        self, extra: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        """The tag->detector mapping every executor flies this campaign's specs with."""
        mapping: Dict[str, object] = {}
        if self.gad is not None:
            mapping[DETECTOR_GAUSSIAN] = self.gad
        if self.aad is not None:
            mapping[DETECTOR_AUTOENCODER] = self.aad
        if extra:
            mapping.update(extra)
        return mapping

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        executor=None,
        store: Optional[JsonlResultStore] = None,
        resume: bool = True,
        extra_detectors: Optional[Mapping[str, object]] = None,
        on_result=None,
        policy: ResiliencePolicy = PASS_THROUGH,
        on_failure=None,
    ) -> List[Optional[MissionResult]]:
        """Dispatch a batch of run specs through the execution engine.

        Returns one record per spec, in spec order.  ``executor`` defaults to
        the campaign's executor, else a :class:`SerialExecutor`; pass a
        :class:`~repro.core.executor.ParallelExecutor` (or any executor
        whose ``map`` takes ``on_result``, ``detectors``, ``policy`` and
        ``on_failure``) to fan the batch out.  With a ``store``, results
        stream to JSONL as they complete and already-completed specs are
        skipped (resume).

        Every executor flies this campaign's ``gad``/``aad`` -- trained or
        loaded once here when a pending spec names one that is missing -- and
        ``extra_detectors``; a process pool ships those objects to its
        workers, so pooled and serial records match.

        ``policy`` defaults to the pass-through policy: the first mission
        exception propagates.  A capturing one (e.g.
        ``ResiliencePolicy.from_knobs()``) enables failure
        capture/retry/quarantine; failed or quarantined specs come back as
        ``None`` entries and their failure records land in the store and the
        ``on_failure`` callback.
        """
        specs = list(specs)
        if executor is None:
            executor = self.executor if self.executor is not None else SerialExecutor()
        # Load the store once: the known-result map drives both the detector
        # decision (resuming an already-completed D&R campaign must not
        # retrain) and the resume filtering in execute_specs.
        known = None
        if store is not None and resume:
            known = store.load_results()
            pending = [spec for spec in specs if spec.key() not in known]
        else:
            pending = specs
        self._train_missing_detectors(spec.detector for spec in pending)
        return execute_specs(
            specs,
            executor=executor,
            store=store,
            detectors=self.detector_objects(extra_detectors),
            resume=resume,
            on_result=on_result,
            known_results=known,
            policy=policy,
            on_failure=on_failure,
        )

    def _fault_plan(
        self,
        target_type: str,
        target: str,
        run_index: int,
        bit_field: Optional[BitField] = None,
    ) -> FaultPlan:
        cfg = self.config
        fault_seed = cfg.seed * 100_003 + run_index * 7 + 13
        rng = np.random.default_rng(fault_seed)
        injection_time = float(rng.uniform(*cfg.injection_window))
        return FaultPlan(
            target_type=target_type,
            target=target,
            injection_time=injection_time,
            bit=None,
            bit_field=bit_field if bit_field is not None else cfg.bit_field,
            seed=fault_seed + 1,
        )

    # --------------------------------------------------------- spec generation
    def golden_specs(self, count: Optional[int] = None) -> List[RunSpec]:
        """Specs of the error-free baseline runs."""
        if count is not None:
            seeds = [self.config.seed + i for i in range(scaled_count(count))]
        else:
            seeds = self._mission_seed_pool()
        return [
            RunSpec(config=self.config, setting=RunSetting.GOLDEN, seed=seed, index=i)
            for i, seed in enumerate(seeds)
        ]

    def dr_golden_specs(
        self, detector: str, count: Optional[int] = None
    ) -> List[RunSpec]:
        """Specs of fault-free runs flown with a detector attached.

        Any alarm on these runs is spurious, so they are the false-positive
        material of the detection-accuracy analysis
        (:mod:`repro.analysis.detection_metrics`).  ``detector`` is a spec
        detector tag (``"gaussian"`` or ``"autoencoder"``); the mission seeds
        come from the shared pool, pairing each run with its golden twin.
        """
        settings = {
            DETECTOR_GAUSSIAN: RunSetting.DR_GOLDEN_GAUSSIAN,
            DETECTOR_AUTOENCODER: RunSetting.DR_GOLDEN_AUTOENCODER,
        }
        if detector not in settings:
            raise ValueError(
                f"dr_golden_specs needs a trained detector tag "
                f"({DETECTOR_GAUSSIAN!r} or {DETECTOR_AUTOENCODER!r}), got {detector!r}"
            )
        if count is not None:
            seeds = [self.config.seed + i for i in range(scaled_count(count))]
        else:
            seeds = self._mission_seed_pool()
        return [
            RunSpec(
                config=self.config,
                setting=settings[detector],
                seed=seed,
                index=i,
                detector=detector,
            )
            for i, seed in enumerate(seeds)
        ]

    def stage_injection_specs(
        self,
        setting: str,
        detector: Optional[str] = None,
        count_per_stage: Optional[int] = None,
        stages: Sequence[str] = topics.PPC_STAGES,
        bit_field: Optional[BitField] = None,
    ) -> List[RunSpec]:
        """Specs of single-bit injections split evenly over the PPC stages.

        ``detector`` is a spec detector *tag* (``"gaussian"``,
        ``"autoencoder"``, ``"custom"`` or ``None``), not a live object; a
        ``"custom"`` spec flies the object :meth:`run_specs` is given as
        ``extra_detectors={"custom": obj}``.
        """
        count = scaled_count(
            count_per_stage
            if count_per_stage is not None
            else self.config.num_injections_per_stage
        )
        seeds = self._mission_seed_pool()
        specs: List[RunSpec] = []
        run_index = 0
        for stage in stages:
            for _ in range(count):
                plan = self._fault_plan("stage", stage, run_index, bit_field)
                specs.append(
                    RunSpec(
                        config=self.config,
                        setting=setting,
                        seed=seeds[run_index % len(seeds)],
                        index=run_index,
                        fault_plan=plan,
                        detector=detector,
                    )
                )
                run_index += 1
        return specs

    def kernel_injection_specs(
        self,
        kernel_specs: Sequence[Tuple[str, str, str]],
        count_per_kernel: Optional[int] = None,
        bit_field: Optional[BitField] = None,
    ) -> List[RunSpec]:
        """Specs of the per-kernel characterisation runs (Fig. 3).

        ``kernel_specs`` is a sequence of ``(label, kernel_node_name,
        planner_name)`` triples; the resulting specs carry the setting
        ``"kernel:<label>"``.
        """
        count = scaled_count(
            count_per_kernel
            if count_per_kernel is not None
            else self.config.num_injections_per_stage
        )
        seeds = self._mission_seed_pool()
        specs: List[RunSpec] = []
        run_index = 0
        for label, kernel_name, planner_name in kernel_specs:
            for i in range(count):
                plan = self._fault_plan("kernel", kernel_name, run_index, bit_field)
                specs.append(
                    RunSpec(
                        config=self.config,
                        setting=f"kernel:{label}",
                        seed=seeds[i % len(seeds)],
                        index=run_index,
                        fault_plan=plan,
                        planner_name=planner_name,
                    )
                )
                run_index += 1
        return specs

    def state_injection_specs(
        self,
        state_names: Sequence[str],
        count_per_state: Optional[int] = None,
        bit_field: Optional[BitField] = None,
    ) -> List[RunSpec]:
        """Specs of the per-inter-kernel-state characterisation runs (Fig. 4)."""
        count = scaled_count(
            count_per_state
            if count_per_state is not None
            else self.config.num_injections_per_stage
        )
        seeds = self._mission_seed_pool()
        specs: List[RunSpec] = []
        run_index = 0
        for state_name in state_names:
            for i in range(count):
                plan = self._fault_plan("state", state_name, run_index, bit_field)
                specs.append(
                    RunSpec(
                        config=self.config,
                        setting=f"state:{state_name}",
                        seed=seeds[i % len(seeds)],
                        index=run_index,
                        fault_plan=plan,
                    )
                )
                run_index += 1
        return specs

    def scenario_sweep_specs(
        self,
        scenarios: Sequence[Union[str, Scenario]],
        count: Optional[int] = None,
    ) -> List[RunSpec]:
        """Specs of error-free runs across a list of scenarios.

        Each scenario contributes ``count`` (default: the golden-run count)
        missions under the setting ``"scenario:<name>"``, drawing mission
        seeds from the shared pool so scenario-to-scenario differences
        reflect the scenario rather than sampling noise.
        """
        if count is not None:
            seeds = [self.config.seed + i for i in range(scaled_count(count))]
        else:
            seeds = self._mission_seed_pool()
        specs: List[RunSpec] = []
        for scenario in scenarios:
            resolved = resolve_scenario(scenario)
            if resolved is None:
                raise ValueError("scenario sweeps require non-None scenarios")
            for i, seed in enumerate(seeds):
                specs.append(
                    RunSpec(
                        config=self.config,
                        setting=f"scenario:{resolved.name}",
                        seed=seed,
                        index=i,
                        scenario=resolved,
                    )
                )
        return specs

    def evaluation_specs(
        self, scenarios: Optional[Sequence[Union[str, Scenario]]] = None
    ) -> List[RunSpec]:
        """All specs of the Table I / Fig. 6 / Table II campaign, in order.

        ``scenarios`` optionally appends an error-free scenario sweep (one
        batch of golden-style runs per scenario) to the paper campaign.
        """
        specs = self.golden_specs()
        specs += self.stage_injection_specs(RunSetting.INJECTION)
        specs += self.stage_injection_specs(
            RunSetting.DR_GAUSSIAN, detector=DETECTOR_GAUSSIAN
        )
        specs += self.stage_injection_specs(
            RunSetting.DR_AUTOENCODER, detector=DETECTOR_AUTOENCODER
        )
        if scenarios:
            specs += self.scenario_sweep_specs(scenarios)
        return specs
