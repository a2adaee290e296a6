"""The three campaign workloads of the repository benchmark.

Each workload is a campaign and its batch of run specs, built through the
same public API ``python -m repro campaign`` uses, at the CLI's default seeds.
Run counts are pinned to ``MAVFI_RUNS=1.0`` so every run times the same batch.

Every pass flies one *fault draw* of the batch.  Draw 0 is the CLI batch
itself; draw ``d > 0`` gives each injection spec a new activation time
(uniform in the campaign's window) and bit-flip seed, drawn from
``default_rng((d, position))``.  Missions and environments never change:
changing their seeds changes what a pass costs -- on ``late_sweep`` mission
seeds 1-5 ran at 8.0 to 39.8 specs/s -- so runs on different seeds could not
be compared.  Which draws a run flies is decided in ``run.py``.

Import this module only after ``repro.pipeline`` (see ``run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

import numpy as np

from repro.core import knobs
from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.executor import RunSpec

#: Presets flown by ``scenario_pool``: every environment family, wind, sensor
#: degradation and a multi-waypoint route.
POOL_PRESETS = (
    "gusty-dense",
    "foggy-factory",
    "windy-forest",
    "canyon-crosswind",
    "patrol-farm",
    "shaky-sparse",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how many workers it dispatches to and its specs."""

    name: str
    #: 1 dispatches through ``SerialExecutor``, more through ``ParallelExecutor``.
    workers: int
    #: Whether set-up trains the GAD/AAD detectors.
    detectors: bool
    build: Callable[[], Tuple[Campaign, List[RunSpec]]]
    #: Vetted fault draws kept in expected.json, and how far apart in that
    #: cyclic list consecutive workload seeds start (about one run's passes).
    draws: int
    stride: int


def _paper_eval() -> Tuple[Campaign, List[RunSpec]]:
    # The CLI defaults of `repro campaign`: Sparse, 15 mission seeds, 12
    # injections per stage, (2, 9) s window, 120 s limit, 6 training envs.
    # The only workload with detectors and recovery.
    campaign = Campaign(CampaignConfig(environment="sparse"))
    return campaign, campaign.evaluation_specs()


def _late_sweep() -> Tuple[Campaign, List[RunSpec]]:
    # The shape of repro.bench.campaign.campaign_workload(): forks serve most
    # prefix time and RRT planning dominates; detection is bypassed.
    campaign = Campaign(
        CampaignConfig(
            environment="factory",
            num_golden=2,
            num_injections_per_stage=12,
            injection_window=(10.0, 15.0),
            mission_time_limit=60.0,
        )
    )
    specs = campaign.golden_specs() + campaign.stage_injection_specs(RunSetting.INJECTION)
    return campaign, specs


def _scenario_pool() -> Tuple[Campaign, List[RunSpec]]:
    # What `repro campaign --scenario a,b,... --settings golden,injection`
    # builds: one campaign per preset, specs concatenated.  The only workload
    # dispatched through the process pool.
    base = CampaignConfig(
        num_golden=2,
        num_injections_per_stage=2,
        injection_window=(2.0, 9.0),
        mission_time_limit=60.0,
    )
    specs: List[RunSpec] = []
    for name in POOL_PRESETS:
        preset = Campaign(replace(base, scenario=name))
        specs += preset.golden_specs() + preset.stage_injection_specs(RunSetting.INJECTION)
    return Campaign(base), specs


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_eval",
            workers=1,
            detectors=True,
            build=_paper_eval,
            draws=8,
            stride=2,
        ),
        Workload(
            name="late_sweep",
            workers=1,
            detectors=False,
            build=_late_sweep,
            draws=20,
            stride=5,
        ),
        Workload(
            name="scenario_pool",
            workers=2,
            detectors=False,
            build=_scenario_pool,
            draws=12,
            stride=3,
        ),
    )
}


def build(workload: Workload) -> Tuple[Campaign, List[RunSpec]]:
    """The workload's campaign and its CLI spec batch."""
    with knobs.temporary({"MAVFI_RUNS": "1.0"}):
        return workload.build()


def fault_draw(specs: List[RunSpec], draw: int) -> List[RunSpec]:
    """Fault draw ``draw`` of a workload's CLI batch (draw 0 is the batch)."""
    if draw == 0:
        return specs
    redrawn = []
    for position, spec in enumerate(specs):
        plan = spec.fault_plan
        if plan is not None:
            rng = np.random.default_rng((draw, position))
            plan = replace(
                plan,
                injection_time=float(rng.uniform(*spec.config.injection_window)),
                seed=int(rng.integers(2**31)),
            )
        redrawn.append(replace(spec, fault_plan=plan))
    return redrawn
