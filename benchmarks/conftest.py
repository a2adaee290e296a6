"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section.  Each one streams its campaign to a JSONL shard (:func:`fly`) and
reads every number from :func:`~repro.analysis.report.build_report` over that
shard -- the ``python -m repro report`` path.  The expensive artefacts
(Table I, Fig. 6, Table II) share a single four-environment campaign that is
flown once per benchmark session; the trained detectors are cached on disk
under ``benchmarks/.cache`` so repeated benchmark runs do not retrain them.

All campaigns dispatch through the campaign execution engine
(:mod:`repro.core.executor`): set ``MAVFI_WORKERS=8`` (or ``0`` for one worker
per CPU) to fan the missions out over worker processes.  Run counts scale with
the ``MAVFI_RUNS`` environment variable (1.0 by default); ``MAVFI_RUNS=8``
approaches the paper's 100-runs-per-cell campaigns.

Each benchmark file additionally exposes one fast case marked ``smoke``;
``pytest benchmarks -m smoke`` exercises every figure/table code path on a
miniature campaign in minutes, which is what the CI smoke job runs.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.analysis.report import build_report
from repro.bench import harness as bench_harness
from repro.core import knobs
from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.executor import DETECTOR_AUTOENCODER, DETECTOR_GAUSSIAN, get_executor
from repro.core.qof import QofSummary
from repro.core.results import JsonlResultStore
from repro.detection.training import train_detectors
from repro.sim.environments import ENVIRONMENT_NAMES

CACHE_DIR = Path(__file__).parent / ".cache"

#: Where regenerated figure/table text lands.  The default is the *untracked*
#: ``results/local/`` directory so benchmark runs never dirty the working
#: tree; the committed reference files live one level up in ``results/`` and
#: are refreshed deliberately by pointing ``REPRO_BENCH_RESULTS_DIR`` at it.
RESULTS_DIR = bench_harness.results_dir(Path(__file__).parent / "results" / "local")

#: Base (MAVFI_RUNS=1) run counts for the shared campaign.
BASE_GOLDEN_RUNS = 10
BASE_INJECTIONS_PER_STAGE = 6
TRAINING_ENVIRONMENTS = 4

#: Miniature (smoke) campaign counts -- small enough for CI, large enough to
#: exercise every setting and stage at least once.
SMOKE_GOLDEN_RUNS = 2
SMOKE_INJECTIONS_PER_STAGE = 1


def pytest_configure(config):
    """Register the ``smoke`` marker (also declared in ``pyproject.toml``)."""
    config.addinivalue_line(
        "markers", "smoke: fast benchmark subset exercised by the CI smoke job"
    )
    # Exercise real worker pools even on single-CPU hosts (see
    # tests/conftest.py); the committed BENCH_campaign.json artifact is
    # generated via the CLI, where the clamp stays active and parallel
    # dispatch never loses to serial.
    knobs.setdefault_env("MAVFI_OVERSUBSCRIBE", "1")


def print_artifact(title: str, body: str) -> None:
    """Print one regenerated table/figure and persist it under results/."""
    banner = "=" * 78
    text = f"\n{banner}\n{title}\n{banner}\n{body}\n"
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    slug = (
        title.lower()
        .split(":")[0]
        .replace(".", "")
        .replace(" ", "_")
        .strip("_")
    )
    (RESULTS_DIR / f"{slug}.txt").write_text(text)


def fly(campaign, specs, shard: Path, **kwargs):
    """Stream ``specs`` to the JSONL ``shard``; returns the flown records."""
    return campaign.run_specs(specs, store=JsonlResultStore(shard), **kwargs)


def groups(report) -> Dict[Tuple[str, str], Dict]:
    """A report's groups keyed by ``(environment, setting)``."""
    return {(group["environment"], group["setting"]): group for group in report["groups"]}


def recovery(report) -> Dict[Tuple[str, str], Dict]:
    """A report's recovery rows keyed by ``(environment, setting)``."""
    return {(row["environment"], row["setting"]): row for row in report["recovery"]}


def summary(group) -> QofSummary:
    """A report group's QoF numbers, for the :mod:`repro.core.qof` helpers."""
    qof = group["qof"]
    return QofSummary(**{f.name: qof[f.name] for f in dataclasses.fields(QofSummary)})


@pytest.fixture(scope="session")
def campaign_executor():
    """The session's campaign executor (serial unless ``MAVFI_WORKERS`` > 1)."""
    return get_executor()


@pytest.fixture(scope="session")
def detectors():
    """Trained GAD and AAD detectors (cached on disk between sessions)."""
    CACHE_DIR.mkdir(exist_ok=True)
    training = train_detectors(
        num_environments=TRAINING_ENVIRONMENTS, cache_dir=CACHE_DIR
    )
    return training


@pytest.fixture(scope="session")
def full_report(detectors, campaign_executor, tmp_path_factory):
    """The report of the Table I / Fig. 6 / Table II campaign: all four environments.

    For each environment: golden runs plus single-bit injections per PPC stage
    under three settings (FI, D&R(Gaussian), D&R(Autoencoder)), all streamed
    to one shard.
    """
    shard = tmp_path_factory.mktemp("full-campaign") / "full.jsonl"
    for env in ENVIRONMENT_NAMES:
        config = CampaignConfig(
            environment=env,
            num_golden=BASE_GOLDEN_RUNS,
            num_injections_per_stage=BASE_INJECTIONS_PER_STAGE,
            training_environments=TRAINING_ENVIRONMENTS,
            detector_cache_dir=CACHE_DIR,
        )
        campaign = Campaign(
            config, gad=detectors.gad, aad=detectors.aad, executor=campaign_executor
        )
        fly(campaign, campaign.evaluation_specs(), shard)
    return build_report([shard])


@pytest.fixture(scope="session")
def sparse_campaign(detectors, campaign_executor):
    """A campaign object bound to the Sparse environment (Fig. 3 / Fig. 4)."""
    config = CampaignConfig(
        environment="sparse",
        num_golden=BASE_GOLDEN_RUNS,
        num_injections_per_stage=BASE_INJECTIONS_PER_STAGE,
        training_environments=TRAINING_ENVIRONMENTS,
        detector_cache_dir=CACHE_DIR,
    )
    return Campaign(
        config, gad=detectors.gad, aad=detectors.aad, executor=campaign_executor
    )


@pytest.fixture(scope="session")
def smoke_campaign(detectors, campaign_executor):
    """A miniature Campaign (Farm) shared by the ``smoke`` benchmark cases."""
    config = CampaignConfig(
        environment="farm",
        num_golden=SMOKE_GOLDEN_RUNS,
        num_injections_per_stage=SMOKE_INJECTIONS_PER_STAGE,
        mission_time_limit=60.0,
        training_environments=TRAINING_ENVIRONMENTS,
        detector_cache_dir=CACHE_DIR,
    )
    return Campaign(
        config, gad=detectors.gad, aad=detectors.aad, executor=campaign_executor
    )


@pytest.fixture(scope="session")
def smoke_shard(smoke_campaign, tmp_path_factory):
    """The miniature campaign streamed to one shard.

    Golden + FI + both D&R settings, plus the detector-on-golden
    false-positive settings the report bundle needs.
    """
    shard = tmp_path_factory.mktemp("smoke-campaign") / "farm.jsonl"
    specs = smoke_campaign.evaluation_specs()
    specs += smoke_campaign.dr_golden_specs(DETECTOR_GAUSSIAN)
    specs += smoke_campaign.dr_golden_specs(DETECTOR_AUTOENCODER)
    fly(smoke_campaign, specs, shard)
    return shard


@pytest.fixture(scope="session")
def smoke_report(smoke_shard):
    """The report of the miniature campaign's shard."""
    return build_report([smoke_shard])


def campaign_settings():
    """The four evaluation settings with their paper labels."""
    return {
        RunSetting.GOLDEN: "Golden Run",
        RunSetting.INJECTION: "Injection Run",
        RunSetting.DR_GAUSSIAN: "Gaussian-based",
        RunSetting.DR_AUTOENCODER: "Autoencoder-based",
    }
