"""Fig. 9: computing-platform comparison (i9-9940X versus TX2 / Cortex-A57).

The paper runs the same fault-injection and recovery experiments on a desktop
i9 and an embedded TX2 companion computer.  The spec table (cores, frequency,
power) is reproduced together with the measured flight time / energy on each
platform, and with the flight-time recovery achieved by the two D&R schemes on
the TX2.  Expected shape: the TX2 flies the same mission more slowly and with
a larger worst-case flight time under faults, the error trend is the same on
both platforms, and both D&R schemes recover most of the degradation.
"""

import pytest

from repro.analysis.report import build_report
from repro.analysis.reporting import format_percent, format_table
from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.platforms.compute import get_platform

from conftest import CACHE_DIR, fly, groups, print_artifact, recovery

PLATFORMS = ("i9", "tx2")


def _run_platform(platform, detectors, shard, num_golden=6, per_stage=4):
    config = CampaignConfig(
        environment="sparse",
        platform=platform,
        num_golden=num_golden,
        num_injections_per_stage=per_stage,
        mission_time_limit=200.0,
        detector_cache_dir=CACHE_DIR,
    )
    campaign = Campaign(config, gad=detectors.gad, aad=detectors.aad)
    fly(campaign, campaign.evaluation_specs(), shard)
    return build_report([shard])


def _run_fig9(detectors, shard_dir):
    # Both platforms fly the same (setting, scenario, environment) cells, so
    # each needs its own shard to stay apart in the report.
    return {
        name: _run_platform(name, detectors, shard_dir / f"fig9-{name}.jsonl")
        for name in PLATFORMS
    }


def test_fig9_platform_comparison(benchmark, detectors, tmp_path):
    reports = benchmark.pedantic(
        _run_fig9, args=(detectors, tmp_path), rounds=1, iterations=1
    )
    qof = {
        name: {setting: group["qof"] for (_, setting), group in groups(report).items()}
        for name, report in reports.items()
    }

    spec_rows = []
    for name in PLATFORMS:
        platform = get_platform(name)
        golden = qof[name][RunSetting.GOLDEN]
        spec_rows.append(
            [
                platform.name,
                platform.core_count,
                f"{platform.core_frequency_ghz:.1f}",
                f"{platform.compute_power_w:.0f}",
                f"{golden['mean_flight_time']:.1f}",
                f"{golden['mean_energy'] / 1000:.1f}",
            ]
        )
    body = format_table(
        ["Platform", "Cores", "Freq [GHz]", "Power [W]", "Flight time [s]", "Flight energy [kJ]"],
        spec_rows,
        title="Fig. 9: platform specification and golden-run QoF",
    )

    qof_rows = []
    for name in PLATFORMS:
        rows = recovery(reports[name])
        qof_rows.append(
            [
                name,
                f"{qof[name][RunSetting.GOLDEN]['worst_flight_time']:.1f}",
                f"{qof[name][RunSetting.INJECTION]['worst_flight_time']:.1f}",
                *(
                    format_percent(rows[("sparse", setting)]["worst_case_recovery"])
                    for setting in (RunSetting.DR_GAUSSIAN, RunSetting.DR_AUTOENCODER)
                ),
            ]
        )
    body += "\n\n" + format_table(
        ["Platform", "Golden worst [s]", "FI worst [s]", "GAD recovery", "AAD recovery"],
        qof_rows,
        title="Fig. 9: fault impact and recovery per platform (Sparse)",
    )
    print_artifact("Fig. 9: computing platform comparison", body)

    i9_golden = qof["i9"][RunSetting.GOLDEN]
    tx2_golden = qof["tx2"][RunSetting.GOLDEN]
    # The edge platform flies the same mission substantially more slowly.
    assert tx2_golden["mean_flight_time"] > i9_golden["mean_flight_time"] * 1.3
    assert tx2_golden["success_rate"] >= 0.5


@pytest.mark.smoke
def test_fig9_smoke(campaign_executor, tmp_path):
    """Platform comparison path: one golden Farm flight per platform."""
    golden = {}
    for name in PLATFORMS:
        config = CampaignConfig(
            environment="farm", platform=name, num_golden=1, mission_time_limit=120.0
        )
        campaign = Campaign(config, executor=campaign_executor)
        shard = tmp_path / f"fig9-{name}.jsonl"
        fly(campaign, campaign.golden_specs(), shard)
        golden[name] = groups(build_report([shard]))[("farm", RunSetting.GOLDEN)]["qof"]
    assert golden["i9"]["num_success"] == golden["tx2"]["num_success"] == 1
    # The edge platform flies the same mission more slowly.
    assert golden["tx2"]["mean_flight_time"] > golden["i9"]["mean_flight_time"]
    assert get_platform("tx2").compute_power_w < get_platform("i9").compute_power_w
