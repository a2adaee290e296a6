"""Scenario-sweep workload: QoF across the flight-scenario catalog.

The paper evaluates four still-air environments with one fixed mission; the
scenario subsystem multiplies that workload space with wind, sensor
degradation, multi-waypoint missions and two extra environment families.
This benchmark sweeps the preset catalog and reports the per-scenario QoF,
plus (in the smoke case) re-verifies the engine's serial-vs-parallel
bit-identity contract under the most hostile scenario axes.
"""

import pytest

from repro.analysis.report import build_report
from repro.analysis.reporting import format_table
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.scenarios import get_scenario, scenario_names

from conftest import fly, groups, print_artifact

#: Scenarios exercised by the CI smoke job: one per axis (waypoints, wind +
#: degradation + waypoints, heavy sensor degradation), all on fast Farm maps.
SMOKE_SCENARIOS = ("patrol-farm", "blind-farm")


def _campaign(num_golden, scenario=None):
    config = CampaignConfig(
        environment="farm",
        scenario=scenario,
        num_golden=num_golden,
        mission_time_limit=90.0,
    )
    return Campaign(config)


def _scenario_qof(shard, names):
    """Each scenario's QoF numbers from the report of ``shard``."""
    cells = groups(build_report([shard]))
    return {
        name: cells[(get_scenario(name).environment, f"scenario:{name}")]["qof"]
        for name in names
    }


@pytest.mark.smoke
def test_smoke_scenario_sweep_bit_identical(tmp_path):
    """A 2-worker scenario sweep matches the serial sweep bit for bit."""
    campaign = _campaign(num_golden=2)
    specs = campaign.scenario_sweep_specs(SMOKE_SCENARIOS)
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    fly(campaign, specs, serial, executor=SerialExecutor())
    fly(campaign, specs, parallel, executor=ParallelExecutor(workers=2))
    serial_lines = serial.read_text().splitlines()
    assert len(serial_lines) == len(specs)
    assert sorted(serial_lines) == sorted(parallel.read_text().splitlines())
    qof = _scenario_qof(serial, SMOKE_SCENARIOS)
    rows = [
        [
            name,
            summary["num_runs"],
            f"{summary['success_rate'] * 100:.0f}%",
            f"{summary['mean_flight_time']:.1f}",
        ]
        for name, summary in qof.items()
    ]
    print_artifact(
        "Scenario sweep smoke: serial == 2-worker parallel",
        format_table(["Scenario", "Runs", "Success", "Mean flight [s]"], rows),
    )


def test_full_scenario_catalog_sweep(campaign_executor, tmp_path):
    """Sweep every registered scenario and report the QoF per scenario."""
    campaign = _campaign(num_golden=4)
    shard = tmp_path / "catalog.jsonl"
    fly(campaign, campaign.scenario_sweep_specs(scenario_names()), shard, executor=campaign_executor)
    qof = _scenario_qof(shard, sorted(scenario_names()))
    rows = []
    for name, summary in qof.items():
        # Mark rows whose statistics describe failed runs (no success).
        mark = "*" if summary["fell_back_to_failures"] else ""
        rows.append(
            [
                name,
                get_scenario(name).environment,
                summary["num_runs"],
                f"{summary['success_rate'] * 100:.0f}%",
                f"{summary['mean_flight_time']:.1f}{mark}",
                f"{summary['mean_energy'] / 1000:.1f}{mark}",
            ]
        )
    body = format_table(
        [
            "Scenario",
            "Environment",
            "Runs",
            "Success",
            "Mean flight [s]",
            "Mean energy [kJ]",
        ],
        rows,
    )
    if any(summary["fell_back_to_failures"] for summary in qof.values()):
        body += "\n(* statistics over failed runs: no mission of that scenario succeeded)"
    print_artifact("Scenario catalog sweep: QoF per preset", body)
    # The calm baseline scenario must stay reliable; hostile scenarios are
    # allowed to fail missions but must all have produced records.
    assert qof["calm-sparse"]["success_rate"] >= 0.75
    assert all(summary["num_runs"] == 4 for summary in qof.values())
