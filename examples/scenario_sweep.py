#!/usr/bin/env python3
"""Scenario sweep: the same fault-tolerant pipeline across diverse conditions.

The paper evaluates four still-air environments with one fixed mission; the
scenario subsystem widens the workload space along four axes (environment
family, wind, sensor degradation, mission shape).  This example sweeps the
preset catalog -- error-free missions per scenario -- and reports the
quality-of-flight per preset, then shows how to define and fly a custom
scenario.

Run with::

    python examples/scenario_sweep.py [runs-per-scenario] [workers]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis.report import build_report
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import get_executor
from repro.core.results import JsonlResultStore
from repro.scenarios import (
    MissionPlan,
    Scenario,
    get_scenario,
    scenario_names,
)
from repro.sim.degradation import SensorDegradationConfig
from repro.sim.wind import WindConfig


def main() -> int:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    campaign = Campaign(
        CampaignConfig(environment="farm", num_golden=runs, mission_time_limit=90.0),
        executor=get_executor(workers),
    )
    # A custom scenario is just a frozen dataclass -- compose the axes freely.
    custom = Scenario(
        name="demo-breezy-patrol",
        environment="farm",
        wind=WindConfig(mean=(0.5, 0.5, 0.0), gust_intensity=0.8),
        sensors=SensorDegradationConfig(depth_dropout=0.02),
        mission=MissionPlan(waypoints=((20.0, 12.0, 2.0),)),
    )

    print(f"sweeping {len(scenario_names())} preset scenarios and {custom.name!r}, "
          f"{runs} runs each")
    with tempfile.TemporaryDirectory() as tmp:
        shard = Path(tmp) / "sweep.jsonl"
        specs = campaign.scenario_sweep_specs([*scenario_names(), custom])
        campaign.run_specs(specs, store=JsonlResultStore(shard))
        report = build_report([shard])
    qof = {group["scenario"]: group["qof"] for group in report["groups"]}

    print(f"{'Scenario':<22s} {'Env':<13s} {'Success':>8s} {'Mean flight':>12s}")
    for name in sorted(scenario_names()):
        summary = qof[name]
        flight = (
            f"{summary['mean_flight_time']:9.1f} s"
            + ("*" if summary["fell_back_to_failures"] else " ")
        )
        print(
            f"{name:<22s} {get_scenario(name).environment:<13s} "
            f"{summary['success_rate'] * 100:7.0f}% {flight:>12s}"
        )
    print("(* flight-time statistics over failed runs: no mission succeeded)")

    summary = qof[custom.name]
    print(
        f"\ncustom scenario {custom.name!r}: "
        f"{summary['success_rate'] * 100:.0f}% success, "
        f"mean flight {summary['mean_flight_time']:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
