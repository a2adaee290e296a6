#!/usr/bin/env python3
"""Fault-injection study: how single-bit flips in each PPC stage affect the UAV.

This example reproduces a miniature version of the paper's Section III
analysis: it flies golden runs in one environment, then injects one single-bit
fault per mission into each PPC stage (perception, planning, control) and into
each monitored inter-kernel state, and reports the resulting quality-of-flight
degradation.

All missions dispatch through the campaign execution engine; set
``MAVFI_WORKERS`` (or pass a third argument) to fan them out over worker
processes.  Run with::

    python examples/fault_injection_study.py [environment] [runs_per_target] [workers]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis.report import build_report
from repro.analysis.reporting import format_distribution_table, format_table
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import get_executor
from repro.core.results import JsonlResultStore
from repro.pipeline.states import MONITORED_FEATURES
from repro.topics import PPC_STAGES

STATES = MONITORED_FEATURES[:6]


def main() -> None:
    environment = sys.argv[1] if len(sys.argv) > 1 else "sparse"
    runs_per_target = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    workers = int(sys.argv[3]) if len(sys.argv) > 3 else None

    campaign = Campaign(
        CampaignConfig(
            environment=environment,
            num_golden=runs_per_target,
            num_injections_per_stage=runs_per_target,
        ),
        executor=get_executor(workers),
    )
    # One setting per PPC stage, so the report keeps the stages apart.
    specs = campaign.golden_specs()
    for stage in PPC_STAGES:
        specs += campaign.stage_injection_specs(f"injection:{stage}", stages=(stage,))
    specs += campaign.state_injection_specs(STATES)

    print(f"Flying {len(specs)} missions in '{environment}': golden runs, one "
          f"single-bit fault per mission into each PPC stage and into "
          f"{len(STATES)} inter-kernel states...")
    with tempfile.TemporaryDirectory() as tmp:
        shard = Path(tmp) / f"{environment}.jsonl"
        records = campaign.run_specs(specs, store=JsonlResultStore(shard))
        groups = {group["setting"]: group for group in build_report([shard])["groups"]}

    golden = groups["golden"]["qof"]
    print(f"  golden: success rate {golden['success_rate'] * 100:.0f}%, "
          f"flight time {golden['mean_flight_time']:.1f} s "
          f"(worst {golden['worst_flight_time']:.1f} s)")

    stage_rows = []
    for stage in PPC_STAGES:
        qof = groups[f"injection:{stage}"]["qof"]
        stage_rows.append(
            [
                stage,
                f"{qof['success_rate'] * 100:.0f}%",
                f"{qof['mean_flight_time']:.1f}",
                f"{qof['worst_flight_time']:.1f}",
            ]
        )
    print(format_table(
        ["Stage", "Success rate", "Mean flight time [s]", "Worst flight time [s]"],
        stage_rows,
        title="\nPer-stage fault injection (cf. Fig. 3)",
    ))

    distributions = [("golden", groups["golden"]["flight_time_distribution"])]
    distributions += [
        (state, groups[f"state:{state}"]["flight_time_distribution"]) for state in STATES
    ]
    print(format_distribution_table(
        distributions, title="\nFlight time per corrupted state (cf. Fig. 4)"
    ))

    print("\nExample fault descriptions:")
    described = [
        r for r in records if r.setting.startswith("injection:") and r.fault_description
    ]
    for record in described[:6]:
        print(f"  [{record.fault_target:<10s}] {record.fault_description}")


if __name__ == "__main__":
    main()
