#!/usr/bin/env python3
"""Anomaly detection and recovery: protect the pipeline against SDCs.

This example reproduces the paper's Section IV/VI story end to end:

1. train the Gaussian-based (GAD) and autoencoder-based (AAD) detectors on
   error-free missions in randomized environments,
2. fly fault-injection missions with no protection, with GAD and with AAD,
   streaming them to a JSONL shard,
3. report success rate, flight time and the detection/recovery compute
   overhead of both schemes (cf. Table I, Fig. 6 and Table II) from the
   shard's report, as ``python -m repro report`` does.

Run with::

    python examples/anomaly_detection_recovery.py [environment] [runs_per_stage]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis.report import build_report
from repro.analysis.reporting import (
    format_distribution_table,
    format_overhead_table,
    format_percent,
    format_table,
)
from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.overhead import OverheadReport
from repro.core.results import JsonlResultStore
from repro.detection.training import train_detectors


def main() -> None:
    environment = sys.argv[1] if len(sys.argv) > 1 else "dense"
    runs_per_stage = int(sys.argv[2]) if len(sys.argv) > 2 else 5

    print("Training the detectors on error-free randomized environments...")
    training = train_detectors(num_environments=4)
    print(f"  {training.num_samples} training samples, "
          f"autoencoder threshold {training.aad.threshold:.2f}")

    campaign = Campaign(
        CampaignConfig(
            environment=environment,
            num_golden=runs_per_stage * 2,
            num_injections_per_stage=runs_per_stage,
        ),
        gad=training.gad,
        aad=training.aad,
    )

    print(f"Running the evaluation campaign in '{environment}' "
          f"(golden + FI + D&R(G) + D&R(A))...")
    with tempfile.TemporaryDirectory() as tmp:
        shard = Path(tmp) / f"{environment}.jsonl"
        campaign.run_specs(campaign.evaluation_specs(), store=JsonlResultStore(shard))
        report = build_report([shard])
    groups = {group["setting"]: group for group in report["groups"]}
    recovery = {row["setting"]: row for row in report["recovery"]}

    labels = {
        RunSetting.GOLDEN: "Golden Run",
        RunSetting.INJECTION: "Injection Run",
        RunSetting.DR_GAUSSIAN: "Gaussian-based",
        RunSetting.DR_AUTOENCODER: "Autoencoder-based",
    }
    rows = []
    for setting, label in labels.items():
        qof = groups[setting]["qof"]
        rows.append(
            [
                label,
                f"{qof['success_rate'] * 100:.1f}%",
                f"{qof['mean_flight_time']:.1f}",
                f"{qof['worst_flight_time']:.1f}",
                f"{qof['mean_energy'] / 1000:.1f}",
            ]
        )
    print(format_table(
        ["Setting", "Success rate", "Mean flight [s]", "Worst flight [s]", "Energy [kJ]"],
        rows,
        title="\nQuality of flight per setting (cf. Table I / Fig. 6)",
    ))

    gad = recovery[RunSetting.DR_GAUSSIAN]
    aad = recovery[RunSetting.DR_AUTOENCODER]
    print("\nRecovery effectiveness")
    print(f"  failure cases recovered:   GAD {format_percent(gad['failure_recovery_rate'])}   "
          f"AAD {format_percent(aad['failure_recovery_rate'])}")
    print(f"  worst-case flight time:    GAD {format_percent(gad['worst_case_recovery'])}   "
          f"AAD {format_percent(aad['worst_case_recovery'])}")

    print(format_distribution_table(
        [(label, groups[s]["flight_time_distribution"]) for s, label in labels.items()],
        title="\nFlight time distributions (successful runs)",
    ))

    overheads = [
        (f"[{environment}] {labels[s]}", OverheadReport.from_dict(groups[s]["overhead"], environment))
        for s in (RunSetting.DR_GAUSSIAN, RunSetting.DR_AUTOENCODER)
        if groups[s]["overhead"] is not None
    ]
    print("\n" + format_overhead_table(overheads, title="Compute overhead (cf. Table II)"))


if __name__ == "__main__":
    main()
