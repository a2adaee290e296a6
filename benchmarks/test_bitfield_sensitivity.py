"""Ablation (Section III-B): sensitivity to the corrupted bit field.

The paper observes that faults in the sign and exponent fields of float64
values have a far greater impact on the UAV than mantissa faults -- the
insight behind monitoring only the sign and exponent bits in the detectors.
This ablation injects single-bit faults restricted to each field into the
planning stage and compares the resulting QoF degradation.
"""

import pytest

from repro.analysis.report import build_report
from repro.analysis.reporting import format_table
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.fault import BitField

from conftest import CACHE_DIR, fly, groups, print_artifact

FIELDS = (BitField.MANTISSA, BitField.EXPONENT, BitField.SIGN)


def _run_ablation(detectors, shard):
    config = CampaignConfig(
        environment="sparse",
        num_golden=6,
        num_injections_per_stage=6,
        detector_cache_dir=CACHE_DIR,
    )
    campaign = Campaign(config, gad=detectors.gad, aad=detectors.aad)
    specs = campaign.golden_specs()
    for field in FIELDS:
        specs += campaign.stage_injection_specs(
            f"fi_{field.value}", stages=("planning", "control"), bit_field=field
        )
    fly(campaign, specs, shard)
    cells = groups(build_report([shard]))
    qof = {"golden": cells[("sparse", "golden")]["qof"]}
    for field in FIELDS:
        qof[field.value] = cells[("sparse", f"fi_{field.value}")]["qof"]
    return qof


def test_bitfield_sensitivity(benchmark, detectors, tmp_path):
    qof = benchmark.pedantic(
        _run_ablation, args=(detectors, tmp_path / "ablation.jsonl"), rounds=1, iterations=1
    )

    rows = [
        [
            label,
            f"{summary['success_rate'] * 100:.0f}%",
            f"{summary['mean_flight_time']:.1f}",
            f"{summary['worst_flight_time']:.1f}",
        ]
        for label, summary in qof.items()
    ]
    body = format_table(
        ["Bit field", "Success rate", "Mean flight time [s]", "Worst flight time [s]"],
        rows,
        title="Bit-field sensitivity of planning/control faults (Sparse)",
    )
    print_artifact("Ablation: sign/exponent vs mantissa sensitivity", body)

    # Mantissa faults must stay close to golden in mean flight time.
    assert qof["mantissa"]["mean_flight_time"] <= qof["golden"]["mean_flight_time"] * 1.2
    # Sign/exponent faults are allowed (and expected) to degrade the worst case
    # at least as much as mantissa faults do.
    worst_mantissa = qof["mantissa"]["worst_flight_time"]
    worst_signexp = max(qof["sign"]["worst_flight_time"], qof["exponent"]["worst_flight_time"])
    assert worst_signexp >= worst_mantissa * 0.9


@pytest.mark.smoke
def test_bitfield_smoke(smoke_campaign, tmp_path):
    """Field-restricted injection path: one mantissa and one sign fault."""
    shard = tmp_path / "ablation-smoke.jsonl"
    for bit_field in (BitField.MANTISSA, BitField.SIGN):
        specs = smoke_campaign.stage_injection_specs(
            f"fi_{bit_field.value}",
            stages=("planning",),
            count_per_stage=1,
            bit_field=bit_field,
        )
        records = fly(smoke_campaign, specs, shard)
        assert len(records) == 1
        assert records[0].fault_target == "planning"
    cells = groups(build_report([shard]))
    assert cells[("farm", "fi_mantissa")]["qof"]["num_runs"] == 1
