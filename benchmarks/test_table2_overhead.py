"""Table II: compute-time overhead of detection and recovery.

The paper reports, per environment, the detection (DET) and recovery (RECOV)
compute-time overhead of each PPC stage for the Gaussian scheme, and a single
"PPC" row for the autoencoder scheme.  Expected shape: the Gaussian scheme's
total overhead is on the order of a few percent (dominated by perception and
planning recomputation), while the autoencoder's total overhead is orders of
magnitude smaller (well below 0.1%), because its recovery recomputes only the
cheap control stage.
"""

import pytest

from repro.analysis.report import render_report
from repro.analysis.reporting import format_overhead_table
from repro.core.campaign import RunSetting
from repro.core.overhead import OverheadReport
from repro.sim.environments import ENVIRONMENT_NAMES

from conftest import groups, print_artifact


def _collect_overheads(report, environments):
    cells = groups(report)

    def overhead(env, setting):
        return OverheadReport.from_dict(cells[(env, setting)]["overhead"], env)

    gaussian = {env: overhead(env, RunSetting.DR_GAUSSIAN) for env in environments}
    autoencoder = {env: overhead(env, RunSetting.DR_AUTOENCODER) for env in environments}
    return gaussian, autoencoder


def _blocks(reports, detector):
    return [(f"[{env}] detector={detector}", report) for env, report in reports.items()]


def test_table2_detection_recovery_overhead(benchmark, full_report):
    gaussian, autoencoder = benchmark.pedantic(
        _collect_overheads, args=(full_report, ENVIRONMENT_NAMES), rounds=1, iterations=1
    )

    body = format_overhead_table(
        _blocks(gaussian, "gad"),
        title="Table II (Gaussian-based): DET / RECOV overhead per stage",
    )
    body += "\n\n" + format_overhead_table(
        _blocks(autoencoder, "aad"),
        title="Table II (Autoencoder-based): DET / RECOV overhead",
    )
    print_artifact("Table II: compute time overhead of detection and recovery", body)

    # `repro report` prints the very same rows for each D&R cell.
    rendered = render_report(full_report)
    for setting, reports in (
        (RunSetting.DR_GAUSSIAN, gaussian),
        (RunSetting.DR_AUTOENCODER, autoencoder),
    ):
        for env, report in reports.items():
            block = [f"[{env}] {setting}", *("  " + row for row in report.rows())]
            assert "\n".join(block) in rendered

    for env in ENVIRONMENT_NAMES:
        # The autoencoder scheme must be far cheaper than the Gaussian scheme
        # (paper: <= 0.0062% versus ~2%).
        assert autoencoder[env].total_overhead < 0.005
        assert autoencoder[env].total_overhead < gaussian[env].total_overhead
        # Gaussian detection itself is cheap; its cost is recovery.
        gad_detection = sum(gaussian[env].detection_fraction.values())
        gad_recovery = sum(gaussian[env].recovery_fraction.values())
        assert gad_detection < 0.001
        if gad_recovery > 0:
            assert gad_recovery > gad_detection


@pytest.mark.smoke
def test_table2_smoke(smoke_report):
    """Overhead accounting path on the miniature Farm campaign."""
    gaussian, autoencoder = _collect_overheads(smoke_report, ["farm"])
    body = format_overhead_table(
        _blocks(gaussian, "gad"),
        title="Table II (smoke, Gaussian): DET / RECOV overhead",
    )
    assert "farm" in body
    assert gaussian["farm"].total_overhead >= 0
    assert autoencoder["farm"].total_overhead >= 0
