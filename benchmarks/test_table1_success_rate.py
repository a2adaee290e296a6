"""Table I: flight success rate in the four evaluation environments.

For each environment (Factory, Farm, Sparse, Dense) the paper reports the
mission success rate of the Golden runs, the fault-injection runs and the two
detection-and-recovery schemes.  Expected shape: injections lower the success
rate (most in Dense), both D&R schemes recover most of the drop, and the
autoencoder recovers at least as much as the Gaussian scheme.
"""

import pytest

from repro.analysis.reporting import format_percent, format_success_rate_table, format_table
from repro.core.campaign import RunSetting
from repro.sim.environments import ENVIRONMENT_NAMES

from conftest import campaign_settings, groups, print_artifact, recovery


def _collect_success_rates(report, environments):
    cells = groups(report)
    return {
        setting: {env: cells[(env, setting)]["qof"]["success_rate"] for env in environments}
        for setting in campaign_settings()
    }


def test_table1_success_rate(benchmark, full_report):
    rates = benchmark.pedantic(
        _collect_success_rates,
        args=(full_report, ENVIRONMENT_NAMES),
        rounds=1,
        iterations=1,
    )

    body = format_success_rate_table(
        rates,
        environments=list(ENVIRONMENT_NAMES),
        settings=list(campaign_settings()),
        setting_labels=campaign_settings(),
        title="Table I: flight success rate in the 4 evaluation environments",
    )

    rows = recovery(full_report)
    recovery_rows = [
        [
            env,
            *(
                format_percent(rows[(env, setting)]["failure_recovery_rate"])
                for setting in (RunSetting.DR_GAUSSIAN, RunSetting.DR_AUTOENCODER)
            ),
        ]
        for env in ENVIRONMENT_NAMES
    ]
    body += "\n\n" + format_table(
        ["Environment", "Gaussian recovery", "Autoencoder recovery"],
        recovery_rows,
        title="Recovered fraction of fault-induced failure cases",
    )
    print_artifact("Table I: flight success rate", body)

    for env in ENVIRONMENT_NAMES:
        assert rates[RunSetting.GOLDEN][env] >= 0.8
        # D&R must never be (meaningfully) worse than plain fault injection.
        assert (
            rates[RunSetting.DR_AUTOENCODER][env] >= rates[RunSetting.INJECTION][env] - 0.1
        )


@pytest.mark.smoke
def test_table1_smoke(smoke_report):
    """Success-rate table path on the miniature Farm campaign."""
    settings = campaign_settings()
    rates = _collect_success_rates(smoke_report, ["farm"])
    body = format_success_rate_table(
        rates,
        environments=["farm"],
        settings=list(settings),
        setting_labels=settings,
        title="Table I (smoke): flight success rate (Farm)",
    )
    assert "farm" in body.lower()
    assert rates[RunSetting.GOLDEN]["farm"] >= 0.5
