"""Fig. 6: flight-time distributions for golden, FI, D&R(G) and D&R(A).

The paper shows box plots of the flight time of all successful runs per
environment and setting.  Expected shape: fault injection widens the
distribution and stretches the worst case; both D&R schemes pull the worst
case back towards the golden runs, with the autoencoder recovering at least as
much as the Gaussian scheme.
"""

import pytest

from repro.analysis.reporting import format_distribution_table, format_percent, format_table
from repro.core.campaign import RunSetting
from repro.core.qof import worst_case_increase
from repro.sim.environments import ENVIRONMENT_NAMES

from conftest import campaign_settings, groups, print_artifact, recovery, summary


def _collect_distributions(report, environments):
    cells = groups(report)
    return {
        env: [
            (label, cells[(env, setting)]["flight_time_distribution"])
            for setting, label in campaign_settings().items()
        ]
        for env in environments
    }


def test_fig6_flight_time_distributions(benchmark, full_report):
    distributions = benchmark.pedantic(
        _collect_distributions, args=(full_report, ENVIRONMENT_NAMES), rounds=1, iterations=1
    )

    body_parts = []
    for env in ENVIRONMENT_NAMES:
        body_parts.append(
            format_distribution_table(
                distributions[env],
                title=f"Fig. 6 ({env}): flight time of successful runs [s]",
            )
        )

    cells = groups(full_report)
    rows = recovery(full_report)
    recovery_rows = []
    for env in ENVIRONMENT_NAMES:
        golden = summary(cells[(env, RunSetting.GOLDEN)])
        injection = summary(cells[(env, RunSetting.INJECTION)])
        recovery_rows.append(
            [
                env,
                f"{worst_case_increase(golden, injection) * 100:+.1f}%",
                *(
                    format_percent(rows[(env, setting)]["worst_case_recovery"])
                    for setting in (RunSetting.DR_GAUSSIAN, RunSetting.DR_AUTOENCODER)
                ),
            ]
        )
    body_parts.append(
        format_table(
            ["Environment", "FI worst-case increase", "GAD recovery", "AAD recovery"],
            recovery_rows,
            title="Worst-case flight-time degradation and recovery",
        )
    )
    print_artifact("Fig. 6: flight time distributions", "\n\n".join(body_parts))

    for env in ENVIRONMENT_NAMES:
        golden = cells[(env, RunSetting.GOLDEN)]["qof"]
        aad = cells[(env, RunSetting.DR_AUTOENCODER)]["qof"]
        # With D&R the mean flight time stays close to golden.
        assert aad["mean_flight_time"] <= golden["mean_flight_time"] * 1.3


@pytest.mark.smoke
def test_fig6_smoke(smoke_report):
    """Flight-time distribution path on the miniature Farm campaign."""
    [(_, distributions)] = _collect_distributions(smoke_report, ["farm"]).items()
    body = format_distribution_table(
        distributions, title="Fig. 6 (smoke): flight time of successful runs (Farm)"
    )
    for label in campaign_settings().values():
        assert label in body
    # None is an empty sample: no golden run succeeded.
    assert dict(distributions)["Golden Run"] is not None
