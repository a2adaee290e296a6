"""Fig. 4: end-to-end fault tolerance of the inter-kernel states.

The paper corrupts each monitored inter-kernel state (time_to_collision,
future_collision_seq, the planned way-point coordinates/yaw/velocities and the
flight-command velocities) with a single bit flip and reports flight time and
success rate per state in the Sparse environment.

Expected shape: ``future_collision_seq`` is much more robust than
``time_to_collision``; corrupted way-point coordinates and velocities produce
the widest flight-time ranges.
"""

import pytest

from repro.analysis.report import build_report
from repro.analysis.reporting import format_distribution_table, format_table
from repro.pipeline.states import MONITORED_FEATURES

from conftest import fly, groups, print_artifact


def _run_fig4(campaign, states, shard, golden=True, **counts):
    """Per-state injections (plus golden runs) flown to ``shard``: the flown
    records and the report groups as ``[(label, group)]``."""
    specs = campaign.golden_specs() if golden else []
    specs += campaign.state_injection_specs(states, **counts)
    records = fly(campaign, specs, shard)
    cells = groups(build_report([shard]))
    env = campaign.config.environment
    rows = [("Golden", cells[(env, "golden")])] if golden else []
    rows += [(state, cells[(env, f"state:{state}")]) for state in states]
    return records, rows


def _distributions(rows):
    return [(label, group["flight_time_distribution"]) for label, group in rows]


def test_fig4_interkernel_state_fault_tolerance(benchmark, sparse_campaign, tmp_path):
    _, rows = benchmark.pedantic(
        _run_fig4,
        args=(sparse_campaign, MONITORED_FEATURES, tmp_path / "fig4.jsonl"),
        rounds=1,
        iterations=1,
    )

    success_rows = [
        [label, f"{group['qof']['success_rate'] * 100:.1f}%"] for label, group in rows
    ]
    body = format_distribution_table(
        _distributions(rows),
        title="Fig. 4: flight time with corrupted inter-kernel states (Sparse)",
    )
    body += "\n\n" + format_table(
        ["Inter-kernel state", "Success rate"],
        success_rows,
        title="Fig. 4: task success rate per corrupted state",
    )
    print_artifact("Fig. 4: error propagation across PPC stages", body)

    # Every state was exercised and the golden baseline is healthy.
    assert [label for label, _ in rows[1:]] == list(MONITORED_FEATURES)
    assert all(group["qof"]["num_runs"] > 0 for _, group in rows)
    assert rows[0][1]["qof"]["success_rate"] >= 0.8


@pytest.mark.smoke
def test_fig4_smoke(smoke_campaign, tmp_path):
    """Per-state characterisation path on two states of the smoke campaign."""
    states = list(MONITORED_FEATURES[:2])
    records, rows = _run_fig4(
        smoke_campaign, states, tmp_path / "fig4-smoke.jsonl", golden=False, count_per_state=1
    )
    body = format_distribution_table(
        _distributions(rows), title="Fig. 4 (smoke): corrupted inter-kernel states (Farm)"
    )
    for state in states:
        assert state in body
    assert [r.fault_target for r in records] == states
