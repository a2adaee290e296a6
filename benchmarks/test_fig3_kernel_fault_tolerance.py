"""Fig. 3: application-aware, end-to-end fault tolerance per kernel.

The paper injects 100 single-bit faults into each PPC kernel (point cloud
generation, OctoMap, collision check, the RRT / RRTConnect / RRT* motion
planners and PID control) during navigation in the Sparse environment and
reports the flight-time distribution (Fig. 3a) and task success rate
(Fig. 3b) against the error-free Golden runs.

Expected shape: the perception kernels (P.C. Gen, OctoMap) are nearly
indistinguishable from Golden, whereas the planners and PID show wider
flight-time ranges and lower success rates.
"""

import pytest

from repro.analysis.report import build_report
from repro.analysis.reporting import format_distribution_table, format_table

from conftest import fly, groups, print_artifact

#: (paper label, kernel node name, planner used for the run).
KERNEL_SPECS = [
    ("P.C. Gen.", "point_cloud_generation", "rrt_star"),
    ("OctoMap", "octomap_generation", "rrt_star"),
    ("Col. Ck.", "collision_check", "rrt_star"),
    ("RRT", "motion_planner", "rrt"),
    ("RRTConnect", "motion_planner", "rrt_connect"),
    ("RRT*", "motion_planner", "rrt_star"),
    ("PID", "pid_control", "rrt_star"),
]


def _run_fig3(campaign, kernel_specs, shard, **counts):
    """Golden runs plus per-kernel injections, flown to ``shard``; its report groups
    as ``[(label, group)]`` with Golden first."""
    specs = campaign.golden_specs() + campaign.kernel_injection_specs(kernel_specs, **counts)
    fly(campaign, specs, shard)
    cells = groups(build_report([shard]))
    env = campaign.config.environment
    return [("Golden", cells[(env, "golden")])] + [
        (label, cells[(env, f"kernel:{label}")]) for label, _, _ in kernel_specs
    ]


def _distributions(rows):
    return [(label, group["flight_time_distribution"]) for label, group in rows]


def test_fig3_kernel_fault_tolerance(benchmark, sparse_campaign, tmp_path):
    rows = benchmark.pedantic(
        _run_fig3,
        args=(sparse_campaign, KERNEL_SPECS, tmp_path / "fig3.jsonl"),
        rounds=1,
        iterations=1,
    )

    success_rows = [
        [label, f"{group['qof']['success_rate'] * 100:.1f}%"] for label, group in rows
    ]
    body = format_distribution_table(
        _distributions(rows), title="Fig. 3a: flight time per fault-injected kernel (Sparse)"
    )
    body += "\n\n" + format_table(
        ["Kernel", "Success rate"], success_rows, title="Fig. 3b: flight success rate"
    )
    print_artifact("Fig. 3: end-to-end fault tolerance analysis per kernel", body)

    qof = {label: group["qof"] for label, group in rows}
    assert qof["Golden"]["success_rate"] >= 0.8
    # Perception kernels should remain close to Golden on average flight time.
    for label in ("P.C. Gen.", "OctoMap"):
        assert qof[label]["mean_flight_time"] <= qof["Golden"]["mean_flight_time"] * 1.3


@pytest.mark.smoke
def test_fig3_smoke(smoke_campaign, tmp_path):
    """Per-kernel characterisation path on one kernel of the smoke campaign."""
    rows = _run_fig3(
        smoke_campaign,
        [("OctoMap", "octomap_generation", "rrt_star")],
        tmp_path / "fig3-smoke.jsonl",
        count_per_kernel=1,
    )
    assert [label for label, _ in rows] == ["Golden", "OctoMap"]
    body = format_distribution_table(
        _distributions(rows), title="Fig. 3 (smoke): flight time per kernel (Farm)"
    )
    assert "OctoMap" in body
    assert rows[0][1]["qof"]["success_rate"] > 0
