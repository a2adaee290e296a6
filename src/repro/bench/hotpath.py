"""The hot-path benchmark: vectorized kernels vs their scalar references.

``python -m repro bench`` runs this module.  It times every vectorized
hot-path kernel against its scalar (point-by-point) reference on the fixed
seeded workload of :mod:`repro.bench.workloads` -- motion planning and depth
ray casting on its reference corpus recorded from golden missions -- and
writes the perf-trajectory artifact ``BENCH_hotpath.json`` (schema
``repro-bench-v1``, enforced by :func:`repro.bench.harness.validate_report`).
Per-layer wall time of whole campaigns comes from ``perfbench/run.py --trace
1`` instead.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.bench.harness import (
    BENCH_SCHEMA,
    DEFAULT_REPORT_NAME,
    host_fingerprint,
    kernel_entry,
    time_pair,
    write_report,
)
from repro.bench.scalar_ref import (
    ScalarCollisionChecker,
    ScalarOccupancyMap,
    scalar_plan,
    scalar_point_cloud,
    scalar_ray_cast,
)
from repro.bench.workloads import (
    HotpathWorkload,
    ReferenceCorpus,
    build_workload,
    record_corpus,
)
from repro.core import knobs
from repro.perception.collision_check import CollisionChecker
from repro.perception.occupancy import OccupancyMap
from repro.perception.point_cloud import PointCloudGenerator


def _bench_occupancy(workload: HotpathWorkload, repeats: int) -> Dict:
    """The occupancy-integration kernel: whole-cloud merges vs dict updates."""

    def run_vector() -> None:
        occupancy = OccupancyMap(resolution=1.0)
        for cloud in workload.clouds:
            occupancy.insert_point_cloud(cloud)

    def run_scalar() -> None:
        occupancy = ScalarOccupancyMap(resolution=1.0)
        for cloud in workload.clouds:
            occupancy.insert_point_cloud(cloud)

    calls = len(workload.clouds)
    return kernel_entry(
        *time_pair(run_vector, run_scalar, repeats, calls_per_run=calls)
    )


def _bench_point_cloud(workload: HotpathWorkload, repeats: int) -> Dict:
    """Depth-image back-projection: cached-meshgrid batch vs per-pixel loop."""
    generator = PointCloudGenerator()

    def run_vector() -> None:
        for frame in workload.depth_frames:
            generator.compute(frame)

    def run_scalar() -> None:
        for frame in workload.depth_frames:
            scalar_point_cloud(frame)

    calls = len(workload.depth_frames)
    return kernel_entry(
        # The per-pixel loop is orders of magnitude slower; one repeat keeps
        # the bench fast while still being a fair best-of measurement.
        *time_pair(run_vector, run_scalar, repeats, scalar_repeats=1, calls_per_run=calls)
    )


def _bench_collision(workload: HotpathWorkload, repeats: int) -> Dict:
    """Swept-path collision checks: KD-tree batches vs per-sample scans."""
    vector = CollisionChecker()
    vector.update_map(workload.occupied_centers, resolution=1.0)
    scalar = ScalarCollisionChecker()
    scalar.update_map(workload.occupied_centers, resolution=1.0)

    def run_vector() -> None:
        for pose in workload.query_poses:
            vector.time_to_collision(pose["position"], pose["velocity"])
            vector.trajectory_collides(pose["waypoints"], pose["position"])
            vector.distance_to_nearest(pose["position"])

    def run_scalar() -> None:
        for pose in workload.query_poses:
            scalar.time_to_collision(pose["position"], pose["velocity"])
            scalar.trajectory_collides(pose["waypoints"], pose["position"])
            scalar.distance_to_nearest(pose["position"])

    calls = len(workload.query_poses)
    return kernel_entry(
        *time_pair(run_vector, run_scalar, repeats, scalar_repeats=1, calls_per_run=calls)
    )


def _bench_motion_planning(corpus: ReferenceCorpus, repeats: int) -> Dict:
    """Recorded planning queries: batched validity queries vs one query per check."""
    cases = [(case.planner(), case.problem) for case in corpus.plans]

    def run_vector() -> None:
        for planner, problem in cases:
            planner.plan(problem)

    def run_scalar() -> None:
        for planner, problem in cases:
            scalar_plan(planner, problem)

    calls = len(cases)
    return kernel_entry(
        *time_pair(run_vector, run_scalar, repeats, calls_per_run=calls)
    )


def _bench_depth_raycast(corpus: ReferenceCorpus, repeats: int) -> Dict:
    """Recorded depth-camera ray casts: per-axis slab planes vs one 3-wide broadcast."""
    cases = corpus.ray_casts

    def run_vector() -> None:
        for case in cases:
            case.world.ray_cast(case.origin, case.directions, case.max_range)

    def run_scalar() -> None:
        for case in cases:
            scalar_ray_cast(case.world, case.origin, case.directions, case.max_range)

    calls = len(cases)
    return kernel_entry(
        *time_pair(run_vector, run_scalar, repeats, calls_per_run=calls)
    )


def run_bench(
    smoke: bool = False,
    repeats: Optional[int] = None,
    out: Optional[Union[str, Path]] = None,
    seed: int = 0,
) -> Dict:
    """Run the full hot-path benchmark and write the report; returns it."""
    if repeats is None:
        repeats = 3 if smoke else 7
    workload = build_workload(smoke=smoke, seed=seed)
    corpus = record_corpus(missions=1 if smoke else 2)
    workload.description["reference_corpus"] = corpus.description
    kernels = {
        "occupancy_integration": _bench_occupancy(workload, repeats),
        "point_cloud_generation": _bench_point_cloud(workload, repeats),
        "collision_check": _bench_collision(workload, repeats),
        "motion_planning": _bench_motion_planning(corpus, repeats),
        "depth_raycast": _bench_depth_raycast(corpus, repeats),
    }
    report = {
        "schema": BENCH_SCHEMA,
        "created_unix": time.time(),
        "host": host_fingerprint(),
        "env": knobs.snapshot(("MAVFI_RUNS", "MAVFI_WORKERS")),
        "workload": workload.description,
        "repeats": repeats,
        "kernels": kernels,
    }
    path = Path(out) if out is not None else Path.cwd() / DEFAULT_REPORT_NAME
    write_report(report, path)
    return report


def format_bench_table(report: Dict) -> str:
    """Human-readable per-kernel summary of a bench report."""
    from repro.analysis.reporting import format_table

    rows = []
    for name, entry in report["kernels"].items():
        vector: Dict = entry["vector"]
        scalar: Optional[Dict] = entry.get("scalar")
        rows.append(
            [
                name,
                f"{vector['best_ms']:.2f}",
                f"{scalar['best_ms']:.2f}" if scalar else "-",
                f"{entry['speedup']:.1f}x" if scalar else "-",
                f"{vector['runs_per_sec']:.1f}",
            ]
        )
    return format_table(
        ["Kernel", "Vector [ms]", "Scalar [ms]", "Speedup", "Runs/s"],
        rows,
        title="Hot-path kernels (best of repeats, whole-workload runs)",
    )
