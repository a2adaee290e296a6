"""The hot-path benchmark: vectorized kernels vs their scalar references.

``python -m repro bench`` runs this module.  It times every vectorized
hot-path kernel against its scalar (point-by-point) reference on the fixed
seeded workload of :mod:`repro.bench.workloads` -- motion planning and depth
ray casting on its reference corpus recorded from golden missions -- profiles
one real closed-loop mission with the
:class:`~repro.pipeline.kernel.KernelProfiler` active, and writes the combined
perf-trajectory artifact ``BENCH_hotpath.json`` (schema ``repro-bench-v1``,
enforced by :func:`repro.bench.harness.validate_report`).
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
    time_callable,
    write_report,
)
from repro.bench.scalar_ref import (
    ScalarCollisionChecker,
    ScalarOccupancyMap,
    scalar_aad_errors,
    scalar_gad_scores,
    scalar_plan,
    scalar_point_cloud,
    scalar_ray_cast,
    scalar_sign_exponent,
)
from repro.bench.workloads import (
    HotpathWorkload,
    ReferenceCorpus,
    build_workload,
    record_corpus,
)
from repro.core import knobs
from repro.detection.preprocess import sign_exponent_transform
from repro.perception.collision_check import CollisionChecker
from repro.perception.occupancy import OccupancyMap
from repro.perception.point_cloud import PointCloudGenerator
from repro.pipeline.kernel import profiled_kernels


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
        time_callable(run_vector, repeats=repeats, calls_per_run=calls),
        time_callable(run_scalar, repeats=repeats, calls_per_run=calls),
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
        time_callable(run_vector, repeats=repeats, calls_per_run=calls),
        # The per-pixel loop is orders of magnitude slower; one repeat keeps
        # the bench fast while still being a fair best-of measurement.
        time_callable(run_scalar, repeats=1, calls_per_run=calls),
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
        time_callable(run_vector, repeats=repeats, calls_per_run=calls),
        time_callable(run_scalar, repeats=1, calls_per_run=calls),
    )


def _bench_gad(workload: HotpathWorkload, repeats: int) -> Dict:
    """Gaussian-detector window scoring: one broadcast vs per-cell checks."""
    window = workload.detector_window
    gad = workload.gad
    features = list(gad.detectors)

    def run_vector() -> None:
        gad.score_batch(window, features)

    def run_scalar() -> None:
        scalar_gad_scores(gad, window, features)

    return kernel_entry(
        time_callable(run_vector, repeats=repeats, calls_per_run=len(window)),
        time_callable(run_scalar, repeats=1, calls_per_run=len(window)),
    )


def _bench_aad(workload: HotpathWorkload, repeats: int) -> Dict:
    """Autoencoder window scoring: one batched forward pass vs row-by-row."""
    window = workload.detector_window
    aad = workload.aad

    def run_vector() -> None:
        aad.score_batch(window)

    def run_scalar() -> None:
        scalar_aad_errors(aad, window)

    return kernel_entry(
        time_callable(run_vector, repeats=repeats, calls_per_run=len(window)),
        time_callable(run_scalar, repeats=1, calls_per_run=len(window)),
    )


def _bench_preprocess(workload: HotpathWorkload, repeats: int) -> Dict:
    """Sign-exponent transform: one bit-twiddling pass vs struct round-trips."""
    values = workload.detector_window.reshape(-1)

    def run_vector() -> None:
        sign_exponent_transform(values)

    def run_scalar() -> None:
        scalar_sign_exponent(values)

    return kernel_entry(
        time_callable(run_vector, repeats=repeats, calls_per_run=len(values)),
        time_callable(run_scalar, repeats=1, calls_per_run=len(values)),
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
        time_callable(run_vector, repeats=repeats, calls_per_run=calls),
        time_callable(run_scalar, repeats=repeats, calls_per_run=calls),
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
        time_callable(run_vector, repeats=repeats, calls_per_run=calls),
        time_callable(run_scalar, repeats=repeats, calls_per_run=calls),
    )


def _profile_pipeline(smoke: bool) -> Dict:
    """Fly one real closed-loop mission with the kernel profiler active."""
    from repro.pipeline.builder import PipelineConfig, build_pipeline
    from repro.pipeline.runner import MissionRunner

    config = PipelineConfig(
        environment="sparse",
        seed=0,
        mission_time_limit=30.0 if smoke else 120.0,
    )
    start = time.perf_counter()
    with profiled_kernels() as profiler:
        handles = build_pipeline(config)
        result = MissionRunner(handles).run(setting="bench", seed=0)
    wall_s = time.perf_counter() - start
    return {
        "environment": "sparse",
        "seed": 0,
        "mission_success": bool(result.success),
        "mission_flight_time_s": float(result.flight_time),
        "mission_wall_s": wall_s,
        "per_kernel": profiler.snapshot(),
    }


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
        "detector_gad_window": _bench_gad(workload, repeats),
        "detector_aad_window": _bench_aad(workload, repeats),
        "preprocess_transform": _bench_preprocess(workload, repeats),
        "motion_planning": _bench_motion_planning(corpus, repeats),
        "depth_raycast": _bench_depth_raycast(corpus, repeats),
    }
    report = {
        "schema": BENCH_SCHEMA,
        "created_unix": time.time(),
        "host": host_fingerprint(),
        "env": knobs.snapshot(
            ("REPRO_SCALAR_KERNELS", "MAVFI_RUNS", "MAVFI_WORKERS")
        ),
        "workload": workload.description,
        "repeats": repeats,
        "kernels": kernels,
        "pipeline": _profile_pipeline(smoke=smoke),
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
    table = format_table(
        ["Kernel", "Vector [ms]", "Scalar [ms]", "Speedup", "Runs/s"],
        rows,
        title="Hot-path kernels (best of repeats, whole-workload runs)",
    )
    pipeline = report.get("pipeline", {})
    per_kernel = pipeline.get("per_kernel", {})
    if per_kernel:
        prof_rows = [
            [name, f"{stats['wall_ms']:.1f}", int(stats["calls"]), f"{stats['ms_per_call']:.3f}"]
            for name, stats in per_kernel.items()
        ]
        table += "\n" + format_table(
            ["Pipeline kernel", "Wall [ms]", "Calls", "ms/call"],
            prof_rows,
            # No wall-clock in the title: the rendered table doubles as a
            # committed reference artifact, which must not churn per run.
            title="Profiled mission (sparse, seed 0)",
        )
    return table
