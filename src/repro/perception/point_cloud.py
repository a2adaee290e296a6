"""Point cloud generation kernel.

Converts a depth image into a point cloud in the world frame.  This is the
first kernel of the perception stage ("P.C. Gen." in Fig. 3); its output is
the ``Point Cloud`` inter-kernel state consumed by OctoMap generation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import topics
from repro.pipeline.kernel import KernelNode
from repro.rosmw.message import DepthImageMsg, PointCloudMsg
from repro.sim.memo import Memo, frozen

#: Point clouds by depth image (:mod:`repro.sim.memo`).
POINT_CLOUD_MEMO: "Memo[PointCloudMsg, np.ndarray]" = Memo("point_cloud", 256)


class PointCloudGenerator:
    """Pure compute kernel: depth image -> world-frame point cloud.

    The depth message carries the camera pose and field of view, from which
    the per-pixel ray directions are reconstructed (mirroring how a real
    driver uses the camera intrinsics).
    """

    def __init__(self, stride: int = 1, max_points: int = 4096) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.max_points = max_points
        self._direction_cache: dict = {}

    def _directions(self, height: int, width: int, fov_h: float, fov_v: float) -> np.ndarray:
        """Strided per-pixel ray directions in the camera frame, cached.

        The camera intrinsics are constant across a mission, so the trig that
        dominated per-frame cost is done once per ``(shape, fov, stride)``.
        The cached grid is bit-identical to recomputing the full-resolution
        grid and slicing it: the strided ``linspace`` samples are the same
        float inputs to the same trig calls.
        """
        key = (height, width, float(fov_h), float(fov_v), self.stride)
        cached = self._direction_cache.get(key)
        if cached is None:
            az = np.deg2rad(np.linspace(-fov_h / 2, fov_h / 2, width))[:: self.stride]
            el = np.deg2rad(np.linspace(-fov_v / 2, fov_v / 2, height))[:: self.stride]
            az_grid, el_grid = np.meshgrid(az, el)
            x = np.cos(el_grid) * np.cos(az_grid)
            y = np.cos(el_grid) * np.sin(az_grid)
            z = np.sin(el_grid)
            cached = np.stack([x, y, z], axis=-1)
            if len(self._direction_cache) >= 8:
                self._direction_cache.clear()
            self._direction_cache[key] = cached
        return cached

    def compute(self, depth_msg: DepthImageMsg) -> PointCloudMsg:
        """Generate the point cloud for one depth image."""
        depth = np.asarray(depth_msg.depth, dtype=float)
        if depth.ndim != 2 or depth.size == 0:
            return PointCloudMsg(points=np.zeros((0, 3)))
        height, width = depth.shape
        sub_depth = depth[:: self.stride, :: self.stride]
        sub_dirs = self._directions(height, width, depth_msg.fov_h, depth_msg.fov_v)
        valid = np.isfinite(sub_depth) & (sub_depth > 0) & (sub_depth <= depth_msg.max_range)
        if not valid.any():
            return PointCloudMsg(points=np.zeros((0, 3)))
        ranges = sub_depth[valid]
        dirs = sub_dirs[valid]

        yaw = float(depth_msg.camera_yaw)
        cos_yaw, sin_yaw = np.cos(yaw), np.sin(yaw)
        rotation = np.array(
            [[cos_yaw, -sin_yaw, 0.0], [sin_yaw, cos_yaw, 0.0], [0.0, 0.0, 1.0]]
        )
        world_dirs = dirs @ rotation.T
        points = depth_msg.camera_position[None, :] + world_dirs * ranges[:, None]
        if len(points) > self.max_points:
            points = points[: self.max_points]
        return PointCloudMsg(points=points)


class _PointElementCorruption:
    """One-shot single-bit corruption of one point-cloud coordinate.

    A callable object, not a closure, so a pipeline with an armed fault stays
    deep-copyable under golden-prefix forking.
    """

    def __init__(self, bit: int) -> None:
        self.bit = bit

    def __call__(self, msg, fault_rng) -> None:
        from repro.core.fault import corrupt_array_element

        if isinstance(msg, PointCloudMsg) and msg.points.size:
            corrupt_array_element(msg.points, fault_rng, bit=self.bit)


class PointCloudNode(KernelNode):
    """Node wrapper for the point cloud generation kernel."""

    stage = "perception"

    def __init__(self, latency: float = 0.015, stride: int = 1) -> None:
        super().__init__("point_cloud_generation", latency=latency)
        self.kernel = PointCloudGenerator(stride=stride)

    def on_start(self) -> None:
        self._cloud_pub = self.create_publisher(topics.POINT_CLOUD, PointCloudMsg)
        self.create_subscription(topics.DEPTH_IMAGE, DepthImageMsg, self._on_depth)

    def _on_depth(self, msg: DepthImageMsg) -> None:
        self.cache_inputs(depth=msg)
        self.charge_invocation()
        cloud = self._compute(msg)
        self.publish_output(self._cloud_pub, cloud)

    def _do_recompute(self) -> None:
        depth: Optional[DepthImageMsg] = self.cached_input("depth")
        if depth is None:
            return
        cloud = self._compute(depth)
        self.publish_output(self._cloud_pub, cloud)

    def _compute(self, msg: DepthImageMsg) -> PointCloudMsg:
        """``self.kernel.compute(msg)``, memoized on what it reads (never the header)."""
        kernel = self.kernel
        return POINT_CLOUD_MEMO.call(
            (
                np.asarray(msg.depth, dtype=float),
                msg.fov_h,
                msg.fov_v,
                msg.max_range,
                msg.camera_position,
                msg.camera_yaw,
                kernel.stride,
                kernel.max_points,
            ),
            lambda: kernel.compute(msg),
            lambda cloud: frozen(cloud.points),
            lambda points: PointCloudMsg(points=points.copy()),
        )

    def corrupt_internal(self, rng: np.random.Generator, bit: int) -> str:
        """A transient fault in the (stateless) conversion corrupts one point."""
        from repro.pipeline.kernel import PendingFault

        self.arm_output_fault(
            PendingFault(
                corrupt=_PointElementCorruption(bit),
                rng=rng,
                description="point cloud element",
            )
        )
        return f"{self.name}: corrupt one point coordinate (bit {bit})"
