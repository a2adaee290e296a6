"""Perception stage kernels.

The perception stage of the MAVBench PPC pipeline (Fig. 2) contains three
kernels, each wrapped as its own node:

* **Point cloud generation** (:mod:`repro.perception.point_cloud`) -- converts
  RGB-D depth images into world-frame point clouds.
* **OctoMap generation** (:mod:`repro.perception.occupancy`) -- maintains a
  probabilistic, voxel-based occupancy map from the point clouds.
* **Collision check** (:mod:`repro.perception.collision_check`) -- monitors
  the current trajectory against the occupancy map and publishes the
  ``time_to_collision`` and ``future_collision_seq`` inter-kernel states.

A standalone localization/sensor-fusion filter
(:mod:`repro.perception.localization`) is provided as a library component.
"""

from repro.perception.collision_check import CollisionCheckNode, CollisionChecker
from repro.perception.localization import ComplementaryFilter, StateEstimate
from repro.perception.occupancy import OccupancyMap, OctoMapNode, ScalarOccupancyMap
from repro.perception.point_cloud import PointCloudGenerator, PointCloudNode

__all__ = [
    "PointCloudGenerator",
    "PointCloudNode",
    "OccupancyMap",
    "ScalarOccupancyMap",
    "OctoMapNode",
    "CollisionChecker",
    "CollisionCheckNode",
    "ComplementaryFilter",
    "StateEstimate",
]
