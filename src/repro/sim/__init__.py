"""Closed-loop MAV simulation substrate.

The paper evaluates MAVFI on MAVBench, which couples Unreal Engine (world and
rendering), AirSim (vehicle kinematics and sensors) and the PPC pipeline.
This package provides the equivalent substrate:

* :mod:`repro.sim.world` -- a 3-D world of axis-aligned cuboid obstacles with
  vectorised ray casting and collision queries.
* :mod:`repro.sim.generator` -- the environment generator parameterised by
  ``[obstacle density, cuboid side length]`` exactly as in Section V.
* :mod:`repro.sim.environments` -- the four evaluation environments (Factory,
  Farm, Sparse, Dense) and the randomized training environments.
* :mod:`repro.sim.vehicle` -- quadrotor state and velocity-command kinematics
  with acceleration and speed limits.
* :mod:`repro.sim.sensors` -- the ray-cast RGB-D depth camera and the IMU.
* :mod:`repro.sim.wind` -- constant wind plus Dryden-style gusts applied to
  the vehicle dynamics (scenario subsystem).
* :mod:`repro.sim.degradation` -- declarative sensor degradation (depth
  dropout/fog/quantization, IMU/odometry noise; scenario subsystem).
* :mod:`repro.sim.airsim` -- the AirSim-interface node that publishes sensor
  topics, consumes flight commands and integrates the vehicle dynamics.
* :mod:`repro.sim.tickmath` -- the norm and clip of the per-tick flight
  loop, bit-identical to numpy's.
"""

from repro.sim.airsim import AirSimInterfaceNode, FlightOutcome
from repro.sim.degradation import SensorDegradation, SensorDegradationConfig
from repro.sim.environments import (
    ENVIRONMENT_NAMES,
    EXTENDED_ENVIRONMENT_NAMES,
    EnvironmentSpec,
    make_environment,
    make_training_environment,
)
from repro.sim.generator import EnvironmentGenerator
from repro.sim.sensors import DepthCamera, Imu, OdometrySensor
from repro.sim.vehicle import QuadrotorDynamics, QuadrotorParams, QuadrotorState
from repro.sim.wind import WindConfig, WindModel
from repro.sim.world import Cuboid, World

__all__ = [
    "World",
    "Cuboid",
    "EnvironmentGenerator",
    "EnvironmentSpec",
    "ENVIRONMENT_NAMES",
    "EXTENDED_ENVIRONMENT_NAMES",
    "make_environment",
    "make_training_environment",
    "WindConfig",
    "WindModel",
    "SensorDegradation",
    "SensorDegradationConfig",
    "QuadrotorDynamics",
    "QuadrotorParams",
    "QuadrotorState",
    "DepthCamera",
    "Imu",
    "OdometrySensor",
    "AirSimInterfaceNode",
    "FlightOutcome",
]
