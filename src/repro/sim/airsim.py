"""The AirSim-interface node: sensors out, flight commands in, physics inside.

In MAVBench the host machine runs Unreal Engine + AirSim, which publish camera
images and IMU data to the companion computer and execute the flight commands
coming back from the PPC pipeline (Fig. 2).  This node plays that role inside
the simulated node graph:

* a physics timer integrates the quadrotor dynamics under the latest flight
  command and checks for collision, goal arrival, leaving the world and the
  mission time budget;
* a camera timer publishes depth images;
* an odometry timer publishes odometry and IMU samples at a higher rate.

The mission outcome (success / collision / timeout, flight time, energy,
distance and the full trajectory) is accumulated here and read by the mission
runner once the flight terminates.

Two parts of the 20 Hz loop skip work that no record reads.  The
ground-truth collision test answers ``world.sphere_collides(position,
collision_radius)`` from a *clearance certificate* where it can: the node
keeps the last exact :meth:`World.distance_to_nearest` value, the point it
was taken at and the obstacle digest it saw.  By the triangle inequality the
vehicle still clears every obstacle by that value minus the L1 offset flown
since, so while that bound beats ``collision_radius`` by
:data:`~repro.sim.world.CERT_SLACK` the answer is "no collision" with no
query; every other step runs the exact query and renews the certificate.  A
certificate only ever accepts, so every verdict is the exact one.  And the
IMU is measured and published only while ``/sensors/imu`` has a subscriber
or a tap: an unread IMU draws no noise, and a reader attached at launch gets
the same samples as ever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import topics
from repro.rosmw.message import DepthImageMsg, FlightCommandMsg, ImuMsg, OdometryMsg
from repro.rosmw.node import Node
from repro.sim.degradation import SensorDegradation
from repro.sim.memo import Memo, frozen
from repro.sim.sensors import CameraConfig, DepthCamera, Imu, OdometrySensor
from repro.sim.tickmath import norm
from repro.sim.vehicle import QuadrotorDynamics, QuadrotorParams, QuadrotorState
from repro.sim.world import CERT_SLACK, World


#: Depth images by camera pose (:mod:`repro.sim.memo`).
DEPTH_CAPTURE_MEMO: "Memo[DepthImageMsg, DepthImageMsg]" = Memo("depth_capture", 256)

#: The largest clearance (m) a collision certificate is kept for.  Below it
#: the rounding of the clearance, the offset and their difference stays under
#: 2e-9 m, far inside :data:`CERT_SLACK`.  A NaN or infinite clearance (a
#: corrupted position, an empty world) is never kept.
CLEARANCE_CAP = 1e6


def _stored_image(image: DepthImageMsg) -> DepthImageMsg:
    return DepthImageMsg(
        depth=frozen(image.depth),
        fov_h=image.fov_h,
        fov_v=image.fov_v,
        max_range=image.max_range,
        camera_position=frozen(image.camera_position),
        camera_yaw=image.camera_yaw,
    )


def _fresh_image(stored: DepthImageMsg) -> DepthImageMsg:
    return DepthImageMsg(
        depth=stored.depth.copy(),
        fov_h=stored.fov_h,
        fov_v=stored.fov_v,
        max_range=stored.max_range,
        camera_position=stored.camera_position.copy(),
        camera_yaw=stored.camera_yaw,
    )


@dataclass
class FlightOutcome:
    """Result of one simulated mission."""

    success: bool = False
    collision: bool = False
    timeout: bool = False
    out_of_bounds: bool = False
    flight_time: float = 0.0
    flight_energy: float = 0.0
    distance_travelled: float = 0.0
    final_distance_to_goal: float = float("inf")
    trajectory: List[np.ndarray] = field(default_factory=list)
    reason: str = "incomplete"

    @property
    def failed(self) -> bool:
        """Whether the mission ended without reaching the goal."""
        return not self.success


@dataclass
class MissionConfig:
    """Mission end-points, optional intermediate waypoints and limits."""

    start: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.5]))
    goal: np.ndarray = field(default_factory=lambda: np.array([55.0, 0.0, 2.0]))
    goal_tolerance: float = 2.0
    time_limit: float = 120.0
    #: Intermediate waypoints visited in order before ``goal``; the mission
    #: only succeeds once every waypoint and then the goal has been reached.
    waypoints: Tuple[Tuple[float, float, float], ...] = ()
    #: Capture-radius multiplier for *intermediate* waypoints (fly-by
    #: tolerance).  Deliberately looser than the goal tolerance: the mission
    #: planner advances its route on noisy odometry, so ground-truth credit
    #: here must not be stricter than the guidance that steers the approach,
    #: or the two could diverge and make the mission unwinnable.
    waypoint_capture_factor: float = 1.5

    def route(self) -> Sequence[np.ndarray]:
        """Full target sequence: intermediate waypoints, then the final goal."""
        return [
            *(np.asarray(p, dtype=float) for p in self.waypoints),
            np.asarray(self.goal, dtype=float),
        ]


class AirSimInterfaceNode(Node):
    """Simulated AirSim + flight controller endpoint inside the node graph."""

    def __init__(
        self,
        world: World,
        mission: Optional[MissionConfig] = None,
        vehicle_params: Optional[QuadrotorParams] = None,
        camera_config: Optional[CameraConfig] = None,
        physics_rate: float = 20.0,
        camera_rate: float = 5.0,
        odometry_rate: float = 20.0,
        seed: int = 0,
        wind_model=None,
        degradation: Optional[SensorDegradation] = None,
    ) -> None:
        super().__init__("airsim_interface")
        self.world = world
        self.mission = mission if mission is not None else MissionConfig()
        self.vehicle = QuadrotorDynamics(
            params=vehicle_params,
            initial_state=QuadrotorState(position=np.asarray(self.mission.start, float)),
            wind_model=wind_model,
        )
        self.camera = DepthCamera(world, camera_config)
        self.degradation = degradation
        imu_config = degradation.imu_config() if degradation is not None else None
        odom_config = degradation.odometry_config() if degradation is not None else None
        self.imu = Imu(config=imu_config, seed=seed)
        self.odometry = OdometrySensor(config=odom_config, seed=seed)
        self.physics_rate = physics_rate
        self.camera_rate = camera_rate
        self.odometry_rate = odometry_rate
        self.outcome = FlightOutcome()
        self.mission_done = False
        self._latest_command = FlightCommandMsg()
        self._trajectory_stride = max(1, int(physics_rate / 5))
        self._physics_steps = 0
        self._route = self.mission.route()
        self._route_index = 0
        # The collision certificate: the last exact clearance, the point it
        # was taken at and the obstacle digest it saw.  -inf certifies nothing.
        self._clearance = -math.inf
        self._clearance_at = (0.0, 0.0, 0.0)
        self._clearance_boxes: Optional[bytes] = None

    # --------------------------------------------------------------- topology
    def on_start(self) -> None:
        self._depth_pub = self.create_publisher(topics.DEPTH_IMAGE, DepthImageMsg)
        self._imu_pub = self.create_publisher(topics.IMU, ImuMsg)
        self._odom_pub = self.create_publisher(topics.ODOMETRY, OdometryMsg)
        self.create_subscription(
            topics.FLIGHT_COMMAND, FlightCommandMsg, self._on_flight_command
        )
        self.create_timer(1.0 / self.physics_rate, self._physics_step)
        self.create_timer(1.0 / self.camera_rate, self._publish_camera, offset=0.01)
        self.create_timer(1.0 / self.odometry_rate, self._publish_odometry, offset=0.005)

    # -------------------------------------------------------------- callbacks
    def _on_flight_command(self, msg: FlightCommandMsg) -> None:
        self._latest_command = msg

    def _publish_camera(self) -> None:
        if self.mission_done:
            return
        camera, state = self.camera, self.vehicle.state
        image = DEPTH_CAPTURE_MEMO.call(
            (camera.world.content_key(), camera.config, state.position, state.yaw),
            lambda: camera.capture(state),
            _stored_image,
            _fresh_image,
        )
        if self.degradation is not None:
            image = self.degradation.degrade_depth(image)
        self._depth_pub.publish(image)

    def _publish_odometry(self) -> None:
        if self.mission_done:
            return
        self._odom_pub.publish(self.odometry.measure(self.vehicle.state))
        if self._imu_pub.has_readers():
            self._imu_pub.publish(self.imu.measure(self.vehicle.state))

    def _physics_step(self) -> None:
        if self.mission_done:
            return
        dt = 1.0 / self.physics_rate
        command = self._latest_command
        state = self.vehicle.step(
            np.array([command.vx, command.vy, command.vz], dtype=float),
            float(command.yaw_rate),
            dt,
        )
        self._physics_steps += 1
        if self._physics_steps % self._trajectory_stride == 0:
            self.outcome.trajectory.append(state.position.copy())

        self.outcome.final_distance_to_goal = norm(state.position - self._route[-1])
        at_final = self._route_index == len(self._route) - 1
        if at_final:
            distance_to_target = self.outcome.final_distance_to_goal
        else:
            distance_to_target = norm(state.position - self._route[self._route_index])
        capture = self.mission.goal_tolerance * (
            1.0 if at_final else self.mission.waypoint_capture_factor
        )

        if distance_to_target <= capture:
            if at_final:
                self._finish(success=True, reason="goal reached")
                return
            # Intermediate waypoint reached; continue to the next target.
            self._route_index += 1
        if self._collides(state.position, self.vehicle.params.collision_radius):
            self._finish(success=False, reason="collision", collision=True)
        elif state.position[2] < self.world.bounds_lo[2] - 0.5:
            self._finish(success=False, reason="ground impact", collision=True)
        elif not self.world.in_bounds(state.position, margin=-8.0):
            self._finish(success=False, reason="left the world", out_of_bounds=True)
        elif state.time >= self.mission.time_limit:
            self._finish(success=False, reason="mission time limit exceeded", timeout=True)

    def _collides(self, position: np.ndarray, radius: float) -> bool:
        """``self.world.sphere_collides(position, radius)``, with no query while
        the certificate, less the L1 offset flown since, beats ``radius`` by
        :data:`CERT_SLACK`."""
        x, y, z = position.tolist()
        cx, cy, cz = self._clearance_at
        boxes = self.world._boxes_key
        if (
            boxes == self._clearance_boxes
            and self._clearance - (abs(x - cx) + abs(y - cy) + abs(z - cz))
            > radius + CERT_SLACK
        ):
            return False
        clearance = self.world.distance_to_nearest(position)
        if clearance <= CLEARANCE_CAP:
            self._clearance = clearance
            self._clearance_at = (x, y, z)
            self._clearance_boxes = boxes
        return clearance <= radius

    def _finish(
        self,
        success: bool,
        reason: str,
        collision: bool = False,
        timeout: bool = False,
        out_of_bounds: bool = False,
    ) -> None:
        self.mission_done = True
        self.outcome.success = success
        self.outcome.collision = collision
        self.outcome.timeout = timeout
        self.outcome.out_of_bounds = out_of_bounds
        self.outcome.reason = reason
        self.outcome.flight_time = float(self.vehicle.state.time)
        self.outcome.flight_energy = float(self.vehicle.energy_used)
        self.outcome.distance_travelled = float(self.vehicle.distance_travelled)

    def abort(
        self,
        reason: str = "aborted",
        timeout: bool = False,
        out_of_bounds: bool = False,
    ) -> None:
        """Terminate the mission unsuccessfully from outside the physics loop.

        Public API for supervisors (e.g. the mission runner's hard time
        limit): marks the mission as failed with the given ``reason``.  A
        mission that already terminated is left untouched, so a late abort
        never overwrites a real outcome.
        """
        if self.mission_done:
            return
        self._finish(
            success=False, reason=reason, timeout=timeout, out_of_bounds=out_of_bounds
        )

    # ------------------------------------------------------------- inspection
    @property
    def state(self) -> QuadrotorState:
        """Current ground-truth vehicle state."""
        return self.vehicle.state

    @property
    def current_target(self) -> np.ndarray:
        """The waypoint (or final goal) the mission is currently heading to."""
        return self._route[self._route_index].copy()

    @property
    def waypoints_reached(self) -> int:
        """How many intermediate waypoints have been reached so far."""
        return self._route_index
