"""Path tracking and command issue kernel ("PID" control stage).

The tracker follows the planned multi-DOF trajectory sequentially, the way
MAVBench's ``follow_trajectory`` does: it keeps a current target way-point,
advances to the next one when the vehicle gets within a capture radius, and
gives up on an unreachable way-point after a timeout (so a corrupted way-point
produces a bounded detour rather than a permanent lock-up).  One PID per
translation axis converts the position error to a velocity command, the
way-point velocity is added as feed-forward, a proportional yaw controller
produces the yaw rate, and everything is clipped to the flight envelope before
the command is issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import topics
from repro.control.pid import PidController, PidGains
from repro.pipeline.kernel import KernelNode, PendingFault, _MessageFieldCorruption
from repro.rosmw.message import (
    CollisionCheckMsg,
    FlightCommandMsg,
    MissionStatusMsg,
    MultiDOFTrajectoryMsg,
    OdometryMsg,
    Waypoint,
)
from repro.sim.tickmath import clip, norm


@dataclass
class TrackerConfig:
    """Parameters of the sequential trajectory tracker."""

    capture_radius: float = 1.5
    target_timeout: float = 3.0
    max_speed: float = 5.0
    max_vertical_speed: float = 2.0
    max_yaw_rate: float = 1.2
    yaw_gain: float = 1.2
    feedforward_gain: float = 0.6
    #: Reactive braking: when the predicted time to collision falls below this
    #: horizon, the horizontal command is scaled down towards
    #: ``min_brake_scale`` ("the UAV stops at a safe distance and re-plans",
    #: Section VI-B of the paper).
    brake_horizon: float = 2.5
    min_brake_scale: float = 0.15
    position_gains: PidGains = field(
        default_factory=lambda: PidGains(kp=0.9, ki=0.04, kd=0.12, integral_limit=4.0)
    )


class PathTracker:
    """Pure compute kernel: (trajectory, odometry) -> flight command."""

    def __init__(self, config: Optional[TrackerConfig] = None) -> None:
        self.config = config if config is not None else TrackerConfig()
        self.pid_x = PidController(self.config.position_gains)
        self.pid_y = PidController(self.config.position_gains)
        self.pid_z = PidController(self.config.position_gains)
        self.current_index = 0
        self.time_on_target = 0.0
        self.skipped_waypoints = 0

    def reset(self) -> None:
        """Reset the tracker state (between missions)."""
        self.pid_x.reset()
        self.pid_y.reset()
        self.pid_z.reset()
        self.current_index = 0
        self.time_on_target = 0.0
        self.skipped_waypoints = 0

    # -------------------------------------------------------------- trajectory
    def on_new_trajectory(self, waypoints: List[Waypoint], position: Optional[np.ndarray]) -> None:
        """Re-anchor the tracker on a freshly planned trajectory."""
        self.time_on_target = 0.0
        if not waypoints or position is None:
            self.current_index = 0
            return
        points = np.array([[w.x, w.y, w.z] for w in waypoints], dtype=float)
        finite = np.all(np.isfinite(points), axis=1)
        dists = np.where(
            finite,
            np.linalg.norm(points - np.asarray(position, dtype=float)[None, :], axis=1),
            np.inf,
        )
        closest = int(np.argmin(dists)) if np.isfinite(dists).any() else 0
        self.current_index = min(closest + 1, len(waypoints) - 1)

    def _advance(self, waypoints: List[Waypoint], position: np.ndarray, dt: float) -> None:
        """Advance the target index on capture or timeout."""
        cfg = self.config
        if not waypoints:
            return
        self.current_index = min(self.current_index, len(waypoints) - 1)
        px, py, pz = position.tolist()
        advanced = True
        while advanced and self.current_index < len(waypoints) - 1:
            advanced = False
            target = waypoints[self.current_index]
            # Clip before the norm so corrupted (astronomically large)
            # way-points cannot overflow the arithmetic.  A non-finite
            # distance is never below the capture radius.
            offset = np.array(
                (
                    clip(float(target.x), -1e9, 1e9) - px,
                    clip(float(target.y), -1e9, 1e9) - py,
                    clip(float(target.z), -1e9, 1e9) - pz,
                )
            )
            if norm(offset) < cfg.capture_radius:
                self.current_index += 1
                self.time_on_target = 0.0
                advanced = True
        # Give up on a way-point that cannot be captured (e.g. corrupted far
        # away): skip it after the timeout, which bounds the detour.
        self.time_on_target += dt
        if (
            self.time_on_target > cfg.target_timeout
            and self.current_index < len(waypoints) - 1
        ):
            self.current_index += 1
            self.skipped_waypoints += 1
            self.time_on_target = 0.0

    def current_target(self, waypoints: List[Waypoint]) -> Optional[Waypoint]:
        """The way-point currently being tracked."""
        if not waypoints:
            return None
        return waypoints[min(self.current_index, len(waypoints) - 1)]

    # ---------------------------------------------------------------- command
    def brake_scale(self, time_to_collision: float) -> float:
        """Speed scale factor from the reactive-braking governor."""
        cfg = self.config
        if not math.isfinite(time_to_collision) or time_to_collision >= cfg.brake_horizon:
            return 1.0
        if time_to_collision <= 0.0:
            return cfg.min_brake_scale
        return max(cfg.min_brake_scale, time_to_collision / cfg.brake_horizon)

    def compute(
        self,
        waypoints: List[Waypoint],
        position: np.ndarray,
        yaw: float,
        dt: float,
        time_to_collision: float = math.inf,
    ) -> FlightCommandMsg:
        """Compute the flight command for the current control period.

        Computes with Python floats under the rules of :mod:`repro.sim.tickmath`.
        """
        cfg = self.config
        if not waypoints:
            return FlightCommandMsg(vx=0.0, vy=0.0, vz=0.0, yaw_rate=0.0)
        position = np.asarray(position, dtype=float)
        self._advance(waypoints, position, dt)
        target = self.current_target(waypoints)
        if target is None:
            return FlightCommandMsg(vx=0.0, vy=0.0, vz=0.0, yaw_rate=0.0)

        # PID on the finite part of the position error, plus the finite part
        # of the way-point velocity as feed-forward.
        px, py, pz = position.tolist()
        command = []
        for pid, coordinate, p, v in (
            (self.pid_x, target.x, px, target.vx),
            (self.pid_y, target.y, py, target.vy),
            (self.pid_z, target.z, pz, target.vz),
        ):
            error = float(coordinate) - p
            u = pid.update(error if math.isfinite(error) else 0.0, dt)
            feedforward = cfg.feedforward_gain * float(v)
            # Bound the raw command before computing norms so that corrupted
            # way-point velocities cannot overflow the clipping arithmetic.
            command.append(
                clip(u + (feedforward if math.isfinite(feedforward) else 0.0), -1e6, 1e6)
            )
        cx, cy, cz = command

        horizontal_speed = norm(np.array((cx, cy)))
        if horizontal_speed > cfg.max_speed:
            scale = cfg.max_speed / horizontal_speed
            cx, cy = cx * scale, cy * scale
        cz = clip(cz, -cfg.max_vertical_speed, cfg.max_vertical_speed)

        # Reactive braking on a predicted collision: slow down so the planner
        # has time to produce an avoiding trajectory.
        brake = self.brake_scale(time_to_collision)
        cx, cy = cx * brake, cy * brake

        target_yaw = target.yaw if math.isfinite(target.yaw) else yaw
        yaw_offset = target_yaw - yaw
        yaw_error = float(np.arctan2(np.sin(yaw_offset), np.cos(yaw_offset)))
        yaw_rate = clip(cfg.yaw_gain * yaw_error, -cfg.max_yaw_rate, cfg.max_yaw_rate)
        return FlightCommandMsg(vx=float(cx), vy=float(cy), vz=float(cz), yaw_rate=float(yaw_rate))


class ControlNode(KernelNode):
    """Node wrapper for path tracking and command issue."""

    stage = "control"

    def __init__(
        self,
        config: Optional[TrackerConfig] = None,
        latency: float = 0.00046,
        control_rate: float = 10.0,
    ) -> None:
        super().__init__("pid_control", latency=latency)
        self.kernel = PathTracker(config)
        self.control_rate = control_rate
        self._latest_trajectory: Optional[MultiDOFTrajectoryMsg] = None
        self._latest_odometry: Optional[OdometryMsg] = None
        self._latest_time_to_collision = float("inf")
        self._mission_completed = False

    def on_start(self) -> None:
        self._cmd_pub = self.create_publisher(topics.FLIGHT_COMMAND, FlightCommandMsg)
        self.create_subscription(topics.TRAJECTORY, MultiDOFTrajectoryMsg, self._on_trajectory)
        self.create_subscription(topics.ODOMETRY, OdometryMsg, self._on_odometry)
        self.create_subscription(topics.MISSION_STATUS, MissionStatusMsg, self._on_mission)
        self.create_subscription(topics.COLLISION_CHECK, CollisionCheckMsg, self._on_collision)
        self.create_timer(1.0 / self.control_rate, self._control_step, offset=0.04)

    def _on_trajectory(self, msg: MultiDOFTrajectoryMsg) -> None:
        self._latest_trajectory = msg
        position = self._latest_odometry.position if self._latest_odometry else None
        self.kernel.on_new_trajectory(msg.waypoints, position)

    def _on_odometry(self, msg: OdometryMsg) -> None:
        self._latest_odometry = msg

    def _on_mission(self, msg: MissionStatusMsg) -> None:
        self._mission_completed = bool(msg.completed)

    def _on_collision(self, msg: CollisionCheckMsg) -> None:
        self._latest_time_to_collision = float(msg.time_to_collision)

    def _control_step(self) -> None:
        if self._latest_odometry is None:
            return
        if self._mission_completed:
            self.publish_output(self._cmd_pub, FlightCommandMsg())
            return
        waypoints = self._latest_trajectory.waypoints if self._latest_trajectory else []
        odometry = self._latest_odometry
        dt = 1.0 / self.control_rate
        ttc = self._latest_time_to_collision
        self.cache_inputs(waypoints=waypoints, odometry=odometry, dt=dt, ttc=ttc)
        self.charge_invocation()
        command = self.kernel.compute(
            waypoints, odometry.position, odometry.yaw, dt, time_to_collision=ttc
        )
        self.publish_output(self._cmd_pub, command)

    def _do_recompute(self) -> None:
        # Recomputation re-issues the command from the same cached inputs; it
        # does not advance the tracker state a second time.
        odometry: Optional[OdometryMsg] = self.cached_input("odometry")
        if odometry is None:
            return
        waypoints = self.cached_input("waypoints") or []
        dt = self.cached_input("dt") or (1.0 / self.control_rate)
        ttc = self.cached_input("ttc")
        ttc = float("inf") if ttc is None else ttc
        target = self.kernel.current_target(waypoints)
        if target is None:
            self.publish_output(self._cmd_pub, FlightCommandMsg())
            return
        command = self.kernel.compute(
            waypoints, odometry.position, odometry.yaw, dt, time_to_collision=ttc
        )
        self.publish_output(self._cmd_pub, command)

    def corrupt_internal(self, rng: np.random.Generator, bit: int) -> str:
        """Corrupt persistent control state or the next command.

        The fault lands, with equal probability, in a PID integral term
        (persistent until it washes out or is clamped), in the tracker's
        working copy of the trajectory (persistent until the next re-plan), or
        in the next published command -- the three ways a transient fault in
        the control kernel manifests.
        """
        from repro.core.fault import corrupt_message_field, flip_float_bit

        choice = rng.uniform()
        if choice < 1.0 / 3.0:
            controller = [self.kernel.pid_x, self.kernel.pid_y, self.kernel.pid_z][
                int(rng.integers(3))
            ]
            controller.integral = flip_float_bit(float(controller.integral), bit)
            return f"{self.name}: PID integral corrupted (bit {bit})"
        if choice < 2.0 / 3.0 and self._latest_trajectory is not None and self._latest_trajectory.waypoints:
            # Corrupt this kernel's own working copy, not the shared message:
            # a fault inside the control node must not rewrite other nodes'
            # memory.
            self._latest_trajectory = self._latest_trajectory.copy()
            corruption = corrupt_message_field(self._latest_trajectory, rng, bit=bit)
            return f"{self.name}: tracked trajectory corrupted at {corruption}"

        # A callable object, not a closure: the armed fault must survive
        # golden-prefix deepcopy forks (see _MessageFieldCorruption).
        self.arm_output_fault(
            PendingFault(
                corrupt=_MessageFieldCorruption(self, bit, label="command"),
                rng=rng,
                description="command",
            )
        )
        return f"{self.name}: pending command corruption (bit {bit})"

    def reset_kernel(self) -> None:
        super().reset_kernel()
        self.kernel.reset()
        self._latest_trajectory = None
        self._latest_odometry = None
        self._latest_time_to_collision = float("inf")
        self._mission_completed = False
