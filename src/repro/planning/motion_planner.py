"""Motion planner kernel node (shortest path + smoothening).

The motion planner plans a collision-free path from the vehicle's current
position to the mission goal on the latest occupancy-map snapshot, smooths it
and publishes the multi-DOF trajectory.  It replans when the collision check
predicts that the current trajectory runs into newly observed obstacles, when
the time to collision drops below a threshold, or when the trajectory has been
flown to its end without reaching the goal -- the replanning behaviour whose
disruption by faults produces the detours of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import topics
from repro.pipeline.kernel import KernelNode
from repro.planning.memo import memoized_waypoints
from repro.planning.rrt import PlanningProblem, make_planner
from repro.planning.smoothing import PathSmoother, SmootherConfig
from repro.rosmw.message import (
    CollisionCheckMsg,
    MissionStatusMsg,
    MultiDOFTrajectoryMsg,
    OccupancyMapMsg,
    OdometryMsg,
)


@dataclass
class PlannerConfig:
    """Configuration of the motion planner node."""

    planner_name: str = "rrt_star"
    decision_rate: float = 2.0
    ttc_replan_threshold: float = 3.0
    min_replan_interval: float = 1.5
    planner_seed: int = 0
    deviation_replan_threshold: float = 4.0
    progress_watchdog_window: float = 4.0
    progress_watchdog_distance: float = 1.0
    clearance: float = 1.5
    bounds_lo: tuple = (-5.0, -30.0, 0.5)
    bounds_hi: tuple = (65.0, 30.0, 10.0)
    max_iterations: int = 500
    step_size: float = 3.0
    trajectory_end_tolerance: float = 2.5
    smoother: SmootherConfig = None

    def __post_init__(self) -> None:
        if self.smoother is None:
            self.smoother = SmootherConfig()


class MotionPlannerNode(KernelNode):
    """Plans and republishes the multi-DOF trajectory for the control stage."""

    stage = "planning"

    def __init__(self, config: Optional[PlannerConfig] = None, latency: float = 0.083) -> None:
        super().__init__("motion_planner", latency=latency)
        self.config = config if config is not None else PlannerConfig()
        self.smoother = PathSmoother(self.config.smoother)
        self.replan_count = 0
        self.failed_plan_count = 0
        self._last_plan_seed: Optional[int] = None
        self._goal: Optional[np.ndarray] = None
        self._latest_map: Optional[OccupancyMapMsg] = None
        self._latest_odometry: Optional[OdometryMsg] = None
        self._latest_collision: Optional[CollisionCheckMsg] = None
        self._last_future_collision_seq = 0
        self._last_plan_time = -1e9
        self._current_trajectory: Optional[MultiDOFTrajectoryMsg] = None
        self._mission_completed = False
        self._progress_anchor: Optional[np.ndarray] = None
        self._progress_anchor_time = 0.0

    # --------------------------------------------------------------- topology
    def on_start(self) -> None:
        self._traj_pub = self.create_publisher(topics.TRAJECTORY, MultiDOFTrajectoryMsg)
        self.create_subscription(topics.OCCUPANCY_MAP, OccupancyMapMsg, self._on_map)
        self.create_subscription(topics.ODOMETRY, OdometryMsg, self._on_odometry)
        self.create_subscription(topics.COLLISION_CHECK, CollisionCheckMsg, self._on_collision)
        self.create_subscription(topics.MISSION_STATUS, MissionStatusMsg, self._on_mission)
        self.create_timer(1.0 / self.config.decision_rate, self._decide, offset=0.05)

    # -------------------------------------------------------------- callbacks
    def _on_map(self, msg: OccupancyMapMsg) -> None:
        self._latest_map = msg

    def _on_odometry(self, msg: OdometryMsg) -> None:
        self._latest_odometry = msg

    def _on_collision(self, msg: CollisionCheckMsg) -> None:
        self._latest_collision = msg

    def _on_mission(self, msg: MissionStatusMsg) -> None:
        if msg.goal is not None:
            self._goal = np.asarray(msg.goal, dtype=float)
        self._mission_completed = bool(msg.completed)

    # --------------------------------------------------------------- decision
    def _progress_stalled(self) -> bool:
        """Watchdog: no measurable progress for a whole watchdog window.

        A stuck vehicle (e.g. its trajectory never reached the control stage,
        or it is trapped oscillating in front of an obstacle) is rescued by
        forcing a re-plan from the current position.
        """
        if self._latest_odometry is None:
            return False
        now = self.graph.clock.now
        position = self._latest_odometry.position
        if self._progress_anchor is None:
            self._progress_anchor = position.copy()
            self._progress_anchor_time = now
            return False
        moved = float(np.linalg.norm(position - self._progress_anchor))
        if moved > self.config.progress_watchdog_distance:
            self._progress_anchor = position.copy()
            self._progress_anchor_time = now
            return False
        if now - self._progress_anchor_time > self.config.progress_watchdog_window:
            self._progress_anchor = position.copy()
            self._progress_anchor_time = now
            return True
        return False

    def _should_replan(self) -> bool:
        if self._mission_completed:
            return False
        if self._goal is None or self._latest_odometry is None:
            return False
        if self._progress_stalled():
            return True
        now = self.graph.clock.now
        if now - self._last_plan_time < self.config.min_replan_interval:
            return False
        if self._current_trajectory is None or not self._current_trajectory.waypoints:
            return True

        collision = self._latest_collision
        if collision is not None:
            if collision.future_collision_seq > self._last_future_collision_seq:
                return True
            if collision.time_to_collision < self.config.ttc_replan_threshold:
                return True

        # Trajectory flown to its end but the goal not reached yet.
        last_wp = self._current_trajectory.waypoints[-1]
        position = self._latest_odometry.position
        end = np.array([last_wp.x, last_wp.y, last_wp.z])
        near_end = np.linalg.norm(position - end) < self.config.trajectory_end_tolerance
        goal_far = np.linalg.norm(position - self._goal) > self.config.trajectory_end_tolerance
        if near_end and goal_far:
            return True

        # Vehicle drifted away from the trajectory it is supposed to follow
        # (e.g. because a corrupted way-point or command steered it off):
        # replan from the current position.
        waypoints = np.array(
            [[w.x, w.y, w.z] for w in self._current_trajectory.waypoints], dtype=float
        )
        finite = np.all(np.isfinite(waypoints), axis=1)
        if not finite.any():
            return True
        # Clip before the norm so corrupted (astronomically large) way-points
        # cannot overflow the arithmetic; they simply count as "far away".
        clipped = np.clip(waypoints[finite], -1e9, 1e9)
        deviation = float(
            np.linalg.norm(clipped - position[None, :], axis=1).min()
        )
        if deviation > self.config.deviation_replan_threshold:
            return True
        return False

    def _decide(self) -> None:
        if not self._should_replan():
            return
        self._plan_and_publish()

    # --------------------------------------------------------------- planning
    def _build_problem(self) -> Optional[PlanningProblem]:
        if self._latest_odometry is None or self._goal is None:
            return None
        occupied = (
            self._latest_map.occupied_centers
            if self._latest_map is not None
            else np.zeros((0, 3))
        )
        resolution = self._latest_map.resolution if self._latest_map is not None else 1.0
        return PlanningProblem(
            start=self._latest_odometry.position,
            goal=self._goal,
            occupied_centers=occupied,
            map_resolution=resolution,
            bounds_lo=self.config.bounds_lo,
            bounds_hi=self.config.bounds_hi,
            clearance=self.config.clearance,
        )

    def _plan_and_publish(self) -> None:
        problem = self._build_problem()
        if problem is None:
            return
        self.cache_inputs(problem=problem)
        self.charge_invocation()
        self._last_plan_time = self.graph.clock.now
        trajectory = self._plan(problem)
        if trajectory is None:
            self.failed_plan_count += 1
            return
        if self._latest_collision is not None:
            self._last_future_collision_seq = self._latest_collision.future_collision_seq
        self._current_trajectory = trajectory
        delivered = self.publish_output(self._traj_pub, trajectory)
        self._current_trajectory = delivered if isinstance(delivered, MultiDOFTrajectoryMsg) else trajectory

    def _plan(
        self,
        problem: PlanningProblem,
        seed: Optional[int] = None,
        count_replan: bool = True,
    ) -> Optional[MultiDOFTrajectoryMsg]:
        if seed is None:
            # Failed attempts perturb the seed so that a retry on the next
            # decision tick explores a different tree instead of repeating the
            # exact failure.
            seed = self.config.planner_seed + self.replan_count + 101 * self.failed_plan_count
        planner = make_planner(
            self.config.planner_name,
            seed=seed,
            max_iterations=self.config.max_iterations,
            step_size=self.config.step_size,
        )
        waypoints = memoized_waypoints(planner, problem, self.smoother)
        if waypoints is None:
            return None
        self._last_plan_seed = seed
        if count_replan:
            self.replan_count += 1
        return MultiDOFTrajectoryMsg(
            waypoints=waypoints,
            planner_name=self.config.planner_name,
            replan_index=self.replan_count,
        )

    def _do_recompute(self) -> None:
        # Recomputation repeats the *same* planning computation (same inputs,
        # same seed) without the transient fault, so a recovery triggered by a
        # false alarm reproduces the trajectory it replaced.
        problem: Optional[PlanningProblem] = self.cached_input("problem")
        if problem is None:
            return
        trajectory = self._plan(problem, seed=self._last_plan_seed, count_replan=False)
        if trajectory is not None:
            self._current_trajectory = trajectory
            self.publish_output(self._traj_pub, trajectory)

    def corrupt_internal(self, rng: np.random.Generator, bit: int) -> str:
        """Corrupt the live trajectory held by the planner.

        An instruction-level fault inside the motion planner lands in the
        way-point buffer it maintains between re-plans; the corrupted
        trajectory is what the control stage keeps tracking, so the fault is
        re-published downstream (exactly the error-propagation path of Fig. 2:
        Motion Planner -> Multidoftraj -> Trajectory -> flight command).
        """
        from repro.core.fault import corrupt_message_field

        if self._current_trajectory is not None and self._current_trajectory.waypoints:
            # Corrupt the planner's own working copy; downstream kernels only
            # see the corruption through the re-published message (the Fig. 2
            # propagation path), which the detection tap can intercept.
            self._current_trajectory = self._current_trajectory.copy()
            corruption = corrupt_message_field(self._current_trajectory, rng, bit=bit)
            self.publish_output(self._traj_pub, self._current_trajectory)
            return f"{self.name}: corrupted live trajectory field {corruption}"
        return super().corrupt_internal(rng, bit)

    def reset_kernel(self) -> None:
        super().reset_kernel()
        self.replan_count = 0
        self.failed_plan_count = 0
        self._goal = None
        self._latest_map = None
        self._latest_odometry = None
        self._latest_collision = None
        self._last_future_collision_seq = 0
        self._last_plan_time = -1e9
        self._current_trajectory = None
        self._mission_completed = False
