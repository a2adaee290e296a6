"""The per-tick flight loop computes the same bits as its array form.

The physics step, the sensors, the path tracker, the world checks and the
collision check compute with Python floats and one stacked kd-tree query (see
:mod:`repro.sim.tickmath`).  The ``Reference*`` classes below keep the array
form of every rewritten method verbatim; the tests drive both sides with the
same inputs, ordinary and adversarial (NaN, +-inf, +-0.0, subnormals,
+-1e308 and bit flips of typical states), and require byte-equal outputs,
signed zeros included.  Any two NaNs count as equal: records serialize NaN
without its payload, and the detectors map every NaN to one value.
``ReferenceAirSim`` also keeps the uncertified ``world.sphere_collides`` as
the oracle of the physics step's certified collision test.
"""

from __future__ import annotations

import copy
import itertools
import math
import struct
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.path_tracking import PathTracker, TrackerConfig
from repro.core.fault import flip_float_bit
from repro.perception.collision_check import CollisionCheckConfig, CollisionChecker
from repro.rosmw.message import (
    CollisionCheckMsg,
    FlightCommandMsg,
    ImuMsg,
    OdometryMsg,
    Waypoint,
)
from repro.sim.airsim import AirSimInterfaceNode, MissionConfig
from repro.sim.sensors import Imu, ImuConfig, OdometryConfig, OdometrySensor
from repro.sim.tickmath import clip, norm
from repro.sim.vehicle import QuadrotorDynamics, QuadrotorParams, QuadrotorState, _wrap_angle
from repro.sim.wind import WindConfig, WindModel
from repro.sim.world import CERT_SLACK, Cuboid, World


# --------------------------------------------------------------- references
class ReferenceDynamics(QuadrotorDynamics):
    """The array form of the physics step."""

    def _sanitize_command(self, command: np.ndarray) -> np.ndarray:
        cmd = np.asarray(command, dtype=float).copy()
        cmd[~np.isfinite(cmd)] = 0.0
        # Bound extreme (possibly corrupted) set-points before computing the
        # norm so the clipping arithmetic cannot overflow.
        cmd = np.clip(cmd, -1e6, 1e6)
        horizontal = cmd[:2]
        h_speed = float(np.linalg.norm(horizontal))
        if h_speed > self.params.max_speed:
            cmd[:2] = horizontal * (self.params.max_speed / h_speed)
        cmd[2] = float(
            np.clip(cmd[2], -self.params.max_vertical_speed, self.params.max_vertical_speed)
        )
        return cmd

    def step(
        self,
        commanded_velocity: np.ndarray,
        commanded_yaw_rate: float,
        dt: float,
    ) -> QuadrotorState:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self.params
        cmd = self._sanitize_command(np.asarray(commanded_velocity, dtype=float))

        # First-order tracking of the velocity command, acceleration limited.
        accel = (cmd - self.state.velocity) / p.velocity_time_constant
        accel_norm = float(np.linalg.norm(accel))
        if accel_norm > p.max_acceleration:
            accel = accel * (p.max_acceleration / accel_norm)
        new_velocity = self.state.velocity + accel * dt

        # Envelope limits on the resulting velocity.
        h_speed = float(np.linalg.norm(new_velocity[:2]))
        if h_speed > p.max_speed:
            new_velocity[:2] *= p.max_speed / h_speed
        new_velocity[2] = float(
            np.clip(new_velocity[2], -p.max_vertical_speed, p.max_vertical_speed)
        )

        displacement = (self.state.velocity + new_velocity) / 2.0 * dt
        if self.wind_model is not None:
            displacement = displacement + self.wind_model.sample(dt) * dt
        new_position = self.state.position + displacement

        if not np.isfinite(commanded_yaw_rate):
            commanded_yaw_rate = 0.0
        yaw_rate = float(np.clip(commanded_yaw_rate, -p.max_yaw_rate, p.max_yaw_rate))
        new_yaw = _wrap_angle(self.state.yaw + yaw_rate * dt)

        self.distance_travelled += float(np.linalg.norm(displacement))
        self.energy_used += self.power(float(np.linalg.norm(new_velocity))) * dt

        self.state = QuadrotorState(
            position=new_position,
            velocity=new_velocity,
            yaw=new_yaw,
            yaw_rate=yaw_rate,
            time=self.state.time + dt,
        )
        return self.state


class ReferenceWorld(World):
    """The array form of the bounds and distance checks."""

    def in_bounds(self, point, margin: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        lo = np.asarray(self.bounds_lo) + margin
        hi = np.asarray(self.bounds_hi) - margin
        return bool(np.all(p >= lo) and np.all(p <= hi))

    def sphere_collides(self, center, radius: float) -> bool:
        return self.distance_to_nearest(center) <= radius

    def distance_to_nearest(self, point) -> float:
        if self.num_obstacles == 0:
            return float("inf")
        p = np.asarray(point, dtype=float)
        closest = np.clip(p, self._lo, self._hi)
        dists = np.linalg.norm(closest - p, axis=1)
        return float(dists.min())


class ReferenceImu(Imu):
    """The array form of the IMU sample."""

    def measure(self, state):
        if self._last_velocity is None or self._last_time is None:
            accel = np.zeros(3)
        else:
            dt = max(state.time - self._last_time, 1e-6)
            accel = (state.velocity - self._last_velocity) / dt
        self._last_velocity = state.velocity.copy()
        self._last_time = state.time
        noisy_accel = accel + self._rng.normal(0.0, self.config.accel_noise_std, 3)
        noisy_gyro = np.array([0.0, 0.0, state.yaw_rate]) + self._rng.normal(
            0.0, self.config.gyro_noise_std, 3
        )
        return ImuMsg(
            linear_acceleration=noisy_accel,
            angular_velocity=noisy_gyro,
            orientation_yaw=float(state.yaw),
        )


class ReferenceOdometrySensor(OdometrySensor):
    """The array form of the odometry sample."""

    def measure(self, state):
        position = state.position.copy()
        velocity = state.velocity.copy()
        if self.config.position_noise_std > 0:
            position = position + self._rng.normal(0.0, self.config.position_noise_std, 3)
        if self.config.velocity_noise_std > 0:
            velocity = velocity + self._rng.normal(0.0, self.config.velocity_noise_std, 3)
        return OdometryMsg(position=position, velocity=velocity, yaw=float(state.yaw))


class ReferenceTracker(PathTracker):
    """The array form of the path tracker."""

    def _advance(self, waypoints: List[Waypoint], position: np.ndarray, dt: float) -> None:
        cfg = self.config
        if not waypoints:
            return
        self.current_index = min(self.current_index, len(waypoints) - 1)
        advanced = True
        while advanced and self.current_index < len(waypoints) - 1:
            advanced = False
            target = waypoints[self.current_index]
            offset = np.clip(target.position(), -1e9, 1e9) - position
            distance = float(np.linalg.norm(offset))
            if not np.isfinite(distance):
                distance = float("inf")
            if distance < cfg.capture_radius:
                self.current_index += 1
                self.time_on_target = 0.0
                advanced = True
        self.time_on_target += dt
        if (
            self.time_on_target > cfg.target_timeout
            and self.current_index < len(waypoints) - 1
        ):
            self.current_index += 1
            self.skipped_waypoints += 1
            self.time_on_target = 0.0

    def brake_scale(self, time_to_collision: float) -> float:
        cfg = self.config
        if not np.isfinite(time_to_collision) or time_to_collision >= cfg.brake_horizon:
            return 1.0
        if time_to_collision <= 0.0:
            return cfg.min_brake_scale
        return max(cfg.min_brake_scale, time_to_collision / cfg.brake_horizon)

    def compute(self, waypoints, position, yaw, dt, time_to_collision=math.inf):
        cfg = self.config
        if not waypoints:
            return FlightCommandMsg(vx=0.0, vy=0.0, vz=0.0, yaw_rate=0.0)
        self._advance(waypoints, np.asarray(position, dtype=float), dt)
        target = self.current_target(waypoints)
        if target is None:
            return FlightCommandMsg(vx=0.0, vy=0.0, vz=0.0, yaw_rate=0.0)

        error = target.position() - np.asarray(position, dtype=float)
        error[~np.isfinite(error)] = 0.0
        command = np.array(
            [
                self.pid_x.update(float(error[0]), dt),
                self.pid_y.update(float(error[1]), dt),
                self.pid_z.update(float(error[2]), dt),
            ]
        )
        feedforward = cfg.feedforward_gain * target.velocity()
        feedforward[~np.isfinite(feedforward)] = 0.0
        command += feedforward
        command = np.clip(command, -1e6, 1e6)

        horizontal_speed = float(np.linalg.norm(command[:2]))
        if horizontal_speed > cfg.max_speed:
            command[:2] *= cfg.max_speed / horizontal_speed
        command[2] = float(np.clip(command[2], -cfg.max_vertical_speed, cfg.max_vertical_speed))

        command[:2] *= self.brake_scale(time_to_collision)

        target_yaw = target.yaw if np.isfinite(target.yaw) else yaw
        yaw_error = float(np.arctan2(np.sin(target_yaw - yaw), np.cos(target_yaw - yaw)))
        yaw_rate = float(
            np.clip(cfg.yaw_gain * yaw_error, -cfg.max_yaw_rate, cfg.max_yaw_rate)
        )
        return FlightCommandMsg(
            vx=float(command[0]),
            vy=float(command[1]),
            vz=float(command[2]),
            yaw_rate=yaw_rate,
        )


class ReferenceCollisionChecker(CollisionChecker):
    """The three separate kd-tree queries of the collision check."""

    def distance_to_nearest(self, position: np.ndarray) -> float:
        if self._tree is None:
            return float("inf")
        dist, _ = self._tree.query(np.asarray(position, dtype=float))
        return float(max(dist - self._map_resolution / 2.0, 0.0))

    def time_to_collision(self, position: np.ndarray, velocity: np.ndarray) -> float:
        cfg = self.config
        speed = float(np.linalg.norm(velocity))
        if self._tree is None or speed < cfg.min_speed:
            return float("inf")
        direction = np.asarray(velocity, dtype=float) / speed
        distances = np.arange(cfg.lookahead_step, speed * cfg.lookahead_time, cfg.lookahead_step)
        if distances.size == 0:
            return float("inf")
        samples = np.asarray(position, dtype=float)[None, :] + distances[:, None] * direction[None, :]
        hit_dists, _ = self._tree.query(samples)
        blocked = hit_dists <= cfg.collision_clearance
        if not blocked.any():
            return float("inf")
        first = float(distances[int(np.argmax(blocked))])
        return first / speed

    def trajectory_collides(self, waypoints: List, from_position: np.ndarray) -> bool:
        if self._tree is None or not waypoints:
            return False
        points = np.array([[w.x, w.y, w.z] for w in waypoints], dtype=float)
        finite = np.all(np.isfinite(points), axis=1)
        dists_to_vehicle = np.linalg.norm(points - np.asarray(from_position)[None, :], axis=1)
        dists_to_vehicle[~finite] = np.inf
        start_idx = int(np.argmin(dists_to_vehicle))
        ahead = points[start_idx:][finite[start_idx:]]
        if ahead.size == 0:
            return False
        hit_dists, _ = self._tree.query(ahead)
        return bool((hit_dists <= self.config.collision_clearance).any())

    def compute(self, position, velocity, waypoints=None) -> CollisionCheckMsg:
        ttc = self.time_to_collision(position, velocity)
        future_collision = self.trajectory_collides(waypoints or [], position)
        if future_collision and not self._last_future_collision:
            self.future_collision_seq += 1
        self._last_future_collision = future_collision
        return CollisionCheckMsg(
            time_to_collision=float(ttc),
            future_collision_seq=int(self.future_collision_seq),
            closest_obstacle_distance=self.distance_to_nearest(position),
        )


class ReferenceAirSim(AirSimInterfaceNode):
    """The array form of the goal and target distances of the physics step,
    with the uncertified ``world.sphere_collides`` as the collision oracle."""

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

        goal = self._route[-1]
        self.outcome.final_distance_to_goal = float(
            np.linalg.norm(state.position - goal)
        )
        target = self._route[self._route_index]
        distance_to_target = float(np.linalg.norm(state.position - target))
        at_final = self._route_index == len(self._route) - 1
        capture = self.mission.goal_tolerance * (
            1.0 if at_final else self.mission.waypoint_capture_factor
        )

        if distance_to_target <= capture:
            if at_final:
                self._finish(success=True, reason="goal reached")
                return
            self._route_index += 1
        if self.world.sphere_collides(state.position, self.vehicle.params.collision_radius):
            self._finish(success=False, reason="collision", collision=True)
        elif state.position[2] < self.world.bounds_lo[2] - 0.5:
            self._finish(success=False, reason="ground impact", collision=True)
        elif not self.world.in_bounds(state.position, margin=-8.0):
            self._finish(success=False, reason="left the world", out_of_bounds=True)
        elif state.time >= self.mission.time_limit:
            self._finish(success=False, reason="mission time limit exceeded", timeout=True)


# --------------------------------------------------------------- comparison
def _bits(value) -> List[Optional[bytes]]:
    """Each float's IEEE-754 bytes, with every NaN mapped to ``None``."""
    flat = np.asarray(value, dtype=float).reshape(-1).tolist()
    return [None if math.isnan(x) else struct.pack("<d", x) for x in flat]


def assert_same(new, ref) -> None:
    """Byte-equal floats (signed zeros included); any two NaNs are equal."""
    if isinstance(ref, (float, bool)):
        assert type(new) is type(ref), (new, ref)
    assert _bits(new) == _bits(ref), (new, ref)


def assert_same_fields(new, ref, fields) -> None:
    for name in fields:
        assert_same(getattr(new, name), getattr(ref, name))


# ----------------------------------------------------------------- strategies
SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 1e6, -1e6, 1e9,
]

ordinary = st.floats(-30.0, 30.0, allow_nan=False)
flipped = st.builds(flip_float_bit, st.floats(-30.0, 30.0, allow_nan=False), st.integers(0, 63))
adversarial = st.one_of(ordinary, flipped, st.sampled_from(SPECIAL), st.floats())


def uniform_vectors(lo, hi):
    """Vectors with full 52-bit mantissas.

    Hypothesis favours short floats such as 1.5, whose norms come out the
    same however they are computed; a last-bit difference between two norm
    formulas shows on about a sixth of uniformly drawn vectors.
    """
    return st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).uniform(lo, hi, 3))


def vectors(elements=adversarial, lo=-30.0, hi=30.0):
    return st.one_of(
        uniform_vectors(lo, hi), st.lists(elements, min_size=3, max_size=3).map(np.array)
    )


def waypoint_lists(max_size=6):
    return st.lists(
        st.builds(
            Waypoint, x=adversarial, y=adversarial, z=adversarial, yaw=adversarial,
            vx=adversarial, vy=adversarial, vz=adversarial,
        ),
        min_size=0,
        max_size=max_size,
    )


def _rng_state(rng: np.random.Generator):
    return rng.bit_generator.state


# ---------------------------------------------------------------- tickmath
class TestTickMath:
    @settings(max_examples=300, deadline=None)
    @given(vectors())
    def test_norm_is_numpy_norm(self, v):
        with np.errstate(all="ignore"):
            assert_same(norm(v), float(np.linalg.norm(v)))
            assert_same(norm(v[:2].copy()), float(np.linalg.norm(v[:2])))

    @settings(max_examples=300, deadline=None)
    @given(adversarial, st.sampled_from([(-1e6, 1e6), (-1e9, 1e9), (-2.5, 2.5), (-0.0, 0.0)]))
    def test_clip_is_numpy_clip(self, x, bounds):
        lo, hi = bounds
        assert_same(clip(x, lo, hi), float(np.clip(x, lo, hi)))


# ---------------------------------------------------------------- dynamics
class TestDynamics:
    @settings(max_examples=300, deadline=None)
    @given(command=vectors())
    def test_sanitize_command(self, command):
        new, ref = QuadrotorDynamics(), ReferenceDynamics()
        assert_same(np.array(new._sanitize_command(command)), ref._sanitize_command(command))

    @settings(max_examples=300, deadline=None)
    @given(
        position=vectors(),
        velocity=vectors(),
        yaw=adversarial,
        commands=st.lists(st.tuples(vectors(), adversarial), min_size=1, max_size=4),
        dt=st.one_of(st.sampled_from([0.05, 0.1, 5e-324, 1e308, math.inf, math.nan]), st.floats(1e-6, 1.0)),
        gust=st.sampled_from([None, 0.0, 1.5]),
        seed=st.integers(0, 2**16),
    )
    def test_step(self, position, velocity, yaw, commands, dt, gust, seed):
        def build(cls):
            wind = (
                None if gust is None
                else WindModel(WindConfig(mean=(1.0, -0.5, 0.1), gust_intensity=gust), seed=seed)
            )
            state = QuadrotorState(position=position.copy(), velocity=velocity.copy(), yaw=yaw)
            return cls(initial_state=state, wind_model=wind)

        new, ref = build(QuadrotorDynamics), build(ReferenceDynamics)
        for command, yaw_rate in commands:
            with np.errstate(all="ignore"):
                new_state = new.step(command.copy(), yaw_rate, dt)
                ref_state = ref.step(command.copy(), yaw_rate, dt)
            assert_same_fields(new_state, ref_state, ("position", "velocity", "yaw", "yaw_rate", "time"))
            assert_same_fields(new, ref, ("distance_travelled", "energy_used"))
        if gust:
            assert _rng_state(new.wind_model._rng) == _rng_state(ref.wind_model._rng)

    def test_invalid_dt_rejected_alike(self):
        for cls in (QuadrotorDynamics, ReferenceDynamics):
            with pytest.raises(ValueError):
                cls().step(np.zeros(3), 0.0, 0.0)


# ------------------------------------------------------------------- world
def _worlds(n_boxes: int):
    boxes = [
        Cuboid.from_center((10.0 + 7.0 * i, (-1) ** i * 3.0, 2.0), (2.0, 3.0, 4.0))
        for i in range(n_boxes)
    ]
    return World(obstacles=list(boxes)), ReferenceWorld(obstacles=list(boxes))


class TestWorld:
    @settings(max_examples=300, deadline=None)
    @given(
        point=vectors(),
        margin=st.one_of(st.sampled_from([0.0, -8.0, 1.0, math.nan]), ordinary),
        radius=st.sampled_from([0.4, 0.0, math.inf]),
        n_boxes=st.integers(0, 5),
    )
    def test_checks(self, point, margin, radius, n_boxes):
        new, ref = _worlds(n_boxes)
        with np.errstate(all="ignore"):
            assert new.in_bounds(point, margin=margin) is ref.in_bounds(point, margin=margin)
            assert_same(new.distance_to_nearest(point), ref.distance_to_nearest(point))
            assert new.sphere_collides(point, radius) is ref.sphere_collides(point, radius)

    def test_integer_points_and_bounds(self):
        new, ref = _worlds(2)
        new.bounds_lo = ref.bounds_lo = (0, -5, 0)
        for point in [(5, 5, 5), (0, -5, 0), (11, 0, 0), (10, 0, 2)]:
            for margin in (0.0, 1, -8.0):
                assert new.in_bounds(point, margin=margin) is ref.in_bounds(point, margin=margin)
            assert_same(new.distance_to_nearest(point), ref.distance_to_nearest(point))


# ----------------------------------------------------------------- sensors
def _states(velocities, times, yaw_rates):
    return [
        QuadrotorState(velocity=v, time=t, yaw_rate=r, yaw=r)
        for v, t, r in zip(velocities, times, yaw_rates)
    ]


class TestSensors:
    @settings(max_examples=200, deadline=None)
    @given(
        velocities=st.lists(vectors(), min_size=1, max_size=4),
        times=st.lists(adversarial, min_size=4, max_size=4),
        yaw_rates=st.lists(adversarial, min_size=4, max_size=4),
        stds=st.sampled_from([(0.02, 0.002), (0.0, 0.0), (0.5, 0.1)]),
        reset_after=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_imu(self, velocities, times, yaw_rates, stds, reset_after, seed):
        config = ImuConfig(accel_noise_std=stds[0], gyro_noise_std=stds[1])
        new, ref = Imu(config, seed=seed), ReferenceImu(config, seed=seed)
        for i, state in enumerate(_states(velocities, times, yaw_rates)):
            if i == reset_after:
                new.reset()
                ref.reset()
            with np.errstate(all="ignore"):
                msg = new.measure(state)
                ref_msg = ref.measure(state)
            assert_same_fields(
                msg, ref_msg, ("linear_acceleration", "angular_velocity", "orientation_yaw")
            )
        assert _rng_state(new._rng) == _rng_state(ref._rng)

    @settings(max_examples=200, deadline=None)
    @given(
        position=vectors(),
        velocity=vectors(),
        stds=st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)]),
        seed=st.integers(0, 2**16),
    )
    def test_odometry(self, position, velocity, stds, seed):
        config = OdometryConfig(position_noise_std=stds[0], velocity_noise_std=stds[1])
        new, ref = OdometrySensor(config, seed=seed), ReferenceOdometrySensor(config, seed=seed)
        state = QuadrotorState(position=position, velocity=velocity, yaw=0.3)
        for _ in range(2):
            msg = new.measure(state)
            assert_same_fields(msg, ref.measure(state), ("position", "velocity", "yaw"))
            # The message owns its arrays: corrupting them leaves the state alone.
            assert msg.position is not state.position and msg.velocity is not state.velocity
        assert _rng_state(new._rng) == _rng_state(ref._rng)


# ----------------------------------------------------------------- tracker
TRACKER_FIELDS = ("current_index", "time_on_target", "skipped_waypoints")
PID_FIELDS = ("integral", "previous_error", "_has_previous")


class TestPathTracker:
    @settings(max_examples=300, deadline=None)
    @given(
        waypoints=waypoint_lists(),
        ticks=st.lists(
            st.tuples(vectors(), adversarial, st.one_of(adversarial, st.just(math.inf))),
            min_size=1,
            max_size=5,
        ),
        dt=st.sampled_from([0.1, 0.05, 5e-324, 1e308, math.inf, math.nan]),
        integral=adversarial,
    )
    def test_compute(self, waypoints, ticks, dt, integral):
        new, ref = PathTracker(TrackerConfig()), ReferenceTracker(TrackerConfig())
        new.pid_y.integral = ref.pid_y.integral = integral
        new_waypoints, ref_waypoints = copy.deepcopy(waypoints), copy.deepcopy(waypoints)
        for position, yaw, ttc in ticks:
            with np.errstate(all="ignore"):
                msg = new.compute(new_waypoints, position, yaw, dt, time_to_collision=ttc)
                ref_msg = ref.compute(ref_waypoints, position, yaw, dt, time_to_collision=ttc)
            assert_same_fields(msg, ref_msg, ("vx", "vy", "vz", "yaw_rate"))
            assert_same_fields(new, ref, TRACKER_FIELDS)
            for name in ("pid_x", "pid_y", "pid_z"):
                assert_same_fields(getattr(new, name), getattr(ref, name), PID_FIELDS)

    def test_long_route_is_tracked_alike(self):
        """A clean 40-tick flight along a route: captures, timeouts and skips."""
        waypoints = [Waypoint(x=2.0 * i, y=0.5 * i, z=2.0, vx=1.0, yaw=0.1 * i) for i in range(12)]
        new, ref = PathTracker(), ReferenceTracker()
        position = np.array([0.0, 0.0, 2.0])
        for tick in range(40):
            msg = new.compute(waypoints, position, 0.05 * tick, 0.1, time_to_collision=3.0 - 0.1 * tick)
            ref_msg = ref.compute(waypoints, position, 0.05 * tick, 0.1, time_to_collision=3.0 - 0.1 * tick)
            assert_same_fields(msg, ref_msg, ("vx", "vy", "vz", "yaw_rate"))
            assert_same_fields(new, ref, TRACKER_FIELDS)
            position = position + np.array([msg.vx, msg.vy, msg.vz]) * 0.4
        assert new.current_index > 3

    def test_capture_on_the_radius_follows_numpy_rounding(self):
        # Where BLAS fuses multiply-adds, np.linalg.norm of this offset rounds
        # to just below the 1.5 m capture radius, and math.hypot and the plain
        # sum of squares round it to 1.5: the capture must follow numpy.
        x, y, z = 0.354975612617578, -1.0784086674212479, 0.9803198766104375
        waypoints = [Waypoint(x=x, y=y, z=z), Waypoint(x=20.0)]
        new, ref = PathTracker(), ReferenceTracker()
        for tracker in (new, ref):
            tracker.compute(waypoints, np.zeros(3), 0.0, 0.1)
        assert new.current_index == ref.current_index

    def test_invalid_dt_rejected_alike(self):
        waypoints = [Waypoint(x=1.0), Waypoint(x=2.0)]
        for tracker in (PathTracker(), ReferenceTracker()):
            with pytest.raises(ValueError):
                tracker.compute(waypoints, np.zeros(3), 0.0, 0.0)


# --------------------------------------------------------- collision check
def _checkers(config: CollisionCheckConfig, centers: np.ndarray):
    new, ref = CollisionChecker(config), ReferenceCollisionChecker(config)
    for checker in (new, ref):
        checker.update_map(centers, resolution=1.0)
    return new, ref


def _composed(checker: CollisionChecker, position, velocity, waypoints):
    """``compute`` spelled as the three public queries it replaces."""
    return ReferenceCollisionChecker.compute(checker, position, velocity, waypoints)


MAP_LO, MAP_HI = (0.0, -8.0, 0.0), (30.0, 8.0, 6.0)
MAP = np.random.default_rng(7).uniform(MAP_LO, MAP_HI, (400, 3))

checker_configs = st.sampled_from(
    [
        CollisionCheckConfig(),
        CollisionCheckConfig(min_speed=0.0),
        # No lookahead sample: the first step already lies past speed * time.
        CollisionCheckConfig(lookahead_time=0.01),
        CollisionCheckConfig(collision_clearance=3.0, lookahead_step=0.25),
    ]
)
# Positions lie inside the mapped box, so that most lookaheads hit an
# obstacle.  Non-finite positions and speeds past ~1e9 make the kd-tree query
# or the lookahead's arange raise, which both sides must do alike; speeds
# between flight speed and ~1e300 would only make the lookahead long and
# slow, so the velocity specials leave them out.
positions = vectors(st.one_of(st.floats(-5.0, 35.0), st.sampled_from(SPECIAL)), MAP_LO, MAP_HI)
velocities = vectors(
    st.one_of(
        st.floats(-6.0, 6.0), st.sampled_from([x for x in SPECIAL if not 1.0 < abs(x) < 1e300])
    ),
    -6.0,
    6.0,
)


def _outcome(fn, *args):
    """``(result, None)``, or ``(None, exception type)`` if ``fn`` raised."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, type(exc)


class TestCollisionChecker:
    @settings(max_examples=300, deadline=None)
    @given(
        config=checker_configs,
        empty_map=st.booleans(),
        ticks=st.lists(st.tuples(positions, velocities, waypoint_lists(8)), min_size=1, max_size=4),
    )
    def test_compute_matches_three_queries(self, config, empty_map, ticks):
        centers = np.zeros((0, 3)) if empty_map else MAP
        new, ref = _checkers(config, centers)
        composed, _ = _checkers(config, centers)
        for position, velocity, waypoints in ticks:
            with np.errstate(all="ignore"):
                msg, error = _outcome(new.compute, position, velocity, waypoints)
                ref_msg, ref_error = _outcome(ref.compute, position, velocity, waypoints)
                own_msg, own_error = _outcome(_composed, composed, position, velocity, waypoints)
            # A raising check fails its mission; the checker is not used again.
            assert error is ref_error is own_error
            if error is not None:
                return
            for other in (ref_msg, own_msg):
                assert_same_fields(
                    msg, other,
                    ("time_to_collision", "future_collision_seq", "closest_obstacle_distance"),
                )
            assert new.future_collision_seq == ref.future_collision_seq == composed.future_collision_seq
            assert new._last_future_collision is ref._last_future_collision

    @settings(max_examples=200, deadline=None)
    @given(position=positions, velocity=velocities, waypoints=waypoint_lists(8))
    def test_public_queries(self, position, velocity, waypoints):
        new, ref = _checkers(CollisionCheckConfig(), MAP)
        with np.errstate(all="ignore"):
            for query, args in (
                ("time_to_collision", (position, velocity)),
                ("trajectory_collides", (waypoints, position)),
                ("distance_to_nearest", (position,)),
            ):
                value, error = _outcome(getattr(new, query), *args)
                ref_value, ref_error = _outcome(getattr(ref, query), *args)
                assert error is ref_error
                if error is None:
                    assert_same(value, ref_value)

    @pytest.mark.parametrize(
        "centers, config, velocity, waypoints",
        [
            # Empty map: no query at all.
            (np.zeros((0, 3)), CollisionCheckConfig(), (3.0, 0.0, 0.0), [Waypoint(x=5.0)]),
            # Speed below min_speed: no lookahead samples, way-points still checked.
            (MAP, CollisionCheckConfig(), (0.1, 0.0, 0.0), [Waypoint(x=5.0), Waypoint(x=9.0)]),
            # A lookahead shorter than one step yields no sample.
            (MAP, CollisionCheckConfig(lookahead_time=0.01), (3.0, 0.0, 0.0), [Waypoint(x=9.0)]),
            # Non-finite way-points are left out of the query.
            (
                MAP,
                CollisionCheckConfig(),
                (3.0, 1.0, 0.0),
                [Waypoint(x=math.nan), Waypoint(x=8.0, y=math.inf), Waypoint(x=12.0, y=-1.0)],
            ),
            # Every way-point non-finite: nothing ahead.
            (MAP, CollisionCheckConfig(), (3.0, 1.0, 0.0), [Waypoint(z=-math.inf)]),
        ],
    )
    def test_corner_cases(self, centers, config, velocity, waypoints):
        new, ref = _checkers(config, centers)
        position, velocity = np.array([5.0, 0.0, 2.0]), np.array(velocity)
        msg = new.compute(position, velocity, waypoints)
        own = _composed(_checkers(config, centers)[0], position, velocity, waypoints)
        for other in (ref.compute(position, velocity, waypoints), own):
            assert_same_fields(
                msg, other,
                ("time_to_collision", "future_collision_seq", "closest_obstacle_distance"),
            )

    def test_blocked_path_and_trajectory_are_reported_alike(self):
        centers = np.array([[6.0, 0.0, 2.0], [6.0, 1.0, 2.0], [20.0, 4.0, 2.0]])
        new, ref = _checkers(CollisionCheckConfig(), centers)
        waypoints = [Waypoint(x=float(x), y=0.2 * x, z=2.0) for x in range(0, 24, 2)]
        waypoints[3].x = math.nan
        for x in (0.0, 1.0, 4.0, 30.0):
            position, velocity = np.array([x, 0.0, 2.0]), np.array([3.0, 0.0, 0.0])
            msg = new.compute(position, velocity, waypoints)
            ref_msg = ref.compute(position, velocity, waypoints)
            assert_same_fields(
                msg, ref_msg,
                ("time_to_collision", "future_collision_seq", "closest_obstacle_distance"),
            )
        assert new.future_collision_seq == 1


# ------------------------------------------------------------ physics step
RADIUS = QuadrotorParams().collision_radius

#: The boxes a walk's world starts with (the first 0-3 of them); grazing
#: moves aim at these boxes also where the world lacks them.
WALK_BOXES = (
    Cuboid.from_center((10.0, 3.0, 2.0), (2.0, 3.0, 4.0)),
    Cuboid.from_center((17.0, -3.0, 2.0), (2.0, 3.0, 4.0)),
    Cuboid.from_center((13.0, 0.0, 6.0), (1.0, 8.0, 1.0)),
)

#: Unit directions off a box: face normals and edge and corner diagonals.
GRAZE_DIRECTIONS = [
    d / np.linalg.norm(d)
    for d in map(np.array, itertools.product((-1.0, 0.0, 1.0), repeat=3))
    if d.any()
]

#: A mission whose goal, limit and ground the walks never reach, so that
#: every step runs the collision test.
FAR_MISSION = MissionConfig(
    start=np.array([0.0, 0.0, 2.0]), goal=np.array([60.0, 25.0, 11.0]),
    goal_tolerance=0.5, time_limit=1e9,
)

walk_moves = st.one_of(
    # An ordinary flight step.
    st.tuples(st.just("step"), uniform_vectors(-0.4, 0.4)),
    # A jump anywhere, as a fault-corrupted state makes one: NaN, +-inf,
    # 1e308, bit flips and ordinary points.
    st.tuples(st.just("teleport"), vectors()),
    # Off a box by RADIUS + k * CERT_SLACK / 2 along a face normal, edge or
    # corner diagonal, flown to from `extra` metres further out.
    st.tuples(
        st.just("graze"), st.integers(0, len(WALK_BOXES) - 1), st.sampled_from(GRAZE_DIRECTIONS),
        st.integers(-3, 4), st.sampled_from([0.0, 0.25, 1.0, 3.0]),
    ),
    # A box added to the live world near the vehicle, possibly around it.
    st.tuples(st.just("add"), uniform_vectors(-1.5, 1.5), uniform_vectors(0.2, 3.0)),
)


def _graze_points(box: Cuboid, direction: np.ndarray, k: int, extra: float):
    lo, hi = np.array(box.lo), np.array(box.hi)
    anchor = np.where(direction > 0, hi, np.where(direction < 0, lo, (lo + hi) / 2))
    clearance = RADIUS + k * CERT_SLACK / 2
    return [anchor + (clearance + extra) * direction, anchor + clearance * direction]


def _fly_still(nodes, position) -> None:
    """One physics step of each node with the vehicle at rest at ``position``."""
    for node in nodes:
        node.vehicle.state = QuadrotorState(
            position=np.array(position, dtype=float), time=node.vehicle.state.time
        )
        node.mission_done = False
        node.outcome.reason = "incomplete"
        with np.errstate(all="ignore"):
            node._physics_step()


class CountingWorld(World):
    """A world that counts its exact clearance queries."""

    queries = 0

    def distance_to_nearest(self, point) -> float:
        self.queries += 1
        return super().distance_to_nearest(point)


class TestPhysicsStep:
    @settings(max_examples=150, deadline=None)
    @given(
        commands=st.lists(
            st.builds(FlightCommandMsg, vx=adversarial, vy=adversarial, vz=adversarial, yaw_rate=adversarial),
            min_size=1,
            max_size=8,
        ),
        waypoints=st.sampled_from([(), ((2.0, 0.5, 1.6),), ((1.0, 0.0, 1.5), (3.0, 1.0, 2.0))]),
    )
    def test_goal_and_route_checks(self, commands, waypoints):
        world = World(obstacles=[Cuboid.from_center((6.0, 0.0, 2.0), (1.0, 1.0, 4.0))])
        mission = MissionConfig(
            start=np.array([0.0, 0.0, 1.5]), goal=np.array([4.0, 1.0, 1.5]),
            goal_tolerance=0.5, time_limit=0.3, waypoints=waypoints,
        )
        new = AirSimInterfaceNode(world, mission=mission)
        ref = ReferenceAirSim(ReferenceWorld(obstacles=list(world.obstacles)), mission=mission)
        ref.vehicle = ReferenceDynamics(initial_state=ref.vehicle.state)
        for command in commands:
            for node in (new, ref):
                node._latest_command = command
                with np.errstate(all="ignore"):
                    node._physics_step()
            assert_same_fields(new.outcome, ref.outcome, ("final_distance_to_goal", "flight_time"))
            assert (new.mission_done, new.outcome.reason, new._route_index) == (
                ref.mission_done, ref.outcome.reason, ref._route_index,
            )
            assert_same(new.state.position, ref.state.position)

    @settings(max_examples=200, deadline=None)
    @given(n_boxes=st.integers(0, len(WALK_BOXES)), moves=st.lists(walk_moves, min_size=1, max_size=30))
    def test_certified_collision_test_matches_the_oracle(self, n_boxes, moves):
        """Random walks: the certified test gives the exact verdict at every step."""
        boxes = list(WALK_BOXES[:n_boxes])
        new = AirSimInterfaceNode(World(obstacles=list(boxes)), mission=FAR_MISSION)
        ref = ReferenceAirSim(ReferenceWorld(obstacles=list(boxes)), mission=FAR_MISSION)
        ref.vehicle = ReferenceDynamics(initial_state=ref.vehicle.state)
        position = FAR_MISSION.start
        for kind, *args in moves:
            if kind == "step":
                points = [position + args[0]]
            elif kind == "teleport":
                points = [args[0]]
            elif kind == "graze":
                index, direction, k, extra = args
                points = _graze_points(WALK_BOXES[index], direction, k, extra)
            else:
                near = position if np.isfinite(position).all() else FAR_MISSION.start
                box = Cuboid.from_center(near + args[0], args[1])
                new.world.add_obstacle(box)
                ref.world.add_obstacle(box)
                points = [position]
            for position in points:
                _fly_still((new, ref), position)
                assert (new.mission_done, new.outcome.reason, new._route_index) == (
                    ref.mission_done, ref.outcome.reason, ref._route_index,
                )
                assert_same(new.state.position, ref.state.position)

    def test_certificate_keeps_the_slack(self):
        # 1.7 - (1.7 - 0.4) rounds to 0.40000000000000013, above the radius,
        # although the vehicle at p touches the box: only the slack sends p
        # to the exact query.
        world = World(obstacles=[Cuboid(lo=(-2.0, -1.0, 0.0), hi=(0.0, 1.0, 4.0))])
        c, p = np.array([1.7, 0.0, 2.0]), np.array([0.4, 0.0, 2.0])
        assert world.distance_to_nearest(c) - abs(c[0] - p[0]) > RADIUS >= world.distance_to_nearest(p)
        node = AirSimInterfaceNode(world, mission=FAR_MISSION)
        _fly_still([node], c)
        assert not node.mission_done
        _fly_still([node], p)
        assert node.outcome.reason == "collision"

    def test_obstacle_added_after_the_certificate_is_not_missed(self):
        world = World(obstacles=[Cuboid.from_center((30.0, 0.0, 2.0), (2.0, 2.0, 2.0))])
        node = AirSimInterfaceNode(world, mission=FAR_MISSION)
        _fly_still([node], (5.0, 0.0, 2.0))
        assert node._clearance > 20.0 and not node.mission_done
        world.add_obstacle(Cuboid.from_center((5.5, 0.0, 2.0), (1.0, 1.0, 1.0)))
        _fly_still([node], (5.1, 0.0, 2.0))
        assert node.outcome.reason == "collision"

    @pytest.mark.parametrize("slacks", [-0.5, 0.0, 0.5, 0.9, 1.1, 2.0])
    def test_only_a_clearance_beyond_the_slack_skips_the_query(self, slacks):
        """Flown straight at a face, the certificate is tight: it answers only
        beyond RADIUS + CERT_SLACK, also in a fork's deep copy."""
        world = CountingWorld(obstacles=[Cuboid(lo=(-2.0, -1.0, 0.0), hi=(0.0, 1.0, 4.0))])
        p = np.array([RADIUS + slacks * CERT_SLACK, 0.0, 2.0])
        c = p + np.array([1.0, 0.0, 0.0])
        certified = bool(world.distance_to_nearest(c) - abs(c[0] - p[0]) > RADIUS + CERT_SLACK)
        assert certified is (slacks > 1)
        node = AirSimInterfaceNode(world, mission=FAR_MISSION)
        _fly_still([node], c)
        fork = copy.deepcopy(node)
        assert fork._clearance_boxes == fork.world._boxes_key
        for flown in (node, fork):
            before = flown.world.queries
            _fly_still([flown], p)
            assert flown.world.queries - before == (0 if certified else 1)
            assert flown.outcome.reason == ("collision" if slacks <= 0 else "incomplete")
