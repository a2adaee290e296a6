"""The flight loop skips the work no record reads: counted, not timed.

A certificate or reader check that silently fell back to the full work would
leave every record and every other test unchanged and only cost time, which
a tier-1 run cannot gate.  These tests count the work instead, on the first
golden mission of the CLI-default campaign (Sparse, mission seed 0) flown
from scratch.
"""

from __future__ import annotations

import pytest

from repro.core import knobs
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.executor import execute_spec
from repro.sim.airsim import AirSimInterfaceNode
from repro.sim.sensors import Imu
from repro.sim.world import World


@pytest.fixture
def counted_golden_flight(monkeypatch):
    """Fly the spec and count physics steps, the exact clearance queries they
    make and IMU samples."""
    counts = {"steps": 0, "step_queries": 0, "imu": 0}
    in_step = []
    physics_step = AirSimInterfaceNode._physics_step
    distance_to_nearest = World.distance_to_nearest
    measure = Imu.measure

    def counted_step(node):
        counts["steps"] += not node.mission_done
        in_step.append(True)
        try:
            physics_step(node)
        finally:
            in_step.pop()

    def counted_query(world, point):
        counts["step_queries"] += bool(in_step)
        return distance_to_nearest(world, point)

    def counted_measure(imu, state):
        counts["imu"] += 1
        return measure(imu, state)

    monkeypatch.setattr(AirSimInterfaceNode, "_physics_step", counted_step)
    monkeypatch.setattr(World, "distance_to_nearest", counted_query)
    monkeypatch.setattr(Imu, "measure", counted_measure)
    spec = Campaign(CampaignConfig(environment="sparse")).golden_specs()[0]
    assert (spec.config.environment, spec.seed) == ("sparse", 0)
    with knobs.temporary({"REPRO_NO_CHECKPOINT": "1"}):
        result = execute_spec(spec)
    assert result.success
    return counts


def test_most_physics_steps_skip_the_clearance_query(counted_golden_flight):
    counts = counted_golden_flight
    assert counts["steps"] > 200
    assert counts["step_queries"] * 5 < counts["steps"], counts


def test_unread_imu_draws_no_sample(counted_golden_flight):
    assert counted_golden_flight["imu"] == 0
