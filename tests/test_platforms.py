"""Tests for the compute platform, redundancy, visual-performance and energy models."""

import pytest

from repro.core.overhead import KERNEL_STAGES
from repro.platforms.compute import (
    DETECTION_BASE_LATENCIES,
    KERNEL_BASE_LATENCIES,
    PLATFORMS,
    get_platform,
)
from repro.platforms.energy import EnergyModel
from repro.platforms.redundancy import (
    REDUNDANCY_OVERHEADS,
    RedundancyScheme,
    apply_redundancy,
)
from repro.platforms.visual_performance import UAV_SPECS, VisualPerformanceModel


class TestComputePlatforms:
    def test_platform_registry(self):
        assert "i9" in PLATFORMS and "tx2" in PLATFORMS
        assert get_platform("cortex-a57") is get_platform("tx2")
        with pytest.raises(KeyError):
            get_platform("a100")

    def test_paper_spec_numbers(self):
        i9 = get_platform("i9")
        tx2 = get_platform("tx2")
        assert i9.core_count == 14 and i9.core_frequency_ghz == pytest.approx(3.3)
        assert tx2.core_count == 4 and tx2.core_frequency_ghz == pytest.approx(2.0)
        assert i9.compute_power_w > tx2.compute_power_w

    def test_tx2_slower_than_i9(self):
        i9, tx2 = get_platform("i9"), get_platform("tx2")
        for kernel in KERNEL_BASE_LATENCIES:
            assert tx2.kernel_latency(kernel) > i9.kernel_latency(kernel)
        assert tx2.scaled_rate(10.0) < 10.0
        assert tx2.velocity_factor < i9.velocity_factor

    def test_table2_latency_anchors(self):
        i9 = get_platform("i9")
        assert i9.kernel_latency("octomap_generation") == pytest.approx(0.289)
        assert i9.kernel_latency("motion_planner") == pytest.approx(0.083)
        assert i9.kernel_latency("pid_control") == pytest.approx(0.00046)

    def test_detection_latency(self):
        i9 = get_platform("i9")
        assert i9.detection_latency("gad") == pytest.approx(DETECTION_BASE_LATENCIES["gad"])
        assert i9.detection_latency("aad") > i9.detection_latency("gad")

    def test_unknown_kernel_gets_default_latency(self):
        assert get_platform("i9").kernel_latency("unknown_kernel") > 0


class TestVisualPerformanceModel:
    def test_velocity_decreases_with_latency(self):
        model = VisualPerformanceModel(UAV_SPECS["airsim"])
        fast = model.max_safe_velocity(0.05)
        slow = model.max_safe_velocity(1.0)
        assert slow < fast

    def test_flight_time_increases_with_latency(self):
        model = VisualPerformanceModel(UAV_SPECS["airsim"])
        assert model.performance(1.0).flight_time > model.performance(0.05).flight_time

    def test_extra_compute_increases_hover_power_and_mass(self):
        model = VisualPerformanceModel(UAV_SPECS["dji_spark"])
        heavier = model.with_extra_compute(extra_mass_kg=0.05, extra_power_w=10.0)
        assert heavier.spec.mass_kg > model.spec.mass_kg
        assert heavier.spec.hover_power_w > model.spec.hover_power_w
        assert heavier.spec.compute_power_w > model.spec.compute_power_w

    def test_extra_compute_reduces_velocity(self):
        model = VisualPerformanceModel(UAV_SPECS["dji_spark"])
        heavier = model.with_extra_compute(extra_mass_kg=0.06, extra_power_w=10.0)
        assert heavier.max_safe_velocity(0.1) < model.max_safe_velocity(0.1)

    def test_braking_acceleration_positive(self):
        for spec in UAV_SPECS.values():
            assert spec.braking_acceleration > 0
            assert spec.thrust_to_weight > 1.0

    def test_energy_is_power_times_time(self):
        model = VisualPerformanceModel(UAV_SPECS["airsim"])
        perf = model.performance(0.2)
        assert perf.flight_energy == pytest.approx(perf.total_power * perf.flight_time)


class TestRedundancy:
    def test_overhead_table_complete(self):
        assert set(REDUNDANCY_OVERHEADS) == set(RedundancyScheme)
        assert REDUNDANCY_OVERHEADS[RedundancyScheme.TMR].compute_power_multiplier == 3.0

    def test_tmr_worse_than_dmr_worse_than_anomaly(self):
        model = VisualPerformanceModel(UAV_SPECS["dji_spark"])
        latency = 0.2
        anomaly = apply_redundancy(model, RedundancyScheme.ANOMALY_DETECTION, latency)
        dmr = apply_redundancy(model, RedundancyScheme.DMR, latency)
        tmr = apply_redundancy(model, RedundancyScheme.TMR, latency)
        assert anomaly.flight_time < dmr.flight_time < tmr.flight_time
        assert anomaly.flight_energy < dmr.flight_energy < tmr.flight_energy

    def test_redundancy_hurts_small_uav_more(self):
        """Fig. 8: TMR's relative penalty is far larger on the DJI-Spark-class MAV."""
        latency = 0.2
        penalties = {}
        for name in ("airsim", "dji_spark"):
            model = VisualPerformanceModel(UAV_SPECS[name])
            anomaly = apply_redundancy(model, RedundancyScheme.ANOMALY_DETECTION, latency)
            tmr = apply_redundancy(model, RedundancyScheme.TMR, latency)
            penalties[name] = tmr.flight_time / anomaly.flight_time
        assert penalties["dji_spark"] > penalties["airsim"]
        assert penalties["airsim"] > 1.0

    def test_anomaly_detection_nearly_free(self):
        model = VisualPerformanceModel(UAV_SPECS["airsim"])
        base = apply_redundancy(model, RedundancyScheme.NONE, 0.2)
        anomaly = apply_redundancy(model, RedundancyScheme.ANOMALY_DETECTION, 0.2)
        assert anomaly.flight_time == pytest.approx(base.flight_time, rel=1e-3)


class TestEnergyAndOverhead:
    def test_mission_energy(self):
        energy = EnergyModel(get_platform("i9")).mission_energy(10.0, rotor_energy_j=4000.0)
        assert energy.compute_energy == pytest.approx(1650.0)
        assert energy.total == pytest.approx(5650.0)

    def test_negative_flight_time_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(get_platform("i9")).mission_energy(-1.0, 0.0)

    def test_kernel_stage_map_covers_pipeline(self):
        assert set(KERNEL_STAGES.values()) == {"perception", "planning", "control"}
