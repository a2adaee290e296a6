"""Tests for golden-prefix checkpointing and the construction caches.

The contract under test is *hard bit-identity*: a mission served from a
checkpoint fork (or from any cache layer) must equal a from-scratch run byte
for byte through the JSON round-trip, for every fault type, for detector
(D&R) pipelines, and across serial / parallel / resumed execution.
"""

from __future__ import annotations

import copy
import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import checkpoint
from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.checkpoint import (
    CheckpointManager,
    GoldenPrefixCursor,
    checkpointing_enabled,
)
from repro.core.executor import (
    DETECTOR_AUTOENCODER,
    DETECTOR_CUSTOM,
    DETECTOR_GAUSSIAN,
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    cache_friendly_order,
    execute_spec,
)
from repro.core.injector import FaultPlan
from repro.core.results import (
    JsonlResultStore,
    mission_result_to_dict,
    mission_results_equal,
)
from repro.pipeline import builder
from repro.pipeline.builder import PipelineConfig, build_pipeline
from repro.pipeline.runner import MissionRunner
from repro.sim.memo import memo_stats


@pytest.fixture(autouse=True)
def clean_engine_caches(monkeypatch):
    """Default engine knobs and empty per-process caches for every test."""
    monkeypatch.delenv(checkpoint.NO_CHECKPOINT_ENV, raising=False)
    monkeypatch.delenv(builder.NO_CACHE_ENV, raising=False)
    checkpoint.reset_checkpoint_caches()
    builder.reset_world_cache()
    yield
    checkpoint.reset_checkpoint_caches()
    builder.reset_world_cache()


def _config(**overrides) -> CampaignConfig:
    defaults = dict(
        environment="farm",
        num_golden=2,
        num_injections_per_stage=1,
        mission_time_limit=60.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _scratch(spec, detectors=None, monkeypatch=None):
    """Run a spec with checkpointing and caches disabled (reference path)."""
    assert monkeypatch is not None
    monkeypatch.setenv(checkpoint.NO_CHECKPOINT_ENV, "1")
    monkeypatch.setenv(builder.NO_CACHE_ENV, "1")
    try:
        return execute_spec(spec, detectors)
    finally:
        monkeypatch.delenv(checkpoint.NO_CHECKPOINT_ENV)
        monkeypatch.delenv(builder.NO_CACHE_ENV)


class TestForkBitIdentity:
    @pytest.mark.parametrize(
        "target_type,target,injection_time",
        [
            ("stage", "planning", 5.3),
            ("stage", "perception", 4.0),  # exactly on the runner's grid
            ("stage", "control", 2.6),
            ("kernel", "octomap_generation", 7.77),
            ("kernel", "pid_control", 6.0),
            ("state", "command_vx", 6.1),
        ],
    )
    def test_fault_types(self, monkeypatch, target_type, target, injection_time):
        config = _config()
        plan = FaultPlan(
            target_type=target_type,
            target=target,
            injection_time=injection_time,
            seed=13,
        )
        spec = RunSpec(config=config, setting="injection", seed=0, fault_plan=plan)
        reference = _scratch(spec, monkeypatch=monkeypatch)
        forked = execute_spec(spec)
        assert checkpoint.checkpoint_stats().forks == 1
        assert mission_result_to_dict(forked) == mission_result_to_dict(reference)

    def test_golden_runs_served_from_cursor(self, monkeypatch):
        config = _config()
        spec = RunSpec(config=config, setting=RunSetting.GOLDEN, seed=1)
        reference = _scratch(spec, monkeypatch=monkeypatch)
        served = execute_spec(spec)
        assert checkpoint.checkpoint_stats().golden_served == 1
        assert mission_result_to_dict(served) == mission_result_to_dict(reference)

    def test_dr_pipelines_fork_identically(self, monkeypatch, trained_gad, trained_aad):
        config = _config()
        detectors = {
            DETECTOR_GAUSSIAN: trained_gad,
            DETECTOR_AUTOENCODER: trained_aad,
        }
        for tag in (DETECTOR_GAUSSIAN, DETECTOR_AUTOENCODER):
            plan = FaultPlan(
                target_type="stage", target="planning", injection_time=5.0, seed=3
            )
            spec = RunSpec(
                config=config, setting=f"dr_{tag}", seed=0, fault_plan=plan, detector=tag
            )
            reference = _scratch(spec, detectors, monkeypatch=monkeypatch)
            forked = execute_spec(spec, detectors)
            assert mission_result_to_dict(forked) == mission_result_to_dict(reference)

    def test_custom_detector_specs_fork(self, monkeypatch, trained_gad):
        """A caller's own detector object flies from a fork like GAD and AAD."""
        detectors = {DETECTOR_CUSTOM: trained_gad}
        plan = FaultPlan(target_type="stage", target="planning", injection_time=5.0, seed=3)
        spec = RunSpec(
            config=_config(),
            setting="dr_custom",
            seed=0,
            fault_plan=plan,
            detector=DETECTOR_CUSTOM,
        )
        reference = _scratch(spec, detectors, monkeypatch=monkeypatch)
        forked = execute_spec(spec, detectors)
        assert checkpoint.checkpoint_stats().forks == 1
        assert mission_result_to_dict(forked) == mission_result_to_dict(reference)

    def test_very_early_fault_falls_back_to_scratch(self, monkeypatch):
        config = _config()
        plan = FaultPlan(
            target_type="stage", target="perception", injection_time=0.2, seed=5
        )
        spec = RunSpec(config=config, setting="injection", seed=0, fault_plan=plan)
        reference = _scratch(spec, monkeypatch=monkeypatch)
        result = execute_spec(spec)
        assert checkpoint.checkpoint_stats().forks == 0
        assert mission_result_to_dict(result) == mission_result_to_dict(reference)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        injection_time=st.floats(min_value=0.3, max_value=12.0),
        seed=st.integers(min_value=0, max_value=3),
        fault_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_fork_identity_property(self, monkeypatch, injection_time, seed, fault_seed):
        """Any (activation time, mission seed, fault seed) forks bit-identically."""
        config = _config()
        plan = FaultPlan(
            target_type="stage",
            target="planning",
            injection_time=injection_time,
            seed=fault_seed,
        )
        spec = RunSpec(config=config, setting="injection", seed=seed, fault_plan=plan)
        reference = _scratch(spec, monkeypatch=monkeypatch)
        forked = execute_spec(spec)
        assert mission_result_to_dict(forked) == mission_result_to_dict(reference)


class TestCursorRoundTrip:
    def _cursor(self, seed=0):
        config = _config()
        spec = RunSpec(config=config, setting="injection", seed=seed)
        return GoldenPrefixCursor(spec, detector=None)

    def test_fork_does_not_perturb_the_cursor(self):
        """Snapshot/fork is read-only: forking twice yields identical state."""
        cursor = self._cursor()
        cursor.advance_before(6.0)
        first, t_first = cursor.fork()
        second, t_second = cursor.fork()
        assert t_first == t_second == cursor.t
        assert first is not cursor.handles and second is not cursor.handles
        assert first.graph.clock.now == second.graph.clock.now
        # Driving both forks to completion produces the same mission record.
        results = []
        for handles, loop_t in ((first, t_first), (second, t_second)):
            runner = MissionRunner(handles, time_step=config_time_step)
            results.append(runner.run(resume_from=loop_t))
        assert mission_result_to_dict(results[0]) == mission_result_to_dict(results[1])

    def test_fork_shares_immutables_and_copies_state(self):
        cursor = self._cursor()
        cursor.advance_before(4.0)
        handles, _ = cursor.fork()
        # Shared by design (immutable during missions):
        assert handles.world is cursor.handles.world
        assert handles.platform is cursor.handles.platform
        assert handles.config is cursor.handles.config
        # Copied by design (mutable mission state):
        assert handles.airsim is not cursor.handles.airsim
        assert handles.graph is not cursor.handles.graph
        assert handles.graph.clock is not cursor.handles.graph.clock
        for name, kernel in handles.kernels.items():
            assert kernel is not cursor.handles.kernels[name]
        # The copied graph is self-consistent: its nodes point at it, not at
        # the cursor's graph.
        for node in handles.graph.nodes:
            assert node.graph is handles.graph

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(pause=st.floats(min_value=0.5, max_value=10.0))
    def test_advance_pauses_on_the_runner_grid(self, pause):
        cursor = self._cursor(seed=1)
        cursor.advance_before(pause)
        # The pause point is on the accumulated 0.25 s grid, strictly before
        # the requested limit, and the clock agrees with the loop accumulator.
        assert cursor.t < pause
        assert cursor.t == cursor.handles.graph.clock.now
        steps = round(cursor.t / cursor.time_step)
        assert cursor.t == pytest.approx(steps * cursor.time_step)

    def test_detector_identity_guards_cursor_reuse(self, trained_gad):
        """A cursor never serves a spec holding a different detector object."""
        config = _config()
        plan = FaultPlan(
            target_type="stage", target="planning", injection_time=5.0, seed=1
        )
        spec = RunSpec(
            config=config,
            setting="dr_gaussian",
            seed=0,
            fault_plan=plan,
            detector=DETECTOR_GAUSSIAN,
        )
        manager = CheckpointManager()
        first = manager.run_spec(spec, trained_gad)
        other_detector = copy.deepcopy(trained_gad)
        second = manager.run_spec(spec, other_detector)
        assert manager.stats.cursor_restarts == 1
        assert mission_results_equal(first, second)


@pytest.fixture
def live_cursors(monkeypatch):
    """Counts the :class:`GoldenPrefixCursor` objects still alive."""
    refs = []
    original = GoldenPrefixCursor.__init__

    def tracking(cursor, *args, **kwargs):
        original(cursor, *args, **kwargs)
        refs.append(weakref.ref(cursor))

    monkeypatch.setattr(GoldenPrefixCursor, "__init__", tracking)

    def count():
        gc.collect()
        return sum(1 for ref in refs if ref() is not None)

    return count


def _injection(seed, injection_time=5.0):
    plan = FaultPlan(
        target_type="stage", target="planning", injection_time=injection_time, seed=7
    )
    return RunSpec(config=_config(), setting="injection", seed=seed, fault_plan=plan)


class TestOneSlotManager:
    def test_golden_spec_takes_the_cursor_without_a_copy(self, monkeypatch, live_cursors):
        forks = []
        original_fork = GoldenPrefixCursor.fork

        def counting_fork(cursor):
            forks.append(cursor.t)
            return original_fork(cursor)

        monkeypatch.setattr(GoldenPrefixCursor, "fork", counting_fork)
        golden = RunSpec(config=_config(), setting=RunSetting.GOLDEN, seed=0)
        reference = _scratch(golden, monkeypatch=monkeypatch)
        execute_spec(_injection(seed=0))
        assert len(forks) == 1 and live_cursors() == 1
        served = execute_spec(golden)
        stats = checkpoint.checkpoint_stats()
        assert len(forks) == 1
        assert live_cursors() == 0
        assert stats.golden_served == 1
        assert stats.cursor_hits == 1 and stats.cursors_built == 1
        assert mission_result_to_dict(served) == mission_result_to_dict(reference)

    def test_back_to_back_groups_hold_one_cursor_at_a_time(self, live_cursors):
        for seed in (0, 1):
            for injection_time in (3.0, 6.0):
                execute_spec(_injection(seed, injection_time))
                assert live_cursors() == 1
        stats = checkpoint.checkpoint_stats()
        assert stats.cursors_built == 2 and stats.forks == 4

    def test_flying_a_released_group_again_rebuilds_its_cursor(self, monkeypatch):
        first, other = _injection(seed=0), _injection(seed=1)
        again = _injection(seed=0, injection_time=6.0)
        references = [_scratch(spec, monkeypatch=monkeypatch) for spec in (first, again)]
        got_first = execute_spec(first)
        execute_spec(other)
        stats = checkpoint.checkpoint_stats()
        assert stats.cursors_built == 2
        got_again = execute_spec(again)
        assert stats.cursors_built == 3 and stats.duplicate_cursor_builds == 1
        for got, reference in zip((got_first, got_again), references):
            assert mission_result_to_dict(got) == mission_result_to_dict(reference)

    def test_discard_of_the_held_key_empties_the_slot(self, live_cursors):
        spec = _injection(seed=0)
        execute_spec(spec)
        checkpoint.manager().discard(_injection(seed=1).prefix_key())
        assert live_cursors() == 1
        checkpoint.manager().discard(spec.prefix_key())
        assert live_cursors() == 0
        execute_spec(_injection(seed=0, injection_time=6.0))
        stats = checkpoint.checkpoint_stats()
        assert stats.cursors_built == 2 and stats.cursor_restarts == 0

class TestManagerOrdering:
    def test_out_of_order_fork_restarts_the_cursor(self, monkeypatch):
        config = _config()
        late = FaultPlan(target_type="stage", target="planning", injection_time=7.0, seed=1)
        early = FaultPlan(target_type="stage", target="planning", injection_time=3.0, seed=2)
        spec_late = RunSpec(config=config, setting="injection", seed=0, fault_plan=late)
        spec_early = RunSpec(config=config, setting="injection", seed=0, fault_plan=early)

        ref_late = _scratch(spec_late, monkeypatch=monkeypatch)
        ref_early = _scratch(spec_early, monkeypatch=monkeypatch)

        got_late = execute_spec(spec_late)
        got_early = execute_spec(spec_early)
        stats = checkpoint.checkpoint_stats()
        assert stats.cursor_restarts == 1
        assert mission_result_to_dict(got_late) == mission_result_to_dict(ref_late)
        assert mission_result_to_dict(got_early) == mission_result_to_dict(ref_early)

    def test_cache_friendly_order_groups_prefixes(self):
        config = _config(num_golden=2, num_injections_per_stage=2)
        campaign = Campaign(config)
        specs = campaign.evaluation_specs()
        ordered = cache_friendly_order(specs)
        assert sorted(s.key() for s in ordered) == sorted(s.key() for s in specs)
        # Within each prefix group: ascending activation times, golden last.
        seen_groups = []
        for spec in ordered:
            group = spec.prefix_key()
            if not seen_groups or seen_groups[-1][0] != group:
                seen_groups.append((group, []))
            activation = (
                spec.fault_plan.injection_time
                if spec.fault_plan is not None
                else float("inf")
            )
            seen_groups[-1][1].append(activation)
        assert len(seen_groups) == len({s.prefix_key() for s in specs})
        for _, activations in seen_groups:
            assert activations == sorted(activations)
        # Prefix groups differing only in their detector setting (the FI,
        # D&R(G) and D&R(A) groups of one mission seed) are adjacent.
        detectors_by_flight = {}
        for spec in specs:
            detectors_by_flight.setdefault(spec.flight_key(), set()).add(spec.detector)
        assert set(map(frozenset, detectors_by_flight.values())) == {
            frozenset({None, DETECTOR_GAUSSIAN, DETECTOR_AUTOENCODER})
        }
        flights = [spec.flight_key() for spec in ordered]
        changes = sum(1 for a, b in zip(flights, flights[1:]) if a != b)
        assert changes == len(detectors_by_flight) - 1

    def test_prefix_key_shared_by_golden_and_injections(self):
        config = _config()
        golden = RunSpec(config=config, setting=RunSetting.GOLDEN, seed=0)
        plan = FaultPlan(target_type="stage", target="planning", injection_time=5.0)
        injected = RunSpec(config=config, setting="injection", seed=0, fault_plan=plan)
        assert golden.prefix_key() == injected.prefix_key()
        # Different seed or detector means a different prefix.
        other_seed = RunSpec(config=config, setting=RunSetting.GOLDEN, seed=1)
        with_detector = RunSpec(
            config=config, setting="dr", seed=0, detector=DETECTOR_GAUSSIAN
        )
        assert golden.prefix_key() != other_seed.prefix_key()
        assert golden.prefix_key() != with_detector.prefix_key()


class TestEscapeHatches:
    def test_no_checkpoint_env_disables_forking(self, monkeypatch):
        monkeypatch.setenv(checkpoint.NO_CHECKPOINT_ENV, "1")
        assert not checkpointing_enabled()
        config = _config()
        plan = FaultPlan(target_type="stage", target="planning", injection_time=5.0)
        spec = RunSpec(config=config, setting="injection", seed=0, fault_plan=plan)
        execute_spec(spec)
        stats = checkpoint.checkpoint_stats()
        assert stats.forks == 0 and stats.cursors_built == 0

    def test_no_cache_env_disables_world_cache(self, monkeypatch):
        monkeypatch.setenv(builder.NO_CACHE_ENV, "1")
        a = builder.world_for("farm", 0)
        b = builder.world_for("farm", 0)
        assert a is not b
        monkeypatch.delenv(builder.NO_CACHE_ENV)
        c = builder.world_for("farm", 0)
        assert builder.world_for("farm", 0) is c


class TestConstructionCaches:
    def test_world_cache_shares_instances_per_key(self):
        a = builder.world_for("farm", 0)
        assert builder.world_for("farm", 0) is a
        assert builder.world_for("farm", 1) is not a
        stats = builder.world_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_build_pipeline_uses_the_world_cache(self):
        config = PipelineConfig(environment="farm", seed=0, mission_time_limit=60.0)
        first = build_pipeline(config)
        second = build_pipeline(config)
        assert first.world is second.world

    def test_detector_fork_does_not_leak_state_between_runs(
        self, monkeypatch, trained_gad, trained_aad
    ):
        """Regression: per-run detector state must not leak run-to-run.

        The serial path used to deep-copy the detector per run; it now forks
        it.  Running the same D&R spec repeatedly from one live detector
        object must keep producing the fresh-detector result.
        """
        config = _config()
        detectors = {
            DETECTOR_GAUSSIAN: trained_gad,
            DETECTOR_AUTOENCODER: trained_aad,
        }
        for tag in (DETECTOR_GAUSSIAN, DETECTOR_AUTOENCODER):
            plan = FaultPlan(
                target_type="stage", target="control", injection_time=4.5, seed=9
            )
            spec = RunSpec(
                config=config, setting=f"dr_{tag}", seed=0, fault_plan=plan, detector=tag
            )
            reference = _scratch(spec, detectors, monkeypatch=monkeypatch)
            first = execute_spec(spec, detectors)
            second = execute_spec(spec, detectors)
            assert mission_result_to_dict(first) == mission_result_to_dict(reference)
            assert mission_result_to_dict(second) == mission_result_to_dict(reference)

    def test_gad_fork_matches_deepcopy_semantics(self, trained_gad):
        fork = trained_gad.fork_for_run()
        assert fork is not trained_gad
        for feature, cgad in trained_gad.detectors.items():
            forked = fork.detectors[feature]
            assert forked is not cgad
            assert forked.model.count == cgad.model.count
            assert forked.model.mean == cgad.model.mean
            assert forked.model.std == cgad.model.std
        # Mutating the fork leaves the source untouched.
        any_feature = next(iter(fork.detectors))
        fork.detectors[any_feature].model.update(1e9)
        assert fork.detectors[any_feature].model.count != (
            trained_gad.detectors[any_feature].model.count
        )

    def test_aad_fork_shares_network_but_not_window(self, trained_aad):
        fork = trained_aad.fork_for_run()
        assert fork.autoencoder is trained_aad.autoencoder
        assert fork.threshold == trained_aad.threshold
        fork._latest_deltas["waypoint_x"] = 3.0
        fork.alarm_count = 5
        assert trained_aad._latest_deltas.get("waypoint_x") is None
        assert trained_aad.alarm_count == 0


class TestAbortGrace:
    def _stuck_pipeline(self, time_limit=3.0):
        """A pipeline whose mission never self-terminates (runner must abort)."""
        config = PipelineConfig(
            environment="farm", seed=0, mission_time_limit=time_limit
        )
        handles = build_pipeline(config)
        # Disable the vehicle-side time-limit check so only the runner's hard
        # limit can end the mission.
        handles.airsim.mission.time_limit = float("inf")
        handles.airsim.mission.goal_tolerance = 0.0
        return handles

    def test_runner_abort_grace_is_configurable(self):
        for grace in (0.0, 2.0):
            handles = self._stuck_pipeline(time_limit=3.0)
            runner = MissionRunner(handles, abort_grace=grace)
            result = runner.run()
            assert result.outcome.reason == "runner time limit"
            assert result.flight_time == pytest.approx(3.0 + grace, abs=0.5)

    def test_runner_rejects_negative_grace(self, built_pipeline):
        with pytest.raises(ValueError):
            MissionRunner(built_pipeline, abort_grace=-1.0)

    def test_campaign_config_carries_abort_grace_into_key(self):
        base = RunSpec(config=_config(), setting="golden", seed=0)
        custom = RunSpec(config=_config(abort_grace=9.0), setting="golden", seed=0)
        assert base.key() != custom.key()
        assert base.prefix_key() != custom.prefix_key()

    def test_abort_grace_reaches_the_runner_through_the_engine(self, monkeypatch):
        captured = {}
        original_init = MissionRunner.__init__

        def spy(self, handles, time_step=0.25, abort_grace=5.0):
            captured["abort_grace"] = abort_grace
            original_init(self, handles, time_step=time_step, abort_grace=abort_grace)

        monkeypatch.setattr(MissionRunner, "__init__", spy)
        spec = RunSpec(config=_config(abort_grace=7.5), setting="golden", seed=0)
        execute_spec(spec)
        assert captured["abort_grace"] == 7.5


class TestEndToEndEquivalence:
    def test_evaluation_identical_across_engines(self, monkeypatch, tmp_path):
        """Serial scratch / serial cached+checkpointed / {1,2,4}-worker
        parallel / store-resumed streams are all bit-identical, and the
        prefix-affinity scheduler never rebuilds a golden prefix."""
        config = CampaignConfig(
            environment="farm",
            num_golden=2,
            num_injections_per_stage=1,
            mission_time_limit=60.0,
            training_environments=2,
            detector_cache_dir=tmp_path / "cache",
        )
        specs = Campaign(config).evaluation_specs()

        def fly(executor, store=None):
            return Campaign(config).run_specs(specs, executor=executor, store=store)

        monkeypatch.setenv(checkpoint.NO_CHECKPOINT_ENV, "1")
        monkeypatch.setenv(builder.NO_CACHE_ENV, "1")
        scratch = fly(SerialExecutor())
        monkeypatch.delenv(checkpoint.NO_CHECKPOINT_ENV)
        monkeypatch.delenv(builder.NO_CACHE_ENV)

        checkpoint.reset_checkpoint_caches()
        builder.reset_world_cache()
        cached = fly(SerialExecutor())
        assert checkpoint.checkpoint_stats().forks > 0
        # The scratch run above flew with the memos off, so the byte
        # comparison below also covers plans, depth images, point clouds and
        # collision verdicts served from them.
        assert {name: stats["hits"] > 0 for name, stats in memo_stats().items()} == {
            "collision_check": True,
            "depth_capture": True,
            "motion_plan": True,
            "point_cloud": True,
        }

        parallel_runs = {}
        for workers in (1, 2, 4):
            checkpoint.reset_checkpoint_caches()
            executor = ParallelExecutor(workers=workers)
            parallel_runs[workers] = fly(executor)
            # The scheduler's invariant: whole prefix groups per worker, so
            # no golden prefix is ever flown twice across the fleet.
            assert executor.last_checkpoint_stats is not None
            assert executor.last_checkpoint_stats.duplicate_cursor_builds == 0

        store = JsonlResultStore(tmp_path / "results.jsonl")
        streamed = fly(SerialExecutor(), store=store)
        # Interrupt-and-resume: drop the tail of the store and re-run; the
        # resumed stream must splice stored and freshly-forked results into
        # the same record sequence.
        raw = store.path.read_text().splitlines(keepends=True)
        store.path.write_text("".join(raw[: len(raw) // 2]))
        checkpoint.reset_checkpoint_caches()
        resumed = fly(SerialExecutor(), store=store)

        assert {record.setting for record in scratch} == set(RunSetting.ALL)
        for other in (cached, streamed, resumed, *parallel_runs.values()):
            assert len(other) == len(scratch)
            for left, right in zip(scratch, other):
                assert mission_results_equal(left, right)


# Shared by TestCursorRoundTrip (module-level so the helper stays terse).
config_time_step = CampaignConfig().time_step
