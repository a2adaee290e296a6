"""Tests for the campaign execution engine (specs, executors, resume)."""

from __future__ import annotations

import os

import pytest

from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.executor import (
    DETECTOR_GAUSSIAN,
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    env_worker_count,
    estimate_group_cost,
    execute_spec,
    execute_specs,
    get_executor,
    oversubscription_allowed,
    prefix_groups,
    resolve_worker_count,
)
from repro.core.injector import FaultPlan
from repro.core.results import (
    JsonlResultStore,
    mission_result_to_dict,
    mission_results_equal,
)


def _fast_campaign(**overrides) -> Campaign:
    config = CampaignConfig(
        environment="farm",
        num_golden=overrides.pop("num_golden", 3),
        num_injections_per_stage=overrides.pop("num_injections_per_stage", 1),
        mission_time_limit=60.0,
        **overrides,
    )
    return Campaign(config)


def _small_specs(campaign: Campaign):
    return campaign.golden_specs() + campaign.stage_injection_specs(
        RunSetting.INJECTION
    )


class TestRunSpec:
    def test_key_is_deterministic_and_content_addressed(self):
        campaign = _fast_campaign()
        spec_a = campaign.golden_specs()[0]
        spec_b = campaign.golden_specs()[0]
        assert spec_a.key() == spec_b.key()
        # Index does not enter the key; semantic fields do.
        assert spec_a.key() != campaign.golden_specs()[1].key()

    def test_key_covers_fault_plan_and_overrides(self):
        campaign = _fast_campaign()
        base = RunSpec(config=campaign.config, setting="injection", seed=0)
        plan = FaultPlan(target_type="stage", target="planning", injection_time=3.0)
        with_plan = RunSpec(
            config=campaign.config, setting="injection", seed=0, fault_plan=plan
        )
        with_planner = RunSpec(
            config=campaign.config, setting="injection", seed=0, planner_name="rrt"
        )
        keys = {base.key(), with_plan.key(), with_planner.key()}
        assert len(keys) == 3

    def test_key_covers_detector_training_config(self):
        base = CampaignConfig(environment="farm", training_environments=4)
        other = CampaignConfig(environment="farm", training_environments=6)
        dr_base = RunSpec(config=base, setting="dr", seed=0, detector="gaussian")
        dr_other = RunSpec(config=other, setting="dr", seed=0, detector="gaussian")
        # A detector-bearing spec's result depends on detector training...
        assert dr_base.key() != dr_other.key()
        # ...but detector-free runs resume across detector-config changes.
        golden_base = RunSpec(config=base, setting="golden", seed=0)
        golden_other = RunSpec(config=other, setting="golden", seed=0)
        assert golden_base.key() == golden_other.key()

    def test_specs_are_picklable(self):
        import pickle

        campaign = _fast_campaign()
        specs = campaign.evaluation_specs()
        restored = pickle.loads(pickle.dumps(specs))
        assert [s.key() for s in restored] == [s.key() for s in specs]


class TestWorkerCounts:
    def test_resolve_worker_count(self):
        assert resolve_worker_count(None) == 1
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(5) == 5
        assert resolve_worker_count(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_worker_count(-2)

    def test_env_worker_count(self, monkeypatch):
        monkeypatch.delenv("MAVFI_WORKERS", raising=False)
        assert env_worker_count() == 1
        monkeypatch.setenv("MAVFI_WORKERS", "4")
        assert env_worker_count() == 4
        monkeypatch.setenv("MAVFI_WORKERS", "0")
        assert env_worker_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("MAVFI_WORKERS", "lots")
        with pytest.raises(ValueError):
            env_worker_count()
        monkeypatch.setenv("MAVFI_WORKERS", "-1")
        with pytest.raises(ValueError):
            env_worker_count()

    def test_get_executor_kind(self, monkeypatch):
        monkeypatch.delenv("MAVFI_WORKERS", raising=False)
        assert isinstance(get_executor(), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(3), ParallelExecutor)
        monkeypatch.setenv("MAVFI_WORKERS", "2")
        executor = get_executor()
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 2


class TestSerialParallelEquivalence:
    def test_identical_result_streams(self):
        campaign = _fast_campaign()
        specs = _small_specs(campaign)
        serial = campaign.run_specs(specs, executor=SerialExecutor())
        parallel = campaign.run_specs(specs, executor=ParallelExecutor(workers=2))
        assert len(serial) == len(parallel) == len(specs)
        for left, right in zip(serial, parallel):
            assert mission_results_equal(left, right)

    def test_one_worker_falls_back_to_serial(self):
        campaign = _fast_campaign(num_golden=2)
        specs = campaign.golden_specs()
        serial = campaign.run_specs(specs, executor=SerialExecutor())
        one_worker = campaign.run_specs(specs, executor=ParallelExecutor(workers=1))
        for left, right in zip(serial, one_worker):
            assert mission_results_equal(left, right)

    def test_many_workers_more_than_specs(self):
        campaign = _fast_campaign(num_golden=2)
        specs = campaign.golden_specs()
        results = campaign.run_specs(specs, executor=ParallelExecutor(workers=16))
        assert len(results) == len(specs)
        assert all(r.setting == RunSetting.GOLDEN for r in results)

    def test_parallel_on_result_streams_every_spec(self):
        campaign = _fast_campaign(num_golden=2)
        specs = _small_specs(campaign)
        seen = []
        campaign.run_specs(
            specs,
            executor=ParallelExecutor(workers=2),
            on_result=lambda spec, result: seen.append(spec.key()),
        )
        assert sorted(seen) == sorted(spec.key() for spec in specs)


class TestPrefixAffinityScheduling:
    @pytest.fixture(autouse=True)
    def _engine_defaults(self, monkeypatch):
        """Default engine knobs for every scheduling test.

        The stats-aggregation and spawn tests assert checkpoint bookkeeping,
        which the ``REPRO_NO_CACHE``/``REPRO_NO_CHECKPOINT`` escape hatches
        (exercised suite-wide by a CI leg) would disable.
        Worker processes inherit the cleaned environment on fork and spawn.
        """
        from repro.core import checkpoint
        from repro.pipeline import builder

        monkeypatch.delenv(checkpoint.NO_CHECKPOINT_ENV, raising=False)
        monkeypatch.delenv(builder.NO_CACHE_ENV, raising=False)
        checkpoint.reset_checkpoint_caches()
        builder.reset_world_cache()
        yield
        checkpoint.reset_checkpoint_caches()
        builder.reset_world_cache()

    def test_prefix_groups_partition_and_order(self):
        """Groups cover every spec once, never mix prefixes, and order each
        group by ascending fault-activation time with golden runs last."""
        campaign = _fast_campaign(num_golden=3, num_injections_per_stage=2)
        specs = _small_specs(campaign)
        groups = prefix_groups(list(enumerate(specs)))
        positions = sorted(pos for group in groups for pos, _ in group)
        assert positions == list(range(len(specs)))
        keys = [{spec.prefix_key() for _, spec in group} for group in groups]
        assert all(len(group_keys) == 1 for group_keys in keys)
        flat = [group_keys.pop() for group_keys in keys]
        assert len(set(flat)) == len(flat)
        for group in groups:
            activations = [
                float(s.fault_plan.injection_time) if s.fault_plan else float("inf")
                for _, s in group
            ]
            assert activations == sorted(activations)

    def test_group_tasks_are_lpt_ordered_whole_groups(self):
        campaign = _fast_campaign(num_golden=2, num_injections_per_stage=2)
        specs = _small_specs(campaign)
        executor = ParallelExecutor(workers=2)
        tasks = executor._group_tasks(specs)
        # One whole prefix group per pool task, costliest first (LPT), so the
        # windowed pool rebalances stragglers by whole groups.
        assert sorted(tasks) == sorted(prefix_groups(list(enumerate(specs))))
        costs = [estimate_group_cost(task) for task in tasks]
        assert costs == sorted(costs, reverse=True)

    def test_estimate_group_cost_scales_with_suffix_work(self):
        campaign = _fast_campaign(num_golden=1, num_injections_per_stage=1)
        specs = _small_specs(campaign)
        [group] = prefix_groups(list(enumerate(specs)))
        assert estimate_group_cost(group) > estimate_group_cost(group[:1]) > 0
        assert estimate_group_cost([]) == 0.0

    def test_cpu_clamp_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        campaign = _fast_campaign(num_golden=2)
        specs = campaign.golden_specs()
        executor = ParallelExecutor(workers=4, oversubscribe=False)
        results = campaign.run_specs(specs, executor=executor)
        assert executor.last_effective_workers == 1
        assert executor.last_checkpoint_stats is not None
        assert executor.last_checkpoint_stats.duplicate_cursor_builds == 0
        reference = campaign.run_specs(specs, executor=SerialExecutor())
        for left, right in zip(reference, results):
            assert mission_results_equal(left, right)

    def test_oversubscribe_flag_and_env(self, monkeypatch):
        monkeypatch.setenv("MAVFI_OVERSUBSCRIBE", "1")
        assert oversubscription_allowed()
        assert ParallelExecutor(workers=2).oversubscribe
        monkeypatch.setenv("MAVFI_OVERSUBSCRIBE", "0")
        assert not oversubscription_allowed()
        assert not ParallelExecutor(workers=2).oversubscribe
        # The constructor argument wins over the environment.
        assert ParallelExecutor(workers=2, oversubscribe=True).oversubscribe

    def test_fleet_stats_aggregate_across_workers(self):
        campaign = _fast_campaign(num_golden=2, num_injections_per_stage=1)
        specs = _small_specs(campaign)
        executor = ParallelExecutor(workers=2, oversubscribe=True)
        campaign.run_specs(specs, executor=executor)
        stats = executor.last_checkpoint_stats
        assert stats is not None
        assert executor.last_effective_workers == 2
        injections = sum(1 for s in specs if s.fault_plan is not None)
        assert stats.forks == injections
        assert stats.golden_served == 2
        # The scheduler's invariant: no golden prefix flown twice anywhere in
        # the fleet, and every prefix accounted for exactly once.
        assert stats.duplicate_cursor_builds == 0
        assert set(stats.built_prefixes) == {s.prefix_key() for s in specs}

    def test_spawn_workers_build_every_cursor_once(self):
        """Spawn-started workers build each group's cursor themselves, are
        counted like fork workers, and match the serial stream bit for bit."""
        campaign = _fast_campaign(num_golden=2, num_injections_per_stage=1)
        specs = _small_specs(campaign)
        serial = campaign.run_specs(specs, executor=SerialExecutor())
        executor = ParallelExecutor(
            workers=2, start_method="spawn", oversubscribe=True
        )
        parallel = campaign.run_specs(specs, executor=executor)
        assert len(parallel) == len(serial)
        for left, right in zip(serial, parallel):
            assert mission_results_equal(left, right)
        stats = executor.last_checkpoint_stats
        assert stats is not None
        assert stats.duplicate_cursor_builds == 0
        assert set(stats.built_prefixes) == {s.prefix_key() for s in specs}


class TestDetectorResolution:
    def test_unknown_detector_tag_rejected(self):
        campaign = _fast_campaign()
        spec = RunSpec(
            config=campaign.config, setting="dr", seed=0, detector="mystery"
        )
        with pytest.raises(ValueError):
            execute_spec(spec)

    def test_campaign_rejects_unknown_tag_string(self):
        campaign = _fast_campaign()
        with pytest.raises(ValueError):
            campaign.run_stage_injections(RunSetting.DR_GAUSSIAN, detector="mystery")

    def test_supplied_detector_is_not_retrained(self, monkeypatch, trained_gad):
        # A campaign holding the GAD its D&R(G) specs name must not train the
        # AAD (or anything else) that no pending spec flies.
        def refuse(**kwargs):
            raise AssertionError("trained a detector no pending spec needs")

        monkeypatch.setattr("repro.core.campaign.train_detectors", refuse)
        campaign = Campaign(
            CampaignConfig(
                environment="farm",
                num_golden=1,
                num_injections_per_stage=1,
                mission_time_limit=60.0,
                training_environments=1,
            ),
            gad=trained_gad,
        )
        specs = campaign.stage_injection_specs(
            RunSetting.DR_GAUSSIAN, detector=DETECTOR_GAUSSIAN, stages=("planning",)
        )
        assert len(specs) == 1
        [record] = campaign.run_specs(specs)
        assert record.setting == RunSetting.DR_GAUSSIAN
        assert campaign.aad is None

    def test_custom_detector_object_runs_serially(self, trained_gad):
        campaign = _fast_campaign(num_golden=1)
        records = campaign.run_stage_injections(
            RunSetting.DR_GAUSSIAN,
            detector=trained_gad,
            count_per_stage=1,
            stages=("planning",),
        )
        assert len(records) == 1
        assert records[0].detection_checked_samples > 0

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_custom_detector_object_flies_in_the_pool(self, trained_gad, start_method):
        """A caller's own detector object reaches every pool worker, and the
        pooled records equal the serial ones."""
        campaign = _fast_campaign(num_golden=2)

        def fly(executor):
            return campaign.run_stage_injections(
                RunSetting.DR_GAUSSIAN,
                detector=trained_gad,
                count_per_stage=2,
                stages=("planning",),
                executor=executor,
            )

        serial = fly(SerialExecutor())
        executor = ParallelExecutor(
            workers=2, oversubscribe=True, start_method=start_method
        )
        parallel = fly(executor)
        assert executor.last_effective_workers == 2
        assert len({record.seed for record in serial}) == 2  # two prefix groups
        assert all(record.detection_checked_samples > 0 for record in serial)
        assert len(parallel) == len(serial)
        for left, right in zip(serial, parallel):
            assert mission_results_equal(left, right)

    @pytest.mark.parametrize("cached", [False, True])
    def test_pool_flies_the_campaigns_own_detectors(self, tmp_path, trained_gad, cached):
        """A campaign holding a GAD trained elsewhere flies that very GAD in
        the pool, with or without a detector cache, as it does serially."""
        config = CampaignConfig(
            environment="farm",
            num_golden=2,
            num_injections_per_stage=2,
            mission_time_limit=60.0,
            training_environments=1,
            detector_cache_dir=tmp_path if cached else None,
        )
        campaign = Campaign(config, gad=trained_gad)
        specs = campaign.stage_injection_specs(
            RunSetting.DR_GAUSSIAN, detector=DETECTOR_GAUSSIAN, stages=("planning",)
        )
        assert len({spec.prefix_key() for spec in specs}) == 2
        serial = campaign.run_specs(specs, executor=SerialExecutor())
        executor = ParallelExecutor(workers=2, oversubscribe=True)
        parallel = campaign.run_specs(specs, executor=executor)
        assert campaign.gad is trained_gad
        assert executor.last_effective_workers == 2
        assert len(parallel) == len(serial)
        for left, right in zip(serial, parallel):
            assert mission_results_equal(left, right)

    @pytest.mark.parametrize("detectors", [None, {}])
    def test_missing_detector_raises_before_any_worker_starts(self, monkeypatch, detectors):
        """A tag with no object is the caller's error: no executor trains one."""
        from repro.core import executor as executor_module
        from repro.detection import training

        def refuse(*args, **kwargs):
            raise AssertionError("detectors must come from the caller")

        monkeypatch.setattr(training, "train_detectors", refuse)
        monkeypatch.setattr(executor_module, "_PoolWorker", refuse)
        campaign = _fast_campaign(num_golden=2, num_injections_per_stage=2)
        specs = campaign.stage_injection_specs(
            RunSetting.DR_GAUSSIAN, detector=DETECTOR_GAUSSIAN, stages=("planning",)
        )
        executor = ParallelExecutor(workers=2, oversubscribe=True)
        with pytest.raises(ValueError, match="gaussian"):
            executor.map(specs, detectors=detectors)
        assert executor.last_effective_workers == 0
        with pytest.raises(ValueError, match="gaussian"):
            execute_spec(specs[0], detectors)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_dr_equivalence_with_cached_detectors(self, tmp_path, start_method):
        """Serial and pool D&R runs agree when detectors come from a cache.

        Two prefix groups start a real two-worker pool; under ``spawn`` the
        parent's detectors reach the workers pickled, as their start-up
        payload.
        """
        config = CampaignConfig(
            environment="farm",
            num_golden=2,
            num_injections_per_stage=2,
            mission_time_limit=60.0,
            training_environments=2,
            detector_cache_dir=tmp_path,
        )
        serial_campaign = Campaign(config)
        specs = serial_campaign.stage_injection_specs(
            RunSetting.DR_GAUSSIAN, detector=DETECTOR_GAUSSIAN, stages=("planning",)
        )
        assert len({spec.prefix_key() for spec in specs}) == 2
        serial = serial_campaign.run_specs(specs, executor=SerialExecutor())
        executor = ParallelExecutor(
            workers=2, oversubscribe=True, start_method=start_method
        )
        parallel = Campaign(config).run_specs(specs, executor=executor)
        assert executor.last_effective_workers == 2
        assert len(parallel) == len(serial)
        for left, right in zip(serial, parallel):
            assert mission_results_equal(left, right)


class TestResume:
    def test_resume_skips_completed_specs(self, tmp_path):
        campaign = _fast_campaign()
        specs = _small_specs(campaign)
        store = JsonlResultStore(tmp_path / "results.jsonl")

        first = campaign.run_specs(specs[:2], store=store)
        assert len(store) == 2

        executed = []
        rest = campaign.run_specs(
            specs,
            store=store,
            on_result=lambda spec, result: executed.append(spec.key()),
        )
        # Only the specs missing from the store were re-flown...
        assert sorted(executed) == sorted(spec.key() for spec in specs[2:])
        assert len(store) == len(specs)
        # ...and the merged stream matches a from-scratch serial run.
        scratch = Campaign(campaign.config).run_specs(specs)
        for left, right in zip(rest, scratch):
            assert mission_results_equal(left, right)
        for left, right in zip(first, rest[:2]):
            assert mission_results_equal(left, right)

    def test_resume_tolerates_torn_tail(self, tmp_path):
        campaign = _fast_campaign(num_golden=2)
        specs = campaign.golden_specs()
        store = JsonlResultStore(tmp_path / "results.jsonl")
        campaign.run_specs(specs, store=store)
        # Simulate a campaign killed mid-write: truncate the final record.
        # (Execution -- and therefore file -- order is cache-friendly, not
        # submission order, so derive which spec survived from the store.)
        raw = store.path.read_text()
        store.path.write_text(raw[: len(raw) - 40])
        surviving = store.completed_keys()
        assert len(surviving) == 1
        torn = [spec.key() for spec in specs if spec.key() not in surviving]

        executed = []
        results = campaign.run_specs(
            specs,
            store=store,
            on_result=lambda spec, result: executed.append(spec.key()),
        )
        assert executed == torn
        assert len(results) == 2

    def test_resume_of_complete_dr_campaign_skips_detector_training(
        self, tmp_path, monkeypatch
    ):
        config = CampaignConfig(
            environment="farm",
            num_golden=1,
            num_injections_per_stage=1,
            mission_time_limit=60.0,
            training_environments=2,
            detector_cache_dir=tmp_path / "cache",
        )
        campaign = Campaign(config)
        specs = campaign.stage_injection_specs(
            RunSetting.DR_GAUSSIAN, detector=DETECTOR_GAUSSIAN, stages=("planning",)
        )
        store = JsonlResultStore(tmp_path / "results.jsonl")
        first = campaign.run_specs(specs, store=store)

        def explode(self):
            raise AssertionError("resume must not retrain detectors")

        monkeypatch.setattr(Campaign, "ensure_detectors", explode)
        resumed = Campaign(config).run_specs(specs, store=store)
        for left, right in zip(first, resumed):
            assert mission_results_equal(left, right)

    def test_no_resume_reruns_everything(self, tmp_path):
        campaign = _fast_campaign(num_golden=2)
        specs = campaign.golden_specs()
        store = JsonlResultStore(tmp_path / "results.jsonl")
        campaign.run_specs(specs, store=store)
        executed = []
        campaign.run_specs(
            specs,
            store=store,
            resume=False,
            on_result=lambda spec, result: executed.append(spec.key()),
        )
        assert len(executed) == len(specs)

    def test_duplicate_specs_run_once(self, tmp_path):
        campaign = _fast_campaign(num_golden=1)
        spec = campaign.golden_specs()[0]
        executed = []
        results = execute_specs(
            [spec, spec, spec],
            on_result=lambda s, r: executed.append(s.key()),
        )
        assert len(executed) == 1
        assert len(results) == 3
        assert mission_results_equal(results[0], results[2])
        # Duplicates are independent records, not aliases of one object.
        assert results[0] is not results[2]
        results[0].fault_description = "mutated"
        assert results[2].fault_description != "mutated"


class TestCampaignThroughEngine:
    def test_full_evaluation_parallel_matches_serial(self, tmp_path):
        config = CampaignConfig(
            environment="farm",
            num_golden=2,
            num_injections_per_stage=1,
            mission_time_limit=60.0,
            training_environments=2,
            detector_cache_dir=tmp_path,
        )
        serial = Campaign(config).full_evaluation(executor=SerialExecutor())
        parallel = Campaign(config).full_evaluation(
            executor=ParallelExecutor(workers=2)
        )
        assert serial.settings() == parallel.settings()
        for setting in serial.settings():
            for left, right in zip(
                serial.results(setting), parallel.results(setting)
            ):
                assert mission_results_equal(left, right)

    def test_full_evaluation_flies_every_setting(self, tmp_path):
        config = CampaignConfig(
            environment="farm",
            num_golden=1,
            num_injections_per_stage=1,
            mission_time_limit=60.0,
            training_environments=2,
            detector_cache_dir=tmp_path,
        )
        result = Campaign(config).full_evaluation()
        assert set(result.settings()) == set(RunSetting.ALL)

    def test_kernel_and_state_grouping_preserved(self):
        campaign = _fast_campaign(num_golden=1)
        by_kernel = campaign.run_kernel_injections(
            [("OctoMap", "octomap_generation", "rrt_star")],
            count_per_kernel=1,
            executor=ParallelExecutor(workers=2),
        )
        assert list(by_kernel) == ["OctoMap"]
        assert by_kernel["OctoMap"][0].setting == "kernel:OctoMap"
        by_state = campaign.run_state_injections(
            ["command_vx"], count_per_state=1, executor=ParallelExecutor(workers=2)
        )
        assert by_state["command_vx"][0].fault_target == "command_vx"

    def test_default_executor_attribute_used(self):
        campaign = Campaign(
            CampaignConfig(environment="farm", num_golden=2, mission_time_limit=60.0),
            executor=ParallelExecutor(workers=2),
        )
        runs = campaign.run_golden()
        reference = Campaign(campaign.config).run_golden()
        for left, right in zip(runs, reference):
            assert mission_results_equal(left, right)

    def test_run_one_matches_engine_spec_execution(self):
        campaign = _fast_campaign(num_golden=1)
        spec = campaign.golden_specs()[0]
        via_engine = execute_spec(spec)
        via_run_one = campaign.run_one(seed=spec.seed, setting=spec.setting)
        assert mission_result_to_dict(via_engine) == mission_result_to_dict(
            via_run_one
        )
