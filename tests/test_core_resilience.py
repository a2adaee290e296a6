"""Tests for the campaign resilience engine.

Failure capture, deterministic retry, hang quarantine, pool self-healing and
the chaos harness -- including the headline invariant: a chaos-ridden
campaign converges to the same surviving records as a clean run, serial and
parallel alike.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import executor as executor_module
from repro.core import knobs
from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.executor import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    execute_spec,
    execute_specs,
)
from repro.core.resilience import (
    OUTCOME_FAILED,
    OUTCOME_QUARANTINED,
    OUTCOME_RETRIED,
    PASS_THROUGH,
    ChaosMissionError,
    ChaosSchedule,
    FailureRecord,
    ResiliencePolicy,
    failure_from_exception,
    hang_failure,
)
from repro.core.results import JsonlResultStore, mission_result_to_dict


def _fast_campaign(**overrides) -> Campaign:
    config = CampaignConfig(
        environment="farm",
        num_golden=overrides.pop("num_golden", 4),
        num_injections_per_stage=overrides.pop("num_injections_per_stage", 2),
        mission_time_limit=60.0,
        **overrides,
    )
    return Campaign(config)


def _specs(campaign: Campaign):
    return campaign.golden_specs() + campaign.stage_injection_specs(
        RunSetting.INJECTION
    )


def _result_dicts(store: JsonlResultStore):
    return {
        key: mission_result_to_dict(result)
        for key, result in store.load_results().items()
    }


# ------------------------------------------------------------ failure records
class TestFailureRecord:
    def test_round_trip_and_identity(self):
        spec = _fast_campaign().golden_specs()[0]
        try:
            raise ValueError("boom")
        except ValueError as exc:
            record = failure_from_exception(spec, exc, attempt=1, outcome=OUTCOME_RETRIED)
        assert record.spec_key == spec.key()
        assert record.error_type == "ValueError"
        assert record.attempt == 1
        assert len(record.traceback_digest) == 16
        clone = FailureRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.identity() == record.identity()

    def test_digest_is_deterministic_across_processes(self):
        # The digest must not include memory addresses or absolute paths.
        spec = _fast_campaign().golden_specs()[0]

        def capture():
            try:
                raise ValueError("boom")
            except ValueError as exc:
                return failure_from_exception(spec, exc, 0, OUTCOME_RETRIED)

        assert capture().traceback_digest == capture().traceback_digest

    def test_digest_names_the_raising_function_not_its_line(self):
        spec = _fast_campaign().golden_specs()[0]

        def capture(early):
            try:
                if early:
                    raise ValueError("boom")
                raise ValueError("boom")
            except ValueError as exc:
                return failure_from_exception(spec, exc, 0, OUTCOME_RETRIED).traceback_digest

        def capture_elsewhere():
            try:
                raise ValueError("boom")
            except ValueError as exc:
                return failure_from_exception(spec, exc, 0, OUTCOME_RETRIED).traceback_digest

        assert capture(early=True) == capture(early=False)
        assert capture_elsewhere() != capture(early=True)

    def test_hang_failure_shape(self):
        spec = _fast_campaign().golden_specs()[0]
        record = hang_failure(spec, strike=2, outcome=OUTCOME_QUARANTINED)
        assert record.error_type == "HangTimeout"
        assert record.outcome == OUTCOME_QUARANTINED
        assert record.attempt == 2


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(task_timeout=-1.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(quarantine_strikes=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_pool_respawns=-1)

    def test_from_knobs_defaults_and_overrides(self):
        assert ResiliencePolicy.from_knobs() == ResiliencePolicy()
        with knobs.temporary(
            {
                "REPRO_MAX_ATTEMPTS": "5",
                "REPRO_TASK_TIMEOUT": "2.5",
                "REPRO_QUARANTINE_STRIKES": "1",
                "REPRO_POOL_RESPAWNS": "0",
            }
        ):
            policy = ResiliencePolicy.from_knobs()
        assert policy.max_attempts == 5
        assert policy.task_timeout == 2.5
        assert policy.quarantine_strikes == 1
        # A zero respawn budget is a valid setting, not "use the default".
        assert policy.max_pool_respawns == 0


# ------------------------------------------------------------- chaos schedule
class TestChaosSchedule:
    def test_from_knobs_unset_is_none(self):
        with knobs.temporary({"REPRO_CHAOS": None}):
            assert ChaosSchedule.from_knobs() is None

    def test_from_knobs_parses_rates(self):
        with knobs.temporary(
            {"REPRO_CHAOS": "raise=0.5,crash=0.25", "REPRO_CHAOS_SEED": "9"}
        ):
            schedule = ChaosSchedule.from_knobs()
        assert schedule == ChaosSchedule(
            raise_rate=0.5, crash_rate=0.25, seed=9
        )

    def test_decisions_are_deterministic(self):
        a = ChaosSchedule(raise_rate=0.5, crash_rate=0.5, hang_rate=0.5, seed=3)
        b = ChaosSchedule(raise_rate=0.5, crash_rate=0.5, hang_rate=0.5, seed=3)
        for key in ("k1", "k2", "k3"):
            for attempt in range(3):
                assert a.mission_raises(key, attempt) == b.mission_raises(key, attempt)
                assert a.crashes(key, attempt) == b.crashes(key, attempt)
            assert a.hangs(key) == b.hangs(key)

    def test_hang_is_attempt_independent_and_kinds_disjoint(self):
        schedule = ChaosSchedule(raise_rate=0.5, crash_rate=0.5, hang_rate=0.5, seed=0)
        keys = [f"key-{i}" for i in range(64)]
        raises = {k for k in keys if schedule.mission_raises(k, 0)}
        crashes = {k for k in keys if schedule.crashes(k, 0)}
        assert raises and crashes and raises != crashes
        hangs = {k for k in keys if schedule.hangs(k)}
        assert hangs

    def test_shard_action_rates(self):
        schedule = ChaosSchedule(torn_rate=1.0, seed=0)
        assert schedule.shard_action("any") == "torn"
        schedule = ChaosSchedule(garbage_rate=1.0, seed=0)
        assert schedule.shard_action("any") == "garbage"
        assert ChaosSchedule(seed=0).shard_action("any") is None


# ------------------------------------------------------- store failure lines
class TestStoreFailures:
    def test_append_and_load_failures(self, tmp_path):
        store = JsonlResultStore(tmp_path / "r.jsonl")
        payload = {"spec_key": "abc", "error_type": "ValueError", "outcome": "failed"}
        store.append_failure("abc", payload, meta={"setting": "golden"})
        failures = store.load_failures()
        assert len(failures) == 1
        assert failures[0]["failure"] == payload
        assert failures[0]["meta"] == {"setting": "golden"}
        # Failure lines are invisible to the mission-facing API.
        assert len(store) == 0
        assert store.completed_keys() == set()
        assert store.load_results() == {}

    def test_shard_health_distinguishes_torn_from_corrupt(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = JsonlResultStore(path)
        campaign = _fast_campaign()
        spec_a, spec_b = _specs(campaign)[:2]
        store.append(spec_a.key(), execute_spec(spec_a))
        # Mid-file garbage (a newline-terminated undecodable line) is real
        # corruption...
        store.append_junk("garbage")
        store.append(spec_b.key(), execute_spec(spec_b))
        # ...while an unterminated tail is just a torn final write.
        store.append_junk("torn")
        health = JsonlResultStore(path).shard_health()
        assert health.intact == 2
        assert health.corrupt == 1
        assert health.torn == 1
        assert not health.is_clean
        # Both intact records still load; junk never aliases a key.
        assert set(JsonlResultStore(path).completed_keys()) == {
            spec_a.key(), spec_b.key(),
        }

    def test_clean_shard_health(self, tmp_path):
        store = JsonlResultStore(tmp_path / "r.jsonl")
        campaign = _fast_campaign()
        spec = _specs(campaign)[0]
        store.append(spec.key(), execute_spec(spec))
        store.append_failure(spec.key(), {"error_type": "X"})
        health = store.shard_health()
        assert health.intact == 1
        assert health.failures == 1
        assert health.torn == 0 and health.corrupt == 0
        assert health.is_clean

    def test_kill_mid_write_resume_loses_nothing(self, tmp_path):
        path = tmp_path / "r.jsonl"
        campaign = _fast_campaign()
        specs = _specs(campaign)
        store = JsonlResultStore(path)
        half = specs[: len(specs) // 2]
        execute_specs(half, store=store)
        store.append_junk("torn")  # the simulated kill-mid-write

        resumed = JsonlResultStore(path)
        before_keys = set(resumed.completed_keys())
        assert before_keys == {spec.key() for spec in half}
        execute_specs(specs, store=resumed)
        final = JsonlResultStore(path)
        keys = [record["key"] for record in final.load_records() if "result" in record]
        # Zero lost and zero duplicated: every spec exactly once.
        assert sorted(keys) == sorted({spec.key() for spec in specs})


# --------------------------------------------------------- serial resilience
class TestSerialResilience:
    def test_retried_spec_is_bit_identical(self):
        campaign = _fast_campaign()
        specs = _specs(campaign)
        clean = [mission_result_to_dict(execute_spec(spec)) for spec in specs]
        # raise_rate=0.4: some specs fail attempt 0 and are retried.
        policy = ResiliencePolicy(max_attempts=4)
        failures = []
        with knobs.temporary({"REPRO_CHAOS": "raise=0.4", "REPRO_CHAOS_SEED": "11"}):
            results = SerialExecutor().map(
                specs, policy=policy, on_failure=failures.append
            )
        retried = 0
        for spec, result, clean_dict in zip(specs, results, clean):
            assert result is not None
            if any(f.spec_key == spec.key() for f in failures):
                retried += 1
            assert mission_result_to_dict(result) == clean_dict
        assert retried > 0, "chaos schedule never fired; test is vacuous"
        assert all(f.error_type == "ChaosMissionError" for f in failures)

    def test_attempt_exhaustion_yields_failed_record(self):
        campaign = _fast_campaign()
        spec = _specs(campaign)[0]
        policy = ResiliencePolicy(max_attempts=3)
        failures = []
        with knobs.temporary({"REPRO_CHAOS": "raise=1.0", "REPRO_CHAOS_SEED": "0"}):
            results = SerialExecutor().map(
                [spec], policy=policy, on_failure=failures.append
            )
        assert results == [None]
        assert [f.outcome for f in failures] == [
            OUTCOME_RETRIED, OUTCOME_RETRIED, OUTCOME_FAILED,
        ]
        assert [f.attempt for f in failures] == [1, 2, 3]  # 1-based attempts

    def test_hang_quarantine_ladder(self):
        campaign = _fast_campaign()
        spec = _specs(campaign)[0]
        policy = ResiliencePolicy(quarantine_strikes=3)
        failures = []
        with knobs.temporary({"REPRO_CHAOS": "hang=1.0", "REPRO_CHAOS_SEED": "0"}):
            results = SerialExecutor().map(
                [spec], policy=policy, on_failure=failures.append
            )
        assert results == [None]
        assert [f.outcome for f in failures] == [
            OUTCOME_RETRIED, OUTCOME_RETRIED, OUTCOME_QUARANTINED,
        ]
        assert all(f.error_type == "HangTimeout" for f in failures)

    def test_real_exception_is_captured_not_raised(self):
        campaign = _fast_campaign()
        # A detector-bearing spec, so execute_spec really consults the
        # mapping below (a detector-free spec never would).
        spec = RunSpec(
            config=campaign.config, setting="dr", seed=0, detector="gaussian"
        )
        calls = []

        class ExplodingDetectors(dict):
            def get(self, *args, **kwargs):
                calls.append(args)
                raise RuntimeError("detector blew up")

        failures = []
        results = SerialExecutor().map(
            [spec],
            detectors=ExplodingDetectors(),
            policy=ResiliencePolicy(max_attempts=1),
            on_failure=failures.append,
        )
        assert len(calls) == 1
        assert results == [None]
        assert [(f.error_type, f.message, f.outcome) for f in failures] == [
            ("RuntimeError", "detector blew up", OUTCOME_FAILED),
        ]


# -------------------------------------------------------- chaos convergence
CHAOS_ENV = {
    "REPRO_CHAOS": "raise=0.4,crash=0.2,hang=0.15",
    "REPRO_CHAOS_SEED": "11",
}


class TestChaosConvergence:
    def test_serial_and_parallel_converge_to_clean(self, tmp_path):
        campaign = _fast_campaign()
        specs = _specs(campaign)
        clean = {
            spec.key(): mission_result_to_dict(execute_spec(spec))
            for spec in specs
        }
        policy = ResiliencePolicy(
            max_attempts=3, task_timeout=1.5, quarantine_strikes=2,
            max_pool_respawns=8,
        )
        with knobs.temporary(CHAOS_ENV):
            schedule = ChaosSchedule.from_knobs()
            hang_keys = {spec.key() for spec in specs if schedule.hangs(spec.key())}

            serial_failures = []
            serial_store = JsonlResultStore(tmp_path / "serial.jsonl")
            execute_specs(
                specs, executor=SerialExecutor(), store=serial_store,
                policy=policy, on_failure=serial_failures.append,
            )
            parallel_failures = []
            parallel_store = JsonlResultStore(tmp_path / "parallel.jsonl")
            execute_specs(
                specs, executor=ParallelExecutor(workers=2), store=parallel_store,
                policy=policy, on_failure=parallel_failures.append,
            )

        assert hang_keys, "chaos seed produced no hangs; test is vacuous"
        serial_records = _result_dicts(serial_store)
        parallel_records = _result_dicts(parallel_store)
        # Byte-identical surviving records, serial vs parallel.
        assert json.dumps(serial_records, sort_keys=True) == json.dumps(
            parallel_records, sort_keys=True
        )
        # Identical failure-record sets (spec, attempt, type, digest).
        assert {f.identity() for f in serial_failures} == {
            f.identity() for f in parallel_failures
        }
        # Surviving records equal the clean run; the missing ones are exactly
        # the quarantined hangs plus attempt-exhausted specs.
        for key, record in serial_records.items():
            assert record == clean[key]
        lost = set(clean) - set(serial_records)
        exhausted = {
            f.spec_key for f in serial_failures if f.outcome == OUTCOME_FAILED
        }
        quarantined = {
            f.spec_key for f in serial_failures if f.outcome == OUTCOME_QUARANTINED
        }
        assert hang_keys == quarantined
        assert lost == exhausted | quarantined

    def test_crash_only_chaos_heals_the_pool(self, tmp_path):
        campaign = _fast_campaign()
        specs = _specs(campaign)
        policy = ResiliencePolicy(max_attempts=3, max_pool_respawns=8)
        failures = []
        store = JsonlResultStore(tmp_path / "r.jsonl")
        with knobs.temporary(
            {"REPRO_CHAOS": "crash=0.3", "REPRO_CHAOS_SEED": "5"}
        ):
            schedule = ChaosSchedule.from_knobs()
            crashing = [
                spec for spec in specs if schedule.crashes(spec.key(), 0)
            ]
            results = execute_specs(
                specs, executor=ParallelExecutor(workers=2), store=store,
                policy=policy, on_failure=failures.append,
            )
        assert crashing, "chaos seed produced no crashes; test is vacuous"
        assert any(f.error_type == "WorkerCrash" for f in failures)
        # Crashes are transient: every spec that survives the attempt budget
        # must still have a result, bit-identical to a clean run.
        clean = {spec.key(): mission_result_to_dict(execute_spec(spec)) for spec in specs}
        surviving = _result_dicts(store)
        for key, record in surviving.items():
            assert record == clean[key]
        exhausted = {f.spec_key for f in failures if f.outcome == OUTCOME_FAILED}
        assert set(clean) - set(surviving) == exhausted
        assert results.count(None) == len(exhausted)

    def test_degrades_to_serial_when_respawns_exhausted(self, tmp_path):
        campaign = _fast_campaign()
        specs = _specs(campaign)
        # Zero respawn budget: the first crash kills pooling entirely and the
        # rest of the batch must still complete in-process.
        policy = ResiliencePolicy(max_attempts=3, max_pool_respawns=0)
        failures = []
        store = JsonlResultStore(tmp_path / "r.jsonl")
        with knobs.temporary(
            {"REPRO_CHAOS": "crash=0.3", "REPRO_CHAOS_SEED": "5"}
        ):
            execute_specs(
                specs, executor=ParallelExecutor(workers=2), store=store,
                policy=policy, on_failure=failures.append,
            )
        clean = {spec.key(): mission_result_to_dict(execute_spec(spec)) for spec in specs}
        surviving = _result_dicts(store)
        exhausted = {f.spec_key for f in failures if f.outcome == OUTCOME_FAILED}
        assert set(clean) - set(surviving) == exhausted
        for key, record in surviving.items():
            assert record == clean[key]

    def test_chaos_shard_junk_survives_resume_and_report(self, tmp_path):
        campaign = _fast_campaign()
        specs = _specs(campaign)
        policy = ResiliencePolicy()
        store = JsonlResultStore(tmp_path / "r.jsonl")
        with knobs.temporary(
            {"REPRO_CHAOS": "torn=0.3,garbage=0.3", "REPRO_CHAOS_SEED": "2"}
        ):
            execute_specs(specs, store=store, policy=policy)
        health = JsonlResultStore(store.path).shard_health()
        assert health.torn + health.corrupt > 0, "no junk injected; vacuous"
        # Every mission record survives the junk around it.
        assert set(JsonlResultStore(store.path).completed_keys()) == {
            spec.key() for spec in specs
        }


# --------------------------------------------------------------- lost workers
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stand-in reaches workers only by fork inheritance",
)
class TestLostWorkers:
    """A worker that dies or hangs costs its in-flight spec, and nothing else."""

    @staticmethod
    def _victim_batch(monkeypatch, tmp_path, misbehave):
        """Five specs in two prefix groups; the victim is a group's last spec.

        Every flight is logged per process under ``tmp_path``.  The victim
        calls ``misbehave`` in a worker and raises in the parent.
        """
        campaign = _fast_campaign(num_golden=2, num_injections_per_stage=1)
        specs = _specs(campaign)
        group = max(executor_module.prefix_groups(list(enumerate(specs))), key=len)
        victim_pos, victim = group[-1]  # cache order flies golden specs last
        assert len(group) > 1 and victim.fault_plan is None
        parent = os.getpid()
        real = executor_module.execute_spec

        def logged(spec, detectors=None):
            with open(tmp_path / f"flights-{os.getpid()}.log", "a") as log:
                log.write(spec.key() + "\n")
            if spec.key() == victim.key():
                if os.getpid() == parent:
                    raise AssertionError("the victim must never fly in the parent")
                misbehave()
            return real(spec, detectors)

        monkeypatch.setattr(executor_module, "execute_spec", logged)
        return specs, victim_pos, victim

    @staticmethod
    def _flights(tmp_path):
        """(flights per spec key over every process, keys flown by this one)."""
        flights = Counter()
        for path in tmp_path.glob("flights-*.log"):
            flights.update(path.read_text().split())
        own = tmp_path / f"flights-{os.getpid()}.log"
        return flights, own.read_text().split() if own.exists() else []

    def test_crash_costs_only_the_crashing_attempts(self, monkeypatch, tmp_path):
        specs, victim_pos, victim = self._victim_batch(
            monkeypatch, tmp_path, lambda: os._exit(3)
        )
        failures = []
        results = ParallelExecutor(workers=2, oversubscribe=True).map(
            specs,
            policy=ResiliencePolicy(max_attempts=3, max_pool_respawns=3),
            on_failure=failures.append,
        )
        assert [(f.spec_key, f.error_type, f.attempt, f.outcome) for f in failures] == [
            (victim.key(), "WorkerCrash", 1, OUTCOME_RETRIED),
            (victim.key(), "WorkerCrash", 2, OUTCOME_RETRIED),
            (victim.key(), "WorkerCrash", 3, OUTCOME_FAILED),
        ]
        assert [pos for pos, result in enumerate(results) if result is None] == [victim_pos]
        flights, in_parent = self._flights(tmp_path)
        assert victim.key() not in in_parent
        assert flights == {**{spec.key(): 1 for spec in specs}, victim.key(): 3}

    def test_hang_strikes_only_the_hanging_spec(self, monkeypatch, tmp_path):
        specs, victim_pos, victim = self._victim_batch(
            monkeypatch, tmp_path, lambda: time.sleep(60.0)
        )
        failures = []
        results = ParallelExecutor(workers=2, oversubscribe=True).map(
            specs,
            policy=ResiliencePolicy(task_timeout=5.0, quarantine_strikes=2),
            on_failure=failures.append,
        )
        assert [(f.spec_key, f.error_type, f.attempt, f.outcome) for f in failures] == [
            (victim.key(), "HangTimeout", 1, OUTCOME_RETRIED),
            (victim.key(), "HangTimeout", 2, OUTCOME_QUARANTINED),
        ]
        assert [pos for pos, result in enumerate(results) if result is None] == [victim_pos]
        flights, in_parent = self._flights(tmp_path)
        assert victim.key() not in in_parent
        assert flights == {**{spec.key(): 1 for spec in specs}, victim.key(): 2}

    def test_worker_lost_between_groups_costs_nothing(self, monkeypatch):
        real_worker = executor_module._pool_worker

        class OneGroup:
            """The worker's pipe, ending the process when its second task comes."""

            def __init__(self, conn):
                self.conn, self.tasks = conn, 0

            def recv(self):
                self.tasks += 1
                if self.tasks > 1:
                    os._exit(0)  # the parent has sent (or will send) a task
                return self.conn.recv()

            def send(self, message):
                self.conn.send(message)

        def one_group_worker(conn, *payload):
            real_worker(OneGroup(conn), *payload)

        monkeypatch.setattr(executor_module, "_pool_worker", one_group_worker)
        specs = _specs(_fast_campaign(num_golden=4, num_injections_per_stage=1))
        assert len(executor_module.prefix_groups(list(enumerate(specs)))) == 4
        failures = []
        results = ParallelExecutor(workers=2, oversubscribe=True).map(
            specs, policy=ResiliencePolicy(max_pool_respawns=2), on_failure=failures.append
        )
        assert failures == []
        assert [mission_result_to_dict(result) for result in results] == [
            mission_result_to_dict(execute_spec(spec)) for spec in specs
        ]


# ------------------------------------------------------- executor telemetry
class TestExecutorTelemetry:
    def test_map_entry_resets_stale_stats(self):
        campaign = _fast_campaign()
        specs = _specs(campaign)
        executor = ParallelExecutor(workers=1)  # serial fallback path
        executor.map(specs[:2])
        assert executor.last_checkpoint_stats is not None
        assert executor.last_effective_workers == 1
        # A later misuse (a detector tag with no object) must not leave the
        # previous map()'s telemetry dangling.
        bad = RunSpec(
            config=campaign.config, setting="dr", seed=0,
            detector="custom-in-memory",
        )
        with pytest.raises(ValueError):
            executor.map([bad, bad])
        assert executor.last_checkpoint_stats is None
        assert executor.last_effective_workers == 0

    def test_empty_map_resets_stats(self):
        executor = ParallelExecutor(workers=2)
        executor.last_effective_workers = 99
        executor.map([])
        assert executor.last_effective_workers <= 1


# -------------------------------------------------------------- store policy
class TestExecuteSpecsFailurePersistence:
    def test_failure_records_land_in_store(self, tmp_path):
        campaign = _fast_campaign()
        specs = _specs(campaign)[:3]
        store = JsonlResultStore(tmp_path / "r.jsonl")
        policy = ResiliencePolicy(max_attempts=2)
        with knobs.temporary({"REPRO_CHAOS": "raise=1.0", "REPRO_CHAOS_SEED": "0"}):
            results = execute_specs(specs, store=store, policy=policy)
        assert results == [None, None, None]
        failures = store.load_failures()
        # Two attempts per spec, every one captured.
        assert len(failures) == 6
        for line in failures:
            payload = line["failure"]
            assert payload["error_type"] == "ChaosMissionError"
            assert payload["outcome"] in (OUTCOME_RETRIED, OUTCOME_FAILED)
            assert line["meta"]["setting"] == payload["setting"]
        # The loaded records round-trip into FailureRecord.
        records = [FailureRecord.from_dict(line["failure"]) for line in failures]
        assert len({r.identity() for r in records}) == 6

    def test_legacy_behaviour_without_policy(self, tmp_path):
        campaign = _fast_campaign()
        specs = _specs(campaign)[:2]
        store = JsonlResultStore(tmp_path / "r.jsonl")
        results = execute_specs(specs, store=store)
        assert all(result is not None for result in results)
        assert store.load_failures() == []

    def test_chaos_error_is_a_runtime_error(self):
        assert issubclass(ChaosMissionError, RuntimeError)


# ------------------------------------------------------- pass-through policy
#: Every dispatch shape a pass-through (default-policy) caller can reach.
STRICT_EXECUTORS = {
    "serial": SerialExecutor,
    "pool": lambda: ParallelExecutor(workers=2, oversubscribe=True),
    "one-worker": lambda: ParallelExecutor(workers=1),
}


class TestPassThroughPolicy:
    """Without a policy the caller gets results or the original exception."""

    def test_pass_through_value(self):
        assert PASS_THROUGH == ResiliencePolicy(
            max_attempts=1, max_pool_respawns=0, capture=False
        )
        assert PASS_THROUGH.task_timeout is None
        with knobs.temporary({"REPRO_CHAOS": "raise=1.0"}):
            assert PASS_THROUGH.chaos() is None
            assert ResiliencePolicy().chaos() == ChaosSchedule(raise_rate=1.0)

    @pytest.mark.parametrize("kind", sorted(STRICT_EXECUTORS))
    def test_raising_spec_propagates_unchanged(self, kind, tmp_path):
        campaign = _fast_campaign(num_golden=1)
        good = campaign.golden_specs()[0]
        # Its mission raises KeyError("unknown planner ...") once it starts
        # planning; a different planner is a different prefix group, so the
        # pool path really has two tasks for its two workers.
        bad = RunSpec(
            config=campaign.config, setting="golden", seed=good.seed,
            planner_name="no-such-planner",
        )
        executor = STRICT_EXECUTORS[kind]()
        store = JsonlResultStore(tmp_path / "r.jsonl")
        failures = []
        # Twice in one process: the failed attempt must not leave its
        # half-flown golden-prefix cursor behind to serve the re-run a result.
        for _ in range(2):
            with pytest.raises(KeyError, match="unknown planner 'no-such-planner'"):
                execute_specs(
                    [good, bad], executor=executor, store=store,
                    on_failure=failures.append,
                )
        assert failures == []
        assert store.load_failures() == []
        if kind != "serial":
            assert executor.last_effective_workers == (2 if kind == "pool" else 1)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing stand-in reaches workers only by fork inheritance",
    )
    def test_broken_pool_raises_instead_of_respawning(self, monkeypatch):
        campaign = _fast_campaign(num_golden=2)
        specs = campaign.golden_specs()
        parent = os.getpid()
        ran_in_parent = []

        def crash(spec, detectors=None):
            if os.getpid() == parent:
                ran_in_parent.append(spec.key())
                raise AssertionError("a strict pool must not fall back in-process")
            os._exit(3)

        monkeypatch.setattr(executor_module, "execute_spec", crash)
        with pytest.raises(BrokenProcessPool):
            ParallelExecutor(workers=2, oversubscribe=True).map(specs)
        assert ran_in_parent == []

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    def test_chaos_is_never_drawn(self, kind, tmp_path):
        campaign = _fast_campaign(num_golden=2, num_injections_per_stage=1)
        specs = _specs(campaign)
        store = JsonlResultStore(tmp_path / "r.jsonl")
        failures = []
        chaos = {
            "REPRO_CHAOS": "raise=1.0,crash=1.0,hang=1.0,torn=1.0",
            "REPRO_CHAOS_SEED": "0",
        }
        with knobs.temporary(chaos):
            results = execute_specs(
                specs, executor=STRICT_EXECUTORS[kind](), store=store,
                on_failure=failures.append,
            )
        assert all(result is not None for result in results)
        assert failures == []
        assert JsonlResultStore(store.path).shard_health().is_clean
        assert set(JsonlResultStore(store.path).completed_keys()) == {
            spec.key() for spec in specs
        }
