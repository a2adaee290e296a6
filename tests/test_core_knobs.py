"""The central env-knob registry (repro.core.knobs).

Covers the registry surface, per-kind parsing/validation (including the
legacy empty-string semantics each knob inherited from its pre-registry
parser), the temporary/snapshot helpers, and regression tests proving the
consolidated call sites still honour the knobs.
"""

import pytest

from repro.core import knobs


@pytest.fixture(autouse=True)
def _clean_knob_env(monkeypatch):
    """Every test starts with no engine knob set."""
    for name in knobs.registered_names():
        monkeypatch.delenv(name, raising=False)


# ------------------------------------------------------------------- registry
class TestRegistry:
    def test_expected_knobs_registered(self):
        names = knobs.registered_names()
        assert set(names) == {
            "REPRO_NO_CACHE",
            "REPRO_NO_CHECKPOINT",
            "REPRO_BENCH_RESULTS_DIR",
            "REPRO_CHAOS",
            "REPRO_CHAOS_SEED",
            "REPRO_MAX_ATTEMPTS",
            "REPRO_TASK_TIMEOUT",
            "REPRO_QUARANTINE_STRIKES",
            "REPRO_POOL_RESPAWNS",
            "MAVFI_WORKERS",
            "MAVFI_OVERSUBSCRIBE",
            "MAVFI_RUNS",
        }
        assert all(name.startswith(knobs.KNOB_PREFIXES) for name in names)

    def test_unregistered_name_raises_everywhere(self):
        for accessor in (knobs.raw, knobs.flag, knobs.value, knobs.unset_env):
            with pytest.raises(KeyError, match="unregistered engine knob"):
                accessor("REPRO_NOT_A_KNOB")
        with pytest.raises(KeyError, match="declare it in repro.core.knobs"):
            # repro-lint: disable=RL006,RL010 deliberately exercises the unregistered-name rejection
            knobs.set_env("MAVFI_NOT_A_KNOB", "1")

    def test_describe_rows_covers_every_knob(self):
        rows = knobs.describe_rows()
        assert {row[0] for row in rows} == set(knobs.registered_names())
        for _name, kind, default, description in rows:
            assert kind in ("flag", "float", "int", "path", "str")
            assert default and description

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate knob registration"):
            knobs._register(knobs.KNOBS["MAVFI_RUNS"])


# ---------------------------------------------------------------------- flags
class TestFlags:
    @pytest.mark.parametrize("raw", ["", "0", "false", "no", "  No  ", "FALSE"])
    def test_falsy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NO_CACHE", raw)
        assert knobs.flag("REPRO_NO_CACHE") is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "anything"])
    def test_truthy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NO_CACHE", raw)
        assert knobs.flag("REPRO_NO_CACHE") is True

    def test_unset_is_false(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)
        assert knobs.flag("REPRO_NO_CHECKPOINT") is False

    def test_flag_accessor_rejects_non_flag_knobs(self):
        with pytest.raises(ValueError, match="not a flag"):
            knobs.flag("MAVFI_RUNS")


# ------------------------------------------------------------------ MAVFI_RUNS
class TestRunsScale:
    def test_unset_is_none(self):
        assert knobs.value("MAVFI_RUNS") is None

    def test_valid_scale(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "2.5")
        assert knobs.value("MAVFI_RUNS") == 2.5

    def test_floor_applied(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "0.001")
        assert knobs.value("MAVFI_RUNS") == 0.01

    @pytest.mark.parametrize("junk", ["", "abc", "nan", "inf", "-1"])
    def test_junk_rejected(self, monkeypatch, junk):
        # Empty string is junk for MAVFI_RUNS (unlike MAVFI_WORKERS).
        monkeypatch.setenv("MAVFI_RUNS", junk)
        with pytest.raises(ValueError, match="MAVFI_RUNS"):
            knobs.value("MAVFI_RUNS")


# ---------------------------------------------------------------- MAVFI_WORKERS
class TestWorkerCount:
    def test_unset_and_empty_are_none(self, monkeypatch):
        assert knobs.value("MAVFI_WORKERS") is None
        monkeypatch.setenv("MAVFI_WORKERS", "   ")
        assert knobs.value("MAVFI_WORKERS") is None

    def test_valid_count(self, monkeypatch):
        monkeypatch.setenv("MAVFI_WORKERS", "4")
        assert knobs.value("MAVFI_WORKERS") == 4

    @pytest.mark.parametrize("junk", ["abc", "-2", "1.5"])
    def test_junk_rejected(self, monkeypatch, junk):
        monkeypatch.setenv("MAVFI_WORKERS", junk)
        with pytest.raises(ValueError, match="MAVFI_WORKERS"):
            knobs.value("MAVFI_WORKERS")


# -------------------------------------------------------------------- helpers
class TestHelpers:
    def test_set_unset_roundtrip(self):
        knobs.set_env("REPRO_NO_CACHE", "1")
        assert knobs.raw("REPRO_NO_CACHE") == "1"
        knobs.unset_env("REPRO_NO_CACHE")
        assert knobs.raw("REPRO_NO_CACHE") is None

    def test_raw_or(self, monkeypatch):
        assert knobs.raw_or("REPRO_BENCH_RESULTS_DIR", "fallback") == "fallback"
        monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", "/tmp/results")
        assert knobs.raw_or("REPRO_BENCH_RESULTS_DIR", "fallback") == "/tmp/results"

    def test_bench_results_dir_honours_knob(self, monkeypatch, tmp_path):
        # Regression (RL010 dead-knob finding): the registered knob must
        # actually be read through the engine, not just by benchmark conftest.
        from repro.bench.harness import results_dir

        default = tmp_path / "default"
        assert results_dir(default) == default
        monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", str(tmp_path / "override"))
        assert results_dir(default) == tmp_path / "override"

    def test_setdefault_env(self, monkeypatch):
        assert knobs.setdefault_env("MAVFI_OVERSUBSCRIBE", "1") == "1"
        assert knobs.raw("MAVFI_OVERSUBSCRIBE") == "1"
        monkeypatch.setenv("MAVFI_OVERSUBSCRIBE", "0")
        assert knobs.setdefault_env("MAVFI_OVERSUBSCRIBE", "1") == "0"

    def test_temporary_pins_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "original")
        with knobs.temporary({"REPRO_NO_CACHE": "1", "MAVFI_RUNS": "2.0"}):
            assert knobs.raw("REPRO_NO_CACHE") == "1"
            assert knobs.value("MAVFI_RUNS") == 2.0
        assert knobs.raw("REPRO_NO_CACHE") == "original"
        assert knobs.raw("MAVFI_RUNS") is None

    def test_temporary_none_pins_unset(self, monkeypatch):
        monkeypatch.setenv("MAVFI_WORKERS", "8")
        with knobs.temporary({"MAVFI_WORKERS": None}):
            assert knobs.raw("MAVFI_WORKERS") is None
        assert knobs.raw("MAVFI_WORKERS") == "8"

    def test_temporary_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with knobs.temporary({"REPRO_NO_CHECKPOINT": "1"}):
                raise RuntimeError("boom")
        assert knobs.raw("REPRO_NO_CHECKPOINT") is None

    def test_snapshot(self, monkeypatch):
        monkeypatch.setenv("MAVFI_RUNS", "3.0")
        shot = knobs.snapshot(("MAVFI_RUNS", "MAVFI_WORKERS"))
        assert shot == {"MAVFI_RUNS": "3.0", "MAVFI_WORKERS": ""}
        full = knobs.snapshot()
        assert set(full) == set(knobs.registered_names())


# ------------------------------------------------- consolidation regressions
class TestConsolidatedCallSites:
    """The pre-registry accessors now honour the registry's parsing."""

    def test_builder_env_flag(self, monkeypatch):
        from repro.pipeline.builder import construction_caches_enabled

        assert construction_caches_enabled() is True
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert construction_caches_enabled() is False
        monkeypatch.setenv("REPRO_NO_CACHE", "no")
        assert construction_caches_enabled() is True

    def test_executor_worker_count(self, monkeypatch):
        from repro.core.executor import env_worker_count

        monkeypatch.delenv("MAVFI_WORKERS", raising=False)
        assert env_worker_count() == 1
        monkeypatch.setenv("MAVFI_WORKERS", "3")
        assert env_worker_count() == 3
        monkeypatch.setenv("MAVFI_WORKERS", "junk")
        with pytest.raises(ValueError, match="MAVFI_WORKERS"):
            env_worker_count()

    def test_campaign_runs_scale(self, monkeypatch):
        from repro.core.campaign import runs_scale

        monkeypatch.setenv("MAVFI_RUNS", "2.0")
        assert runs_scale() == 2.0
        monkeypatch.setenv("MAVFI_RUNS", "bogus")
        with pytest.raises(ValueError, match="MAVFI_RUNS must be a number"):
            runs_scale()
