"""Per-checker tests: true positives fire, clean idiomatic code does not."""

from pathlib import Path

import pytest

from repro.lint.engine import lint_file, resolve_checkers


def lint_source(
    tmp_path: Path,
    source: str,
    module_rel: str = "repro/pipeline/fixture.py",
    select=None,
):
    """Lint ``source`` as if it lived at src/<module_rel> in a repo root."""
    (tmp_path / "pyproject.toml").touch()
    path = tmp_path / "src" / module_rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    checkers = resolve_checkers(select=select)
    return lint_file(path, tmp_path, checkers)


def codes(findings):
    return sorted(f.code for f in findings)


# --------------------------------------------------------------------- RL001
class TestUnseededRandomness:
    def test_global_random_module(self, tmp_path):
        findings = lint_source(tmp_path, "import random\nx = random.random()\n")
        assert codes(findings) == ["RL001"]
        assert "module-global RNG" in findings[0].message

    def test_numpy_global_state_through_alias(self, tmp_path):
        source = "import numpy as np\nnp.random.seed(3)\ny = np.random.rand(4)\n"
        assert codes(lint_source(tmp_path, source)) == ["RL001", "RL001"]

    def test_bare_default_rng(self, tmp_path):
        source = "from numpy.random import default_rng\nrng = default_rng()\n"
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RL001"]
        assert "seed" in findings[0].message

    def test_seeded_default_rng_clean(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "inst = np.random.default_rng(seed=7)\n"
            "r = __import__('random').Random(3)\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_seeded_random_instance_clean(self, tmp_path):
        source = "import random\nrng = random.Random(5)\nx = rng.random()\n"
        assert lint_source(tmp_path, source) == []

    def test_bench_layer_exempt(self, tmp_path):
        source = "import random\nx = random.random()\n"
        findings = lint_source(tmp_path, source, module_rel="repro/bench/fixture.py")
        assert findings == []


# --------------------------------------------------------------------- RL002
class TestWallClock:
    def test_time_calls(self, tmp_path):
        source = "import time\nt = time.time()\np = time.perf_counter()\n"
        assert codes(lint_source(tmp_path, source)) == ["RL002", "RL002"]

    def test_datetime_now_from_import(self, tmp_path):
        source = "from datetime import datetime\nstamp = datetime.now()\n"
        assert codes(lint_source(tmp_path, source)) == ["RL002"]

    def test_bench_cli_lint_exempt(self, tmp_path):
        source = "import time\nt = time.time()\n"
        for module_rel in (
            "repro/bench/fixture.py",
            "repro/cli.py",
            "repro/lint/fixture.py",
        ):
            assert lint_source(tmp_path, source, module_rel=module_rel) == []

    def test_time_sleep_clean(self, tmp_path):
        # Not a clock *read*; the checker only bans reading wall time.
        assert lint_source(tmp_path, "import time\ntime.sleep(0.1)\n") == []


# --------------------------------------------------------------------- RL003
class TestForkUnsafeCallback:
    def test_lambda_to_create_timer(self, tmp_path):
        source = (
            "class N:\n"
            "    def on_start(self):\n"
            "        self.create_timer(1.0, lambda: None)\n"
        )
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RL003"]
        assert "lambda" in findings[0].message

    def test_nested_def_to_subscription(self, tmp_path):
        source = (
            "class N:\n"
            "    def on_start(self):\n"
            "        def _cb(msg):\n"
            "            return msg\n"
            "        self.create_subscription('t', object, _cb)\n"
        )
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RL003"]
        assert "_cb" in findings[0].message

    def test_nested_def_to_pending_fault(self, tmp_path):
        source = (
            "def arm(self, rng, bit):\n"
            "    def corrupt(msg, fault_rng):\n"
            "        return None\n"
            "    self.arm_output_fault(PendingFault(corrupt=corrupt, rng=rng))\n"
        )
        findings = lint_source(tmp_path, source)
        assert len(findings) >= 1
        assert all(f.code == "RL003" for f in findings)

    def test_lambda_attribute_assignment(self, tmp_path):
        source = (
            "class N:\n"
            "    def configure(self):\n"
            "        self.handler = lambda req: req\n"
        )
        assert codes(lint_source(tmp_path, source)) == ["RL003"]

    def test_callable_object_clean(self, tmp_path):
        source = (
            "class _Handler:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "    def __call__(self, msg):\n"
            "        return self.node.process(msg)\n"
            "class N:\n"
            "    def on_start(self):\n"
            "        self.create_subscription('t', object, _Handler(self))\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_bound_method_clean(self, tmp_path):
        source = (
            "class N:\n"
            "    def on_start(self):\n"
            "        self.create_subscription('t', object, self._on_msg)\n"
            "    def _on_msg(self, msg):\n"
            "        return msg\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_outside_fork_reachable_modules_exempt(self, tmp_path):
        source = (
            "class N:\n"
            "    def on_start(self):\n"
            "        self.create_timer(1.0, lambda: None)\n"
        )
        findings = lint_source(
            tmp_path, source, module_rel="repro/analysis/fixture.py"
        )
        assert findings == []


# --------------------------------------------------------------------- RL004
class TestOrderSensitiveAccumulation:
    MODULE = "repro/analysis/fixture.py"

    def test_sum_over_dict_values(self, tmp_path):
        source = "def f(d):\n    return sum(d.values())\n"
        assert codes(lint_source(tmp_path, source, module_rel=self.MODULE)) == ["RL004"]

    def test_augassign_in_loop_over_items(self, tmp_path):
        source = (
            "def f(d):\n"
            "    acc = 0.0\n"
            "    for _, v in d.items():\n"
            "        acc += v\n"
            "    return acc\n"
        )
        assert codes(lint_source(tmp_path, source, module_rel=self.MODULE)) == ["RL004"]

    def test_sorted_neutralizes(self, tmp_path):
        source = (
            "def f(d):\n"
            "    acc = 0.0\n"
            "    for _, v in sorted(d.items()):\n"
            "        acc += v\n"
            "    return acc + sum(sorted(d.values()))\n"
        )
        assert lint_source(tmp_path, source, module_rel=self.MODULE) == []

    def test_sum_over_plain_list_clean(self, tmp_path):
        source = "def f(values):\n    return sum(values)\n"
        assert lint_source(tmp_path, source, module_rel=self.MODULE) == []

    def test_qof_in_scope_pipeline_not(self, tmp_path):
        source = "def f(d):\n    return sum(d.values())\n"
        assert codes(lint_source(tmp_path, source, module_rel="repro/core/qof.py")) == ["RL004"]
        assert lint_source(tmp_path, source, module_rel="repro/pipeline/fixture.py") == []


# --------------------------------------------------------------------- RL005
class TestIterationOrderHazard:
    def test_set_iteration(self, tmp_path):
        source = "for name in {'a', 'b'}:\n    print(name)\n"
        assert codes(lint_source(tmp_path, source)) == ["RL005"]

    def test_rng_choice_over_dict_keys(self, tmp_path):
        source = (
            "def pick(rng, d):\n"
            "    return rng.choice(list(d.keys()))\n"
        )
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RL005"]
        assert "choice" in findings[0].message

    def test_rng_choice_over_sorted_clean(self, tmp_path):
        source = (
            "def pick(rng, d):\n"
            "    return rng.choice(sorted(d.keys()))\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_json_dumps_without_sort_keys(self, tmp_path):
        source = "import json\ndef f(d):\n    return json.dumps(d)\n"
        assert codes(lint_source(tmp_path, source)) == ["RL005"]

    def test_json_dumps_with_sort_keys_clean(self, tmp_path):
        source = "import json\ndef f(d):\n    return json.dumps(d, sort_keys=True)\n"
        assert lint_source(tmp_path, source) == []

    def test_sorted_set_iteration_clean(self, tmp_path):
        source = "for name in sorted({'a', 'b'}):\n    print(name)\n"
        assert lint_source(tmp_path, source) == []


# --------------------------------------------------------------------- RL006
class TestUnregisteredEnvKnob:
    def test_direct_environ_get(self, tmp_path):
        source = "import os\nflag = os.environ.get('REPRO_NO_CACHE')\n"
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RL006"]
        assert "repro.core.knobs" in findings[0].message

    def test_direct_getenv_and_subscript(self, tmp_path):
        source = (
            "import os\n"
            "a = os.getenv('MAVFI_WORKERS')\n"
            "b = os.environ['MAVFI_RUNS']\n"
            "c = 'MAVFI_OVERSUBSCRIBE' in os.environ\n"
        )
        assert codes(lint_source(tmp_path, source)) == ["RL006", "RL006", "RL006"]

    def test_applies_to_tests_and_benchmarks(self, tmp_path):
        source = "import os\nos.environ['REPRO_NO_CACHE'] = '1'\n"
        (tmp_path / "pyproject.toml").touch()
        (tmp_path / "tests").mkdir(exist_ok=True)
        path = tmp_path / "tests" / "test_fixture.py"
        path.write_text(source)
        findings = lint_file(path, tmp_path, resolve_checkers())
        assert codes(findings) == ["RL006"]

    def test_unregistered_knob_through_knobs_api(self, tmp_path):
        source = (
            "from repro.core import knobs\n"
            "value = knobs.flag('REPRO_NOT_A_KNOB')\n"
        )
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RL006"]
        assert "not declared" in findings[0].message

    def test_registered_knob_through_knobs_api_clean(self, tmp_path):
        source = (
            "from repro.core import knobs\n"
            "value = knobs.flag('REPRO_NO_CACHE')\n"
            "scale = knobs.value('MAVFI_RUNS')\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_non_knob_env_reads_clean(self, tmp_path):
        source = "import os\nci = os.environ.get('CI')\nhome = os.getenv('HOME')\n"
        assert lint_source(tmp_path, source) == []

    def test_knobs_module_itself_exempt(self, tmp_path):
        source = "import os\nraw = os.environ.get('REPRO_NO_CACHE')\n"
        findings = lint_source(tmp_path, source, module_rel="repro/core/knobs.py")
        assert findings == []


# --------------------------------------------------------------------- RL007
class TestSwallowedException:
    def test_bare_except_fires(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except:\n"
            "        handle()\n"
        )
        findings = lint_source(tmp_path, source, module_rel="repro/core/fixture.py")
        assert codes(findings) == ["RL007"]
        assert "bare" in findings[0].message

    def test_silent_broad_except_fires(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert codes(
            lint_source(tmp_path, source, module_rel="repro/rosmw/fixture.py")
        ) == ["RL007"]

    def test_silent_broad_tuple_and_continue_fire(self, tmp_path):
        source = (
            "def f(items):\n"
            "    for item in items:\n"
            "        try:\n"
            "            risky(item)\n"
            "        except (ValueError, Exception):\n"
            "            continue\n"
        )
        assert codes(lint_source(tmp_path, source)) == ["RL007"]

    def test_typed_and_handled_excepts_clean(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except OSError:\n"
            "        pass\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception as exc:\n"
            "        record(exc)\n"
            "        raise\n"
        )
        assert lint_source(tmp_path, source, module_rel="repro/core/fixture.py") == []

    def test_out_of_scope_module_exempt(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = lint_source(
            tmp_path, source, module_rel="repro/analysis/fixture.py"
        )
        assert findings == []

    def test_pragma_excuses_deliberate_capture(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    # repro-lint: disable=RL007 deliberate broad capture for the test\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert lint_source(tmp_path, source, module_rel="repro/core/fixture.py") == []


# ------------------------------------------------------------------ registry
def test_checker_catalog_is_complete():
    from repro.lint.checkers import ALL_CHECKERS, CHECKERS_BY_CODE, PROJECT_CHECKERS

    assert [c.code for c in ALL_CHECKERS] == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
    ]
    assert [c.code for c in PROJECT_CHECKERS] == [
        "RL008", "RL009", "RL010", "RL012",
    ]
    for checker_cls in [*ALL_CHECKERS, *PROJECT_CHECKERS]:
        assert checker_cls.description
        assert CHECKERS_BY_CODE[checker_cls.code] is checker_cls


@pytest.mark.parametrize("select", [["RL001"], ["RL003", "RL005"]])
def test_select_restricts_checkers(tmp_path, select):
    source = (
        "import json, random\n"
        "class N:\n"
        "    def on_start(self):\n"
        "        self.create_timer(1.0, lambda: None)\n"
        "x = random.random()\n"
        "s = json.dumps({})\n"
    )
    findings = lint_source(tmp_path, source, select=select)
    assert set(codes(findings)) <= set(select)
    assert findings
