"""The whole-program pass: index tables and the project checkers RL008-RL012.

Each checker is exercised three ways against throwaway repos that mirror
the ``src/repro`` layout (the checkers match modules by rel-path suffix,
so fixture paths must look like the real tree): a positive fixture where
the contract is broken, a negative fixture where it holds, and a pragma
fixture proving one reasoned excuse silences the finding.  Ends with the
meta-test CI relies on: the live tree is clean under RL008-RL012 with no
baseline at all.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.engine import (
    JSON_SCHEMA,
    collect_files,
    format_result,
    load_context,
    parse_result_payload,
    run_lint,
)
from repro.lint.project import (
    EDGE_LAZY,
    EDGE_TOPLEVEL,
    EDGE_TYPING,
    GRAPH_SCHEMA,
    ProjectIndex,
    module_name_for,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

PROJECT_CODES = ["RL008", "RL009", "RL010", "RL012"]


def project(tmp_path: Path, files: dict) -> Path:
    """A throwaway repo root laid out like the real tree."""
    (tmp_path / "pyproject.toml").touch()
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def build_index(root: Path) -> ProjectIndex:
    contexts = []
    for path in collect_files([Path("src")], root):
        ctx, _ = load_context(path, root)
        if ctx is not None:
            contexts.append(ctx)
    return ProjectIndex.build(contexts, root)


def lint(root: Path, select):
    return run_lint([Path("src")], root=root, select=select, use_baseline=False)


def codes(result):
    return [f.code for f in result.findings]


# ----------------------------------------------------------------- index pass
class TestProjectIndex:
    def test_module_name_for(self):
        assert module_name_for("repro/core/executor.py") == "repro.core.executor"
        assert module_name_for("repro/core/__init__.py") == "repro.core"
        assert module_name_for("README.md") == ""

    def test_import_edge_kinds(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": """\
                from typing import TYPE_CHECKING

                import repro.topics

                if TYPE_CHECKING:
                    from repro.core import executor


                def lazily():
                    from repro.sim import sensors
                    return sensors
                """,
                "src/repro/topics.py": "CHANNEL = 'pose'\n",
                "src/repro/sim/sensors.py": "NOISE = 0.1\n",
                "src/repro/core/executor.py": "WORKERS = 1\n",
            },
        )
        index = build_index(root)
        edges = {
            (e.target, e.kind)
            for e in index.by_name["repro.sim.world"].import_edges
        }
        assert edges == {
            ("repro.topics", EDGE_TOPLEVEL),
            ("repro.core.executor", EDGE_TYPING),
            ("repro.sim.sensors", EDGE_LAZY),
        }

    def test_relative_import_resolves_via_package(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": "from . import sensors\n",
                "src/repro/sim/sensors.py": "NOISE = 0.1\n",
            },
        )
        index = build_index(root)
        (edge,) = index.by_name["repro.sim.world"].import_edges
        assert edge.target == "repro.sim.sensors"
        assert edge.kind == EDGE_TOPLEVEL

    def test_constants_classes_functions_tables(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": """\
                from dataclasses import dataclass

                KNOB_NAME = "REPRO_NO_CACHE"
                NOT_A_CONSTANT = 3


                @dataclass
                class RunSpec:
                    seed: int
                    index: int

                    def key(self):
                        return self.seed


                def execute(spec):
                    return spec
                """,
            },
        )
        info = build_index(root).by_name["repro.core.executor"]
        assert info.constants == {"KNOB_NAME": "REPRO_NO_CACHE"}
        cls = info.classes["RunSpec"]
        assert cls.is_dataclass
        assert list(cls.fields) == ["seed", "index"]
        assert set(info.functions) == {"RunSpec.key", "execute"}

    def test_find_class(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": """\
                class RunSpec:
                    seed: int

                    def key(self):
                        return self.seed
                """,
            },
        )
        index = build_index(root)
        located = index.find_class("RunSpec")
        assert located is not None
        assert located[0].module == "repro.core.executor"
        assert index.find_class("Missing") is None

    def test_graph_dict_artifact(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": "import repro.topics\n",
                "src/repro/topics.py": "CHANNEL = 'pose'\n",
            },
        )
        graph = build_index(root).graph_dict()
        assert graph["schema"] == GRAPH_SCHEMA
        by_module = {n["module"]: n for n in graph["nodes"]}
        assert by_module["repro.sim.world"]["layer"] == "sim"
        assert by_module["repro.topics"]["layer"] == "foundation"
        assert {
            "src": "repro.sim.world",
            "dst": "repro.topics",
            "line": 1,
            "kind": EDGE_TOPLEVEL,
        } in graph["edges"]


# -------------------------------------------------- RL008 spec-key completeness
SPEC_PREAMBLE = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class CampaignConfig:
    environment: str
    abort_grace: float


@dataclass(frozen=True)
class RunSpec:
    config: CampaignConfig
    seed: int
    index: int

    def key(self):
        return (self.seed, self._canonical())

    def _canonical(self):
        return (self.config.environment,)
"""


class TestSpecKeyCompleteness:
    def test_config_field_read_outside_key_is_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": SPEC_PREAMBLE
                + """\


def execute(spec: RunSpec) -> int:
    cfg = spec.config
    return int(cfg.abort_grace)
"""
            },
        )
        (finding,) = lint(root, ["RL008"]).findings
        assert finding.code == "RL008"
        assert "CampaignConfig.abort_grace" in finding.message
        # Anchored at the field definition, not the read site.
        assert finding.path == "src/repro/core/executor.py"
        assert finding.line == 7

    def test_direct_spec_field_read_is_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": SPEC_PREAMBLE,
                "src/repro/pipeline/runner.py": """\
                def replay(spec: "RunSpec") -> int:
                    return spec.index
                """,
            },
        )
        (finding,) = lint(root, ["RL008"]).findings
        assert "RunSpec.index" in finding.message
        assert "pipeline/runner.py" in finding.message

    def test_read_inside_nested_function_is_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": SPEC_PREAMBLE
                + """\


def make_recorder():
    def record(spec: RunSpec) -> int:
        return spec.index
    return record
"""
            },
        )
        (finding,) = lint(root, ["RL008"]).findings
        assert "RunSpec.index" in finding.message

    def test_keyed_field_read_is_clean(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": SPEC_PREAMBLE
                + """\


def execute(spec: RunSpec) -> int:
    return spec.seed
"""
            },
        )
        assert lint(root, ["RL008"]).findings == []

    def test_reads_outside_execution_modules_are_out_of_scope(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": SPEC_PREAMBLE,
                "src/repro/analysis/report.py": """\
                def summarize(spec: "RunSpec") -> int:
                    return spec.index
                """,
            },
        )
        assert lint(root, ["RL008"]).findings == []

    def test_pragma_on_field_definition_excuses_every_read(self, tmp_path):
        source = SPEC_PREAMBLE.replace(
            "    index: int",
            "    index: int  # repro-lint: disable=RL008 reporting metadata only",
        )
        root = project(
            tmp_path,
            {
                "src/repro/core/executor.py": source
                + """\


def execute(spec: RunSpec) -> int:
    return spec.index
"""
            },
        )
        assert lint(root, ["RL008"]).findings == []

    def test_partial_tree_without_spec_classes_is_silent(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/pipeline/runner.py": """\
                def replay(spec: "RunSpec") -> int:
                    return spec.index
                """,
            },
        )
        assert lint(root, ["RL008"]).findings == []


# ------------------------------------------------------ RL009 layering checker
class TestLayering:
    def test_toplevel_upward_import_is_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {"src/repro/sim/world.py": "import repro.analysis.report\n"},
        )
        (finding,) = lint(root, ["RL009"]).findings
        assert finding.code == "RL009"
        assert "repro.sim.world (sim) must not import" in finding.message
        assert "repro.analysis.report (surface)" in finding.message

    def test_lazy_import_of_restricted_module_is_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": """\
                def peek():
                    from repro.analysis import report
                    return report
                """,
            },
        )
        (finding,) = lint(root, ["RL009"]).findings
        assert "even lazily" in finding.message
        assert "restricted to the surface layer" in finding.message

    def test_lazy_upward_import_of_unrestricted_module_is_sanctioned(
        self, tmp_path
    ):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": """\
                def peek():
                    from repro.core import campaign
                    return campaign
                """,
            },
        )
        assert lint(root, ["RL009"]).findings == []

    def test_lazy_import_of_executor_from_below_is_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/planning/motion.py": """\
                def plan():
                    from repro.core.executor import RunSpec
                    return RunSpec
                """,
                "src/repro/core/executor.py": "class RunSpec:\n    pass\n",
            },
        )
        (finding,) = lint(root, ["RL009"]).findings
        assert "repro.core.executor" in finding.message

    def test_type_checking_import_is_exempt(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.analysis import report
                """,
            },
        )
        assert lint(root, ["RL009"]).findings == []

    def test_downward_toplevel_import_is_clean(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": "import repro.topics\n",
                "src/repro/topics.py": "CHANNEL = 'pose'\n",
            },
        )
        assert lint(root, ["RL009"]).findings == []

    def test_toplevel_cycle_is_flagged_once(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/alpha.py": "from repro.sim import beta\n",
                "src/repro/sim/beta.py": "from repro.sim import alpha\n",
            },
        )
        (finding,) = lint(root, ["RL009"]).findings
        assert "toplevel import cycle" in finding.message
        assert "repro.sim.alpha" in finding.message
        assert "repro.sim.beta" in finding.message

    def test_pragma_on_import_line_suppresses(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/sim/world.py": (
                    "import repro.analysis.report"
                    "  # repro-lint: disable=RL009 fixture tolerates inversion\n"
                ),
            },
        )
        assert lint(root, ["RL009"]).findings == []


# ------------------------------------------------------- RL010 knob lifecycle
KNOB_REGISTRY = """\
class Knob:
    def __init__(self, name, kind="flag"):
        self.name = name


USED = Knob(name="REPRO_USED")
DEAD = Knob(name="REPRO_DEAD")
"""

KNOB_READER = """\
from repro.core import knobs


def enabled():
    return knobs.flag("REPRO_USED")
"""


class TestKnobLifecycle:
    def test_dead_knob_flagged_at_registration(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/knobs.py": KNOB_REGISTRY,
                "src/repro/core/executor.py": KNOB_READER,
            },
        )
        (finding,) = lint(root, ["RL010"]).findings
        assert finding.path == "src/repro/core/knobs.py"
        assert "'REPRO_DEAD' is registered but never read" in finding.message

    def test_undeclared_read_flagged_at_read_site(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/knobs.py": KNOB_REGISTRY.replace(
                    'DEAD = Knob(name="REPRO_DEAD")\n', ""
                ),
                "src/repro/core/executor.py": KNOB_READER
                + """\


def ghost():
    return knobs.raw("REPRO_GHOST")
""",
            },
        )
        (finding,) = lint(root, ["RL010"]).findings
        assert finding.path == "src/repro/core/executor.py"
        assert "'REPRO_GHOST'" in finding.message
        assert "not declared in repro.core.knobs" in finding.message

    def test_read_through_module_constant_resolves(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/knobs.py": KNOB_REGISTRY,
                "src/repro/core/executor.py": """\
                from repro.core import knobs

                USED_ENV = "REPRO_USED"
                DEAD_ENV = "REPRO_DEAD"


                def read_both():
                    return knobs.flag(USED_ENV), knobs.raw(DEAD_ENV)
                """,
            },
        )
        assert lint(root, ["RL010"]).findings == []

    def test_read_through_wrapper_function_resolves(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/knobs.py": KNOB_REGISTRY,
                "src/repro/pipeline/builder.py": """\
                def env_flag(name):
                    from repro.core import knobs
                    return knobs.flag(name)
                """,
                "src/repro/pipeline/runner.py": """\
                from repro.pipeline.builder import env_flag


                def cached():
                    return env_flag("REPRO_USED")
                """,
                "src/repro/core/executor.py": """\
                from repro.core import knobs


                def dead_reader():
                    return knobs.flag("REPRO_DEAD")
                """,
            },
        )
        # Both knobs resolve: one through the wrapper, one directly.
        assert lint(root, ["RL010"]).findings == []

    def test_collection_arguments_count_as_reads(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/knobs.py": KNOB_REGISTRY,
                "src/repro/core/executor.py": KNOB_READER
                + """\


def pinned():
    with knobs.temporary({"REPRO_DEAD": "1"}):
        return None
""",
            },
        )
        assert lint(root, ["RL010"]).findings == []

    def test_tree_without_registry_is_silent(self, tmp_path):
        root = project(
            tmp_path,
            {"src/repro/core/executor.py": KNOB_READER},
        )
        assert lint(root, ["RL010"]).findings == []

    def test_pragma_on_registration_suppresses(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/core/knobs.py": KNOB_REGISTRY.replace(
                    'DEAD = Knob(name="REPRO_DEAD")',
                    'DEAD = Knob(name="REPRO_DEAD")'
                    "  # repro-lint: disable=RL010 reserved for the next driver",
                ),
                "src/repro/core/executor.py": KNOB_READER,
            },
        )
        assert lint(root, ["RL010"]).findings == []


# ------------------------------------------------------ RL012 pickle boundary
RUNSPEC_STUB = "class RunSpec:\n    pass\n"


class TestPickleBoundary:
    def lint_one(self, tmp_path, body, extra_files=None):
        files = {"src/repro/core/executor.py": RUNSPEC_STUB}
        files.update(extra_files or {})
        files["src/repro/core/campaign.py"] = body
        return lint(project(tmp_path, files), ["RL012"])

    def test_lambda_into_aliased_spec_constructor(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            from repro.core.executor import RunSpec as Spec


            def build():
                return Spec(callback=lambda: 1)
            """,
        )
        (finding,) = result.findings
        assert "a lambda" in finding.message
        assert "argument 'callback' of RunSpec(...)" in finding.message

    def test_nested_function_into_spec_constructor(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            from repro.core.executor import RunSpec


            def build():
                def hook():
                    return 1
                return RunSpec(hook)
            """,
        )
        (finding,) = result.findings
        assert "nested function 'hook'" in finding.message
        assert "positional argument" in finding.message

    def test_lock_into_spec_constructor(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            import threading

            from repro.core.executor import RunSpec


            def build():
                return RunSpec(lock=threading.Lock())
            """,
        )
        (finding,) = result.findings
        assert "threading.Lock() synchronization primitive" in finding.message

    def test_dataclasses_replace_is_a_boundary(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            from dataclasses import replace


            def tweak(spec):
                return replace(spec, callback=lambda: 2)
            """,
        )
        (finding,) = result.findings
        assert "dataclasses.replace(...)" in finding.message

    def test_pool_initializer_and_initargs(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            from concurrent.futures import ProcessPoolExecutor


            def setup(flag):
                return flag


            def pool_bad_initializer():
                return ProcessPoolExecutor(initializer=lambda: None)


            def pool_bad_initargs():
                return ProcessPoolExecutor(initializer=setup, initargs=(lambda: 1,))
            """,
        )
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 2
        assert "ProcessPoolExecutor initargs" in messages[0]
        assert "initializer" in messages[1]

    def test_process_target_and_args(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            import multiprocessing


            def work(flag):
                return flag


            def bad_target():
                return multiprocessing.Process(target=lambda: None)


            def bad_nested_target(ctx):
                def inner():
                    return 1
                return ctx.Process(target=inner, args=(1,))


            def bad_args(ctx):
                return ctx.Process(target=work, args=(1, lambda: 2))
            """,
        )
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 3
        assert "a lambda in Process args" in messages[0]
        assert "a lambda used as a Process target" in messages[1]
        assert "nested function 'inner'" in messages[2]
        assert "Process target" in messages[2]

    def test_module_level_process_target_is_picklable(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            import multiprocessing
            from multiprocessing import Process


            def work(conn, payload):
                return conn, payload


            def start(ctx, conn, payload):
                ctx.Process(target=work, args=(conn, *payload), daemon=True).start()
                multiprocessing.Process(target=work, args=[conn, payload]).start()
                return Process(target=work, args=(conn, payload))
            """,
        )
        assert result.findings == []

    def test_submit_arguments_are_checked(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            def run(pool):
                return pool.submit(lambda: 3)
            """,
        )
        (finding,) = result.findings
        assert "passed to submit()" in finding.message

    def test_module_level_function_is_picklable(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            from repro.core.executor import RunSpec


            def task():
                return 1


            def build(pool):
                pool.submit(task)
                return RunSpec(callback=task)
            """,
        )
        assert result.findings == []

    def test_pragma_on_value_line_suppresses(self, tmp_path):
        result = self.lint_one(
            tmp_path,
            """\
            from repro.core.executor import RunSpec


            def build():
                return RunSpec(
                    callback=lambda: 1,  # repro-lint: disable=RL012 never leaves this process
                )
            """,
        )
        assert result.findings == []


# ----------------------------------------- stale baseline + prune + artifacts
VIOLATION = "import random\nx = random.random()\n"


def make_repo(tmp_path: Path, source: str = VIOLATION) -> Path:
    return project(tmp_path, {"src/repro/pipeline/fixture.py": source})


class TestStaleBaseline:
    def test_stale_entries_reported_without_failing(self, tmp_path):
        root = make_repo(tmp_path)
        assert repro_main(["lint", "--root", str(root), "--write-baseline"]) == 0
        (root / "src" / "repro" / "pipeline" / "fixture.py").write_text("VALUE = 1\n")
        result = run_lint([Path("src")], root=root)
        assert result.findings == []
        assert [e.code for e in result.stale_baseline] == ["RL001"]
        assert result.exit_code == 0
        text = format_result(result)
        assert "stale baseline entry" in text
        assert "--prune-baseline" in text
        payload = json.loads(format_result(result, fmt="json"))
        assert payload["counts"]["stale_baseline"] == 1
        assert payload["stale_baseline"][0]["code"] == "RL001"

    def test_prune_rewrites_the_baseline(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        assert repro_main(["lint", "--root", str(root), "--write-baseline"]) == 0
        (root / "src" / "repro" / "pipeline" / "fixture.py").write_text("VALUE = 1\n")
        assert repro_main(["lint", "--root", str(root), "--prune-baseline"]) == 0
        assert "pruned 1 stale entry" in capsys.readouterr().out
        payload = json.loads((root / "lint-baseline.json").read_text())
        assert payload["findings"] == []
        result = run_lint([Path("src")], root=root)
        assert result.stale_baseline == []

    def test_prune_keeps_live_entries(self, tmp_path):
        root = make_repo(
            tmp_path, VIOLATION + "import time\nt = time.time()\n"
        )
        assert repro_main(["lint", "--root", str(root), "--write-baseline"]) == 0
        path = root / "src" / "repro" / "pipeline" / "fixture.py"
        path.write_text("import time\nt = time.time()\n")
        assert repro_main(["lint", "--root", str(root), "--prune-baseline"]) == 0
        payload = json.loads((root / "lint-baseline.json").read_text())
        assert [e["code"] for e in payload["findings"]] == ["RL002"]

    def test_prune_conflicts_with_no_baseline(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        code = repro_main(
            ["lint", "--root", str(root), "--prune-baseline", "--no-baseline"]
        )
        assert code == 2
        assert "requires the baseline" in capsys.readouterr().out


class TestResultPayloadCompat:
    def test_v2_payload_passes_through(self, tmp_path):
        root = make_repo(tmp_path)
        raw = json.loads(
            format_result(run_lint([Path("src")], root=root, use_baseline=False), "json")
        )
        normalized = parse_result_payload(raw)
        assert normalized["schema"] == JSON_SCHEMA
        assert normalized["counts"]["stale_baseline"] == 0

    def test_v1_payload_is_normalized(self):
        normalized = parse_result_payload(
            {
                "schema": "repro-lint-v1",
                "files_checked": 3,
                "findings": [],
                "counts": {"total": 0, "new": 0, "baselined": 0},
            }
        )
        assert normalized["stale_baseline"] == []
        assert normalized["counts"]["stale_baseline"] == 0

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="lint result schema"):
            parse_result_payload({"schema": "repro-lint-v9"})
        with pytest.raises(ValueError, match="JSON object"):
            parse_result_payload(["not", "a", "dict"])


class TestGraphArtifactCli:
    def test_graph_written_even_without_project_checkers(self, tmp_path, capsys):
        root = make_repo(tmp_path, "VALUE = 1\n")
        out = root / "graph.json"
        code = repro_main(
            [
                "lint",
                "--root",
                str(root),
                "--select",
                "RL001",
                "--graph",
                str(out),
                "--no-baseline",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == GRAPH_SCHEMA
        assert [n["module"] for n in payload["nodes"]] == ["repro.pipeline.fixture"]

    def test_graph_of_live_tree_is_substantial(self, tmp_path):
        out = tmp_path / "graph.json"
        result = run_lint(
            [Path("src/repro")],
            root=REPO_ROOT,
            select=["RL009"],
            use_baseline=False,
            graph_path=out,
        )
        assert result.findings == []
        payload = json.loads(out.read_text())
        modules = {n["module"] for n in payload["nodes"]}
        assert "repro.core.executor" in modules
        layers = {n["layer"] for n in payload["nodes"]}
        assert {"foundation", "sim", "kernel", "stages", "assembly", "engine", "surface"} <= layers
        assert payload["edges"], "live tree must have internal import edges"
        for edge in payload["edges"]:
            assert edge["kind"] in ("toplevel", "lazy", "typing")


# ------------------------------------------------------------------ meta-test
class TestLiveTreeContracts:
    """The acceptance gate: RL008-RL012 clean on src with no baseline at all."""

    def test_live_tree_clean_under_project_checkers(self):
        result = run_lint(
            [Path("src")],
            root=REPO_ROOT,
            select=PROJECT_CODES,
            use_baseline=False,
        )
        messages = [f.format_text() for f in result.findings]
        assert messages == [], "\n".join(messages)

    def test_project_checkers_selectable_via_cli(self, capsys):
        code = repro_main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--select",
                ",".join(PROJECT_CODES),
                "--no-baseline",
                "src",
            ]
        )
        assert code == 0
        assert "0 findings" in capsys.readouterr().out
