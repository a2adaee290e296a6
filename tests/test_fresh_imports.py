"""Every ``repro`` module imports cleanly as the first import of an interpreter.

Package ``__init__`` files import each other (the stage packages import
``repro.pipeline.kernel``, whose package imports the builder, which imports
the stage packages), so an import cycle only shows when a module is imported
*first*.  Each module gets its own fresh interpreter.

The examples are imported the same way, without running their ``main``: no
other test imports them, so this is what catches an example that imports a
name the package no longer has.
"""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _all_modules():
    return [
        "repro",
        *sorted(info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")),
    ]


def _run_fresh(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stderr.strip().splitlines()[-1:]


def _import_first(module):
    return (module, *_run_fresh(f"import {module}"))


def _import_example(path):
    # Loaded under its file stem, not as __main__, so main() does not run.
    code = (
        "import importlib.util; "
        f"spec = importlib.util.spec_from_file_location({path.stem!r}, {str(path)!r}); "
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))"
    )
    return (path.name, *_run_fresh(code))


def test_every_module_imports_first_in_a_fresh_interpreter():
    modules = _all_modules()
    assert "repro.planning.rrt" in modules and "repro.perception.occupancy" in modules
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        failures = [
            (module, error)
            for module, code, error in pool.map(_import_first, modules)
            if code != 0
        ]
    assert failures == []


def test_every_example_imports_in_a_fresh_interpreter():
    examples = sorted(EXAMPLES.glob("*.py"))
    assert "quickstart.py" in {path.name for path in examples}
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        failures = [
            (name, error)
            for name, code, error in pool.map(_import_example, examples)
            if code != 0
        ]
    assert failures == []


def test_pipeline_names_resolve_lazily():
    import repro.pipeline as pipeline
    from repro.pipeline import MissionRunner, build_pipeline
    from repro.pipeline.builder import build_pipeline as builder_build_pipeline
    from repro.pipeline.runner import MissionRunner as runner_mission_runner

    assert build_pipeline is builder_build_pipeline
    assert MissionRunner is runner_mission_runner
    assert "build_pipeline" in vars(pipeline)
    with pytest.raises(AttributeError, match="no_such_name"):
        _ = pipeline.no_such_name
