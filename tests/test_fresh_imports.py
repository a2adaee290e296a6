"""Every ``repro`` module imports cleanly as the first import of an interpreter.

Package ``__init__`` files import each other (the stage packages import
``repro.pipeline.kernel``, whose package imports the builder, which imports
the stage packages), so an import cycle only shows when a module is imported
*first*.  Each module gets its own fresh interpreter.
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


def _all_modules():
    return [
        "repro",
        *sorted(info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")),
    ]


def _import_first(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return module, proc.returncode, proc.stderr.strip().splitlines()[-1:]


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
