"""Shared fixtures for the MAVFI reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import checkpoint, knobs
from repro.detection.autoencoder import AadDetector, AutoencoderConfig
from repro.detection.gaussian import GadConfig, GaussianDetector
from repro.pipeline.builder import PipelineConfig, build_pipeline
from repro.pipeline.states import MONITORED_FEATURES
from repro.rosmw.graph import NodeGraph
from repro.sim.environments import make_environment
from repro.sim.world import Cuboid, World


def pytest_configure(config):
    # The parallel executor clamps its worker count to the CPU count (process
    # oversubscription only slows campaigns down), which on a single-core CI
    # box would silently turn every pool test into a serial-fallback test.
    # Lift the clamp for the suite so the tests exercise real worker pools;
    # individual tests opt back in via ParallelExecutor(oversubscribe=False).
    knobs.setdefault_env("MAVFI_OVERSUBSCRIBE", "1")


@pytest.fixture(autouse=True)
def cold_engine_caches():
    """Start every test without checkpoint cursors or kernel memo entries.

    The kernel memos and the cursors outlive a test; without this reset, what
    a test observes (kernel calls, forks, cache hits) would depend on which
    tests ran before it.
    """
    checkpoint.reset_checkpoint_caches()


@pytest.fixture
def graph() -> NodeGraph:
    """A fresh, empty node graph."""
    return NodeGraph()


@pytest.fixture
def simple_world() -> World:
    """A small world with one box obstacle in front of the origin."""
    world = World(name="test")
    world.add_obstacle(Cuboid.from_center((10.0, 0.0, 3.0), (4.0, 4.0, 6.0), name="box"))
    return world


@pytest.fixture
def farm_world() -> World:
    """The (effectively obstacle-free) farm evaluation environment."""
    return make_environment("farm", seed=0)


@pytest.fixture
def fast_pipeline_config() -> PipelineConfig:
    """A pipeline configuration that runs a mission in well under a second."""
    return PipelineConfig(environment="farm", seed=0, mission_time_limit=60.0)


@pytest.fixture
def built_pipeline(fast_pipeline_config):
    """A built (un-started) pipeline in the farm environment."""
    return build_pipeline(fast_pipeline_config)


def _synthetic_training_deltas(rng: np.random.Generator, n: int = 400):
    """Synthetic error-free delta traces for detector training in unit tests."""
    deltas = {}
    for i, feature in enumerate(MONITORED_FEATURES):
        scale = 3.0 + i
        deltas[feature] = list(np.round(rng.normal(0.0, scale, size=n)))
    return deltas


@pytest.fixture(scope="session")
def synthetic_training_deltas():
    """Session-wide synthetic training deltas (cheap, deterministic)."""
    return _synthetic_training_deltas(np.random.default_rng(7))


@pytest.fixture(scope="session")
def trained_gad(synthetic_training_deltas) -> GaussianDetector:
    """A Gaussian detector fitted on synthetic normal deltas."""
    detector = GaussianDetector(GadConfig(n_sigma=6.0, min_samples=5))
    detector.fit(synthetic_training_deltas)
    return detector


@pytest.fixture(scope="session")
def trained_aad(synthetic_training_deltas) -> AadDetector:
    """An autoencoder detector fitted on synthetic normal deltas."""
    config = AutoencoderConfig(
        layer_sizes=(len(MONITORED_FEATURES), 6, 3, len(MONITORED_FEATURES)),
        epochs=15,
        seed=3,
    )
    detector = AadDetector(config=config)
    detector.fit(synthetic_training_deltas)
    return detector
