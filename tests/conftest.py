"""Shared fixtures: small machines and cache geometries that make
hand-written traces easy to reason about.

The "tiny" geometry used throughout the unit tests:

- 2 nodes x 1 CPU;
- 64-byte blocks, 512-byte pages (8 blocks per page);
- 128-byte L1 (2 lines, direct-mapped: set = block & 1);
- 128-byte block cache (2 lines, set = block & 1);
- 2-page page cache.

With this geometry, two blocks with equal parity conflict in both the
L1 and the block cache, which makes refetch scenarios two lines long.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.common.addressing import AddressSpace
from repro.common.params import CacheParams, CostParams, MachineParams, SystemConfig


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Keep the persistent result store out of the user's home cache.

    CLI commands default to ``default_store_dir()``; without this, test
    runs would populate (and read back!) ~/.cache/repro-rnuma.
    """
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "result-store"))


def pytest_collection_modifyitems(config, items):
    """Skip ``vector``-marked tests when the optional NumPy dependency
    is missing, so the no-NumPy environment stays green without any
    per-test boilerplate (the engine-selection unit tests that *pin* the
    missing-NumPy behavior are unmarked and always run)."""
    from repro.sim.vector import numpy_available

    if numpy_available():
        return
    skip = pytest.mark.skip(reason="vector engine needs NumPy (pip install .[vector])")
    for item in items:
        if "vector" in item.keywords:
            item.add_marker(skip)


@contextlib.contextmanager
def python_loop():
    """Run the run-ahead engine on its pure-Python loop inside the
    block (the test seam of :mod:`repro.sim.native`)."""
    from repro.sim import native

    saved = native._force_python
    native._force_python = True
    try:
        yield
    finally:
        native._force_python = saved


class CoreSpy:
    """Stands in for the loaded core and counts the runs it serves."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def run(self, *args):
        self.calls += 1
        return self.real.run(*args)


@pytest.fixture
def native_path(monkeypatch):
    """The native leg of a suite: run-ahead runs use the compiled core;
    skipped, with the reason, where the core cannot be built.

    Yields a :class:`CoreSpy` around the core, and fails any run the
    core should have served but did not (exactly ``SimulationEngine``,
    no instance ``_miss`` hook, at most ``MAX_NODES`` nodes, Python
    loop not forced), so a silent fallback cannot pass for agreement.
    """
    from repro.sim import native
    from repro.sim.engine import SimulationEngine

    status = native.status()
    if status != "active":
        pytest.skip(f"compiled run-ahead core unavailable: {status}")
    spy = CoreSpy(native.core())
    monkeypatch.setattr(native, "_module", spy)
    engine_run = SimulationEngine.run

    def run(engine):
        eligible = (
            not native._force_python
            and type(engine) is SimulationEngine
            and "_miss" not in engine.__dict__
            and len(engine._nodes) <= native.MAX_NODES
        )
        before = spy.calls
        result = engine_run(engine)
        if eligible:
            assert spy.calls == before + 1, "the compiled core did not serve the run"
        return result

    monkeypatch.setattr(SimulationEngine, "run", run)
    yield spy


@pytest.fixture
def python_path():
    """The Python leg of a suite: run-ahead runs use the Python loop."""
    with python_loop():
        yield


TINY_SPACE = AddressSpace(block_size=64, page_size=512)
TINY_MACHINE = MachineParams(nodes=2, cpus_per_node=1)
TINY_CACHES = CacheParams(l1_size=128, block_cache_size=128, page_cache_size=1024)


@pytest.fixture
def space():
    return TINY_SPACE


@pytest.fixture
def machine_params():
    return TINY_MACHINE


def tiny_config(protocol: str, **overrides) -> SystemConfig:
    """A SystemConfig on the tiny geometry."""
    kwargs = dict(
        protocol=protocol,
        machine=TINY_MACHINE,
        caches=TINY_CACHES,
        space=TINY_SPACE,
        costs=CostParams(),
        relocation_threshold=2,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


@pytest.fixture
def cc_tiny():
    return tiny_config("ccnuma")


@pytest.fixture
def scoma_tiny():
    return tiny_config("scoma")


@pytest.fixture
def rnuma_tiny():
    return tiny_config("rnuma")


@pytest.fixture
def ideal_tiny():
    return tiny_config("ideal")
