"""Engine-backend selection plumbing: the ``SystemConfig.engine``
field, the process default, the factory, and the engines' independence
from NumPy (only the radix trace generator needs it).
"""

import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import (
    SystemConfig,
    config_from_dict,
    config_to_dict,
    set_default_engine,
)
from repro.experiments.runner import config_key
from repro.sim import factory
from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceEngine

from tests.conftest import tiny_config


class TestConfigField:
    def test_default_resolves_to_runahead(self):
        assert SystemConfig(protocol="ccnuma").engine == "runahead"

    def test_explicit_engine_is_kept(self):
        for name in SystemConfig._ENGINES:
            assert SystemConfig(protocol="ccnuma", engine=name).engine == name

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(protocol="ccnuma", engine="warp")

    def test_with_engine(self):
        base = tiny_config("ccnuma")
        assert base.with_engine("reference").engine == "reference"
        assert base.engine == "runahead"

    def test_config_from_dict_defaults_to_runahead(self):
        data = config_to_dict(tiny_config("ccnuma"))
        data.pop("engine", None)
        assert config_from_dict(data).engine == "runahead"

    def test_engine_participates_in_config_key(self):
        base = tiny_config("ccnuma")
        assert config_key(base) != config_key(base.with_engine("reference"))


class TestProcessDefault:
    def test_set_default_engine_steers_the_sentinel(self):
        previous = set_default_engine("reference")
        try:
            assert SystemConfig(protocol="ccnuma").engine == "reference"
            assert (
                SystemConfig(protocol="ccnuma", engine="runahead").engine
                == "runahead"
            )
        finally:
            set_default_engine(previous)
        assert SystemConfig(protocol="ccnuma").engine == "runahead"

    def test_set_default_engine_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            set_default_engine("warp")


class TestFactory:
    def test_builds_each_backend(self):
        traces = [[], []]
        cfg = tiny_config("ccnuma")
        assert type(factory.make_engine(cfg, traces)) is SimulationEngine
        assert isinstance(
            factory.make_engine(cfg.with_engine("reference"), traces),
            ReferenceEngine,
        )

    def test_backend_listing_shape(self):
        rows = factory.engine_backends()
        assert [r["name"] for r in rows] == list(SystemConfig._ENGINES)
        for row in rows:
            extra = {"native"} if row["name"] == "runahead" else set()
            assert set(row) == {"name", "summary"} | extra

    def test_runahead_and_reference_survive_missing_numpy(self, monkeypatch):
        # A None entry makes any ``import numpy`` raise ImportError.
        monkeypatch.setitem(sys.modules, "numpy", None)
        traces = [[], []]
        cfg = tiny_config("ccnuma")
        a = factory.simulate_with(cfg, traces)
        b = factory.simulate_with(cfg.with_engine("reference"), traces)
        assert a.exec_cycles == b.exec_cycles == 0

    @pytest.mark.usefixtures("native_path")
    def test_native_core_survives_missing_numpy(self, monkeypatch):
        """The compiled core calls back into the OS page services on
        relocation; with NumPy imports blocked, a real (non-empty) rnuma
        run still matches the reference."""
        from repro.common.records import Access

        monkeypatch.setitem(sys.modules, "numpy", None)
        traces = [
            [Access(0, False, 1), Access(64, True, 0)],
            [Access(512, True, 2), Access(0, True, 0)],
        ]
        cfg = tiny_config("rnuma")
        fast = factory.simulate_with(cfg, [list(t) for t in traces])
        slow = factory.simulate_with(
            cfg.with_engine("reference"), [list(t) for t in traces]
        )
        assert fast.exec_cycles == slow.exec_cycles


class TestSimulateDispatch:
    def test_simulate_routes_by_config_engine(self):
        from repro.sim.engine import simulate

        traces = [[], []]
        for name in ("runahead", "reference"):
            result = simulate(tiny_config("ccnuma", engine=name), traces)
            assert result.exec_cycles == 0
