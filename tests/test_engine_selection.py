"""Engine-backend selection plumbing: the ``SystemConfig.engine``
field, the factory, its fallback where the compiled core cannot be
built, and the engines' independence from NumPy (only the radix trace
generator needs it).
"""

import sys
import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import (
    DirectoryParams,
    SystemConfig,
    config_from_dict,
    config_to_dict,
)
from repro.common.records import Access
from repro.experiments.runner import config_key
from repro.sim import factory, native
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


class TestFactory:
    @pytest.mark.usefixtures("native_path")
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


@pytest.fixture
def no_core(monkeypatch):
    """This process behaves as if the core could not be built."""
    monkeypatch.setattr(native, "_tried", True)
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_reason", "no C compiler")
    monkeypatch.setattr(factory, "_fallback_warned", False)


@pytest.mark.usefixtures("no_core")
class TestWithoutTheCore:
    TRACES = [[Access(0, True, 1), Access(512, False, 0)], [Access(512, True, 2)]]

    def test_fullmap_runahead_runs_on_the_reference_with_one_warning(self):
        cfg = tiny_config("rnuma")
        with pytest.warns(RuntimeWarning, match=r"unavailable \(no C compiler\)"):
            engine = factory.make_engine(cfg, [list(t) for t in self.TRACES])
        assert type(engine) is ReferenceEngine
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = factory.simulate_with(cfg, [list(t) for t in self.TRACES])
        # Same identity as a core run: the config (and so the run key)
        # still names the run-ahead engine.
        assert result.config == cfg
        oracle = factory.simulate_with(
            cfg.with_engine("reference"), [list(t) for t in self.TRACES]
        )
        assert result.to_json_dict()["stats"] == oracle.to_json_dict()["stats"]

    @pytest.mark.parametrize("representation", ("limited", "coarse"))
    def test_inexact_directories_need_the_core(self, representation):
        cfg = tiny_config(
            "ccnuma", directory=DirectoryParams(representation=representation)
        )
        with pytest.raises(ConfigurationError, match="no C compiler"):
            factory.make_engine(cfg, [[], []])

    def test_a_direct_engine_run_names_the_missing_compiler(self):
        engine = SimulationEngine(tiny_config("ccnuma"), [[], []])
        with pytest.raises(ConfigurationError, match="no C compiler"):
            engine.run()


class TestSimulateDispatch:
    def test_simulate_routes_by_config_engine(self):
        from repro.sim.engine import simulate

        traces = [[], []]
        for name in ("runahead", "reference"):
            result = simulate(tiny_config("ccnuma", engine=name), traces)
            assert result.exec_cycles == 0
