"""Engine-backend selection plumbing: the ``SystemConfig.engine``
field, the process default, the factory, and the missing-NumPy path.

These run in every environment — including the no-NumPy CI leg, where
they pin the degradation story (clean :class:`EngineUnavailableError`,
runahead/reference untouched) rather than being skipped with the
``vector``-marked suites.
"""

import pytest

from repro.common.errors import ConfigurationError, EngineUnavailableError
from repro.common.params import (
    SystemConfig,
    config_from_dict,
    config_to_dict,
    set_default_engine,
)
from repro.experiments.runner import config_key
from repro.sim import factory
from repro.sim import vector as vector_mod
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
        assert base.with_engine("vector").engine == "vector"
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
        assert [r["name"] for r in rows] == [
            "runahead",
            "reference",
            "vector",
        ]
        for row in rows:
            extra = {"native"} if row["name"] == "runahead" else set()
            assert set(row) == {
                "name",
                "summary",
                "requires",
                "available",
                "reason",
            } | extra
            # The listing's reason and the availability flag must agree.
            assert row["available"] == (row["reason"] is None)
        assert rows[0]["available"] and rows[1]["available"]

    def test_unavailable_reason_strings(self):
        assert factory.engine_unavailable_reason("runahead") is None
        assert "unknown engine" in factory.engine_unavailable_reason("specialized")
        assert "unknown engine" in factory.engine_unavailable_reason("warp")

    def test_vector_without_numpy_raises_cleanly(self, monkeypatch):
        """Simulate the missing optional dependency: construction fails
        with the install hint, and availability reporting agrees."""
        monkeypatch.setattr(vector_mod, "_np", None)
        assert not vector_mod.numpy_available()
        assert not factory.engine_available("vector")
        expected_reason = "NumPy not installed (pip install .[vector])"
        assert factory.engine_unavailable_reason("vector") == expected_reason
        with pytest.raises(EngineUnavailableError, match=r"pip install \.\[vector\]") as exc:
            factory.make_engine(tiny_config("ccnuma", engine="vector"), [[], []])
        # The error carries the same short reason the listing shows.
        assert exc.value.reason == expected_reason
        with pytest.raises(EngineUnavailableError):
            vector_mod.epoch_index(b"")
        rows = {r["name"]: r for r in factory.engine_backends()}
        assert rows["vector"]["reason"] == expected_reason
        assert not rows["vector"]["available"]

    def test_runahead_and_reference_survive_missing_numpy(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "_np", None)
        traces = [[], []]
        cfg = tiny_config("ccnuma")
        a = factory.simulate_with(cfg, traces)
        b = factory.simulate_with(cfg.with_engine("reference"), traces)
        assert a.exec_cycles == b.exec_cycles == 0

    @pytest.mark.usefixtures("native_path")
    def test_native_core_survives_missing_numpy(self, monkeypatch):
        """The compiled core calls the OS page services, whose block
        scan has an optional NumPy fast path.  Patch out both optional
        import sites and check a real (non-empty) run still matches the
        reference."""
        from repro.common.records import Access
        from repro.osint import services as services_mod

        monkeypatch.setattr(vector_mod, "_np", None)
        monkeypatch.setattr(services_mod, "_np", None)
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

    @pytest.mark.vector
    def test_simulate_vector_engine_matches(self):
        from repro.common.records import Access
        from repro.sim.engine import simulate

        traces = [[Access(0, False, 1), Access(64, True, 0)], [Access(512, True, 2)]]
        fast = simulate(
            tiny_config("ccnuma", engine="vector"), [list(t) for t in traces]
        )
        slow = simulate(
            tiny_config("ccnuma", engine="reference"), [list(t) for t in traces]
        )
        assert fast.exec_cycles == slow.exec_cycles
