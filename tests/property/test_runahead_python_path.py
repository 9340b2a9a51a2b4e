"""The run-ahead suites again, on the engine's pure-Python loop.

``test_runahead_differential``, ``test_reset_determinism``,
``test_stats_parity`` and ``test_obs_differential`` run on the compiled
core (:mod:`repro.sim.native`) in their own modules.  Importing their
tests here collects each one a second time under the ``python_path``
fixture, which forces the Python loop, so both paths of the one
``"runahead"`` engine are pinned by the same assertions.

The Python loop keeps no copy of the directory protocol of its own:
:func:`test_every_remote_fetch_reaches_the_directory` pins that every
inter-node request goes through the canonical
:class:`~repro.coherence.directory.Directory`.
"""

import pytest

from repro.coherence.directory import Directory
from repro.common.records import Access
from repro.sim.engine import SimulationEngine

from tests.conftest import tiny_config
from tests.property.test_obs_differential import *  # noqa: F401,F403
from tests.property.test_runahead_differential import *  # noqa: F401,F403
from tests.test_reset_determinism import *  # noqa: F401,F403
from tests.test_stats_parity import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("python_path")


def test_every_remote_fetch_reaches_the_directory(monkeypatch):
    """One ``Directory`` request per remote fetch, repeat requests for
    an already-tracked block included."""
    calls = {"read": 0, "write": 0, True: 0, False: 0}
    read_request = Directory.read_request
    write_request = Directory.write_request
    remote_fetch = SimulationEngine._remote_fetch

    def counted_read(self, block, node):
        calls["read"] += 1
        return read_request(self, block, node)

    def counted_write(self, block, node, upgrade=False):
        calls["write"] += 1
        return write_request(self, block, node, upgrade=upgrade)

    def counted_fetch(self, node, b, g, write, now, upgrade=False):
        calls[bool(write)] += 1
        return remote_fetch(self, node, b, g, write, now, upgrade)

    monkeypatch.setattr(Directory, "read_request", counted_read)
    monkeypatch.setattr(Directory, "write_request", counted_write)
    monkeypatch.setattr(SimulationEngine, "_remote_fetch", counted_fetch)

    # Node 1 reads, then writes, blocks 0 and 2 of node 0's page.  They
    # share a set in its 2-line L1 and block cache, so every access
    # misses and goes back to the home.
    remote = [
        Access(addr, write, 0)
        for write in (False, True)
        for _ in range(3)
        for addr in (0, 128)
    ]
    traces = [[Access(256, False, 0)], remote]
    engine = SimulationEngine(tiny_config("ccnuma"), traces, homes={0: 0})
    result = engine.run()

    assert result.stats.nodes[1].refetches > 0
    # More fetches than blocks: repeat requests are counted too.
    assert calls[False] > 2 and calls[True] > 2
    assert calls["read"] == calls[False]
    assert calls["write"] == calls[True]
