"""Differential property test: the specialized miss path against the
frozen reference loop.

The run-ahead engine's specialized miss path is its compiled core
(:mod:`repro.sim.native`, ``sim/_core.c``): the drain loop and the
whole miss path transcribed to C and run on the engine's own objects.
It replaced the ``specialized`` engine's partially evaluated Python
miss path, whose test names these keep.  It claims to change nothing
observable, so the whole :class:`~repro.sim.results.SimulationResult`
must match the reference engine on every protocol, fabric, node shape
and real program.  The ``native_path`` fixture fails any of these runs
the core did not serve.  Inexact directories, unplaced pages and the
widest machine the core serves are covered in
``test_native_differential``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import MachineParams
from repro.sim import simulate, simulate_reference
from repro.sim.engine import SimulationEngine

from tests.conftest import tiny_config
from tests.property.test_runahead_differential import (
    PROTOCOLS,
    assert_identical_results,
    programs,
)
from tests.property.test_vector_differential import TOPOLOGIES
from tests.test_reset_determinism import _snapshot

pytestmark = pytest.mark.usefixtures("native_path")


@given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
@settings(max_examples=200, deadline=None)
def test_specialized_matches_reference(traces, protocol):
    config = tiny_config(protocol)
    fast = simulate(config, [list(t) for t in traces])
    slow = simulate_reference(config, [list(t) for t in traces])
    assert_identical_results(fast, slow)


@given(
    traces=programs(),
    protocol=st.sampled_from(PROTOCOLS),
    topology=st.sampled_from(TOPOLOGIES),
)
@settings(max_examples=60, deadline=None)
def test_specialized_matches_reference_across_topologies(
    traces, protocol, topology
):
    """The core takes a fixed-delay shortcut on the uniform fabric and
    calls the network's traversal otherwise; the non-uniform fabrics
    pin the other side of that branch."""
    config = tiny_config(protocol, topology=topology)
    fast = simulate(config, [list(t) for t in traces])
    slow = simulate_reference(config, [list(t) for t in traces])
    assert_identical_results(fast, slow)


@given(traces=programs())
@settings(max_examples=40, deadline=None)
def test_specialized_matches_reference_multi_cpu_nodes(traces):
    """Two CPUs per node: victim and downgrade handling walk every L1
    on the node, and peer snoops must stay."""
    traces = [list(traces[0]), list(traces[1]), list(traces[1]), list(traces[0])]
    for protocol in PROTOCOLS:
        config = tiny_config(
            protocol, machine=MachineParams(nodes=2, cpus_per_node=2)
        )
        fast = simulate(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


def test_specialized_matches_reference_on_an_app_program():
    """End-to-end: a real compiled workload, all four protocols."""
    from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
    from repro.workloads.registry import build_program

    program = build_program("em3d", scale=0.05)
    for config in (ideal(), cc_config(), scoma_config(), rnuma_config()):
        fast = simulate(config, program)
        slow = simulate_reference(config, program)
        assert_identical_results(fast, slow)


def test_specialized_is_reset_deterministic():
    """Back-to-back core runs on one engine instance: the core holds
    the engine's structures only for the length of a run, so reset()
    must leave the second run exactly where the first began.  The
    stats objects are shared with the machine and zeroed by reset(),
    so the first run is copied out before it."""
    from repro.experiments.config import cc_config, rnuma_config
    from repro.workloads.registry import build_program

    program = build_program("em3d", scale=0.05)
    for config in (cc_config(), rnuma_config()):
        engine = SimulationEngine(config, program)
        first = _snapshot(engine.run())
        engine.reset()
        second = _snapshot(engine.run())
        assert second == first, f"reset drifted for {config.protocol}"
