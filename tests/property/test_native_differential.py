"""Differential property tests for the run-ahead engine's compiled
core, for the corners the shared run-ahead suites do not reach.

The compiled core (:mod:`repro.sim.native`, ``sim/_core.c``)
transcribes the drain loop and the whole miss path.  The run-ahead
differential, topology, reset and stats suites already run on it
(their default path) against the frozen reference, on full-map
directories.  This module adds what they leave out: the non-uniform
fabrics, the limited-pointer and coarse-vector directories, pages
missing from the placement map, the widest machine the int64 directory
columns serve, and that the core serves every run.  The whole
:class:`~repro.sim.results.SimulationResult` must match.

Oracle scope: the reference engine simulates the full-map directory
only (see :mod:`repro.sim.reference`), so the limited-pointer and
coarse-vector representations are compared at exact capacity, where
they must equal the full map.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import DirectoryParams, MachineParams, ObsParams
from repro.common.records import Access
from repro.sim import simulate, simulate_reference

from tests.conftest import tiny_config
from tests.property.test_directory_repr_differential import EXACT_PARAMS
from tests.property.test_runahead_differential import (
    PROTOCOLS,
    _wide_machine_traces,
    assert_identical_results,
    programs,
)

pytestmark = pytest.mark.usefixtures("native_path")


@given(
    traces=programs(),
    protocol=st.sampled_from(PROTOCOLS),
    topology=st.sampled_from(("mesh", "fattree")),
)
@settings(max_examples=60, deadline=None)
def test_native_matches_reference_across_topologies(traces, protocol, topology):
    """The core takes a fixed-delay shortcut on the uniform fabric and
    calls the network's traversal otherwise; the non-uniform fabrics
    pin the other side of that branch."""
    config = tiny_config(protocol, topology=topology)
    fast = simulate(config, [list(t) for t in traces])
    slow = simulate_reference(config, [list(t) for t in traces])
    assert_identical_results(fast, slow)


@given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
@settings(max_examples=60, deadline=None)
def test_native_matches_reference_on_exact_capacity_directories(traces, protocol):
    """Limited-pointer and coarse-vector requests go through the
    canonical Directory methods from C; at exact capacity they must
    equal the full-map reference."""
    slow = simulate_reference(tiny_config(protocol), [list(t) for t in traces])
    for params in EXACT_PARAMS:
        config = tiny_config(protocol, directory=params)
        fast = simulate(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


@given(traces=programs())
@settings(max_examples=20, deadline=None)
def test_native_matches_reference_exact_capacity_multi_cpu_nodes(traces):
    traces = [list(traces[0]), list(traces[1]), list(traces[1]), list(traces[0])]
    machine = MachineParams(nodes=2, cpus_per_node=2)
    for protocol in PROTOCOLS:
        slow = simulate_reference(
            tiny_config(protocol, machine=machine), [list(t) for t in traces]
        )
        for params in EXACT_PARAMS:
            config = tiny_config(protocol, machine=machine, directory=params)
            fast = simulate(config, [list(t) for t in traces])
            assert_identical_results(fast, slow)


@given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
@settings(max_examples=40, deadline=None)
def test_native_unplaced_pages_match_reference(traces, protocol):
    """An empty placement map: every page first-touches on a miss, via
    the shared ``resolve_home`` fallback called from C, and the homes
    map completes identically."""
    config = tiny_config(protocol)
    fast_homes, slow_homes = {}, {}
    fast = simulate(config, [list(t) for t in traces], fast_homes)
    slow = simulate_reference(config, [list(t) for t in traces], slow_homes)
    assert_identical_results(fast, slow)
    assert fast_homes == slow_homes


def test_native_matches_reference_at_63_nodes():
    """The widest machine on the int64 directory columns: sharer masks
    use bit 62.  Wider machines call the canonical Directory methods
    (``test_runahead_differential``'s 64-node case)."""
    machine = MachineParams(nodes=63, cpus_per_node=1)
    traces = _wide_machine_traces(63)
    for protocol in PROTOCOLS:
        config = tiny_config(protocol, machine=machine)
        fast = simulate(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


def test_every_run_uses_the_core(native_path, tmp_path):
    """An observed run, a 64-node machine and a 40-node limited
    directory, whose outcome masks outgrow an int64, all run on the
    core."""
    spy = native_path
    traces = [[Access(0, True, 1), Access(512, False, 0)], [Access(512, True, 2)]]
    observed = tiny_config("rnuma").with_obs(
        ObsParams(trace_path=str(tmp_path / "t.json"))
    )
    simulate(observed, [list(t) for t in traces])
    wide = tiny_config("ccnuma", machine=MachineParams(nodes=64, cpus_per_node=1))
    simulate(wide, [list(t) for t in _wide_machine_traces(64)])
    limited = tiny_config(
        "ccnuma",
        machine=MachineParams(nodes=40, cpus_per_node=1),
        directory=DirectoryParams(representation="limited", pointers=2),
    )
    simulate(limited, [list(t) for t in _wide_machine_traces(40)])
    assert spy.calls == 3
