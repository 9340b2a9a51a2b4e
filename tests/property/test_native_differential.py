"""Differential property tests for the run-ahead engine's compiled
core, for the corners the shared run-ahead suites do not reach.

The compiled core (:mod:`repro.sim.native`, ``sim/_core.c``)
transcribes the drain loop and the whole miss path.  The run-ahead
differential, topology, reset and stats suites already run on it
(their default path) against the frozen reference, on full-map
directories.  This module adds what they leave out: inexact sharer
sets, pages missing from the placement map, the widest machine the
core serves, and which runs the core serves at all.  The whole
:class:`~repro.sim.results.SimulationResult` must match.

Oracle scope: the reference engine always simulates the full-map
directory (see :mod:`repro.sim.reference`), so on the limited-pointer
and coarse-vector representations the core is compared against the
run-ahead engine's Python loop, which shares their implementations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import MachineParams, ObsParams
from repro.common.records import Access
from repro.sim import simulate, simulate_reference

from tests.conftest import python_loop, tiny_config
from tests.property.test_directory_repr_differential import INEXACT_PARAMS
from tests.property.test_runahead_differential import (
    PROTOCOLS,
    _wide_machine_traces,
    assert_identical_results,
    programs,
)

pytestmark = pytest.mark.usefixtures("native_path")


def _python(config, traces, homes=None):
    with python_loop():
        return simulate(config, traces, homes)


@given(traces=programs(), protocol=st.sampled_from(PROTOCOLS))
@settings(max_examples=60, deadline=None)
def test_native_matches_python_on_inexact_directories(traces, protocol):
    """Limited-pointer and coarse-vector requests go through the
    canonical Directory methods from C; the Python loop is the oracle
    for these representations."""
    for params in INEXACT_PARAMS:
        config = tiny_config(protocol, directory=params)
        fast = simulate(config, [list(t) for t in traces])
        slow = _python(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


@given(traces=programs())
@settings(max_examples=20, deadline=None)
def test_native_matches_python_inexact_multi_cpu_nodes(traces):
    traces = [list(traces[0]), list(traces[1]), list(traces[1]), list(traces[0])]
    machine = MachineParams(nodes=2, cpus_per_node=2)
    for protocol in PROTOCOLS:
        for params in INEXACT_PARAMS:
            config = tiny_config(protocol, machine=machine, directory=params)
            fast = simulate(config, [list(t) for t in traces])
            slow = _python(config, [list(t) for t in traces])
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
    """The widest machine the core serves: sharer masks use bit 62."""
    machine = MachineParams(nodes=63, cpus_per_node=1)
    traces = _wide_machine_traces(63)
    for protocol in PROTOCOLS:
        config = tiny_config(protocol, machine=machine)
        fast = simulate(config, [list(t) for t in traces])
        slow = simulate_reference(config, [list(t) for t in traces])
        assert_identical_results(fast, slow)


def test_only_eligible_runs_use_the_core(native_path, tmp_path):
    spy = native_path
    traces = [[Access(0, True, 1), Access(512, False, 0)], [Access(512, True, 2)]]

    simulate(tiny_config("rnuma"), [list(t) for t in traces])
    assert spy.calls == 1

    # The reference engine, an observed run (instance ``_miss`` hook)
    # and a 64-node machine all stay on Python code.
    simulate_reference(tiny_config("rnuma"), [list(t) for t in traces])
    observed = tiny_config("rnuma").with_obs(
        ObsParams(trace_path=str(tmp_path / "t.json"))
    )
    simulate(observed, [list(t) for t in traces])
    wide = tiny_config("ccnuma", machine=MachineParams(nodes=64, cpus_per_node=1))
    simulate(wide, [list(t) for t in _wide_machine_traces(64)])
    assert spy.calls == 1

    with python_loop():
        simulate(tiny_config("rnuma"), [list(t) for t in traces])
    assert spy.calls == 1
