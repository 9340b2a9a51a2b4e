"""Execution engine: drives per-processor traces through the machine
model with per-processor clocks, contention, and barrier synchronization,
and produces a :class:`SimulationResult`.

Three schedulers share one miss-path contract, selected by
``SystemConfig.engine`` (see :mod:`repro.sim.factory`): the run-ahead
engine (:func:`simulate` with the default config, the production path,
whose loop runs in the compiled core of :mod:`repro.sim.native` when
one can be built), the classic one-event-per-reference loop
(:func:`simulate_reference`, the differential-testing oracle and
benchmark baseline), and the batch-vectorized epoch engine
(:func:`simulate_vector`, NumPy-backed, optional).
"""

from repro.sim.engine import SimulationEngine, simulate
from repro.sim.factory import engine_backends, make_engine
from repro.sim.reference import ReferenceEngine, simulate_reference
from repro.sim.results import SimulationResult
from repro.sim.vector import VectorEngine, simulate_vector

__all__ = [
    "ReferenceEngine",
    "SimulationEngine",
    "SimulationResult",
    "VectorEngine",
    "engine_backends",
    "make_engine",
    "simulate",
    "simulate_reference",
    "simulate_vector",
]
