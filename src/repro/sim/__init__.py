"""Execution engine: drives per-processor traces through the machine
model with per-processor clocks, contention, and barrier synchronization,
and produces a :class:`SimulationResult`.

Two schedulers share one miss-path contract, selected by
``SystemConfig.engine`` (see :mod:`repro.sim.factory`): the run-ahead
engine (:func:`simulate` with the default config, the production path,
whose loop is the compiled core of :mod:`repro.sim.native`), and the
classic one-event-per-reference loop (:func:`simulate_reference`, the
differential-testing oracle and benchmark baseline, which also stands
in for full-map run-ahead runs where the core cannot be built).
"""

from repro.sim.engine import SimulationEngine, simulate
from repro.sim.factory import engine_backends, make_engine
from repro.sim.reference import ReferenceEngine, simulate_reference
from repro.sim.results import SimulationResult

__all__ = [
    "ReferenceEngine",
    "SimulationEngine",
    "SimulationResult",
    "engine_backends",
    "make_engine",
    "simulate",
    "simulate_reference",
]
