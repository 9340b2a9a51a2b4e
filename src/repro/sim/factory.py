"""Engine backend registry and selection.

Three interchangeable schedulers drive the same machine model and miss
path, selected by ``SystemConfig.engine``:

``runahead``
    The drain-loop scheduler (:class:`~repro.sim.engine.SimulationEngine`),
    the production default.  No optional dependencies; when a C
    compiler is present its loop and miss path run in the compiled
    core (:mod:`repro.sim.native`), with identical results.
``reference``
    The frozen classic loop over the pre-columnar structures
    (:class:`~repro.sim.reference.ReferenceEngine`), the differential
    oracle.  No optional dependencies.
``vector``
    The batch-vectorized epoch engine
    (:class:`~repro.sim.vector.VectorEngine`).  Requires NumPy
    (``pip install .[vector]``); selecting it without raises
    :class:`~repro.common.errors.EngineUnavailableError`.

All three produce bit-identical :class:`SimulationResult`\\ s — the
differential property suites pin the contract — so the selection is a
pure speed/dependency trade-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import EngineUnavailableError
from repro.common.params import SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResult


def _runahead(config, traces, homes):
    return SimulationEngine(config, traces, homes)


def _reference(config, traces, homes):
    from repro.sim.reference import ReferenceEngine

    return ReferenceEngine(config, traces, homes)


def _vector(config, traces, homes):
    from repro.sim.vector import VectorEngine

    return VectorEngine(config, traces, homes)


#: backend name -> constructor taking (config, traces, homes).
_BUILDERS = {
    "runahead": _runahead,
    "reference": _reference,
    "vector": _vector,
}


def engine_unavailable_reason(name: str) -> Optional[str]:
    """Why the named backend cannot run here, or None if it can.

    The same short string travels on
    :attr:`~repro.common.errors.EngineUnavailableError.reason` when the
    backend is selected anyway, so the CLI listing and the raised error
    agree.
    """
    if name not in _BUILDERS:
        return f"unknown engine (expected one of {tuple(_BUILDERS)})"
    if name == "vector":
        from repro.sim.vector import numpy_available

        if not numpy_available():
            return "NumPy not installed (pip install .[vector])"
    return None


def engine_available(name: str) -> bool:
    """Whether the named backend can run in this environment."""
    return name in _BUILDERS and engine_unavailable_reason(name) is None


def engine_backends() -> List[Dict[str, str]]:
    """Rows describing every backend, for the CLI ``engines`` listing.

    ``reason`` is None for an available backend, else the short cause
    (e.g. ``"NumPy not installed (pip install .[vector])"``).  The
    runahead row also carries ``native``: ``"active"`` when its loop
    runs in the compiled core, else why it does not (building the core
    if this process has not tried yet).
    """
    rows = []
    for name, summary, requires in (
        ("runahead", "drain-loop scheduler (production default)", "-"),
        ("reference", "classic per-reference loop (differential oracle)", "-"),
        ("vector", "batch-vectorized epoch engine", "numpy ([vector] extra)"),
    ):
        reason = engine_unavailable_reason(name)
        row = {
            "name": name,
            "summary": summary,
            "requires": requires,
            "available": reason is None,
            "reason": reason,
        }
        if name == "runahead":
            from repro.sim import native

            row["native"] = native.status()
        rows.append(row)
    return rows


def make_engine(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
) -> SimulationEngine:
    """Construct the engine backend ``config.engine`` selects.

    Raises :class:`EngineUnavailableError` when the backend's optional
    dependency is missing (the config is validated, so an unknown name
    cannot reach here).
    """
    builder = _BUILDERS.get(config.engine)
    if builder is None:  # defensive: SystemConfig validates the name
        raise EngineUnavailableError(
            f"unknown engine {config.engine!r}; "
            f"expected one of {tuple(_BUILDERS)}",
            reason=engine_unavailable_reason(config.engine),
        )
    return builder(config, traces, homes)


def simulate_with(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
) -> SimulationResult:
    """Build the selected engine, run it, and return the result.

    When ``config.obs`` enables tracing or metrics, the run goes
    through :func:`repro.obs.attach.observed_run` (imported only then —
    the obs package stays unloaded for ordinary runs), which attaches
    the miss-hook instrumentation before the run loop starts.  Results
    are bit-identical either way.
    """
    engine = make_engine(config, traces, homes)
    if config.obs.enabled:
        from repro.obs.attach import observed_run

        return observed_run(engine, config.obs)
    return engine.run()
