"""Engine backend registry and selection.

Two interchangeable schedulers drive the same machine model and miss
path, selected by ``SystemConfig.engine``:

``runahead``
    The drain-loop scheduler (:class:`~repro.sim.engine.SimulationEngine`),
    the production default.  When a C compiler is present its loop and
    miss path run in the compiled core (:mod:`repro.sim.native`), with
    identical results.
``reference``
    The frozen classic loop over the pre-columnar structures
    (:class:`~repro.sim.reference.ReferenceEngine`), the differential
    oracle.

Both produce bit-identical :class:`SimulationResult`\\ s — the
differential property suites pin the contract — so the selection
affects wall time only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.params import SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResult


def _runahead(config, traces, homes):
    return SimulationEngine(config, traces, homes)


def _reference(config, traces, homes):
    from repro.sim.reference import ReferenceEngine

    return ReferenceEngine(config, traces, homes)


#: backend name -> constructor taking (config, traces, homes).
_BUILDERS = {
    "runahead": _runahead,
    "reference": _reference,
}


def engine_backends() -> List[Dict[str, str]]:
    """Rows describing every backend, for the CLI ``engines`` listing.

    The runahead row also carries ``native``: ``"active"`` when its
    loop runs in the compiled core, else why it does not (building the
    core if this process has not tried yet).
    """
    rows = []
    for name, summary in (
        ("runahead", "drain-loop scheduler (production default)"),
        ("reference", "classic per-reference loop (differential oracle)"),
    ):
        row = {"name": name, "summary": summary}
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
    """Construct the engine backend ``config.engine`` selects (the
    config validates the name)."""
    return _BUILDERS[config.engine](config, traces, homes)


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
