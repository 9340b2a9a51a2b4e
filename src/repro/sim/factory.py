"""Engine backend registry and selection.

Two interchangeable schedulers drive the same machine model, selected
by ``SystemConfig.engine``:

``runahead``
    The drain-loop scheduler (:class:`~repro.sim.engine.SimulationEngine`),
    the production default.  Its loop and miss path are the compiled
    core (:mod:`repro.sim.native`).
``reference``
    The frozen classic loop over the pre-columnar structures
    (:class:`~repro.sim.reference.ReferenceEngine`), the differential
    oracle.

Both produce bit-identical :class:`SimulationResult`\\ s — the
differential property suites pin the contract — so the selection
affects wall time only.  That contract is also the fallback: where the
core cannot be built, :func:`make_engine` runs a full-map ``runahead``
config on the reference engine (see there).
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.params import SystemConfig
from repro.sim import native
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

#: Whether this process has warned that run-ahead runs fall back.
_fallback_warned = False


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
            row["native"] = native.status()
        rows.append(row)
    return rows


def make_engine(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
) -> SimulationEngine:
    """Construct the engine backend ``config.engine`` selects (the
    config validates the name).

    Without the compiled core there is no run-ahead loop.  A
    ``runahead`` config on the full-map directory is then built as the
    reference engine, with one ``RuntimeWarning`` per process; the two
    are bit-identical by contract, so its results and run key are
    unchanged.  Any other directory representation raises
    :class:`ConfigurationError`: the reference engine simulates the
    full map only.
    """
    global _fallback_warned
    name = config.engine
    if name == "runahead" and native.core() is None:
        reason = native.status()
        representation = config.directory.representation
        if representation != "fullmap":
            raise ConfigurationError(
                f"the {representation!r} directory runs only on the compiled "
                f"run-ahead core, which is unavailable ({reason}); install a "
                "C compiler or set $CC"
            )
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                f"repro: compiled run-ahead core unavailable ({reason}); "
                "running the reference engine, whose results are identical",
                RuntimeWarning,
                stacklevel=2,
            )
        name = "reference"
    return _BUILDERS[name](config, traces, homes)


def simulate_with(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
) -> SimulationResult:
    """Build the selected engine, run it, and return the result.

    When ``config.obs`` enables tracing or metrics, the run goes
    through :func:`repro.obs.attach.observed_run` (imported only then —
    the obs package stays unloaded for ordinary runs), which observes
    every miss.  Results are bit-identical either way.
    """
    engine = make_engine(config, traces, homes)
    if config.obs.enabled:
        from repro.obs.attach import observed_run

        return observed_run(engine, config.obs)
    return engine.run()
