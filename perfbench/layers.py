"""Module -> layer table for the benchmark's profiler pass.

Layers are named after the packages under ``src/repro/``.  The
``experiments`` package is split in two: the executor (job dispatch,
result cache, result store) and render (the figure/table computations
and their formatting).  The scheduler engine is split once more, by
function, because its run loop and miss path are the hot spots every
simulator change targets.

Time spent outside ``src/repro`` -- builtins such as dict and heap
operations, and stdlib code such as ``json`` -- is charged to the
``repro`` layer that called it, following the profiler's caller edges,
so a layer's share includes the library work it asked for.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

#: Module (exact name) or package (prefix) -> layer.  Every module under
#: ``src/repro`` must match exactly one entry: see :func:`coverage`.
MODULE_LAYERS: Dict[str, str] = {
    "repro.__init__": "cli",
    "repro.__main__": "cli",
    "repro.cli": "cli",
    "repro.caches": "caches",
    "repro.coherence": "coherence",
    "repro.common": "common",
    "repro.experiments.__init__": "render",
    "repro.experiments.ablations": "render",
    "repro.experiments.config": "render",
    "repro.experiments.executor": "executor",
    "repro.experiments.extension_scaling": "render",
    "repro.experiments.figure5": "render",
    "repro.experiments.figure6": "render",
    "repro.experiments.figure7": "render",
    "repro.experiments.figure8": "render",
    "repro.experiments.figure9": "render",
    "repro.experiments.reporting": "render",
    "repro.experiments.runner": "executor",
    "repro.experiments.table4": "render",
    "repro.experiments.tables": "render",
    "repro.experiments.topology_scaling": "render",
    "repro.faults": "faults",
    "repro.interconnect": "interconnect",
    "repro.machine": "machine",
    "repro.model": "model",
    "repro.obs": "obs",
    "repro.osint": "osint",
    "repro.protocols": "protocols",
    "repro.sim": "sim",
    "repro.vm": "vm",
    "repro.workloads": "workloads",
}

#: Function-level split of the scheduler engine's self time.
ENGINE_MODULE = "repro.sim.engine"
ENGINE_FUNCTIONS: Dict[str, str] = {
    "run": "sim.loop",
    "_miss": "sim.miss",
    "_remote_fetch": "sim.remote_fetch",
    "_round_trip": "sim.round_trip",
}

#: Layer for the benchmark's own code and for time no ``repro`` frame
#: asked for (interpreter start-up, imports of third-party modules).
HARNESS = "harness"
OTHER = "other"


def layers_of(module: str) -> List[str]:
    """Every table entry that claims ``module`` (a correct table gives
    exactly one).  An entry ``pkg.__init__`` claims only the package's
    own module; any other entry claims that module and, as a package,
    everything under it."""
    claims = []
    for entry, layer in MODULE_LAYERS.items():
        if entry.endswith(".__init__"):
            hit = module == entry[: -len(".__init__")]
        else:
            hit = module == entry or module.startswith(entry + ".")
        if hit:
            claims.append(layer)
    return claims


def repro_modules(src: Path) -> List[str]:
    """Dotted names of every module under ``src/repro``."""
    names = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def coverage(src: Path) -> Dict[str, List[str]]:
    """Modules that map to no layer or to more than one.  Empty when
    the table is complete."""
    bad = {}
    for module in repro_modules(src):
        claims = layers_of(module)
        if len(claims) != 1:
            bad[module] = claims
    return bad


def layer_of(module: str, function: str) -> str:
    """The layer a ``repro`` function's self time is charged to."""
    if module == ENGINE_MODULE and function in ENGINE_FUNCTIONS:
        return ENGINE_FUNCTIONS[function]
    claims = layers_of(module)
    return claims[0] if claims else OTHER


def _module_of(filename: str, src: Path) -> str:
    """Dotted module name for a file under ``src``, else ''."""
    try:
        rel = Path(filename).resolve().relative_to(src)
    except ValueError:
        return ""
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


Func = Tuple[str, int, str]


def attribute(stats: Dict[Func, tuple], src: Path, harness: Path) -> Dict[str, float]:
    """Self time per layer from a ``pstats.Stats(...).stats`` mapping.

    A ``repro`` function's own time goes to its layer.  Any other
    function's time is split over its callers in proportion to the time
    each caller edge accounts for, recursively, until a ``repro`` or
    benchmark frame is reached; a chain that reaches neither is
    ``other``.
    """
    src = src.resolve()
    harness = harness.resolve()
    memo: Dict[Func, Dict[str, float]] = {}

    def home(func: Func) -> str:
        filename, _, name = func
        module = _module_of(filename, src)
        if module:
            return layer_of(module, name)
        if filename not in ("~", "") and _module_of(filename, harness):
            return HARNESS
        return ""

    def shares(func: Func, depth: int) -> Dict[str, float]:
        """Fractions of ``func``'s time owed to each layer."""
        own = home(func)
        if own:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        # Cumulative time on each caller edge: how much of this
        # function's activity each caller asked for.
        weights = {caller: edge[3] or edge[1] for caller, edge in callers.items()}
        total = sum(weights.values())
        if depth > 30 or not weights or total <= 0:
            result = {OTHER: 1.0}
        else:
            memo[func] = {OTHER: 1.0}  # cycle guard
            result = {}
            for caller, weight in weights.items():
                for layer, frac in shares(caller, depth + 1).items():
                    result[layer] = result.get(layer, 0.0) + frac * weight / total
        memo[func] = result
        return result

    totals: Dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        if tottime <= 0:
            continue
        for layer, frac in shares(func, 0).items():
            totals[layer] = totals.get(layer, 0.0) + tottime * frac
    return totals


def share_table(totals: Dict[str, float]) -> Dict[str, float]:
    """Each layer's fraction of all profiled self time."""
    whole = sum(totals.values())
    return {layer: t / whole for layer, t in totals.items()} if whole else {}


def package_share(table: Dict[str, float], package: str) -> float:
    """Share of a package layer including its function-level sublayers."""
    return sum(v for k, v in table.items() if k == package or k.startswith(package + "."))
