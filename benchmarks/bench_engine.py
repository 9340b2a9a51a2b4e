"""Micro-benchmarks of the simulation engine itself.

The headline measurement is :func:`run_engine_comparison`: the
run-ahead scheduler (:class:`~repro.sim.engine.SimulationEngine`)
against the retained one-event-per-reference loop
(:class:`~repro.sim.reference.ReferenceEngine`) on the paper's default
8-node, 32-processor machine, across three scenarios:

- ``serial_hits`` — one processor in an L1-resident serial section
  while the rest wait at a barrier: the drain case the run-ahead
  scheduler exists for (heap ops collapse to ~zero);
- ``parallel_hits`` — all 32 processors in lockstep on private
  blocks: the adversarial case, where exact (time, cpu) ordering
  forces a scheduler event per reference and only the cheaper
  inner loop and array caches help;
- ``app`` — an em3d sweep step, the end-to-end mix of hits and the
  (dominant) miss path;
- ``miss_stream`` — one processor marching over 4 MB of its own
  memory: every reference is an L1 capacity/conflict miss served by
  local memory, the cheapest miss the machine has — which makes it the
  purest measurement of the columnar miss path (directory probe,
  packed outcomes, inline L1 install) against the frozen
  object/set-based baseline;
- ``migratory`` — token-passing migratory sharing: phases hand a
  256-block region from processor to processor (barrier-separated), so
  every access misses and ownership migrates intra- and inter-node
  (directory write-steals, invalidation fan-out, block-cache churn);
- ``page_thrash`` — an R-NUMA relocation storm: each processor sweeps
  remote pages with conflict strides past the relocation threshold
  while the page cache is too small, so pages relocate, evict, remap
  CC, and relocate again (page-cache replacement, TLB shootdowns,
  translation-table churn).

The reference engine is *fully frozen* (classic one-event loop + the
pre-columnar set/dict/object structures from :mod:`repro.sim.legacy`),
so each speedup measures the scheduler and the state-layout overhaul
together.

When NumPy is importable, every scenario also times the batch-
vectorized epoch engine (:class:`~repro.sim.vector.VectorEngine`) and
records ``vector_refs_per_s`` / ``vector_speedup`` (vs reference) /
``vector_vs_runahead``; without NumPy the vector columns are simply
absent and a ``provenance`` entry records ``"numpy": "absent"`` so a
reader of the JSON knows *why*.

Each scenario runs the engines interleaved, one run of each per round.
The refs/s columns are best-of-rounds; the speedup and ``vector_vs_*``
columns are medians of the per-round ratios, so a host slowdown that
spans a round cancels out of them.

The run-ahead columns time :class:`~repro.sim.engine.SimulationEngine`
as users run it: on its compiled core when one can be built (the
``provenance`` block's ``native_core.status`` records whether it was
active).  ``--profile`` additionally runs the four miss-dominated
scenarios on the engine's Python loop under cProfile and records the
``_miss`` share of run wall time in a ``profile`` section.

Results are also written as ``benchmarks/BENCH_engine.json`` by
``python -m benchmarks.bench_engine`` so the refs/sec trajectory is
tracked across PRs; ``benchmarks/smoke.py`` runs the comparison at a
small scale in CI.  Every comparison asserts that both engines return
identical SimulationResults — a benchmark that drifts from the oracle
is reporting nonsense.

The pytest-benchmark cases at the bottom guard individual paths (hit
stream, miss stream, legacy object-trace input, executor fan-out).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.common.addressing import AddressSpace
from repro.common.params import CacheParams, MachineParams, SystemConfig
from repro.common.records import Access, Barrier
from repro.experiments.config import cc_config, ideal, rnuma_config, scoma_config
from repro.experiments.executor import Executor, Job
from repro.experiments.runner import ResultCache
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.reference import ReferenceEngine
from repro.sim.vector import VectorEngine, numpy_available
from repro.workloads.compile import CompiledProgram
from repro.workloads.registry import build_program

SPACE = AddressSpace()
MACHINE = MachineParams(nodes=2, cpus_per_node=1)
#: The paper's default machine: 8 nodes x 4 processors.
PAPER_MACHINE = MachineParams()

BENCH_JSON = Path(__file__).parent / "BENCH_engine.json"


def _config(protocol="ccnuma", machine=MACHINE):
    return SystemConfig(
        protocol=protocol,
        machine=machine,
        caches=CacheParams(),
        space=SPACE,
    )


def _hit_trace(n=20000):
    # One block hammered: pure L1-hit fast path after the first access.
    return [[Access(0, think=1) for _ in range(n)] + [Barrier(0)], [Barrier(0)]]


def _miss_trace(n=20000):
    # March over 4 MB: every access misses the 8-KB L1.
    stride = SPACE.block_size
    span = 4 * 1024 * 1024
    t = [Access((i * stride * 7) % span, think=1) for i in range(n)]
    return [t + [Barrier(0)], [Barrier(0)]]


# ----------------------------------------------------------------------
# run-ahead vs reference comparison (the cross-PR tracked numbers)
# ----------------------------------------------------------------------


def _serial_hits_program(n: int) -> CompiledProgram:
    """One cpu runs an L1-resident stretch; 31 park at the barrier."""
    traces = [[Access(0, think=1) for _ in range(n)] + [Barrier(0)]]
    traces += [[Barrier(0)] for _ in range(1, PAPER_MACHINE.total_cpus)]
    return CompiledProgram("bench-serial-hits", traces=traces)


def _parallel_hits_program(n: int) -> CompiledProgram:
    """Every cpu hammers its own private page set in lockstep."""
    page = SPACE.page_size
    traces = []
    for c in range(PAPER_MACHINE.total_cpus):
        base = c * page * 4
        traces.append([Access(base, think=1) for _ in range(n)] + [Barrier(0)])
    return CompiledProgram("bench-parallel-hits", traces=traces)


def _miss_stream_program(n: int) -> CompiledProgram:
    """One cpu misses on every reference; 31 park at the barrier."""
    stride = SPACE.block_size
    span = 4 * 1024 * 1024
    t = [Access((i * stride * 7) % span, think=1) for i in range(n)]
    traces = [t + [Barrier(0)]]
    traces += [[Barrier(0)] for _ in range(1, PAPER_MACHINE.total_cpus)]
    return CompiledProgram("bench-miss-stream", traces=traces)


def _migratory_program(n: int) -> CompiledProgram:
    """A 256-block region migrates processor to processor, phase by
    phase; every access is a write miss on lines the previous owner
    still holds (intra-node hand-offs between slots, inter-node
    ownership steals every cpus_per_node phases)."""
    region_blocks = 256
    total = PAPER_MACHINE.total_cpus
    phases = max(total, n // region_blocks)
    traces = [[] for _ in range(total)]
    blk = SPACE.block_size
    for p in range(phases):
        tr = traces[p % total]
        for i in range(region_blocks):
            tr.append(Access(i * blk, is_write=True, think=0))
        barrier = Barrier(p)
        for t in traces:
            t.append(barrier)
    return CompiledProgram("bench-migratory", traces=traces)


#: page_thrash geometry: frames per node / private pages per cpu.
_THRASH_FRAMES = 8
_THRASH_PAGES_PER_CPU = 16


def _page_thrash_program(n: int) -> CompiledProgram:
    """Relocation-heavy sweeps: every cpu's private pages live on a
    *remote* home (a foreign cpu first-touches them), are refetched
    past the relocation threshold by conflict-stride sweeps, and fight
    over a page cache with too few frames — so pages relocate to
    S-COMA, get evicted, remap CC-NUMA, and relocate again."""
    total = PAPER_MACHINE.total_cpus
    pages_per_cpu = _THRASH_PAGES_PER_CPU
    offsets = (0, 16, 32, 48)  # conflict stride inside each page
    page = SPACE.page_size
    blk = SPACE.block_size

    def base(c: int, p: int) -> int:
        return (c * pages_per_cpu + p) * page

    traces = [[] for _ in range(total)]
    # First-touch each cpu's region from another node so its home is
    # remote (refetch detection only fires at a remote home).
    for c in range(total):
        toucher = (c + PAPER_MACHINE.cpus_per_node) % total
        for p in range(pages_per_cpu):
            traces[toucher].append(Access(base(c, p), think=0))
    barrier = Barrier(0)
    for t in traces:
        t.append(barrier)
    sweeps = max(2, n // (total * pages_per_cpu * len(offsets)))
    for c in range(total):
        tr = traces[c]
        for _ in range(sweeps):
            for p in range(pages_per_cpu):
                for off in offsets:
                    tr.append(
                        Access(base(c, p) + off * blk, is_write=off == 0, think=0)
                    )
        tr.append(Barrier(1))
    return CompiledProgram("bench-page-thrash", traces=traces)


def _page_thrash_config() -> SystemConfig:
    return SystemConfig(
        protocol="rnuma",
        machine=PAPER_MACHINE,
        caches=CacheParams(
            block_cache_size=128,
            page_cache_size=_THRASH_FRAMES * SPACE.page_size,
        ),
        space=SPACE,
        relocation_threshold=4,
    )


#: A timed sample repeats a run on fresh engines until it has taken at
#: least this long, so sub-millisecond runs are not timed one at a time.
MIN_SAMPLE_S = 0.05


def _time_run(engine_cls, config, program):
    """Mean wall time of ``run()`` alone over one sample; returns
    (result, dt, sched)."""
    total = 0.0
    runs = 0
    while total < MIN_SAMPLE_S:
        engine = engine_cls(config, program)
        t0 = time.perf_counter()
        result = engine.run()
        total += time.perf_counter() - t0
        runs += 1
    return result, total / runs, engine.sched_stats


def _time_engines(engine_classes, config, program, repeats: int):
    """Time each engine class, interleaved: every round takes one
    sample of each, so a host slowdown lands on all of them.  Returns
    one (result, per-round times, sched) per class."""
    times = [[] for _ in engine_classes]
    last = [None] * len(engine_classes)
    for _ in range(repeats):
        for i, engine_cls in enumerate(engine_classes):
            result, dt, sched = _time_run(engine_cls, config, program)
            times[i].append(dt)
            last[i] = (result, sched)
    return [(r, ts, sched) for (r, sched), ts in zip(last, times)]


def _paired_ratio(num, den) -> float:
    """Median over rounds of ``num[i] / den[i]``: a speed ratio that
    host-speed drift between rounds cancels out of."""
    return statistics.median(n / d for n, d in zip(num, den))


def _results_identical(a, b) -> bool:
    return (
        a.exec_cycles == b.exec_cycles
        and a.cpu_finish_times == b.cpu_finish_times
        and [n.as_dict() for n in a.stats.nodes]
        == [n.as_dict() for n in b.stats.nodes]
        and a.refetch_counts == b.refetch_counts
    )


def _compare(config, program, repeats: int) -> dict:
    engines = [SimulationEngine, ReferenceEngine]
    if numpy_available():
        engines.append(VectorEngine)
    timed = _time_engines(engines, config, program, repeats)
    (fast_r, fast_ts, fast_sched), (slow_r, slow_ts, slow_sched) = timed[:2]
    assert _results_identical(fast_r, slow_r), (
        "run-ahead and reference engines disagree — benchmark void"
    )
    refs = fast_sched["refs"]
    heap_ops = fast_sched["heap_pops"] + fast_sched["heap_pushes"]
    row = {
        "refs": refs,
        "miss_rate": fast_r.total("l1_misses") / refs if refs else 0.0,
        "runahead_refs_per_s": refs / min(fast_ts),
        "reference_refs_per_s": refs / min(slow_ts),
        "speedup": _paired_ratio(slow_ts, fast_ts),
        "heap_ops_per_ref": heap_ops / refs if refs else 0.0,
        "reference_heap_ops_per_ref": (
            (slow_sched["heap_pops"] + slow_sched["heap_pushes"]) / refs
            if refs
            else 0.0
        ),
        "mean_run_length": refs / fast_sched["drains"] if fast_sched["drains"] else 0.0,
    }
    if numpy_available():
        vec_r, vec_ts, vec_sched = timed[2]
        assert _results_identical(vec_r, slow_r), (
            "vector and reference engines disagree — benchmark void"
        )
        row["vector_refs_per_s"] = refs / min(vec_ts)
        row["vector_speedup"] = _paired_ratio(slow_ts, vec_ts)
        row["vector_vs_runahead"] = _paired_ratio(fast_ts, vec_ts)
        # Classification work per settled reference: > 1 means the
        # affected-set re-predictions are reclassifying words.
        row["vector_classify_per_ref"] = (
            (vec_sched["vector_refs"] + vec_sched["scalar_refs"]) / refs
            if refs
            else 0.0
        )
    return row


def run_engine_comparison(scale: float = 1.0, repeats: int = 3) -> dict:
    """Run-ahead vs reference on the paper's 8-node machine.

    ``scale`` shrinks the reference counts (smoke uses 0.1); the
    scenario *shapes* stay fixed.  Returns a JSON-ready dict.
    """
    n = max(2000, int(200000 * scale))
    config = _config(machine=PAPER_MACHINE)
    scenarios = {
        "serial_hits": _compare(config, _serial_hits_program(n), repeats),
        "parallel_hits": _compare(
            config, _parallel_hits_program(max(200, n // 10)), repeats
        ),
        "app": _compare(
            config, build_program("em3d", scale=max(0.05, 0.5 * scale)), repeats
        ),
        "miss_stream": _compare(
            config, _miss_stream_program(max(1000, n // 4)), repeats
        ),
        "migratory": _compare(
            config, _migratory_program(max(4000, n // 2)), repeats
        ),
        "page_thrash": _compare(
            _page_thrash_config(), _page_thrash_program(max(4000, n // 2)), repeats
        ),
    }
    return {
        "bench": "engine",
        "machine": {
            "nodes": PAPER_MACHINE.nodes,
            "cpus_per_node": PAPER_MACHINE.cpus_per_node,
        },
        "provenance": _provenance(),
        "scale": scale,
        "scenarios": scenarios,
    }


def _provenance() -> dict:
    """Where the numbers came from: git commit, UTC timestamp,
    interpreter, optional NumPy, and the host shape — enough to
    attribute any recorded number and judge whether two JSONs are
    comparable.  Shared with ``bench_directory``/``bench_network`` and
    the executor's run manifests via :mod:`repro.obs.provenance`."""
    from repro.obs.provenance import provenance_block

    return provenance_block()


def assert_engine_win(
    numbers: dict, serial_floor: float = 3.0, strict_timing: bool = True
) -> None:
    """The wins the run-ahead scheduler must deliver.

    The drain scenario must clear ``serial_floor`` (the PR-3 target is
    3x; smoke passes a lower floor to tolerate CI timing noise).  The
    deterministic scheduler counters are always checked; the tighter
    lockstep/app timing floors (whose expected margins are small) only
    under ``strict_timing`` — CI gates on the counters instead, so one
    stolen CPU slice cannot turn a green build red.
    """
    scenarios = numbers["scenarios"]
    serial = scenarios["serial_hits"]
    assert serial["speedup"] >= serial_floor, (
        f"serial-section speedup {serial['speedup']:.2f}x < {serial_floor}x"
    )
    # Deterministic: run-ahead makes heap traffic on the drain scenario
    # all but vanish, and every comparison asserted result equality.
    assert serial["heap_ops_per_ref"] < 0.01
    assert serial["mean_run_length"] > 100
    # The miss-dominated scenarios must actually be miss-dominated.
    for name in ("miss_stream", "migratory", "page_thrash"):
        assert scenarios[name]["miss_rate"] > 0.9, (
            f"{name} miss rate {scenarios[name]['miss_rate']:.2f} — "
            "scenario no longer stresses the miss path"
        )
    if strict_timing:
        assert scenarios["parallel_hits"]["speedup"] >= 1.0
        assert scenarios["app"]["speedup"] >= 1.0
        assert scenarios["miss_stream"]["speedup"] >= 1.2


#: the comparison ``benchmarks/smoke.py`` runs in CI, and records in
#: the ``smoke`` section of BENCH_engine.json for its gates.
SMOKE_SCALE = 0.1
SMOKE_REPEATS = 5
#: comparisons whose median BENCH_engine.json records as the baseline
SMOKE_RECORDS = 3

#: scenarios whose whole point is the miss path (smoke gates on these)
MISS_SCENARIOS = ("miss_stream", "migratory", "page_thrash")


def assert_miss_path_floor(
    numbers: dict, recorded: dict, tolerance: float = 0.9
) -> float:
    """CI gate: the miss-path win must not regress >10% vs the recorded
    ``BENCH_engine.json``.

    Individual scenario timings on a loaded CI box swing by more than
    the 10% budget, so the gate compares the *geometric mean* speedup
    over the three miss-dominated scenarios — noise averages out while
    a real miss-path regression moves all three together.  Returns the
    measured geomean.
    """
    measured = 1.0
    baseline = 1.0
    for name in MISS_SCENARIOS:
        measured *= numbers["scenarios"][name]["speedup"]
        baseline *= recorded["scenarios"][name]["speedup"]
    measured **= 1 / len(MISS_SCENARIOS)
    baseline **= 1 / len(MISS_SCENARIOS)
    floor = tolerance * baseline
    assert measured >= floor, (
        f"miss-path speedup geomean {measured:.2f}x regressed below "
        f"{floor:.2f}x (recorded {baseline:.2f}x - 10%)"
    )
    return measured


#: scenarios the vector-engine floor tracks: the two it must win
#: (hit settlement) plus the miss-path regression guard.
VECTOR_SCENARIOS = ("parallel_hits", "app", "miss_stream")


def assert_vector_floor(
    numbers: dict, recorded: dict, tolerance: float = 0.9
) -> float:
    """CI gate: the vector engine's standing vs run-ahead must not
    regress >10% against the recorded ``BENCH_engine.json``.

    Same geomean construction as :func:`assert_miss_path_floor`, over
    ``vector_vs_runahead`` for :data:`VECTOR_SCENARIOS` — the massive
    hit-settlement win (``parallel_hits``), the end-to-end mix
    (``app``), and the pure miss residue (``miss_stream``), so both a
    lost vectorization win and a bloated scheduler move the gate.
    Skips (returns 0.0) when either JSON has no vector columns — the
    no-NumPy leg has nothing to compare.  Returns the measured geomean.
    """
    measured = 1.0
    baseline = 1.0
    for name in VECTOR_SCENARIOS:
        m = numbers["scenarios"][name].get("vector_vs_runahead")
        b = recorded["scenarios"][name].get("vector_vs_runahead")
        if m is None or b is None:
            return 0.0
        measured *= m
        baseline *= b
    measured **= 1 / len(VECTOR_SCENARIOS)
    baseline **= 1 / len(VECTOR_SCENARIOS)
    floor = tolerance * baseline
    assert measured >= floor, (
        f"vector-engine speedup geomean {measured:.2f}x regressed below "
        f"{floor:.2f}x (recorded {baseline:.2f}x - 10%)"
    )
    return measured


#: the miss-dominated scenarios ``--profile`` attributes (plus the
#: end-to-end mix).
PROFILE_SCENARIOS = ("app", "miss_stream", "migratory", "page_thrash")


def run_obs_overhead(scale: float = 0.1, repeats: int = 9) -> dict:
    """Cost of the *disabled* instrumentation layer on the miss path.

    For each miss-dominated scenario, interleaves best-of-N timings of
    two ways to run the identical simulation: constructing the
    run-ahead engine directly (the pre-obs code path, byte for byte)
    and going through :func:`repro.sim.engine.simulate` with the
    default disabled :class:`~repro.common.params.ObsParams` (the path
    every caller actually takes).  The pairing makes the comparison
    host-insensitive: both halves run in the same process, interleaved,
    on the same warm program.  ``relative`` is direct-time /
    dispatch-time — 1.0 means the obs-aware dispatch is free, below 1.0
    means it taxed the run.
    """
    n = max(2000, int(200000 * scale))
    cc = _config(machine=PAPER_MACHINE)
    cases = {
        "miss_stream": (cc, _miss_stream_program(max(1000, n // 4))),
        "migratory": (cc, _migratory_program(max(4000, n // 2))),
        "page_thrash": (
            _page_thrash_config(),
            _page_thrash_program(max(4000, n // 2)),
        ),
    }
    def _time_direct(config, program):
        # Construction inside the clock: simulate() necessarily builds
        # the engine too, so both halves time construct + run.
        t0 = time.perf_counter()
        SimulationEngine(config, program).run()
        return time.perf_counter() - t0

    def _time_dispatch(config, program):
        t0 = time.perf_counter()
        simulate(config, program)
        return time.perf_counter() - t0

    report = {}
    for name, (config, program) in cases.items():
        assert not config.obs.enabled
        _time_direct(config, program)  # warm the program/page maps
        direct_best = dispatch_best = None
        for i in range(repeats):
            # Alternate which half goes first so cache/allocator state
            # drift cannot systematically favor one side.
            halves = (_time_direct, _time_dispatch)
            if i % 2:
                halves = tuple(reversed(halves))
            for half in halves:
                dt = half(config, program)
                if half is _time_direct:
                    direct_best = dt if direct_best is None else min(direct_best, dt)
                else:
                    dispatch_best = dt if dispatch_best is None else min(dispatch_best, dt)
        report[name] = {
            "direct_s": direct_best,
            "dispatch_s": dispatch_best,
            "relative": direct_best / dispatch_best,
        }
    return report


def assert_obs_off_floor(numbers: dict, tolerance: float = 0.02) -> float:
    """CI gate: instrumentation must cost ≤ ``tolerance`` when disabled.

    Geomean of the paired ``relative`` ratios from
    :func:`run_obs_overhead` over the miss scenarios must stay within
    ``tolerance`` of parity — per-scenario jitter on a loaded box runs
    both directions, the geomean isolates a systematic tax.  Returns
    the measured geomean.
    """
    geomean = 1.0
    for name in MISS_SCENARIOS:
        geomean *= numbers[name]["relative"]
    geomean **= 1 / len(MISS_SCENARIOS)
    floor = 1.0 - tolerance
    assert geomean >= floor, (
        f"disabled instrumentation taxes the miss path: paired "
        f"throughput ratio {geomean:.3f} < {floor:.3f} "
        f"(tolerance {tolerance:.0%})"
    )
    return geomean


def profile_miss_share(scale: float = 0.25) -> dict:
    """Per-scenario ``_miss`` share of run wall time, under cProfile.

    For each of :data:`PROFILE_SCENARIOS`, runs the run-ahead engine's
    Python loop once under the profiler (the compiled core is opaque
    to it) and reports the cumulative time spent in ``_miss`` (callees
    included) as a fraction of the whole run.  cProfile's per-call
    overhead inflates call-heavy code, so these shares are for
    *attribution*, not for speedup claims — the wall-clock columns
    above are the comparison.
    """
    import cProfile
    import pstats

    from repro.sim import native

    n = max(2000, int(200000 * scale))
    cc = _config(machine=PAPER_MACHINE)
    cases = {
        "app": (cc, build_program("em3d", scale=max(0.05, 0.5 * scale))),
        "miss_stream": (cc, _miss_stream_program(max(1000, n // 4))),
        "migratory": (cc, _migratory_program(max(4000, n // 2))),
        "page_thrash": (
            _page_thrash_config(),
            _page_thrash_program(max(4000, n // 2)),
        ),
    }
    report = {}
    saved = native._force_python
    native._force_python = True
    try:
        for name, (config, program) in cases.items():
            engine = SimulationEngine(config, program)
            profiler = cProfile.Profile()
            profiler.enable()
            engine.run()
            profiler.disable()
            stats = pstats.Stats(profiler)
            total = stats.total_tt
            miss = max(
                (
                    ct
                    for (_fn, _line, func), (_cc, _nc, _tt, ct, _callers)
                    in stats.stats.items()
                    if func == "_miss"
                ),
                default=0.0,
            )
            report[name] = {"runahead_miss_share": miss / total if total else 0.0}
    finally:
        native._force_python = saved
    return report


def measure_allocations(scale: float = 0.1) -> dict:
    """Per-scenario allocation footprint of the columnar engine.

    Runs each miss-dominated scenario once under :mod:`tracemalloc`
    and reports the allocation peak and the number of live allocated
    blocks during the run — the object churn the columnar miss path
    exists to eliminate.  Construction (machine build, trace packing)
    happens before tracing starts, so the numbers are the *run's*.
    """
    import tracemalloc

    n = max(2000, int(200000 * scale))
    cc = _config(machine=PAPER_MACHINE)
    cases = {
        "miss_stream": (cc, _miss_stream_program(max(1000, n // 4))),
        "migratory": (cc, _migratory_program(max(4000, n // 2))),
        "page_thrash": (_page_thrash_config(), _page_thrash_program(max(4000, n // 2))),
    }
    report = {}
    for name, (config, program) in cases.items():
        engine = SimulationEngine(config, program)
        tracemalloc.start()
        engine.run()
        snapshot = tracemalloc.take_snapshot()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        refs = engine.sched_stats["refs"]
        blocks = sum(stat.count for stat in snapshot.statistics("filename"))
        report[name] = {
            "refs": refs,
            "run_peak_bytes": peak,
            "live_blocks_after_run": blocks,
            "peak_bytes_per_ref": peak / refs if refs else 0.0,
        }
    return report


def write_bench_json(numbers: dict, path: Path = BENCH_JSON) -> Path:
    path.write_text(json.dumps(numbers, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="engine comparison benchmark (writes BENCH_engine.json)"
    )
    parser.add_argument(
        "scale_pos", nargs="?", type=float, default=None,
        help="legacy positional alias for --scale",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--profile", action="store_true",
        help="also record each engine's _miss share of wall time "
             "(cProfile) per miss scenario",
    )
    args = parser.parse_args(argv)
    scale = args.scale_pos if args.scale_pos is not None else args.scale

    # Also record the smoke configuration: every engine's standing
    # depends on run *length* (short runs amortize less set-up), so
    # CI's scale-0.1 measurement needs a scale-0.1 baseline to be
    # compared against.  It runs first, in a process as fresh as the
    # smoke's own (after the full-scale runs the vector engine reads a
    # few percent faster), and records the median of a few
    # comparisons, so one noisy pass does not set CI's floors.
    smoke = [
        run_engine_comparison(scale=SMOKE_SCALE, repeats=SMOKE_REPEATS)["scenarios"]
        for _ in range(SMOKE_RECORDS)
    ]
    numbers = run_engine_comparison(scale=scale, repeats=args.repeats)
    assert_engine_win(numbers)
    numbers["smoke"] = {
        "scale": SMOKE_SCALE,
        "scenarios": {
            name: {
                column: statistics.median(run[name][column] for run in smoke)
                for column in smoke[0][name]
            }
            for name in smoke[0]
        },
    }
    # Record the disabled-instrumentation cost alongside (and gate it:
    # a BENCH refresh must not land a tax on the plain hot path).
    # More repeats than the engine comparison: the 2% tolerance needs
    # tight best-of-N minima on both halves of each pair.
    numbers["obs_overhead"] = run_obs_overhead(scale=0.1, repeats=9)
    assert_obs_off_floor(numbers["obs_overhead"])
    if args.profile:
        numbers["profile"] = profile_miss_share(scale=min(scale, 0.25))
    path = write_bench_json(numbers)
    for name, s in numbers["scenarios"].items():
        line = (
            f"{name:14s} {s['runahead_refs_per_s'] / 1e3:8.0f}k refs/s "
            f"(reference {s['reference_refs_per_s'] / 1e3:8.0f}k) "
            f"speedup {s['speedup']:.2f}x  heap_ops/ref {s['heap_ops_per_ref']:.4f}  "
            f"mean_run {s['mean_run_length']:.1f}  miss {s['miss_rate'] * 100:.1f}%"
        )
        if "vector_vs_runahead" in s:
            line += (
                f"  vector {s['vector_refs_per_s'] / 1e3:8.0f}k "
                f"({s['vector_vs_runahead']:.2f}x vs run-ahead)"
            )
        print(line)
    if args.profile:
        for name, row in numbers["profile"].items():
            print(
                f"{name:14s} _miss share (Python loop): "
                f"{row['runahead_miss_share'] * 100:.0f}%"
            )
    if not numpy_available():
        print("NumPy absent: vector-engine columns skipped")
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark cases
# ----------------------------------------------------------------------


def bench_engine_l1_hits(benchmark):
    # The pipeline's production path: the program is compiled once (as
    # the registry cache does) and the timed body is pure simulation.
    program = CompiledProgram("hits", traces=_hit_trace())
    result = benchmark(lambda: simulate(_config(), program))
    assert result.total("l1_hits") >= 19999


def bench_engine_miss_path(benchmark):
    program = CompiledProgram("misses", traces=_miss_trace())
    result = benchmark(lambda: simulate(_config(), program))
    assert result.total("l1_misses") > 10000


def bench_engine_l1_hits_from_objects(benchmark):
    # Legacy input: per-run packing of Access/Barrier objects rides on
    # the timed body (what every run paid before the columnar pipeline).
    traces = _hit_trace()
    result = benchmark(lambda: simulate(_config(), [list(t) for t in traces]))
    assert result.total("l1_hits") >= 19999


def bench_engine_miss_path_from_objects(benchmark):
    traces = _miss_trace()
    result = benchmark(lambda: simulate(_config(), [list(t) for t in traces]))
    assert result.total("l1_misses") > 10000


def bench_engine_runahead_vs_reference(benchmark):
    # The tracked comparison at a reduced scale; prints with -s.
    numbers = benchmark.pedantic(
        lambda: run_engine_comparison(scale=0.25, repeats=1),
        rounds=1,
        iterations=1,
    )
    assert_engine_win(numbers, serial_floor=2.0, strict_timing=False)


def bench_engine_rnuma_relocations(benchmark):
    from repro.workloads import synthetic

    program = synthetic.worst_case_for_rnuma(MACHINE, SPACE, threshold=64, pages=16)
    config = SystemConfig(
        protocol="rnuma",
        machine=MACHINE,
        caches=CacheParams(block_cache_size=128),
        space=SPACE,
        relocation_threshold=64,
    )
    result = benchmark(
        lambda: simulate(config, [list(t) for t in program.traces])
    )
    assert result.total("relocations") == 16


def _sweep_jobs(scale=0.25):
    # The Figure 6 shape: four systems across two apps — the smallest
    # sweep with meaningful fan-out.
    configs = (ideal(), cc_config(), scoma_config(), rnuma_config())
    return [Job(app, cfg, scale) for app in ("em3d", "moldyn") for cfg in configs]


def bench_executor_serial_sweep(benchmark):
    jobs = _sweep_jobs()
    results = benchmark(lambda: Executor(workers=1, cache=ResultCache()).run(jobs))
    assert len(results) == len(jobs)


def bench_executor_parallel_sweep(benchmark):
    # Fresh cache per round so the timed body is the fan-out itself;
    # compare against bench_executor_serial_sweep for the speedup.
    jobs = _sweep_jobs()
    results = benchmark(lambda: Executor(workers=4, cache=ResultCache()).run(jobs))
    assert len(results) == len(jobs)
    assert all(r.exec_cycles > 0 for r in results)


if __name__ == "__main__":
    import sys

    sys.exit(main())
