"""CI benchmark smoke: import every benchmark module and run the trace
pipeline's smallest cases.

The full suite needs pytest-benchmark and minutes of wall time; CI only
needs to know the benchmarks still *work*.  This runner imports each
``bench_*`` module (catching bitrot against the library API) and then
executes the trace-pipeline comparison at a tiny scale, asserting the
same >= 2x build-time-or-memory win the full benchmark asserts.

Run:  PYTHONPATH=src python -m benchmarks.smoke
"""

from __future__ import annotations

import importlib
import pathlib
import sys


def main() -> int:
    bench_dir = pathlib.Path(__file__).parent
    modules = sorted(p.stem for p in bench_dir.glob("bench_*.py"))
    for name in modules:
        importlib.import_module(f"benchmarks.{name}")
        print(f"import ok  benchmarks.{name}")

    from benchmarks.bench_traces import (
        assert_pipeline_win,
        run_pipeline_comparison,
    )

    numbers = run_pipeline_comparison(scale=0.1)
    assert_pipeline_win(numbers)
    print(
        f"trace pipeline ok  {numbers['app']} x{numbers['scale']}: "
        f"{numbers['accesses']:,} refs, "
        f"build {numbers['columnar_build_s']:.3f}s vs "
        f"{numbers['object_build_s']:.3f}s (object path), peak "
        f"{numbers['columnar_peak_bytes'] / 2**20:.2f} MiB vs "
        f"{numbers['object_peak_bytes'] / 2**20:.2f} MiB"
    )

    # The engine consumes the compiled program natively: run the
    # smallest end-to-end simulation to catch wiring regressions.
    from repro.common.params import base_rnuma_config
    from repro.sim.engine import simulate
    from repro.workloads.registry import build_program

    program = build_program("em3d", scale=0.05)
    result = simulate(base_rnuma_config(), program)
    assert result.exec_cycles > 0
    print(f"engine ok  em3d x0.05: {result.exec_cycles:,} cycles")

    # Columnar engine vs the frozen reference (classic loop + the
    # pre-columnar set/dict structures) at a small scale: the
    # comparison itself asserts bit-identical results, and the win
    # floor is relaxed from the full benchmark's 3x to tolerate CI
    # timing noise.
    import json

    from benchmarks.bench_engine import (
        BENCH_JSON,
        MISS_SCENARIOS,
        SMOKE_REPEATS,
        SMOKE_SCALE,
        VECTOR_SCENARIOS,
        assert_engine_win,
        assert_miss_path_floor,
        assert_vector_floor,
        measure_allocations,
        numpy_available,
        run_engine_comparison,
    )

    numbers = run_engine_comparison(scale=SMOKE_SCALE, repeats=SMOKE_REPEATS)
    assert_engine_win(numbers, serial_floor=1.8, strict_timing=False)
    serial = numbers["scenarios"]["serial_hits"]
    print(
        f"scheduler ok  serial-section {serial['speedup']:.2f}x vs reference, "
        f"heap ops/ref {serial['heap_ops_per_ref']:.4f}, "
        f"mean run {serial['mean_run_length']:.0f}"
    )

    # Miss-path throughput floor: no >10% regression of the
    # miss-dominated geomean vs the recorded BENCH_engine.json's smoke
    # section (the same scale and repeats as this run).
    recorded = json.loads(BENCH_JSON.read_text())["smoke"]
    geomean = assert_miss_path_floor(numbers, recorded)
    for name in MISS_SCENARIOS:
        s = numbers["scenarios"][name]
        print(
            f"miss path ok  {name:12s} {s['runahead_refs_per_s'] / 1e3:6.0f}k refs/s "
            f"speedup {s['speedup']:.2f}x  miss {s['miss_rate'] * 100:.0f}%"
        )
    print(f"miss path ok  geomean speedup {geomean:.2f}x (gate: no >10% regression)")

    # Vector-backend floor: the epoch engine's standing vs run-ahead
    # (geomean over the hit-settlement wins and the miss residue) must
    # not regress >10% vs the recorded JSON.  Cleanly skipped when
    # NumPy is absent — the no-NumPy leg has no vector columns.
    if numpy_available():
        geomean = assert_vector_floor(numbers, recorded)
        for name in VECTOR_SCENARIOS:
            s = numbers["scenarios"][name]
            print(
                f"vector ok     {name:13s} {s['vector_refs_per_s'] / 1e3:6.0f}k refs/s "
                f"({s['vector_vs_runahead']:.2f}x vs run-ahead)"
            )
        print(
            f"vector ok     geomean {geomean:.2f}x vs run-ahead "
            "(gate: no >10% regression)"
        )
    else:
        print("vector skip   NumPy absent — vector-backend floor not checked")

    # Disabled-instrumentation floor: with ObsParams off (the default),
    # dispatching through simulate() must cost <= 2% vs constructing
    # the engine directly — the zero-cost-when-off contract of
    # repro.obs, measured as paired in-process A/B so host speed
    # cancels out.
    from benchmarks.bench_engine import assert_obs_off_floor, run_obs_overhead

    overhead = run_obs_overhead(scale=0.1)
    geomean = assert_obs_off_floor(overhead)
    for name in MISS_SCENARIOS:
        o = overhead[name]
        print(
            f"obs off ok    {name:12s} dispatch {o['dispatch_s'] * 1e3:7.2f}ms "
            f"vs direct {o['direct_s'] * 1e3:7.2f}ms ({o['relative']:.3f})"
        )
    print(f"obs off ok    paired ratio geomean {geomean:.3f} (gate: >= 0.98)")

    # Allocation footprint of the allocation-free miss path.
    for name, a in measure_allocations(scale=0.1).items():
        print(
            f"allocs        {name:12s} run peak {a['run_peak_bytes'] / 1024:7.1f} KiB "
            f"({a['peak_bytes_per_ref']:.1f} B/ref), "
            f"{a['live_blocks_after_run']:,} live blocks after run"
        )

    # Every interconnect topology at the smallest scale: the uniform
    # fabric must stay free and every non-uniform one must add cycles.
    from benchmarks.bench_network import (
        assert_network_sanity,
        run_network_comparison,
    )

    numbers = run_network_comparison(scale=0.05, repeats=1)
    assert_network_sanity(numbers)
    for name, t in numbers["topologies"].items():
        print(
            f"network ok  {name:8s} {t['messages_per_s'] / 1e3:7.0f}k msgs/s  "
            f"cycles {t['cycle_inflation']:.3f}x uniform"
        )

    # Directory representations on the sharer-heavy stream: CI runs the
    # 64-node tier (the full benchmark goes to 1024); the sanity checks
    # pin the capacity-equivalence and over-invalidation contracts.
    from benchmarks.bench_directory import (
        assert_directory_sanity,
        run_directory_comparison,
    )

    numbers = run_directory_comparison(node_counts=(64,), repeats=1)
    assert_directory_sanity(numbers)
    for name, row in numbers["sizes"]["64"]["representations"].items():
        print(
            f"directory ok  {name:14s} "
            f"{row['requests_per_s'] / 1e3:7.0f}k req/s  "
            f"inval x{row['inval_ratio']:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
