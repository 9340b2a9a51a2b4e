"""CI benchmark smoke: the engine floor and the obs-off floor of
:mod:`benchmarks.bench_engine`, on the paper's ten apps at scale 0.1.

Run:  PYTHONPATH=src python -m benchmarks.smoke
"""

from __future__ import annotations

import json
import time

from benchmarks.bench_engine import (
    BENCH_JSON,
    assert_miss_path_floor,
    assert_obs_off_floor,
    run_engine_comparison,
    run_obs_overhead,
)


def main() -> int:
    start = time.perf_counter()
    from repro.sim import native

    print(f"native core: {native.status()}")

    apps = run_engine_comparison()
    recorded = json.loads(BENCH_JSON.read_text())["smoke"]["apps"]
    geomean = assert_miss_path_floor(apps, recorded)
    for app, row in apps.items():
        print(
            f"engine ok   {app:10s} {row['runahead_refs_per_s'] / 1e3:7.0f}k refs/s "
            f"speedup {row['speedup']:5.2f}x"
        )
    print(f"engine ok   geomean speedup {geomean:.2f}x (gate: no >10% regression)")

    overhead = run_obs_overhead()
    geomean = assert_obs_off_floor(overhead)
    for app, row in overhead.items():
        print(
            f"obs off ok  {app:10s} dispatch {row['dispatch_s'] * 1e3:7.2f}ms "
            f"vs direct {row['direct_s'] * 1e3:7.2f}ms ({row['relative']:.3f})"
        )
    print(f"obs off ok  paired ratio geomean {geomean:.3f} (gate: >= 0.98)")
    print(f"smoke wall time {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
