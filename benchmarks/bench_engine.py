"""The engine gates CI times, on the paper's ten applications.

Both comparisons run every Table 3 app at :data:`SMOKE_SCALE` on the
paper's base R-NUMA system (8 nodes x 4 processors):

- :func:`run_engine_comparison`: the run-ahead engine (its compiled
  core, which must build) against the frozen
  :class:`~repro.sim.reference.ReferenceEngine` (classic loop + the
  pre-columnar structures of :mod:`repro.sim.legacy`).
  :func:`assert_miss_path_floor` holds the geomean speedup to 90% of
  the one recorded in ``BENCH_engine.json``.
- :func:`run_obs_overhead`: :func:`~repro.sim.engine.simulate` with
  observability off against constructing the engine directly.
  :func:`assert_obs_off_floor` holds the geomean within 2% of parity,
  the zero-cost-when-off contract of :mod:`repro.obs`.

Each round times both sides for at least :data:`MIN_SAMPLE_S` each,
and a ratio is the median of the per-round ratios, so a host slowdown
spanning a round cancels out.  Both sides must return identical
results on every app.

``python -m benchmarks.bench_engine`` re-records ``BENCH_engine.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.common.params import MachineParams, base_rnuma_config
from repro.obs.provenance import provenance_block
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.reference import ReferenceEngine
from repro.workloads.registry import build_program, workload_names

BENCH_JSON = Path(__file__).parent / "BENCH_engine.json"

SMOKE_SCALE = 0.1
#: rounds of the engine comparison
SMOKE_REPEATS = 5
#: engine comparisons whose per-app median BENCH_engine.json records,
#: so one noisy pass does not set CI's floor
SMOKE_RECORDS = 5
#: rounds of the obs comparison: its 2% tolerance is tighter than a
#: shared host's per-round jitter (~5%), so it needs more rounds
OBS_REPEATS = 7
#: minimum length of one timed sample
MIN_SAMPLE_S = 0.05


def _programs() -> dict:
    return {app: build_program(app, scale=SMOKE_SCALE) for app in workload_names()}


def _paired_ratio(num, den) -> float:
    return statistics.median(n / d for n, d in zip(num, den))


def _assert_identical(app, a, b, what):
    assert (
        a.exec_cycles == b.exec_cycles
        and a.cpu_finish_times == b.cpu_finish_times
        and [n.as_dict() for n in a.stats.nodes] == [n.as_dict() for n in b.stats.nodes]
        and a.refetch_counts == b.refetch_counts
    ), f"{app}: {what} disagree — benchmark void"


def run_engine_comparison() -> dict:
    """Per app: best-of-rounds refs/s of each engine, and ``speedup``,
    the median of the per-round reference/run-ahead time ratios.

    Each round times one sample of each engine, alternating which goes
    first so cache/allocator drift cannot favor one side; a sample
    times ``run()`` alone on fresh engines until it has taken
    :data:`MIN_SAMPLE_S`."""
    config = base_rnuma_config()
    engines = (SimulationEngine, ReferenceEngine)
    apps = {}
    for app, program in _programs().items():
        times = ([], [])
        results = [None, None]
        for i in range(SMOKE_REPEATS):
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                total = 0.0
                runs = 0
                while total < MIN_SAMPLE_S:
                    engine = engines[k](config, program)
                    t0 = time.perf_counter()
                    results[k] = engine.run()
                    total += time.perf_counter() - t0
                    runs += 1
                times[k].append(total / runs)
        _assert_identical(app, *results, "run-ahead and reference engines")
        refs = engine.sched_stats["refs"]
        fast_ts, slow_ts = times
        apps[app] = {
            "runahead_refs_per_s": refs / min(fast_ts),
            "reference_refs_per_s": refs / min(slow_ts),
            "speedup": _paired_ratio(slow_ts, fast_ts),
        }
    return apps


def assert_miss_path_floor(apps: dict, recorded: dict, tolerance: float = 0.9) -> float:
    """CI gate: the geomean speedup over the ten apps must not regress
    more than 10% below the recorded one.  Single apps swing by more
    than that on a loaded host; a regression of the compiled miss path
    or loop moves them all.  Returns the measured geomean."""
    measured = statistics.geometric_mean(row["speedup"] for row in apps.values())
    baseline = statistics.geometric_mean(row["speedup"] for row in recorded.values())
    floor = tolerance * baseline
    assert measured >= floor, (
        f"engine speedup geomean {measured:.2f}x regressed below "
        f"{floor:.2f}x (recorded {baseline:.2f}x - {1 - tolerance:.0%})"
    )
    return measured


def run_obs_overhead() -> dict:
    """Per app: ``relative``, the median over rounds of direct-time /
    dispatch-time (1.0 is free, below 1.0 is a tax), and the best
    per-run ``direct_s``/``dispatch_s``.  Both halves time construct +
    run; direct construction is the code path obs must not tax.

    The two halves cost the same, so a round pairs them run by run, in
    ABBA order, until each has taken :data:`MIN_SAMPLE_S`: host drift
    within the round lands on both alike."""

    def direct(config, program):
        return SimulationEngine(config, program).run()

    config = base_rnuma_config()
    assert not config.obs.enabled
    halves = (direct, simulate)
    report = {}
    for app, program in _programs().items():
        # Also warms the program's page map.
        a, b = (half(config, program) for half in halves)
        _assert_identical(app, a, b, "direct and dispatched runs")
        direct_ts, dispatch_ts = [], []
        for i in range(OBS_REPEATS):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            total = [0.0, 0.0]
            runs = 0
            while min(total) < MIN_SAMPLE_S:
                order = order[::-1]
                for k in order:
                    t0 = time.perf_counter()
                    halves[k](config, program)
                    total[k] += time.perf_counter() - t0
                runs += 1
            direct_ts.append(total[0] / runs)
            dispatch_ts.append(total[1] / runs)
        report[app] = {
            "direct_s": min(direct_ts),
            "dispatch_s": min(dispatch_ts),
            "relative": _paired_ratio(direct_ts, dispatch_ts),
        }
    return report


def assert_obs_off_floor(numbers: dict, tolerance: float = 0.02) -> float:
    """CI gate: disabled instrumentation must cost ≤ ``tolerance``, as
    the geomean of the apps' paired ratios (per-app jitter runs both
    ways; the geomean isolates a systematic tax).  Returns it."""
    geomean = statistics.geometric_mean(row["relative"] for row in numbers.values())
    floor = 1.0 - tolerance
    assert geomean >= floor, (
        f"disabled instrumentation taxes the run: paired throughput "
        f"ratio {geomean:.3f} < {floor:.3f} (tolerance {tolerance:.0%})"
    )
    return geomean


def main() -> int:
    """Re-record ``BENCH_engine.json``: the per-app median of
    :data:`SMOKE_RECORDS` engine comparisons, and each app's obs-off
    ratio, gated as CI gates it."""
    runs = [run_engine_comparison() for _ in range(SMOKE_RECORDS)]
    smoke = {
        app: {col: statistics.median(run[app][col] for run in runs) for col in row}
        for app, row in runs[0].items()
    }
    obs = run_obs_overhead()
    assert_obs_off_floor(obs)
    machine = MachineParams()
    numbers = {
        "machine": {"nodes": machine.nodes, "cpus_per_node": machine.cpus_per_node},
        "provenance": provenance_block(),
        "smoke": {"scale": SMOKE_SCALE, "apps": smoke},
        "obs_relative": {app: row["relative"] for app, row in obs.items()},
    }
    BENCH_JSON.write_text(json.dumps(numbers, indent=2, sort_keys=True) + "\n")
    for app, row in smoke.items():
        print(
            f"{app:10s} {row['runahead_refs_per_s'] / 1e3:7.0f}k refs/s "
            f"(reference {row['reference_refs_per_s'] / 1e3:5.0f}k) "
            f"speedup {row['speedup']:.2f}x"
        )
    print(f"wrote {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
