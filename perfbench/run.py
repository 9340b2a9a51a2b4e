"""Benchmark of the R-NUMA reproduction, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print every metric with its unit, the provenance block, the
host's CPU count and load average at start and end, and how each tail
percentile was taken.

Workloads (all serial, one worker, each with a private temporary store):

``sweep_cold``
    ``python -m repro reproduce --scale 0.05`` into an empty store: 503
    jobs, 303 unique.  Per-job fixed costs dominate (engine and machine
    construction, trace generation, store writes), and it is the only
    workload that runs non-uniform topologies and limited or coarse
    directories.
``sweep_warm``
    The same ``reproduce`` replayed from a store the same code's cold
    sweep filled: store loads with checksum verification, job dedup and
    render.  Simulation is bypassed, except for the five placement-
    ablation runs that are outside the store's key space.
``paper_apps``
    The ten paper apps at scale 1.0 under ideal, CC-NUMA, S-COMA and
    R-NUMA on the paper's 8x4 machine: 40 long jobs, about 6.1 M
    simulated references, with the page cache filling.  ``--seed`` is
    passed to every app's ``build(seed=)``; seed 0 keeps each app's own
    default seed.

Times are host seconds converted to reference-host seconds with the
probes in :mod:`hostspeed`; every simulated counter is a correctness
check, never a metric.  ``--trace 1`` runs the workload once untraced,
once with spans recorded, and once under the profiler, and reports the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402

#: Problem sizes.  ``tiny`` is for the self-tests only.
SIZES = {
    "full": {"sweep_scale": 0.05, "sweep_apps": None, "apps_scale": 1.0, "apps": None},
    "tiny": {
        "sweep_scale": 0.05,
        "sweep_apps": ["fft"],
        "apps_scale": 0.05,
        "apps": ["fft", "lu"],
    },
}

PAPER_APPS = (
    "barnes", "cholesky", "em3d", "fft", "fmm",
    "lu", "moldyn", "ocean", "radix", "raytrace",
)
PROTOCOLS = ("ideal", "ccnuma", "scoma", "rnuma")

#: The highest percentile with at least ten jobs beyond it, per pass:
#: 303 jobs on the sweeps, 40 on the paper apps.
TAIL_PERCENTILE = {"sweep_cold": 95, "sweep_warm": 95, "paper_apps": 75}

#: Set-up is sampled at least this many times per run (median reported).
SETUP_SAMPLES = 3

#: Bytecode cache for ``src`` and the pass code, inside the checkout.
PYCACHE = Path(".perfbench") / "pycache"

#: The whole run ends within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "refs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.run_s": "s",
    "sim.refs": "count",
    "sim.l1_misses": "count",
    "sim.ns_per_ref": "ns",
    "sim.us_per_miss": "us",
    "sim.loop_share": "ratio",
    "sim.miss_share": "ratio",
    "sim.remote_fetch_share": "ratio",
    "sim.round_trip_share": "ratio",
    "interconnect.share": "ratio",
    "interconnect.remote_fetches": "count",
    "interconnect.refetches": "count",
    "coherence.share": "ratio",
    "coherence.invalidations_sent": "count",
    "coherence.coherence_misses": "count",
    "caches.share": "ratio",
    "caches.block_cache_hits": "count",
    "caches.page_cache_hits": "count",
    "caches.page_cache_misses": "count",
    "osint.share": "ratio",
    "vm.share": "ratio",
    "protocols.share": "ratio",
    "osint.page_faults": "count",
    "osint.relocations": "count",
    "osint.page_replacements": "count",
    "vm.tlb_shootdowns": "count",
    "machine.build_s": "s",
    "machine.builds": "count",
    "workloads.build_s": "s",
    "workloads.refs_built": "count",
    "store.read_s": "s",
    "store.write_s": "s",
    "store.reads": "count",
    "store.writes": "count",
    "store.bytes_written": "bytes",
    "store.hit_ratio": "ratio",
    "executor.jobs_submitted": "count",
    "executor.jobs_unique": "count",
    "executor.jobs_simulated": "count",
    "executor.jobs_from_store": "count",
    "executor.overhead_s": "s",
    "render.s": "s",
    "render.sims_outside_store": "count",
    "trace.overhead_ratio": "ratio",
}

#: NodeStats counter behind each per-layer work count.
COUNTER_METRICS = {
    "interconnect.remote_fetches": "remote_fetches",
    "interconnect.refetches": "refetches",
    "coherence.invalidations_sent": "invalidations_sent",
    "coherence.coherence_misses": "coherence_misses",
    "caches.block_cache_hits": "block_cache_hits",
    "caches.page_cache_hits": "page_cache_hits",
    "caches.page_cache_misses": "page_cache_misses",
    "osint.page_faults": "page_faults",
    "osint.relocations": "relocations",
    "osint.page_replacements": "page_replacements",
    "vm.tlb_shootdowns": "tlb_shootdowns",
}


class BenchError(Exception):
    """The benchmark cannot run here (not a failed output)."""


# -- one pass, as the parent sees it --------------------------------------


class PassView:
    """Scaled times of one child pass."""

    def __init__(self, out: dict) -> None:
        self.out = out
        self.cal = hostspeed.Calibration(out["probes"])
        self.spans = out["spans"]

    def scaled(self, a: float, b: float) -> float:
        return self.cal.scaled(a, b)

    def span_s(self, index: int) -> float:
        _, a, b, _ = self.spans[index]
        return self.scaled(a, b)

    def named(self, prefix: str) -> List[int]:
        """Spans of the pass itself; the result checks after its end
        (reference-engine runs) are not part of it."""
        end = self.out["end"]
        return [
            i for i, s in enumerate(self.spans) if s[0].startswith(prefix) and s[1] < end
        ]

    def self_s(self, index: int) -> float:
        children = [i for i, s in enumerate(self.spans) if s[3] == index]
        return self.span_s(index) - sum(self.span_s(i) for i in children)

    @property
    def wall_s(self) -> float:
        return self.scaled(self.out["t0"], self.out["end"])

    @property
    def setup_s(self) -> float:
        """Start to first job, less store reads done on the way (a warm
        store is read while the sweep looks for missing jobs)."""
        end = self.out["setup_end"]
        reads = sum(
            self.span_s(i) for i in self.named("store.load") if self.spans[i][2] <= end
        )
        return self.scaled(self.out["t0"], end) - reads

    def sims(self, via: Optional[str] = None) -> List[dict]:
        return [s for s in self.out.get("sims", []) if via is None or s["via"] == via]

    def refs_per_s(self) -> float:
        sims = self.sims()
        seconds = sum(self.span_s(s["span"]) for s in sims)
        refs = sum(s["counters"]["l1_hits"] + s["counters"]["l1_misses"] for s in sims)
        return refs / seconds if seconds > 0 else 0.0

    def job_seconds(self, workload: str) -> List[float]:
        if workload == "sweep_warm":
            return [self.span_s(i) for i in self.named("store.load")]
        via = "executor" if workload == "sweep_cold" else "apps"
        return [self.span_s(s["span"]) for s in self.sims(via)]

    def signature(self):
        """What the traced and untraced passes must agree on."""
        out = self.out
        if "jobs" in out:
            return out["jobs"]
        return (out["stdout_sha256"], out["job_digests"], [s["digest"] for s in self.sims()])


def percentile(values: List[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- the run ----------------------------------------------------------------


class Run:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.root = root
        self.src = root / "src"
        self.size = SIZES[args.size]
        self.started = time.perf_counter()
        self.work = root / ".perfbench"
        self.tmp = self.work / "tmp" / f"{os.getpid()}-{time.time_ns()}"
        self.tmp.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.fixture: Optional[Path] = None
        self._children = 0

    @property
    def expected(self) -> dict:
        """The recorded outputs for this size (see ``freeze.py``)."""
        recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        return recorded[self.args.size]

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def fresh_dir(self, name: str) -> Path:
        self._children += 1
        path = self.tmp / f"{name}-{self._children}"
        path.mkdir()
        return path

    def child(self, spec: dict) -> Optional[dict]:
        """Run one pass in a fresh interpreter; None if it crashed."""
        self._children += 1
        tag = self.tmp / f"pass-{self._children}"
        spec = dict(spec, src=str(self.src))
        spec_path, out_path = tag.with_suffix(".spec.json"), tag.with_suffix(".out.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        env["REPRO_STORE_DIR"] = str(self.tmp / "unused-store")
        env["TMPDIR"] = str(self.tmp)
        env["PYTHONPYCACHEPREFIX"] = str(self.root / PYCACHE)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        timeout = max(1.0, self.remaining())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_path)],
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.notes.append(f"pass timed out after {timeout:.0f}s")
            return None
        if proc.returncode != 0 or not out_path.exists():
            self.notes.append("pass crashed: " + proc.stderr.strip()[-400:])
            return None
        return json.loads(out_path.read_text(encoding="utf-8"))

    def more(self, passes: List[PassView], began: float) -> bool:
        """Start another pass only if it fits in ``--seconds``."""
        elapsed = time.perf_counter() - began
        last = passes[-1].wall_s if passes else 0.0
        return elapsed + last <= self.args.seconds and self.remaining() > 2 * last + 5

    # -- specs and checks -------------------------------------------------

    def sweep_spec(self, store: Path, **extra) -> dict:
        return dict(
            kind="sweep",
            store=str(store),
            scale=self.size["sweep_scale"],
            apps=self.size["sweep_apps"],
            **extra,
        )

    def apps_list(self) -> List[str]:
        return list(self.size["apps"] or PAPER_APPS)

    def reference_jobs(self) -> List[List[str]]:
        """For a seed without recorded results: one job per protocol,
        rotating through the apps with the seed, is re-run on the frozen
        reference engine."""
        apps = self.apps_list()
        seed = self.args.seed
        return [[apps[(seed + 3 * i) % len(apps)], p] for i, p in enumerate(PROTOCOLS)]

    def apps_spec(self, **extra) -> dict:
        seed = self.args.seed
        spec = dict(
            kind="apps",
            scale=self.size["apps_scale"],
            apps=self.apps_list(),
            seed=seed,
            reference_jobs=[] if seed == 0 else self.reference_jobs(),
        )
        spec.update(extra)
        return spec

    def check_sweep(self, out: Optional[dict], also_equal: Optional[str] = None) -> None:
        """One pass's outputs: every unique job's result digest and the
        rendered report's sha256 against the recorded ones (and, for a
        replay, against the cold sweep that filled its store)."""
        want = self.expected["sweep"]
        self.attempted += len(want["jobs"]) + 1
        if out is None:
            self.failed += len(want["jobs"]) + 1
            return
        got = out["job_digests"]
        bad = sum(1 for k, d in want["jobs"].items() if got.get(k) != d)
        bad += sum(1 for k in got if k not in want["jobs"])
        report_ok = out["rc"] == 0 and out["stdout_sha256"] == want["stdout_sha256"]
        if also_equal is not None and out["stdout_sha256"] != also_equal:
            report_ok = False
        if bad:
            self.notes.append(f"{bad} job result(s) differ from the recorded ones")
        if not report_ok:
            self.notes.append(
                f"reproduce output sha256 {out['stdout_sha256'][:12]} rc={out['rc']}"
                f" (recorded {want['stdout_sha256'][:12]})"
            )
        self.failed += bad + (0 if report_ok else 1)

    def check_apps(self, out: Optional[dict]) -> None:
        """Default seed: each job's summary and reference count against
        the recorded ones.  Other seeds: the sampled jobs against the
        reference engine, and every job's reference count against its
        program."""
        n = len(self.apps_list()) * len(PROTOCOLS)
        self.attempted += n
        if out is None:
            self.failed += n
            return
        jobs = out["jobs"]
        if self.args.seed == 0:
            want = self.expected["apps"]
            bad = [k for k in want if jobs.get(k) != want[k]]
            bad += [k for k in jobs if k not in want]
        else:
            bad = [k for k, j in jobs.items() if j["refs"] != j["accesses"]]
            bad += [k for k in out["reference_mismatches"] if k not in bad]
            if len(out["reference_jobs"]) != len(PROTOCOLS):
                bad.append("reference check incomplete")
        if bad:
            self.notes.append("wrong results: " + ", ".join(bad[:8]))
        self.failed += len(bad)

    # -- workloads ---------------------------------------------------------

    def cold_pass(self, **extra) -> Optional[PassView]:
        out = self.child(self.sweep_spec(self.fresh_dir("store"), **extra))
        if not extra.get("setup_only"):
            self.check_sweep(out)
        return PassView(out) if out is not None else None

    def warm_fixture(self) -> Path:
        """A store the same code's cold sweep filled, kept between runs
        under ``.perfbench/cache`` keyed by a hash of ``src`` and the
        benchmark's pass code.  Filling it is fixture preparation, not
        measured set-up."""
        digest = hashlib.sha256()
        for path in sorted(self.src.rglob("*.py")) + [HERE / "child.py"]:
            digest.update(str(path.relative_to(self.root)).encode())
            digest.update(path.read_bytes())
        digest.update(json.dumps(self.size, sort_keys=True).encode())
        fixture = self.work / "cache" / f"warm-{digest.hexdigest()[:20]}"
        if not (fixture / "cold.json").exists():
            store = self.fresh_dir("fixture")
            out = self.child(self.sweep_spec(store))
            self.check_sweep(out)
            if out is None or self.failed:
                raise BenchError("the cold sweep that fills the warm store failed")
            # Fixtures of other code versions are stale: drop them.
            for old in fixture.parent.glob("warm-*"):
                shutil.rmtree(old, ignore_errors=True)
            fixture.parent.mkdir(parents=True, exist_ok=True)
            shutil.copytree(store, fixture / "store")
            (fixture / "cold.json").write_text(
                json.dumps({"stdout_sha256": out["stdout_sha256"]}), encoding="utf-8"
            )
        return fixture

    def warm_pass(self, fixture: Path, **extra) -> Optional[PassView]:
        store = self.fresh_dir("store")
        shutil.rmtree(store)
        shutil.copytree(fixture / "store", store)
        out = self.child(self.sweep_spec(store, **extra))
        if not extra.get("setup_only"):
            cold = json.loads((fixture / "cold.json").read_text(encoding="utf-8"))
            self.check_sweep(out, also_equal=cold["stdout_sha256"])
        return PassView(out) if out is not None else None

    def apps_pass(self, **extra) -> Optional[PassView]:
        out = self.child(self.apps_spec(**extra))
        if not extra.get("setup_only") and not extra.get("protocols"):
            self.check_apps(out)
        return PassView(out) if out is not None else None

    def one_pass(self, **extra) -> Optional[PassView]:
        workload = self.args.workload
        if self.args.corrupt and not extra.get("setup_only"):
            extra["corrupt"] = True
        if workload == "sweep_cold":
            return self.cold_pass(**extra)
        if workload == "sweep_warm":
            return self.warm_pass(self.fixture, **extra)
        return self.apps_pass(**extra)

    def timed_passes(self, **extra) -> List[PassView]:
        passes: List[PassView] = []
        began = time.perf_counter()
        while True:
            view = self.one_pass(**extra)
            if view is None:
                break
            passes.append(view)
            if not self.more(passes, began):
                break
        return passes

    def measure(self) -> Dict[str, float]:
        """``--trace 0``: the end-to-end metrics."""
        passes = self.timed_passes()
        if not passes:
            no_pass(self.notes)
        setups = [p.setup_s for p in passes]
        while len(setups) < SETUP_SAMPLES and self.remaining() > 30:
            view = self.one_pass(setup_only=True)
            if view is None:
                break
            setups.append(view.setup_s)
        workload = self.args.workload
        tail = TAIL_PERCENTILE[workload]
        per_pass_jobs = [p.job_seconds(workload) for p in passes]
        counts = sorted({len(j) for j in per_pass_jobs})
        self.notes.append(
            f"job_tail_ms is p{tail} of {'/'.join(map(str, counts))} jobs per pass;"
            f" every metric is the median over {len(passes)} pass(es);"
            f" setup_s over {len(setups)} set-up(s)"
        )
        return {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setups),
            "refs_per_s": statistics.median(p.refs_per_s() for p in passes),
            "job_p50_ms": 1e3 * statistics.median(percentile(j, 50) for j in per_pass_jobs),
            "job_tail_ms": 1e3 * statistics.median(percentile(j, tail) for j in per_pass_jobs),
            "peak_rss_mb": statistics.median(p.out["rss_kb"] / 1024 for p in passes),
        }

    def trace(self) -> Dict[str, float]:
        """``--trace 1``: untraced, span-traced and profiled passes."""
        bad = layers.coverage(self.src)
        if bad:
            print(f"perfbench: layer table does not cover: {bad}", file=sys.stderr)
            self.notes.append(f"layer table misses {sorted(bad)}")
        count = 3 if self.args.workload == "sweep_warm" else 1
        plain = [self.one_pass() for _ in range(count)]
        traced = [self.one_pass(spans=True) for _ in range(count)]
        profile_extra = {"profile": True}
        if self.args.workload == "paper_apps":
            # The R-NUMA job of every app, where relocation and page
            # replacement run; all 40 under the profiler take too long.
            profile_extra.update(protocols=["rnuma"], reference_jobs=[])
        profiled = self.one_pass(**profile_extra)
        if None in plain or None in traced or profiled is None:
            no_pass(self.notes + ["a traced-run pass crashed"])
        for a, b in zip(plain, traced):
            self.attempted += 1
            if a.signature() != b.signature():
                self.failed += 1
                self.notes.append("traced results differ from untraced results")
        self.attempted += 1
        if not agrees(plain[0].signature(), profiled.signature()):
            self.failed += 1
            self.notes.append("profiled results differ from untraced results")
        ratio = statistics.median(t.wall_s for t in traced) / statistics.median(
            p.wall_s for p in plain
        )
        view = sorted(traced, key=lambda t: t.wall_s)[len(traced) // 2]
        metrics = per_layer(view, layers.share_table(profiled.out["profile"]))
        metrics["trace.overhead_ratio"] = ratio
        return metrics


def agrees(full, part) -> bool:
    """The profiled pass may run a subset of the paper-app jobs."""
    if isinstance(full, dict):
        return all(full.get(k) == v for k, v in part.items())
    return full == part


def no_pass(notes: List[str]) -> None:
    raise BenchError("no pass completed: " + " | ".join(notes[-3:]))


def per_layer(view: PassView, shares: Dict[str, float]) -> Dict[str, float]:
    out = view.out
    sims = view.sims()
    total: Counter = Counter()
    for sim in sims:
        total.update(sim["counters"])
    refs = total["l1_hits"] + total["l1_misses"]
    misses = total["l1_misses"]
    run_s = sum(view.span_s(i) for i in view.named("sim.run"))
    loads = out.get("loads", {})
    reads = len(loads)
    hits = sum(1 for hit in loads.values() if hit)
    metrics = {
        "sim.run_s": run_s,
        "sim.refs": refs,
        "sim.l1_misses": misses,
        "sim.ns_per_ref": run_s / refs * 1e9 if refs else 0.0,
        "sim.us_per_miss": run_s / misses * 1e6 if misses else 0.0,
        "sim.loop_share": shares.get("sim.loop", 0.0),
        "sim.miss_share": shares.get("sim.miss", 0.0),
        "sim.remote_fetch_share": shares.get("sim.remote_fetch", 0.0),
        "sim.round_trip_share": shares.get("sim.round_trip", 0.0),
        "machine.build_s": sum(view.span_s(i) for i in view.named("machine.build")),
        "machine.builds": len(view.named("machine.build")),
        "workloads.build_s": sum(view.span_s(i) for i in view.named("workloads.build")),
        "workloads.refs_built": sum(out.get("refs_built", {}).values()),
        "store.read_s": sum(view.span_s(i) for i in view.named("store.load")),
        "store.write_s": sum(view.span_s(i) for i in view.named("store.save")),
        "store.reads": reads,
        "store.writes": len(out.get("saves", {})),
        "store.bytes_written": sum(out.get("saves", {}).values()),
        "store.hit_ratio": hits / reads if reads else 0.0,
        "executor.jobs_submitted": out.get("jobs_submitted", 0),
        "executor.jobs_unique": len(out.get("job_digests", {})),
        "executor.jobs_simulated": len(view.sims("executor")),
        "executor.jobs_from_store": hits,
        "executor.overhead_s": sum(view.self_s(i) for i in view.named("executor.")),
        "render.s": sum(view.self_s(i) for i in view.named("render.")),
        "render.sims_outside_store": len(view.sims("render")),
    }
    for package in ("interconnect", "coherence", "caches", "osint", "vm", "protocols"):
        metrics[f"{package}.share"] = layers.package_share(shares, package)
    for name, counter in COUNTER_METRICS.items():
        metrics[name] = total[counter]
    return metrics


# -- host and provenance ----------------------------------------------------


def host_load() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(TAIL_PERCENTILE)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        metavar="PATH",
        help="also write the full result with provenance to PATH "
        "(refused from a dirty or unversioned tree)",
    )
    # For the self-tests: a tiny problem size, and one altered counter.
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {src}/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    # Passes import from bytecode compiled once here, as an installed
    # package would, whatever the caller's PYTHONDONTWRITEBYTECODE says.
    sys.pycache_prefix = str(root / PYCACHE)
    compileall.compile_dir(str(src), quiet=1)
    sys.path.insert(0, str(src))
    from repro.obs.provenance import provenance_block

    provenance = provenance_block()
    if args.record and (
        provenance["git_commit"].endswith("-dirty") or provenance["git_commit"] == "unknown"
    ):
        print(
            f"perfbench: refusing to record a baseline from commit "
            f"{provenance['git_commit']!r}; commit or stash first",
            file=sys.stderr,
        )
        return 3
    host = {"nproc": os.cpu_count(), "loadavg_start": host_load()}
    run = Run(args, root)
    try:
        if args.workload == "sweep_warm":
            run.fixture = run.warm_fixture()
        metrics = run.trace() if args.trace else run.measure()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    host["loadavg_end"] = host_load()

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("host " + json.dumps(host, sort_keys=True))
    for note in run.notes:
        print("note " + note)
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(
        f"fail_ratio {run.failed / run.attempted:.6g} ratio"
        f" ({run.failed} of {run.attempted} outputs wrong or missing)"
    )
    if args.record:
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            provenance=provenance,
            host=host,
            notes=run.notes,
        )
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
