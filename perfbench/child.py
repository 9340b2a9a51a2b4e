"""One benchmark pass, in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json OUT.json``

A pass is what a user's command does once: a ``reproduce`` sweep
(``"kind": "sweep"``), or building the paper apps and simulating each
under every protocol (``"kind": "apps"``).  Each pass starts a new
process so imports, trace generation and the in-process program cache
start cold, as they do for a user.

The pass records raw ``perf_counter`` stamps only: spans around calls
into the program's public entry points, and host-speed probe windows
(:mod:`hostspeed`).  The parent turns them into metrics.  Everything
that checks results -- digests, the reference engine -- runs after the
pass's end stamp, outside the measured interval.
"""

import time

T0 = time.perf_counter()

import cProfile  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402  (this file's directory is sys.path[0])

HERE = Path(__file__).resolve().parent

#: NodeStats counters summed per simulation for the per-layer metrics.
COUNTERS = (
    "l1_hits",
    "l1_misses",
    "remote_fetches",
    "refetches",
    "invalidations_sent",
    "coherence_misses",
    "block_cache_hits",
    "page_cache_hits",
    "page_cache_misses",
    "page_faults",
    "relocations",
    "page_replacements",
    "tlb_shootdowns",
)

PROTOCOLS = ("ideal", "ccnuma", "scoma", "rnuma")


class SetupDone(Exception):
    """Raised at the first job of a set-up-only pass."""


class Recorder:
    """Spans kept in memory as ``[name, start, end, parent]`` and
    written out when the pass ends."""

    def __init__(self) -> None:
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if on_exit is not None:
                on_exit(index, args, result)
            return result

        return wrapper


def result_digest(result) -> str:
    """SHA-256 of a result's canonical JSON: every counter, every node."""
    payload = json.dumps(result.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def key_digest(job) -> str:
    return hashlib.sha256(repr(job.key).encode()).hexdigest()


def sim_record(span: int, via: str, result) -> dict:
    totals = result.stats.as_dict()
    return {
        "span": span,
        "via": via,
        "counters": {name: totals[name] for name in COUNTERS},
        "digest": result_digest(result),
    }


class Pass:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.probes = hostspeed.Probes()
        self.probes.take()
        if not spec.get("profile"):
            # Profiled passes report shares, not times: no probes inside.
            self.probes.start()
        self.rec = Recorder()
        self.trace = spec.get("spans", False)
        self.out = {"t0": T0, "setup_end": None, "end": None}
        self.sims = []  # (span index, via, result)
        self.corrupted = False

    def simulate_hook(self, via):
        def on_exit(index, args, result):
            if self.spec.get("corrupt") and not self.corrupted:
                # Self-test: one wrong counter must be caught downstream.
                result.stats.nodes[0].remote_fetches += 1
                self.corrupted = True
            self.sims.append((index, via, result))

        return on_exit

    def wrap_builders(self, registry) -> None:
        built = self.out.setdefault("refs_built", {})

        def on_exit(index, args, program):
            built[str(index)] = program.total_accesses

        for name, (builder, desc, paper) in list(registry.APPLICATIONS.items()):
            registry.APPLICATIONS[name] = (
                self.rec.wrap("workloads.build", builder, on_exit),
                desc,
                paper,
            )

    def wrap_engine(self, engine_module) -> None:
        cls = engine_module.SimulationEngine
        cls.__init__ = self.rec.wrap("machine.build", cls.__init__)
        cls.run = self.rec.wrap("sim.run", cls.run)

    # -- reproduce sweep ----------------------------------------------

    def sweep(self) -> None:
        import repro.cli as cli
        from repro.experiments import ablations
        from repro.experiments import executor as ex
        from repro.sim import engine
        from repro.workloads import registry

        spec, rec = self.spec, self.rec
        first = {}
        run = ex.Executor.run

        def first_run(executor, jobs):
            if not first:
                first.update(
                    executor=executor,
                    jobs=list(jobs),
                    setup_end=time.perf_counter(),
                )
                if spec.get("setup_only"):
                    raise SetupDone()
            return run(executor, jobs)

        loads = self.out.setdefault("loads", {})
        saves = self.out.setdefault("saves", {})
        ex.Executor.run = rec.wrap("executor.run", first_run)
        ex.ResultStore.load = rec.wrap(
            "store.load",
            ex.ResultStore.load,
            lambda i, args, result: loads.__setitem__(str(i), result is not None),
        )
        ex.simulate = rec.wrap("sim.simulate", ex.simulate, self.simulate_hook("executor"))
        ablations.simulate = rec.wrap(
            "sim.simulate", ablations.simulate, self.simulate_hook("render")
        )
        if self.trace:
            ex.ResultStore.save = rec.wrap(
                "store.save",
                ex.ResultStore.save,
                lambda i, args, _: saves.__setitem__(
                    str(i), args[0].path_for(args[1]).stat().st_size
                ),
            )
            ex.Executor.missing = rec.wrap("executor.missing", ex.Executor.missing)
            ex.Executor.run_app = rec.wrap("executor.run_app", ex.Executor.run_app)
            self.wrap_engine(engine)
            self.wrap_builders(registry)
            self.wrap_render(cli)

        argv = ["reproduce", "--scale", repr(spec["scale"]), "--jobs", "1"]
        argv += ["--store", spec["store"]]
        if spec.get("apps"):
            argv += ["--apps", *spec["apps"]]
        if spec.get("engine"):
            argv += ["--engine", spec["engine"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        profiler = cProfile.Profile() if spec.get("profile") else None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if profiler is not None:
                    profiler.enable()
                try:
                    rc = cli.main(argv)
                finally:
                    if profiler is not None:
                        profiler.disable()
        except SetupDone:
            self.finish_setup(first["setup_end"])
            return
        self.finish_pass(profiler)
        self.out["setup_end"] = first["setup_end"]
        executor, jobs = first["executor"], first["jobs"]
        self.out["rc"] = rc
        self.out["stderr_tail"] = stderr.getvalue()[-2000:]
        self.out["stdout_sha256"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        unique = {}
        for job in jobs:
            unique.setdefault(job.key, job)
        self.out["jobs_submitted"] = len(jobs)
        self.out["job_digests"] = {}
        for key, job in unique.items():
            result = executor.cache.get(key)
            digest = result_digest(result) if result is not None else None
            self.out["job_digests"][key_digest(job)] = digest
        self.out["job_failures"] = len(executor.failures)
        self.out["sims"] = [sim_record(i, via, r) for i, via, r in self.sims]

    def wrap_render(self, cli) -> None:
        """Spans around the ``compute_*``/``format_*`` calls ``reproduce``
        renders with, including the copies its dispatch tables hold."""
        wrapped = {}
        for name in dir(cli):
            if name.startswith(("compute_", "format_")):
                fn = getattr(cli, name)
                wrapped[id(fn)] = self.rec.wrap("render." + name, fn)
                setattr(cli, name, wrapped[id(fn)])
        for table in (cli._FIGURES, cli._ABLATIONS):
            for key, fns in list(table.items()):
                table[key] = tuple(wrapped.get(id(f), f) for f in fns)

    # -- paper apps ---------------------------------------------------

    def apps(self) -> None:
        from repro.common.addressing import AddressSpace
        from repro.common.params import (
            MachineParams,
            base_ccnuma_config,
            base_rnuma_config,
            base_scoma_config,
            ideal_config,
        )
        from repro.sim import engine
        from repro.sim.engine import simulate
        from repro.workloads import registry

        spec, rec = self.spec, self.rec
        self.wrap_builders(registry)
        if self.trace:
            self.wrap_engine(engine)
        machine, space = MachineParams(), AddressSpace()
        makers = {
            "ideal": ideal_config,
            "ccnuma": base_ccnuma_config,
            "scoma": base_scoma_config,
            "rnuma": base_rnuma_config,
        }
        protocols = spec.get("protocols") or PROTOCOLS
        configs = {name: makers[name]() for name in protocols}
        seed = spec.get("seed", 0)
        extra = {"seed": seed} if seed else {}
        programs = {}
        for app in spec["apps"]:
            builder = registry.APPLICATIONS[app][0]
            programs[app] = builder(machine, space, scale=spec["scale"], **extra)
        self.out["setup_end"] = time.perf_counter()
        if spec.get("setup_only"):
            self.finish_setup(self.out["setup_end"])
            return

        results = {}
        hook = self.simulate_hook("apps")
        run_job = rec.wrap("sim.simulate", simulate, hook)
        profiler = cProfile.Profile() if spec.get("profile") else None
        if profiler is not None:
            profiler.enable()
        for app, program in programs.items():
            for name, config in configs.items():
                results[app, name] = run_job(config, program)
        if profiler is not None:
            profiler.disable()
        self.finish_pass(profiler)

        def entry(app, result):
            return dict(
                result.summary(),
                refs=result.total("l1_hits") + result.total("l1_misses"),
                accesses=programs[app].total_accesses,
            )

        self.out["sims"] = [sim_record(i, via, r) for i, via, r in self.sims]
        self.out["jobs"] = {
            f"{app}/{name}": entry(app, result) for (app, name), result in results.items()
        }
        oracle_jobs, mismatches = {}, []
        if spec.get("reference_jobs"):
            from repro.sim.factory import simulate_with

            for app, name in spec["reference_jobs"]:
                config = configs[name].with_engine("reference")
                oracle = simulate_with(config, programs[app])
                oracle_jobs[f"{app}/{name}"] = entry(app, oracle)
                got = results[app, name].to_json_dict()
                want = oracle.to_json_dict()
                got["config"] = want["config"] = None  # engine field differs
                if got != want:
                    mismatches.append(f"{app}/{name}")
        self.out["reference_jobs"] = oracle_jobs
        self.out["reference_mismatches"] = mismatches

    # -- shared ---------------------------------------------------------

    def finish_setup(self, setup_end: float) -> None:
        self.probes.stop()
        self.probes.take()
        self.out["setup_end"] = setup_end
        self.out["end"] = setup_end

    def finish_pass(self, profiler) -> None:
        self.out["end"] = time.perf_counter()
        self.probes.stop()
        self.probes.take()
        self.out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if profiler is not None:
            import layers

            stats = pstats.Stats(profiler).stats
            self.out["profile"] = layers.attribute(
                stats, Path(self.spec["src"]), HERE
            )

    def write(self, path: str) -> None:
        self.out["spans"] = self.rec.spans
        self.out["probes"] = self.probes.windows
        Path(path).write_text(json.dumps(self.out), encoding="utf-8")


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    one = Pass(spec)
    if spec["kind"] == "sweep":
        one.sweep()
    else:
        one.apps()
    one.write(sys.argv[2])


if __name__ == "__main__":
    main()
