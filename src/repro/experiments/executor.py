"""Parallel experiment execution with a persistent on-disk result store.

The figure/table modules enumerate their simulations up front as
:class:`Job` values and hand the whole set to an :class:`Executor`,
which:

1. deduplicates jobs by :func:`repro.experiments.runner.run_key`
   (the ideal baseline and base CC/S/R systems recur across figures);
2. satisfies what it can from its in-memory :class:`ResultCache` and
   its :class:`ResultStore` (JSON-per-key files under a cache
   directory);
3. fans the remaining simulations out over ``workers`` processes
   through a *supervised* dispatch loop — every worker attempt is
   wrapped in an outcome envelope, so one crashing, hanging, or
   dependency-starved job can never abort the sweep;
4. writes fresh results back to both layers as each job completes.

Simulations are deterministic, so a parallel run produces bit-identical
results to a serial one, and a second ``python -m repro reproduce``
against a warm store does near-zero simulation work.

Failure model
-------------
Each job owns an attempt budget (:class:`repro.common.params.RetryPolicy`):

- a **crash** (any exception in the worker body, including injected
  ones) consumes an attempt and is retried after a deterministic
  exponential backoff (:func:`backoff_delay` — jitter is derived from
  the run key, no global random state);
- a **hang** is detected by the per-job deadline; the pool is
  terminated and rebuilt (the only way to reclaim a stuck worker
  process), the hung job is charged an attempt, and in-flight innocent
  bystanders are re-dispatched *without* being charged;
- an **unavailable engine** (:class:`EngineUnavailableError`, e.g.
  ``--engine vector`` without NumPy) is recorded immediately with its
  reason string — retrying cannot install a dependency.

A job whose budget is spent becomes a :class:`JobFailure`; the sweep
keeps going (or aborts at once under ``fail_fast``), partial results
stay cached and stored, and :meth:`Executor.run` raises
:class:`SweepFailure` at the end so callers must notice.  Failures land
in the run manifest's ``failures`` section, which ``reproduce
--resume`` replays.

Store invalidation is by schema version: :data:`STORE_SCHEMA_VERSION`
participates in the key hash *and* is checked in the payload, so
bumping it (whenever the simulator's timing or counters change
meaning) orphans every stale entry.  Entries additionally carry a
``payload_sha256`` integrity hash, verified on every load and fscked
in bulk by ``python -m repro store verify``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import sys
import tempfile
import time
import traceback as traceback_module
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import (
    EngineUnavailableError,
    FaultInjected,
    ReproError,
)
from repro.common.params import (
    RetryPolicy,
    SystemConfig,
    config_from_dict,
    config_to_dict,
)
from repro.experiments.runner import ResultCache, default_cache, run_key
from repro.faults import injection
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.workloads.registry import build_program

#: Bump whenever stored results become incomparable with fresh ones
#: (engine timing changes, counter semantics, serialization layout).
#: v2: L1 write-back network contention is charged at the current cycle
#: instead of time zero.
#: v3: configuration identity grew the interconnect-topology knobs
#: (SystemConfig.topology, CostParams.link_latency/link_occupancy);
#: pre-topology entries no longer match any run key.
#: v4: configuration identity grew the directory-representation knobs
#: (SystemConfig.directory) and NodeStats grew ``invalidations_sent``;
#: pre-directory entries no longer match any run key.
#: v5: configuration identity grew the engine-backend selector
#: (SystemConfig.engine); pre-engine entries no longer match any run key.
#: v6: entries carry a ``payload_sha256`` integrity hash, required on
#: load — pre-integrity entries would otherwise be silently
#: re-simulated forever; ``store gc`` removes them instead.
STORE_SCHEMA_VERSION = 6

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_STORE_DIR"

#: File name of the per-sweep manifest written next to the results.
MANIFEST_NAME = "run_manifest.json"

#: Subdirectory corrupt entries are quarantined into by ``store verify``.
QUARANTINE_DIR = "quarantine"

#: Default age below which an orphan ``.tmp`` is presumed to belong to
#: a live concurrent writer and must not be garbage-collected.
TMP_GC_AGE_S = 3600.0

#: Supervisor poll period while waiting on worker completions; job
#: granularity is seconds, so 20 ms adds no measurable latency.
_POLL_INTERVAL_S = 0.02

#: Ceiling on any single computed backoff delay.
_BACKOFF_CAP_S = 30.0


def default_store_dir() -> Path:
    """Where ``python -m repro reproduce`` keeps results by default."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-rnuma").expanduser()


@dataclass(frozen=True)
class Job:
    """One simulation to run: an application under a configuration."""

    app: str
    config: SystemConfig
    scale: float = 1.0

    @property
    def key(self) -> Tuple:
        return run_key(self.app, self.config, self.scale)


@dataclass
class JobFailure:
    """A job that permanently failed during a sweep.

    Carries everything the failure table prints, plus the full config
    dict so ``reproduce --resume`` can rebuild and re-run the exact
    job (:func:`job_from_failure`) from the manifest alone.
    """

    key: str  #: ``repr(run_key(...))`` — matches stored-entry keys.
    app: str
    scale: float
    engine: str
    protocol: str
    kind: str  #: ``"crash"``, ``"timeout"``, or ``"unavailable"``.
    attempts: int
    error: str  #: one-line cause (exception repr, or the reason string).
    traceback: str  #: full worker traceback ("" for timeouts).
    config: Dict[str, Any]  #: :func:`config_to_dict` payload for resume.

    def to_json_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "JobFailure":
        return cls(**data)


def job_from_failure(failure: JobFailure) -> Job:
    """Rebuild the runnable :class:`Job` a failure record describes."""
    return Job(
        app=failure.app,
        config=config_from_dict(failure.config),
        scale=failure.scale,
    )


class SweepFailure(ReproError):
    """One or more jobs of a sweep permanently failed.

    Raised by :meth:`Executor.run` *after* every other job completed
    (or immediately under ``fail_fast``).  All partial results remain
    in the cache and store; ``failures`` lists the casualties.
    """

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures: List[JobFailure] = list(failures)
        heads = ", ".join(
            f"{f.app}/{f.protocol} ({f.kind}, {f.attempts} attempt(s))"
            for f in self.failures[:4]
        )
        if len(self.failures) > 4:
            heads += f", ... {len(self.failures) - 4} more"
        super().__init__(f"{len(self.failures)} sweep job(s) failed: {heads}")


def backoff_delay(policy: RetryPolicy, key: Tuple, attempt: int) -> float:
    """Delay before re-attempting a job, deterministic per (key, attempt).

    Exponential in the attempt number, with jitter in [0.5x, 1.5x)
    derived from a hash of the run key — so concurrent retries of
    different jobs de-correlate without any module-level ``random``
    state, and a re-run of the same sweep backs off identically.
    """
    if policy.backoff <= 0 or attempt < 1:
        return 0.0
    digest = hashlib.sha256(repr((key, attempt)).encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return min(policy.backoff * (2.0 ** (attempt - 1)) * jitter, _BACKOFF_CAP_S)


def _simulate_job(job: Job) -> SimulationResult:
    """Serial execution body: build (or fetch the cached) compiled
    program and simulate it."""
    program = build_program(
        job.app, machine=job.config.machine, space=job.config.space, scale=job.scale
    )
    return simulate(job.config, program)


def _job_payload(job: Job) -> Tuple[SystemConfig, object]:
    """What a worker needs to run ``job`` without regenerating anything:
    the config and the compiled program — packed trace columns (8 bytes
    per reference, cheap to pickle) with the first-touch map already
    memoized on it.

    Generation and placement happen once in the parent — the registry
    cache dedups across the protocols of a sweep — so workers do pure
    simulation (the engine trusts a compiled program's barrier
    validation, so there is no per-run validation pass either).
    """
    program = build_program(
        job.app, machine=job.config.machine, space=job.config.space, scale=job.scale
    )
    # Warm the memoized placement map so it ships inside the pickle.
    program.first_touch_homes(job.config.machine, job.config.space)
    return (job.config, program)


def _run_supervised(payload: Tuple) -> Tuple:
    """Worker body (top level so it pickles under every multiprocessing
    start method), wrapped in an outcome envelope:

    ``(True, result, simulate_seconds, queue_wait_seconds)`` on
    success, ``(False, (kind, error, traceback), 0.0, queue_wait)``
    otherwise — a worker *returns* its failure instead of raising, so
    the pool never sees an exception and the supervisor decides what
    to do with it.

    ``queue_wait`` is measured against the submission wall-clock stamp
    the parent packed into the payload; ``time.time()`` (not
    ``perf_counter``) because the two readings come from different
    processes.  ``faults_spec`` travels in the payload too: injection
    must not depend on environment inheritance across start methods.
    """
    config, program, submitted_at, faults_spec, app, index, attempt = payload
    queue_wait = max(0.0, time.time() - submitted_at)
    try:
        injection.maybe_hang(
            "worker-hang", spec=faults_spec, app=app, index=index, attempt=attempt
        )
        injection.maybe_crash(
            "worker-raise", spec=faults_spec, app=app, index=index, attempt=attempt
        )
        t0 = time.perf_counter()
        result = simulate(config, program)
        return (True, result, time.perf_counter() - t0, queue_wait)
    except EngineUnavailableError as exc:
        return (
            False,
            ("unavailable", exc.reason, traceback_module.format_exc()),
            0.0,
            queue_wait,
        )
    except Exception as exc:
        return (
            False,
            (
                "crash",
                f"{type(exc).__name__}: {exc}",
                traceback_module.format_exc(),
            ),
            0.0,
            queue_wait,
        )


def _attempt_inline(job: Job, index: int, attempt: int, faults_spec) -> Tuple:
    """One in-process attempt, same envelope shape as the worker body."""
    try:
        injection.maybe_hang(
            "worker-hang", spec=faults_spec, app=job.app, index=index, attempt=attempt
        )
        injection.maybe_crash(
            "worker-raise", spec=faults_spec, app=job.app, index=index, attempt=attempt
        )
        t0 = time.perf_counter()
        result = _simulate_job(job)
        return (True, result, time.perf_counter() - t0, 0.0)
    except EngineUnavailableError as exc:
        return (
            False,
            ("unavailable", exc.reason, traceback_module.format_exc()),
            0.0,
            0.0,
        )
    except Exception as exc:
        return (
            False,
            ("crash", f"{type(exc).__name__}: {exc}", traceback_module.format_exc()),
            0.0,
            0.0,
        )


def payload_checksum(result_payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical (sorted-key) JSON of a result payload
    — the integrity hash stored as ``payload_sha256`` in every entry."""
    return hashlib.sha256(
        json.dumps(result_payload, sort_keys=True).encode()
    ).hexdigest()


def _atomic_write_json(root: Path, path: Path, payload: Any, **dump_kwargs) -> None:
    """Temp file + rename so a reader never observes a torn write.

    A :class:`FaultInjected` escaping here is a *simulated writer
    death* (``crash-before-rename``): the orphan temp file is left
    behind on purpose — exactly what a crashed real writer leaves, and
    what the age-gated ``store gc`` exists to clean up.
    """
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, **dump_kwargs)
        injection.maybe_crash("crash-before-rename")
        os.replace(tmp, path)
    except FaultInjected:
        raise
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: :meth:`ResultStore.classify_entry` reasons for well-formed entries
#: the current code no longer uses (reported by verify, removed by gc).
STALE_REASONS = ("stale-schema", "stale-engine")


class ResultStore:
    """JSON-per-key persistent result store.

    Each entry is one file named by the SHA-256 of
    ``(schema_version, run_key)``; the payload repeats both so loads can
    reject version mismatches and (vanishingly unlikely) hash
    collisions, and carries ``payload_sha256`` — an integrity hash over
    the result payload, verified on every load so a corrupt entry is
    *detected*, never silently trusted.  Writes go through a temp file
    + rename so an interrupted run never leaves a truncated entry.

    Besides ``load``/``save``, the store can fsck itself:

    - :meth:`verify` classifies every entry and quarantines corrupt
      ones into ``quarantine/`` (instead of silently ignoring them);
    - :meth:`gc` removes stale entries (an older schema, or a result
      of an engine backend that no longer exists) and *old* orphan
      ``.tmp`` files (age-gated so live concurrent writers are never
      clobbered);
    - :meth:`stats` summarizes the directory.
    """

    def __init__(
        self, root: Path, schema_version: int = STORE_SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.root.mkdir(parents=True, exist_ok=True)

    _ENTRY_STEM = re.compile(r"[0-9a-f]{64}\Z")

    def path_for(self, job: Job) -> Path:
        digest = hashlib.sha256(
            repr((self.schema_version, job.key)).encode()
        ).hexdigest()
        return self.root / f"{digest}.json"

    def _entry_paths(self) -> Iterator[Path]:
        """Result entries only: 64-hex-digest ``.json`` names.  The run
        manifest (and any future non-entry ``*.json``) never counts as
        a stored result."""
        for path in self.root.glob("*.json"):
            if self._ENTRY_STEM.match(path.stem):
                yield path

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def load(self, job: Job) -> Optional[SimulationResult]:
        """The stored result for ``job``, or None if absent/stale/corrupt."""
        path = self.path_for(job)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        if injection.should_inject("store-read-corruption", app=job.app):
            text = text[: max(1, len(text) // 2)]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != self.schema_version:
            return None
        if payload.get("key") != repr(job.key):
            return None
        if payload.get("payload_sha256") != payload_checksum(
            payload.get("result", {})
        ):
            return None
        try:
            return SimulationResult.from_json_dict(payload["result"])
        except (KeyError, TypeError, ValueError, ReproError):
            # ReproError covers config validation rejecting tampered
            # payloads (e.g. a negative node count).
            return None

    def save(self, job: Job, result: SimulationResult) -> None:
        result_payload = result.to_json_dict()
        payload = {
            "schema_version": self.schema_version,
            "key": repr(job.key),
            "app": job.app,
            "scale": job.scale,
            "payload_sha256": payload_checksum(result_payload),
            "result": result_payload,
        }
        path = self.path_for(job)
        if injection.should_inject("store-torn-write", app=job.app):
            # Simulated non-atomic filesystem: half the payload lands
            # in the final path.  Detected on load (checksum/JSON) and
            # quarantined by ``store verify``.
            data = json.dumps(payload, sort_keys=True)
            path.write_text(data[: max(1, len(data) // 2)], encoding="utf-8")
            return
        # Unique temp name per writer: concurrent processes saving the
        # same key must not truncate each other mid-write.
        _atomic_write_json(self.root, path, payload, sort_keys=True)

    # -- integrity -----------------------------------------------------

    def classify_entry(self, path: Path) -> str:
        """Why an entry is (un)usable: ``"ok"``, stale
        (``"stale-schema"``, or ``"stale-engine"`` for a result of a
        removed engine backend), or a corruption reason
        (``"corrupt-json"``, ``"missing-checksum"``,
        ``"checksum-mismatch"``, ``"invalid-result"``, ``"unreadable"``)."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return "unreadable"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return "corrupt-json"
        if not isinstance(payload, dict):
            return "corrupt-json"
        if payload.get("schema_version") != self.schema_version:
            return "stale-schema"
        if "payload_sha256" not in payload:
            return "missing-checksum"
        if payload["payload_sha256"] != payload_checksum(payload.get("result", {})):
            return "checksum-mismatch"
        config = payload.get("result", {}).get("config")
        engine = config.get("engine") if isinstance(config, dict) else None
        if isinstance(engine, str) and engine not in SystemConfig._ENGINES:
            return "stale-engine"
        try:
            SimulationResult.from_json_dict(payload["result"])
        except (KeyError, TypeError, ValueError, ReproError):
            return "invalid-result"
        return "ok"

    def verify(self, quarantine: bool = True) -> Dict[str, Any]:
        """Fsck every entry; corrupt ones move to ``quarantine/``.

        Stale entries are *reported but left alone* (they are
        well-formed history, and :meth:`gc`'s job); corruption —
        unparseable JSON, a missing or mismatching integrity hash, a
        result payload that no longer deserializes — is quarantined so
        it can be diagnosed instead of being silently re-simulated
        forever.  Returns a report dict with per-reason counts.
        """
        report: Dict[str, Any] = {
            "checked": 0,
            "ok": 0,
            "stale_schema": 0,
            "stale_engine": 0,
            "quarantined": [],
            "by_reason": {},
        }
        for path in sorted(self._entry_paths()):
            report["checked"] += 1
            reason = self.classify_entry(path)
            if reason == "ok":
                report["ok"] += 1
                continue
            if reason in STALE_REASONS:
                report[reason.replace("-", "_")] += 1
                continue
            report["by_reason"][reason] = report["by_reason"].get(reason, 0) + 1
            if quarantine:
                self.quarantine_dir.mkdir(exist_ok=True)
                os.replace(path, self.quarantine_dir / path.name)
            report["quarantined"].append({"entry": path.name, "reason": reason})
        return report

    def gc(self, tmp_max_age_s: float = TMP_GC_AGE_S) -> Dict[str, int]:
        """Remove stale entries and *old* orphan ``.tmp`` files.

        Temp files younger than ``tmp_max_age_s`` are presumed to
        belong to a live concurrent writer (a save between mkstemp and
        rename) and are kept — deleting one would crash the writer's
        rename and lose its result.
        """
        removed_stale = 0
        for path in list(self._entry_paths()):
            if self.classify_entry(path) in STALE_REASONS:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed_stale += 1
        removed_tmp = kept_tmp = 0
        now = time.time()
        for orphan in self.root.glob("*.tmp"):
            try:
                age = now - orphan.stat().st_mtime
            except OSError:
                continue  # completed (renamed away) concurrently
            if age >= tmp_max_age_s:
                try:
                    orphan.unlink()
                except OSError:
                    continue
                removed_tmp += 1
            else:
                kept_tmp += 1
        return {
            "removed_stale_entries": removed_stale,
            "removed_tmp": removed_tmp,
            "kept_live_tmp": kept_tmp,
        }

    def stats(self) -> Dict[str, Any]:
        """Entry/byte counts, schema-version census, tmp + quarantine."""
        entries = 0
        total_bytes = 0
        versions: Dict[str, int] = {}
        for path in self._entry_paths():
            entries += 1
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            total_bytes += len(text)
            try:
                version = json.loads(text).get("schema_version")
            except (json.JSONDecodeError, AttributeError):
                version = "corrupt"
            versions[str(version)] = versions.get(str(version), 0) + 1
        quarantined = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "schema_version": self.schema_version,
            "entries": entries,
            "total_bytes": total_bytes,
            "schema_versions": versions,
            "tmp_files": sum(1 for _ in self.root.glob("*.tmp")),
            "quarantined": quarantined,
            "has_manifest": self.manifest_path.exists(),
        }

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The last sweep's ``run_manifest.json``, or None."""
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def write_manifest_payload(self, payload: Dict[str, Any]) -> Path:
        _atomic_write_json(
            self.root, self.manifest_path, payload, indent=2, sort_keys=True
        )
        return self.manifest_path

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> None:
        """Empty the store: result entries, *old* orphan temp files,
        and the run manifest.

        The manifest goes too — by decision, not accident: it is the
        census of a sweep whose results this call just deleted, and a
        stale manifest would make ``reproduce --resume`` replay
        failures against an empty store as if the rest still existed.
        Fresh ``.tmp`` files are kept (the same live-writer age gate as
        :meth:`gc`), and ``quarantine/`` is kept as diagnostic
        evidence until explicitly removed.
        """
        for path in list(self._entry_paths()):
            path.unlink()
        self.gc()
        try:
            self.manifest_path.unlink()
        except OSError:
            pass


class Executor:
    """Runs job sets across worker processes, backed by cache + store."""

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        store: Optional[ResultStore] = None,
        progress: Optional[Callable[[int, int, Job, str], None]] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache()
        self.store = store
        #: Failure policy: per-job retries, deadline, backoff, fail-fast.
        self.retry = retry if retry is not None else RetryPolicy()
        #: Cumulative wall time spent reading / writing the on-disk
        #: store, split by direction so a profile can tell a cold sweep
        #: (write-heavy) from a warm replay (read-heavy).
        self.store_read_seconds = 0.0
        self.store_write_seconds = 0.0
        #: One record per job :meth:`run`/:meth:`run_app` resolved:
        #: ``{app, engine, protocol, source, queue_wait_s, simulate_s,
        #: store_read_s, store_write_s}`` where ``source`` is
        #: ``cache`` / ``store`` / ``simulated`` / ``failed``.
        self.job_profiles: List[Dict[str, Any]] = []
        #: Optional heartbeat, called as ``progress(done, total, job,
        #: source)`` after every unique job resolves during :meth:`run`.
        #: A raising callback is disabled after one warning — user
        #: telemetry must never abort a sweep.
        self.progress = progress
        self._progress_warned = False
        #: Every :class:`JobFailure` this executor has recorded, in
        #: failure order (what the manifest's ``failures`` section and
        #: the CLI failure table show).
        self.failures: List[JobFailure] = []
        #: key-repr -> failure, so a later :meth:`run` over an
        #: overlapping job set (the render phase) re-reports the
        #: failure instantly instead of re-simulating a known-bad job.
        self._failed: Dict[str, JobFailure] = {}

    @property
    def store_seconds(self) -> float:
        """Total store wall time (read + write), kept for callers that
        profile at phase granularity."""
        return self.store_read_seconds + self.store_write_seconds

    @property
    def failed_keys(self) -> frozenset:
        """``repr(run_key)`` of every permanently failed job so far."""
        return frozenset(self._failed)

    # -- lookup layers -------------------------------------------------

    def _lookup(self, job: Job) -> Optional[SimulationResult]:
        """Cache, then store (promoting store hits into the cache)."""
        result = self.cache.get(job.key)
        if result is not None:
            return result
        if self.store is not None:
            t0 = time.perf_counter()
            result = self.store.load(job)
            self.store_read_seconds += time.perf_counter() - t0
            if result is not None:
                self.cache.put(job.key, result)
        return result

    def _insert(self, job: Job, result: SimulationResult) -> None:
        self.cache.put(job.key, result)
        if self.store is not None:
            t0 = time.perf_counter()
            self.store.save(job, result)
            self.store_write_seconds += time.perf_counter() - t0

    def _profile(
        self,
        job: Job,
        source: str,
        queue_wait_s: float = 0.0,
        simulate_s: float = 0.0,
        store_read_s: float = 0.0,
        store_write_s: float = 0.0,
    ) -> None:
        self.job_profiles.append(
            {
                "app": job.app,
                "engine": job.config.engine,
                "protocol": job.config.protocol,
                "source": source,
                "queue_wait_s": queue_wait_s,
                "simulate_s": simulate_s,
                "store_read_s": store_read_s,
                "store_write_s": store_write_s,
            }
        )

    def _notify(self, done: int, total: int, job: Job, source: str) -> None:
        """Fire the progress heartbeat, disarming it on the first
        exception: a broken user callback gets one warning, never a
        broken sweep."""
        if self.progress is None:
            return
        try:
            self.progress(done, total, job, source)
        except Exception as exc:
            self.progress = None
            if not self._progress_warned:
                self._progress_warned = True
                print(
                    "repro: progress callback raised "
                    f"{type(exc).__name__}: {exc} — heartbeat disabled "
                    "for the rest of the sweep",
                    file=sys.stderr,
                )

    def _failure(
        self, job: Job, attempts: int, kind: str, error: str, traceback: str
    ) -> JobFailure:
        return JobFailure(
            key=repr(job.key),
            app=job.app,
            scale=job.scale,
            engine=job.config.engine,
            protocol=job.config.protocol,
            kind=kind,
            attempts=attempts,
            error=error,
            traceback=traceback,
            config=config_to_dict(job.config),
        )

    # -- execution -----------------------------------------------------

    def missing(self, jobs: Sequence[Job]) -> List[Job]:
        """The deduplicated subset of ``jobs`` that will actually be
        simulated by :meth:`run` (cache and store cannot satisfy them).

        Store hits are promoted into the in-memory cache along the way,
        so a following :meth:`run` does no duplicate store I/O.  Lets
        callers warm expensive per-job inputs (compiled programs) only
        for work that is really pending.
        """
        pending: List[Job] = []
        seen = set()
        for job in jobs:
            if job.key in seen:
                continue
            seen.add(job.key)
            if repr(job.key) in self._failed:
                continue
            if self._lookup(job) is None:
                pending.append(job)
        return pending

    def run(self, jobs: Sequence[Job]) -> List[SimulationResult]:
        """Run every job, reusing cache/store; results in input order.

        Duplicate jobs (same :func:`run_key`) are simulated once.
        Pending simulations are dispatched in deterministic first-seen
        order and handled (stored, heartbeat) as each completes, so a
        parallel run observes exactly the serial schedule's job list
        and produces bit-identical results.

        Raises :class:`SweepFailure` if any job permanently failed —
        immediately under ``retry.fail_fast``, otherwise after every
        other job completed (partial results stay cached/stored and
        the failures are recorded on :attr:`failures`).
        """
        unique: Dict[Tuple, Job] = {}
        for job in jobs:
            unique.setdefault(job.key, job)
        total = len(unique)
        done = 0

        resolved: Dict[Tuple, SimulationResult] = {}
        failed_now: List[JobFailure] = []
        pending: List[Job] = []
        for key, job in unique.items():
            prior = self._failed.get(repr(key))
            if prior is not None:
                # Known-failed this session: report, never re-simulate.
                failed_now.append(prior)
                done += 1
                self._notify(done, total, job, "failed")
                continue
            was_cached = self.cache.get(key) is not None
            read_before = self.store_read_seconds
            result = self._lookup(job)
            if result is None:
                pending.append(job)
            else:
                resolved[key] = result
                done += 1
                source = "cache" if was_cached else "store"
                self._profile(
                    job, source,
                    store_read_s=self.store_read_seconds - read_before,
                )
                self._notify(done, total, job, source)

        if pending:
            outcomes = self._execute(pending)
            try:
                for job, outcome in outcomes:
                    done += 1
                    if outcome[0] == "ok":
                        _, result, simulate_s, queue_wait_s = outcome
                        write_before = self.store_write_seconds
                        self._insert(job, result)
                        resolved[job.key] = result
                        self._profile(
                            job, "simulated",
                            queue_wait_s=queue_wait_s,
                            simulate_s=simulate_s,
                            store_write_s=self.store_write_seconds - write_before,
                        )
                        self._notify(done, total, job, "simulated")
                    else:
                        failure = outcome[1]
                        self._failed[failure.key] = failure
                        self.failures.append(failure)
                        failed_now.append(failure)
                        self._profile(job, "failed")
                        self._notify(done, total, job, "failed")
                        if self.retry.fail_fast:
                            raise SweepFailure(failed_now)
            finally:
                outcomes.close()

        if failed_now:
            raise SweepFailure(failed_now)
        return [resolved[job.key] for job in jobs]

    def _execute(self, pending: Sequence[Job]) -> Iterator[Tuple[Job, Tuple]]:
        """Yield ``(job, outcome)`` per pending job as each resolves
        (completion order), where ``outcome`` is
        ``("ok", result, simulate_s, queue_wait_s)`` or
        ``("failed", JobFailure)``.

        The in-process serial path is used only when it can honor the
        policy: a ``job_timeout`` needs a preemptible worker, so it
        forces the supervised pool even with one worker / one job.
        """
        serial = (
            self.workers == 1 or len(pending) == 1
        ) and self.retry.job_timeout is None
        if serial:
            return self._execute_serial(pending)
        return self._execute_pool(pending)

    def _execute_serial(self, pending: Sequence[Job]) -> Iterator[Tuple[Job, Tuple]]:
        policy = self.retry
        spec = injection.active_spec()
        for index, job in enumerate(pending):
            attempt = 0
            while True:
                attempt += 1
                envelope = _attempt_inline(job, index, attempt, spec)
                if envelope[0]:
                    _, result, simulate_s, queue_wait_s = envelope
                    yield job, ("ok", result, simulate_s, queue_wait_s)
                    break
                kind, error, tb = envelope[1]
                if kind == "crash" and attempt < policy.max_attempts:
                    delay = backoff_delay(policy, job.key, attempt)
                    if delay:
                        time.sleep(delay)
                    continue
                yield job, ("failed", self._failure(job, attempt, kind, error, tb))
                break

    def _execute_pool(self, pending: Sequence[Job]) -> Iterator[Tuple[Job, Tuple]]:
        """The supervised dispatch loop.

        Each pending job is submitted through ``apply_async`` with a
        per-job deadline; the supervisor polls completions, retries
        crashed jobs after their deterministic backoff, and reaps hung
        workers by recycling the entire pool (a stuck worker cannot be
        preempted individually).  In-flight bystanders of a recycle are
        re-dispatched without being charged an attempt.

        One caveat the envelope cannot cover: a worker killed from
        *outside* (SIGKILL, the OOM killer) loses its task silently —
        ``multiprocessing.Pool`` respawns the process but not the job —
        so only a ``job_timeout`` bounds that case.
        """
        policy = self.retry
        size = max(1, min(self.workers, len(pending)))
        spec = injection.active_spec()
        queue = deque(enumerate(pending))
        attempts: Dict[int, int] = {}
        ready_at: Dict[int, float] = {}
        payloads: Dict[int, Tuple] = {}
        inflight: Dict[int, Tuple[Job, Any, Optional[float]]] = {}
        pool = multiprocessing.Pool(processes=size)
        try:
            while queue or inflight:
                now = time.monotonic()
                # Fill free slots with dispatchable (not backoff-gated)
                # jobs, preserving deterministic first-seen order.
                for _ in range(len(queue)):
                    if len(inflight) >= size:
                        break
                    index, job = queue.popleft()
                    if ready_at.get(index, 0.0) > now:
                        queue.append((index, job))
                        continue
                    attempt = attempts.get(index, 0) + 1
                    attempts[index] = attempt
                    base = payloads.get(index)
                    if base is None:
                        base = _job_payload(job)
                        payloads[index] = base
                    payload = base + (time.time(), spec, job.app, index, attempt)
                    deadline = (
                        now + policy.job_timeout
                        if policy.job_timeout is not None
                        else None
                    )
                    inflight[index] = (
                        job,
                        pool.apply_async(_run_supervised, (payload,)),
                        deadline,
                    )

                # Reap completions (the envelope means get() never
                # raises worker exceptions; anything it does raise is
                # pool plumbing, treated as a crash of that job).
                progressed = False
                for index, (job, handle, _) in list(inflight.items()):
                    if not handle.ready():
                        continue
                    del inflight[index]
                    progressed = True
                    try:
                        envelope = handle.get()
                    except Exception as exc:
                        envelope = (
                            False,
                            ("crash", f"{type(exc).__name__}: {exc}", ""),
                            0.0,
                            0.0,
                        )
                    if envelope[0]:
                        _, result, simulate_s, queue_wait_s = envelope
                        yield job, ("ok", result, simulate_s, queue_wait_s)
                        continue
                    kind, error, tb = envelope[1]
                    if kind == "crash" and attempts[index] < policy.max_attempts:
                        ready_at[index] = time.monotonic() + backoff_delay(
                            policy, job.key, attempts[index]
                        )
                        queue.append((index, job))
                    else:
                        yield job, (
                            "failed",
                            self._failure(job, attempts[index], kind, error, tb),
                        )

                # Reap hung workers: any in-flight job past its
                # deadline costs the whole pool (there is no telling
                # which worker process is the stuck one), so terminate
                # and rebuild it.  The hung job is charged an attempt;
                # innocent in-flight bystanders are not.
                now = time.monotonic()
                expired = [
                    index
                    for index, (_, handle, deadline) in inflight.items()
                    if deadline is not None and now >= deadline and not handle.ready()
                ]
                if expired:
                    pool.terminate()
                    pool.join()
                    pool = multiprocessing.Pool(processes=size)
                    progressed = True
                    for index, (job, _, _) in list(inflight.items()):
                        del inflight[index]
                        if index in expired:
                            if attempts[index] < policy.max_attempts:
                                ready_at[index] = time.monotonic() + backoff_delay(
                                    policy, job.key, attempts[index]
                                )
                                queue.append((index, job))
                            else:
                                assert policy.job_timeout is not None
                                yield job, (
                                    "failed",
                                    self._failure(
                                        job,
                                        attempts[index],
                                        "timeout",
                                        "job exceeded --job-timeout "
                                        f"({policy.job_timeout:g}s); "
                                        "worker pool recycled",
                                        "",
                                    ),
                                )
                        else:
                            attempts[index] -= 1
                            queue.append((index, job))

                if not progressed:
                    time.sleep(_POLL_INTERVAL_S)
        finally:
            pool.terminate()
            pool.join()

    def run_app(
        self, app: str, config: SystemConfig, scale: float = 1.0
    ) -> SimulationResult:
        """One job through the same cache/store layers (serial path).

        After :meth:`run` has warmed the executor with a module's job
        set, this is a pure in-memory lookup.  A key this executor has
        already recorded as permanently failed raises
        :class:`SweepFailure` instead of re-simulating it.
        """
        job = Job(app=app, config=config, scale=scale)
        prior = self._failed.get(repr(job.key))
        if prior is not None:
            raise SweepFailure([prior])
        result = self._lookup(job)
        if result is None:
            t0 = time.perf_counter()
            result = _simulate_job(job)
            simulate_s = time.perf_counter() - t0
            write_before = self.store_write_seconds
            self._insert(job, result)
            self._profile(
                job, "simulated",
                simulate_s=simulate_s,
                store_write_s=self.store_write_seconds - write_before,
            )
        return result

    def write_manifest(
        self, jobs: Sequence[Job], extra: Optional[Dict[str, Any]] = None
    ) -> Optional[Path]:
        """Write ``run_manifest.json`` next to the store's results.

        Records what this sweep was (job/app/engine/protocol sets),
        where it ran (provenance: git describe, host, interpreter, and
        whether the run-ahead engine's compiled core was active, with
        its source hash — provenance only, never part of a job key), how
        (workers, retry policy, store schema version), and what *did
        not* survive — the ``failures`` section carries one replayable
        record per permanently failed job, which ``reproduce --resume``
        re-runs.  Returns the manifest path, or None when there is no
        store.
        """
        if self.store is None:
            return None
        from repro.obs.provenance import provenance_block

        manifest: Dict[str, Any] = {
            "schema_version": self.store.schema_version,
            "provenance": provenance_block(),
            "workers": self.workers,
            "retry_policy": {
                "retries": self.retry.retries,
                "job_timeout": self.retry.job_timeout,
                "backoff": self.retry.backoff,
                "fail_fast": self.retry.fail_fast,
            },
            "jobs": len(jobs),
            "unique_jobs": len({job.key for job in jobs}),
            "apps": sorted({job.app for job in jobs}),
            "engines": sorted({job.config.engine for job in jobs}),
            "protocols": sorted({job.config.protocol for job in jobs}),
            "scales": sorted({job.scale for job in jobs}),
            "failures": [f.to_json_dict() for f in self.failures],
        }
        if extra:
            manifest.update(extra)
        return self.store.write_manifest_payload(manifest)


def ensure_executor(
    executor: Optional[Executor] = None, cache: Optional[ResultCache] = None
) -> Executor:
    """Resolve the executor a compute function should use.

    Experiment modules accept either a full ``executor`` or (for
    backward compatibility) a bare ``cache``; with neither, they share
    the process-wide default cache through a serial executor.
    """
    if executor is not None:
        return executor
    return Executor(workers=1, cache=cache if cache is not None else default_cache())
