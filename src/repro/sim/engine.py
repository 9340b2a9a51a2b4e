"""Trace-driven simulation engine.

Drives one trace per processor through the machine model:

- per-processor clocks advanced through a min-heap scheduler with a
  *run-ahead* inner loop (see below);
- an L1 fast path (hits are the overwhelming majority of references);
- a full miss path implementing the intra-node MOESI snoop, the three
  remote-caching strategies (block cache / page cache / local memory),
  the inter-node directory protocol with refetch detection, and the OS
  services (faults, allocation, replacement, relocation);
- busy-until contention for the node bus, network interfaces, home
  protocol controllers, and (on non-uniform topologies) the fabric
  links along each message's precomputed route;
- global barriers.

The loop and the miss path run in the compiled core
(:mod:`repro.sim.native`, ``sim/_core.c``) on this engine's own
objects; this class builds and wires the machine, and settles the
counters the loop defers.  The core calls back into the canonical
Python methods for everything it does not transcribe: the OS and
policy services, page-cache and tag methods, the directory requests of
inexact or wider-than-63-node directories, the network's routed
traversal, and :meth:`SimulationEngine._block_cache_install` for
dict-backed block caches.  Without a C compiler there is no run-ahead
loop; :func:`repro.sim.factory.make_engine` then builds the
bit-identical :class:`~repro.sim.reference.ReferenceEngine` instead.

Run-ahead scheduling
--------------------

The classic loop pays one heap pop and push per memory reference.  The
run-ahead loop instead *drains* a processor after popping it: it keeps
executing that CPU's references for as long as the CPU's next event,
ordered as the tuple ``(time, cpu)``, would sort before the current
heap head — i.e. for as long as the classic loop would have popped this
CPU right back.  No other processor may act before the heap head, so
the drained schedule is *exactly* the heap schedule (ties included:
tuple order breaks them by CPU id in both).  The drain crosses misses
too — a miss just advances the CPU's clock further — and stops only at
a barrier, at end-of-trace, or when another CPU's event comes first.
L1 hit and busy counters are settled analytically after the run
(:meth:`SimulationEngine._settle`).  See docs/architecture.md
("Scheduler") for the invariant written out.

Traces are consumed in their packed columnar form (one ``array('q')``
of 64-bit words per CPU, see :mod:`repro.common.records`).  Legacy
Access/Barrier object sequences are packed (and barrier-validated) once
at engine construction; barrier validation of raw columns is memoized
across runs (:func:`repro.common.records.ensure_barriers_validated`),
so replaying one program across the four protocols of a sweep
validates once.

Timing constants come from :class:`repro.common.params.CostParams`
(the paper's Table 2).

:class:`repro.sim.reference.ReferenceEngine` retains the classic
one-event-per-reference loop *and* the pre-columnar set/dict/object
structures (:mod:`repro.sim.legacy`) as the differential-testing
oracle.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.caches.l1 import EMPTY as L1_EMPTY
from repro.coherence.directory import Directory
from repro.coherence.states import INVALID
from repro.common.errors import ConfigurationError, TraceError
from repro.common.params import SystemConfig
from repro.common.records import (
    as_columns,
    column_profile,
    ensure_barriers_validated,
)
from repro.machine.machine import Machine
from repro.machine.node import Node
from repro.osint.placement import first_touch_homes, resolve_home
from repro.protocols import make_policy
from repro.sim import native
from repro.sim.results import SimulationResult


class SimulationEngine:
    """One simulation run: a machine, a policy, and a set of traces.

    ``traces`` may be a :class:`~repro.workloads.compile.CompiledProgram`
    (its columns are consumed directly and its memoized first-touch map
    is reused), a sequence of packed columns/TraceViews, or legacy
    per-CPU Access/Barrier sequences.

    After :meth:`run`, ``sched_stats`` holds scheduler-level counters
    (references executed, heap pops/pushes, drain count); the tests
    check them against the trace and the engine benchmark reads its
    reference count from them.
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Sequence[object]],
        homes: Optional[Dict[int, int]] = None,
    ) -> None:
        self.config = config
        self.machine = Machine(config)
        self.policy = make_policy(config.protocol, config)
        self._columns, _ = as_columns(traces)
        if len(self._columns) != config.machine.total_cpus:
            raise TraceError(
                f"expected {config.machine.total_cpus} traces, "
                f"got {len(self._columns)}"
            )
        if getattr(traces, "barrier_ids", None) is None:
            # Compiled programs were barrier-validated at construction;
            # everything else (object traces, raw columns, views) is
            # checked here — memoized, so a sweep replaying the same
            # columns across protocols scans them once — because a
            # mismatch must fail fast, not as a deadlock.
            ensure_barriers_validated(self._columns)
        space = config.space
        if homes is None:
            cached = getattr(traces, "first_touch_homes", None)
            if cached is not None:
                # Compiled programs memoize placement across protocols;
                # copy because the engine adds late first-touches.
                homes = dict(cached(config.machine, space))
            else:
                homes = first_touch_homes(self._columns, config.machine, space)
        self.homes = homes

        # Pre-map every page at its home node.
        for page, home in homes.items():
            self.machine.nodes[home].page_table.map_local(page)

        # Per-CPU wiring.
        mp = config.machine
        self._node_of_cpu = [mp.node_of_cpu(c) for c in range(mp.total_cpus)]
        self._l1_of_cpu = []
        self._cpu_slot = []  # index of the cpu within its node
        for c in range(mp.total_cpus):
            node = self.machine.nodes[self._node_of_cpu[c]]
            slot = c % mp.cpus_per_node
            self._l1_of_cpu.append(node.l1s[slot])
            self._cpu_slot.append(slot)

        self._block_shift = space.block_shift
        self._block_page_shift = space.page_shift - space.block_shift
        self._bpp_mask = space.blocks_per_page - 1

        # Read by the compiled core (repro.sim.native), which transcribes
        # the full-map directory requests and the uniform-fabric round
        # trip onto these columns and constants.  Inexact directory
        # representations (limited-pointer / coarse-vector) carry extra
        # per-slot state, so the core routes their mutating requests
        # through the canonical methods (``_dir_inline`` false), as it
        # does on machines whose sharer masks outgrow an int64.  All
        # keep their identity for the life of the machine (reset()
        # works in place).
        self._costs = config.costs
        self._directory = self.machine.directory
        self._network = self.machine.network
        self._nodes = self.machine.nodes
        self._dir_slots = self.machine.directory.slots
        self._dir_owners = self.machine.directory.owners
        self._dir_sharers = self.machine.directory.sharer_masks
        self._dir_held = self.machine.directory.held_masks
        self._dir_inline = type(self.machine.directory) is Directory
        self._uniform_net = not self.machine.network.links
        self._net_latency = self.machine.network.latency
        self._ni_occ = config.costs.ni_occupancy
        self._rad_occ = config.costs.rad_occupancy

        # Deferred source of the per-CPU (accesses, think_cycles, runs)
        # profile: run() accounts l1_hits and busy_cycles analytically
        # instead of per reference (every access of a completed run
        # executes exactly once and contributes think+1 busy cycles,
        # hit or miss).  Compiled programs memoize the scan across the
        # protocols of a sweep; for raw columns it runs lazily, only
        # for the engine that needs it (the reference loop does not).
        self._profile_fn = getattr(traces, "per_cpu_profile", None)

        #: Scheduler counters, populated by :meth:`run`.
        self.sched_stats: Dict[str, int] = {}

    def _cpu_profile(self):
        if self._profile_fn is not None:
            return self._profile_fn()
        return [column_profile(column) for column in self._columns]

    def reset(self) -> None:
        """Restore the engine (machine included) to its pre-run state.

        Back-to-back :meth:`run` calls on one engine then yield
        bit-identical results: every structure resets in place and the
        home pre-mapping is reapplied.  Pages first-touched *during* a
        previous run are pre-mapped local at their (local) home, which
        is indistinguishable from the lazy mapping the first run
        performed — the unmapped->local transition charges nothing.
        """
        self.machine.reset()
        for page, home in self.homes.items():
            self.machine.nodes[home].page_table.map_local(page)
        self.sched_stats = {}

    def run(self, observer=None) -> SimulationResult:
        """Run every trace to completion in the compiled core.

        ``observer`` (see :mod:`repro.obs.attach`) is called as
        ``before_miss(nid)`` and ``after_miss(cpu, nid, block, write,
        now, latency)`` around every L1 miss, with the machine's
        counters live; it must not change simulator state.
        """
        core = native.core()
        if core is None:
            raise ConfigurationError(
                "the run-ahead engine needs its compiled core, which is "
                f"unavailable ({native.status()})"
            )
        return self._settle(*core.run(self, resolve_home, observer))

    def _settle(
        self,
        finish,
        misses_acc,
        stall_acc,
        yields,
        rare_pops,
        barrier_pushes,
        barrier_arrivals,
    ) -> SimulationResult:
        """Settle the deferred counters of a drained run and build the
        result."""
        node_of = self._node_of_cpu
        n_cpus = len(self._columns)
        n_nodes = len(self.machine.nodes)
        if barrier_arrivals:
            waiting = sorted(barrier_arrivals)
            raise TraceError(
                f"deadlock: barriers {waiting[:4]} never completed "
                "(some trace ended before reaching them)"
            )

        # Settle the deferred counters: hits = accesses - misses, and
        # every access contributed think+1 busy cycles, hit or miss —
        # both schedule-independent, both per node.
        access_acc = [0] * n_nodes
        busy_acc = [0] * n_nodes
        for c, (accesses, think, _runs) in enumerate(self._cpu_profile()):
            access_acc[node_of[c]] += accesses
            busy_acc[node_of[c]] += accesses + think
        machine = self.machine
        for nid in range(n_nodes):
            ns = machine.nodes[nid].stats
            ns.l1_hits += access_acc[nid] - misses_acc[nid]
            ns.l1_misses += misses_acc[nid]
            ns.busy_cycles += busy_acc[nid]
            ns.stall_cycles += stall_acc[nid]

        self.sched_stats = {
            "refs": sum(access_acc),
            "heap_pops": yields + rare_pops,
            "heap_pushes": yields + barrier_pushes,
            "drains": yields + rare_pops + (1 if n_cpus else 0),
        }
        return SimulationResult(
            config=self.config,
            exec_cycles=max(finish) if finish else 0,
            cpu_finish_times=finish,
            stats=machine.stats,
            refetch_counts=machine.refetch_counts,
            rw_shared_pages=frozenset(machine.read_write_shared_pages()),
            remote_pages_touched=len(machine.page_requesters),
        )

    def _block_cache_install(self, node: Node, b: int, g: int, writable: bool, now: int) -> None:
        """Install a freshly fetched block, evicting as needed.

        Evicting a writable (possibly dirty) frame forces the L1
        copies out (inclusion) and notifies the home via a write-back;
        read-only frames are dropped silently and L1 copies survive
        (relaxed inclusion, paper Section 4).
        """
        bc = node.block_cache
        victim = bc.victim_probe(b)
        if victim >= 0 and victim & 1:
            vb = victim >> 1
            for lmask, lblocks, lstates in node.l1_arrays:
                idx = vb & lmask
                if lblocks[idx] == vb:
                    lblocks[idx] = L1_EMPTY
                    lstates[idx] = INVALID
            self._directory.writeback(vb, node.node_id)
            vg = vb >> self._block_page_shift
            self._network.one_way_delay(
                node.node_id, now, dst=self.homes.get(vg, node.node_id)
            )
            node.stats.block_cache_writebacks += 1
        bc.fill(b, writable)


def simulate(
    config: SystemConfig,
    traces: Sequence[Sequence[object]],
    homes: Optional[Dict[int, int]] = None,
) -> SimulationResult:
    """Build the engine ``config.engine`` selects, run it, and return
    the result (:func:`repro.sim.factory.simulate_with`)."""
    from repro.sim.factory import simulate_with

    return simulate_with(config, traces, homes)
