"""radix: parallel integer radix sort (SPLASH-2).

Paper input: 1M integers, radix 1024.  Scaled: 128K integers, radix 256,
one digit pass (the paper's key/page-cache *ratio* is what matters: the
permutation's footprint per node must exceed the page-cache frames).

Sharing behaviour preserved: the permutation (scatter) phase is an
all-to-all in which every processor "marches through a large number of
remote pages writing a small number of blocks" (paper, Section 5.1) —
capacity misses are spread almost uniformly across pages (the flat radix
curve in Figure 5), so R-NUMA's per-page counters sit right at the
threshold and the page cache could not hold the pages anyway.  The
destination array alone spans ~112 remote pages per node versus 80
page-cache frames, so pure S-COMA takes an allocation storm and loses to
CC-NUMA by a large factor (Figure 6).
"""

from __future__ import annotations

from repro.common.addressing import AddressSpace
from repro.common.params import MachineParams
from repro.workloads.base import Program, TraceBuilder, scaled
from repro.workloads.layout import Layout

KEY_BYTES = 4
RADIX = 256

PAPER_INPUT = "1M integers, radix 1024"


def build(
    machine: MachineParams,
    space: AddressSpace,
    scale: float = 1.0,
    seed: int = 99,
) -> Program:
    # Deferred to keep the NumPy import off start-up for commands that
    # never build radix; only *generating* this trace needs NumPy — the
    # key digits and the stable rank permutation are pinned to its
    # seeded RNG and argsort, so swapping in the stdlib would silently
    # change every frozen radix result.
    import numpy as np

    cpus = machine.total_cpus
    n = scaled(100352, scale, cpus * 512)
    n -= n % cpus
    per_cpu = n // cpus
    keys_per_block = space.block_size // KEY_BYTES

    rng = np.random.default_rng(seed)
    digits = rng.integers(0, RADIX, size=n, dtype=np.int64)

    layout = Layout(space)
    src = layout.region("keys", n * KEY_BYTES)
    dst = layout.region("sorted", n * KEY_BYTES)
    hist = layout.region("histogram", cpus * RADIX * KEY_BYTES)
    tb = TraceBuilder(machine)

    for cpu in range(cpus):
        lo = cpu * per_cpu
        for region in (src, dst):
            tb.first_touch(
                cpu,
                (
                    region.addr(i * KEY_BYTES)
                    for i in range(lo, lo + per_cpu, keys_per_block)
                ),
            )
        tb.first_touch(cpu, [hist.addr(cpu * RADIX * KEY_BYTES)])
    tb.barrier()

    # Histogram: each CPU scans its own keys, writes its own slice.
    for cpu in range(cpus):
        lo = cpu * per_cpu
        for i in range(lo, lo + per_cpu, keys_per_block):
            tb.read(cpu, src.addr(i * KEY_BYTES), think=3)
        base = cpu * RADIX * KEY_BYTES
        for off in range(0, RADIX * KEY_BYTES, space.block_size):
            tb.write(cpu, hist.addr(base + off), think=2)
    tb.barrier()

    # Prefix: every CPU reads every other CPU's histogram slice.
    for cpu in range(cpus):
        for other in range(cpus):
            base = other * RADIX * KEY_BYTES
            for off in range(0, RADIX * KEY_BYTES, space.block_size * 4):
                tb.read(cpu, hist.addr(base + off), think=2)
    tb.barrier()

    # Stable global ranks: bucket-major, then source order.
    ranks = np.empty(n, dtype=np.int64)
    sort_idx = np.argsort(digits, kind="stable")
    ranks[sort_idx] = np.arange(n)

    # Permutation: sequential source reads, scattered remote writes.
    for cpu in range(cpus):
        lo = cpu * per_cpu
        last_block = -1
        for i in range(lo, lo + per_cpu):
            blk = i // keys_per_block
            if blk != last_block:
                tb.read(cpu, src.addr(blk * space.block_size), think=2)
                last_block = blk
            tb.write(cpu, dst.addr(int(ranks[i]) * KEY_BYTES), think=2)
    tb.barrier()

    return tb.build(
        "radix",
        description="radix sort: histogram, prefix, all-to-all permutation",
        paper_input=PAPER_INPUT,
        scaled_input=f"{n} integers, radix {RADIX}, 1 pass",
        keys=n,
    )
