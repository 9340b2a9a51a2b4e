"""CC-NUMA remote block cache (the paper's "cluster cache").

A direct-mapped, write-back SRAM cache holding *remote* blocks only
(paper, Section 2.1).  It acts as another level of the node's cache
hierarchy behind the four processor caches.

Inclusion policy (paper, Section 4): the block cache maintains inclusion
with the processor caches for blocks held **read-write** but not for
blocks held read-only.  Evicting a dirty/exclusive frame therefore forces
the L1 copies out (the engine performs that), while evicting a read-only
frame leaves any L1 copies in place.

State layout
------------

Line metadata lives in two preallocated columns indexed by frame:
``block_at`` is an ``array('q')`` of resident block numbers
(:data:`EMPTY` = −1 marks a free frame) and ``writable_at`` a parallel
``bytearray`` flag.  There is no separate dirty flag: a line is only
ever dirty while it is writable (a write takes write permission, and a
downgrade or invalidation clears both), so every "writable or dirty"
test — the one that decides a write-back on eviction — is
``writable``.  The miss path talks to the cache through int-returning
probes (:meth:`probe`, :meth:`victim_probe`, :meth:`invalidate_probe`)
that never allocate; the object-returning methods (:meth:`lookup`,
:meth:`insert`, …) remain for cold paths and tests and return
**snapshots** — mutating a returned line does not write through.

A ``num_blocks`` of 0 models a machine with no block cache; a very large
value models the paper's "infinite block cache" normalization baseline
(``infinite`` keeps a dict of writable flags, since its frame space is
unbounded).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError

#: Sentinel in ``block_at`` for a frame with no resident line.
EMPTY = -1


class BlockCacheLine:
    """Read-only snapshot of one frame's metadata (cold paths only)."""

    __slots__ = ("block", "writable")

    def __init__(self, block: int, writable: bool) -> None:
        self.block = block
        self.writable = writable


class BlockCache:
    """Direct-mapped write-back cache indexed by block number.

    ``num_blocks`` may be any non-negative count; a non-power-of-two is
    rejected (the real device indexes with address bits).  ``infinite``
    builds the ideal-machine variant with no evictions.
    """

    __slots__ = (
        "num_blocks",
        "mask",
        "_infinite",
        "block_at",
        "writable_at",
        "_inf_flags",
    )

    def __init__(self, num_blocks: int, infinite: bool = False) -> None:
        if num_blocks < 0:
            raise ConfigurationError("num_blocks must be >= 0")
        if not infinite and num_blocks and (num_blocks & (num_blocks - 1)) != 0:
            raise ConfigurationError(
                f"block cache size must be a power of two blocks, got {num_blocks}"
            )
        self.num_blocks = num_blocks
        self.mask = num_blocks - 1 if num_blocks else 0
        self._infinite = infinite
        frames = 0 if infinite else num_blocks
        self.block_at: array = array("q", [EMPTY]) * frames
        self.writable_at: bytearray = bytearray(frames)
        # Infinite variant: block -> writable flag (0 or 1).
        self._inf_flags: Dict[int, int] = {}

    @classmethod
    def infinite_cache(cls) -> "BlockCache":
        """The ideal CC-NUMA block cache: holds everything, never evicts."""
        return cls(num_blocks=1, infinite=True)

    @property
    def is_infinite(self) -> bool:
        return self._infinite

    def reset(self) -> None:
        """Drop every line (fresh-machine state for a re-run)."""
        n = len(self.block_at)
        if n:
            self.block_at[:] = array("q", [EMPTY]) * n
            self.writable_at[:] = bytes(n)
        self._inf_flags.clear()

    # ------------------------------------------------------------------
    # packed-int probes (the miss path; never allocate)
    # ------------------------------------------------------------------

    def probe(self, block: int) -> int:
        """Writable flag (0 or 1) of the resident line for ``block``, or
        −1 on a miss."""
        if self._infinite:
            return self._inf_flags.get(block, -1)
        if self.num_blocks == 0:
            return -1
        idx = block & self.mask
        if self.block_at[idx] != block:
            return -1
        return self.writable_at[idx]

    def victim_probe(self, block: int) -> int:
        """Line that inserting ``block`` would displace, packed as
        ``resident_block << 1 | writable`` (−1 if free)."""
        if self._infinite or self.num_blocks == 0:
            return -1
        idx = block & self.mask
        resident = self.block_at[idx]
        if resident == EMPTY or resident == block:
            return -1
        return (resident << 1) | self.writable_at[idx]

    def fill(self, block: int, writable: bool) -> None:
        """Install ``block`` clean, overwriting the frame.

        The caller handles the displaced line first (via
        :meth:`victim_probe`).  With ``num_blocks == 0`` the fill is a
        no-op (the machine has nowhere to put remote blocks and every
        access refetches).
        """
        if self._infinite:
            self._inf_flags[block] = 1 if writable else 0
            return
        if self.num_blocks == 0:
            return
        idx = block & self.mask
        self.block_at[idx] = block
        self.writable_at[idx] = 1 if writable else 0

    def invalidate_probe(self, block: int) -> int:
        """Drop ``block``; returns its writable flag (−1 if absent)."""
        if self._infinite:
            return self._inf_flags.pop(block, -1)
        if self.num_blocks == 0:
            return -1
        idx = block & self.mask
        if self.block_at[idx] != block:
            return -1
        flags = self.writable_at[idx]
        self.block_at[idx] = EMPTY
        self.writable_at[idx] = 0
        return flags

    def mark_dirty(self, block: int) -> bool:
        """A resident line was written: it becomes writable (a dirty
        line is always writable).  True if present."""
        if self._infinite:
            if block in self._inf_flags:
                self._inf_flags[block] = 1
                return True
            return False
        if self.num_blocks == 0:
            return False
        idx = block & self.mask
        if self.block_at[idx] != block:
            return False
        self.writable_at[idx] = 1
        return True

    def downgrade(self, block: int) -> None:
        """Resident line becomes clean and read-only (owner downgrade)."""
        if self._infinite:
            if block in self._inf_flags:
                self._inf_flags[block] = 0
            return
        if self.num_blocks == 0:
            return
        idx = block & self.mask
        if self.block_at[idx] == block:
            self.writable_at[idx] = 0

    # ------------------------------------------------------------------
    # snapshot API (cold paths, OS services, tests)
    # ------------------------------------------------------------------

    def lookup(self, block: int) -> Optional[BlockCacheLine]:
        """Snapshot of the resident line for ``block`` (None on a miss)."""
        flags = self.probe(block)
        if flags < 0:
            return None
        return BlockCacheLine(block, bool(flags))

    def victim_for(self, block: int) -> Optional[BlockCacheLine]:
        """Snapshot of the line inserting ``block`` would displace."""
        packed = self.victim_probe(block)
        if packed < 0:
            return None
        return BlockCacheLine(packed >> 1, bool(packed & 1))

    def insert(self, block: int, writable: bool) -> Optional[BlockCacheLine]:
        """Install ``block``; returns a snapshot of the displaced line."""
        victim = self.victim_for(block)
        self.fill(block, writable)
        return victim

    def invalidate(self, block: int) -> Optional[BlockCacheLine]:
        """Drop ``block``; returns a snapshot of the dropped line."""
        flags = self.invalidate_probe(block)
        if flags < 0:
            return None
        return BlockCacheLine(block, bool(flags))

    def resident_blocks(self) -> List[int]:
        if self._infinite:
            return list(self._inf_flags)
        return [b for b in self.block_at if b != EMPTY]

    def lines_of_page(self, page_blocks) -> List[BlockCacheLine]:
        """Snapshots of resident lines whose block falls in ``page_blocks``."""
        hits = []
        for b in page_blocks:
            line = self.lookup(b)
            if line is not None:
                hits.append(line)
        return hits

    def __len__(self) -> int:
        if self._infinite:
            return len(self._inf_flags)
        n = len(self.block_at)
        return n - self.block_at.count(EMPTY) if n else 0
