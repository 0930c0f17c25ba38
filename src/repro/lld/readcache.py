"""LD-level LRU block cache for the vectored read path.

This is a deliberate deviation from the paper: the paper's LLD served every
read with one disk request and had no read cache of its own (§4.1 even
disables MINIX read-ahead). The cache stores *logical* (decompressed) block
contents keyed by block number, bounded in bytes, evicting least-recently
used entries.

Correctness depends entirely on the owner invalidating entries whenever a
block's contents or location change. :class:`~repro.lld.lld.LLD` hooks the
single point every ``BLOCK`` / ``BLOCK_DEAD`` record passes through
(``_log_record``), which covers writes, deletes, ``swap_contents``, segment
cleaning, and both reorganizers — so a cached block can never serve stale
bytes. Out-of-band mutation of the raw disk (``SimulatedDisk.corrupt``,
used by fault-injection tests) bypasses the LD and is intentionally not
covered, exactly like a real controller cache in front of failing media.

The cache also tracks read-ahead bookkeeping: entries inserted with
``prefetched=True`` count as issued, flip to *used* on their first hit, and
count as *wasted* if evicted or invalidated before ever being read.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import Counters


@dataclass(slots=True)
class ReadCacheCounters(Counters):
    """What a :class:`ReadCache` counts, declared once.

    :class:`~repro.lld.lld.LLD` passes its ``LLDStats``, which inherits
    these fields, so the figures land beside the LD's own.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    cache_inserts: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    prefetch_issued: int = 0
    prefetch_used: int = 0
    prefetch_wasted: int = 0


class _Entry:
    __slots__ = ("data", "prefetched", "at")

    def __init__(self, data: bytes, prefetched: bool, at: float) -> None:
        self.data = data
        self.prefetched = prefetched
        self.at = at


class ReadCache:
    """A strictly byte-bounded LRU map of block number -> block contents."""

    def __init__(self, capacity_bytes: int, counters: ReadCacheCounters) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"cache capacity must be non-negative: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.counters = counters
        self._entries: OrderedDict[int, _Entry] = OrderedDict()
        self._bytes = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, bid: int) -> bytes | None:
        """The cached contents of ``bid`` (refreshing LRU), or None."""
        entry = self._entries.get(bid)
        if entry is None:
            self.counters.cache_misses += 1
            return None
        self._entries.move_to_end(bid)
        self.counters.cache_hits += 1
        if entry.prefetched:
            entry.prefetched = False
            self.counters.prefetch_used += 1
        return entry.data

    def arrival(self, bid: int) -> float:
        """When the cached bytes of ``bid`` are in hand: the arrival time
        :meth:`put` was given (0.0 when absent). No LRU or counter effects."""
        entry = self._entries.get(bid)
        return 0.0 if entry is None else entry.at

    def put(
        self, bid: int, data: bytes, prefetched: bool = False, at: float = 0.0
    ) -> bool:
        """Insert or replace ``bid``; returns False if the data cannot fit.

        ``at`` is when the bytes arrive — later than now for a fetch its
        caller did not wait for; a hit before then must wait too.
        An entry larger than the whole cache is rejected rather than
        evicting everything for a block that would be evicted next anyway.
        """
        if len(data) > self.capacity_bytes:
            return False
        old = self._entries.pop(bid, None)
        if old is not None:
            self._bytes -= len(old.data)
        self._entries[bid] = _Entry(bytes(data), prefetched, at)
        self._bytes += len(data)
        self.counters.cache_inserts += 1
        if prefetched:
            self.counters.prefetch_issued += 1
        while self._bytes > self.capacity_bytes:
            _evicted_bid, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted.data)
            self.counters.cache_evictions += 1
            if evicted.prefetched:
                self.counters.prefetch_wasted += 1
        return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, bid: int) -> bool:
        """Drop ``bid`` (its contents or location changed); True if present."""
        entry = self._entries.pop(bid, None)
        if entry is None:
            return False
        self._bytes -= len(entry.data)
        self.counters.cache_invalidations += 1
        if entry.prefetched:
            self.counters.prefetch_wasted += 1
        return True

    def clear(self) -> None:
        """Drop everything (startup / simulated crash); no counter churn."""
        self._entries.clear()
        self._bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, bid: int) -> bool:
        """Presence test with no LRU or counter side effects."""
        return bid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Bytes of block data currently held (always <= capacity)."""
        return self._bytes

    def __repr__(self) -> str:
        return (
            f"ReadCache({len(self._entries)} blocks, "
            f"{self._bytes}/{self.capacity_bytes} bytes)"
        )
