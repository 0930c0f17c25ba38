"""A write-back LRU buffer cache.

Both MINIX configurations in the paper used a static 6144 KB buffer cache;
reads are absorbed by it (the core assumption behind log-structured
storage), writes are collected and pushed to the backing store on eviction
and on ``sync``.

Buffers are immutable ``bytes``; a buffer only changes by being replaced.
That makes parsed forms of a buffer trivially coherent: :meth:`BufferCache.view`
memoises ``decode(buffer)`` next to the buffer, and the entry goes wherever
the buffer goes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable


class BufferCache:
    """LRU cache of variable-sized buffers keyed by integers.

    ``writeback`` is called with ``(key, data)`` when a dirty buffer is
    evicted or flushed. Keys are block handles (physical block numbers for
    the classic MINIX store, logical block numbers for the LD store).

    ``hits`` and ``misses`` count :meth:`get` lookups and nothing else: one
    per block a caller asked for. :meth:`put`, :meth:`peek`, :meth:`view`
    and ``in`` count nothing, so a store that fetches several missing
    blocks with one request (a ``get`` miss each, then a ``put`` each) or
    reads ahead (``in``, then ``put``) leaves the hit rate meaning what it
    always meant.
    """

    def __init__(self, capacity_bytes: int, writeback: Callable[[int, bytes], None]) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._writeback = writeback
        self._buffers: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()
        # key -> (decode, decode(buffer)) for resident buffers; see view().
        self._views: dict[int, tuple[Callable[[bytes], Any], Any]] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, key: int) -> bool:
        return key in self._buffers

    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def get(self, key: int) -> bytes | None:
        """Look up a buffer, refreshing its LRU position."""
        data = self._buffers.get(key)
        if data is None:
            self.misses += 1
            return None
        self._buffers.move_to_end(key)
        self.hits += 1
        return data

    def put(self, key: int, data: bytes, dirty: bool) -> None:
        """Insert or replace a buffer; evicts LRU buffers as needed."""
        old = self._buffers.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
            self._views.pop(key, None)
        self._buffers[key] = data
        self._bytes += len(data)
        if dirty:
            self._dirty.add(key)
        self._evict_as_needed()

    def _evict_as_needed(self) -> None:
        while self._bytes > self.capacity_bytes and len(self._buffers) > 1:
            key, data = self._buffers.popitem(last=False)
            self._bytes -= len(data)
            self._views.pop(key, None)
            self.evictions += 1
            if key in self._dirty:
                self._dirty.discard(key)
                self._writeback(key, data)

    def flush(self, keys: list[int] | None = None, ordered: bool = True) -> int:
        """Write back dirty buffers (all of them by default).

        ``ordered=True`` writes in ascending key order — the elevator-ish
        behaviour of a classic UNIX ``sync``. Returns buffers written.
        """
        targets = self._dirty if keys is None else (self._dirty & set(keys))
        order = sorted(targets) if ordered else list(targets)
        written = 0
        for key in order:
            if key not in self._dirty:
                continue  # a previous writeback already cleaned it (clustering)
            self._dirty.discard(key)
            self._writeback(key, self._buffers[key])
            written += 1
        return written

    def drop(self) -> None:
        """Flush, then empty the cache entirely (benchmark phase boundary)."""
        self.flush()
        self._buffers.clear()
        self._dirty.clear()
        self._views.clear()
        self._bytes = 0

    def peek(self, key: int) -> bytes | None:
        """Look up a buffer without touching its LRU position."""
        return self._buffers.get(key)

    def view(self, key: int, decode: Callable[[bytes], Any]) -> Any:
        """``decode(buffer)`` for a resident buffer, computed once per buffer.

        The result is memoised beside the buffer and dropped with it (a
        ``put`` replacing it, eviction, ``forget``, ``drop``), so the same
        immutable ``bytes`` object always maps to the same parse and there
        is nothing to invalidate. Callers must treat the result as
        read-only. Like :meth:`peek` this touches neither the LRU order nor
        the hit/miss counters — the ``get`` that made the buffer resident
        already did. Raises ``KeyError`` if ``key`` is not resident.
        """
        entry = self._views.get(key)
        if entry is not None and entry[0] is decode:
            return entry[1]
        value = decode(self._buffers[key])
        self._views[key] = (decode, value)
        return value

    def is_dirty(self, key: int) -> bool:
        """True if the buffer holds unwritten data."""
        return key in self._dirty

    def clean(self, key: int) -> None:
        """Mark a buffer as written back (used by clustering writebacks)."""
        self._dirty.discard(key)

    def forget(self, key: int) -> None:
        """Remove a buffer without writing it back (the block was freed)."""
        data = self._buffers.pop(key, None)
        if data is not None:
            self._bytes -= len(data)
            self._views.pop(key, None)
        self._dirty.discard(key)
