"""The BlockStore strategy interface between the MINIX core and storage.

The MINIX file-system core addresses data by *zone numbers* (opaque ints)
and i-nodes by index; everything else — placement, bitmaps vs lists,
physical layout — belongs to the store. This is the seam that lets plain
MINIX become MINIX LLD with (structurally) tiny changes, which is the
central engineering claim of the paper.
"""

from __future__ import annotations

import abc
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.fs.cache import BufferCache
from repro.obs.metrics import Counters

_NOT_FULL_BYTE = re.compile(rb"[^\xff]")


def lowest_clear_bit(bitmap: bytes, start: int, stop: int) -> int:
    """Lowest clear bit of ``bitmap`` in ``[start, stop)``, or -1.

    Bits are numbered LSB-first within each byte (MINIX bitmap order).
    Whole ``0xff`` bytes are skipped by a byte-level search, so the cost
    is per byte examined in C, not per bit in Python.
    """
    if start >= stop:
        return -1
    byte = start >> 3
    # Bits below ``start`` in its own byte count as taken.
    free = ~bitmap[byte] & (0xFF << (start & 7)) & 0xFF
    if not free:
        match = _NOT_FULL_BYTE.search(bitmap, byte + 1, (stop + 7) >> 3)
        if match is None:
            return -1
        byte = match.start()
        free = ~bitmap[byte] & 0xFF
    bit = (byte << 3) + (free & -free).bit_length() - 1
    return bit if bit < stop else -1


@dataclass(slots=True)
class StoreStats(Counters):
    """Counters common to both stores."""

    zones_allocated: int = 0
    zones_freed: int = 0
    inodes_allocated: int = 0
    inodes_freed: int = 0
    zone_reads: int = 0
    zone_writes: int = 0
    inode_reads: int = 0
    inode_writes: int = 0
    syncs: int = 0
    # Group commit (LD-backed store): syncs whose physical flush was
    # deferred, and physical flush points actually issued.
    syncs_deferred: int = 0
    group_commits: int = 0

    extra: dict = field(default_factory=dict)


class BlockStore(abc.ABC):
    """Storage backend for :class:`repro.fs.minix.fs.MinixFS`."""

    block_size: int
    stats: StoreStats
    #: Every zone and i-node block is read through this cache; the MINIX
    #: core hangs its decoded metadata views (``BufferCache.view``) off it.
    cache: BufferCache

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def mkfs(self, ninodes: int) -> None:
        """Create an empty file-system image on the backing storage."""

    @abc.abstractmethod
    def mount(self) -> None:
        """Attach to an existing image (after mkfs or restart)."""

    @abc.abstractmethod
    def sync(self) -> None:
        """Flush the buffer cache and make everything durable."""

    @abc.abstractmethod
    def drop_caches(self) -> None:
        """Sync, then discard all cached buffers (benchmark phases)."""

    @property
    @abc.abstractmethod
    def clock(self):
        """The shared virtual clock (for mtimes and throughput math)."""

    @property
    @abc.abstractmethod
    def ninodes(self) -> int:
        """Number of i-node slots in the file system."""

    # ------------------------------------------------------------------
    # Zones (data and indirect blocks)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def read_zone(self, zone: int) -> bytes:
        """Return a zone's contents (through the buffer cache)."""

    def read_zones(self, zones: Sequence[int], ahead: Sequence[int] = ()) -> list[bytes]:
        """The contents of ``zones``, in order: one file request's blocks.

        The MINIX core maps a whole request first and asks for its zones
        in one call, so a store that knows the physical layout can fetch
        them with one transfer. ``ahead`` is the read-ahead window that
        goes with the request (zones the caller does not want back). This
        default is the paper's MINIX: the window goes to :meth:`prefetch`
        and the request is served a block at a time.
        """
        if ahead:
            self.prefetch(ahead)
        return [self.read_zone(zone) for zone in zones]

    @abc.abstractmethod
    def write_zone(self, zone: int, data: bytes, sync: bool = False) -> None:
        """Replace a zone's contents (write-back through the cache).

        ``sync=True`` marks a metadata write (directory block): stores
        with synchronous-metadata semantics (the FFS/SunOS store) push it
        to disk immediately; MINIX-style stores ignore the flag and defer
        to the next ``sync``.
        """

    @abc.abstractmethod
    def prefetch(self, zones: list[int]) -> None:
        """Hint: bring zones into the cache (read-ahead). May coalesce."""

    @abc.abstractmethod
    def alloc_zone(self, ctx: int, prev_zone: int) -> int:
        """Allocate a zone for file context ``ctx`` after ``prev_zone``.

        ``prev_zone`` is 0 when the file has no zones yet. The classic
        store uses it for allocate-near placement; the LD store passes it
        as the NewBlock predecessor hint.
        """

    @abc.abstractmethod
    def free_zone(self, zone: int, ctx: int, prev_hint: int) -> None:
        """Release a zone (DeleteBlock for the LD store)."""

    # ------------------------------------------------------------------
    # I-nodes
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def read_inode_raw(self, ino: int) -> bytes:
        """The 64-byte on-disk record of i-node ``ino``."""

    @abc.abstractmethod
    def write_inode_raw(self, ino: int, data: bytes, sync: bool = False) -> None:
        """Replace i-node ``ino``'s on-disk record.

        ``sync=True`` is passed for create/delete i-node updates; see
        :meth:`write_zone`.
        """

    @abc.abstractmethod
    def alloc_inode(self) -> int:
        """Allocate a free i-node number (1-based)."""

    @abc.abstractmethod
    def free_inode(self, ino: int) -> None:
        """Release an i-node number."""

    # ------------------------------------------------------------------
    # File contexts (block lists in the LD store)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def new_file_context(self, near_ctx: int, directory: bool = False) -> int:
        """Create a placement context for a new file or directory.

        ``near_ctx`` is the parent directory's context, used for
        inter-list clustering. The classic store returns 0 (contexts are
        meaningless there); the LD store returns a fresh list id; the FFS
        store returns a cylinder group — spreading *directories* across
        groups while files stay in their parent's group.
        """

    @abc.abstractmethod
    def delete_file_context(self, ctx: int) -> None:
        """Tear down a file's placement context (DeleteList)."""
