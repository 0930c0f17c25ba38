"""The LD-backed block store: MINIX on the Logical Disk (paper §4.1).

The changes relative to the classic store mirror the paper's list:

* zones are logical blocks allocated with ``NewBlock`` into per-file block
  lists (or one shared list), so there is **no zone bitmap**;
* the file's list identifier is the "file context" the core stores in the
  i-node;
* ``sync`` flushes the buffer cache into LD and then calls ``Flush``;
* i-nodes are either packed into 4 KB LD blocks (``inode_block_mode=
  "packed"``) or stored as individual 64-byte LD blocks (``"small"``),
  the two configurations measured in section 4.2.

One thing the paper's MINIX LLD did not do: the zones of a multi-block file
request that are not in the buffer cache are fetched with a single
``read_blocks`` (:meth:`LDStore.read_zones`), so the LD, which knows the
physical layout, sees the request whole (DESIGN.md §7).
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

from repro.fs.api import NoSpace
from repro.fs.cache import BufferCache
from repro.fs.minix.inode import INODE_SIZE
from repro.fs.minix.store import BlockStore, StoreStats, lowest_clear_bit
from repro.ld.errors import LDError, OutOfSpaceError
from repro.ld.hints import LIST_HEAD
from repro.ld.interface import LogicalDisk
from repro.obs import stack
from repro.obs.trace import NULL_SPAN
from repro.sched import TenantSession

_SUPER = struct.Struct("<4sIIBBIIIII")
_MAGIC = b"MXLD"

MODE_PACKED = "packed"
MODE_SMALL = "small"


class LDStore(BlockStore):
    """MINIX storage on any :class:`~repro.ld.interface.LogicalDisk`."""

    def __init__(
        self,
        ld: LogicalDisk,
        block_size: int = 4096,
        cache_bytes: int = 6144 * 1024,
        list_per_file: bool = True,
        inode_block_mode: str = MODE_PACKED,
    ) -> None:
        if inode_block_mode not in (MODE_PACKED, MODE_SMALL):
            raise ValueError(f"unknown inode_block_mode {inode_block_mode!r}")
        # Group commit lives in the scheduler: a store handed a
        # ``TenantSession`` maps each sync onto a deferrable flush intent of
        # its server, whose ``group_commit=N`` decides when it goes physical.
        self._session = ld if isinstance(ld, TenantSession) else None
        self.ld = ld
        self.block_size = block_size
        self.stats = StoreStats()
        #: ``tracer``: optional :class:`repro.obs.Tracer`, inherited from
        #: the LD so a store built over a traced stack joins the same
        #: trace. Use ``repro.obs.attach_tracer`` to set it afterwards.
        stack.inherit(self, ld, events=False)
        self.cache = BufferCache(cache_bytes, self._writeback)
        self.list_per_file = list_per_file
        self.inode_block_mode = inode_block_mode
        self._ninodes = 0
        self._meta_lid = 0
        self._data_lid = 0  # shared list when list_per_file is off
        self._super_bid = 0
        self._imap_bid = 0
        self._inode_first_bid = 0
        self._inode_bid_count = 0
        self._mounted = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def mkfs(self, ninodes: int) -> None:
        if ninodes > self.block_size * 8:
            raise ValueError(
                f"at most {self.block_size * 8} i-nodes with a one-block bitmap"
            )
        ld = self.ld
        self._ninodes = ninodes
        self._meta_lid = ld.new_list()
        self._super_bid = ld.new_block(self._meta_lid, LIST_HEAD)
        self._imap_bid = ld.new_block(self._meta_lid, self._super_bid)
        if self.inode_block_mode == MODE_PACKED:
            per_block = self.block_size // INODE_SIZE
            count = (ninodes + per_block - 1) // per_block
        else:
            count = ninodes
        prev = self._imap_bid
        first = 0
        for i in range(count):
            bid = ld.new_block(self._meta_lid, prev)
            if i == 0:
                first = bid
            prev = bid
        self._inode_first_bid = first
        self._inode_bid_count = count
        self._data_lid = 0 if self.list_per_file else ld.new_list(pred_lid=self._meta_lid)
        flags = 1 if self.list_per_file else 0
        mode = 1 if self.inode_block_mode == MODE_SMALL else 0
        ld.write(
            self._super_bid,
            _SUPER.pack(
                _MAGIC,
                ninodes,
                self._meta_lid,
                flags,
                mode,
                self._imap_bid,
                self._inode_first_bid,
                self._inode_bid_count,
                self._data_lid,
                0,
            ),
        )
        self._mounted = True

    def mount(self) -> None:
        raw = self.ld.read(1)
        if len(raw) < _SUPER.size:
            raise ValueError("no MINIX-LD superblock found")
        (magic, ninodes, meta_lid, flags, mode, imap, ifirst, icount, data_lid, _r) = (
            _SUPER.unpack_from(raw, 0)
        )
        if magic != _MAGIC:
            raise ValueError("not a MINIX-LD file system")
        self._ninodes = ninodes
        self._meta_lid = meta_lid
        self.list_per_file = bool(flags & 1)
        self.inode_block_mode = MODE_SMALL if mode else MODE_PACKED
        self._super_bid = 1
        self._imap_bid = imap
        self._inode_first_bid = ifirst
        self._inode_bid_count = icount
        self._data_lid = data_lid
        self._mounted = True

    def sync(self) -> None:
        """Flush dirty buffers into LD, then make them durable (Flush).

        On a tenant session the dirty buffers still move into the LD's
        open segment on every sync, but the sync itself is a deferrable
        flush intent: the server's
        group commit decides when the physical ``Flush`` goes out, and the
        syncs it holds back are counted in ``stats.syncs_deferred``. A
        crash between group commits loses at most the deferred syncs'
        writes — the LD's recovery guarantees are otherwise unchanged. On
        a bare LD every sync is a physical flush.
        """
        tr = self.tracer
        with (tr.span("fs.sync") if tr else NULL_SPAN) as sp:
            self.stats.syncs += 1
            self.cache.flush(ordered=False)
            session = self._session
            if session is None:
                if sp is not None:
                    sp.attrs["deferred"] = False
                self.barrier()
                return
            # The sync becomes a deferrable flush intent in the server's
            # cross-tenant group commit, which reports back whether the
            # group went physical.
            committed = session.request_flush()
            if sp is not None:
                sp.attrs["deferred"] = not committed
            if committed:
                self.stats.group_commits += 1
            else:
                self.stats.syncs_deferred += 1

    def barrier(self) -> None:
        """Force a physical flush regardless of group-commit batching."""
        tr = self.tracer
        with tr.span("fs.barrier") if tr else NULL_SPAN:
            self.cache.flush(ordered=False)
            self.stats.group_commits += 1
            self.ld.flush()

    def drop_caches(self) -> None:
        self.cache.flush(ordered=False)
        self.barrier()
        self.cache.drop()

    @property
    def session(self) -> TenantSession | None:
        """The tenant session carrying this store's ops (None on a bare LD)."""
        return self._session

    @property
    def clock(self):
        return self.ld.disk.clock

    @property
    def ninodes(self) -> int:
        return self._ninodes

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _writeback(self, bid: int, data: bytes) -> None:
        self.ld.write(bid, data)

    def _get(self, bid: int, length: int) -> bytes:
        cached = self.cache.get(bid)
        if cached is not None:
            return cached
        return self._load(bid, length)

    def _load(self, bid: int, length: int) -> bytes:
        """Scalar miss: read one block from the LD into the cache."""
        data = self.ld.read(bid)
        if len(data) < length:
            data = data + b"\x00" * (length - len(data))
        self.cache.put(bid, data, dirty=False)
        return data

    # ------------------------------------------------------------------
    # Zones
    # ------------------------------------------------------------------

    def read_zone(self, zone: int) -> bytes:
        self.stats.zone_reads += 1
        return self._get(zone, self.block_size)

    def write_zone(self, zone: int, data: bytes, sync: bool = False) -> None:
        self.stats.zone_writes += 1
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        self.cache.put(zone, data, dirty=True)

    def read_zones(self, zones: Sequence[int], ahead: Sequence[int] = ()) -> list[bytes]:
        """One file request's zones with at most one LD read.

        Resident buffers (dirty ones included) are served from the cache;
        the rest are fetched together, so the LD — which knows the
        physical layout — turns every contiguous run into one disk
        request (§3.5). The buffers come back from the fetch itself and
        are not looked up again: a request larger than the cache still
        costs each zone one disk read. A fetched zone is one cache miss
        and no hit. ``LDError`` from the LD propagates.

        A read-ahead window rides the same fetch. It must never fail the
        read it accompanies, so on an error that does not name a demand
        zone the request is retried without it.
        """
        self.stats.zone_reads += len(zones)
        get = self.cache.get
        buffers = [get(zone) for zone in zones]
        if None not in buffers:
            if ahead:
                self.prefetch(ahead)
            return buffers
        slots = [i for i, data in enumerate(buffers) if data is None]
        missing = [zones[i] for i in slots]
        window = [zone for zone in ahead if zone not in self.cache]
        try:
            datas = self._fill(missing + window, "fs.demand_read")
        except LDError as exc:
            if not window or getattr(exc, "bid", None) in missing:
                raise
            datas = self._fill(missing, "fs.demand_read")
        for i, data in zip(slots, datas):
            buffers[i] = data
        return buffers

    def prefetch(self, zones: Sequence[int]) -> None:
        """Vectored read-ahead through the LD's ``read_blocks``.

        The paper's MINIX LLD disabled read-ahead because "blocks that
        MINIX thinks are contiguous may not actually be so" (§4.1). The
        vectored read path removes that objection: ``read_blocks`` asks
        the LD itself, which knows the physical layout and coalesces
        whatever *is* contiguous into multi-sector requests. The core only
        reads ahead when built with ``readahead=True`` (``make_minix_lld``
        keeps the paper's default of off), and a prefetch must never fail
        a read, so allocation races are swallowed.
        """
        missing = [zone for zone in zones if zone not in self.cache]
        if not missing:
            return
        try:
            self._fill(missing, "fs.prefetch")
        except LDError:
            return

    def _fill(self, zones: list[int], span: str) -> list[bytes]:
        """Fetch non-resident ``zones`` from the LD into the cache.

        The one fill path behind demand reads and read-ahead: a single
        ``read_blocks`` for several zones, the scalar ``read`` for one.
        Returns the (padded) buffers in ``zones`` order.
        """
        size = self.block_size
        tr = self.tracer
        with tr.span(span, count=len(zones)) if tr else NULL_SPAN:
            if len(zones) == 1:
                return [self._load(zones[0], size)]
            datas = self.ld.read_blocks(zones)
        extra = self.stats.extra
        extra["vectored_fills"] = fills = extra.get("vectored_fills", 0) + 1
        extra["vectored_zones"] = filled = extra.get("vectored_zones", 0) + len(zones)
        extra["zones_per_fill"] = filled / fills
        put = self.cache.put
        for i, (zone, data) in enumerate(zip(zones, datas)):
            if len(data) < size:
                datas[i] = data = data + b"\x00" * (size - len(data))
            put(zone, data, dirty=False)
        return datas

    def alloc_zone(self, ctx: int, prev_zone: int) -> int:
        lid = ctx if self.list_per_file else self._data_lid
        pred = prev_zone if prev_zone else LIST_HEAD
        try:
            bid = self.ld.new_block(lid, pred)
        except OutOfSpaceError as exc:
            raise NoSpace(str(exc)) from exc
        self.stats.zones_allocated += 1
        return bid

    def free_zone(self, zone: int, ctx: int, prev_hint: int) -> None:
        lid = ctx if self.list_per_file else self._data_lid
        self.cache.forget(zone)
        self.ld.delete_block(zone, lid, pred_bid_hint=prev_hint or None)
        self.stats.zones_freed += 1

    # ------------------------------------------------------------------
    # I-nodes
    # ------------------------------------------------------------------

    def read_inode_raw(self, ino: int) -> bytes:
        self.stats.inode_reads += 1
        index = ino - 1
        if self.inode_block_mode == MODE_SMALL:
            bid = self._inode_first_bid + index
            return self._get(bid, INODE_SIZE)
        per_block = self.block_size // INODE_SIZE
        bid = self._inode_first_bid + index // per_block
        block = self._get(bid, self.block_size)
        offset = (index % per_block) * INODE_SIZE
        return block[offset : offset + INODE_SIZE]

    def write_inode_raw(self, ino: int, data: bytes, sync: bool = False) -> None:
        self.stats.inode_writes += 1
        index = ino - 1
        if self.inode_block_mode == MODE_SMALL:
            bid = self._inode_first_bid + index
            self.cache.put(bid, data, dirty=True)
            return
        per_block = self.block_size // INODE_SIZE
        bid = self._inode_first_bid + index // per_block
        block = bytearray(self._get(bid, self.block_size))
        offset = (index % per_block) * INODE_SIZE
        block[offset : offset + INODE_SIZE] = data
        self.cache.put(bid, bytes(block), dirty=True)

    def alloc_inode(self) -> int:
        imap = self._get(self._imap_bid, self.block_size)
        ino = lowest_clear_bit(imap, 1, self._ninodes + 1)
        if ino < 0:
            raise NoSpace("out of i-nodes")
        imap = bytearray(imap)
        imap[ino >> 3] |= 1 << (ino & 7)
        self.cache.put(self._imap_bid, bytes(imap), dirty=True)
        self.stats.inodes_allocated += 1
        return ino

    def free_inode(self, ino: int) -> None:
        imap = bytearray(self._get(self._imap_bid, self.block_size))
        byte, bit = divmod(ino, 8)
        imap[byte] &= ~(1 << bit)
        self.cache.put(self._imap_bid, bytes(imap), dirty=True)
        self.stats.inodes_freed += 1

    # ------------------------------------------------------------------
    # File contexts (block lists)
    # ------------------------------------------------------------------

    def new_file_context(self, near_ctx: int, directory: bool = False) -> int:
        if not self.list_per_file:
            return self._data_lid
        pred = near_ctx if near_ctx > 0 else LIST_HEAD
        return self.ld.new_list(pred_lid=pred)

    def delete_file_context(self, ctx: int) -> None:
        if self.list_per_file and ctx > 0:
            self.ld.delete_list(ctx)
