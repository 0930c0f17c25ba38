"""LLD: the log-structured Logical Disk (paper section 3)."""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

from repro.compress.lzrw import compress as raw_compress
from repro.compress.lzrw import decompress as raw_decompress
from repro.compress.model import CompressionModel
from repro.disk.disk import SimulatedDisk
from repro.ld.errors import (
    ARUError,
    LDError,
    NoSuchBlockError,
    OutOfSpaceError,
    ReservationError,
)
from repro.ld.hints import LIST_HEAD, ListHints
from repro.ld.interface import LogicalDisk, Reservation
from repro.lld.checkpoint import CheckpointRegion
from repro.lld.cleaner import Cleaner
from repro.lld.config import SECTOR, LLDConfig
from repro.lld.records import (
    FLAG_CLEANER,
    FLAG_COMPRESSED,
    BlockDeadRecord,
    BlockRecord,
    CommitRecord,
    LinkRecord,
    ListDeadRecord,
    ListFirstRecord,
    ListMetaRecord,
    Record,
)
from repro.lld.readcache import ReadCache
from repro.lld.recovery import RecoveryReport, run_recovery
from repro.obs.trace import NULL_SPAN
from repro.lld.segment import DiskLayout, OpenSegment, empty_summary
from repro.lld.state import KIND_FIRST, KIND_LINK, KIND_META, NO_SEGMENT, LLDState


class TenantCounters:
    """Per-tenant slice of the hot-path counters.

    Kept deliberately tiny (a ``__slots__`` bag of ints) because these
    bump inside the read/write hot paths whenever a tenant is bound via
    :meth:`LLD.set_tenant`. With no tenant bound the cost is one load
    and one branch per operation — the multi-tenant server binds the
    tenant around each dispatched op; single-caller stacks never pay.
    """

    __slots__ = (
        "blocks_read",
        "blocks_written",
        "bytes_read",
        "bytes_written",
        "memory_reads",
        "cache_hits",
        "cache_misses",
        "flushes",
    )

    def __init__(self) -> None:
        self.blocks_read = 0
        self.blocks_written = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.memory_reads = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.flushes = 0

    def copy(self) -> "TenantCounters":
        twin = TenantCounters()
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        return twin

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass
class LLDStats:
    """Operation counters for benchmarks and tests."""

    blocks_written: int = 0
    logical_bytes_written: int = 0
    stored_bytes_written: int = 0
    blocks_read: int = 0
    segments_sealed: int = 0
    partial_segment_writes: int = 0
    flushes: int = 0
    flushes_noop: int = 0  # flushes that found nothing to make durable
    cleanings: int = 0
    blocks_cleaned: int = 0
    records_relogged: int = 0
    tombstones_dropped: int = 0
    hint_hits: int = 0
    hint_misses: int = 0
    reorganized_blocks: int = 0
    memory_reads: int = 0  # reads served from the in-memory segment
    nvram_absorbed: int = 0  # partial flushes held in NVRAM (§5.3)

    # Vectored read path (read_blocks / read_list / read-ahead cache).
    vectored_reads: int = 0  # read_blocks/read_list calls
    cache_hits: int = 0
    cache_misses: int = 0
    cache_inserts: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    prefetch_issued: int = 0
    prefetch_used: int = 0
    prefetch_wasted: int = 0
    # Coalesced-run length histogram: blocks per multi-sector read request.
    coalesced_runs: Counter = field(default_factory=Counter)

    # Incremental write path (delta partial flushes / write amplification).
    # data_bytes_logical counts stored payload accepted by write();
    # data_bytes_physical counts every byte the LD write path puts on disk
    # (images, deltas, scrubs) — their ratio is the write amplification.
    data_bytes_logical: int = 0
    data_bytes_physical: int = 0
    partial_delta_flushes: int = 0  # partial flushes served by delta writes
    partial_full_writes: int = 0  # first-flush-on-slot full image writes
    partial_delta_noop: int = 0  # partial flushes with nothing new to write
    partial_delta_summary_bytes: int = 0
    partial_delta_data_bytes: int = 0

    # Per-tenant counter slices, populated only when a multi-tenant
    # server binds tenants with :meth:`LLD.set_tenant` (name -> counters).
    tenants: dict = field(default_factory=dict)

    extra: dict = field(default_factory=dict)

    def tenant_counters(self, name: str) -> TenantCounters:
        """The (created-on-demand) counter slice for tenant ``name``."""
        counters = self.tenants.get(name)
        if counters is None:
            counters = self.tenants[name] = TenantCounters()
        return counters

    @property
    def write_amplification(self) -> float | None:
        """Physical/logical write ratio (None before any logical write)."""
        if self.data_bytes_logical <= 0:
            return None
        return self.data_bytes_physical / self.data_bytes_logical

    def snapshot(self) -> "LLDStats":
        """Copy of the current counters (for before/after deltas)."""
        copy = dataclasses.replace(self)
        copy.coalesced_runs = Counter(self.coalesced_runs)
        copy.tenants = {name: c.copy() for name, c in self.tenants.items()}
        copy.extra = dict(self.extra)
        return copy

    def as_dict(self) -> dict:
        """Machine-readable form for benchmark JSON reports.

        Built by shallow field walk, not ``dataclasses.asdict`` — the
        monitoring sampler calls this on every firing tick, and asdict's
        recursive deep copy was ~10x the cost of the counters themselves.
        """
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["coalesced_runs"] = {
            int(length): count for length, count in sorted(self.coalesced_runs.items())
        }
        out["tenants"] = {
            name: c.as_dict() for name, c in sorted(self.tenants.items())
        }
        out["extra"] = dict(self.extra)
        out["write_amplification"] = self.write_amplification
        return out


class LLD(LogicalDisk):
    """Log-structured implementation of the LD interface.

    Dirty blocks are collected in an in-memory segment and written to disk
    in one long contiguous operation; segment summaries log all metadata;
    recovery is a single sweep over the summaries. See the package
    docstring for the deviations from the paper (COMMIT records, memory-
    only list of lists).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        config: LLDConfig | None = None,
        compression: CompressionModel | None = None,
        nvram=None,
        tracer=None,
    ) -> None:
        self.disk = disk
        #: Optional :class:`repro.obs.Tracer`. Inherited from the disk
        #: when not given, so a post-crash LLD built over a traced disk
        #: keeps tracing (recovery spans land in the same trace).
        self.tracer = tracer if tracer is not None else getattr(disk, "tracer", None)
        #: Optional :class:`repro.obs.EventLog`, inherited like the tracer.
        self.events = getattr(disk, "events", None)
        self.config = config or LLDConfig()
        self.layout = DiskLayout(disk, self.config)
        self.state = LLDState()
        self.checkpoint = CheckpointRegion(disk, self.layout, self.config)
        self.compression = compression or CompressionModel(disk.clock)
        self.cleaner = Cleaner(self)
        self.stats = LLDStats()
        self.recovery_report: RecoveryReport | None = None
        #: Optional battery-backed buffer absorbing partial-segment flushes
        #: (paper §5.3); pass the same object to the post-crash instance.
        self.nvram = nvram

        self._open: OpenSegment | None = None
        self._initialized = False
        #: Per-tenant counter slice currently on the wire (None = global
        #: counters only). Bound by the multi-tenant server around each
        #: dispatched op via :meth:`set_tenant`.
        self._tenant: TenantCounters | None = None
        self._current_aru = 0
        # Open (uncommitted) ARUs -> segments the cleaner must not touch
        # while they are in flight. Multiple entries = concurrent ARUs
        # (the paper's §5.4 extension).
        self._open_arus: dict[int, set[int]] = {}
        self._cleaning = False
        self._compacting = False
        # Slots whose stale summaries await invalidation once the records
        # re-logged out of them are durable (see Cleaner.clean_segment).
        self._pending_scrubs: set[int] = set()
        self._reservations: dict[int, Reservation] = {}
        self._reserved_bytes = 0
        self._next_reservation = 1
        #: Read frequency per block, feeding the adaptive hot-block
        #: reorganizer (paper §5.3). Memory-only; reset at startup.
        self.read_counts: Counter[int] = Counter()
        #: LD-level block cache (None when disabled). The cache shares the
        #: stats object so hit/miss/prefetch counters land in LLDStats.
        self.read_cache: ReadCache | None = (
            ReadCache(self.config.read_cache_bytes, counters=self.stats)
            if self.config.read_cache_enabled
            else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Start up: load a clean-shutdown image or run one-sweep recovery."""
        if self._initialized:
            raise LDError("LD already initialized")
        if self.read_cache is not None:
            self.read_cache.clear()  # volatile: always starts cold
        if self.nvram is not None and self.nvram.holds_data:
            # Replay the partial segment held in NVRAM onto its slot so
            # the normal startup paths (checkpoint or sweep) see it.
            self.disk.write(self.layout.slot_lba(self.nvram.slot), self.nvram.image)
        if self.checkpoint.try_load(self.state):
            self.checkpoint.invalidate()
            self.recovery_report = None
            ev = self.events
            if ev:
                ev.emit("lld.checkpoint_loaded", t=self.disk.clock.now)
        else:
            self.recovery_report = run_recovery(self)
        self.state.init_slots(self.layout.segment_count)
        self._switch_to_slot(self._pick_free_slot())
        self._initialized = True

    def shutdown(self) -> None:
        """Flush, persist the state image, and go offline."""
        self._require_init()
        if self._open_arus:
            raise ARUError(
                f"cannot shut down with {len(self._open_arus)} "
                "atomic recovery unit(s) open"
            )
        self.flush()
        self.checkpoint.save(self.state)
        self._disk_barrier("checkpoint")
        ev = self.events
        if ev:
            ev.emit("lld.checkpoint_saved", t=self.disk.clock.now)
        self._initialized = False
        self._open = None

    def crash(self) -> None:
        """Simulate a power failure: all main-memory state is lost.

        The disk retains exactly what was physically written. Create a new
        :class:`LLD` on the same disk and call :meth:`initialize` to
        recover.
        """
        self._initialized = False
        self._open = None
        if self.read_cache is not None:
            self.read_cache.clear()  # main-memory state is lost

    def _require_init(self) -> None:
        if not self._initialized:
            raise LDError("LD not initialized (call initialize())")

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------

    def set_tenant(self, name: str | None) -> None:
        """Bind (or clear) the tenant attributed in the hot-path counters.

        The multi-tenant server wraps every dispatched op in a
        ``set_tenant(name)`` / ``set_tenant(None)`` pair so reads,
        writes, and cache traffic land in ``stats.tenants[name]`` beside
        the global counters. With no tenant bound the hot paths pay one
        load and one branch.
        """
        self._tenant = None if name is None else self.stats.tenant_counters(name)

    def placement_hint(self, bid: int) -> tuple[int, int] | None:
        """``(spindle, lba)`` of a block's durable location, or ``None``.

        The scheduler's elevator sorts read batches by this key so each
        batch sweeps every spindle once in LBA order. Unallocated,
        never-written, and open-segment blocks (served from memory) have
        no physical location to seek to and return ``None``.
        """
        entry = self.state.blocks.get(bid)
        if entry is None or entry.segment == NO_SEGMENT:
            return None
        if self._open is not None and entry.segment == self._open.index:
            return None
        lba, _nsectors, _skew = self.layout.block_extent(
            entry.segment, entry.offset, entry.stored_length
        )
        spindles = self.layout.slot_spindles
        return (spindles[entry.segment] if spindles else 0, lba)

    def read(self, bid: int) -> bytes:
        self._require_init()
        tr = self.tracer
        with tr.span("lld.read", bid=bid) if tr else NULL_SPAN:
            entry, data = self._read_resident(bid)
            if data is not None:
                return data
            # Miss: fetch from disk, extending the request over the block's
            # physically contiguous successor run (the list structure encodes
            # "what comes next") when read-ahead is on.
            run = [(bid, entry)]
            if self.read_cache is not None and self.config.read_ahead_blocks > 0:
                run.extend(self._successor_run(entry))
            return self._fetch_runs([run], readahead=True)[0]

    def read_blocks(self, bids: Sequence[int]) -> list[bytes]:
        """Vectored read: group by segment, coalesce contiguous runs.

        Equivalent to ``[self.read(b) for b in bids]`` byte-for-byte, but
        every physically contiguous run of requested blocks inside one
        segment is fetched with a single multi-sector disk request — the
        read-side payoff of the paper's clustered block lists.
        """
        self._require_init()
        tr = self.tracer
        with tr.span("lld.read_blocks", count=len(bids)) if tr else NULL_SPAN:
            return self._read_blocks(bids)

    def _read_blocks(self, bids: Sequence[int]) -> list[bytes]:
        self.stats.vectored_reads += 1
        results: list[bytes | None] = [None] * len(bids)
        pending: dict[int, list[tuple[int, int, object]]] = {}
        for i, bid in enumerate(bids):
            entry, data = self._read_resident(bid)
            if data is None:
                pending.setdefault(entry.segment, []).append((i, bid, entry))
            else:
                results[i] = data
        runs: list[list[tuple[int, object]]] = []
        slots: list[int] = []  # result index of every block, in run order
        for segment in sorted(pending):
            items = sorted(pending[segment], key=lambda item: item[2].offset)
            start = 0
            while start < len(items):
                # Grow the run while the next block starts at (or inside,
                # for duplicates) the bytes already covered.
                end = start + 1
                run_end = items[start][2].offset + items[start][2].stored_length
                while end < len(items) and items[end][2].offset <= run_end:
                    run_end = max(
                        run_end, items[end][2].offset + items[end][2].stored_length
                    )
                    end += 1
                runs.append([(bid, entry) for _i, bid, entry in items[start:end]])
                slots.extend(i for i, _bid, _entry in items[start:end])
                start = end
        for i, data in zip(slots, self._fetch_runs(runs)):
            results[i] = data
        return results  # type: ignore[return-value]

    def _read_resident(self, bid: int):
        """Serve ``bid`` without disk I/O: ``(entry, data-or-None)``.

        The one place a read is counted and probed: never-written blocks
        read as ``b""``, open-segment blocks come out of the in-memory
        image, and everything else asks the read cache. ``None`` means a
        miss the caller must hand to :meth:`_fetch_runs`.
        """
        entry = self.state.block(bid)
        if entry.segment == NO_SEGMENT:
            return entry, b""
        self.stats.blocks_read += 1
        self.read_counts[bid] += 1
        tenant = self._tenant
        if tenant is not None:
            tenant.blocks_read += 1
        assert self._open is not None
        if entry.segment == self._open.index:
            raw = self._open.read_data(entry.offset, entry.stored_length)
            self.stats.memory_reads += 1
            data = self._decode(entry, raw)
            if tenant is not None:
                tenant.memory_reads += 1
                tenant.bytes_read += len(data)
            return entry, data
        cache = self.read_cache
        if cache is None:
            return entry, None
        data = cache.get(bid)
        if tenant is not None:
            if data is None:
                tenant.cache_misses += 1
            else:
                tenant.cache_hits += 1
                tenant.bytes_read += len(data)
        return entry, data

    def _fetch_runs(
        self, runs: list[list[tuple[int, object]]], readahead: bool = False
    ) -> list[bytes]:
        """Read coalesced runs from disk; decode and cache every block.

        Each run is a list of ``(bid, entry)`` physically contiguous in
        one segment and costs one multi-sector request: a single run goes
        out as ``disk.read``, several as one ``disk.read_batch`` — on a
        bare disk that is timing-identical to back-to-back reads, on a
        striped volume runs living on different spindles overlap in
        simulated time (stripe-boundary splitting happens inside the
        volume, which sees the whole batch at one dispatch instant).
        With ``readahead`` every block after a run's first is read-ahead:
        cached as prefetched, not billed to the tenant.
        Returns the decoded blocks flattened in run order.
        """
        extents = [self._run_extent(run) for run in runs]
        if len(runs) > 1:
            bufs = self.disk.read_batch(
                [(lba, nsectors) for lba, nsectors, _skew in extents]
            )
        else:
            bufs = [self.disk.read(lba, nsectors) for lba, nsectors, _skew in extents]
        cache = self.read_cache
        tenant = self._tenant
        coalesced = self.stats.coalesced_runs
        out: list[bytes] = []
        for run, (_lba, _nsectors, skew), buf in zip(runs, extents, bufs):
            coalesced[len(run)] = coalesced.get(len(run), 0) + 1
            base = skew - run[0][1].offset  # buffer position of data offset 0
            prefetched = False
            for bid, entry in run:
                start = base + entry.offset
                data = self._decode(entry, buf[start : start + entry.stored_length])
                out.append(data)
                if tenant is not None and not prefetched:
                    tenant.bytes_read += len(data)
                if cache is not None:
                    cache.put(bid, data, prefetched=prefetched)
                prefetched = readahead
        return out

    def read_list(self, lid: int) -> list[bytes]:
        """Read all of list ``lid`` in order through the vectored path."""
        self._require_init()
        return self.read_blocks(list(self.state.iter_list(lid)))

    def _decode(self, entry, raw: bytes) -> bytes:
        if entry.compressed:
            return self._decompress(raw, entry.length)
        return raw

    def _successor_run(self, entry) -> list[tuple[int, object]]:
        """Physically contiguous successors of ``entry`` (read-ahead)."""
        cache = self.read_cache
        run: list[tuple[int, object]] = []
        blocks = self.state.blocks
        prev = entry
        bid = entry.successor
        while bid is not None and len(run) < self.config.read_ahead_blocks:
            nxt = blocks.get(bid)
            if (
                nxt is None
                or nxt.segment != entry.segment
                or nxt.offset != prev.offset + prev.stored_length
                or (cache is not None and bid in cache)
            ):
                break
            run.append((bid, nxt))
            prev = nxt
            bid = nxt.successor
        return run

    def _run_extent(self, run: list[tuple[int, object]]) -> tuple[int, int, int]:
        """The ``(lba, nsectors, skew)`` disk extent covering a run."""
        first = run[0][1]
        last = run[-1][1]
        total = last.offset + last.stored_length - first.offset
        return self.layout.block_extent(first.segment, first.offset, total)

    def write(self, bid: int, data: bytes) -> None:
        self._require_init()
        tr = self.tracer
        with tr.span("lld.write", bid=bid, nbytes=len(data)) if tr else NULL_SPAN:
            self._write_one(bid, data)

    def _write_one(self, bid: int, data: bytes) -> None:
        entry = self.state.block(bid)
        if not isinstance(data, bytes):
            data = bytes(data)
        if len(data) > self.config.block_size:
            raise ValueError(
                f"block of {len(data)} bytes exceeds maximum block size "
                f"{self.config.block_size}"
            )
        compressed = False
        stored = data
        if (
            self.config.compression_enabled
            and entry.compress_writes
            and len(data) > 0
        ):
            packed = self._compress(data)
            if len(packed) < len(data):
                stored = packed
                compressed = True
        overwrite_credit = entry.stored_length if entry.segment != NO_SEGMENT else 0
        self._check_space(len(stored) - overwrite_credit)
        self._append_block(bid, stored, len(data), compressed)
        self.stats.blocks_written += 1
        self.stats.logical_bytes_written += len(data)
        self.stats.stored_bytes_written += len(stored)
        self.stats.data_bytes_logical += len(stored)
        tenant = self._tenant
        if tenant is not None:
            tenant.blocks_written += 1
            tenant.bytes_written += len(data)

    def swap_contents(self, bid_a: int, bid_b: int) -> None:
        """Atomically swap the physical contents of two logical blocks.

        The paper's §5.4 ``SwapContents`` extension: "new versions of
        blocks can be installed atomically without losing the old
        versions" — the basis for transactions and multiversion storage.
        Both blocks must have been written. If no ARU is open, the swap
        runs in its own ARU so a crash can never expose a half-swap.
        """
        self._require_init()
        if bid_a == bid_b:
            raise ValueError("cannot swap a block with itself")
        entry_a = self.state.block(bid_a)
        entry_b = self.state.block(bid_b)
        if entry_a.segment == NO_SEGMENT or entry_b.segment == NO_SEGMENT:
            raise LDError("both blocks must have contents to swap")

        def emit_swap() -> None:
            loc_a = (
                entry_a.segment,
                entry_a.offset,
                entry_a.stored_length,
                entry_a.length,
                entry_a.compressed,
            )
            loc_b = (
                entry_b.segment,
                entry_b.offset,
                entry_b.stored_length,
                entry_b.length,
                entry_b.compressed,
            )
            for bid, (segment, offset, stored, length, compressed) in (
                (bid_a, loc_b),
                (bid_b, loc_a),
            ):
                record = BlockRecord(
                    bid=bid,
                    segment=segment,
                    offset=offset,
                    stored_length=stored,
                    length=length,
                )
                if compressed:
                    record.flags |= FLAG_COMPRESSED
                self._emit(record)

        if self._current_aru:
            emit_swap()
        else:
            with self.aru():
                emit_swap()

    def new_block(
        self, lid: int, pred_bid: int, reservation: Reservation | None = None
    ) -> int:
        self._require_init()
        if reservation is not None:
            self._consume_reservation(reservation)
        bid = self.state.next_bid
        if self.config.lists_enabled:
            entry = self.state.list_entry(lid)
            if pred_bid == LIST_HEAD:
                old_first = entry.first
                self._emit(LinkRecord(bid=bid, successor=old_first))
                self._emit(ListFirstRecord(lid=lid, first=bid))
            else:
                pred = self.state.block(pred_bid)
                self._emit(LinkRecord(bid=bid, successor=pred.successor))
                self._emit(LinkRecord(bid=pred_bid, successor=bid))
            self.state.blocks[bid].compress_writes = entry.hints.compress
        else:
            self._emit(LinkRecord(bid=bid, successor=None))
        return bid

    def delete_block(self, bid: int, lid: int, pred_bid_hint: int | None = None) -> None:
        self._require_init()
        entry = self.state.block(bid)
        if self.config.lists_enabled:
            if pred_bid_hint is not None:
                hinted = self.state.blocks.get(pred_bid_hint)
                if hinted is not None and hinted.successor == bid:
                    self.stats.hint_hits += 1
                else:
                    self.stats.hint_misses += 1
            pred = self.state.find_predecessor(lid, bid, pred_bid_hint)
            successor = entry.successor
            if pred is None:
                self._emit(ListFirstRecord(lid=lid, first=successor))
            else:
                self._emit(LinkRecord(bid=pred, successor=successor))
        self._emit(BlockDeadRecord(bid=bid))

    # ------------------------------------------------------------------
    # Lists
    # ------------------------------------------------------------------

    def new_list(self, pred_lid: int = LIST_HEAD, hints: ListHints | None = None) -> int:
        self._require_init()
        hints = hints or ListHints()
        lid = self.state.next_lid
        if pred_lid != LIST_HEAD:
            self.state.list_entry(pred_lid)  # validate
        self._emit(ListMetaRecord(lid=lid, hints=hints.pack()))
        self._emit(ListFirstRecord(lid=lid, first=None))
        self._position_list(lid, pred_lid)
        return lid

    def delete_list(self, lid: int, pred_lid_hint: int | None = None) -> None:
        self._require_init()
        bids = list(self.state.iter_list(lid))
        for bid in bids:
            self._emit(BlockDeadRecord(bid=bid))
        self._emit(ListDeadRecord(lid=lid))

    def move_sublist(
        self,
        first_bid: int,
        last_bid: int,
        src_lid: int,
        dst_lid: int,
        dst_pred_bid: int,
    ) -> None:
        self._require_init()
        if not self.config.lists_enabled:
            raise LDError("lists are disabled in this configuration")
        chain = self._collect_chain(src_lid, first_bid, last_bid)
        dst_entry = self.state.list_entry(dst_lid)
        if src_lid == dst_lid and dst_pred_bid in chain:
            raise ValueError("destination predecessor lies inside the moved chain")
        src_pred = self.state.find_predecessor(src_lid, first_bid)
        after_last = self.state.block(last_bid).successor
        if dst_pred_bid == LIST_HEAD:
            dst_first = dst_entry.first if dst_lid != src_lid else None
            # Capture all values before emitting; emissions mutate state.
            if dst_first in chain:
                raise ValueError("destination head lies inside the moved chain")
            self._emit_splice_out(src_lid, src_pred, after_last)
            new_head_succ = self.state.list_entry(dst_lid).first
            self._emit(LinkRecord(bid=last_bid, successor=new_head_succ))
            self._emit(ListFirstRecord(lid=dst_lid, first=first_bid))
        else:
            self.state.block(dst_pred_bid)  # validate
            self._emit_splice_out(src_lid, src_pred, after_last)
            dst_succ = self.state.block(dst_pred_bid).successor
            self._emit(LinkRecord(bid=last_bid, successor=dst_succ))
            self._emit(LinkRecord(bid=dst_pred_bid, successor=first_bid))
        # Update compression inheritance for the moved blocks.
        compress = self.state.list_entry(dst_lid).hints.compress
        for bid in chain:
            self.state.blocks[bid].compress_writes = compress

    def _emit_splice_out(
        self, src_lid: int, src_pred: int | None, after_last: int | None
    ) -> None:
        if src_pred is None:
            self._emit(ListFirstRecord(lid=src_lid, first=after_last))
        else:
            self._emit(LinkRecord(bid=src_pred, successor=after_last))

    def _collect_chain(self, lid: int, first_bid: int, last_bid: int) -> list[int]:
        """Blocks from ``first_bid`` to ``last_bid`` along ``lid``; validates."""
        on_list = False
        chain: list[int] = []
        for bid in self.state.iter_list(lid):
            if bid == first_bid:
                on_list = True
            if on_list:
                chain.append(bid)
                if bid == last_bid:
                    return chain
        raise NoSuchBlockError(last_bid if on_list else first_bid)

    def move_list(self, lid: int, new_pred_lid: int) -> None:
        self._require_init()
        self.state.list_entry(lid)
        if new_pred_lid != LIST_HEAD:
            self.state.list_entry(new_pred_lid)
        self._position_list(lid, new_pred_lid)

    def _position_list(self, lid: int, pred_lid: int) -> None:
        """Reorder the (memory-only) list of lists for inter-list clustering."""
        order = self.state.list_order
        if lid in order:
            order.remove(lid)
        if pred_lid == LIST_HEAD:
            order.insert(0, lid)
        else:
            order.insert(order.index(pred_lid) + 1, lid)

    def list_blocks(self, lid: int) -> list[int]:
        self._require_init()
        return list(self.state.iter_list(lid))

    # ------------------------------------------------------------------
    # ARUs and durability
    # ------------------------------------------------------------------

    def begin_aru(self) -> int:
        self._require_init()
        if self._current_aru:
            raise ARUError("an atomic recovery unit is already open")
        self._current_aru = self._new_aru()
        return self._current_aru

    def end_aru(self) -> None:
        self._require_init()
        if not self._current_aru:
            raise ARUError("no atomic recovery unit is open")
        self._commit_aru(self._current_aru)
        self._current_aru = 0

    def abort_aru(self) -> None:
        """Abandon the open ARU: its operations never commit.

        The explicit form of the :meth:`aru` context manager's exception
        path, for clients (tenant sessions, say) that drive ARUs through
        ``begin_aru``/``end_aru`` calls rather than a ``with`` block.
        In-memory state is not rolled back — the staged operations simply
        vanish at the next recovery, exactly as a crash would leave them.
        """
        self._require_init()
        if not self._current_aru:
            raise ARUError("no atomic recovery unit is open")
        self._open_arus.pop(self._current_aru, None)  # never commits
        self._current_aru = 0

    def _new_aru(self) -> int:
        aru = self.state.next_ts
        self.state.next_ts += 1
        self._open_arus[aru] = set()
        tr = self.tracer
        if tr:
            tr.instant("lld.aru_begin", aru=aru)
        return aru

    def _commit_aru(self, aru: int) -> None:
        if aru not in self._open_arus:
            raise ARUError(f"ARU {aru} is not open")
        record = CommitRecord()
        record.aru = aru
        self._log_record(record)
        del self._open_arus[aru]
        tr = self.tracer
        if tr:
            tr.instant("lld.aru_end", aru=aru)

    @contextmanager
    def aru(self):
        """Context manager for a (possibly concurrent) atomic recovery unit.

        The paper's §5.4 extension: each operation belongs to an explicit
        ARU identified by id. Nesting ``with ld.aru():`` blocks interleaves
        independent ARUs; the inner one commits first. On an exception the
        ARU is left uncommitted — its operations vanish at the next
        recovery (in-memory state is not rolled back, exactly as a crash
        would leave a half-finished ARU).
        """
        self._require_init()
        previous = self._current_aru
        current = self._new_aru()
        self._current_aru = current
        try:
            yield current
        except BaseException:
            self._open_arus.pop(current, None)  # never commits
            raise
        finally:
            self._current_aru = previous
        self._commit_aru(current)

    @property
    def in_aru(self) -> bool:
        """True while an explicit atomic recovery unit is open."""
        return bool(self._current_aru)

    @property
    def open_aru_count(self) -> int:
        """Number of uncommitted atomic recovery units."""
        return len(self._open_arus)

    def aru_excluded_segments(self) -> set[int]:
        """Segments the cleaner must not evacuate while ARUs are open."""
        excluded: set[int] = set()
        for segments in self._open_arus.values():
            excluded |= segments
        return excluded

    def flush(self) -> None:
        """Make everything logged so far durable (paper §3.2 strategy).

        At or above the partial threshold the segment is sealed; below it
        the partially-filled segment is written to its own slot but kept in
        memory, so it keeps filling and the eventual full write replaces
        the slot without any cleaning. With ``delta_partial_flush`` (the
        default) the partial write is incremental: only the summary and
        the data appended since the watermark go to disk.

        Only flushes that find work count in ``stats.flushes``; a flush of
        an empty open segment counts in ``stats.flushes_noop`` instead, so
        benchmark denominators stay honest.
        """
        self._require_init()
        assert self._open is not None
        tr = self.tracer
        with tr.span("lld.flush") if tr else NULL_SPAN:
            self.compression.drain_pipeline()
            if self._open.is_empty:
                self.stats.flushes_noop += 1
                return
            self.stats.flushes += 1
            if self._tenant is not None:
                self._tenant.flushes += 1
            if self._open.fill_fraction >= self.config.partial_threshold:
                self._seal_segment()
            elif self._try_nvram_absorb():
                self.stats.nvram_absorbed += 1
            else:
                self._write_partial()
            # The acknowledgement point: everything this flush wrote must
            # be on the medium before any later write. The crash-state
            # explorer keys its durability oracle off this barrier.
            self._disk_barrier("flush")

    def _write_partial(self) -> None:
        """Write the below-threshold open segment to its slot."""
        assert self._open is not None
        tr = self.tracer
        with tr.span("lld.partial_flush", slot=self._open.index) if tr else NULL_SPAN:
            if self.config.delta_partial_flush:
                if self._write_open_delta() == 0:
                    # Everything is already durable on disk: nothing to write.
                    self.stats.partial_delta_noop += 1
                    return
            else:
                self._write_open_image()
            self._open.partial_writes += 1
            self.stats.partial_segment_writes += 1

    def _try_nvram_absorb(self) -> bool:
        """Hold the partial segment in NVRAM instead of writing it.

        The image is durable in NVRAM, so the bookkeeping matches a real
        partial write: the summary's minimum timestamp counts, and pending
        summary scrubs may proceed.
        """
        if self.nvram is None:
            return False
        assert self._open is not None
        tr = self.tracer
        with (
            tr.span("lld.nvram_absorb", slot=self._open.index) if tr else NULL_SPAN
        ) as sp:
            image = self._open.image()
            absorbed = self.nvram.store(self._open.index, image)
            if sp is not None:
                sp.attrs["absorbed"] = absorbed
                sp.attrs["image_bytes"] = len(image)
            if not absorbed:
                return False
            ev = self.events
            if ev:
                ev.emit(
                    "lld.nvram_absorb",
                    severity="debug",
                    t=self.disk.clock.now,
                    slot=self._open.index,
                    image_bytes=len(image),
                )
            # The NVRAM image supersedes whatever prefix is on disk, so the
            # watermark no longer describes durable-on-disk bytes: reset it,
            # and a later non-absorbed flush writes the full image again.
            self._open.reset_durable()
            min_ts = self._open.min_timestamp()
            if min_ts is None:
                self.state.summary_min_ts.pop(self._open.index, None)
            else:
                self.state.summary_min_ts[self._open.index] = min_ts
            # Records re-logged out of pending-scrub slots are durable (in
            # NVRAM) from this point; the scrub writes must not be reordered
            # before anything still in flight.
            self._disk_barrier("nvram-absorb")
            self._process_pending_scrubs()
            return True

    def flush_list(self, lid: int) -> None:
        """Durability for one list (the paper's easy ``fsync``)."""
        self._require_init()
        self.state.list_entry(lid)
        self.flush()

    # ------------------------------------------------------------------
    # Reservations (paper section 2.2)
    # ------------------------------------------------------------------

    def reserve_blocks(self, count: int) -> Reservation:
        self._require_init()
        if count <= 0:
            raise ReservationError(f"reservation count must be positive: {count}")
        nbytes = count * self.config.block_size
        if nbytes > self._free_bytes():
            raise OutOfSpaceError(
                f"cannot reserve {count} blocks ({nbytes} bytes); "
                f"only {self._free_bytes()} bytes free"
            )
        token = self._next_reservation
        self._next_reservation += 1
        reservation = Reservation(token=token, blocks=count, bytes_reserved=nbytes)
        self._reservations[token] = reservation
        self._reserved_bytes += nbytes
        return reservation

    def cancel_reservation(self, reservation: Reservation) -> None:
        self._require_init()
        stored = self._reservations.pop(reservation.token, None)
        if stored is None:
            raise ReservationError(f"unknown or spent reservation {reservation.token}")
        self._reserved_bytes -= stored.bytes_reserved

    def _consume_reservation(self, reservation: Reservation) -> None:
        stored = self._reservations.get(reservation.token)
        if stored is None or stored.blocks <= 0:
            raise ReservationError(
                f"reservation {reservation.token} is unknown or exhausted"
            )
        stored.blocks -= 1
        stored.bytes_reserved -= self.config.block_size
        self._reserved_bytes -= self.config.block_size
        reservation.blocks = stored.blocks
        reservation.bytes_reserved = stored.bytes_reserved
        if stored.blocks == 0:
            del self._reservations[stored.token]

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def _usable_capacity(self) -> int:
        reserve = self.config.min_free_segments * self.config.data_capacity
        return self.layout.capacity_bytes - reserve

    def _free_bytes(self) -> int:
        return self._usable_capacity() - self.state.live_bytes() - self._reserved_bytes

    def _check_space(self, delta: int) -> None:
        if delta > 0 and delta > self._free_bytes():
            raise OutOfSpaceError(
                f"write of {delta} new bytes exceeds free space {self._free_bytes()}"
            )

    # ------------------------------------------------------------------
    # Logging and segment management
    # ------------------------------------------------------------------

    def _emit(self, record: Record) -> None:
        """Log a metadata record on behalf of the file system."""
        if self._current_aru:
            record.aru = self._current_aru
            self._note_aru_touch(record)
        self._log_record(record)

    def _log_record(self, record: Record) -> None:
        """Assign a timestamp, append to the open summary, apply to state."""
        assert self._open is not None
        guard = self.layout.segment_count
        while not self._open.fits(0, record.SIZE):
            # Sealing may refill the fresh segment (cleaning, re-logging),
            # so re-check until the record fits.
            self._seal_segment()
            guard -= 1
            if guard < 0:  # pragma: no cover - would need a pathological config
                raise LDError("cannot find room for a metadata record")
        record.timestamp = self.state.next_ts
        if isinstance(record, (BlockDeadRecord, ListDeadRecord)):
            if record.death_timestamp == 0:
                record.death_timestamp = record.timestamp
        self._open.append_record(record)
        self.state.apply(record, self._open.index)
        # Every contents or location change of a block passes through here
        # as a BLOCK or BLOCK_DEAD record (write, delete, swap, cleaning,
        # reorganization), so this one hook keeps the read cache coherent.
        if self.read_cache is not None and isinstance(
            record, (BlockRecord, BlockDeadRecord)
        ):
            self.read_cache.invalidate(record.bid)

    def _note_aru_touch(self, record: Record) -> None:
        """Remember segments the open ARU's keys previously lived in.

        The cleaner must not evacuate those segments while the ARU is
        uncommitted: doing so would destroy the pre-ARU values a recovery
        needs if the ARU aborts.
        """
        state = self.state
        excluded = self._open_arus.setdefault(self._current_aru, set())
        if isinstance(record, BlockRecord):
            entry = state.blocks.get(record.bid)
            if entry is not None and entry.segment != NO_SEGMENT:
                excluded.add(entry.segment)
        elif isinstance(record, LinkRecord):
            home = state.homes.get((KIND_LINK, record.bid))
            if home is not None:
                excluded.add(home)
        elif isinstance(record, ListFirstRecord):
            home = state.homes.get((KIND_FIRST, record.lid))
            if home is not None:
                excluded.add(home)
        elif isinstance(record, (ListMetaRecord, ListDeadRecord)):
            home = state.homes.get((KIND_META, record.lid))
            if home is not None:
                excluded.add(home)
        elif isinstance(record, BlockDeadRecord):
            entry = state.blocks.get(record.bid)
            if entry is not None and entry.segment != NO_SEGMENT:
                excluded.add(entry.segment)
            home = state.homes.get((KIND_LINK, record.bid))
            if home is not None:
                excluded.add(home)

    def _append_block(
        self,
        bid: int,
        stored: bytes,
        length: int,
        compressed: bool,
        cleaner: bool = False,
    ) -> None:
        """Place block data in the open segment and log its BLOCK record."""
        assert self._open is not None
        record_size = BlockRecord.SIZE
        guard = self.layout.segment_count
        while not self._open.fits(len(stored), record_size):
            # Sealing may refill the fresh segment (cleaning, re-logging),
            # so re-check until the data fits.
            self._seal_segment()
            guard -= 1
            if guard < 0:  # pragma: no cover - would need a pathological config
                raise OutOfSpaceError("cannot find room for block data")
        offset = self._open.append_data(stored)
        record = BlockRecord(
            bid=bid,
            segment=self._open.index,
            offset=offset,
            stored_length=len(stored),
            length=length,
        )
        if compressed:
            record.flags |= FLAG_COMPRESSED
        if cleaner:
            record.flags |= FLAG_CLEANER
            self._log_record(record)
        else:
            self._emit(record)

    def _disk_write(self, lba: int, data: bytes) -> None:
        """All LD write-path disk writes funnel through here (write-amp)."""
        self.disk.write(lba, data)
        self.stats.data_bytes_physical += len(data)

    def _disk_barrier(self, label: str) -> None:
        """Announce a write-ordering point to the disk.

        Free in simulated time on SimulatedDisk; the crash-state
        explorer's RecordingDisk closes a reorder epoch here.
        """
        self.disk.barrier(label)

    def _write_open_image(self) -> None:
        """Write the open segment (summary + data so far) to its slot."""
        assert self._open is not None
        image = self._open.image()
        lba = self.layout.slot_lba(self._open.index)
        tr = self.tracer
        with (
            tr.span("lld.segment_image_write", slot=self._open.index, nbytes=len(image))
            if tr
            else NULL_SPAN
        ):
            if self.config.torn_write_protection and len(image) > SECTOR:
                # Atomic summary update: everything past the header sector
                # first, then the single-sector header flip. Until the flip,
                # the slot's previous summary parses (its record bytes are a
                # byte-identical prefix when re-flushing the same slot, and a
                # stale summary losing its body only hides already-superseded
                # records); after the flip, the new summary is complete.
                self._disk_write(lba + 1, image[SECTOR:])
                self._disk_barrier("summary-guard")
                self._disk_write(lba, image[:SECTOR])
            else:
                self._disk_write(lba, image)
        self._open.mark_durable()
        self._after_open_segment_write()

    def _write_open_delta(self) -> int:
        """Delta partial flush: at most two contiguous writes.

        Returns the number of disk writes issued. The first flush onto a
        slot writes the full image (one contiguous write that also retires
        the slot's stale previous summary); later flushes write only the
        data tail past the durable watermark and — when records were
        appended — the summary prefix. The data tail goes first: a crash
        between the two writes leaves the previous summary on disk, which
        describes only the durable prefix, so recovery sees exactly the
        state of the previous flush.

        With ``torn_write_protection`` the summary prefix itself is split:
        record-tail sectors, a barrier, then the sector-0 header flip, so
        a torn summary write can never invalidate the previous flush (at
        most three writes plus a barrier).
        """
        seg = self._open
        assert seg is not None
        if not seg.summary_dirty and not seg.data_dirty:
            return 0
        if seg.never_flushed:
            self._write_open_image()
            self.stats.partial_full_writes += 1
            return 1
        tr = self.tracer
        writes = 0
        base_lba = self.layout.slot_lba(seg.index)
        if seg.data_dirty:
            sector, tail = seg.data_tail()
            with (
                tr.span("lld.data_tail_write", slot=seg.index, nbytes=len(tail))
                if tr
                else NULL_SPAN
            ):
                self._disk_write(base_lba + self.config.summary_sectors + sector, tail)
            self.stats.partial_delta_data_bytes += len(tail)
            writes += 1
        if seg.summary_dirty:
            summary = seg.summary_delta_image()
            with (
                tr.span("lld.summary_write", slot=seg.index, nbytes=len(summary))
                if tr
                else NULL_SPAN
            ):
                if self.config.torn_write_protection:
                    # Sectors before the watermark sector are byte-identical
                    # on disk (records are append-only); rewrite only from the
                    # first sector with new record bytes, excluding sector 0,
                    # which is flipped atomically after the barrier.
                    tail_start = max(1, seg.durable_summary_used // SECTOR)
                    summary_tail = summary[tail_start * SECTOR :]
                    if summary_tail:
                        self._disk_write(base_lba + tail_start, summary_tail)
                        self.stats.partial_delta_summary_bytes += len(summary_tail)
                        writes += 1
                    self._disk_barrier("summary-guard")
                    self._disk_write(base_lba, summary[:SECTOR])
                    self.stats.partial_delta_summary_bytes += SECTOR
                    writes += 1
                else:
                    self._disk_write(base_lba, summary)
                    self.stats.partial_delta_summary_bytes += len(summary)
                    writes += 1
        seg.mark_durable()
        self.stats.partial_delta_flushes += 1
        self._after_open_segment_write()
        return writes

    def _after_open_segment_write(self) -> None:
        """Shared bookkeeping once the open segment's slot is up to date."""
        assert self._open is not None
        # Order the image write before everything that follows it — in
        # particular the summary scrubs below, which are only safe once
        # the records re-logged out of the scrubbed slots are durable in
        # the image just written.
        self._disk_barrier("segment-image")
        if self.nvram is not None and self.nvram.slot == self._open.index:
            self.nvram.clear()  # the disk copy supersedes the NVRAM image
        min_ts = self._open.min_timestamp()
        if min_ts is None:
            self.state.summary_min_ts.pop(self._open.index, None)
        else:
            self.state.summary_min_ts[self._open.index] = min_ts
        self._process_pending_scrubs()

    def _process_pending_scrubs(self) -> None:
        """Invalidate stale summaries of cleaned slots.

        Runs right after an open-segment image hits the disk, because at
        that moment every record re-logged out of the cleaned slots is
        durable, so destroying their stale summaries cannot lose anything.
        """
        if not self._pending_scrubs:
            return
        open_index = self._open.index if self._open is not None else -1
        empty = empty_summary(self.config.summary_capacity)
        for slot in sorted(self._pending_scrubs):
            if slot == open_index or self.state.usage.get(slot, 0) > 0:
                continue
            self._disk_write(self.layout.slot_lba(slot), empty)
            self.state.summary_min_ts.pop(slot, None)
        self._pending_scrubs.clear()
        self.cleaner.drop_dead_tombstones()

    def _seal_segment(self) -> None:
        """Write the open segment out in full and switch to a fresh slot."""
        assert self._open is not None
        if self._open.is_empty:
            return
        tr = self.tracer
        with tr.span("lld.segment_seal", slot=self._open.index) if tr else NULL_SPAN:
            self.compression.drain_pipeline()
            self._write_open_image()
            self.stats.segments_sealed += 1
            self._switch_to_slot(self._pick_free_slot())
        if not self._cleaning:
            tombstones = len(self.state.tombstones)
            if tombstones > self.config.max_tombstones and not self._compacting:
                self._compacting = True
                try:
                    # Shallow compaction (scrub free slots) normally; a deep
                    # pass (clean live cold segments) only if the table has
                    # grown far past its target.
                    self.cleaner.compact_tombstones(
                        self.config.max_tombstones // 2,
                        deep=tombstones > 8 * self.config.max_tombstones,
                    )
                finally:
                    self._compacting = False
            self.cleaner.ensure_free(self.config.min_free_segments)

    def _pick_free_slot(self) -> int:
        current = self._open.index if self._open is not None else -1
        state = self.state

        def rank(slot: int) -> int:
            # Prefer slots whose on-disk summary holds nothing at all,
            # then pure-stale summaries (overwrite is free), and only as a
            # last resort summaries with live metadata — recycling those
            # forces re-logging every tuple homed in them.
            if slot not in state.summary_min_ts:
                return 0
            if not state.slot_holds_metadata(slot):
                return 1
            return 2

        # The free-slot set is maintained incrementally by LLDState as
        # usage crosses zero, so a seal ranks only the actual candidates
        # instead of rescanning every segment.
        ranks = {slot: rank(slot) for slot in state.free_slots if slot != current}
        if not ranks:
            raise OutOfSpaceError("no free segments left")
        best_rank = min(ranks.values())
        candidates = sorted(slot for slot, r in ranks.items() if r == best_rank)
        spindles = self.layout.slot_spindles
        if spindles is not None and current >= 0:
            # Multi-spindle placement: round-robin whole slots across the
            # member disks so consecutive sealed segments — and the
            # cleaner traffic chasing them — land on different spindles
            # and their writes overlap in simulated time. Among slots on
            # the preferred spindle, keep the sequential-layout bias.
            n = self.layout.spindle_count
            cur_spindle = spindles[current]
            parity = self.layout.slot_parity_spindles
            cur_parity = parity[current] if parity is not None else None

            def spindle_distance(slot: int) -> int:
                # On parity layouts the just-sealed slot's write also
                # busies its parity-chunk member (rotating for RAID-5), so
                # a candidate whose data lands there is as bad as staying
                # on the current spindle: push it past every real ring
                # distance.
                if cur_parity is not None and spindles[slot] == cur_parity:
                    return n
                return (spindles[slot] - cur_spindle - 1) % n

            return min(
                candidates,
                key=lambda slot: (spindle_distance(slot), slot <= current, slot),
            )
        # Prefer the next slot after the current one for sequential layout.
        following = [slot for slot in candidates if slot > current]
        return following[0] if following else candidates[0]

    def _switch_to_slot(self, slot: int) -> None:
        """Open a fresh in-memory segment over ``slot``.

        Any metadata whose latest on-disk tuple lives in ``slot``'s stale
        summary is re-logged first: the write that eventually replaces the
        stale summary then carries the re-logged tuples, atomically.
        """
        self._pending_scrubs.discard(slot)
        self._open = OpenSegment(slot, self.config)
        self._relog_slot(slot)

    def _relog_slot(self, slot: int) -> None:
        state = self.state
        for key in sorted(state.segment_keys.get(slot, set())):
            kind, ident = key
            self.stats.records_relogged += 1
            if kind == KIND_LINK:
                entry = state.blocks.get(ident)
                if entry is not None:
                    self._log_record(LinkRecord(bid=ident, successor=entry.successor))
            elif kind == KIND_FIRST:
                lst = state.lists.get(ident)
                if lst is not None:
                    self._log_record(ListFirstRecord(lid=ident, first=lst.first))
            elif kind == KIND_META:
                lst = state.lists.get(ident)
                if lst is not None:
                    self._log_record(
                        ListMetaRecord(lid=ident, hints=lst.hints.pack())
                    )
        self._relog_tombstones(slot)

    def _relog_tombstones(self, slot: int) -> None:
        """Re-log or drop tombstones homed in ``slot`` (see state docstring)."""
        state = self.state
        homed = state.tombstones_homed_in(slot)
        if not homed:
            return
        min_ts = state.min_summary_timestamp(exclude=slot)
        for tomb in homed:
            if min_ts is None or min_ts >= tomb.death_timestamp:
                # No summary can still hold records older than the death:
                # the tombstone has done its job.
                state.drop_tombstone((tomb.kind, tomb.ident))
                self.stats.tombstones_dropped += 1
                continue
            if tomb.kind == "block":
                record: Record = BlockDeadRecord(
                    bid=tomb.ident, death_timestamp=tomb.death_timestamp
                )
            else:
                record = ListDeadRecord(
                    lid=tomb.ident, death_timestamp=tomb.death_timestamp
                )
            record.flags |= FLAG_CLEANER
            self._log_record(record)
            self.stats.records_relogged += 1

    # ------------------------------------------------------------------
    # Compression plumbing
    # ------------------------------------------------------------------

    def _compress(self, data: bytes) -> bytes:
        if self.config.model_compression_cost:
            return self.compression.compress_bytes(data, pipelined=True)
        return raw_compress(data)

    def _decompress(self, raw: bytes, length: int) -> bytes:
        if self.config.model_compression_cost:
            return self.compression.decompress_bytes(raw, length)
        return raw_decompress(raw, length)

    # ------------------------------------------------------------------
    # Maintenance entry points (cleaning / reorganization)
    # ------------------------------------------------------------------

    def clean(self, count: int = 1) -> int:
        """Explicitly clean up to ``count`` segments; returns segments cleaned."""
        self._require_init()
        return self.cleaner.clean_segments(count)

    def reorganize(self, max_blocks: int | None = None) -> int:
        """Idle-time reorganizer: rewrite lists in order for clustering.

        Returns the number of blocks rewritten. See
        :mod:`repro.lld.reorganizer`.
        """
        self._require_init()
        from repro.lld.reorganizer import reorganize

        return reorganize(self, max_blocks=max_blocks)

    def reorganize_hot(self, top_fraction: float = 0.1) -> int:
        """Cluster the hottest blocks together (paper §5.3, Akyürek &
        Salem's adaptive rearrangement applied to LD)."""
        self._require_init()
        from repro.lld.reorganizer import reorganize_hot

        return reorganize_hot(self, top_fraction=top_fraction)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def open_segment_index(self) -> int | None:
        """Index of the segment currently being filled (None when offline)."""
        return self._open.index if self._open is not None else None

    def free_segment_count(self) -> int:
        """Number of completely empty segment slots."""
        current = self._open.index if self._open is not None else -1
        free = self.state.free_slots
        return len(free) - (1 if current in free else 0)

    def __repr__(self) -> str:
        status = "online" if self._initialized else "offline"
        return (
            f"LLD({status}, segments={self.layout.segment_count}, "
            f"blocks={len(self.state.blocks)}, lists={len(self.state.lists)})"
        )
