"""LLD: the log-structured Logical Disk (paper section 3)."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from repro.compress.model import CompressionModel
from repro.disk.disk import SimulatedDisk
from repro.ld.errors import ARUError, LDError, NoSuchBlockError, OutOfSpaceError
from repro.ld.hints import LIST_HEAD, ListHints
from repro.ld.interface import Arrived, ArrivedBlocks, LogicalDisk, Reservation
from repro.ld.reservations import ReservationBook
from repro.lld.checkpoint import CheckpointRegion
from repro.lld.cleaner import Cleaner
from repro.lld.config import MIN_FREE_SEGMENTS, LLDConfig
from repro.lld.log import LogWriter
from repro.lld.records import (
    FLAG_COMPRESSED,
    BlockDeadRecord,
    BlockRecord,
    LinkRecord,
    ListDeadRecord,
    ListFirstRecord,
    ListMetaRecord,
)
from repro.lld.readcache import ReadCache, ReadCacheCounters
from repro.lld.recovery import RecoveryReport, run_recovery
from repro.lld.segment import DiskLayout
from repro.lld.state import NO_SEGMENT, BlockEntry, LLDState
from repro.obs import stack
from repro.obs.metrics import Counters
from repro.obs.trace import NULL_SPAN


@dataclass(slots=True)
class TenantCounters(Counters):
    """Per-tenant slice of the hot-path counters.

    Kept deliberately tiny (a slotted bag of ints) because these bump
    inside the read/write hot paths whenever a tenant is bound via
    :meth:`LLD.set_tenant`. With no tenant bound the cost is one load
    and one branch per operation — the multi-tenant server binds the
    tenant around each dispatched op; single-caller stacks never pay.
    """

    blocks_read: int = 0
    blocks_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    memory_reads: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    flushes: int = 0


@dataclass(slots=True)
class LLDStats(ReadCacheCounters):
    """Operation counters for benchmarks and tests; the read cache's
    hit/miss/prefetch counters are the inherited fields."""

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
    # Seals that found a durable prefix on the slot and wrote only the
    # rest (a seal is not a partial flush: the partial_* counters above
    # stay partial-only), and the bytes those seals wrote.
    seals_by_delta: int = 0
    seal_delta_bytes: int = 0
    # Stripe rows (layouts that have them): writes that carried several
    # sealed segments at once, the segments they carried, and the
    # single-sector header writes that then committed them in log order.
    rows_written: int = 0
    segments_gathered: int = 0
    header_commits: int = 0
    # Running checkpoints (two-copy regions): those written and their
    # bytes (not in data_bytes_physical), and the slot openings that
    # needed one and could not take it.
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    checkpoints_refused: int = 0

    # Per-tenant counter slices, populated only when a multi-tenant
    # server binds tenants with :meth:`LLD.set_tenant` (name -> counters).
    tenants: dict = field(default_factory=dict)

    extra: dict = field(default_factory=dict)

    DERIVED = ("write_amplification",)

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


class LLD(LogicalDisk):
    """Log-structured implementation of the LD interface.

    Dirty blocks are collected in an in-memory segment and written to disk
    in one long contiguous operation; segment summaries log all metadata;
    recovery reads a checkpoint, the summaries of the slots it listed and
    the chain of slots opened after them, or sweeps every summary
    (DESIGN.md §17). See the package
    docstring for the deviations from the paper (COMMIT records, memory-
    only list of lists).

    This class is the LD surface, the read path, space accounting and
    stats; the tables are :attr:`state`, and everything that appends to
    the log or writes to the disk is :attr:`log`
    (:class:`~repro.lld.log.LogWriter`), with :attr:`cleaner` and the
    reorganizers as its clients.
    """

    #: The cleaner's free-slot target (reported in the ``space`` registry).
    min_free_segments = MIN_FREE_SEGMENTS

    def __init__(
        self,
        disk: SimulatedDisk,
        config: LLDConfig | None = None,
        compression: CompressionModel | None = None,
        nvram=None,
        tracer=None,
    ) -> None:
        self.disk = disk
        #: ``tracer`` / ``events``: optional :class:`repro.obs.Tracer` and
        #: :class:`repro.obs.EventLog`, the disk's unless a tracer is given.
        stack.inherit(self, disk, tracer)
        self.config = config or LLDConfig()
        self.layout = DiskLayout(disk, self.config)
        self.state = LLDState()
        self.checkpoint = CheckpointRegion(disk, self.layout, self.config)
        self.compression = compression or CompressionModel(disk.clock)
        self.stats = LLDStats()
        self.recovery_report: RecoveryReport | None = None
        #: LD-level block cache (None when disabled). The cache shares the
        #: stats object so hit/miss/prefetch counters land in LLDStats.
        self.read_cache: ReadCache | None = (
            ReadCache(self.config.read_cache_bytes, counters=self.stats)
            if self.config.read_cache_enabled
            else None
        )
        #: The log writer: open segment, append path, every disk write.
        #: ``nvram`` (paper §5.3) lives there; pass the same object to the
        #: post-crash instance.
        self.log = LogWriter(
            disk,
            self.config,
            self.layout,
            self.state,
            self.stats,
            self.compression,
            self.checkpoint,
            nvram=nvram,
            read_cache=self.read_cache,
            tracer=self.tracer,
        )
        self.cleaner = Cleaner(self)
        self.log.after_seal = self.cleaner.after_seal
        self.log.victims = self.cleaner.victims

        self._initialized = False
        #: Per-tenant counter slice currently on the wire (None = global
        #: counters only). Bound by the multi-tenant server around each
        #: dispatched op via :meth:`set_tenant`.
        self._tenant: TenantCounters | None = None
        self._reservations = ReservationBook(self.config.block_size)
        #: Read frequency per block, feeding the adaptive hot-block
        #: reorganizer (paper §5.3). Memory-only; reset at startup.
        self.read_counts: Counter[int] = Counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Start up, after a clean shutdown or a crash alike: load the
        newest checkpoint and replay the summaries of the slots it listed
        and of the chain opened after them, or — with no usable copy —
        sweep every summary (:func:`~repro.lld.recovery.run_recovery`;
        ``recovery_report`` says which). A log recovered from a checkpoint
        goes on where the chain ends, or with a listed slot; only when it
        has neither does start-up write — a checkpoint."""
        if self._initialized:
            raise LDError("LD already initialized")
        if self.read_cache is not None:
            self.read_cache.clear()  # volatile: always starts cold
        self.log.replay_nvram()
        self.recovery_report = run_recovery(self)
        self.state.init_slots(self.layout.segment_count)
        self.log.open_next()
        self.cleaner.keep_a_slot_to_open()
        self._initialized = True

    def shutdown(self) -> None:
        """Flush, take the last checkpoint, and go offline. Raises
        :class:`~repro.lld.checkpoint.CheckpointTooLargeError` when the
        tables do not fit in one copy of the checkpoint region."""
        self._require_init()
        if self.open_aru_count:
            raise ARUError(
                f"cannot shut down with {self.open_aru_count} "
                "atomic recovery unit(s) open"
            )
        self.flush()
        self.log.shutdown_checkpoint()
        self._initialized = False
        self.log.open = None

    def crash(self) -> None:
        """Simulate a power failure: all main-memory state is lost.

        The disk retains exactly what was physically written. Create a new
        :class:`LLD` on the same disk and call :meth:`initialize` to
        recover.
        """
        self._initialized = False
        self.log.open = None
        self.log.held.clear()  # sealed but never written: never acknowledged
        if self.read_cache is not None:
            self.read_cache.clear()  # main-memory state is lost
        power_fail = getattr(self.disk, "power_fail", None)
        if power_fail is not None:
            power_fail()  # so is the device's own (a volume's stripe cache)

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
        never-written, and open- or held-segment blocks (served from
        memory) have no physical location to seek to and return ``None``.
        """
        entry = self.state.blocks.get(bid)
        if (
            entry is None
            or entry.segment == NO_SEGMENT
            or self.log.resident(entry.segment) is not None
        ):
            return None
        lba, _nsectors, _skew = self.layout.block_extent(
            entry.segment, entry.offset, entry.stored_length
        )
        spindles = self.layout.slot_spindles
        return (spindles[entry.segment] if spindles else 0, lba)

    def read(self, bid: int, *, wait: bool = True) -> bytes:
        """One block; ``wait=False`` as in :meth:`LogicalDisk.read` — a
        block served from memory arrives ``now``."""
        self._require_init()
        tr = self.tracer
        with tr.span("lld.read", bid=bid) if tr else NULL_SPAN:
            entry, data = self._read_resident(bid)
            if data is None:
                # Miss: fetch from disk, extending the request over the
                # block's physically contiguous successor run (the list
                # structure encodes "what comes next") when read-ahead is on.
                run = [(bid, entry)]
                if self.read_cache is not None and self.config.read_ahead_blocks > 0:
                    run.extend(self._successor_run(entry))
                blocks, at = self._fetch_runs([run], readahead=True, wait=wait)
                data = blocks[0]
            elif not wait:
                at = self._arrival(bid)
            elif self.read_cache is not None:
                self._wait_for(self._arrival(bid))
        return data if wait else Arrived(data, at)

    def read_blocks(self, bids: Sequence[int], *, wait: bool = True) -> list[bytes]:
        """Vectored read: group by segment, coalesce contiguous runs.

        Equivalent to ``[self.read(b) for b in bids]`` byte-for-byte, but
        every physically contiguous run of requested blocks inside one
        segment is fetched with a single multi-sector disk request — the
        read-side payoff of the paper's clustered block lists. The runs go
        out as one batch, so with ``wait=False`` they arrive together.
        """
        self._require_init()
        tr = self.tracer
        with tr.span("lld.read_blocks", count=len(bids)) if tr else NULL_SPAN:
            blocks, at = self._read_blocks(bids, wait)
        return blocks if wait else ArrivedBlocks(blocks, at)

    def _read_blocks(self, bids: Sequence[int], wait: bool) -> tuple[list[bytes], float]:
        self.stats.vectored_reads += 1
        results: list[bytes | None] = [None] * len(bids)
        pending: dict[int, list[tuple[int, int, object]]] = {}
        ready = 0.0  # when the blocks served without I/O are in hand
        for i, bid in enumerate(bids):
            entry, data = self._read_resident(bid)
            if data is None:
                pending.setdefault(entry.segment, []).append((i, bid, entry))
            else:
                results[i] = data
                if not wait or self.read_cache is not None:
                    ready = max(ready, self._arrival(bid))
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
        blocks, at = self._fetch_runs(runs, wait=wait)
        for i, data in zip(slots, blocks):
            results[i] = data
        if wait:
            self._wait_for(ready)
        return results, max(at, ready)  # type: ignore[return-value]

    def _arrival(self, bid: int) -> float:
        """When a block served without I/O is in hand: now — or later, if a
        fetch nobody waited for (``wait=False``) put it in the read cache
        and has not arrived yet."""
        now = self.disk.clock.now
        cache = self.read_cache
        return now if cache is None else max(now, cache.arrival(bid))

    def _wait_for(self, arrival: float) -> None:
        """A waiting read served from the read cache returns no earlier
        than the fetch that filled the entry arrives."""
        clock = self.disk.clock
        if arrival > clock.now:
            clock.advance_to(arrival)

    def _read_resident(self, bid: int):
        """Serve ``bid`` without disk I/O: ``(entry, data-or-None)``.

        The one place a read is counted and probed: never-written blocks
        read as ``b""``, blocks of the open segment (and of sealed ones
        held for their row) come out of the in-memory image, and
        everything else asks the read cache. ``None`` means a miss the
        caller must hand to :meth:`_fetch_runs`.
        """
        entry = self.state.block(bid)
        if entry.segment == NO_SEGMENT:
            return entry, b""
        self.stats.blocks_read += 1
        self.read_counts[bid] += 1
        tenant = self._tenant
        if tenant is not None:
            tenant.blocks_read += 1
        seg = self.log.resident(entry.segment)
        if seg is not None:
            raw = seg.read_data(entry.offset, entry.stored_length)
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
        self,
        runs: list[list[tuple[int, object]]],
        readahead: bool = False,
        wait: bool = True,
    ) -> tuple[list[bytes], float]:
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
        Returns the decoded blocks flattened in run order, and when the
        last of them arrives (:meth:`_fetch_stored`) — the time their cache
        entries carry, so a hit cannot complete before the fetch.
        """
        cache = self.read_cache
        tenant = self._tenant
        coalesced = self.stats.coalesced_runs
        out: list[bytes] = []
        fetched, at = self._fetch_stored(runs, wait)
        for run, (_lba, _nsectors, skew), buf in fetched:
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
                    cache.put(bid, data, prefetched=prefetched, at=at)
                prefetched = readahead
        return out, at

    def _fetch_stored(self, runs: list[list[tuple[int, object]]], wait: bool = True):
        """The one stored-bytes fetch, under reads and relocation: a disk
        request per run, uncounted. Returns the ``(run, extent, buffer)``
        triples and when the last buffer arrives — ``now`` when the
        request waited for it, the device's completion time when it did
        not (``wait=False``, the bytes already in hand)."""
        disk = self.disk
        extents = [self._run_extent(run) for run in runs]
        if len(runs) > 1:
            got = disk.read_batch(
                [(lba, nsectors) for lba, nsectors, _skew in extents], wait=wait
            )
            bufs, at = (got, disk.clock.now) if wait else got
        elif runs:
            lba, nsectors, _skew = extents[0]
            got = disk.read(lba, nsectors, wait=wait)
            bufs, at = ([got], disk.clock.now) if wait else ([got[0]], got[1])
        else:
            bufs, at = [], disk.clock.now
        return zip(runs, extents, bufs), at

    def stored_bytes(self, entry: BlockEntry) -> bytes:
        """A written block's stored (possibly compressed) bytes, verbatim:
        what relocation moves. Decodes, counts and caches nothing."""
        seg = self.log.resident(entry.segment)
        if seg is not None:
            return seg.read_data(entry.offset, entry.stored_length)
        fetched, _at = self._fetch_stored([[(0, entry)]])
        ((_run, (_lba, _nsectors, skew), buf),) = fetched
        return bytes(buf[skew : skew + entry.stored_length])

    def read_list(self, lid: int) -> list[bytes]:
        """Read all of list ``lid`` in order through the vectored path."""
        self._require_init()
        return self.read_blocks(list(self.state.iter_list(lid)))

    def _decode(self, entry, raw: bytes) -> bytes:
        if entry.compressed:
            return self.compression.decompress_bytes(raw, entry.length)
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
        if entry.compress_writes and len(data) > 0:
            packed = self.compression.compress_bytes(data, pipelined=True)
            if len(packed) < len(data):
                stored = packed
                compressed = True
        overwrite_credit = entry.stored_length if entry.segment != NO_SEGMENT else 0
        self._check_space(len(stored) - overwrite_credit)
        self.log.write_block(
            bid, stored, len(data), FLAG_COMPRESSED if compressed else 0
        )
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

        # Both records are built before either is applied: applying one
        # overwrites the entry the other is read from.
        records = [
            BlockRecord(
                flags=FLAG_COMPRESSED if source.compressed else 0,
                bid=bid,
                segment=source.segment,
                offset=source.offset,
                stored_length=source.stored_length,
                length=source.length,
            )
            for bid, source in ((bid_a, entry_b), (bid_b, entry_a))
        ]
        with nullcontext() if self.in_aru else self.aru():
            for record in records:
                self.log.emit(record)

    def new_block(
        self, lid: int, pred_bid: int, reservation: Reservation | None = None
    ) -> int:
        self._require_init()
        if reservation is not None:
            self._reservations.consume(reservation)
        bid = self.state.next_bid
        if self.config.lists_enabled:
            entry = self.state.list_entry(lid)
            if pred_bid == LIST_HEAD:
                old_first = entry.first
                self.log.emit(LinkRecord(bid=bid, successor=old_first))
                self.log.emit(ListFirstRecord(lid=lid, first=bid))
            else:
                pred = self.state.block(pred_bid)
                self.log.emit(LinkRecord(bid=bid, successor=pred.successor))
                self.log.emit(LinkRecord(bid=pred_bid, successor=bid))
            self.state.inherit_compression((bid,), entry.hints.compress)
        else:
            self.log.emit(LinkRecord(bid=bid, successor=None))
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
                self.log.emit(ListFirstRecord(lid=lid, first=successor))
            else:
                self.log.emit(LinkRecord(bid=pred, successor=successor))
        self.log.emit(BlockDeadRecord(bid=bid))

    # ------------------------------------------------------------------
    # Lists
    # ------------------------------------------------------------------

    def new_list(self, pred_lid: int = LIST_HEAD, hints: ListHints | None = None) -> int:
        self._require_init()
        hints = hints or ListHints()
        lid = self.state.next_lid
        if pred_lid != LIST_HEAD:
            self.state.list_entry(pred_lid)  # validate
        self.log.emit(ListMetaRecord(lid=lid, hints=hints.pack()))
        self.log.emit(ListFirstRecord(lid=lid, first=None))
        self._position_list(lid, pred_lid)
        return lid

    def delete_list(self, lid: int, pred_lid_hint: int | None = None) -> None:
        self._require_init()
        bids = list(self.state.iter_list(lid))
        for bid in bids:
            self.log.emit(BlockDeadRecord(bid=bid))
        self.log.emit(ListDeadRecord(lid=lid))

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
            self.log.emit(LinkRecord(bid=last_bid, successor=new_head_succ))
            self.log.emit(ListFirstRecord(lid=dst_lid, first=first_bid))
        else:
            self.state.block(dst_pred_bid)  # validate
            self._emit_splice_out(src_lid, src_pred, after_last)
            dst_succ = self.state.block(dst_pred_bid).successor
            self.log.emit(LinkRecord(bid=last_bid, successor=dst_succ))
            self.log.emit(LinkRecord(bid=dst_pred_bid, successor=first_bid))
        # Update compression inheritance for the moved blocks.
        self.state.inherit_compression(chain, self.state.list_entry(dst_lid).hints.compress)

    def _emit_splice_out(
        self, src_lid: int, src_pred: int | None, after_last: int | None
    ) -> None:
        if src_pred is None:
            self.log.emit(ListFirstRecord(lid=src_lid, first=after_last))
        else:
            self.log.emit(LinkRecord(bid=src_pred, successor=after_last))

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
        if self.in_aru:
            raise ARUError("an atomic recovery unit is already open")
        return self.log.begin_aru()

    def end_aru(self) -> None:
        self._require_init()
        self.log.end_aru(commit=True)

    def abort_aru(self) -> None:
        """Abort the open ARU: its operations never commit.

        The explicit form of the :meth:`aru` context manager's exception
        path, for clients (tenant sessions, say) that drive ARUs through
        ``begin_aru``/``end_aru`` calls rather than a ``with`` block.
        In-memory state is rolled back to what a recovery would rebuild:
        the values the unit set are put back, and its records vanish at
        the next recovery.
        """
        self._require_init()
        self.log.end_aru(commit=False)

    @contextmanager
    def aru(self):
        """Context manager for a (possibly concurrent) atomic recovery unit.

        The paper's §5.4 extension: each operation belongs to an explicit
        ARU identified by id. Nesting ``with ld.aru():`` blocks interleaves
        independent ARUs; the inner one commits first. On an exception the
        ARU is aborted — rolled back in memory (:meth:`abort_aru`), its
        operations vanish at the next recovery.
        """
        self._require_init()
        arus = self.log.arus
        previous = arus.current
        current = self.log.begin_aru()
        try:
            yield current
        except BaseException:
            self.log.end_aru(commit=False, aru=current)
            raise
        finally:
            arus.current = previous
        self.log.end_aru(commit=True, aru=current)

    def attach_aru(self, aru: int) -> None:
        """Make open ARU ``aru`` (0 = none) the one new operations join.

        For a server multiplexing clients over this LD, so their units
        interleave without tagging each other's work. Raises
        :class:`~repro.ld.errors.ARUError` for an id that is not open.
        """
        self.log.arus.attach(aru)

    @property
    def in_aru(self) -> bool:
        """True while an explicit atomic recovery unit is open."""
        return bool(self.log.arus.current)

    @property
    def open_aru_count(self) -> int:
        """Number of uncommitted atomic recovery units."""
        return len(self.log.arus.pins)

    def aru_excluded_segments(self) -> set[int]:
        """Segments the cleaner must not evacuate while ARUs are open."""
        return self.log.arus.pinned_segments()

    def flush(self, *, wait: bool = True) -> float:
        """Make everything logged so far durable (paper §3.2 strategy).

        At or above the partial threshold the segment is sealed; below it
        the partially-filled segment is written to its own slot but kept in
        memory, so it keeps filling and the eventual full write replaces
        the slot without any cleaning. With ``delta_partial_flush`` (the
        default) the partial write — and the eventual seal — is
        incremental: only the summary and the data appended since the
        watermark go to disk. A flush is the acknowledgement point: it
        returns once everything written so far, sealed images still in
        flight on a multi-disk volume included, is on the medium — or,
        with ``wait=False``, it issues and orders exactly the same
        requests and returns the simulated time at which they will be,
        leaving the waiting to a caller that has something else to do
        until then (:class:`~repro.sched.LDServer`).

        Only flushes that find work count in ``stats.flushes``; a flush
        with nothing in memory — an empty open segment and no sealed one
        held for its row — counts in ``stats.flushes_noop`` instead, so
        benchmark denominators stay honest. It issues no write, but it still
        answers when what earlier flushes and seals wrote is on the medium —
        a seal, or another tenant's commit that carried this caller's
        writes, may be in flight — and a waiting one waits for that, at the
        device (a waiting barrier).
        """
        self._require_init()
        tr = self.tracer
        with tr.span("lld.flush") if tr else NULL_SPAN:
            self.compression.drain_pipeline()
            if self.log.open.is_empty and not self.log.held:
                self.stats.flushes_noop += 1
                horizon = self.disk.write_horizon()
                if wait and horizon > self.disk.clock.now:
                    self.log.barrier("flush", wait=True)  # wait in the device
                return horizon
            self.stats.flushes += 1
            if self._tenant is not None:
                self._tenant.flushes += 1
            return self.log.flush(wait)

    def flush_list(self, lid: int, *, wait: bool = True) -> float:
        """Durability for one list (the paper's easy ``fsync``)."""
        self._require_init()
        self.state.list_entry(lid)
        return self.flush(wait=wait)

    # ------------------------------------------------------------------
    # Reservations (paper section 2.2)
    # ------------------------------------------------------------------

    def reserve_blocks(self, count: int) -> Reservation:
        self._require_init()
        return self._reservations.reserve(
            count, self._free_bytes() // self.config.block_size
        )

    def cancel_reservation(self, reservation: Reservation) -> None:
        self._require_init()
        self._reservations.cancel(reservation)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def _usable_capacity(self) -> int:
        reserve = MIN_FREE_SEGMENTS * self.config.data_capacity
        return self.layout.capacity_bytes - reserve

    def _free_bytes(self) -> int:
        reserved = self._reservations.blocks * self.config.block_size
        return self._usable_capacity() - self.state.live_bytes() - reserved

    def _check_space(self, delta: int) -> None:
        if delta > 0 and delta > self._free_bytes():
            raise OutOfSpaceError(
                f"write of {delta} new bytes exceeds free space {self._free_bytes()}"
            )

    # ------------------------------------------------------------------
    # Maintenance entry points (cleaning / reorganization)
    # ------------------------------------------------------------------

    def clean(self, count: int = 1) -> int:
        """Explicitly clean up to ``count`` segments; returns segments cleaned."""
        self._require_init()
        return self.cleaner.clean_segments(count)

    def reorganize(self, max_blocks: int | None = None) -> int:
        """Idle-time reorganizer (paper §3.5): rewrite every clustered
        list's blocks back-to-back, in list-of-lists order.

        Afterwards a sequential read of any list touches consecutive disk
        locations, and the segments the blocks vacated become cleanable
        (usually outright free). Only blocks with data move; returns how
        many did (at most ``max_blocks``). Raises
        :class:`~repro.ld.errors.ARUError` inside an ARU — the reorganizer
        runs in idle periods, never in the middle of an atomic update.
        """
        self._require_idle()
        state = self.state

        def in_list_order():
            for lid in list(state.list_order):
                entry = state.lists.get(lid)
                if entry is not None and entry.hints.cluster:
                    yield from list(state.iter_list(lid))

        return self._relocate(in_list_order(), max_blocks)

    def reorganize_hot(self, top_fraction: float = 0.1) -> int:
        """Cluster the most frequently read blocks together (paper §5.3).

        Akyürek & Salem's adaptive driver copies frequently-referenced
        blocks into a reserved area to cut seek times; the paper notes "as
        LD can rearrange blocks dynamically, the proposed scheme can be
        applied to LD too". LD's version needs no reserved area: the hot
        set (by observed read counts) is rewritten back-to-back through
        the normal segment path. Returns the number of blocks moved.
        """
        self._require_idle()
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction out of (0, 1]: {top_fraction}")
        ranked = sorted(self.read_counts.items(), key=lambda item: (-item[1], item[0]))
        take = max(1, int(len(ranked) * top_fraction))
        return self._relocate([bid for bid, _count in ranked[:take]])

    def _require_idle(self) -> None:
        self._require_init()
        if self.in_aru:
            raise ARUError("cannot reorganize inside an atomic recovery unit")

    def _relocate(self, bids, limit: int | None = None) -> int:
        moved = self.log.relocate(bids, self.stored_bytes, limit)
        self.stats.reorganized_blocks += moved
        return moved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def open_segment_index(self) -> int | None:
        """Index of the segment currently being filled (None when offline)."""
        seg = self.log.open
        return seg.index if seg is not None else None

    def free_segment_count(self) -> int:
        """Number of completely empty segment slots."""
        free = self.state.free_slots
        count = len(free)
        # A slot whose current contents are in memory only — the open
        # segment's, a held one's — cannot be opened, whatever its usage.
        log = self.log
        seg = log.open
        if seg is not None and seg.index in free:
            count -= 1
        for seg in log.held:
            if seg.index in free:
                count -= 1
        return count

    def __repr__(self) -> str:
        status = "online" if self._initialized else "offline"
        return (
            f"LLD({status}, segments={self.layout.segment_count}, "
            f"blocks={len(self.state.blocks)}, lists={len(self.state.lists)})"
        )
