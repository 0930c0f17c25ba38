"""Configuration for the log-structured LD."""

from __future__ import annotations

from dataclasses import dataclass

SECTOR = 512

#: Cleaning policies understood by :mod:`repro.lld.cleaner`.
CLEAN_POLICIES = ("greedy", "cost_benefit")

#: The cleaner's target: empty segment slots kept after every seal.
MIN_FREE_SEGMENTS = 2

#: Openings between running checkpoints, and the slots each lists for the
#: log to open first (rounded up to whole stripe rows): what a recovery
#: from it reads in one batch before it follows the chain.
CHECKPOINT_RESERVE = 8


@dataclass(frozen=True)
class LLDConfig:
    """Tunables of LLD.

    Defaults follow the paper's measured configuration: 512 KB segments,
    4 KB (maximum) blocks, a one-block segment summary, and a 75%
    partial-segment threshold (paper §3.2's example value).

    Attributes:
        segment_size: bytes per on-disk segment slot.
        summary_capacity: bytes reserved at the start of each slot for the
            segment summary (fixed location — required by one-sweep
            recovery, paper §3.2). 0 selects ``max(4 KB, segment/32)``.
        block_size: maximum logical block size.
        partial_threshold: fill fraction at or above which a ``Flush``
            seals the segment instead of writing it partially.
        checkpoint_slots: segment-sized slots reserved at the front of the
            disk for the checkpoint region. From two on, the region holds
            two copies of the state image and LLD takes running
            checkpoints: a crash recovers from the newest copy, the
            summaries of the slots it listed and the chain of slots opened
            after them (DESIGN.md §17). One slot
            is the paper's region: an image written at shutdown only, and
            a crash recovers by sweeping every summary.
        clean_policy: ``"greedy"`` (fewest live bytes first) or
            ``"cost_benefit"`` (Sprite LFS's age-weighted benefit/cost).
        lists_enabled: when False, list maintenance is skipped entirely
            (blocks live on degenerate single-block chains); used by the
            paper's §4.2 list-overhead experiment.
        max_tombstones: deletion tombstones held in memory before the
            cleaner compacts old summaries to retire them (see
            :meth:`repro.lld.cleaner.Cleaner.compact_tombstones`). A
            tombstone costs ~50 bytes, so the default bounds the table at
            a couple hundred KB; bulk deletes run without compaction.
        read_cache_enabled: keep an LD-level LRU block cache and serve
            repeat reads (and read-ahead) from it. Off by default: the
            paper's LLD had no read cache, and the paper-reproduction
            benchmarks depend on uncached read timings.
        read_cache_bytes: strict byte bound of the read cache (default
            1 MiB). Only meaningful with ``read_cache_enabled``.
        read_ahead_blocks: on a single ``read`` that misses the cache,
            up to this many *physically contiguous* successors (along the
            block's list chain — the structure the paper says encodes
            "what comes next") are fetched in the same disk request and
            staged in the read cache. 0 disables read-ahead; it is also
            inert while the cache is disabled, since the prefetched
            blocks would have nowhere to live.
        delta_partial_flush: write an open segment's slot incrementally —
            below-threshold flushes and the seal that ends them alike.
            The paper's strategy rewrites the whole open-segment image on
            every partial flush and once more when the segment seals, so
            n small synced writes cost O(n²) disk bytes. With this on (the
            default), the open segment tracks a durable watermark and each
            partial flush issues at most two contiguous writes: the data
            tail past the watermark and the summary prefix (each only when
            it has something new). A seal over a slot that partial flushes
            already touched issues the same two writes instead of the
            image; a segment no flush has touched still seals as one
            image. The first flush onto a slot writes the full image (one
            write, which also retires the slot's stale previous summary),
            and NVRAM absorption and slot switches reset the watermark, so
            the slot ends byte-identical and recovery semantics are
            unchanged. Off reproduces the paper's full-image rewrite
            behaviour exactly, seals included.
        torn_write_protection: make every summary update atomic under torn
            (partially-applied) multi-sector writes. The crash-state
            explorer (``repro.crashsim``) found that rewriting a slot's
            summary in place — which both the full-image and the delta
            partial flush do — loses *acknowledged* records if the write
            tears after the header sector: the new header's CRC rejects
            the half-old body, recovery skips the slot, and the previous
            flush's records go with it. With this on, a summary update
            writes the record-tail sectors first (byte-identical in the
            old image's record range, records being append-only, so the
            old header stays valid), issues a barrier, then flips sector 0
            — header plus first records — as one atomic single-sector
            write. Crash before the flip reads the previous summary;
            after, the new one. Costs one extra write plus a barrier per
            summary update: measured on the composed stack (EXPERIMENTS
            "What torn-write protection costs") 0.3% to 13% of simulated
            throughput, beyond the benchmark's 5% bound on three of five
            workloads, so it is off by default. Off assumes a summary
            write is atomic; the crash states that break when it is not
            stay pinned (``TestTornSummaryRegression``,
            ``tests/lld/test_seal_delta.py``), and the crash matrix runs
            with it on.
    """

    segment_size: int = 512 * 1024
    summary_capacity: int = 0  # 0 = auto: max(4096, segment_size / 32)
    block_size: int = 4096
    partial_threshold: float = 0.75
    checkpoint_slots: int = 2
    clean_policy: str = "greedy"
    lists_enabled: bool = True
    max_tombstones: int = 4096
    read_cache_enabled: bool = False
    read_cache_bytes: int = 1024 * 1024
    read_ahead_blocks: int = 8
    delta_partial_flush: bool = True
    torn_write_protection: bool = False

    def __post_init__(self) -> None:
        if self.segment_size % SECTOR != 0:
            raise ValueError(f"segment_size must be sector-aligned: {self.segment_size}")
        if self.summary_capacity == 0:
            # The paper packs ~128 block entries plus link tuples into one
            # 4 KB summary block with 7-12 byte tuples; our records are a
            # few times larger (explicit struct fields), so the summary
            # scales with the segment to hold a full segment's worth of
            # compressed blocks (see DESIGN.md, Substitutions).
            object.__setattr__(
                self, "summary_capacity", max(4096, self.segment_size // 32)
            )
        if self.summary_capacity % SECTOR != 0:
            raise ValueError(
                f"summary_capacity must be sector-aligned: {self.summary_capacity}"
            )
        if self.summary_capacity >= self.segment_size:
            raise ValueError("summary must be smaller than the segment")
        if self.block_size > self.data_capacity:
            raise ValueError(
                f"block_size {self.block_size} exceeds segment data capacity "
                f"{self.data_capacity}"
            )
        if not 0.0 < self.partial_threshold <= 1.0:
            raise ValueError(f"partial_threshold out of (0,1]: {self.partial_threshold}")
        if self.clean_policy not in CLEAN_POLICIES:
            raise ValueError(f"unknown clean_policy {self.clean_policy!r}")
        if self.checkpoint_slots < 1:
            raise ValueError("need at least one checkpoint slot")
        if self.read_cache_enabled and self.read_cache_bytes <= 0:
            raise ValueError(
                f"read cache enabled with no capacity: {self.read_cache_bytes}"
            )
        if self.read_ahead_blocks < 0:
            raise ValueError(
                f"read_ahead_blocks must be non-negative: {self.read_ahead_blocks}"
            )

    @property
    def data_capacity(self) -> int:
        """Bytes of block data each segment can hold."""
        return self.segment_size - self.summary_capacity

    @property
    def sectors_per_segment(self) -> int:
        return self.segment_size // SECTOR

    @property
    def summary_sectors(self) -> int:
        return self.summary_capacity // SECTOR
