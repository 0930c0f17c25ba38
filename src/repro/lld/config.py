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

#: Fill fraction at or above which a ``Flush`` seals the open segment
#: instead of writing it partially (the paper's §3.2 example value).
PARTIAL_THRESHOLD = 0.75

#: Strict byte bound of the LD read cache, when ``read_cache_enabled``.
READ_CACHE_BYTES = 1024 * 1024

#: Read-ahead, while the read cache is on: a single ``read`` that misses
#: the cache fetches up to this many *physically contiguous* successors
#: (along the block's list chain — the structure the paper says encodes
#: "what comes next") in the same disk request and stages them in the
#: cache. With the cache off the prefetched blocks would have nowhere to
#: live, and none are fetched.
READ_AHEAD_BLOCKS = 8

#: Deletion tombstones held in memory before the cleaner compacts old
#: summaries to retire them (:meth:`repro.lld.cleaner.Cleaner.
#: compact_tombstones`). A tombstone costs ~50 bytes, so this bounds the
#: table at a couple hundred KB; bulk deletes run without compaction.
MAX_TOMBSTONES = 4096


@dataclass(frozen=True)
class LLDConfig:
    """Tunables of LLD.

    Defaults follow the paper's measured configuration: 512 KB segments,
    4 KB (maximum) blocks and a one-block segment summary. The 75%
    partial-segment threshold (paper §3.2's example value), the read
    cache's 1 MiB bound, its read-ahead and the tombstone bound are the
    module constants :data:`PARTIAL_THRESHOLD`, :data:`READ_CACHE_BYTES`,
    :data:`READ_AHEAD_BLOCKS` and :data:`MAX_TOMBSTONES`.

    Attributes:
        segment_size: bytes per on-disk segment slot.
        summary_capacity: bytes reserved at the start of each slot for the
            segment summary (fixed location — required by one-sweep
            recovery, paper §3.2). 0 selects ``max(4 KB, segment/32)``.
        block_size: maximum logical block size.
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
        read_cache_enabled: keep an LD-level LRU block cache and serve
            repeat reads (and read-ahead) from it. Off by default: the
            paper's LLD had no read cache, and the paper-reproduction
            benchmarks depend on uncached read timings.
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
            behaviour exactly, seals included. Either way a torn summary
            write reads as the previous prefix (DESIGN.md §9).
    """

    segment_size: int = 512 * 1024
    summary_capacity: int = 0  # 0 = auto: max(4096, segment_size / 32)
    block_size: int = 4096
    checkpoint_slots: int = 2
    clean_policy: str = "greedy"
    lists_enabled: bool = True
    read_cache_enabled: bool = False
    delta_partial_flush: bool = True

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
        if self.clean_policy not in CLEAN_POLICIES:
            raise ValueError(f"unknown clean_policy {self.clean_policy!r}")
        if self.checkpoint_slots < 1:
            raise ValueError("need at least one checkpoint slot")

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
