"""End-to-end tests for the vectored read path, read-ahead, and cache.

Equivalence is the anchor: ``read_blocks`` must match a loop of single
``read`` calls byte-for-byte in every configuration, while issuing fewer
disk requests whenever the requested blocks are physically contiguous.
The cache tests pin the invalidation contract: every mutation path that
changes a block's contents or location must drop the cached copy.
"""

import pytest

from repro.ld.hints import LIST_HEAD, ListHints
from repro.lld.config import READ_CACHE_BYTES
from tests.lld.conftest import make_lld, reopen


@pytest.fixture
def no_read_ahead(monkeypatch):
    """Read-ahead off: a miss fetches the block asked for and no more."""
    monkeypatch.setattr("repro.lld.lld.READ_AHEAD_BLOCKS", 0)


def payload(i: int) -> bytes:
    """Distinct, partially-filled block contents for block #i."""
    return bytes([0x41 + (i % 26)]) * (1000 + 137 * (i % 20))


def fill_to_seal(lld) -> None:
    """Burn rewrites on a scratch block until the open segment seals."""
    lid = lld.new_list()
    filler = lld.new_block(lid, LIST_HEAD)
    target = lld.stats.segments_sealed + 1
    while lld.stats.segments_sealed < target:
        lld.write(filler, b"\xaa" * 4096)
    lld.delete_block(filler, lid)
    lld.delete_list(lid)


def build_chain(lld, count: int, lid: int | None = None) -> tuple[int, list[int]]:
    """Write ``count`` blocks back-to-back on one list (physically contiguous)."""
    lid = lld.new_list() if lid is None else lid
    bids = []
    prev = LIST_HEAD
    for i in range(count):
        bid = lld.new_block(lid, prev)
        lld.write(bid, payload(i))
        bids.append(bid)
        prev = bid
    return lid, bids


# ----------------------------------------------------------------------
# Vectored equivalence and coalescing (default config: cache off)
# ----------------------------------------------------------------------


def test_read_blocks_equals_single_reads_on_fragmented_list():
    lld = make_lld()
    la, lb = lld.new_list(), lld.new_list()
    a_bids, b_bids = [], []
    prev_a, prev_b = LIST_HEAD, LIST_HEAD
    # Interleave so list A is fragmented into runs of 3, 2, and 3 blocks.
    for i, which in enumerate("aaabaabaaa"):
        if which == "a":
            bid = lld.new_block(la, prev_a)
            prev_a = bid
            a_bids.append(bid)
        else:
            bid = lld.new_block(lb, prev_b)
            prev_b = bid
            b_bids.append(bid)
        lld.write(bid, payload(i))
    fill_to_seal(lld)

    before = lld.disk.stats.reads
    singles = [lld.read(b) for b in a_bids]
    single_requests = lld.disk.stats.reads - before

    before = lld.disk.stats.reads
    vectored = lld.read_blocks(a_bids)
    vectored_requests = lld.disk.stats.reads - before

    assert vectored == singles
    assert single_requests == len(a_bids)
    assert vectored_requests < single_requests
    # Runs of 3 + 2 + 3 collapse to exactly three requests.
    assert vectored_requests == 3


def test_read_list_matches_concatenation_of_single_reads():
    lld = make_lld()
    lid, bids = build_chain(lld, 6)
    fill_to_seal(lld)
    assert lld.list_blocks(lid) == bids
    expected = [lld.read(b) for b in bids]
    assert lld.read_list(lid) == expected
    assert b"".join(lld.read_list(lid)) == b"".join(expected)


def test_read_blocks_handles_duplicates_empty_and_open_blocks():
    lld = make_lld()
    lid, bids = build_chain(lld, 3)
    empty = lld.new_block(lid, bids[-1])  # never written
    fill_to_seal(lld)
    fresh = lld.new_block(lid, empty)
    lld.write(fresh, b"still in the open segment")

    order = [bids[1], bids[1], empty, fresh, bids[0], bids[1]]
    expected = [lld.read(b) for b in order]
    assert lld.read_blocks(order) == expected
    assert expected[2] == b""
    assert expected[3] == b"still in the open segment"


def test_read_blocks_spanning_multiple_segments():
    lld = make_lld()
    lid, bids = build_chain(lld, 12)  # 48 KB of data: crosses 64 KB segments
    fill_to_seal(lld)
    assert lld.read_blocks(bids) == [lld.read(b) for b in bids]


def test_read_blocks_on_compressed_list():
    lld = make_lld()
    lid = lld.new_list(hints=ListHints(compress=True))
    _, bids = build_chain(lld, 5, lid=lid)
    fill_to_seal(lld)
    datas = lld.read_blocks(bids)
    assert datas == [lld.read(b) for b in bids]
    assert datas == [payload(i) for i in range(5)]


def test_coalesced_run_histogram_recorded():
    lld = make_lld()
    _, bids = build_chain(lld, 4)
    fill_to_seal(lld)
    lld.read_blocks(bids)
    assert lld.stats.vectored_reads == 1
    assert sum(lld.stats.coalesced_runs.values()) >= 1
    assert max(lld.stats.coalesced_runs) >= 2  # at least one multi-block run


# ----------------------------------------------------------------------
# Read cache: hits, bounds, equivalence
# ----------------------------------------------------------------------


def test_cache_disabled_by_default():
    lld = make_lld()
    assert lld.read_cache is None


def test_cache_serves_repeat_reads_without_disk_io(no_read_ahead):
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 3)
    fill_to_seal(lld)
    first = [lld.read(b) for b in bids]
    before = lld.disk.stats.reads
    second = [lld.read(b) for b in bids]
    assert second == first
    assert lld.disk.stats.reads == before
    assert lld.stats.cache_hits >= len(bids)


def test_cache_stays_within_byte_bound():
    lld = make_lld(capacity_mb=8, read_cache_enabled=True)
    _, bids = build_chain(lld, 600)  # ~1.4 MB: more than the cache holds
    fill_to_seal(lld)
    lld.read_blocks(bids)
    assert lld.read_cache is not None
    assert lld.read_cache.current_bytes <= READ_CACHE_BYTES
    assert lld.stats.cache_evictions > 0
    # And it still answers correctly despite evictions.
    assert lld.read_blocks(bids) == [payload(i) for i in range(600)]


def test_cache_on_and_off_agree_byte_for_byte():
    on = make_lld(read_cache_enabled=True)
    off = make_lld()
    _, bids_on = build_chain(on, 8)
    _, bids_off = build_chain(off, 8)
    fill_to_seal(on)
    fill_to_seal(off)
    order = [0, 3, 3, 7, 1, 0, 6, 2, 5, 4, 7, 0]
    got_on = [on.read(bids_on[i]) for i in order] + on.read_blocks(bids_on)
    got_off = [off.read(bids_off[i]) for i in order] + off.read_blocks(bids_off)
    assert got_on == got_off


# ----------------------------------------------------------------------
# Cache invalidation: every mutation path
# ----------------------------------------------------------------------


def test_overwrite_invalidates_cached_block(no_read_ahead):
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 2)
    fill_to_seal(lld)
    bid = bids[0]
    assert lld.read(bid) == payload(0)
    assert bid in lld.read_cache
    lld.write(bid, b"rewritten")
    assert bid not in lld.read_cache
    assert lld.stats.cache_invalidations >= 1
    fill_to_seal(lld)
    assert lld.read(bid) == b"rewritten"


def test_delete_invalidates_cached_block(no_read_ahead):
    lld = make_lld(read_cache_enabled=True)
    lid, bids = build_chain(lld, 2)
    fill_to_seal(lld)
    lld.read(bids[1])
    assert bids[1] in lld.read_cache
    lld.delete_block(bids[1], lid, pred_bid_hint=bids[0])
    assert bids[1] not in lld.read_cache


def test_swap_contents_invalidates_both_blocks(no_read_ahead):
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 2)
    fill_to_seal(lld)
    a, b = bids
    assert lld.read(a) == payload(0)
    assert lld.read(b) == payload(1)
    lld.swap_contents(a, b)
    assert lld.read(a) == payload(1)
    assert lld.read(b) == payload(0)


def test_cleaning_invalidates_and_rereads_from_new_location(no_read_ahead):
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 4)
    fill_to_seal(lld)
    bid = bids[0]
    assert lld.read(bid) == payload(0)
    assert bid in lld.read_cache
    entry = lld.state.block(bid)
    old_segment = entry.segment
    lba, nsectors, _skew = lld.layout.block_extent(
        old_segment, entry.offset, entry.stored_length
    )
    lld.cleaner.clean_segment(old_segment)
    # The move re-logged the block -> the cached copy must be gone.
    assert bid not in lld.read_cache
    assert lld.state.block(bid).segment != old_segment
    # Destroy the old physical location: a stale read would now return
    # garbage, so a correct answer proves the new location is used.
    lld.disk.corrupt(lba, nsectors)
    assert lld.read(bid) == payload(0)


def test_hot_reorganizer_invalidates_moved_blocks(no_read_ahead):
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 6)
    fill_to_seal(lld)
    for _ in range(5):
        for b in bids[:3]:
            lld.read(b)  # make these hot (and cached)
    invalidations_before = lld.stats.cache_invalidations
    moved = lld.reorganize_hot(top_fraction=0.5)
    assert moved > 0
    assert lld.stats.cache_invalidations > invalidations_before
    assert [lld.read(b) for b in bids] == [payload(i) for i in range(6)]


def test_crash_recovery_starts_with_cold_cache():
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 4)
    fill_to_seal(lld)
    lld.flush()
    lld.read_blocks(bids)
    assert len(lld.read_cache) > 0
    fresh = reopen(lld, after_crash=True)
    assert fresh.read_cache is not None
    assert len(fresh.read_cache) == 0
    assert fresh.read_blocks(bids) == [payload(i) for i in range(4)]


# ----------------------------------------------------------------------
# Read-ahead along the successor chain
# ----------------------------------------------------------------------


def test_sequential_scan_prefetches_successors():
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 8)
    fill_to_seal(lld)
    before = lld.disk.stats.reads
    assert lld.read(bids[0]) == payload(0)
    # One multi-sector request fetched the demand block and its run.
    assert lld.disk.stats.reads == before + 1
    assert lld.stats.prefetch_issued == 7
    for i, bid in enumerate(bids[1:], start=1):
        assert lld.read(bid) == payload(i)
    assert lld.disk.stats.reads == before + 1  # all served from cache
    assert lld.stats.prefetch_used == 7
    assert lld.stats.prefetch_wasted == 0


def test_read_ahead_stops_at_fragmentation_boundary():
    lld = make_lld(read_cache_enabled=True)
    la, lb = lld.new_list(), lld.new_list()
    a1 = lld.new_block(la, LIST_HEAD)
    lld.write(a1, payload(0))
    b1 = lld.new_block(lb, LIST_HEAD)
    lld.write(b1, payload(1))  # physically between a1 and a2
    a2 = lld.new_block(la, a1)
    lld.write(a2, payload(2))
    fill_to_seal(lld)
    lld.read(a1)
    # a2 is a1's list successor but not physically adjacent: no prefetch.
    assert a2 not in lld.read_cache
    assert lld.read(a2) == payload(2)


def test_read_ahead_disabled_with_zero_blocks(no_read_ahead):
    lld = make_lld(read_cache_enabled=True)
    _, bids = build_chain(lld, 4)
    fill_to_seal(lld)
    lld.read(bids[0])
    assert lld.stats.prefetch_issued == 0
    assert all(b not in lld.read_cache for b in bids[1:])
