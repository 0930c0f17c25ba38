"""Unit tests for the LD-level read cache (LRU, byte bound, counters)."""

import pytest

from repro.lld.readcache import ReadCache, ReadCacheCounters


def test_hit_and_miss_counters():
    cache = ReadCache(1024)
    assert cache.get(1) is None
    cache.put(1, b"abc")
    assert cache.get(1) == b"abc"
    assert cache.counters.cache_misses == 1
    assert cache.counters.cache_hits == 1
    assert cache.counters.cache_inserts == 1


def test_empty_block_contents_are_cacheable():
    cache = ReadCache(16)
    cache.put(7, b"")
    # b"" is falsy but a perfectly valid cached value.
    assert cache.get(7) == b""
    assert 7 in cache


def test_lru_eviction_order():
    cache = ReadCache(3)
    cache.put(1, b"a")
    cache.put(2, b"b")
    cache.put(3, b"c")
    # Touch 1 so it becomes MRU; inserting 4 must evict 2 (the LRU).
    assert cache.get(1) == b"a"
    cache.put(4, b"d")
    assert 2 not in cache
    assert 1 in cache and 3 in cache and 4 in cache
    assert cache.counters.cache_evictions == 1


def test_byte_bound_is_strict():
    cache = ReadCache(10)
    cache.put(1, b"x" * 4)
    cache.put(2, b"y" * 4)
    cache.put(3, b"z" * 4)  # 12 bytes > 10: must evict down to the bound
    assert cache.current_bytes <= 10
    assert 1 not in cache
    assert cache.current_bytes == 8


def test_oversized_insert_rejected_without_thrash():
    cache = ReadCache(8)
    cache.put(1, b"a" * 8)
    assert cache.put(2, b"b" * 9) is False
    # The resident entry survives; nothing was evicted for a lost cause.
    assert 1 in cache
    assert cache.counters.cache_evictions == 0


def test_replacing_entry_adjusts_byte_accounting():
    cache = ReadCache(100)
    cache.put(1, b"a" * 60)
    cache.put(1, b"b" * 10)
    assert cache.current_bytes == 10
    assert cache.get(1) == b"b" * 10


def test_invalidate_removes_and_counts():
    cache = ReadCache(64)
    cache.put(1, b"abc")
    assert cache.invalidate(1) is True
    assert cache.invalidate(1) is False  # already gone
    assert 1 not in cache
    assert cache.get(1) is None
    assert cache.counters.cache_invalidations == 1
    assert cache.current_bytes == 0


def test_prefetch_lifecycle_used():
    cache = ReadCache(64)
    cache.put(1, b"abc", prefetched=True)
    assert cache.counters.prefetch_issued == 1
    assert cache.get(1) == b"abc"
    assert cache.counters.prefetch_used == 1
    # A second hit does not double-count "used".
    cache.get(1)
    assert cache.counters.prefetch_used == 1
    assert cache.counters.prefetch_wasted == 0


def test_prefetch_lifecycle_wasted_on_eviction_and_invalidation():
    cache = ReadCache(4)
    cache.put(1, b"aa", prefetched=True)
    cache.put(2, b"bb", prefetched=True)
    cache.put(3, b"cc")  # evicts 1, never read -> wasted
    assert cache.counters.prefetch_wasted == 1
    cache.invalidate(2)  # never read either -> wasted
    assert cache.counters.prefetch_wasted == 2
    assert cache.counters.prefetch_used == 0


def test_clear_drops_everything_without_counter_churn():
    cache = ReadCache(64)
    cache.put(1, b"a")
    cache.put(2, b"b", prefetched=True)
    before = (
        cache.counters.cache_evictions,
        cache.counters.cache_invalidations,
        cache.counters.prefetch_wasted,
    )
    cache.clear()
    assert len(cache) == 0
    assert cache.current_bytes == 0
    after = (
        cache.counters.cache_evictions,
        cache.counters.cache_invalidations,
        cache.counters.prefetch_wasted,
    )
    assert before == after


def test_contains_has_no_side_effects():
    cache = ReadCache(8)
    cache.put(1, b"a")
    cache.put(2, b"b")
    hits, misses = cache.counters.cache_hits, cache.counters.cache_misses
    assert 1 in cache
    assert 99 not in cache
    assert (cache.counters.cache_hits, cache.counters.cache_misses) == (hits, misses)
    # __contains__ must not refresh LRU: 1 is still the eviction victim.
    cache.put(3, b"c" * 7)
    assert 1 not in cache


def test_arrival_is_what_put_was_given():
    cache = ReadCache(64)
    cache.put(1, b"a", at=2.5)
    cache.put(2, b"b")
    hits = cache.counters.cache_hits
    assert (cache.arrival(1), cache.arrival(2), cache.arrival(99)) == (2.5, 0.0, 0.0)
    assert cache.counters.cache_hits == hits
    cache.put(1, b"c", at=3.0)  # a later fetch replaces the stamp too
    assert cache.arrival(1) == 3.0


def test_external_counter_sink():
    counters = ReadCacheCounters()
    cache = ReadCache(64, counters=counters)
    cache.put(1, b"a")
    cache.get(1)
    cache.get(2)
    assert counters.cache_inserts == 1
    assert counters.cache_hits == 1
    assert counters.cache_misses == 1


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ReadCache(-1)


# ----------------------------------------------------------------------
# Crash correctness: the cache is volatile and must never leak stale
# pre-crash bytes into a recovered instance.
# ----------------------------------------------------------------------


from tests.lld.conftest import make_lld, reopen


def build_sealed_cached_lld(n_blocks=12):
    """A cached LLD whose blocks live in a sealed segment (so reads go
    through the disk + cache path, not the in-memory open segment)."""
    lld = make_lld(read_cache_enabled=True, read_cache_bytes=256 * 1024)
    lid = lld.new_list()
    bids = []
    pred = -1
    for i in range(n_blocks):
        bid = lld.new_block(lid, pred)
        lld.write(bid, bytes([i + 1]) * 4096)
        bids.append(bid)
        pred = bid
    lld.flush()
    assert lld.stats.segments_sealed >= 1
    return lld, lid, bids


def test_crash_clears_the_cache():
    lld, _lid, bids = build_sealed_cached_lld()
    lld.read(bids[0])  # populate the cache from the sealed segment
    assert lld.read_cache.current_bytes > 0
    lld.crash()
    assert lld.read_cache.current_bytes == 0


def test_recovered_instance_starts_cold_and_serves_acked_content():
    lld, _lid, bids = build_sealed_cached_lld()
    for bid in bids:
        lld.read(bid)  # warm the pre-crash cache
    fresh = reopen(lld)
    assert fresh.read_cache is not None
    assert fresh.read_cache.current_bytes == 0
    misses_before = fresh.read_cache.counters.cache_misses
    for i, bid in enumerate(bids):
        assert fresh.read(bid) == bytes([i + 1]) * 4096
    assert fresh.read_cache.counters.cache_misses > misses_before


def test_recovery_never_serves_unflushed_overwrite_from_cache():
    """An overwrite that was cached but never flushed must revert to the
    acknowledged version after a crash — the cache cannot resurrect it."""
    lld, _lid, bids = build_sealed_cached_lld()
    victim = bids[0]
    acked = bytes([1]) * 4096
    assert lld.read(victim) == acked  # cached now
    unflushed = b"version-two" * 150
    lld.write(victim, unflushed)
    # The write path must already have invalidated/updated the cache so
    # the live instance serves the new version...
    assert lld.read(victim) == unflushed
    # ...but after a crash, only the flushed version exists.
    fresh = reopen(lld)
    assert fresh.read(victim) == acked


def test_recovered_read_ahead_stages_only_durable_bytes():
    """Read-ahead in the recovered instance prefetches from the recovered
    log, so list successors come back with their acknowledged contents."""
    lld, _lid, bids = build_sealed_cached_lld()
    for bid in bids:
        lld.read(bid)  # warm the pre-crash cache
    fresh = reopen(lld)
    assert fresh.read(bids[0]) == bytes([1]) * 4096
    # Whatever read-ahead staged must match the durable contents.
    for i, bid in enumerate(bids):
        assert fresh.read(bid) == bytes([i + 1]) * 4096
