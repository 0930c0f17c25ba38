"""Unit tests for the buffer cache."""

import pytest

from repro.fs.cache import BufferCache


def make_cache(capacity=1024):
    written = []
    cache = BufferCache(capacity, lambda key, data: written.append((key, data)))
    return cache, written


def test_get_miss_returns_none():
    cache, _written = make_cache()
    assert cache.get(1) is None
    assert cache.misses == 1


def test_put_get_roundtrip():
    cache, _written = make_cache()
    cache.put(1, b"hello", dirty=False)
    assert cache.get(1) == b"hello"
    assert cache.hits == 1


def test_contains():
    cache, _written = make_cache()
    cache.put(5, b"x", dirty=False)
    assert 5 in cache
    assert 6 not in cache


def test_eviction_writes_dirty_lru():
    cache, written = make_cache(capacity=1000)
    cache.put(1, b"a" * 400, dirty=True)
    cache.put(2, b"b" * 400, dirty=False)
    cache.put(3, b"c" * 400, dirty=True)  # evicts key 1
    assert written == [(1, b"a" * 400)]
    assert 1 not in cache


def test_eviction_skips_clean_buffers():
    cache, written = make_cache(capacity=1000)
    cache.put(1, b"a" * 400, dirty=False)
    cache.put(2, b"b" * 400, dirty=False)
    cache.put(3, b"c" * 400, dirty=False)
    assert written == []
    assert cache.evictions == 1


def test_lru_refresh_on_get():
    cache, written = make_cache(capacity=1000)
    cache.put(1, b"a" * 400, dirty=True)
    cache.put(2, b"b" * 400, dirty=True)
    cache.get(1)  # refresh 1; now 2 is LRU
    cache.put(3, b"c" * 400, dirty=True)
    assert written == [(2, b"b" * 400)]


def test_flush_writes_all_dirty_in_key_order():
    cache, written = make_cache()
    cache.put(3, b"c", dirty=True)
    cache.put(1, b"a", dirty=True)
    cache.put(2, b"b", dirty=False)
    count = cache.flush()
    assert count == 2
    assert [key for key, _data in written] == [1, 3]
    assert cache.dirty_count == 0


def test_flush_specific_keys():
    cache, written = make_cache()
    cache.put(1, b"a", dirty=True)
    cache.put(2, b"b", dirty=True)
    cache.flush(keys=[2])
    assert [key for key, _ in written] == [2]
    assert cache.dirty_count == 1


def test_flush_skips_keys_cleaned_by_callback():
    """A clustering writeback may clean neighbours mid-flush."""
    cache = BufferCache(10**6, lambda key, data: cache.clean(key + 1))
    cache.put(1, b"a", dirty=True)
    cache.put(2, b"b", dirty=True)
    assert cache.flush() == 1  # key 2 was cleaned by key 1's writeback


def test_drop_flushes_then_clears():
    cache, written = make_cache()
    cache.put(1, b"a", dirty=True)
    cache.drop()
    assert written == [(1, b"a")]
    assert 1 not in cache
    assert cache.used_bytes == 0


def test_forget_discards_without_writeback():
    cache, written = make_cache()
    cache.put(1, b"a", dirty=True)
    cache.forget(1)
    cache.flush()
    assert written == []


def test_replace_updates_size_accounting():
    cache, _written = make_cache()
    cache.put(1, b"a" * 100, dirty=False)
    cache.put(1, b"b" * 50, dirty=False)
    assert cache.used_bytes == 50


def test_peek_does_not_refresh_lru():
    cache, written = make_cache(capacity=1000)
    cache.put(1, b"a" * 400, dirty=True)
    cache.put(2, b"b" * 400, dirty=True)
    cache.peek(1)
    cache.put(3, b"c" * 400, dirty=True)
    assert written == [(1, b"a" * 400)]


def test_is_dirty_and_clean():
    cache, _written = make_cache()
    cache.put(1, b"a", dirty=True)
    assert cache.is_dirty(1)
    cache.clean(1)
    assert not cache.is_dirty(1)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BufferCache(0, lambda k, d: None)


# ----------------------------------------------------------------------
# Decoded views
# ----------------------------------------------------------------------


def counting_decoder():
    calls = []

    def decode(data):
        calls.append(data)
        return data.upper()

    return decode, calls


def test_view_decodes_once_per_buffer_generation():
    cache, _written = make_cache()
    decode, calls = counting_decoder()
    cache.put(1, b"abc", dirty=False)
    assert cache.view(1, decode) == b"ABC"
    assert cache.view(1, decode) is cache.view(1, decode)
    assert calls == [b"abc"]
    cache.put(1, b"xyz", dirty=True)  # a new generation of the buffer
    assert cache.view(1, decode) == b"XYZ"
    assert cache.view(1, decode) == b"XYZ"
    assert calls == [b"abc", b"xyz"]


def test_view_of_an_equal_but_new_buffer_is_decoded_again():
    # Coherence is identity of the bytes object, not equality of content.
    cache, _written = make_cache()
    decode, calls = counting_decoder()
    cache.put(1, b"abc", dirty=False)
    cache.view(1, decode)
    cache.put(1, bytes(bytearray(b"abc")), dirty=False)
    cache.view(1, decode)
    assert len(calls) == 2


def test_view_touches_neither_lru_nor_counters():
    cache, written = make_cache(capacity=1000)
    cache.put(1, b"a" * 400, dirty=True)
    cache.put(2, b"b" * 400, dirty=True)
    cache.view(1, bytes.upper)
    assert (cache.hits, cache.misses) == (0, 0)
    cache.put(3, b"c" * 400, dirty=True)  # 1 is still the LRU buffer
    assert written == [(1, b"a" * 400)]


def test_view_dies_with_the_buffer():
    decode, _calls = counting_decoder()

    def fresh():
        cache, _written = make_cache(capacity=1000)
        cache.put(1, b"a" * 400, dirty=True)
        cache.view(1, decode)
        assert 1 in cache._views
        return cache

    cache = fresh()
    cache.put(1, b"b" * 400, dirty=True)  # replaced
    assert 1 not in cache._views

    cache = fresh()
    cache.put(2, b"b" * 400, dirty=False)
    cache.put(3, b"c" * 400, dirty=False)  # 1 evicted
    assert 1 not in cache and 1 not in cache._views

    cache = fresh()
    cache.forget(1)
    assert 1 not in cache._views

    cache = fresh()
    cache.drop()
    assert not cache._views


def test_view_survives_flush_and_clean():
    # Writing a buffer back does not change its bytes, so the parse stays.
    cache, written = make_cache()
    decode, calls = counting_decoder()
    cache.put(1, b"abc", dirty=True)
    cache.view(1, decode)
    cache.flush()
    cache.clean(1)
    assert written == [(1, b"abc")]
    cache.view(1, decode)
    assert len(calls) == 1


def test_view_of_absent_buffer_raises():
    cache, _written = make_cache()
    with pytest.raises(KeyError):
        cache.view(9, bytes.upper)
    assert not cache._views


def test_view_with_another_decoder_replaces_the_entry():
    cache, _written = make_cache()
    cache.put(1, b"Abc", dirty=False)
    assert cache.view(1, bytes.upper) == b"ABC"
    assert cache.view(1, bytes.lower) == b"abc"
    assert cache.view(1, bytes.upper) == b"ABC"
    assert len(cache._views) == 1


def test_views_never_outnumber_buffers():
    cache, _written = make_cache(capacity=1000)
    for step in range(200):
        key = (step * 7) % 11
        if step % 5 == 4:
            cache.forget((step * 3) % 11)
        elif key not in cache:
            cache.put(key, bytes([step % 256]) * 150, dirty=step % 2 == 0)
        if key in cache:
            assert cache.view(key, bytes.upper) == cache.peek(key).upper()
        assert set(cache._views) <= set(cache._buffers)
        assert len(cache._views) <= len(cache._buffers)
