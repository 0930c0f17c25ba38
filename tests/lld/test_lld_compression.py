"""Transparent compression tests (paper section 3.3)."""

import pytest

from repro.compress.data import compressible_bytes, random_bytes
from repro.ld import LIST_HEAD, ListHints

from tests.lld.conftest import make_lld, reopen


def compressed_list(lld):
    return lld.new_list(hints=ListHints(compress=True))


def test_compressible_data_stored_smaller():
    lld = make_lld()
    lid = compressed_list(lld)
    bid = lld.new_block(lid, LIST_HEAD)
    data = compressible_bytes(4096, ratio=0.6, seed=21)
    lld.write(bid, data)
    entry = lld.state.blocks[bid]
    assert entry.compressed
    assert entry.stored_length < len(data)
    assert entry.length == len(data)
    assert lld.read(bid) == data


def test_incompressible_data_stored_raw():
    """If compression does not help, the block is stored uncompressed."""
    lld = make_lld()
    lid = compressed_list(lld)
    bid = lld.new_block(lid, LIST_HEAD)
    data = random_bytes(4096, seed=22)
    lld.write(bid, data)
    entry = lld.state.blocks[bid]
    assert not entry.compressed
    assert entry.stored_length == len(data)
    assert lld.read(bid) == data


def test_uncompressed_list_ignores_codec():
    lld = make_lld()
    lid = lld.new_list()  # default: no compression
    bid = lld.new_block(lid, LIST_HEAD)
    data = compressible_bytes(4096, ratio=0.6, seed=23)
    lld.write(bid, data)
    assert not lld.state.blocks[bid].compressed
    assert lld.read(bid) == data


def test_more_blocks_fit_when_compressed():
    """Compression increases effective capacity (paper: 1 GB -> 1.7 GB)."""
    plain = make_lld(capacity_mb=2)
    packed = make_lld(capacity_mb=2)
    data = compressible_bytes(4096, ratio=0.5, seed=25)

    def fill(lld, compress):
        lid = lld.new_list(hints=ListHints(compress=compress))
        count = 0
        prev = LIST_HEAD
        from repro.ld.errors import OutOfSpaceError

        try:
            for _ in range(5000):
                bid = lld.new_block(lid, prev)
                lld.write(bid, data)
                prev = bid
                count += 1
        except OutOfSpaceError:
            pass
        return count

    n_plain = fill(plain, compress=False)
    n_packed = fill(packed, compress=True)
    assert n_packed > n_plain * 1.3


def test_compressed_blocks_cleaned_correctly():
    """The cleaner copies compressed bytes verbatim without recompressing."""
    import random

    lld = make_lld(capacity_mb=2)
    lid = compressed_list(lld)
    data = compressible_bytes(4096, ratio=0.6, seed=26)
    bids = []
    prev = LIST_HEAD
    for _ in range(60):
        bid = lld.new_block(lid, prev)
        lld.write(bid, data)
        bids.append(bid)
        prev = bid
    lld.clean(2)
    for bid in bids:
        assert lld.read(bid) == data
    lld.flush()
    recovered = reopen(lld)
    for bid in bids:
        assert recovered.read(bid) == data


def test_compression_charges_cpu_time():
    lld = make_lld()
    lid = compressed_list(lld)
    bid = lld.new_block(lid, LIST_HEAD)
    data = compressible_bytes(4096, ratio=0.6, seed=27)
    lld.write(bid, data)
    lld.flush()
    t0 = lld.disk.clock.now
    lld.read(bid)  # decompression is serial: clock must advance beyond I/O
    decompress_time = 4096 / lld.compression._decompress_bw.bytes_per_second
    assert lld.disk.clock.now - t0 >= decompress_time


def test_mixed_compressed_and_plain_blocks():
    lld = make_lld()
    packed_lid = compressed_list(lld)
    plain_lid = lld.new_list()
    data = compressible_bytes(2048, ratio=0.6, seed=29)
    a = lld.new_block(packed_lid, LIST_HEAD)
    b = lld.new_block(plain_lid, LIST_HEAD)
    lld.write(a, data)
    lld.write(b, data)
    assert lld.state.blocks[a].compressed
    assert not lld.state.blocks[b].compressed
    assert lld.read(a) == data
    assert lld.read(b) == data
