"""One parity rule for every row a parity volume writes.

``Volume._write_rows`` computes a row's new parity over the range its
fragments touch, ``[lo, hi)``, one of two ways: a delta (read-modify-write)
or a reconstruct — the XOR over the row's data chunks of each new fragment
overlaid on the chunk's old bytes. A full row is a reconstruct with nothing
to read; a row with an untrusted data chunk always reconstructs, taking
that chunk's old bytes from the XOR of the old parity and the other chunks
(never from the stripe cache, which holds what the stale member holds) and
reading nothing under a fragment that spans the range; ``install`` and
``resync_parity`` run the same plan through a time-free twin of the
dispatch that always reconstructs; and the rebuild scanner reads and
writes through the dispatch a write uses, so a rebuilt chunk is written
only once the reads it is the XOR of have returned.

The property holds ``install`` and ``write`` to the same member stores in
every health state; the cases pin the reads a degraded row leaves out and
the scanner's order; the last test runs three mutants of the rule against
the cases that must catch them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume import Volume
from repro.volume.volume import _Dispatch

from tests.volume.test_ordering_barrier import CHUNK, SECTOR, TimedMember, make_volume
from tests.volume.test_parity_property import parity_volume, write_extents
from tests.volume.test_write_shape import busy, forget_requests, requests, written_row

# ----------------------------------------------------------------------
# install and write: one plan, two dispatches
# ----------------------------------------------------------------------


@st.composite
def scripts(draw):
    n_disks = draw(st.integers(min_value=3, max_value=5))
    health = draw(st.sampled_from(["healthy", "degraded", "mid-rebuild"]))
    span = 4 * CHUNK * (n_disks - 1)
    put = st.tuples(st.just("put"), write_extents(span, CHUNK, n_disks))
    ops = [put]
    if health == "mid-rebuild":
        ops.append(st.tuples(st.just("rebuild"), st.integers(min_value=1, max_value=2)))
    victim = draw(st.integers(min_value=0, max_value=n_disks - 1))
    return n_disks, health, victim, span, draw(st.lists(st.one_of(*ops), min_size=1, max_size=12))


def twins(n_disks: int, health: str, victim: int, span: int, rng: random.Random) -> list[Volume]:
    """Two volumes with every chunk of the span written, in ``health``."""
    fill = rng.randbytes(span * SECTOR)
    pair = [parity_volume(n_disks, CHUNK, "raid5") for _ in range(2)]
    for volume in pair:
        volume.write(0, fill)
        if health != "healthy":
            volume.fail_member(victim)
        if health == "mid-rebuild":
            volume.replace_member(victim)
            volume.rebuild_step(1)
    return pair


@given(scripts(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_install_stores_what_write_stores(script, seed):
    """On a consistent volume ``install(lba, d)`` and ``write(lba, d)`` leave
    the same bytes on the same member sectors, healthy, degraded or
    mid-rebuild, and a healthy volume's parity checks after either."""
    n_disks, health, victim, span, ops = script
    rng = random.Random(seed)
    written, installed = twins(n_disks, health, victim, span, rng)
    for kind, arg in ops:
        if kind == "put":
            lba, n = arg
            data = rng.randbytes(n * SECTOR)
            written.write(lba, data)
            installed.install(lba, data)
        else:
            for volume in (written, installed):
                volume.rebuild_step(arg)
        for mine, theirs in zip(written.disks, installed.disks, strict=True):
            assert list(mine.written_sectors()) == list(theirs.written_sectors())
        assert written.peek(0, span) == installed.peek(0, span)
        if health == "healthy":
            assert written.resync_parity() == 0 and installed.resync_parity() == 0


# ----------------------------------------------------------------------
# What a degraded row reads
# ----------------------------------------------------------------------


def test_a_lost_fragment_spanning_the_range_needs_no_old_parity():
    """The untrusted member's whole old range is overwritten, so its old
    bytes — the XOR of the old parity and every other chunk — are not
    needed: the row reads the other data chunks only, never the parity
    or anything under the fragment."""
    volume = written_row()
    pmap = volume.parity_map
    lost = pmap.data_disks(0)[1]
    volume.fail_member(lost)
    forget_requests(volume)
    volume.write(CHUNK + 2, bytes([7]) * SECTOR)
    reads = requests(volume, "r")
    assert set(reads) == set(pmap.data_disks(0)) - {lost}
    assert all(lba == 2 for events in reads.values() for _op, lba, _start, _end in events)
    assert set(requests(volume, "w")) == {pmap.parity_disk(0)}
    stats = volume.volume_stats
    assert (stats.degraded_writes, stats.reconstructed_reads) == (1, 0)
    assert volume.peek(CHUNK + 2, 1) == bytes([7]) * SECTOR


def test_the_untrusted_chunk_is_never_taken_from_the_cache():
    """A failed member leaves the stripe cache — no row consults it — and
    even a cache that kept its sectors (still what the dead medium holds)
    must not be asked for them: after a degraded write replaced them in
    parity only, a later row that needs the lost chunk's old bytes must
    rebuild them from parity, or the degraded write is undone."""
    volume = make_volume()
    cache = volume.stripe_cache
    lost = volume.spindle_of(CHUNK + 2)
    plba = volume.parity_map.row_lba(0) + 2
    volume.write(CHUNK + 2, bytes([1]) * 2 * SECTOR)  # remembered, lost member's range included
    assert cache.load(lost, plba, 2) == bytes([1]) * 2 * SECTOR
    volume.fail_member(lost)
    assert cache.load(lost, plba, 2) is None
    assert [run for run in cache.blank_runs() if run[0] == lost] == []
    cache.store(lost, plba, volume.disks[lost].peek(plba, 2))  # as if it had kept them
    volume.write(CHUNK + 2, bytes([2]) * 2 * SECTOR)  # parity only: the member is gone
    assert cache.load(lost, plba, 2) == bytes([1]) * 2 * SECTOR
    volume.write(2, bytes([3]) * 2 * SECTOR)  # another chunk of the row, the same range
    assert volume.peek(CHUNK + 2, 2) == bytes([2]) * 2 * SECTOR
    assert volume.peek(2, 2) == bytes([3]) * 2 * SECTOR


def test_a_lost_fragment_short_of_the_range_is_overlaid_on_its_old_bytes():
    """The tail of one chunk and the head of the lost one: the lost chunk's
    old bytes over the whole range come from parity, and its new sector
    lands on them before the new parity is taken."""
    volume = written_row()
    pmap = volume.parity_map
    volume.fail_member(pmap.data_disks(0)[1])
    data = bytes([5]) * 3 * SECTOR
    volume.write(CHUNK - 2, data)  # [6, 8) of chunk 0, [0, 1) of the lost chunk 1
    assert volume.volume_stats.reconstructed_reads == 1
    assert volume.peek(CHUNK - 2, 3) == data


# ----------------------------------------------------------------------
# The rebuild scanner's order
# ----------------------------------------------------------------------


def test_the_rebuild_write_waits_for_its_source_reads():
    """A rebuilt chunk is the XOR of the row's other chunks: the scanner
    writes it once the slowest of those reads is back (a busy survivor
    holds it up), and counts its I/O apart from the foreground's."""
    volume = make_volume()
    volume.write(0, random.Random(3).randbytes(3 * CHUNK * SECTOR))
    volume.barrier()
    volume.fail_member(2)
    replacement = TimedMember()
    volume.replace_member(2, replacement)
    late = busy(volume, 0)
    stats = volume.volume_stats
    sub_reads, sub_writes = stats.sub_reads, stats.sub_writes
    assert volume.rebuild_step(1) == 1
    sources = [event for i in (0, 1, 3) for event in volume.disks[i].log if event[:2] == ("r", 0)]
    assert len(sources) == 3 and max(end for *_e, end in sources) >= late
    ((_op, _lba, start, _end),) = [event for event in replacement.log if event[0] == "w"]
    assert start >= max(end for *_e, end in sources)
    assert (stats.rebuild_reads, stats.rebuild_writes) == (3, 1)
    assert (stats.sub_reads, stats.sub_writes) == (sub_reads, sub_writes)
    assert volume.clock.now < late  # background: the shared clock stays put


# ----------------------------------------------------------------------
# Mutants of the rule, each caught by a case above
# ----------------------------------------------------------------------


def _untrusted_bytes_from_the_cache(monkeypatch):
    """The lost chunk's old bytes come from the cache whenever it has them."""
    real = Volume._reconstruct_reads

    def reads(self, io, row, spanned, lo, hi, bad):
        plba = self.parity_map.row_lba(row) + lo
        if bad is not None and self.stripe_cache.find(bad, plba, hi - lo) is not None:
            bad = None  # probed like a trusted chunk, and found resident
        return real(self, io, row, spanned, lo, hi, bad)

    monkeypatch.setattr(Volume, "_reconstruct_reads", reads)


def _skips_the_untrusted_overlay(monkeypatch):
    """A fragment on the lost chunk is left off its rebuilt old bytes."""
    real = Volume._reconstruct

    def reconstruct(self, io, parity_member, bad, frags, lo, reads, payload):
        if any(read[0] == parity_member for read in reads):
            frags = [f for f in frags if f.disk != bad]
        return real(self, io, parity_member, bad, frags, lo, reads, payload)

    monkeypatch.setattr(Volume, "_reconstruct", reconstruct)


def _rebuild_writes_at_now(monkeypatch):
    """Member writes start at ``now`` again, whatever they were read from."""
    real = _Dispatch.write

    def write(self, member, plba, payload, keep=True):
        self.floor = self.now
        real(self, member, plba, payload, keep)

    monkeypatch.setattr(_Dispatch, "write", write)


#: mutant -> (how to make it, the case that must fail under it).
MUTANTS = {
    "untrusted_bytes_from_the_cache": (
        _untrusted_bytes_from_the_cache,
        test_the_untrusted_chunk_is_never_taken_from_the_cache,
    ),
    "skips_the_untrusted_overlay": (
        _skips_the_untrusted_overlay,
        test_a_lost_fragment_short_of_the_range_is_overlaid_on_its_old_bytes,
    ),
    "rebuild_writes_at_now": (
        _rebuild_writes_at_now,
        test_the_rebuild_write_waits_for_its_source_reads,
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_of_the_rule_is_caught(mutant, monkeypatch):
    mutate, case = MUTANTS[mutant]
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        case()
