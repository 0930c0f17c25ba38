"""A healthy partial row picks read-modify-write or reconstruct-write.

``Volume._write_rows`` can compute a partial row's new parity two ways:
read-modify-write pre-reads the old data under each fragment and the old
parity over the touched range ``[lo, hi)``; reconstruct-write, allowed
when every fragment spans exactly ``[lo, hi)`` (a one-chunk row always
does), pre-reads the row's unwritten data chunks there instead. The row
takes the shape with fewer member reads left after stripe-cache hits,
then the one whose reads land on members free soonest; a tie keeps
read-modify-write, so an idle array with a cold cache issues the requests
it always did. The member writes are the same either way.

Each case below is one side of that rule; the property at the end holds
parity and contents over random writes and busy members; the last test
runs three mutants of the rule against the cases that must catch them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume import Volume
from repro.volume.mapping import ParityStripeMap
from repro.volume.volume import _Dispatch

from tests.volume.test_ordering_barrier import CHUNK, SECTOR, make_volume


def busy(volume: Volume, member: int) -> float:
    """Keep ``member`` reading well past ``now``; when it is free again."""
    disk = volume.disks[member]
    disk.read(100 * CHUNK, 64 * CHUNK)
    assert disk.clock.now > volume.clock.now + 0.05
    return disk.clock.now


def written_row(n_disks: int = 4) -> Volume:
    """A volume whose row 0 holds data and parity, drained, logs empty,
    cache cold (a full-stripe write is not remembered)."""
    volume = make_volume(n_disks=n_disks)
    volume.write(0, random.Random(n_disks).randbytes((n_disks - 1) * CHUNK * SECTOR))
    volume.barrier()
    assert list(volume.stripe_cache.resident_sectors()) == []
    forget_requests(volume)
    return volume


def forget_requests(volume: Volume) -> None:
    for member in volume.disks:
        del member.log[:]


def requests(volume: Volume, op: str) -> dict[int, list[tuple]]:
    """Each member's requests of kind ``op`` (``"r"`` / ``"w"``)."""
    return {
        index: [event for event in member.log if event[0] == op]
        for index, member in enumerate(volume.disks)
        if any(event[0] == op for event in member.log)
    }


def shapes(volume: Volume) -> tuple[int, int]:
    stats = volume.volume_stats
    return stats.rmw_writes, stats.reconstruct_writes


def consistent(volume: Volume) -> bool:
    return volume.resync_parity() == 0


# ----------------------------------------------------------------------
# The cases
# ----------------------------------------------------------------------


def test_a_busy_data_member_sends_a_one_chunk_row_to_reconstruct_write():
    volume = written_row()
    pmap = volume.parity_map
    target = volume.spindle_of(2)
    parity = pmap.parity_disk(0)
    free_at = busy(volume, target)
    forget_requests(volume)

    volume.write(2, bytes([7]) * SECTOR)
    assert shapes(volume) == (0, 1)
    reads = requests(volume, "r")
    # The pre-reads hit only the row's other data members, over the sector.
    assert set(reads) == set(pmap.data_disks(0)) - {target}
    assert all(lba == 2 for events in reads.values() for _op, lba, _start, _end in events)
    last = max(end for events in reads.values() for _op, _lba, _start, end in events)
    writes = requests(volume, "w")
    assert set(writes) == {target, parity}
    # Both writes start once the last pre-read is in; the parity write no
    # longer waits for the busy member the data write queues behind.
    assert all(start >= last for events in writes.values() for _op, _lba, start, _end in events)
    (parity_write,) = writes[parity]
    assert parity_write[2] < free_at <= writes[target][0][2]
    assert volume.peek(2, 1) == bytes([7]) * SECTOR and consistent(volume)


def test_an_idle_cold_array_takes_read_modify_write():
    """The two shapes cost two member reads each on four members; nothing
    is busy, so the tie keeps the old request plan."""
    volume = written_row()
    pmap = volume.parity_map
    target = volume.spindle_of(2)
    volume.write(2, bytes([7]) * SECTOR)
    assert shapes(volume) == (1, 0)
    reads = requests(volume, "r")
    assert set(reads) == {target, pmap.parity_disk(0)}
    assert consistent(volume)


def test_resident_old_bytes_keep_read_modify_write():
    """The second write of a range finds its old data and parity in the
    stripe cache: no member read, so no busy member can make
    reconstruct-write (two reads) the cheaper shape."""
    volume = written_row()
    volume.write(2, bytes([7]) * SECTOR)
    volume.barrier()
    busy(volume, volume.spindle_of(2))
    forget_requests(volume)
    now = volume.clock.now
    volume.write(2, bytes([8]) * SECTOR)
    assert shapes(volume) == (2, 0)
    assert requests(volume, "r") == {}
    assert volume.volume_stats.preread_hits == 2
    parity_write = requests(volume, "w")[volume.parity_map.parity_disk(0)]
    assert parity_write[0][2] == now
    assert consistent(volume)


def test_two_of_three_chunks_over_the_same_range_take_reconstruct_write():
    """Two whole chunks of a three-chunk row: read-modify-write would read
    both old chunks and the parity, reconstruct-write reads the third
    chunk only."""
    volume = written_row()
    pmap = volume.parity_map
    third = pmap.data_disks(0)[2]
    data = random.Random(2).randbytes(2 * CHUNK * SECTOR)
    volume.write(0, data)
    assert shapes(volume) == (0, 1)
    assert {m: [(lba, end > start) for _op, lba, start, end in events]
            for m, events in requests(volume, "r").items()} == {third: [(0, True)]}
    stats = volume.volume_stats
    assert (stats.preread_hits, stats.preread_misses) == (0, 1)
    assert volume.peek(0, 2 * CHUNK) == data and consistent(volume)


def test_misaligned_fragments_take_read_modify_write():
    """The tail of one chunk and the head of the next span different
    ranges: the unwritten sectors under each would be another chunk's, so
    reconstruct-write is not offered, however busy the old data is."""
    volume = written_row()
    pmap = volume.parity_map
    busy(volume, volume.spindle_of(CHUNK - 3))
    forget_requests(volume)
    volume.write(CHUNK - 3, bytes([5]) * 5 * SECTOR)  # [5, 8) of chunk 0, [0, 2) of chunk 1
    assert shapes(volume) == (1, 0)
    assert set(requests(volume, "r")) == {*pmap.data_disks(0)[:2], pmap.parity_disk(0)}
    assert consistent(volume)


@pytest.mark.parametrize("lost", ["data", "parity"])
def test_degraded_rows_are_unchanged(lost):
    """A row with an untrusted chunk keeps its own path whatever is busy:
    every surviving chunk and the parity are read (or, with the parity
    chunk lost, nothing), and neither partial shape is counted."""
    volume = written_row()
    pmap = volume.parity_map
    down = pmap.data_disks(0)[1] if lost == "data" else pmap.parity_disk(0)
    volume.fail_member(down)
    survivors = [m for m in pmap.data_disks(0) if m != down]
    busy(volume, survivors[-1])
    forget_requests(volume)
    volume.write(2, bytes([7]) * SECTOR)
    assert shapes(volume) == (0, 0) and volume.volume_stats.degraded_writes == 1
    reads = requests(volume, "r")
    if lost == "data":
        assert set(reads) == {*survivors, pmap.parity_disk(0)}
    else:
        assert reads == {}
    assert volume.peek(2, 1) == bytes([7]) * SECTOR


# ----------------------------------------------------------------------
# Parity and contents under random writes and busy members
# ----------------------------------------------------------------------


@st.composite
def scripts(draw):
    n_disks = draw(st.integers(min_value=3, max_value=5))
    span = 4 * CHUNK * (n_disks - 1)
    lba = st.integers(min_value=0, max_value=span - 1)
    write = lba.flatmap(
        lambda at: st.tuples(
            st.just("write"),
            st.just(at),
            st.integers(min_value=1, max_value=min(span - at, 2 * CHUNK)),
        )
    )
    read = st.tuples(st.just("busy"), st.integers(min_value=0, max_value=n_disks - 1))
    barrier = st.tuples(st.just("barrier"), st.booleans())
    ops = draw(st.lists(st.one_of(write, write, read, barrier), min_size=1, max_size=30))
    return n_disks, span, ops


@given(scripts(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_every_shape_keeps_parity_and_contents(script, seed):
    n_disks, span, ops = script
    rng = random.Random(seed)
    volume = make_volume(n_disks=n_disks)
    # Every chunk starts out holding data: a pre-read left out of a parity
    # computation then always shows (leaving out zeros would not).
    model = bytearray(rng.randbytes(span * SECTOR))
    volume.write(0, bytes(model))
    for op in ops:
        if op[0] == "write":
            _, lba, n = op
            data = rng.randbytes(n * SECTOR)
            volume.write(lba, data)
            model[lba * SECTOR : (lba + n) * SECTOR] = data
        elif op[0] == "busy":
            disk = volume.disks[op[1]]
            disk.read(rng.randrange(100, 200) * CHUNK, rng.randint(1, 64) * CHUNK)
        else:
            volume.barrier("b", wait=op[1])
        assert consistent(volume)
        assert volume.peek(0, span) == model


# ----------------------------------------------------------------------
# Mutants of the rule, each caught by a case above
# ----------------------------------------------------------------------


def _drops_a_chunk(monkeypatch):
    """Reconstruct-write leaves one unwritten chunk out of the parity."""
    real = ParityStripeMap.data_disks
    monkeypatch.setattr(ParityStripeMap, "data_disks", lambda self, row: real(self, row)[:-1])


def _ties_go_to_reconstruct_write(monkeypatch):
    monkeypatch.setattr(
        Volume, "_reconstructs", lambda self, io, rcw, rmw: io.cost(rcw) <= io.cost(rmw)
    )


def _hits_still_count_as_reads(monkeypatch):
    real = _Dispatch.cost
    monkeypatch.setattr(
        _Dispatch, "cost", lambda self, prereads: real(self, [(*p[:3], None) for p in prereads])
    )


#: mutant -> (how to make it, the case that must fail under it).
MUTANTS = {
    "drops_a_chunk": (
        _drops_a_chunk,
        test_a_busy_data_member_sends_a_one_chunk_row_to_reconstruct_write,
    ),
    "ties_go_to_reconstruct_write": (
        _ties_go_to_reconstruct_write,
        test_an_idle_cold_array_takes_read_modify_write,
    ),
    "hits_still_count_as_reads": (
        _hits_still_count_as_reads,
        test_resident_old_bytes_keep_read_modify_write,
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_of_the_rule_is_caught(mutant, monkeypatch):
    mutate, case = MUTANTS[mutant]
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        case()
