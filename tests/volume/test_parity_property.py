"""Property tests for the RAID-5 parity address map and XOR reconstruction.

The parity map is the correctness keystone of degraded operation: every
volume LBA must land on exactly one *data* chunk, invertibly; every
stripe row must dedicate exactly one chunk to parity with no member
holding two chunks of the same row; and — the property the whole design
rests on — XOR over the surviving chunks of a row must reproduce any
single lost member byte-exactly, for arbitrary write histories.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import SimulatedDisk, fast_test_disk
from repro.sim.clock import VirtualClock
from repro.volume import ParityStripeMap, Volume

MEMBER_SECTORS = 4096


@st.composite
def parity_maps(draw):
    n_disks = draw(st.integers(min_value=3, max_value=8))
    chunk = draw(st.sampled_from([1, 2, 3, 7, 8, 16, 60, 128]))
    member = draw(st.integers(min_value=chunk, max_value=MEMBER_SECTORS))
    return ParityStripeMap(n_disks, chunk, member)


#: ``(n_disks, chunk_sectors, layout)`` of a small parity volume.
parity_shapes = st.tuples(
    st.integers(min_value=3, max_value=5),
    st.sampled_from([1, 4, 32]),
    st.just("raid5"),
)


def parity_volume(n_disks: int, chunk: int, layout: str, member=SimulatedDisk) -> Volume:
    """A parity volume over 1 MB members; ``member(geometry, clock)`` builds one."""
    members = [member(fast_test_disk(capacity_mb=1), VirtualClock()) for _ in range(n_disks)]
    return Volume(members, VirtualClock(), chunk_sectors=chunk, layout=layout)


def write_extents(span: int, chunk: int, n_disks: int):
    """``(lba, nsectors)`` inside ``[0, span)`` in every shape the parity
    write path tells apart: anything up to four rows' worth of sectors from
    any start; a run inside one chunk; one whole chunk; whole stripe rows."""
    row = chunk * (n_disks - 1)

    def anywhere(lba):
        return st.tuples(
            st.just(lba), st.integers(min_value=1, max_value=min(span - lba, 4 * chunk * n_disks))
        )

    def inside_a_chunk(lba):
        return st.tuples(st.just(lba), st.integers(min_value=1, max_value=chunk - lba % chunk))

    def whole(unit):
        return st.integers(min_value=0, max_value=span // unit - 1).flatmap(
            lambda i: st.tuples(
                st.just(i * unit),
                st.integers(min_value=1, max_value=min(3, span // unit - i)).map(lambda k: k * unit),
            )
        )

    starts = st.integers(min_value=0, max_value=span - 1)
    shapes = [starts.flatmap(anywhere), starts.flatmap(inside_a_chunk), whole(chunk)]
    if span >= row:
        shapes.append(whole(row))
    return st.one_of(shapes)


@given(parity_maps(), st.data())
def test_round_trip_logical_physical_logical(m, data):
    lba = data.draw(st.integers(min_value=0, max_value=m.total_sectors - 1))
    disk, plba = m.to_physical(lba)
    assert 0 <= disk < m.n_disks
    assert 0 <= plba < m.usable_per_disk
    assert m.to_logical(disk, plba) == lba


@given(parity_maps(), st.data())
def test_parity_sectors_have_no_logical_address(m, data):
    """to_logical refuses the parity chunk: parity is not client data."""
    row = data.draw(st.integers(min_value=0, max_value=m.rows - 1))
    within = data.draw(st.integers(min_value=0, max_value=m.chunk_sectors - 1))
    with pytest.raises(ValueError):
        m.to_logical(m.parity_disk(row), row * m.chunk_sectors + within)


@given(parity_maps(), st.data())
def test_each_row_has_exactly_one_parity_chunk(m, data):
    """One parity member per row; data chunks cover the other members."""
    row = data.draw(st.integers(min_value=0, max_value=m.rows - 1))
    parity = m.parity_disk(row)
    data_members = [m.data_disk(row, pos) for pos in range(m.n_disks - 1)]
    assert parity not in data_members
    # No two chunks of a row share a member: parity + data = all members.
    assert sorted(data_members + [parity]) == list(range(m.n_disks))


@given(st.integers(min_value=3, max_value=8))
def test_raid5_rotation_balances_parity(n_disks):
    """Left-symmetric rotation: over N consecutive rows, every member
    holds parity exactly once."""
    rotated = ParityStripeMap(n_disks, 8, 64 * n_disks)
    assert sorted(rotated.parity_disk(r) for r in range(n_disks)) == list(
        range(n_disks)
    )


@given(parity_maps(), st.data())
@settings(max_examples=150)
def test_split_covers_exactly_once(m, data):
    """A split covers every requested sector exactly once, nothing else,
    and never addresses a parity chunk."""
    lba = data.draw(st.integers(min_value=0, max_value=m.total_sectors - 1))
    nsectors = data.draw(st.integers(min_value=1, max_value=m.total_sectors - lba))
    subs = m.split(lba, nsectors)

    covered: set[int] = set()
    for sub in subs:
        assert sub.nsectors == sum(count for _s, _l, count in sub.pieces)
        assert 0 <= sub.plba and sub.plba + sub.nsectors <= m.usable_per_disk
        for sub_off, logical_off, count in sub.pieces:
            for i in range(count):
                logical = lba + logical_off + i
                assert m.to_physical(logical) == (sub.disk, sub.plba + sub_off + i)
                # Physical sector is a data chunk of its row, never parity.
                row = (sub.plba + sub_off + i) // m.chunk_sectors
                assert sub.disk != m.parity_disk(row)
                assert logical not in covered
                covered.add(logical)
    assert covered == set(range(lba, lba + nsectors))


@given(parity_maps(), st.data())
@settings(max_examples=150)
def test_split_rows_agrees_with_split(m, data):
    """split_rows is the same coverage, grouped by stripe row."""
    lba = data.draw(st.integers(min_value=0, max_value=m.total_sectors - 1))
    nsectors = data.draw(st.integers(min_value=1, max_value=m.total_sectors - lba))

    from_split = {
        (sub.disk, sub.plba + sub_off + i)
        for sub in m.split(lba, nsectors)
        for sub_off, _logical_off, count in sub.pieces
        for i in range(count)
    }
    from_rows = set()
    for row, frags in m.split_rows(lba, nsectors):
        for f in frags:
            assert f.within + f.nsectors <= m.chunk_sectors
            for i in range(f.nsectors):
                plba = m.row_lba(row) + f.within + i
                assert plba // m.chunk_sectors == row
                key = (f.disk, plba)
                assert key not in from_rows
                from_rows.add(key)
                # logical_off indexes the caller's buffer consistently.
                assert m.to_physical(lba + f.logical_off + i) == key
    assert from_rows == from_split


@given(parity_shapes, st.data())
@settings(max_examples=25, deadline=None)
def test_xor_reconstructs_any_lost_member(shape, data):
    """After an arbitrary write history, losing ANY single member is
    invisible: degraded reads and peeks are byte-identical to the model.

    This is the fundamental parity invariant — XOR over the surviving
    chunks of each row reproduces the lost chunk exactly.
    """
    n_disks, chunk, layout = shape
    volume = parity_volume(n_disks, chunk, layout)
    total = volume.geometry.total_sectors
    model = bytearray(total * 512)

    extents = write_extents(total, chunk, n_disks)
    for lba, nsectors in data.draw(st.lists(extents, min_size=1, max_size=12)):
        payload = os.urandom(nsectors * 512)
        volume.write(lba, payload)
        model[lba * 512 : (lba + nsectors) * 512] = payload
    volume.barrier()

    lost = data.draw(st.integers(min_value=0, max_value=n_disks - 1))
    volume.fail_member(lost)
    assert volume.read(0, total) == bytes(model)
    assert volume.peek(0, total) == bytes(model)
