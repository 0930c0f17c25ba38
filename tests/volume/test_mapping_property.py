"""Property tests for the RAID-0 address map and the 1-disk identity.

The stripe map is the correctness keystone of the volume layer: every
volume LBA must land on exactly one member sector, invertibly, and a
split request must cover exactly the requested range with no overlap —
under any chunk size, disk count, and boundary-straddling run.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import SimulatedDisk, fast_test_disk
from repro.sim.clock import VirtualClock
from repro.volume import StripeMap, Volume

MEMBER_SECTORS = 4096


@st.composite
def stripe_maps(draw):
    n_disks = draw(st.integers(min_value=1, max_value=8))
    chunk = draw(st.sampled_from([1, 2, 3, 7, 8, 16, 60, 128, 333]))
    member = draw(st.integers(min_value=chunk, max_value=MEMBER_SECTORS))
    return StripeMap(n_disks, chunk, member)


@given(stripe_maps(), st.data())
def test_round_trip_logical_physical_logical(m, data):
    lba = data.draw(st.integers(min_value=0, max_value=m.total_sectors - 1))
    disk, plba = m.to_physical(lba)
    assert 0 <= disk < m.n_disks
    assert 0 <= plba < m.usable_per_disk
    assert m.to_logical(disk, plba) == lba


@given(stripe_maps(), st.data())
def test_round_trip_physical_logical_physical(m, data):
    disk = data.draw(st.integers(min_value=0, max_value=m.n_disks - 1))
    plba = data.draw(st.integers(min_value=0, max_value=m.usable_per_disk - 1))
    lba = data.draw(st.just(m.to_logical(disk, plba)))
    assert 0 <= lba < m.total_sectors
    assert m.to_physical(lba) == (disk, plba)


@given(stripe_maps(), st.data())
@settings(max_examples=200)
def test_split_covers_exactly_once(m, data):
    """A split covers every requested sector exactly once, nothing else."""
    lba = data.draw(st.integers(min_value=0, max_value=m.total_sectors - 1))
    nsectors = data.draw(st.integers(min_value=1, max_value=m.total_sectors - lba))
    subs = m.split(lba, nsectors)

    covered: set[int] = set()
    for sub in subs:
        assert sub.nsectors == sum(count for _s, _l, count in sub.pieces)
        assert 0 <= sub.plba and sub.plba + sub.nsectors <= m.usable_per_disk
        sub_covered: set[int] = set()
        for sub_off, logical_off, count in sub.pieces:
            for i in range(count):
                # The piece's physical sector must be the map of its
                # logical sector.
                logical = lba + logical_off + i
                assert m.to_physical(logical) == (sub.disk, sub.plba + sub_off + i)
                assert logical not in covered
                covered.add(logical)
                sub_covered.add(sub_off + i)
        # The sub-request's buffer is fully accounted for (contiguous).
        assert sub_covered == set(range(sub.nsectors))
    assert covered == set(range(lba, lba + nsectors))


@given(stripe_maps(), st.data())
@settings(max_examples=100)
def test_split_merges_to_one_subrequest_per_disk(m, data):
    """Sequential runs produce at most one contiguous request per member."""
    lba = data.draw(st.integers(min_value=0, max_value=m.total_sectors - 1))
    nsectors = data.draw(st.integers(min_value=1, max_value=m.total_sectors - lba))
    subs = m.split(lba, nsectors)
    assert len(subs) <= m.n_disks
    assert [s.disk for s in subs] == sorted({s.disk for s in subs})


def test_partial_trailing_chunk_is_unaddressable():
    # 1000 sectors, chunks of 128: only 7 whole chunks per member map.
    m = StripeMap(2, 128, 1000)
    assert m.usable_per_disk == 896
    assert m.total_sectors == 2 * 896
    # Every valid LBA maps inside the member; one past the end raises.
    disk, plba = m.to_physical(m.total_sectors - 1)
    assert plba < 896
    with pytest.raises(ValueError):
        m.to_physical(m.total_sectors)


@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 4, 32, 128]),
)
@settings(max_examples=20, deadline=None)
def test_whole_image_byte_identity_through_volume(n_disks, chunk):
    """The full volume image round-trips through write + read byte-exactly."""
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock())
        for _ in range(n_disks)
    ]
    volume = Volume(members, VirtualClock(), chunk_sectors=chunk, layout="stripe")
    total = volume.geometry.total_sectors
    image = os.urandom(total * 512)
    volume.write(0, image)
    volume.barrier()
    assert volume.read(0, total) == image
    assert volume.peek(0, total) == image


def test_one_disk_volume_matches_bare_disk_bytes():
    """A whole-disk image through a 1-disk volume == the bare SimulatedDisk.

    Identity of layout, not just contents: each member sector holds the
    same bytes the bare disk holds at the same LBA.
    """
    geometry = fast_test_disk(capacity_mb=1)
    bare = SimulatedDisk(geometry, VirtualClock())
    member = SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock())
    volume = Volume([member], VirtualClock(), chunk_sectors=128, layout="stripe")
    assert volume.geometry.total_sectors == geometry.total_sectors

    rng_image = os.urandom(geometry.total_sectors * 512)
    bare.write(0, rng_image)
    volume.write(0, rng_image)
    volume.barrier()
    bare.barrier()
    assert volume.read(0, geometry.total_sectors) == bare.read(
        0, geometry.total_sectors
    )
    # Sector-store identity: the volume added no translation at N=1.
    assert list(member.written_sectors()) == list(bare.written_sectors())
