"""Differential test: the extent-backed ``SimulatedDisk`` against the
per-sector-dict disk it replaced.

``ReferenceDisk`` below is the parent commit's implementation — one
``bytes`` object per sector in a dict, ``decompose()`` per track in the
time model — kept only here, as the oracle. (Its one change from the
parent: ``corrupt`` builds junk of exactly one sector, the bug fixed in
the same PR.) Hypothesis drives both with the same sequences of ``write`` /
``install`` / ``corrupt`` / ``read`` / ``peek`` / ``read_batch`` over
ranges chosen to sit inside one extent, end on an extent boundary,
straddle one or several, and touch extents nobody wrote; every returned
buffer, ``sectors_populated``, ``written_sectors()``, the clock and the
whole of ``DiskStats`` must agree. The geometry is 720 sectors, so the
last extent is a partial one.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskGeometry, DiskStats, SimulatedDisk
from repro.disk.store import EXTENT_SECTORS
from repro.sim import VirtualClock

GEOMETRY = DiskGeometry(
    sector_size=32,
    sectors_per_track=9,
    heads=4,
    cylinders=20,
    rpm=4800,
    min_seek_ms=1.0,
    max_seek_ms=9.0,
    head_switch_ms=0.3,
    request_overhead_ms=0.4,
)
TOTAL = GEOMETRY.total_sectors
SIZE = GEOMETRY.sector_size
PATTERN = bytes(range(251)) * (3 * EXTENT_SECTORS * SIZE // 251 + 2)


class ReferenceDisk:
    """The parent's ``SimulatedDisk``: dict of sectors, per-track decompose."""

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry
        self.clock = VirtualClock()
        self.stats = DiskStats(sector_size=geometry.sector_size)
        self.sectors: dict[int, bytes] = {}
        self.cylinder = 0
        denom = max(1e-12, math.sqrt(max(1, geometry.cylinders - 1)) - 1.0)
        self.slope = (geometry.max_seek_ms - geometry.min_seek_ms) / 1000.0 / denom

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        return self.geometry.min_seek_ms / 1000.0 + self.slope * (
            math.sqrt(distance) - 1.0
        )

    def charge(self, lba: int, nsectors: int) -> None:
        geo, stats, advance = self.geometry, self.stats, self.clock.advance
        overhead = geo.request_overhead_ms / 1000.0
        advance(overhead)
        stats.overhead_time += overhead
        cylinder, _head, sector = geo.decompose(lba)
        seek = self.seek_time(self.cylinder, cylinder)
        if seek:
            advance(seek)
            stats.seek_time += seek
            stats.seeks += 1
        self.cylinder = cylinder
        position = (self.clock.now / geo.sector_time) % geo.sectors_per_track
        delta = sector - position
        if delta < 0:
            delta += geo.sectors_per_track
        rotation = delta * geo.sector_time
        if rotation:
            advance(rotation)
            stats.rotation_time += rotation
        remaining, position = nsectors, lba
        while remaining > 0:
            _cyl, _head, sec = geo.decompose(position)
            run = min(remaining, geo.sectors_per_track - sec)
            transfer = run * geo.sector_time
            advance(transfer)
            stats.transfer_time += transfer
            remaining -= run
            position += run
            if remaining > 0:
                next_cyl = geo.cylinder_of(position)
                if next_cyl != self.cylinder:
                    cyl_seek = self.seek_time(self.cylinder, next_cyl)
                    advance(cyl_seek)
                    stats.seek_time += cyl_seek
                    self.cylinder = next_cyl
                else:
                    switch = geo.head_switch_ms / 1000.0
                    advance(switch)
                    stats.head_switch_time += switch

    def peek(self, lba: int, nsectors: int) -> bytes:
        zero = bytes(self.geometry.sector_size)
        return b"".join(self.sectors.get(lba + i, zero) for i in range(nsectors))

    def read(self, lba: int, nsectors: int) -> bytes:
        self.charge(lba, nsectors)
        self.stats.record_request(nsectors, write=False)
        return self.peek(lba, nsectors)

    def read_batch(self, requests) -> list[bytes]:
        return [self.read(lba, nsectors) for lba, nsectors in requests]

    def install(self, lba: int, data: bytes) -> None:
        size = self.geometry.sector_size
        for i in range(len(data) // size):
            self.sectors[lba + i] = data[i * size : (i + 1) * size]

    def write(self, lba: int, data: bytes) -> None:
        nsectors = len(data) // self.geometry.sector_size
        self.charge(lba, nsectors)
        self.stats.record_request(nsectors, write=True)
        self.install(lba, data)

    def corrupt(self, lba: int, nsectors: int) -> None:
        size = self.geometry.sector_size
        junk = (b"\xde\xad\xbe\xef" * (size // 4 + 1))[:size]
        for i in range(nsectors):
            self.sectors[lba + i] = junk


@st.composite
def sector_range(draw) -> tuple[int, int]:
    """``(lba, nsectors)`` in range, biased towards extent boundaries."""
    extent = draw(st.integers(0, (TOTAL - 1) // EXTENT_SECTORS))
    shape = draw(st.sampled_from(["inside", "aligned", "to-edge", "straddle", "long", "one"]))
    base = extent * EXTENT_SECTORS
    if shape == "inside":
        lba = base + draw(st.integers(1, 60))
        n = draw(st.integers(1, 60))
    elif shape == "aligned":
        lba, n = base, draw(st.sampled_from([1, EXTENT_SECTORS, 2 * EXTENT_SECTORS]))
    elif shape == "to-edge":
        n = draw(st.integers(1, 40))
        lba = base + EXTENT_SECTORS - n
    elif shape == "straddle":
        lba = base + EXTENT_SECTORS - draw(st.integers(1, 20))
        n = draw(st.integers(2, 40))
    elif shape == "long":
        lba = base + draw(st.integers(0, EXTENT_SECTORS - 1))
        n = draw(st.integers(EXTENT_SECTORS, 3 * EXTENT_SECTORS))
    else:
        lba, n = draw(st.integers(0, TOTAL - 1)), 1
    lba = min(lba, TOTAL - 1)
    return lba, max(1, min(n, TOTAL - lba))


operation = st.one_of(
    st.tuples(st.sampled_from(["write", "install"]), sector_range(), st.integers(0, 250)),
    st.tuples(st.sampled_from(["corrupt", "read", "peek"]), sector_range()),
    st.tuples(st.just("read_batch"), st.lists(sector_range(), min_size=0, max_size=4)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(operation, min_size=1, max_size=30))
def test_extent_store_matches_per_sector_dict(ops):
    disk = SimulatedDisk(GEOMETRY, VirtualClock())
    ref = ReferenceDisk(GEOMETRY)
    for kind, arg, *rest in ops:
        if kind in ("write", "install"):
            lba, n = arg
            payload = PATTERN[rest[0] : rest[0] + n * SIZE]
            # Alternate buffer types: the store takes any byte buffer.
            getattr(disk, kind)(lba, payload if lba % 2 else memoryview(bytearray(payload)))
            getattr(ref, kind)(lba, payload)
        elif kind == "read_batch":
            assert disk.read_batch(arg) == ref.read_batch(arg)
        elif kind == "corrupt":
            disk.corrupt(*arg)
            ref.corrupt(*arg)
        else:
            got = getattr(disk, kind)(*arg)
            assert type(got) is bytes
            assert got == getattr(ref, kind)(*arg)
        assert disk.sectors_populated == len(ref.sectors)
    assert list(disk.written_sectors()) == sorted(ref.sectors.items())
    assert disk.peek(0, TOTAL) == ref.peek(0, TOTAL)
    assert repr(disk.clock.now) == repr(ref.clock.now)
    assert disk.stats.as_dict() == ref.stats.as_dict()


def test_never_written_ranges_read_zero():
    disk = SimulatedDisk(GEOMETRY, VirtualClock())
    disk.write(EXTENT_SECTORS + 3, b"\x55" * SIZE)  # extent 1 only
    assert disk.peek(0, TOTAL) == (
        bytes((EXTENT_SECTORS + 3) * SIZE)
        + b"\x55" * SIZE
        + bytes((TOTAL - EXTENT_SECTORS - 4) * SIZE)
    )
    assert disk.read(3 * EXTENT_SECTORS - 5, 10) == bytes(10 * SIZE)
    assert disk.sectors_populated == 1
    assert list(disk.written_sectors()) == [(EXTENT_SECTORS + 3, b"\x55" * SIZE)]
