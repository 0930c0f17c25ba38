"""The stripe cache against a volume that remembers nothing.

A parity volume keeps the sectors its member writes just put down and
serves a later partial row's pre-reads from them
(:mod:`repro.volume.stripe_cache`), and answers a pre-read of sectors it
never wrote from its blank record, as zeros. Its one risk is coherence — a
remembered sector that is no longer what the member holds turns into wrong
parity — so the differential here runs every script on two volumes: one as
shipped, one whose cache is emptied before every request (the oracle: a
test helper, there is no such switch in the product), from blank members
or from a region ``install`` wrote first. What is resident
also weighs in a row's choice between read-modify-write and
reconstruct-write, and on a row whose parity a ``corrupt`` left
inconsistent the two write different parity; the choice has its own tests
(``test_write_shape.py``), so here the oracle takes, row by row, the shape
the shipped volume took. After every step:

1. every member's image and write journal, barriers included, are equal —
   given the shape, the cache changes where bytes are *read* from, never
   what is written or in which barrier epoch, so every crash state is the
   oracle's;
2. every resident sector equals the member's ``peek``, every blank one
   is zeros there, and the cache holds neither for a chunk the volume
   does not trust (a failed member, a replacement's unrebuilt rows);
3. resident sectors <= ``2 * chunk_sectors``;
4. the shipped volume issues no more member reads than the oracle — fewer
   by exactly its hits — and, over a written region, the same number while
   no member sector has been written twice.

Each entry of the coherence rule has a mutation below that must turn this
red; the rebuild scanner's is the exception, and says why.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crashsim import RecordingDisk
from repro.disk import SimulatedDisk, fast_test_disk
from repro.sim.clock import VirtualClock
from repro.volume import StripeCache, Volume, VolumeError

from tests.volume.test_parity_property import parity_volume, write_extents

SECTOR = 512


def recorded_member(geometry, clock) -> RecordingDisk:
    return RecordingDisk(SimulatedDisk(geometry, clock))


class Pair:
    """One script on the shipped volume and on the oracle, checked per step."""

    def __init__(self, n_disks: int, chunk: int, layout: str, mutation: str | None = None) -> None:
        self.shipped = parity_volume(n_disks, chunk, layout, recorded_member)
        self.oracle = parity_volume(n_disks, chunk, layout, recorded_member)
        #: The kinds of step whose drop the shipped volume forgets.
        self.mutated = {
            kind for entry in (mutation or "").split("+") for kind in SITES.get(entry, (entry,))
        }
        #: Whether the script began by installing its region: until then
        #: every pre-read of the shipped volume is blank.
        self.installed_first = False
        #: Every member ever installed, per volume, replaced ones included.
        self.members = {id(v): list(v.disks) for v in (self.shipped, self.oracle)}
        self.rng = random.Random(f"{n_disks}/{chunk}/{layout}")
        #: Member sectors the oracle's journals have seen written, and how
        #: far into each journal that is; ``rewrote`` once one came twice.
        self.written: set[tuple[int, int]] = set()
        self.journalled: dict[int, int] = {}
        self.rewrote = False
        #: The shipped volume's row shapes (True: reconstruct-write), for
        #: the oracle to take in the same order.
        self.shapes: deque[bool] = deque()
        choose = self.shipped._reconstructs

        def record(*candidates) -> bool:
            self.shapes.append(choose(*candidates))
            return self.shapes[-1]

        self.shipped._reconstructs = record
        self.oracle._reconstructs = lambda *candidates: self.shapes.popleft()

    def step(self, op: tuple) -> None:
        kind, *args = op
        if kind in ("write", "install"):
            args = [args[0], self.rng.randbytes(args[1] * SECTOR)]
        for volume in (self.shipped, self.oracle):
            if volume is self.oracle:
                volume.stripe_cache.clear()
            mutant = volume is self.shipped and kind in self.mutated
            getattr(self, f"_{kind}")(volume, *args, mutant=mutant)
        self.check()

    # One method per kind of step: the volume's own call, behind the
    # precondition that decides whether the step applies, and with the hook
    # where the mutant of a coherence-rule entry forgets that entry's drop.

    def _write(self, volume: Volume, lba: int, data: bytes, mutant: bool) -> None:
        volume.write(lba, data)

    def _barrier(self, volume: Volume, wait: bool, mutant: bool) -> None:
        volume.barrier("b", wait=wait)

    def _fail_member(self, volume: Volume, member: int, mutant: bool) -> None:
        if not volume.degraded or member == volume._rebuilding:
            self._undropping(volume, volume.fail_member, member, mutant=mutant)

    def _undropping(self, volume: Volume, call, *args, mutant: bool) -> None:
        if mutant:
            volume.stripe_cache.drop_member = lambda member: None
        call(*args)
        volume.stripe_cache.__dict__.pop("drop_member", None)

    def _unforgetting(self, volume: Volume, call, *args, mutant: bool) -> None:
        if mutant:
            volume._forget = lambda *extent: None
        call(*args)
        volume.__dict__.pop("_forget", None)

    def _install(self, volume: Volume, lba: int, data: bytes, mutant: bool) -> None:
        self._unforgetting(volume, volume.install, lba, data, mutant=mutant)

    def _corrupt(self, volume: Volume, lba: int, nsectors: int, mutant: bool) -> None:
        self._unforgetting(volume, volume.corrupt, lba, nsectors, mutant=mutant)

    def _resync_parity(self, volume: Volume, mutant: bool) -> None:
        if not volume.degraded:
            self._unforgetting(volume, volume.resync_parity, mutant=mutant)

    def _replace_member(self, volume: Volume, mutant: bool) -> None:
        if not volume.degraded or volume.rebuild_active:
            return
        replacement = recorded_member(volume.geometry.member, VirtualClock())
        self.members[id(volume)].append(replacement)
        lost = volume.alive.index(False)
        self._undropping(volume, volume.replace_member, lost, replacement, mutant=mutant)

    def _rebuild_step(self, volume: Volume, rows: int, mutant: bool) -> None:
        cache = volume.stripe_cache
        if mutant:  # the scanner's write passes the cache by
            cache.drop = lambda *write: None
        if volume is self.oracle:
            # A row blank on every other member is skipped: by the record,
            # which the oracle does not keep — it takes the shipped one's
            # (the scanner puts only the replacement's chunk on it).
            cache.all_blank = self.shipped.stripe_cache.all_blank
        volume.rebuild_step(rows)
        cache.__dict__.pop("drop", None)
        cache.__dict__.pop("all_blank", None)

    def check(self) -> None:
        shipped, oracle = self.shipped, self.oracle
        assert not self.shapes  # the oracle's rows were the shipped volume's
        for mine, theirs in zip(self.members[id(shipped)], self.members[id(oracle)], strict=True):
            assert list(mine.written_sectors()) == list(theirs.written_sectors())
            assert mine.events == theirs.events and mine.barriers == theirs.barriers
        assert shipped.alive == oracle.alive and shipped.rebuild_progress == oracle.rebuild_progress
        resident = list(shipped.stripe_cache.resident_sectors())
        for member, plba, data in resident:
            assert data == shipped.disks[member].peek(plba, 1), (member, plba)
            assert shipped._trusted(member, plba // shipped.chunk_sectors), (member, plba)
        for member, plba, nsectors in shipped.stripe_cache.blank_runs():
            assert shipped.disks[member].peek(plba, nsectors) == bytes(nsectors * SECTOR)
            rows = range(plba // shipped.chunk_sectors, (plba + nsectors - 1) // shipped.chunk_sectors + 1)
            assert all(shipped._trusted(member, row) for row in rows), (member, plba)
        assert len(resident) <= 2 * shipped.chunk_sectors

        for index, member in enumerate(self.members[id(oracle)]):
            start = self.journalled.get(index, 0)
            for event in member.events[start:]:
                sectors = {(index, event.lba + i) for i in range(event.nsectors)}
                self.rewrote |= not sectors.isdisjoint(self.written)
                self.written |= sectors
            self.journalled[index] = len(member.events)
        mine, theirs = shipped.volume_stats, oracle.volume_stats
        assert theirs.preread_hits == 0
        assert mine.preread_hits + mine.preread_misses == theirs.preread_misses
        assert mine.sub_reads == theirs.sub_reads - mine.preread_hits
        if self.installed_first and not self.rewrote:
            assert mine.preread_hits == 0


def run(shape: tuple, ops: list[tuple], mutation: str | None = None, span: int = 0) -> Pair:
    """``ops`` on a fresh pair; with ``span``, after installing ``[0, span)``."""
    pair = Pair(*shape, mutation=mutation)
    if span:
        pair.step(("install", 0, span))
        pair.installed_first = True
    for op in ops:
        pair.step(op)
    return pair


@st.composite
def scripts(draw):
    """A parity volume's shape and a script over a few of its stripe rows
    (close together, so ranges are written again and again)."""
    n_disks = draw(st.integers(min_value=3, max_value=5))
    chunk = draw(st.sampled_from([1, 4, 32, 160]))  # 160: extents smaller than the chunk
    layout = "raid5"
    span = 3 * chunk * (n_disks - 1)
    extents = write_extents(span, chunk, n_disks)
    write = st.tuples(st.just("write"), extents).map(lambda op: (op[0], *op[1]))
    install = st.tuples(st.just("install"), extents).map(lambda op: (op[0], *op[1]))
    corrupt = st.tuples(st.just("corrupt"), extents).map(lambda op: (op[0], *op[1]))
    other = st.one_of(
        install,
        corrupt,
        st.tuples(st.just("barrier"), st.booleans()),
        st.tuples(st.just("fail_member"), st.integers(min_value=0, max_value=n_disks - 1)),
        st.just(("replace_member",)),
        st.tuples(st.just("rebuild_step"), st.integers(min_value=1, max_value=4)),
        st.just(("resync_parity",)),
    )
    ops = draw(st.lists(st.one_of(write, write, write, other), min_size=1, max_size=24))
    # Re-writes of the very same range: the case the cache exists for.
    again = draw(st.lists(st.integers(min_value=0, max_value=len(ops) - 1), max_size=8))
    for at in sorted(again, reverse=True):
        if ops[at][0] == "write":
            ops.insert(draw(st.integers(min_value=at + 1, max_value=len(ops))), ops[at])
    return (n_disks, chunk, layout), ops, draw(st.sampled_from([0, span]))


@given(scripts())
@settings(max_examples=120, deadline=None)
def test_shipped_volume_matches_the_oracle(script):
    shape, ops, span = script
    run(shape, ops, span=span)


# ----------------------------------------------------------------------
# Each entry of the coherence rule, mutated
# ----------------------------------------------------------------------

SHAPE = (4, 8, "raid5")
SPAN = 3 * 8 * 3  # three rows

#: Rule entries whose drop is made at more than one kind of step: a member
#: leaves the cache when it fails, and again when it is replaced.
SITES = {"replace_member": ("fail_member", "replace_member")}

#: mutation -> a script that goes wrong when that entry forgets its drop.
WITNESSES = {
    "corrupt": [("write", 2, 3), ("corrupt", 3, 1), ("write", 2, 3)],
    "install": [("write", 2, 3), ("install", 3, 1), ("write", 2, 3)],
    # Rot under a remembered parity range, repaired by resync: the parity
    # chunk changes while the cache still holds the old one.
    "resync_parity": [("write", 2, 3), ("corrupt", 8 + 2, 1), ("resync_parity",), ("write", 2, 3)],
    # Nothing may be held for a member no row consults.
    "fail_member": [("write", 2, 3), ("fail_member", 0)],
    # Written while the member was away, so its replacement comes to hold
    # other bytes than the cache remembers of the old spindle.
    "replace_member": [
        ("write", 2, 3), ("fail_member", 0), ("write", 2, 3), ("replace_member",),
        ("rebuild_step", 100), ("write", 2, 3),
    ],
}
# The scanner's own entry cannot be caught alone: ``fail_member`` and
# ``replace_member`` have dropped the member, and nothing is stored for a
# row before the scanner has passed it, so the scanner's write never
# overlaps a resident sector. It is the last line behind the member's drop:
# with both gone the stale sectors survive the rebuild and feed a
# read-modify-write.
WITNESSES["replace_member+rebuild_step"] = WITNESSES["replace_member"]


@pytest.mark.parametrize("mutation", sorted(WITNESSES))
def test_each_forgotten_drop_is_caught(mutation):
    for span in (0, SPAN):  # from blank members, and over a written region
        run(SHAPE, WITNESSES[mutation], span=span)  # green as shipped ...
        with pytest.raises(AssertionError):
            run(SHAPE, WITNESSES[mutation], mutation, span=span)  # ... red without the drop


def test_replacing_without_the_drop_writes_wrong_parity_once_the_scanner_skips_too():
    """What the two mutations cost, past the resident-equals-peek check: the
    third write takes member 0's old bytes from the cache, computes parity
    from them, and the row no longer reconstructs."""
    pair = Pair(*SHAPE, mutation="replace_member+rebuild_step")
    pair.check = lambda: None  # past the check that would stop it at the replacement
    for op in [("install", 0, SPAN), *WITNESSES["replace_member"]]:
        pair.step(op)
    assert pair.shipped.volume_stats.preread_hits > pair.oracle.volume_stats.preread_hits
    parity = pair.shipped.parity_map.parity_disk(0)
    assert pair.shipped.disks[parity].peek(0, 8) != pair.oracle.disks[parity].peek(0, 8)


# ----------------------------------------------------------------------
# What is kept, what is not
# ----------------------------------------------------------------------


def written_volume() -> Volume:
    """A four-member volume of 8-sector chunks whose first three rows
    ``install`` wrote: nothing there is blank or resident."""
    volume = parity_volume(4, 8, "raid5")
    volume.install(0, random.Random(SPAN).randbytes(SPAN * SECTOR))
    return volume


def test_a_rewritten_range_is_not_read_back():
    volume = written_volume()
    stats = volume.volume_stats
    volume.write(2, bytes([1]) * 3 * SECTOR)
    assert (stats.sub_reads, stats.preread_hits, stats.preread_misses) == (2, 0, 2)
    volume.write(2, bytes([2]) * 3 * SECTOR)
    assert (stats.sub_reads, stats.preread_hits, stats.preread_misses) == (2, 2, 2)
    assert stats.preread_sectors_saved == 6 and stats.rmw_writes == 2
    # Half a hit is still a hit: the parity range is resident, the data
    # under the next chunk's fragment is not.
    volume.write(8 + 2, bytes([3]) * 3 * SECTOR)
    assert (stats.sub_reads, stats.preread_hits, stats.preread_misses) == (3, 3, 3)
    volume.fail_member(3)
    assert volume.peek(0, 24) == volume.read(0, 24)  # parity kept up throughout


def test_hits_are_counted_and_carried_by_the_write_span():
    from repro.obs import MetricsRegistry, Tracer

    volume = written_volume()
    volume.tracer = Tracer(volume.clock)
    for fill in (1, 2, 3):
        volume.write(2, bytes([fill]) * 3 * SECTOR)
    saved = [span.attrs["prereads_saved"] for span in volume.tracer.spans if span.name == "volume.write"]
    assert saved == [0, 2, 2]
    rollup = volume.volume_stats.as_dict()
    assert (rollup["preread_hits"], rollup["preread_misses"], rollup["preread_sectors_saved"]) == (4, 2, 12)
    registry = MetricsRegistry()
    registry.register("volume", volume.volume_stats)
    assert registry.collect()["volume.preread_hits"] == 4


def test_whole_chunk_member_writes_bypass_and_drop_what_they_overlap():
    volume = written_volume()
    cache, stats = volume.stripe_cache, volume.volume_stats
    volume.write(2, bytes([1]) * 3 * SECTOR)
    assert len(list(cache.resident_sectors())) == 6  # data + parity
    volume.write(0, bytes([2]) * 24 * SECTOR)  # the full row: four whole-chunk member writes
    assert list(cache.resident_sectors()) == [] and stats.full_stripe_writes == 1
    volume.write(2, bytes([3]) * 3 * SECTOR)
    assert stats.preread_hits == 0 and stats.preread_misses == 4


def test_client_reads_neither_fill_nor_consult_it():
    volume = parity_volume(4, 8, "raid5")
    stats = volume.volume_stats
    volume.write(0, bytes([1]) * 24 * SECTOR)
    volume.read(2, 3)
    volume.read_batch([(2, 3), (10, 2)])
    volume.write(2, bytes([2]) * 3 * SECTOR)
    assert stats.preread_hits == 0  # a read left nothing behind
    before = stats.sub_reads
    assert volume.read(2, 3) == bytes([2]) * 3 * SECTOR
    assert stats.sub_reads == before + 1  # resident, and read from the member all the same


def test_only_parity_layouts_have_one():
    for layout in ("stripe", "mirror"):
        members = [SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock()) for _ in range(3)]
        volume = Volume(members, VirtualClock(), layout=layout, chunk_sectors=8)
        assert volume.stripe_cache is None
        volume.write(2, bytes(3 * SECTOR))
        volume.install(2, bytes(SECTOR))
        volume.corrupt(2)
        volume.power_fail()
        assert volume.volume_stats.preread_hits == volume.volume_stats.preread_misses == 0


def test_power_failure_empties_it():
    volume = parity_volume(4, 8, "raid5")
    assert list(volume.stripe_cache.blank_runs()) != []
    volume.write(2, bytes([1]) * 3 * SECTOR)
    stats = volume.volume_stats
    assert (stats.preread_hits, stats.preread_misses) == (2, 0)  # blank data, blank parity
    volume.power_fail()
    assert list(volume.stripe_cache.resident_sectors()) == []
    assert list(volume.stripe_cache.blank_runs()) == []
    volume.write(2, bytes([2]) * 3 * SECTOR)  # written before the failure
    volume.write(8 + 2, bytes([3]) * 3 * SECTOR)  # never written, and no record of it now
    assert (stats.preread_hits, stats.preread_misses) == (3, 3)  # the parity the first rewrote


def test_volume_errors_are_ld_errors():
    from repro.ld import LDError
    from repro.lld.checkpoint import CheckpointTooLargeError

    assert issubclass(VolumeError, LDError) and issubclass(CheckpointTooLargeError, LDError)
    with pytest.raises(LDError):
        parity_volume(4, 8, "raid5").replace_member(0)  # live: nothing to rebuild


# ----------------------------------------------------------------------
# StripeCache on its own
# ----------------------------------------------------------------------


def sectors(*values: int) -> bytes:
    return b"".join(bytes([v]) * SECTOR for v in values)


def test_load_needs_every_sector_resident():
    cache = StripeCache(SECTOR, 1024)
    cache.store(0, 126, sectors(1, 2, 3, 4))  # straddles two 128-sector extents
    assert cache.load(0, 126, 4) == sectors(1, 2, 3, 4)
    assert cache.load(0, 127, 2) == sectors(2, 3)
    assert cache.load(0, 125, 2) is None and cache.load(0, 129, 2) is None
    assert cache.load(1, 126, 4) is None  # another member's sectors
    cache.drop(0, 128, 1)
    assert cache.load(0, 126, 2) == sectors(1, 2) and cache.load(0, 126, 4) is None
    assert cache.load(0, 129, 1) == sectors(4)
    cache.drop(0, 0, 128)
    assert [plba for _m, plba, _data in cache.resident_sectors()] == [129]
    cache.drop_member(0)
    assert list(cache.resident_sectors()) == []


def test_the_least_recently_written_extent_leaves_first():
    cache = StripeCache(SECTOR, 8)  # extents of 8 sectors, two of them
    assert (cache.extent_sectors, cache.max_extents) == (8, 2)
    cache.store(0, 0, sectors(1))
    cache.store(1, 8, sectors(2))
    cache.load(0, 0, 1)  # being consulted does not keep an extent ...
    cache.store(1, 9, sectors(3))  # ... being written does: (1, 1) is now the younger
    cache.store(2, 16, sectors(4))
    assert cache.load(0, 0, 1) is None
    assert cache.load(1, 8, 2) == sectors(2, 3) and cache.load(2, 16, 1) == sectors(4)
    # A recycled extent brings none of its old sectors along.
    assert [plba for _m, plba, _data in cache.resident_sectors()] == [8, 9, 16]


def test_capacity_is_two_chunks_whatever_the_chunk():
    for chunk in (1, 3, 8, 60, 128, 160, 200, 1024):
        cache = StripeCache(SECTOR, chunk)
        assert chunk < cache.max_extents * cache.extent_sectors <= 2 * chunk
        rng = random.Random(chunk)
        for _ in range(200):
            n = rng.randint(1, chunk)
            cache.store(rng.randrange(3), rng.randrange(0, 8 * chunk), bytes(n * SECTOR))
            assert len(list(cache.resident_sectors())) <= 2 * chunk
