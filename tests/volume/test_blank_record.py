"""The blank record: what a parity volume knows of sectors it never wrote.

A parity volume built on members nobody has written puts every sector of
them on record as blank (:class:`repro.volume.StripeCache`), and a row
write's pre-read of blank sectors is answered as zeros with no member
read: until the log above wraps, most of a partial flush's old data and
old parity have never been written. The record keeps the stripe cache's
one rule — a sector it calls blank reads as zeros on its member — so
every member write and every ``install``, ``corrupt`` and
``resync_parity`` takes what it touches off it, a member that fails or is
replaced loses its record, and a power failure loses all of it. Only the
rebuild scanner adds to it: on a replacement that came blank, the chunk of
a row blank on every other member.

The property drives healthy, degraded and mid-rebuild volumes through
every step that touches a member's medium — replacements blank or holding
junk among them — and checks after each one that every blank sector is
zeros on a member the volume trusts there, that ``peek`` equals a model of
the contents, and that every row the volume trusts whole reconstructs
after the loss of any one member. The last tests run one mutant per entry
of the rule and require the checks to catch each, and pin the scanner's
skip.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import SimulatedDisk, fast_test_disk
from repro.sim.clock import VirtualClock
from repro.volume import StripeCache, Volume
from repro.volume.volume import _xor_buffers

from tests.volume.test_parity_property import parity_volume, write_extents

SECTOR = 512


class Run:
    """One script on a parity volume, with the model it is checked against."""

    def __init__(self, n_disks: int, chunk: int, health: str = "healthy", victim: int = 0) -> None:
        self.volume = volume = parity_volume(n_disks, chunk, "raid5")
        self.chunk = chunk
        self.row_sectors = chunk * (n_disks - 1)
        self.span = 4 * self.row_sectors
        self.model = bytearray(self.span * SECTOR)
        #: Rows a ``corrupt`` may have left with parity that does not
        #: match their data, until the next resync.
        self.suspect: set[int] = set()
        self.rng = random.Random(f"{n_disks}/{chunk}/{health}/{victim}")
        #: Whether the checks hold the record to trusted chunks (the model
        #: alone must still catch a record that is consulted there).
        self.trust = True
        if health != "healthy":
            self.fail_member(victim)
        if health == "mid-rebuild":
            self.replace_member()
            self.rebuild_step(1)
        self.check()

    def rows(self, lba: int, nsectors: int) -> range:
        return range(lba // self.row_sectors, (lba + nsectors - 1) // self.row_sectors + 1)

    def step(self, op: tuple) -> None:
        kind, *args = op
        getattr(self, kind)(*args)
        self.check()

    # One method per kind of step, behind the precondition that decides
    # whether it applies.

    def write(self, lba: int, nsectors: int) -> None:
        data = self.rng.randbytes(nsectors * SECTOR)
        self.volume.write(lba, data)
        self.model[lba * SECTOR : (lba + nsectors) * SECTOR] = data

    def install(self, lba: int, nsectors: int) -> None:
        data = self.rng.randbytes(nsectors * SECTOR)
        self.volume.install(lba, data)
        self.model[lba * SECTOR : (lba + nsectors) * SECTOR] = data

    def corrupt(self, lba: int, nsectors: int) -> None:
        if self.volume.degraded:
            return  # garbage under a lost chunk's parity is past any model
        self.volume.corrupt(lba, nsectors)
        self.model[lba * SECTOR : (lba + nsectors) * SECTOR] = self.volume.peek(lba, nsectors)
        self.suspect.update(self.rows(lba, nsectors))

    def resync_parity(self) -> None:
        if not self.volume.degraded:
            self.volume.resync_parity()
            self.suspect.clear()

    def fail_member(self, member: int) -> None:
        volume = self.volume
        if self.suspect or (volume.degraded and member != volume._rebuilding):
            return
        volume.fail_member(member)
        if self.trust:
            assert [run for run in volume.stripe_cache.blank_runs() if run[0] == member] == []

    def replace_member(self, junk: bool = False) -> None:
        volume = self.volume
        if not volume.degraded or volume.rebuild_active:
            return
        lost = volume.alive.index(False)
        volume.replace_member(lost, junk_member(volume) if junk else None)
        assert [run for run in volume.stripe_cache.blank_runs() if run[0] == lost] == []

    def rebuild_step(self, rows: int) -> None:
        self.volume.rebuild_step(rows)

    def power_fail(self) -> None:
        self.volume.power_fail()
        assert list(self.volume.stripe_cache.blank_runs()) == []

    def check(self) -> None:
        volume = self.volume
        chunk = self.chunk
        for member, plba, nsectors in volume.stripe_cache.blank_runs():
            assert volume.disks[member].peek(plba, nsectors) == bytes(nsectors * SECTOR), (member, plba)
            if self.trust:
                rows = range(plba // chunk, (plba + nsectors - 1) // chunk + 1)
                assert all(volume._trusted(member, row) for row in rows), (member, plba)
        assert volume.peek(0, self.span) == self.model
        members = range(len(volume.disks))
        for row in range(self.span // self.row_sectors):
            if row in self.suspect or not all(volume._trusted(m, row) for m in members):
                continue
            base = volume.parity_map.row_lba(row)
            chunks = [volume.disks[m].peek(base, chunk) for m in members]
            for lost in members:
                rebuilt = _xor_buffers([c for m, c in zip(members, chunks) if m != lost])
                assert rebuilt == chunks[lost], (row, lost)


@st.composite
def scripts(draw):
    n_disks = draw(st.integers(min_value=3, max_value=5))
    chunk = draw(st.sampled_from([1, 4, 8, 32]))
    health = draw(st.sampled_from(["healthy", "degraded", "mid-rebuild"]))
    victim = draw(st.integers(min_value=0, max_value=n_disks - 1))
    extents = write_extents(4 * chunk * (n_disks - 1), chunk, n_disks)
    ops = st.one_of(
        st.tuples(st.just("write"), extents).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("write"), extents).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("install"), extents).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("corrupt"), extents).map(lambda op: (op[0], *op[1])),
        st.just(("resync_parity",)),
        st.tuples(st.just("fail_member"), st.integers(min_value=0, max_value=n_disks - 1)),
        st.tuples(st.just("replace_member"), st.booleans()),
        st.tuples(st.just("rebuild_step"), st.sampled_from([1, 2, 10_000])),
        st.just(("power_fail",)),
    )
    return (n_disks, chunk, health, victim), draw(st.lists(ops, min_size=1, max_size=16))


@given(scripts())
@settings(max_examples=80, deadline=None)
def test_the_record_holds_through_every_step(script):
    shape, ops = script
    run = Run(*shape)
    for op in ops:
        run.step(op)


# ----------------------------------------------------------------------
# What it saves, and where it starts
# ----------------------------------------------------------------------


def test_a_write_to_blank_sectors_reads_nothing_and_its_fragment_is_the_parity():
    volume = parity_volume(4, 8, "raid5")
    data = random.Random(1).randbytes(3 * SECTOR)
    volume.write(2, data)
    stats = volume.volume_stats
    assert stats.sub_reads == 0 and (stats.preread_hits, stats.preread_misses) == (2, 0)
    assert volume.disks[volume.parity_map.parity_disk(0)].peek(2, 3) == data
    # A row touched in two chunks: blank old data under both, blank parity.
    more = random.Random(2).randbytes(10 * SECTOR)
    volume.write(8 + 4, more)  # [4, 8) of chunk 1, [0, 6) of chunk 2
    assert stats.sub_reads == 0
    assert volume.peek(8 + 4, 10) == more
    assert volume.resync_parity() == 0


def test_a_blank_operand_is_left_out_of_the_xor():
    fragment = memoryview(b"\x05" * SECTOR)
    assert _xor_buffers([None, fragment, None]) is fragment  # no int round-trip
    assert _xor_buffers([None, None]) is None
    assert _xor_buffers([b"\x01" * 4, None, b"\x03" * 4]) == b"\x02" * 4


def test_only_members_never_written_start_on_record():
    members = [SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock()) for _ in range(4)]
    members[1].write(100, bytes([1]) * SECTOR)
    volume = Volume(members, VirtualClock(), layout="raid5", chunk_sectors=8)
    runs = list(volume.stripe_cache.blank_runs())
    assert sorted({member for member, _plba, _n in runs}) == [0, 2, 3]
    assert all(plba == 0 and n == members[0].geometry.total_sectors for _m, plba, n in runs)
    volume.fail_member(3)
    volume.replace_member(3)  # a blank spindle, and still no record for it
    assert sorted({member for member, _plba, _n in volume.stripe_cache.blank_runs()}) == [0, 2]


def test_the_record_is_cut_and_trimmed_by_what_is_written():
    cache = StripeCache(SECTOR, 8)
    cache.record_blank(0, 100)
    cache.store(0, 10, bytes(2 * SECTOR))
    cache.drop(0, 0, 3)
    cache.drop(0, 95, 5)
    assert list(cache.blank_runs()) == [(0, 3, 7), (0, 12, 83)]
    cache.store(0, 9, bytes(4 * SECTOR))  # over a cut: the runs meet it, not each other
    assert list(cache.blank_runs()) == [(0, 3, 6), (0, 13, 82)]
    cache.drop(0, 3, 92)
    assert list(cache.blank_runs()) == []


def test_find_answers_blank_resident_and_mixed_ranges():
    cache = StripeCache(SECTOR, 8)
    cache.record_blank(0, 64)
    assert cache.find(0, 2, 3) == [] and cache.load(0, 2, 3) == bytes(3 * SECTOR)
    cache.store(0, 4, bytes([7]) * 2 * SECTOR)
    assert cache.load(0, 2, 6) == bytes(2 * SECTOR) + bytes([7]) * 2 * SECTOR + bytes(2 * SECTOR)
    cache.drop(0, 6, 1)  # written behind the cache's back: neither blank nor resident
    assert cache.find(0, 2, 6) is None and cache.find(0, 7, 1) == []
    assert cache.find(1, 2, 1) is None  # no record for member 1


# ----------------------------------------------------------------------
# One mutant per entry of the rule, each caught
# ----------------------------------------------------------------------


def keeping_the_record(monkeypatch, name: str) -> None:
    """``Volume.<name>`` leaves the blank record as it found it."""
    real = getattr(Volume, name)

    def call(self, *args):
        cache = self.stripe_cache
        kept = {member: list(bounds) for member, bounds in cache._blank.items()}
        result = real(self, *args)
        cache._blank = kept
        return result

    monkeypatch.setattr(Volume, name, call)


def _a_replacement_on_record(monkeypatch) -> None:
    """A replacement spindle is put on record as blank, like a member the
    volume was built on — though its unrebuilt rows hold no trusted byte."""
    real = Volume.replace_member

    def replace(self, index, disk=None):
        real(self, index, disk)
        self.stripe_cache.record_blank(index, self.geometry.member.total_sectors)

    monkeypatch.setattr(Volume, "replace_member", replace)


def _answered_for_an_untrusted_chunk(monkeypatch) -> None:
    """A lost member keeps its record, and a degraded row takes the lost
    chunk's old bytes from it when it covers them instead of from parity."""
    keeping_the_record(monkeypatch, "fail_member")
    real = Volume._reconstruct_reads

    def reads(self, io, row, spanned, lo, hi, bad):
        plba = self.parity_map.row_lba(row) + lo
        if bad is not None and self.stripe_cache.find(bad, plba, hi - lo) == []:
            bad = None  # probed like a trusted chunk, and found blank
        return real(self, io, row, spanned, lo, hi, bad)

    monkeypatch.setattr(Volume, "_reconstruct_reads", reads)


#: mutant -> (how to make it, a script on four members of 8-sector chunks
#: that it must turn red).
MUTANTS = {
    "install_keeps_the_record": (
        lambda mp: keeping_the_record(mp, "install"),
        [("install", 2, 3)],
    ),
    "corrupt_keeps_the_record": (
        lambda mp: keeping_the_record(mp, "corrupt"),
        [("corrupt", 2, 1)],
    ),
    "fail_member_keeps_the_record": (
        lambda mp: keeping_the_record(mp, "fail_member"),
        [("fail_member", 1)],
    ),
    "replacement_starts_on_record": (
        _a_replacement_on_record,
        [("fail_member", 1), ("replace_member",), ("rebuild_step", 2)],
    ),
    "power_fail_keeps_the_record": (
        lambda mp: keeping_the_record(mp, "power_fail"),
        [("write", 2, 3), ("power_fail",)],
    ),
    "answered_for_an_untrusted_chunk": (
        _answered_for_an_untrusted_chunk,
        # Chunk 1 of row 0 is member 1's; it is written degraded (parity
        # only), then chunk 0 is written over the same range.
        [("fail_member", 1), ("write", 8 + 2, 2), ("write", 2, 2)],
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_of_the_rule_is_caught(mutant, monkeypatch):
    mutate, ops = MUTANTS[mutant]
    run = Run(4, 8)
    for op in ops:
        run.step(op)  # green as shipped ...
    mutate(monkeypatch)
    run = Run(4, 8)
    with pytest.raises(AssertionError):
        for op in ops:
            run.step(op)  # ... red as mutated


def test_a_record_consulted_for_an_untrusted_chunk_writes_wrong_parity(monkeypatch):
    """Past the check that no record is held for a lost member: the zeros it
    answers for the lost chunk replace what a degraded write put in parity,
    and the volume's contents are no longer the model's."""
    _answered_for_an_untrusted_chunk(monkeypatch)
    run = Run(4, 8)
    run.trust = False
    mutate, ops = MUTANTS["answered_for_an_untrusted_chunk"]
    *first, last = ops
    for op in first:
        run.step(op)
    with pytest.raises(AssertionError):
        run.step(last)
    assert run.volume.peek(8 + 2, 2) != run.model[(8 + 2) * SECTOR : (8 + 4) * SECTOR]


# ----------------------------------------------------------------------
# The rebuild scanner's skip
# ----------------------------------------------------------------------


def junk_member(volume: Volume) -> SimulatedDisk:
    """A replacement spindle whose every sector holds garbage."""
    disk = SimulatedDisk(volume.geometry.member, VirtualClock())
    disk.corrupt(0, disk.geometry.total_sectors)
    return disk


def used_volume(n_disks: int = 4, chunk: int = 8, rows: int = 4) -> tuple[Volume, bytes]:
    """A parity volume whose rows 0, 2 and 3 of the first ``rows`` hold
    random bytes on every member (installed, so nothing of them is on the
    record) and whose row 1, like every row after them, was never
    written."""
    volume = parity_volume(n_disks, chunk, "raid5")
    row_sectors = chunk * (n_disks - 1)
    data = bytearray(random.Random(n_disks * chunk).randbytes(rows * row_sectors * SECTOR))
    data[row_sectors * SECTOR : 2 * row_sectors * SECTOR] = bytes(row_sectors * SECTOR)
    volume.install(0, data[: row_sectors * SECTOR])
    volume.install(2 * row_sectors, data[2 * row_sectors * SECTOR :])
    return volume, bytes(data)


def rebuilt_volume(junk: bool) -> tuple[Volume, bytes, int]:
    """A used volume that lost the member holding row 1's first data chunk
    and rebuilt it onto a blank replacement, or one holding junk."""
    volume, data = used_volume()
    lost = volume.spindle_of(24)
    volume.fail_member(lost)
    volume.replace_member(lost, junk_member(volume) if junk else None)
    volume.rebuild_run_to_completion()
    return volume, data, lost


def test_the_rebuild_scanner_skips_a_row_blank_on_every_other_member():
    volume, data, lost = rebuilt_volume(junk=False)
    stats = volume.volume_stats
    # Rows 0, 2 and 3 are written, the rest never: only the three are
    # rebuilt, every row counts as done.
    assert stats.rebuild_writes == 3 and stats.rebuild_rows_done == volume.parity_map.rows
    assert volume.stripe_cache.all_blank(lost, 8, 8)  # put on record, not written
    assert volume.peek(0, 4 * 24) == data
    assert volume.resync_parity() == 0


def test_a_junk_replacement_is_rebuilt_at_a_row_blank_on_every_survivor():
    volume, data, lost = rebuilt_volume(junk=True)
    stats = volume.volume_stats
    assert stats.rebuild_writes == volume.parity_map.rows  # every row written
    assert not volume.stripe_cache.all_blank(lost, 8, 8)
    assert volume.disks[lost].peek(8, 8) == bytes(8 * SECTOR)
    assert volume.peek(24, 24) == bytes(24 * SECTOR)
    assert volume.peek(0, 4 * 24) == data
    assert volume.resync_parity() == 0


def test_a_scanner_skipping_onto_a_junk_replacement_is_caught(monkeypatch):
    """The mutant skips a row blank on every other member whatever the
    replacement holds: its junk chunk goes on the record, and the row reads
    the junk and fails its parity."""
    real = Volume.replace_member

    def replace(self, index, disk=None):
        real(self, index, disk)
        self._replacement_blank = True

    monkeypatch.setattr(Volume, "replace_member", replace)
    volume, _data, lost = rebuilt_volume(junk=True)
    assert volume.stripe_cache.all_blank(lost, 8, 8)
    assert volume.peek(24, 24) != bytes(24 * SECTOR)
    assert volume.resync_parity() > 0
