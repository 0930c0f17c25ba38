"""The blank record: what a parity volume knows means zeros.

A parity volume built on members nobody has written puts every sector of
them on record as blank (:class:`repro.volume.StripeCache`), and the layer
above may grant it more: a whole stripe row it holds nothing in
(:meth:`repro.volume.Volume.discard`), and after a power failure the
sectors it had granted before. A blank sector means zeros to reads,
parity, reconstruction and the rebuild scanner, whatever its member
holds, so a row write's pre-read of it issues no member read. Every
member write and every ``install``, ``corrupt`` and ``resync_parity``
takes what it touches off the record, a member that fails or is replaced
loses its record, and a power failure loses all of it — which the layer
above restores, as a log recovering from a crash does.

The property drives healthy, degraded and mid-rebuild volumes through
every step that touches a member's medium or the record — grants over
rows whose members hold old bytes among them — and checks after each one
that the record covers only chunks the volume trusts, that ``peek``
equals a model of the contents, and that every live sector of a row the
volume trusts whole reconstructs after the loss of any one member. The
last tests run one mutant per entry of the rule and require the checks to
catch each.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import SimulatedDisk, fast_test_disk
from repro.sim.clock import VirtualClock
from repro.volume import StripeCache, Volume
from repro.volume.volume import _Install, _xor_buffers

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
        #: Logical sectors granted and not written since: what the layer
        #: above grants back after a power failure.
        self.granted: set[int] = set()
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
        self.granted.difference_update(range(lba, lba + nsectors))

    def install(self, lba: int, nsectors: int) -> None:
        data = self.rng.randbytes(nsectors * SECTOR)
        self.volume.install(lba, data)
        self.model[lba * SECTOR : (lba + nsectors) * SECTOR] = data
        self.granted.difference_update(range(lba, lba + nsectors))

    def corrupt(self, lba: int, nsectors: int) -> None:
        if self.volume.degraded:
            return  # garbage under a lost chunk's parity is past any model
        volume = self.volume
        volume.corrupt(lba, nsectors)
        # What the members now hold there, the record aside: corrupt takes
        # it off the record, so that is what the volume reads.
        raw = volume._gather(lba, nsectors, lambda m, plba, n: volume.disks[m].peek(plba, n))
        self.model[lba * SECTOR : (lba + nsectors) * SECTOR] = raw
        self.suspect.update(self.rows(lba, nsectors))
        self.granted.difference_update(range(lba, lba + nsectors))

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

    def replace_member(self) -> None:
        volume = self.volume
        if not volume.degraded or volume.rebuild_active:
            return
        lost = volume.alive.index(False)
        volume.replace_member(lost)
        assert [run for run in volume.stripe_cache.blank_runs() if run[0] == lost] == []

    def rebuild_step(self, rows: int) -> None:
        self.volume.rebuild_step(rows)

    def discard(self, row: int) -> None:
        lba = row * self.row_sectors
        self.volume.discard(lba, self.row_sectors)
        self.model[lba * SECTOR : (lba + self.row_sectors) * SECTOR] = bytes(
            self.row_sectors * SECTOR
        )
        self.granted.update(range(lba, lba + self.row_sectors))

    def power_fail(self) -> None:
        """Memory is lost; the layer above grants back what it had granted
        and no write has touched since, run by run."""
        volume = self.volume
        volume.power_fail()
        assert list(volume.stripe_cache.blank_runs()) == []
        sectors = sorted(self.granted)
        start = 0
        for i in range(1, len(sectors) + 1):
            if i == len(sectors) or sectors[i] != sectors[i - 1] + 1:
                volume.discard(sectors[start], sectors[i - 1] - sectors[start] + 1)
                start = i

    def check(self) -> None:
        volume = self.volume
        chunk = self.chunk
        if self.trust:
            for member, plba, nsectors in volume.stripe_cache.blank_runs():
                rows = range(plba // chunk, (plba + nsectors - 1) // chunk + 1)
                assert all(volume._trusted(member, row) for row in rows), (member, plba)
        assert volume.peek(0, self.span) == self.model
        members = range(len(volume.disks))
        logical = _Install(volume).read  # the members as the volume takes them
        for row in range(self.span // self.row_sectors):
            if row in self.suspect or not all(volume._trusted(m, row) for m in members):
                continue
            base = volume.parity_map.row_lba(row)
            chunks = [logical(m, base, chunk) for m in members]
            for lost in members:
                rebuilt = _xor_buffers([c for m, c in zip(members, chunks) if m != lost])
                rebuilt = rebuilt or bytes(chunk * SECTOR)
                for sector in range(chunk):
                    if not volume.stripe_cache.all_blank(lost, base + sector, 1):
                        at = slice(sector * SECTOR, (sector + 1) * SECTOR)
                        assert rebuilt[at] == chunks[lost][at], (row, lost, sector)


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
        st.just(("replace_member",)),
        st.tuples(st.just("rebuild_step"), st.sampled_from([1, 2, 10_000])),
        st.just(("power_fail",)),
        st.tuples(st.just("discard"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("discard"), st.integers(min_value=0, max_value=3)),
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
# What the layer above grants: whole rows, and after a power failure
# ----------------------------------------------------------------------


def used_volume(n_disks: int = 4, chunk: int = 8, rows: int = 4) -> tuple[Volume, bytes]:
    """A parity volume whose first ``rows`` rows hold random bytes on every
    member (installed, so nothing of them is on the record)."""
    volume = parity_volume(n_disks, chunk, "raid5")
    data = random.Random(n_disks * chunk).randbytes(rows * chunk * (n_disks - 1) * SECTOR)
    volume.install(0, data)
    return volume, data


def test_a_granted_row_reads_as_zeros_and_costs_no_request():
    volume, data = used_volume()
    row_sectors = 8 * 3
    requests = [disk.stats.requests for disk in volume.disks]
    volume.discard(row_sectors, row_sectors)  # row 1
    assert [disk.stats.requests for disk in volume.disks] == requests
    assert sorted(m for m, plba, n in volume.stripe_cache.blank_runs() if (plba, n) == (8, 8)) == [0, 1, 2, 3]
    assert volume.peek(row_sectors, row_sectors) == bytes(row_sectors * SECTOR)
    assert volume.read(0, 2 * row_sectors)[: row_sectors * SECTOR] == data[: row_sectors * SECTOR]
    # Its members still hold the old bytes; a partial write into it reads none.
    assert any(volume.disks[m].peek(8, 8) != bytes(8 * SECTOR) for m in range(4))
    volume.write(row_sectors + 3, bytes([9]) * 2 * SECTOR)
    assert volume.volume_stats.preread_misses == 0
    assert volume.peek(row_sectors, 8) == bytes(3 * SECTOR) + bytes([9]) * 2 * SECTOR + bytes(3 * SECTOR)


def test_a_row_covered_in_part_is_granted_only_as_a_restatement():
    """After a power failure the record is gone; the layer above grants back
    what it had granted, down to sectors — unless a resync has folded the
    members' bytes into the row's parity since."""
    volume, _data = used_volume()
    volume.discard(24, 24)
    volume.write(24 + 2, bytes([5]) * SECTOR)
    volume.power_fail()
    assert list(volume.stripe_cache.blank_runs()) == []
    volume.discard(24, 2)  # what no write touched since the grant
    volume.discard(24 + 3, 24 - 3)
    assert volume.peek(24, 24) == bytes(2 * SECTOR) + bytes([5]) * SECTOR + bytes(21 * SECTOR)
    # The parity of every offset where all data is blank is blank again.
    holder = volume.parity_map.parity_disk(1)
    assert volume.stripe_cache.all_blank(holder, 8 + 3, 5)
    resynced, _ = used_volume()
    resynced.discard(24, 24)
    resynced.power_fail()
    resynced.resync_parity()
    resynced.discard(24 + 3, 24 - 3)
    assert list(resynced.stripe_cache.blank_runs()) == []
    resynced.discard(24, 24)  # a whole row is always granted
    assert resynced.peek(24, 24) == bytes(24 * SECTOR)


def test_the_rebuild_scanner_skips_a_row_blank_on_every_other_member():
    volume, data = used_volume()
    volume.discard(24, 24)
    lost = volume.spindle_of(24)
    volume.fail_member(lost)
    volume.replace_member(lost)
    volume.rebuild_run_to_completion()
    stats = volume.volume_stats
    # Rows 0, 2 and 3 are written; row 1 is granted, the rest never
    # written: only the three are rebuilt, every row counts as done.
    assert stats.rebuild_writes == 3 and stats.rebuild_rows_done == volume.parity_map.rows
    assert volume.stripe_cache.all_blank(lost, 8, 8)  # put on record, not written
    assert volume.peek(24, 24) == bytes(24 * SECTOR)
    assert volume.peek(0, 24) == data[: 24 * SECTOR]
    assert volume.resync_parity() == 0


def test_a_scanner_that_rebuilds_a_granted_row_from_member_bytes_is_caught(monkeypatch):
    """The mutant reads the survivors' media as they are, granted or not,
    and writes their XOR: the replacement's chunk of the granted row is
    junk where the volume means zeros."""
    monkeypatch.setattr(StripeCache, "all_blank", lambda self, member, plba, n: False)
    monkeypatch.setattr(
        Volume,
        "_xor_others",
        lambda self, skip, plba, n, fetch: _xor_buffers(
            [self.disks[i].peek(plba, n) for i in range(len(self.disks)) if i != skip]
        ),
    )
    volume, _data = used_volume()
    volume.discard(24, 24)
    lost = volume.spindle_of(24)  # a data chunk of the granted row
    volume.fail_member(lost)
    volume.replace_member(lost)
    volume.rebuild_run_to_completion()
    assert volume.peek(24, 24) != bytes(24 * SECTOR)


def test_a_degraded_read_that_xors_a_blank_operand_as_it_lies_is_caught(monkeypatch):
    """A granted row written in part, then a member lost: the live sectors
    reconstruct only if the blank operands count as zeros."""

    def run() -> tuple[bytes, bytes]:
        volume, _data = used_volume()
        volume.discard(24, 24)
        live = bytes([7]) * 3 * SECTOR
        volume.write(24 + 2, live)
        volume.fail_member(volume.spindle_of(24 + 2))
        return volume.peek(24 + 2, 3), live

    got, live = run()
    assert got == live
    monkeypatch.setattr(
        Volume,
        "_xor_others",
        lambda self, skip, plba, n, fetch: _xor_buffers(
            [self.disks[i].peek(plba, n) for i in range(len(self.disks)) if i != skip]
        ),
    )
    got, live = run()
    assert got != live
