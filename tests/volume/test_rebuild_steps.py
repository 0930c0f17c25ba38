"""The rebuild scanner, a step at a time.

A chunk larger than ``REBUILD_STEP_SECTORS`` is rebuilt in several steps:
each reads the other members over the next at most 64 KB of the cursor
row's chunk and writes their XOR to the replacement. The row stays
untrusted until its last step, so reads and the write path see whole rows
as before; the one rule the steps add is that the replacement's rebuilt
prefix of the cursor row equals the XOR of the other members there, so a
write or ``install`` that changes what the replacement should hold inside
that prefix moves it back to the start of the step it touches.

The property drives a small RAID-5 whose chunk spans two or three steps
through member failure and replacement, scanner steps, writes anywhere in
the cursor row (the replacement holding a data chunk or the parity chunk,
the row's first sector among them), reads and ``install``, with ``peek``
against a model after every step; when the scan ends, the replacement
equals the XOR of the other members on every row and ``resync_parity``
finds nothing to change. The cases pin the rewind itself and
``rebuild_step`` finishing a part-done row; the last test runs the scanner
without the rule and requires the checks to catch it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume import Volume
from repro.volume.volume import REBUILD_STEP_SECTORS, _xor_buffers

from tests.volume.test_parity_property import parity_volume

SECTOR = 512
STEP = REBUILD_STEP_SECTORS
#: Two whole steps; three, the last one half a step.
CHUNKS = (2 * STEP, 2 * STEP + STEP // 2)


class Run:
    """One script on a parity volume, with the model it is checked against."""

    def __init__(self, n_disks: int, chunk: int, victim: int, filled: bool, seed: int = 0) -> None:
        self.volume = volume = parity_volume(n_disks, chunk, "raid5")
        self.chunk = chunk
        self.victim = victim
        self.row_sectors = chunk * (n_disks - 1)
        self.span = volume.geometry.total_sectors
        self.model = bytearray(self.span * SECTOR)
        self.rng = random.Random(seed)
        if filled:
            self.install(0, self.span)

    def step(self, op: tuple) -> None:
        kind, *args = op
        getattr(self, kind)(*args)
        assert self.volume.peek(0, self.span) == self.model

    def write(self, lba: int, nsectors: int) -> None:
        nsectors = min(nsectors, self.span - lba)
        data = self.rng.randbytes(nsectors * SECTOR)
        self.volume.write(lba, data)
        self.model[lba * SECTOR : (lba + nsectors) * SECTOR] = data

    def install(self, lba: int, nsectors: int) -> None:
        nsectors = min(nsectors, self.span - lba)
        data = self.rng.randbytes(nsectors * SECTOR)
        self.volume.install(lba, data)
        self.model[lba * SECTOR : (lba + nsectors) * SECTOR] = data

    def read(self, lba: int, nsectors: int) -> None:
        nsectors = min(nsectors, self.span - lba)
        assert self.volume.read(lba, nsectors) == self.model[lba * SECTOR : (lba + nsectors) * SECTOR]

    def cursor_write(self, at: int, nsectors: int, install: bool = False) -> None:
        """A write (or ``install``) ``at`` sectors into the cursor row's
        logical range; ``at == 0`` is the row's first sector."""
        volume = self.volume
        row = volume._rebuild_cursor if volume.rebuild_active else 0
        lba = row * self.row_sectors + at % self.row_sectors
        (self.install if install else self.write)(lba, nsectors)

    def fail(self) -> None:
        if not self.volume.degraded:
            self.volume.fail_member(self.victim)

    def replace(self) -> None:
        volume = self.volume
        if volume.degraded and not volume.rebuild_active:
            volume.replace_member(self.victim)

    def scan(self, steps: int) -> None:
        """What ``steps`` steps' worth of rate credit runs."""
        self.volume._scan(steps, whole_rows=False)

    def rebuild_step(self, rows: int) -> None:
        self.volume.rebuild_step(rows)

    def finish(self) -> None:
        """Scan to the end; the replacement is the XOR of the others."""
        self.replace()
        volume = self.volume
        volume.rebuild_run_to_completion()
        assert not volume.degraded
        assert volume.peek(0, self.span) == self.model
        pmap = volume.parity_map
        others = [d for i, d in enumerate(volume.disks) if i != self.victim]
        for row in range(pmap.rows):
            base = pmap.row_lba(row)
            twin = _xor_buffers([d.peek(base, self.chunk) for d in others])
            assert volume.disks[self.victim].peek(base, self.chunk) == twin, row
        assert volume.resync_parity() == 0


@st.composite
def scripts(draw):
    n_disks = draw(st.integers(min_value=3, max_value=5))
    chunk = draw(st.sampled_from(CHUNKS))
    victim = draw(st.integers(min_value=0, max_value=n_disks - 1))
    row = chunk * (n_disks - 1)
    span = parity_volume(n_disks, chunk, "raid5").geometry.total_sectors
    anywhere = st.tuples(
        st.integers(min_value=0, max_value=span - 1), st.integers(min_value=1, max_value=2 * chunk)
    )
    in_row = st.tuples(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=row - 1)),
        st.integers(min_value=1, max_value=chunk + STEP),
        st.booleans(),
    )
    ops = st.one_of(
        st.tuples(st.just("cursor_write"), in_row).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("cursor_write"), in_row).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("scan"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("scan"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("write"), anywhere).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("install"), anywhere).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("read"), anywhere).map(lambda op: (op[0], *op[1])),
        st.tuples(st.just("rebuild_step"), st.integers(min_value=1, max_value=2)),
        st.just(("fail",)),
        st.just(("replace",)),
    )
    start = [("fail",), ("replace",)]
    return (n_disks, chunk, victim, draw(st.booleans())), start + draw(
        st.lists(ops, min_size=1, max_size=20)
    )


@given(scripts(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_the_scanner_rebuilds_the_xor_of_the_others_a_step_at_a_time(script, seed):
    shape, ops = script
    run = Run(*shape, seed=seed)
    for op in ops:
        run.step(op)
    run.finish()


# ----------------------------------------------------------------------
# The rewind, and whole rows counted whole
# ----------------------------------------------------------------------


def part_done(holds: str) -> Run:
    """A filled four-member volume rebuilding the member that holds row 0's
    ``"parity"`` or first ``"data"`` chunk, one step into the row."""
    volume = parity_volume(4, 2 * STEP, "raid5")
    pmap = volume.parity_map
    victim = pmap.parity_disk(0) if holds == "parity" else pmap.data_disks(0)[0]
    run = Run(4, 2 * STEP, victim, filled=True)
    for op in [("fail",), ("replace",), ("scan", 1)]:
        run.step(op)
    assert (run.volume._rebuild_cursor, run.volume._rebuilt_prefix) == (0, STEP)
    return run


@pytest.mark.parametrize("holds", ["parity", "data"])
def test_a_write_inside_the_rebuilt_prefix_moves_it_back(holds):
    """A write at the row's first sector changes the parity chunk, and the
    first data chunk: the replacement's first step is rebuilt again."""
    run = part_done(holds)
    run.step(("cursor_write", 0, 8))
    assert run.volume._rebuilt_prefix == 0
    run.finish()


def test_a_write_past_the_prefix_or_beside_the_replacement_leaves_it():
    """Past the prefix nothing is rebuilt yet; a write to another data
    chunk leaves what a replacement data chunk should hold alone."""
    run = part_done("data")
    run.step(("cursor_write", STEP, 8))  # the replacement's second step
    assert run.volume._rebuilt_prefix == STEP
    run.step(("cursor_write", 2 * STEP, 8))  # the row's second data chunk
    assert run.volume._rebuilt_prefix == STEP
    run.finish()


def test_an_install_inside_the_prefix_moves_it_back():
    run = part_done("parity")
    run.step(("cursor_write", 3, 1, True))
    assert run.volume._rebuilt_prefix == 0
    run.finish()


def test_rebuild_step_finishes_a_part_done_row():
    run = part_done("data")
    volume = run.volume
    stats = volume.volume_stats
    assert stats.rebuild_rows_done == 0 and (stats.rebuild_reads, stats.rebuild_writes) == (3, 1)
    assert not volume._trusted(run.victim, 0)
    assert volume.rebuild_step(1) == 1
    assert (volume._rebuild_cursor, volume._rebuilt_prefix) == (1, 0)
    assert volume._trusted(run.victim, 0) and not volume._trusted(run.victim, 1)
    # The row's second step only: three reads and one write of a step each.
    assert (stats.rebuild_rows_done, stats.rebuild_reads, stats.rebuild_writes) == (1, 6, 2)
    run.finish()


def test_the_rate_is_rows_per_request_spent_a_step_at_a_time():
    """Half a row per request on a two-step chunk: one step per read."""
    run = part_done("parity")
    volume = run.volume
    volume.rebuild_rate = 0.5
    run.step(("read", 0, 1))
    assert (volume._rebuild_cursor, volume._rebuilt_prefix) == (1, 0)
    run.step(("read", 0, 1))
    assert (volume._rebuild_cursor, volume._rebuilt_prefix) == (1, STEP)
    run.finish()


def test_a_scanner_without_the_prefix_rule_is_caught(monkeypatch):
    monkeypatch.setattr(Volume, "_unrebuild", lambda self, row, within: None)
    for holds in ("parity", "data"):
        with pytest.raises(AssertionError):
            test_a_write_inside_the_rebuilt_prefix_moves_it_back(holds)
    # The property's own checks, on a script of its steps.
    victim = parity_volume(3, 2 * STEP, "raid5").parity_map.parity_disk(0)
    run = Run(3, 2 * STEP, victim, filled=True, seed=5)
    for op in [("fail",), ("replace",), ("scan", 1), ("cursor_write", 0, 8), ("scan", 3)]:
        run.step(op)
    with pytest.raises(AssertionError):
        run.finish()
