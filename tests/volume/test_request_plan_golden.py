"""Golden request sequences for the volume layer, pinned across refactors,
and the property that makes one gather enough: ``peek`` answers what
``read`` would.

One seeded workload per layout walks the volume through its health
states — healthy, degraded, mid-rebuild, rebuilt — issuing the request
shapes the write and read paths distinguish: chunk-aligned and straddling
reads, ``read_batch``, full-stripe writes, multi-chunk read-modify-writes,
sub-chunk writes, barriers, and the time-free ``install`` / ``peek`` /
``corrupt`` surface. At the end of every phase the test hashes what a
change to the request plan could move, in two parts, so that a change
which is *supposed* to move the timing keeps the pin on the plan:

* ``plan`` — each member's ``(op, plba, nsectors)`` request sequence, in
  issue order; the counters of ``VolumeStats.as_dict()``, per-member
  rollup included; every member's sector store; the bytes every ``read``
  / ``read_batch`` / ``peek`` returned, and which requests raised (a
  stripe with a dead member fails loudly);
* ``clocks`` — every member clock and the shared volume clock (``repr``
  of the float), and the time-valued leaves of the stats: latency
  histograms and quantiles, per-member ``busy_time``, ``busy_balance``.

The whole table was captured from the PARENT commit of the PR that
introduced this file (d264e95, the four-fork ``volume.py``), and split
into the two parts at 0b4ce39 (the parent of the seal-by-delta PR) with
every digest still the parent's, by running, in a checkout of that commit
with this file copied in::

    PYTHONPATH=src python tests/volume/test_request_plan_golden.py

which prints the ``GOLDEN`` table. A ``plan`` digest that moves means some
member saw a different request or stored different bytes; a ``clocks``
digest, that it saw one at a different time. The table had 12 rows until
the RAID-4 layout was deleted, which dropped its four and left the other
eight as they were. The ``plan`` column is still that capture on every
row; the ``clocks`` of the raid5 rows (and of the raid4 ones) were
re-captured by the PR whose parent is 0b4ce39, when a row's
read-modify-write began to wait for its pre-reads (stripe and mirror
clocks are the parent's). The ``plan`` of the raid5 (and raid4) rows with a
member down (degraded, mid-rebuild, rebuilt) was re-captured by the PR
whose parent is cdfae8e: those captures pinned a defect — a partial-row
``install`` over a row whose dead member's chunk had been written degraded
recomputed parity from that member's stale store, and the bytes ``peek``
and ``read`` returned afterwards were the reverted ones (at the parent the
script below, without its ``corrupt`` calls, leaves a volume that lost and
rebuilt a member different from one that never did;
``test_a_rebuilt_volume_ends_like_one_that_never_failed`` holds them
equal). Member request sequences, counters and every ``clocks`` digest are
still the parent's on every row; ``install`` no longer stores into a dead
member, which is all that moves the two degraded rows. Both digests of
the four raid5 rows were re-captured by the PR whose parent is 4d31e2d,
when a healthy partial row began to choose between read-modify-write and
reconstruct-write: one row of the healthy phase (five by the end of the
script) pre-reads its unwritten data chunks from members that are free
sooner instead of its old data and parity, so member reads, clocks and
the ``rmw_writes`` / ``reconstruct_writes`` split moved, while every
member's sector store and every byte ``read`` / ``peek`` returned are the
parent's in all four phases.

The ``plan`` of all four raid5 rows and the ``clocks`` of the three with a
member down were re-captured by the change whose parent is 7d6e2fd, when
``install`` began to run the write plan (parity over the range it touches,
not the whole chunk; nothing stored on an untrusted member), degraded data
rows began to reconstruct (no old-parity read when the lost member's
fragment spans the touched range; trusted chunks through the stripe
cache) and the rebuild scanner began to write a row only after its source
reads. Every member and volume clock of the healthy phase is the parent's.
Run without its ``corrupt`` calls, the script returns the parent's bytes
from every ``read`` / ``peek`` in all four phases, and every live member
holds the parent's bytes; the stores differ only in parity sectors the
parent's whole-chunk install marked written with zeros, and in parity the
parent installed on the dead member and on the replacement's unrebuilt
rows. With ``corrupt`` one byte range moves: row 66's parity sector 7
(member 1, sector 535), which the parent's install re-encoded from the
junk ``corrupt`` had left on member 2 outside the installed range, keeps
the parity of the bytes before the ``corrupt``; so once member 2 fails,
reads of that sector (and the rebuild, onto the replacement) reconstruct
those bytes instead of the junk, which moves the ``returned`` digest of
the last three phases.

Both digests of the four raid5 rows were re-captured by the change whose
parent is 1c292d2, when a pre-read of sectors the volume has never written
began to be answered as zeros from the stripe cache's blank record
(members here start blank). Compared with the parent phase by phase: every
member's write sequence ``(plba, nsectors)``, every member's sector store
and every byte ``read`` / ``peek`` returned are the parent's in all four
phases; member reads fall 295 → 233, 814 → 706, 1 616 → 1 480 and
2 240 → 2 078 (cumulative), so the clocks move, and with the cheaper
pre-reads 1, 1, 5 and 10 rows (cumulative, by phase) take
reconstruct-write instead of read-modify-write.

Both digests of the raid5 ``mid-rebuild`` and ``rebuilt`` rows were
re-captured, in this checkout, by the change whose parent is 856d364, when
the rebuild scanner began to skip a row blank on every surviving member
(rows the script never wrote): it puts the replacement's chunk on the
blank record instead of writing zeros, so the scanner's writes fell
134 -> 83 and 240 -> 152 (its reads 402 -> 249 and 720 -> 456); every
byte ``read`` / ``peek`` returned is the parent's in all four phases, and
the healthy and degraded rows are the parent's.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import SimulatedDisk, fast_test_disk
from repro.sim.clock import VirtualClock
from repro.volume import Volume, VolumeDegradedError

N_DISKS = 4
CHUNK = 8
SECTOR = 512
VICTIM = 2

#: ``(layout, phase)`` -> ``(plan, clocks)`` digests.
GOLDEN = {
    ('stripe', 'healthy'): ('1cf4ef014b01e80b', '34f8fab0566b7984'),
    ('stripe', 'degraded'): ('f638f5cc84088354', '7e06b942aaf80a42'),
    ('mirror', 'healthy'): ('83ab899222370194', '2372430c4f74708e'),
    ('mirror', 'degraded'): ('be9f7fea58d2a833', '57acf80c99b1bf2a'),
    ('raid5', 'healthy'): ('8e103bb958b0e995', '942f489de940ea73'),
    ('raid5', 'degraded'): ('0a6d3a6147f5a9d1', '2c3afb8abbd658a2'),
    ('raid5', 'mid-rebuild'): ('9a52ef71598001c3', 'a1c6df07b540662a'),
    ('raid5', 'rebuilt'): ('a09417b7a8db3700', '60f64956fbd5f3a3'),
}


class LoggingMember(SimulatedDisk):
    """A member that remembers every timed request it was sent."""

    def __init__(self) -> None:
        super().__init__(fast_test_disk(capacity_mb=1), VirtualClock())
        self.log: list[tuple[str, int, int]] = []

    def read(self, lba, nsectors, *, into=None):
        self.log.append(("r", lba, nsectors))
        return super().read(lba, nsectors, into=into)

    def write(self, lba, data):
        self.log.append(("w", lba, len(data) // SECTOR))
        super().write(lba, data)

    def barrier(self, label="barrier", *, wait=True):
        self.log.append(("b", 0, 0))
        super().barrier(label, wait=wait)


class Run:
    """One layout's volume plus the running digest of what it was asked."""

    def __init__(self, layout: str) -> None:
        self.volume = Volume(
            [LoggingMember() for _ in range(N_DISKS)],
            VirtualClock(),
            layout=layout,
            chunk_sectors=CHUNK,
        )
        #: Members ever part of the volume, replaced ones included.
        self.members = list(self.volume.disks)
        self.rng = random.Random(f"request-plan/{layout}")
        self.returned = hashlib.sha256()
        self.total = self.volume.geometry.total_sectors
        self.row = CHUNK * (N_DISKS - 1)

    def attempt(self, name: str, *args) -> None:
        """Issue one request; fold its result (or its refusal) into the digest."""
        try:
            result = getattr(self.volume, name)(*args)
        except VolumeDegradedError:
            self.returned.update(b"refused:" + name.encode())
            return
        for part in result if isinstance(result, list) else [result]:
            if part is not None:
                self.returned.update(part)

    def extent(self, longest: int) -> tuple[int, int]:
        lba = self.rng.randrange(self.total)
        return lba, self.rng.randint(1, min(self.total - lba, longest))

    def aligned(self, sectors: int, unit: int) -> int:
        """A ``unit``-aligned LBA with room for ``sectors`` after it."""
        return self.rng.randrange((self.total - sectors) // unit) * unit

    def phase(self, corrupting: bool = False) -> None:
        rng = self.rng
        for _ in range(12):
            self.attempt("write", self.aligned(2 * self.row, self.row), rng.randbytes(2 * self.row * SECTOR))
            lba, n = self.extent(3 * self.row)
            self.attempt("write", lba, rng.randbytes(n * SECTOR))
            lba = self.aligned(CHUNK, CHUNK) + rng.randrange(1, CHUNK - 2)
            self.attempt("write", lba, rng.randbytes(rng.randint(1, 2) * SECTOR))
            self.attempt("read", self.aligned(3 * CHUNK, CHUNK), 3 * CHUNK)
            self.attempt("read", *self.extent(3 * self.row))
            self.attempt("read_batch", [self.extent(2 * self.row) for _ in range(rng.randint(2, 5))])
            if rng.random() < 0.5:
                self.volume.barrier()
            lba, n = self.extent(2 * self.row)
            self.attempt("install", lba, rng.randbytes(n * SECTOR))
            self.attempt("peek", *self.extent(3 * self.row))
            if corrupting:
                self.attempt("corrupt", *self.extent(CHUNK))
        self.volume.barrier()
        self.volume.drain()

    def digest(self) -> tuple[str, str]:
        """``(plan, clocks)`` hashes (see the module docstring)."""
        volume = self.volume
        counts = volume.volume_stats.as_dict()
        times = {
            name: counts.pop(name)
            for name in list(counts)
            if name.startswith(("read_latency", "write_latency", "busy_"))
        }
        times["busy_time"] = [member.pop("busy_time") for member in counts["per_disk"]]
        # Counters younger than the capture stay out of the hash, so the
        # table below is still the parent's: a pre-read the stripe cache
        # serves is a member read missing from ``requests``, which is pinned.
        for name in [name for name in counts if name.startswith("preread_")]:
            del counts[name]
        # So does the reconstruct-write count while no row has taken that
        # shape (a row that did is a request sequence that moved anyway).
        if not counts["reconstruct_writes"]:
            del counts["reconstruct_writes"]
        plan = {
            "requests": [member.log for member in self.members],
            "stats": counts,
            "returned": self.returned.hexdigest(),
            "stores": [
                hashlib.sha256(
                    b"".join(
                        lba.to_bytes(4, "little") + data
                        for lba, data in member.written_sectors()
                    )
                ).hexdigest()
                for member in self.members
            ],
        }
        clocks = {
            "member_clocks": [repr(member.clock.now) for member in self.members],
            "clock": repr(volume.clock.now),
            "stats": times,
        }
        return tuple(
            hashlib.sha256(json.dumps(part, sort_keys=True, default=repr).encode()).hexdigest()[:16]
            for part in (plan, clocks)
        )


def run_layout(layout: str) -> dict[tuple[str, str], tuple[str, str]]:
    """Walk one layout through its health states; digest after each phase."""
    run = Run(layout)
    volume = run.volume
    out = {}
    run.phase(corrupting=True)
    out[layout, "healthy"] = run.digest()

    volume.fail_member(VICTIM)
    run.phase()
    out[layout, "degraded"] = run.digest()
    if volume.parity_map is None:
        return out

    replacement = LoggingMember()
    run.members.append(replacement)
    volume.replace_member(VICTIM, replacement)
    volume.rebuild_step(volume.parity_map.rows // 3)
    volume.rebuild_rate = 0.75
    run.phase()
    assert volume.rebuild_active and 0.3 < volume.rebuild_progress < 1.0
    out[layout, "mid-rebuild"] = run.digest()

    volume.rebuild_run_to_completion()
    run.phase()
    assert not volume.degraded
    out[layout, "rebuilt"] = run.digest()
    return out


@pytest.mark.parametrize("layout", ["stripe", "mirror", "raid5"])
def test_request_plan_matches_parent_commit(layout):
    got = run_layout(layout)
    assert got == {key: GOLDEN[key] for key in got}
    assert len(got) == sum(1 for key in GOLDEN if key[0] == layout)


@pytest.mark.parametrize("layout", ["raid5"])
def test_a_rebuilt_volume_ends_like_one_that_never_failed(layout):
    """The same script (minus ``corrupt``, which breaks the parity a
    reconstruction needs) on a volume that loses a member, serves degraded,
    rebuilds under traffic and finishes, and on one that stays whole: equal
    contents after every phase. Degraded writes, partial-row installs over
    un-rebuilt chunks and the scanner all have to agree for that."""

    def contents(fail: bool) -> list[bytes]:
        run = Run(layout)
        volume = run.volume
        run.phase()
        if fail:
            volume.fail_member(VICTIM)
        run.phase()
        seen = [volume.peek(0, run.total)]
        if fail:
            volume.replace_member(VICTIM, LoggingMember())
            volume.rebuild_step(volume.parity_map.rows // 3)
            volume.rebuild_rate = 0.75
        run.phase()
        seen.append(volume.peek(0, run.total))
        if fail:
            volume.rebuild_run_to_completion()
            assert volume.resync_parity() == 0
        run.phase()
        return seen + [volume.peek(0, run.total)]

    assert contents(fail=True) == contents(fail=False)


def outcome(call, *args):
    try:
        return call(*args)
    except VolumeDegradedError:
        return "refused"


@given(
    st.sampled_from(["stripe", "mirror", "raid5"]),
    st.sampled_from(["healthy", "degraded", "mid-rebuild"]),
    st.sampled_from([1, 3, 8]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_peek_answers_what_read_would(layout, health, chunk, data):
    """``peek`` and ``read`` are one gather over two member fetches: in every
    layout and health state they return the same bytes — or, on a stripe
    with a dead member, refuse the same requests."""
    volume = Volume(
        [LoggingMember() for _ in range(N_DISKS)],
        VirtualClock(),
        layout=layout,
        chunk_sectors=chunk,
    )
    total = volume.geometry.total_sectors
    extents = st.integers(0, total - 1).flatmap(
        lambda lba: st.tuples(
            st.just(lba), st.integers(1, min(total - lba, 4 * chunk * N_DISKS))
        )
    )
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for lba, n in data.draw(st.lists(extents, min_size=1, max_size=8)):
        volume.write(lba, rng.randbytes(n * SECTOR))
    if health != "healthy":
        victim = data.draw(st.integers(0, N_DISKS - 1))
        volume.fail_member(victim)
        if health == "mid-rebuild" and volume.parity_map is not None:
            volume.replace_member(victim)
            rows = volume.parity_map.rows
            volume.rebuild_step(data.draw(st.integers(0, rows - 1)))
        for lba, n in data.draw(st.lists(extents, max_size=4)):
            outcome(volume.write, lba, rng.randbytes(n * SECTOR))
    for lba, n in data.draw(st.lists(extents, min_size=1, max_size=6)):
        peeked = outcome(volume.peek, lba, n)
        assert peeked == outcome(volume.read, lba, n)
        assert peeked == outcome(volume.peek, lba, n)  # reading changed nothing


if __name__ == "__main__":
    print("GOLDEN = {")
    for layout in ("stripe", "mirror", "raid5"):
        for key, value in run_layout(layout).items():
            print(f"    {key!r}: {value!r},")
    print("}")
