"""Per-disk crash recording and degraded-volume exploration.

A multi-spindle volume fails in ways a single disk cannot: one member can
crash at a different journal point than another, or drop out entirely. This
module extends the crash-state machinery to mirrored and parity volumes:

* :class:`MirrorRecording` wraps **each member** of a mirrored
  :class:`~repro.volume.Volume` in its own
  :class:`~repro.crashsim.recording.RecordingDisk`, so every spindle keeps
  a private write journal. Because the volume fans every write out to the
  members in a fixed order and forwards every barrier, the journals are
  *isomorphic* — same writes, same order, same epochs — which gives the
  durability oracle a single coordinate system (member 0's position) valid
  for any member.

* :func:`explore_degraded_mirror` enumerates the crash states of **one**
  member's journal, mounts each image as a degraded volume (the other
  members failed — the "one disk missing" scenario), and recovers LLD
  through the volume. Any acknowledged write survives on every member, so
  a mirrored volume must pass the full four-invariant check with any
  single survivor.

* :class:`ParityRecording` + :func:`explore_degraded_parity` do the same
  for RAID-5. Parity changes the crash model fundamentally: member
  journals are *not* isomorphic (each member sees different bytes), and a
  row's consistency is **entangled across members** — a crash that lands
  a row's data write without its parity write (or vice versa) leaves a
  row whose XOR no longer reconstructs the missing chunk. So crash states
  are enumerated as **globally epoch-aligned cuts**: the volume forwards
  every barrier to every member in one call, which makes the per-member
  positions at each global barrier a consistent vector; a crash lands on
  one of those vectors, plus per-member subsets/torn writes drawn from
  the single in-flight epoch. Recovery then mirrors what a real array
  (Linux md) does after an unclean shutdown: **resync parity** while all
  members are present (:meth:`~repro.volume.Volume.resync_parity`),
  *then* lose a member and recover LLD degraded — reconstruction serves
  the lost member's chunks, and the durability oracle must still hold.
  Without the resync the same exploration demonstrates the RAID-5 write
  hole (``tests/volume/test_parity.py`` pins both sides). A member that
  failed *before* the crash — the true write hole — is out of scope
  here, as it is for md without a journal device.

The *stale* member case (a member that stopped receiving writes early but
is still spinning) is the same set of images: a stale member is exactly a
crash state of its journal. A real array must detect staleness before
trusting such a member (generation stamps, dirty-region logs); this
reproduction models the detection as already done — the stale/absent
member is marked failed and recovery proceeds from the survivor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crashsim.explorer import (
    CrashStateEnumerator,
    ExplorationReport,
    Plan,
)
from repro.crashsim.oracle import DurabilityOracle, LLDCrashChecker
from repro.crashsim.recording import RecordingDisk
from repro.disk.disk import SimulatedDisk
from repro.lld.config import LLDConfig
from repro.sim.clock import VirtualClock
from repro.volume import Volume


class _MemberRecording:
    """One :class:`RecordingDisk` per member of a volume of ``LAYOUTS``.

    Installs the wrappers *in place* (``volume.disks[i]``), so the volume's
    own dispatch path journals every member write with zero changes.
    """

    LAYOUTS: tuple[str, ...] = ()

    def __init__(self, volume: Volume) -> None:
        if volume.layout not in self.LAYOUTS:
            raise ValueError(
                f"{type(self).__name__} targets {'/'.join(self.LAYOUTS)}, "
                f"got {volume.layout!r}"
            )
        if volume.degraded:
            raise ValueError("cannot start recording on a degraded volume")
        self.volume = volume
        self.members = [RecordingDisk(disk) for disk in volume.disks]
        volume.disks[:] = self.members


class MirrorRecording(_MemberRecording):
    """Member journals of a mirrored volume.

    The facade exposes the journal-query surface the
    :class:`~repro.crashsim.oracle.OracleDriver` needs (``position``,
    ``epoch_count``), answered from member 0 — legal because the member
    journals are isomorphic (asserted by :meth:`assert_isomorphic`).
    """

    LAYOUTS = ("mirror",)

    @property
    def position(self) -> int:
        """The oracle's write-journal clock (member 0's, by isomorphism)."""
        return self.members[0].position

    @property
    def epoch_count(self) -> int:
        return self.members[0].epoch_count

    def assert_isomorphic(self) -> None:
        """Verify every member journalled the same write/barrier stream."""
        reference = self.members[0]
        ref_writes = [(e.epoch, e.lba, e.nsectors) for e in reference.events]
        ref_barriers = [(b.position, b.epoch) for b in reference.barriers]
        for k, member in enumerate(self.members[1:], start=1):
            writes = [(e.epoch, e.lba, e.nsectors) for e in member.events]
            if writes != ref_writes or (
                [(b.position, b.epoch) for b in member.barriers] != ref_barriers
            ):
                raise AssertionError(
                    f"mirror member {k} journal diverged from member 0 "
                    f"({len(writes)} vs {len(ref_writes)} writes)"
                )

    def __repr__(self) -> str:
        return (
            f"MirrorRecording({len(self.members)} members, "
            f"{self.position} writes each)"
        )


def degraded_mirror_volume(
    survivor_image: SimulatedDisk, n_members: int, survivor_index: int
) -> Volume:
    """A mirrored volume where only ``survivor_index`` is live.

    The other members are blank stand-ins already marked failed — the
    post-detection picture of "one disk is missing or stale": recovery
    must proceed from the survivor alone.
    """
    disks: list[SimulatedDisk] = []
    for i in range(n_members):
        if i == survivor_index:
            disks.append(survivor_image)
        else:
            disks.append(SimulatedDisk(survivor_image.geometry, VirtualClock()))
    volume = Volume(disks, VirtualClock(), layout="mirror")
    for i in range(n_members):
        if i != survivor_index:
            volume.fail_member(i)
    return volume


def explore_degraded_mirror(
    recording: MirrorRecording,
    config: LLDConfig,
    oracle: DurabilityOracle,
    *,
    survivor: int = 0,
    **enumerator_kwargs,
) -> ExplorationReport:
    """Explore every crash state of one member, recovered degraded.

    Enumerates the crash images of member ``survivor``'s journal
    (prefixes, torn writes, intra-epoch reorderings), mounts each as a
    degraded mirror with every *other* member dropped, and runs the full
    :class:`LLDCrashChecker` through the volume. The journals being
    isomorphic, each image's ``covered_seq`` is directly comparable with
    the oracle's acknowledgement positions regardless of which member
    survives — so zero violations here proves the mirrored volume loses
    no acknowledged data when any one disk (or all but one) drops.
    """
    recording.assert_isomorphic()
    n_members = len(recording.members)
    enumerator = CrashStateEnumerator(recording.members[survivor], **enumerator_kwargs)
    checker = LLDCrashChecker(config, oracle)

    def check(disk: SimulatedDisk, state):
        return checker(degraded_mirror_volume(disk, n_members, survivor), state)

    return enumerator.explore(check)


# ----------------------------------------------------------------------
# Parity volumes: globally epoch-aligned crash states + degraded recovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VolumeCrashState:
    """One crash state of a multi-member volume: a plan per member.

    Duck-types the fields :class:`~repro.crashsim.oracle.LLDCrashChecker`
    reads from a single-disk :class:`~repro.crashsim.explorer.CrashState`
    (``state_id``, ``kind``, ``covered_seq``, ``detail``).

    ``covered_seq`` lives in the *summed* coordinate system of
    :attr:`ParityRecording.position`: every acknowledgement lands at a
    global barrier, where the sum of member positions is well defined and
    monotone, so the oracle's ``seq <= covered_seq`` comparisons carry
    over unchanged.
    """

    state_id: int
    kind: str  # "cut" | "torn" | "subset"
    covered_seq: int
    plans: tuple[Plan, ...]
    detail: str = ""


class ParityRecording(_MemberRecording):
    """Member journals of a RAID-5 volume, plus the barrier vectors.

    Like :class:`MirrorRecording`, and additionally journals the **global
    barrier vector**: the tuple of per-member journal positions after each
    volume-level barrier. Parity journals are not isomorphic (every member
    sees different bytes), so those vectors are the only consistent cuts a
    crash can land on — the volume forwards one ``barrier()`` call to all
    members, modelling a cache-flush broadcast.

    ``position`` — the oracle's clock — is the *sum* of member positions:
    at every global barrier (hence at every acknowledgement) it is well
    defined and strictly monotone in the barrier order.
    """

    LAYOUTS = ("raid5",)

    def __init__(self, volume: Volume) -> None:
        super().__init__(volume)
        #: Per-member journal positions after each volume barrier.
        self.epoch_positions: list[tuple[int, ...]] = []
        original_barrier = volume.barrier

        def journalling_barrier(label: str = "barrier", *, wait: bool = True) -> None:
            original_barrier(label, wait=wait)
            vector = tuple(m.position for m in self.members)
            if not self.epoch_positions or self.epoch_positions[-1] != vector:
                self.epoch_positions.append(vector)

        volume.barrier = journalling_barrier  # type: ignore[method-assign]

    @property
    def position(self) -> int:
        """Sum of member journal positions (the oracle's clock)."""
        return sum(m.position for m in self.members)

    @property
    def epoch_count(self) -> int:
        return len(self.epoch_positions)

    def __repr__(self) -> str:
        return (
            f"ParityRecording({len(self.members)} members, "
            f"{self.position} writes total, {self.epoch_count} epochs)"
        )


def enumerate_parity_crash_states(
    recording: ParityRecording,
    *,
    subset_samples_per_epoch: int = 10,
    max_states: int = 100_000,
    seed: int = 0,
) -> list[VolumeCrashState]:
    """All sampled crash states of a recorded parity-volume run.

    Three kinds, mirroring the single-disk enumerator under the global
    alignment constraint:

    * **cut** — the crash hit between epochs: every member holds exactly
      its journal prefix at one global barrier vector (including the
      empty vector and, when writes trail the last barrier, the full
      journals).
    * **torn** — on top of a cut, exactly one in-flight multi-sector
      write of the next epoch left a sector-aligned proper prefix.
    * **subset** — on top of a cut, each member applied a program-order
      subset of its next-epoch writes: deterministic drop-one states for
      every write, plus seeded random per-member subset combinations.
      These are the write-hole states — a row's data landing without its
      parity or vice versa.
    """
    members = recording.members
    n = len(members)
    zero = tuple(0 for _ in members)
    final = tuple(m.position for m in members)
    boundaries = [zero] + [v for v in recording.epoch_positions if v != zero]
    if boundaries[-1] != final:
        boundaries.append(final)

    rng = random.Random(seed)
    states: list[VolumeCrashState] = []
    seen: set[tuple[Plan, ...]] = set()

    full_plans: list[list[tuple[int, int]]] = [
        [(e.seq, e.nsectors) for e in m.events] for m in members
    ]

    def add(kind: str, covered: int, plans: tuple[Plan, ...], detail: str) -> bool:
        if len(states) >= max_states:
            return False
        if plans in seen:
            return True
        seen.add(plans)
        states.append(
            VolumeCrashState(
                state_id=len(states),
                kind=kind,
                covered_seq=covered,
                plans=plans,
                detail=detail,
            )
        )
        return True

    def cut(vector: tuple[int, ...]) -> tuple[Plan, ...]:
        return tuple(tuple(full_plans[m][: vector[m]]) for m in range(n))

    # Every cut first (as CrashStateEnumerator does with its prefixes):
    # states dedupe by plan, and a sampled subset that happens to be a
    # whole epoch would otherwise shadow the next cut and record it with
    # this cut's ``covered_seq`` — the oracle would then accept the loss
    # of anything acknowledged in between.
    for k, vector in enumerate(boundaries):
        if not add("cut", sum(vector), cut(vector), detail=f"epoch@{k}"):
            return states

    for k, (vector, nxt) in enumerate(zip(boundaries, boundaries[1:])):
        base_plans = cut(vector)
        covered = sum(vector)
        epoch_writes = [list(range(vector[m], nxt[m])) for m in range(n)]

        # Torn: one in-flight multi-sector write tears, everything else
        # of the epoch is absent (the most conservative torn picture).
        for m in range(n):
            for seq in epoch_writes[m]:
                nsectors = full_plans[m][seq][1]
                if nsectors < 2:
                    continue
                for applied in (1, nsectors - 1):
                    plans = list(base_plans)
                    plans[m] = base_plans[m] + ((seq, applied),)
                    if not add(
                        "torn",
                        covered,
                        tuple(plans),
                        detail=f"epoch@{k}:m{m}w{seq}+{applied}/{nsectors}",
                    ):
                        return states

        # Subsets: drop exactly one write of the epoch (the classic
        # lost-write / write-hole shape), then seeded random per-member
        # subset combinations.
        width = sum(len(w) for w in epoch_writes)
        if width == 0:
            continue
        for m in range(n):
            for seq in epoch_writes[m]:
                plans = list(
                    tuple(full_plans[i][: nxt[i]]) for i in range(n)
                )
                plans[m] = base_plans[m] + tuple(
                    full_plans[m][s] for s in epoch_writes[m] if s != seq
                )
                if not add(
                    "subset",
                    covered,
                    tuple(plans),
                    detail=f"epoch@{k}:m{m}-w{seq}",
                ):
                    return states
        for _ in range(subset_samples_per_epoch):
            plans = []
            picked = []
            for m in range(n):
                chosen = tuple(s for s in epoch_writes[m] if rng.random() < 0.5)
                plans.append(
                    base_plans[m] + tuple(full_plans[m][s] for s in chosen)
                )
                picked.append(len(chosen))
            if not add(
                "subset",
                covered,
                tuple(plans),
                detail=f"epoch@{k}:rand{picked}",
            ):
                return states
    return states


def materialize_parity_crash_state(
    recording: ParityRecording, state: VolumeCrashState
) -> Volume:
    """Build the crash image as a fresh volume (fresh clocks, zero stats)."""
    source = recording.volume
    disks = [
        member.image(plan) for member, plan in zip(recording.members, state.plans)
    ]
    return Volume(
        disks,
        VirtualClock(),
        layout=source.layout,
        chunk_sectors=source.chunk_sectors,
    )


def explore_degraded_parity(
    recording: ParityRecording,
    config: LLDConfig,
    oracle: DurabilityOracle,
    *,
    fail: int = 0,
    resync: bool = True,
    **enumerator_kwargs,
) -> ExplorationReport:
    """Explore every sampled crash state, recovered with a member failed.

    The md-style unclean-shutdown sequence per state: materialize the
    globally-aligned crash image, **resync parity** with all members
    present, *then* drop member ``fail`` and recover LLD through the
    degraded volume — every chunk of the failed member is served by XOR
    reconstruction, and the four-invariant durability check must still
    pass. ``resync=False`` skips the resync step and exhibits the RAID-5
    write hole: inconsistent rows reconstruct garbage for data the oracle
    already acknowledged.
    """
    checker = LLDCrashChecker(config, oracle)

    def check(state: VolumeCrashState):
        volume = materialize_parity_crash_state(recording, state)
        if resync:
            volume.resync_parity()
        volume.fail_member(fail)
        return checker(volume, state)

    return ExplorationReport.collect(
        enumerate_parity_crash_states(recording, **enumerator_kwargs), check
    )
