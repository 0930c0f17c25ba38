"""Durability oracle, workload driver, and LLD invariant checker.

The oracle answers one question for every crash image: *what was the LD
allowed to lose?* It is built by running the workload through an
:class:`OracleDriver` that mirrors every operation into an expected view
(blocks and lists), snapshots that view at every acknowledgement point
(a ``Flush`` followed by a barrier), and stamps each snapshot with the
write journal's position.

A crash image whose ``covered_seq`` is at least a snapshot's position
contains every sector that snapshot depended on, so the image must honour
it. The invariants checked on each image:

1. **Recovery never raises.** Any byte pattern a crash can produce must
   recover (possibly to an older state), never crash the recoverer.
2. **ARUs are all-or-nothing.** Generation-stamped blocks written inside
   one atomic recovery unit must recover uniformly.
3. **Acknowledged durability.** Everything acknowledged before the crash
   point reads back with its acknowledged contents.
4. **Prefix consistency.** The recovered client-visible state equals
   *some* acknowledgement snapshot at or after the last covered one —
   never a state the execution did not pass through, never future data
   grafted onto old state.

Invariants 3 and 4 are one check, :meth:`DurabilityOracle.match`: the
recovered view must equal a snapshot ``p_j`` with ``j >= latest_covered``.
This is exact, not merely monotone, because LLD's summary-update protocol
makes every realizable record prefix coincide with an acknowledgement
boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.disk.disk import SimulatedDisk
from repro.ld.errors import LDError
from repro.ld.hints import LIST_HEAD
from repro.lld.config import SECTOR, LLDConfig
from repro.lld.lld import LLD
from repro.sim.clock import VirtualClock
from repro.volume import Volume

from repro.crashsim.explorer import CheckOutcome, CrashState, Violation


@dataclass(frozen=True)
class OraclePoint:
    """One acknowledgement snapshot of the expected client-visible state.

    ``seq`` is the write-journal position when the acknowledgement
    completed: a crash image that fully applies the first ``seq`` writes
    contains everything this snapshot needs.
    """

    seq: int
    label: str
    blocks: dict[int, bytes]  # bid -> acked content (non-empty only)
    lists: dict[int, tuple[int, ...]]  # lid -> block chain


@dataclass
class DurabilityOracle:
    """The acknowledgement history plus ARU bookkeeping."""

    points: list[OraclePoint] = field(default_factory=list)
    #: Per committed generation: the blocks an ARU stamped, for the
    #: all-or-nothing check (see :func:`aru_generation`).
    aru_blocks: tuple[int, ...] = ()

    def latest_covered_index(self, covered_seq: int) -> int:
        """Index of the newest snapshot the crash image must honour.

        Returns -1 when the crash predates every acknowledgement (the
        image owes the client nothing — any recovered state that matches
        a snapshot, including the initial empty one, is acceptable).
        """
        latest = -1
        for i, point in enumerate(self.points):
            if point.seq <= covered_seq:
                latest = i
            else:
                break
        return latest

    def match(
        self, covered_seq: int, blocks: dict[int, bytes], lists: dict[int, tuple[int, ...]]
    ) -> int | None:
        """The client contract: the snapshot a recovered view equals.

        The index of the first snapshot at or after the latest one the
        image covers that equals ``(blocks, lists)``; -1 for the empty view
        of a crash before the first acknowledgement; ``None`` when no
        snapshot matches — the recovery lost or invented something.
        """
        latest = self.latest_covered_index(covered_seq)
        for j in range(max(latest, 0), len(self.points)):
            point = self.points[j]
            if blocks == point.blocks and lists == point.lists:
                return j
        if latest < 0 and not blocks and not lists:
            return -1
        return None


class OracleDriver:
    """Runs a workload against an LD while mirroring the expected state.

    The mirror re-implements only the *client-visible contract* — block
    contents and list membership — not the log mechanics, so a bug in
    LLD's write or recovery path cannot also hide in the oracle.

    Every mirrored call names the handle it goes through: the LD itself,
    or a :class:`~repro.sched.TenantSession` of a server over it. The
    mirror is **global**: behind a server one physical ``Flush``
    acknowledges several tenants' writes (group commit), and a tenant's
    writes become durable because another tenant flushed, so every
    acknowledgement snapshots the whole view. ARU staging is **per
    handle**: operations inside a handle's open ARU reach the mirror at its
    ``end_aru`` and never after an ``abort_aru``, so snapshots taken
    meanwhile exclude them, exactly as recovery must.

    ``ld`` is the LD under every handle (for :meth:`room_low`);
    ``recording`` stamps snapshots with its journal ``position`` — a
    driver without one mirrors but takes no snapshots.
    """

    def __init__(self, ld: LLD, recording=None) -> None:
        self.ld = ld
        self.recording = recording
        self.oracle = DurabilityOracle()
        self.blocks: dict[int, bytes] = {}
        self.lists: dict[int, list[int]] = {}
        self._staged: dict[object, list[tuple]] = {}  # handle -> its open ARU's ops
        #: Writes of another tenant dispatched between a commit and its
        #: acknowledgement (0 on a device with nothing to wait for).
        self.overlapped = 0
        #: Reads dispatched in that window and still at the disks when the
        #: write after them was done.
        self.parked_reads = 0

    # -- mirrored client operations ------------------------------------

    def new_list(self, h, **kwargs) -> int:
        lid = h.new_list(**kwargs)
        self.lists[lid] = []
        self._check_slots()
        return lid

    def delete_list(self, h, lid: int) -> None:
        h.delete_list(lid)
        for bid in self.lists.pop(lid):
            self.blocks.pop(bid, None)
        self._check_slots()

    def new_block(self, h, lid: int, pred_bid: int) -> int:
        bid = h.new_block(lid, pred_bid)
        self._apply_or_stage(h, ("new_block", lid, pred_bid, bid))
        return bid

    def write(self, h, bid: int, data: bytes) -> None:
        h.write(bid, bytes(data))
        self._apply_or_stage(h, ("write", bid, bytes(data)))

    def delete_block(self, h, bid: int, lid: int) -> None:
        h.delete_block(bid, lid)
        self._apply_or_stage(h, ("delete_block", bid, lid))

    def begin_aru(self, h) -> int:
        aru = h.begin_aru()
        self._staged[h] = []
        self._check_slots()
        return aru

    def end_aru(self, h) -> None:
        h.end_aru()
        for op in self._staged.pop(h):
            self._apply(op)
        self._check_slots()

    def abort_aru(self, h) -> None:
        """The ARU never commits: its records are logged and may even
        become durable, but every recovery discards them — so the
        expected view is never touched."""
        h.abort_aru()
        del self._staged[h]
        self._check_slots()

    def _check_slots(self) -> None:
        """After every mirrored operation: an LLD's slot table holds."""
        slots = getattr(self.ld, "slots", None)
        if slots is not None:
            slots.check()

    def _apply_or_stage(self, h, op: tuple) -> None:
        staged = self._staged.get(h)
        if staged is not None:
            staged.append(op)
        else:
            self._apply(op)
        self._check_slots()

    def _apply(self, op: tuple) -> None:
        match op[0]:
            case "new_block":
                _, lid, pred_bid, bid = op
                chain = self.lists[lid]
                if pred_bid == LIST_HEAD:
                    chain.insert(0, bid)
                else:
                    chain.insert(chain.index(pred_bid) + 1, bid)
            case "write":
                _, bid, data = op
                self.blocks[bid] = data
            case "delete_block":
                _, bid, lid = op
                self.lists[lid].remove(bid)
                self.blocks.pop(bid, None)

    # -- acknowledgement -----------------------------------------------

    def freeze(self, label: str) -> OraclePoint:
        """The mirror as it stands, stamped with the journal position."""
        return OraclePoint(
            seq=self.recording.position,
            label=label,
            blocks={b: d for b, d in self.blocks.items() if d},
            lists={lid: tuple(chain) for lid, chain in self.lists.items()},
        )

    def ack(self, h, label: str) -> None:
        """Flush through ``h``, then snapshot what the client may now rely on."""
        h.flush()
        self._check_slots()
        self.oracle.points.append(self.freeze(label))

    def request_flush(self, sess, label: str) -> bool:
        """A session's deferrable intent: only a group commit that went
        physical is an acknowledgement."""
        committed = sess.request_flush()
        self._check_slots()
        if committed:
            self.oracle.points.append(self.freeze(label))
        return committed

    def ack_overlapped(
        self, sess, other, bid: int, data: bytes, label: str, read_bid: int
    ) -> None:
        """``sess`` forces a commit; ``other`` reads ``read_bid`` and writes
        ``bid`` while the disks are still busy with it.

        The commit covers what was dispatched before it, so the snapshot
        is frozen when it is issued and joins the oracle at its
        acknowledgement; the write — dispatched inside the window, or,
        where the device left none, right after it — is mirrored
        afterwards and waits for the next commit. The read, of a block on
        the medium, queues behind the commit's writes and completes after
        the write that follows it; its bytes are the mirror's.
        """
        server = sess.server
        flush = sess.submit_flush(force=True)
        while server.queued:
            server.step()
        covered = self.freeze(label)
        read = other.submit_read(read_bid)
        write = other.submit_write(bid, bytes(data))
        while not write.done:
            server.step()
        for op in (read, write):
            if op.error is not None:
                raise op.error
        if not flush.done:
            self.overlapped += 1
            if not read.done:
                self.parked_reads += 1
        server.drain(until=flush)
        server.drain(until=read)
        if read.result != self.blocks[read_bid]:
            raise AssertionError(f"{label}: read of {read_bid} differs from the mirror")
        self.oracle.points.append(replace(covered, seq=self.recording.position))
        self._apply_or_stage(other, ("write", bid, bytes(data)))  # checks the slots

    def room_low(self, data_len: int = 8192, record_bytes: int = 256) -> bool:
        """Is the open segment near capacity for the next operation?

        The driver acks before running out of room so a segment seal never
        happens mid-operation: a seal writes the summary with a half-done
        operation's records, creating an on-disk state no acknowledgement
        snapshot describes. (Client code doesn't need this discipline —
        it simply cannot *rely* on unacknowledged data — but the oracle's
        exact-match check does.)
        """
        return not self.ld.log.has_room(data_len, record_bytes)


# ----------------------------------------------------------------------
# Recovered-state observation
# ----------------------------------------------------------------------


def client_view(
    ld: LLD, bids: list[int], lids: list[int]
) -> tuple[dict[int, bytes], dict[int, tuple[int, ...]]]:
    """The client-visible state of a recovered LD over a known universe.

    Blocks that do not exist or hold no content are simply absent, which
    matches how :class:`OraclePoint` stores its view.
    """
    blocks: dict[int, bytes] = {}
    for bid in bids:
        try:
            data = ld.read(bid)
        except LDError:
            continue
        if data:
            blocks[bid] = data
    lists: dict[int, tuple[int, ...]] = {}
    for lid in lids:
        try:
            lists[lid] = tuple(ld.list_blocks(lid))
        except LDError:
            continue
    return blocks, lists


def aru_generation(blocks: dict[int, bytes], aru_bids: tuple[int, ...]) -> set[bytes]:
    """Distinct generation stamps among the ARU-written blocks.

    The matrix workload writes ``b"gen-N..."`` content to every block in
    ``aru_bids`` inside a single ARU, so a recovered image must show at
    most one distinct stamp (or none, before the first generation).
    """
    stamps: set[bytes] = set()
    for bid in aru_bids:
        data = blocks.get(bid)
        if data:
            stamps.add(data[:16])
    return stamps


# ----------------------------------------------------------------------
# The standard crash-matrix workloads
# ----------------------------------------------------------------------


def _content(tag: str, index: int, length: int) -> bytes:
    """Deterministic, self-describing block content of ``length`` bytes."""
    stem = f"{tag}-{index:04d}:".encode()
    reps = length // len(stem) + 1
    return (stem * reps)[:length]


def _stamped(gen: int, index: int, length: int = 1600) -> bytes:
    """ARU content: a 16-byte generation stamp, then per-block filler.

    The stamp is identical for every block written in one generation, so
    :func:`aru_generation` can check uniformity with a fixed-width slice.
    """
    stamp = f"gen-{gen:02d}".encode().ljust(16, b".")
    return stamp + _content("arub", index, length - 16)


def run_matrix_workload(
    driver: OracleDriver,
    *,
    n_small: int = 10,
    n_overwrites: int = 4,
    generations: int = 3,
    n_fill: int = 12,
    fill_size: int = 4096,
) -> dict:
    """Drive the phases the crash matrix explores, acking as it goes.

    Phases: list/block creation with per-op acks (growing summaries and
    multi-sector data tails), overwrites, a delete, generation-stamped
    ARUs (with a flush during an open ARU, and one aborted ARU), enough
    bulk data to seal at least one segment, then an ARU whose records span
    a seal, the cleaner taking the slot that holds its COMMIT, and
    overwrites until the log has gone round the disk and reopened that
    slot. Every phase ends at an acknowledgement, and the driver acks
    early whenever the open segment runs low on room, so seals only ever
    happen inside a flush.
    """
    ld = driver.ld
    maybe = driver.room_low
    lid = driver.new_list(ld)
    driver.ack(ld, "create-list")

    # Phase A: growth. Varied sizes so data tails cross sector boundaries.
    bids: list[int] = []
    pred = LIST_HEAD
    for i in range(n_small):
        if maybe():
            driver.ack(ld, "room")
        bid = driver.new_block(ld, lid, pred)
        driver.write(ld, bid, _content("grow", i, 700 + (i % 5) * 613))
        driver.ack(ld, f"grow-{i}")
        bids.append(bid)
        pred = bid

    # Phase B: overwrites of acknowledged blocks.
    for i in range(min(n_overwrites, len(bids))):
        if maybe():
            driver.ack(ld, "room")
        driver.write(ld, bids[i], _content("over", i, 1200 + i * 307))
        driver.ack(ld, f"over-{i}")

    # Phase C: delete one acknowledged block.
    victim = bids.pop(len(bids) // 2)
    if maybe():
        driver.ack(ld, "room")
    driver.delete_block(ld, victim, lid)
    driver.ack(ld, "delete")

    # Phase D: generation-stamped ARUs over a fixed block set.
    aru_bids: list[int] = []
    for i in range(3):
        if maybe():
            driver.ack(ld, "room")
        bid = driver.new_block(ld, lid, bids[-1] if bids else LIST_HEAD)
        bids.append(bid)
        aru_bids.append(bid)
    driver.ack(ld, "aru-setup")
    driver.oracle.aru_blocks = tuple(aru_bids)
    for gen in range(1, generations + 1):
        if maybe(3 * 2048, 512):
            driver.ack(ld, "room")
        driver.begin_aru(ld)
        for j, bid in enumerate(aru_bids):
            driver.write(ld, bid, _stamped(gen, j))
        if gen == 2:
            # A flush during an open ARU: durable but uncommitted records.
            driver.ack(ld, f"mid-aru-{gen}")
        driver.end_aru(ld)
        driver.ack(ld, f"gen-{gen}")

    # Phase E: an aborted ARU — its writes must vanish at every recovery.
    if maybe(3 * 2048, 512):
        driver.ack(ld, "room")
    driver.begin_aru(ld)
    for j, bid in enumerate(aru_bids):
        driver.write(ld, bid, _stamped(99, j))
    driver.abort_aru(ld)
    driver.ack(ld, "post-abort")

    # Phase F: bulk fill to push the open segment over the seal threshold.
    for i in range(n_fill):
        if maybe(fill_size + 512, 256):
            driver.ack(ld, "room")
        bid = driver.new_block(ld, lid, bids[-1])
        bids.append(bid)
        driver.write(ld, bid, _content("fill", i, fill_size))
        driver.ack(ld, f"fill-{i}")

    # Phase G: an ARU whose records span a seal, the cleaner taking the
    # slot that holds its COMMIT, then overwrites until the log has gone
    # round the disk and opens that slot again.
    log = ld.log
    plain = [bid for bid in bids if bid not in aru_bids]
    count = itertools.count()

    def overwrite_until(done, label: str) -> None:
        while not done():
            if maybe(fill_size + 512, 256):
                driver.ack(ld, label)
            else:
                i = next(count)
                driver.write(ld, plain[i % len(plain)], _content("cycle", i, fill_size))

    if maybe(3 * 2048, 512):
        driver.ack(ld, "room")
    driver.begin_aru(ld)
    for j, bid in enumerate(aru_bids):
        driver.write(ld, bid, _stamped(generations + 1, j))
    slot = log.open.index
    overwrite_until(lambda: log.open.index != slot, "span-seal")  # a mid-unit seal
    commit_slot = log.open.index
    driver.end_aru(ld)
    driver.ack(ld, "span-commit")
    overwrite_until(lambda: log.open.index != commit_slot, "room")
    ld.cleaner.clean_segment(commit_slot)
    driver.ack(ld, "cleaned")
    overwrite_until(lambda: log.open.index == commit_slot, "room")
    driver.ack(ld, "recycled")

    return {"lid": lid, "bids": bids, "aru_bids": tuple(aru_bids)}


def run_checkpoint_matrix_workload(
    driver: OracleDriver,
    *,
    n_blocks: int = 8,
    fill_size: int = 4096,
) -> dict:
    """Drive an LLD with two checkpoint copies through what its running
    checkpoints distinguish, acking as it goes (and whenever the open
    segment runs low on room, as :func:`run_matrix_workload` does):

    A. overwrites across three checkpoints, so that both copies hold one
       and crash states fall inside an image write and between a
       checkpoint and the first write to a slot it listed;
    B. an ARU open when a checkpoint is due: the checkpoint is deferred
       and the log goes on along the chain past the list, then the unit
       commits and overwrites go on until one is taken;
    C. new blocks until a checkpoint lists slots the cleaner has yet to
       empty (fewer are free than ``reserve``) and the log opens one of
       them, emptied, then deletes, and overwrites until one is taken
       again;
    D. an aborted ARU (its values put back in the tables), then
       overwrites until the next checkpoint is taken;
    E. a crash with the chain past the list, a restart on the same disk,
       overwrites, and the same again: crash states after a restart must
       find what the restarted log wrote.

    Returns the LLD the workload ended with, and the checkpoint counters
    summed over every LLD it ran.
    """
    ld = driver.ld
    counters = dict.fromkeys(
        ("checkpoints_written", "checkpoints_refused", "restarts", "startup_checkpoints"), 0
    )
    lid = driver.new_list(ld)
    driver.ack(ld, "create-list")
    bids: list[int] = []
    pred = LIST_HEAD
    for i in range(n_blocks):
        if driver.room_low():
            driver.ack(ld, "room")
        pred = driver.new_block(ld, lid, pred)
        bids.append(pred)
        driver.write(ld, pred, _stamped(0, i) if i < 2 else _content("base", i, 700 + i * 311))
    driver.ack(ld, "base")
    aru_bids = tuple(bids[:2])
    driver.oracle.aru_blocks = aru_bids
    plain = bids[2:]
    count = itertools.count()

    def overwrite() -> None:
        i = next(count)
        driver.write(ld, plain[i % len(plain)], _content("cycle", i, fill_size))

    def make_room(label: str, data_len: int = fill_size + 512) -> None:
        """Ack before the open segment runs out of room. A summary can fill
        up below the seal threshold, so that the ack leaves it short: then
        overwrites — single records, which may seal without splitting an
        operation — each acked, until there is room."""
        if driver.room_low(data_len, 512):
            driver.ack(ld, label)
            while driver.room_low(data_len, 512):
                overwrite()
                driver.ack(ld, label)

    def overwrite_until(done, label: str) -> None:
        for _ in range(100 * ld.layout.segment_count):
            if done():
                driver.ack(ld, label)
                return
            make_room(label)
            overwrite()
        raise AssertionError(f"{label}: the log never got there")

    def stamp(gen: int) -> None:
        make_room("room", 3 * 2048)
        for j, bid in enumerate(aru_bids):
            driver.write(ld, bid, _stamped(gen, j))

    victims: list[set[int]] = [set()]
    written = [0]

    def track() -> None:
        """Remember the slots the newest checkpoint listed that still hold
        live data: the victims the cleaner empties for the log to open."""
        if ld.stats.checkpoints_written != written[0]:
            written[0] = ld.stats.checkpoints_written
            victims.append({slot for slot in ld.slots.listed if ld.state.usage.get(slot, 0)})

    def restart(label: str) -> None:
        """Crash right after an acknowledgement and start a fresh LLD on
        the same disk: the mirror is what it recovers."""
        nonlocal ld
        driver.ack(ld, label)
        for name in ("checkpoints_written", "checkpoints_refused"):
            counters[name] += getattr(ld.stats, name)
        ld.crash()
        ld = LLD(ld.disk, ld.config)
        ld.initialize()
        driver.ld = ld
        counters["restarts"] += 1
        counters["startup_checkpoints"] += ld.stats.checkpoints_written
        written[0] = 0
        track()

    # A: checkpoints into both copies, and a tail behind the third.
    overwrite_until(lambda: ld.stats.checkpoints_written >= 3, "checkpointed")
    track()
    # B: a checkpoint falls due inside an ARU; the log goes on along the
    # chain, past the list, with the unit open.
    driver.begin_aru(ld)
    stamp(1)
    refused = ld.stats.checkpoints_refused
    overwrite_until(lambda: ld.stats.checkpoints_refused > refused, "aru-open")
    refused = ld.stats.checkpoints_refused
    overwrite_until(lambda: ld.stats.checkpoints_refused > refused + 1, "aru-chain")
    driver.end_aru(ld)
    driver.ack(ld, "aru-commit")
    taken = ld.stats.checkpoints_written
    overwrite_until(lambda: ld.stats.checkpoints_written > taken, "covered-again")
    track()
    # C: space pressure. A checkpoint lists the cleaner's next victims
    # after the few free slots, and the log opens them once emptied.
    extra: list[int] = []
    for _ in range(100 * ld.layout.segment_count):
        if victims[-1] & (ld.slots.since or set()):
            break
        make_room("filling")
        pred = driver.new_block(ld, lid, pred)
        extra.append(pred)
        driver.write(ld, pred, _content("fill", len(extra), fill_size))
        track()
    else:
        raise AssertionError("full: the log never opened a listed victim")
    driver.ack(ld, "full")
    while extra:
        make_room("room", 0)
        driver.delete_block(ld, extra.pop(), lid)
    track()
    taken = ld.stats.checkpoints_written
    overwrite_until(lambda: ld.stats.checkpoints_written > taken, "deleted")
    track()
    # D: an aborted unit; the next checkpoint holds what it put back.
    driver.begin_aru(ld)
    stamp(99)
    driver.abort_aru(ld)
    driver.ack(ld, "post-abort")
    taken = ld.stats.checkpoints_written
    overwrite_until(lambda: ld.stats.checkpoints_written > taken, "checkpointed-after-abort")
    track()
    # E: twice, a unit open when a checkpoint falls due takes the log past
    # the list, and the LLD crashes before the next checkpoint. The
    # restart recovers through the chain and must open a slot a second
    # crash finds — crash states after it check that. First the unit
    # commits and the crash leaves the chain's last summary open (start-up
    # takes a checkpoint); then it stays open, and the crash comes right
    # after a flush that sealed, the slot the last summary names unwritten
    # (the restarted log opens that one).
    for round_ in range(2):
        driver.begin_aru(ld)
        stamp(100 + round_)
        refused = ld.stats.checkpoints_refused
        overwrite_until(lambda: ld.stats.checkpoints_refused > refused, f"past-list-{round_}")
        if round_ == 0:
            driver.end_aru(ld)
        else:
            for _ in range(100 * ld.layout.segment_count):
                if ld.log.open.is_empty:
                    break
                overwrite()
                driver.ack(ld, "sealing")
            else:
                raise AssertionError("restart: no flush sealed")
        restart(f"restart-{round_}")
        overwrite_until(lambda: ld.stats.segments_sealed > 1, f"restarted-{round_}")
    for name in ("checkpoints_written", "checkpoints_refused"):
        counters[name] += getattr(ld.stats, name)
    return {"lid": lid, "bids": bids, "aru_bids": aru_bids, "ld": ld, **counters}


def run_multitenant_matrix_workload(
    driver: OracleDriver,
    a,
    b,
    *,
    n_small: int = 4,
    n_overwrites: int = 2,
    generations: int = 2,
    n_fill: int = 6,
    fill_size: int = 4096,
) -> dict:
    """The matrix phases, driven by two tenant sessions of one server.

    Every phase ends at an acknowledgement and the driver acks early
    whenever the open segment runs low, exactly like
    :func:`run_matrix_workload` — plus the multi-tenant-only shapes:
    pooled deferrable intents committed by the *other* tenant, a mid-ARU
    flush forced by a tenant that is not the one holding the ARU open, and
    (last) commits with the other tenant's read and write inside them, so
    the crash matrix can assert that queueing, scheduling, and group
    commit open no new crash window.
    """
    maybe = driver.room_low
    lid_a = driver.new_list(a)
    lid_b = driver.new_list(b)
    driver.ack(a, "create-lists")

    bids = {a.name: [], b.name: []}
    pred = {a.name: LIST_HEAD, b.name: LIST_HEAD}

    # Phase A: interleaved growth. Even rounds pool two deferrable
    # intents (the second commits the group when group_commit <= 2);
    # odd rounds force an ack.
    for i in range(n_small):
        for sess, lid in ((a, lid_a), (b, lid_b)):
            if maybe():
                driver.ack(sess, "room")
            bid = driver.new_block(sess, lid, pred[sess.name])
            driver.write(
                sess, bid, _content(sess.name, i, 600 + (i % 4) * 450)
            )
            bids[sess.name].append(bid)
            pred[sess.name] = bid
        if i % 2 == 0:
            driver.request_flush(a, f"defer-{i}")
            if not driver.request_flush(b, f"pooled-{i}"):
                driver.ack(b, f"pooled-{i}")  # group larger than 2: force
        else:
            driver.ack(a, f"grow-{i}")

    # Phase B: overwrites of acknowledged blocks.
    for i in range(min(n_overwrites, len(bids[a.name]))):
        if maybe():
            driver.ack(a, "room")
        driver.write(a, bids[a.name][i], _content("aover", i, 1100))
        driver.ack(a, f"over-{i}")

    # Phase C: delete one acknowledged block.
    victim = bids[b.name].pop(0)
    if maybe():
        driver.ack(b, "room")
    driver.delete_block(b, victim, lid_b)
    driver.ack(b, "delete")

    # Phase D: generation-stamped ARUs for tenant a — interleaved with a
    # plain write and a *mid-ARU ack* from tenant b (a's records become
    # durable but uncommitted) — plus one concurrent committed ARU by b.
    aru_bids = []
    for _ in range(3):
        if maybe():
            driver.ack(a, "room")
        bid = driver.new_block(a, lid_a, pred[a.name])
        pred[a.name] = bid
        bids[a.name].append(bid)
        aru_bids.append(bid)
    driver.ack(a, "aru-setup")
    driver.oracle.aru_blocks = tuple(aru_bids)
    for gen in range(1, generations + 1):
        if maybe(3 * 2048, 512):
            driver.ack(a, "room")
        driver.begin_aru(a)
        for j, bid in enumerate(aru_bids):
            driver.write(a, bid, _stamped(gen, j, 1200))
        if gen == 1:
            driver.write(b, bids[b.name][0], _content("bmid", gen, 700))
            driver.ack(b, f"mid-aru-{gen}")
        driver.end_aru(a)
        driver.ack(a, f"gen-{gen}")
    if maybe(3 * 2048, 512):
        driver.ack(b, "room")
    driver.begin_aru(b)
    for j, bid in enumerate(bids[b.name][:2]):
        driver.write(b, bid, _stamped(77, j, 1200))
    driver.end_aru(b)
    driver.ack(b, "b-aru")

    # Phase E: an aborted ARU — its writes must vanish at every recovery.
    if maybe(3 * 2048, 512):
        driver.ack(a, "room")
    driver.begin_aru(a)
    for j, bid in enumerate(aru_bids):
        driver.write(a, bid, _stamped(99, j, 1200))
    driver.abort_aru(a)
    driver.ack(a, "post-abort")

    # Phase F: bulk fill from both tenants to seal segments.
    for i in range(n_fill):
        sess, lid = ((a, lid_a), (b, lid_b))[i % 2]
        if maybe(fill_size + 512, 256):
            driver.ack(sess, "room")
        bid = driver.new_block(sess, lid, pred[sess.name])
        pred[sess.name] = bid
        bids[sess.name].append(bid)
        driver.write(sess, bid, _content("fill", i, fill_size))
        driver.ack(sess, f"fill-{i}")

    # Phase G: a commit with another tenant's read and write inside it.
    # Crashes between the commit's first write and its acknowledgement may
    # or may not have it (nothing acknowledged earlier is lost either way);
    # the overlapped write is the next commit's, and the read — of a block
    # outside the ARUs, on the medium where the workload has sealed one —
    # is still at the disks when the write is done.
    placed = driver.ld.placement_hint
    for i in range(2):
        sess, other = ((a, b), (b, a))[i % 2]
        if maybe():
            driver.ack(sess, "room")
        driver.write(sess, bids[sess.name][0], _content("covered", i, 900))
        target = bids[other.name][-1]
        readable = [bid for bid in bids[other.name] if bid != target and bid not in aru_bids]
        read_bid = next((bid for bid in readable if placed(bid) is not None), readable[0])
        driver.ack_overlapped(
            sess, other, target, _content("overlap", i, 800), f"overlap-{i}", read_bid
        )
        driver.ack(other, f"after-overlap-{i}")

    a.server.close()
    return {"lids": (lid_a, lid_b), "bids": bids, "aru_bids": tuple(aru_bids)}


def recovered_tables(ld: LLD) -> tuple[dict, dict, dict]:
    """The tables two recoveries of one image must agree on: the block map
    (everything but the in-memory compression flag), the list table, and
    every slot's live bytes."""
    state = ld.state
    return (
        {
            bid: (e.segment, e.offset, e.stored_length, e.length, e.compressed, e.successor)
            for bid, e in state.blocks.items()
        },
        {lid: (e.first, e.hints.pack()) for lid, e in state.lists.items()},
        {slot: live for slot, live in state.usage.items() if live},
    )


def _twin(disk):
    """A copy of a crash image (a disk, or a volume of them) on fresh clocks."""
    members = getattr(disk, "disks", None)
    if members is None:
        twin = SimulatedDisk(disk.geometry, VirtualClock())
        twin.restore(disk.snapshot())
        return twin
    return Volume(
        [_twin(member) for member in members],
        VirtualClock(),
        layout=disk.layout,
        chunk_sectors=disk.chunk_sectors,
    )


class LLDCrashChecker:
    """Recovers an LLD from a crash image and checks the four invariants.

    A configuration that takes running checkpoints (two checkpoint slots
    or more) adds the checkpoint differential: the image is also
    recovered by the full sweep (on a copy whose checkpoint region is
    blanked), which must meet the client contract too, agree on
    :func:`recovered_tables`, and know no summary the first recovery does
    not — at an oldest timestamp no older than the one it holds.
    """

    def __init__(self, config: LLDConfig, oracle: DurabilityOracle) -> None:
        self.config = config
        self.oracle = oracle
        self.against_sweep = config.checkpoint_slots > 1
        #: States recovered from a checkpoint (the rest swept).
        self.from_checkpoint = 0
        # The observation universe: everything any snapshot ever named.
        self.all_bids = sorted(
            {bid for p in oracle.points for bid in p.blocks}
        )
        self.all_lids = sorted(
            {lid for p in oracle.points for lid in p.lists}
        )

    def __call__(self, disk: SimulatedDisk, state: CrashState) -> CheckOutcome:
        outcome = CheckOutcome()

        def violate(invariant: str, message: str) -> None:
            outcome.violations.append(
                Violation(
                    state_id=state.state_id,
                    kind=state.kind,
                    invariant=invariant,
                    message=message,
                    detail=state.detail,
                )
            )

        twin = _twin(disk) if self.against_sweep else None
        ld = self._check(disk, state, outcome, violate)
        if ld is None or twin is None:
            return outcome
        if ld.recovery_report.checkpoint_sequence:
            self.from_checkpoint += 1
        for lba in LLD(twin, self.config).checkpoint.lbas:
            twin.write(lba, bytes(SECTOR))
        swept = self._check(twin, state, outcome, violate)
        if swept is None:
            return outcome
        if recovered_tables(ld) != recovered_tables(swept):
            violate("sweep-differential", "the tables differ from the full sweep's")
        mine, theirs = ld.state.summary_min_ts, swept.state.summary_min_ts
        newer = sorted(s for s, ts in theirs.items() if mine.get(s, ts + 1) > ts)
        if newer:
            violate("sweep-differential", f"summary timestamps newer than the sweep's: {newer}")
        return outcome

    def _check(self, disk, state: CrashState, outcome: CheckOutcome, violate) -> LLD | None:
        """Recover ``disk``; check invariants 1-4. The recovered LD, or None
        when recovery or reading raised."""
        # Invariant 1: recovery never raises.
        ld = LLD(disk, self.config)
        try:
            ld.initialize()
        except Exception as exc:  # noqa: BLE001 - any escape is the bug
            violate("recovery-never-raises", f"{type(exc).__name__}: {exc}")
            return None
        outcome.recovery_seconds = ld.recovery_report.simulated_seconds

        # Observe the recovered client-visible state.
        try:
            blocks, lists = client_view(ld, self.all_bids, self.all_lids)
        except Exception as exc:  # noqa: BLE001
            violate("recovery-never-raises", f"reading recovered state: {exc}")
            return None

        # Invariant 2: ARU all-or-nothing (generation uniformity).
        stamps = aru_generation(blocks, self.oracle.aru_blocks)
        if len(stamps) > 1:
            violate(
                "aru-all-or-nothing",
                f"mixed ARU generations recovered: {sorted(stamps)}",
            )

        # Invariants 3+4: the client contract.
        if self.oracle.match(state.covered_seq, blocks, lists) is None:
            latest = self.oracle.latest_covered_index(state.covered_seq)
            if latest >= 0:
                expected = self.oracle.points[latest]
                missing = {
                    bid
                    for bid, data in expected.blocks.items()
                    if blocks.get(bid) != data
                }
                if missing:
                    violate(
                        "acked-durability",
                        f"acknowledged block(s) lost or changed: "
                        f"{sorted(missing)[:8]} (ack '{expected.label}' "
                        f"at seq {expected.seq})",
                    )
            if not outcome.violations:
                violate(
                    "prefix-consistency",
                    f"recovered state matches no acknowledgement snapshot "
                    f">= {latest} ({len(blocks)} blocks, {len(lists)} lists)",
                )
        return ld
