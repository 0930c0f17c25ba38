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

Invariants 3 and 4 are one check: the recovered view must equal a
snapshot ``p_j`` with ``j >= latest_covered``. This is exact, not merely
monotone, because LLD's summary-update protocol makes every realizable
record prefix coincide with an acknowledgement boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.disk.disk import SimulatedDisk
from repro.ld.errors import LDError
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD

from repro.crashsim.explorer import CheckOutcome, CrashState, Violation
from repro.crashsim.recording import RecordingDisk


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


class OracleDriver:
    """Runs a workload against an LD while mirroring the expected state.

    The mirror re-implements only the *client-visible contract* — block
    contents and list membership — not the log mechanics, so a bug in
    LLD's write or recovery path cannot also hide in the oracle.

    Operations inside an open ARU are staged and applied to the mirror at
    ``end_aru`` time: snapshots taken mid-ARU correctly exclude them,
    exactly as recovery must.
    """

    def __init__(self, ld: LLD, recording: RecordingDisk) -> None:
        self.ld = ld
        self.recording = recording
        self.oracle = DurabilityOracle()
        self.blocks: dict[int, bytes] = {}
        self.lists: dict[int, list[int]] = {}
        self._staged: list[tuple] = []  # ops inside the open ARU
        self._in_aru = False

    # -- mirrored client operations ------------------------------------

    def new_list(self, **kwargs) -> int:
        lid = self.ld.new_list(**kwargs)
        self.lists[lid] = []
        return lid

    def delete_list(self, lid: int) -> None:
        self.ld.delete_list(lid)
        for bid in self.lists.pop(lid):
            self.blocks.pop(bid, None)

    def new_block(self, lid: int, pred_bid: int) -> int:
        bid = self.ld.new_block(lid, pred_bid)
        self._apply_or_stage(("new_block", lid, pred_bid, bid))
        return bid

    def write(self, bid: int, data: bytes) -> None:
        self.ld.write(bid, bytes(data))
        self._apply_or_stage(("write", bid, bytes(data)))

    def delete_block(self, bid: int, lid: int) -> None:
        self.ld.delete_block(bid, lid)
        self._apply_or_stage(("delete_block", bid, lid))

    def begin_aru(self) -> int:
        aru = self.ld.begin_aru()
        self._in_aru = True
        return aru

    def end_aru(self) -> None:
        self.ld.end_aru()
        self._in_aru = False
        for op in self._staged:
            self._apply(op)
        self._staged.clear()

    def aborted_aru(self, writes: list[tuple[int, bytes]]) -> None:
        """Run writes inside an ARU that never commits.

        Models a client that crashed (raised) before ``end_aru``: the
        records are logged and may even become durable, but without a
        COMMIT every recovery must discard them — so the expected view is
        never touched.
        """

        class _Abort(Exception):
            pass

        try:
            with self.ld.aru():
                for bid, data in writes:
                    self.ld.write(bid, bytes(data))
                raise _Abort()
        except _Abort:
            pass

    def _apply_or_stage(self, op: tuple) -> None:
        if self._in_aru:
            self._staged.append(op)
        else:
            self._apply(op)

    def _apply(self, op: tuple) -> None:
        match op[0]:
            case "new_block":
                _, lid, pred_bid, bid = op
                chain = self.lists[lid]
                if pred_bid == -1:  # LIST_HEAD
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

    def ack(self, label: str = "ack") -> None:
        """Flush, then snapshot what the client may now rely on."""
        self.ld.flush()
        self.oracle.points.append(
            OraclePoint(
                seq=self.recording.position,
                label=label,
                blocks={b: d for b, d in self.blocks.items() if d},
                lists={lid: tuple(chain) for lid, chain in self.lists.items()},
            )
        )

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
# The standard crash-matrix workload
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
    ARUs (with a flush during an open ARU, and one aborted ARU), then
    enough bulk data to seal at least one segment. Every phase ends at an
    acknowledgement, and the driver acks early whenever the open segment
    runs low on room, so seals only ever happen inside a flush.
    """
    maybe = driver.room_low
    lid = driver.new_list()
    driver.ack("create-list")

    # Phase A: growth. Varied sizes so data tails cross sector boundaries.
    bids: list[int] = []
    pred = -1  # LIST_HEAD
    for i in range(n_small):
        if maybe():
            driver.ack("room")
        bid = driver.new_block(lid, pred)
        driver.write(bid, _content("grow", i, 700 + (i % 5) * 613))
        driver.ack(f"grow-{i}")
        bids.append(bid)
        pred = bid

    # Phase B: overwrites of acknowledged blocks.
    for i in range(min(n_overwrites, len(bids))):
        if maybe():
            driver.ack("room")
        driver.write(bids[i], _content("over", i, 1200 + i * 307))
        driver.ack(f"over-{i}")

    # Phase C: delete one acknowledged block.
    victim = bids.pop(len(bids) // 2)
    if maybe():
        driver.ack("room")
    driver.delete_block(victim, lid)
    driver.ack("delete")

    # Phase D: generation-stamped ARUs over a fixed block set.
    aru_bids: list[int] = []
    for i in range(3):
        if maybe():
            driver.ack("room")
        bid = driver.new_block(lid, bids[-1] if bids else -1)
        bids.append(bid)
        aru_bids.append(bid)
    driver.ack("aru-setup")
    driver.oracle.aru_blocks = tuple(aru_bids)
    for gen in range(1, generations + 1):
        if maybe(3 * 2048, 512):
            driver.ack("room")
        driver.begin_aru()
        for j, bid in enumerate(aru_bids):
            driver.write(bid, _stamped(gen, j))
        if gen == 2:
            # A flush during an open ARU: durable but uncommitted records.
            driver.ack(f"mid-aru-{gen}")
        driver.end_aru()
        driver.ack(f"gen-{gen}")

    # Phase E: an aborted ARU — its writes must vanish at every recovery.
    if maybe(3 * 2048, 512):
        driver.ack("room")
    driver.aborted_aru([(bid, _stamped(99, j)) for j, bid in enumerate(aru_bids)])
    driver.ack("post-abort")

    # Phase F: bulk fill to push the open segment over the seal threshold.
    for i in range(n_fill):
        if maybe(fill_size + 512, 256):
            driver.ack("room")
        bid = driver.new_block(lid, bids[-1])
        bids.append(bid)
        driver.write(bid, _content("fill", i, fill_size))
        driver.ack(f"fill-{i}")

    return {"lid": lid, "bids": bids, "aru_bids": tuple(aru_bids)}


class LLDCrashChecker:
    """Recovers an LLD from a crash image and checks the four invariants."""

    def __init__(self, config: LLDConfig, oracle: DurabilityOracle) -> None:
        self.config = config
        self.oracle = oracle
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

        # Invariant 1: recovery never raises.
        ld = LLD(disk, self.config)
        try:
            ld.initialize()
        except Exception as exc:  # noqa: BLE001 - any escape is the bug
            violate("recovery-never-raises", f"{type(exc).__name__}: {exc}")
            return outcome
        if ld.recovery_report is not None:
            outcome.recovery_seconds = ld.recovery_report.simulated_seconds

        # Observe the recovered client-visible state.
        try:
            blocks, lists = client_view(ld, self.all_bids, self.all_lids)
        except Exception as exc:  # noqa: BLE001
            violate("recovery-never-raises", f"reading recovered state: {exc}")
            return outcome

        # Invariant 2: ARU all-or-nothing (generation uniformity).
        stamps = aru_generation(blocks, self.oracle.aru_blocks)
        if len(stamps) > 1:
            violate(
                "aru-all-or-nothing",
                f"mixed ARU generations recovered: {sorted(stamps)}",
            )

        # Invariants 3+4: the recovered view equals some acknowledgement
        # snapshot at or after the latest covered one.
        latest = self.oracle.latest_covered_index(state.covered_seq)
        matched = None
        for j in range(max(latest, 0), len(self.oracle.points)):
            point = self.oracle.points[j]
            if blocks == point.blocks and lists == point.lists:
                matched = j
                break
        if matched is None and latest < 0 and not blocks and not lists:
            matched = -1  # pre-first-ack crash recovering to the empty state
        if matched is None:
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
        return outcome
