"""Multi-tenant oracle driver: crash exploration through an LD server.

The single-client :class:`~repro.crashsim.oracle.OracleDriver` snapshots
its own mirror at every flush, because every flush it issues is its own
acknowledgement. Behind a :class:`~repro.sched.LDServer` that no longer
holds: one physical ``Flush`` acknowledges *several* tenants' intents
(group commit), and a tenant's writes can become durable because some
other tenant forced a flush. The oracle must therefore be **global** —
one mirror spanning every tenant, snapshotted at every physical flush —
while ARU staging stays **per tenant**, since each session's atomic
recovery unit commits (or aborts) independently.

:func:`run_multitenant_matrix_workload` drives two tenant sessions
through the same phases as the standard matrix workload — interleaved
growth with pooled *deferrable* flush intents, overwrites, a delete,
generation-stamped ARUs (including a mid-ARU flush by the *other*
tenant and an aborted ARU), a bulk fill, and commits with the other
tenant's write inside them — so the crash matrix can
assert that queueing, scheduling, and group commit open no new crash
window.

The server acknowledges a commit when the disks have it, not when it is
issued, and dispatches other tenants' ops meanwhile. The oracle's rule is
unchanged — a snapshot is taken when a flush *returns*, which through the
blocking facade is the acknowledgement — but on a device that queues
writes (a :class:`~repro.volume.Volume`) there is now a window between
the two, and the workload's last phase puts another tenant's read and
write into it: the write belongs to the next epoch, so the snapshot is the
mirror as it stood when the commit was *issued*, stamped with the journal
position at its acknowledgement; the read is parked behind the commit's
writes at the disks, and must return what the mirror held when it was
dispatched.
"""

from __future__ import annotations

from dataclasses import replace

from repro.crashsim.oracle import DurabilityOracle, OraclePoint, _content, _stamped
from repro.crashsim.recording import RecordingDisk
from repro.ld.hints import LIST_HEAD


class MultiTenantOracleDriver:
    """Mirrors a multi-session workload into one global durability oracle.

    Ops are issued through each tenant's blocking session facade (so they
    are dispatched by the server's scheduler), mirrored into a shared
    expected view, and staged per tenant while that tenant has an ARU
    open. An acknowledgement is any session's *forced* flush — or a
    deferrable ``request_flush`` that reports the group commit went
    physical — and snapshots the global mirror at the journal position
    the flush reached.
    """

    def __init__(self, server, recording: RecordingDisk) -> None:
        self.server = server
        self.recording = recording
        self.oracle = DurabilityOracle()
        self.blocks: dict[int, bytes] = {}
        self.lists: dict[int, list[int]] = {}
        self._staged: dict[str, list[tuple]] = {}
        #: Writes of another tenant dispatched between a commit and its
        #: acknowledgement (0 on a device with nothing to wait for).
        self.overlapped = 0
        #: Reads dispatched in that window and still at the disks when the
        #: write after them was done.
        self.parked_reads = 0

    # -- mirrored client operations ------------------------------------

    def new_list(self, sess, **kwargs) -> int:
        lid = sess.new_list(**kwargs)
        self.lists[lid] = []
        return lid

    def new_block(self, sess, lid: int, pred_bid: int) -> int:
        bid = sess.new_block(lid, pred_bid)
        self._apply_or_stage(sess, ("new_block", lid, pred_bid, bid))
        return bid

    def write(self, sess, bid: int, data: bytes) -> None:
        sess.write(bid, bytes(data))
        self._apply_or_stage(sess, ("write", bid, bytes(data)))

    def delete_block(self, sess, bid: int, lid: int) -> None:
        sess.delete_block(bid, lid)
        self._apply_or_stage(sess, ("delete_block", bid, lid))

    def begin_aru(self, sess) -> int:
        aru = sess.begin_aru()
        self._staged[sess.name] = []
        return aru

    def end_aru(self, sess) -> None:
        sess.end_aru()
        for op in self._staged.pop(sess.name):
            self._apply(op)

    def abort_aru(self, sess) -> None:
        """The ARU never commits: drop its staged ops from the mirror."""
        sess.abort_aru()
        self._staged.pop(sess.name)

    def _apply_or_stage(self, sess, op: tuple) -> None:
        staged = self._staged.get(sess.name)
        if staged is not None:
            staged.append(op)
        else:
            self._apply(op)

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

    def ack(self, sess, label: str) -> None:
        """Forced flush through ``sess``, then snapshot the global view."""
        sess.flush()
        self._snapshot(label)

    def request_flush(self, sess, label: str) -> bool:
        """Deferrable intent: only a physical group commit is an ack."""
        committed = sess.request_flush()
        if committed:
            self._snapshot(label)
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
        server = self.server
        flush = sess.submit_flush(force=True)
        while server.queued:
            server.step()
        covered = self._freeze(label)
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
        self._apply_or_stage(other, ("write", bid, bytes(data)))

    def _freeze(self, label: str) -> OraclePoint:
        return OraclePoint(
            seq=self.recording.position,
            label=label,
            blocks={b: d for b, d in self.blocks.items() if d},
            lists={lid: tuple(c) for lid, c in self.lists.items()},
        )

    def _snapshot(self, label: str) -> None:
        self.oracle.points.append(self._freeze(label))

    def room_low(self, data_len: int = 8192, record_bytes: int = 256) -> bool:
        """Open-segment room check (see ``OracleDriver.room_low``)."""
        return not self.server.ld.log.has_room(data_len, record_bytes)


def run_multitenant_matrix_workload(
    driver: MultiTenantOracleDriver,
    a,
    b,
    *,
    n_small: int = 4,
    n_overwrites: int = 2,
    generations: int = 2,
    n_fill: int = 6,
    fill_size: int = 4096,
) -> dict:
    """The matrix phases, driven by two tenants through one scheduler.

    Every phase ends at an acknowledgement and the driver acks early
    whenever the open segment runs low, exactly like the single-tenant
    matrix workload — plus the multi-tenant-only shapes: pooled
    deferrable intents committed by the *other* tenant, and a mid-ARU
    flush forced by a tenant that is not the one holding the ARU open.
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
    # outside the ARUs (an aborted unit's bytes stay readable until
    # recovery), on the medium where the workload has sealed one — is still
    # at the disks when the write is done.
    placed = driver.server.ld.placement_hint
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

    driver.server.close()
    return {"lids": (lid_a, lid_b), "bids": bids, "aru_bids": tuple(aru_bids)}
