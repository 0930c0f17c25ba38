"""Shared helpers for scheduler tests: a small LLD behind an LDServer."""

from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD
from repro.sched import LDServer
from repro.sim import VirtualClock
from repro.volume import Volume

from tests.lld.conftest import small_config


def make_device(kind: str = "bare", capacity_mb: int = 4):
    """A bare disk, or a four-member RAID-5 volume with one 64 KB segment
    per chunk — the device whose writes finish after they are issued."""
    if kind == "bare":
        return SimulatedDisk(fast_test_disk(capacity_mb=capacity_mb), VirtualClock())
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=max(1, capacity_mb // 3)), VirtualClock())
        for _ in range(4)
    ]
    return Volume(members, VirtualClock(), layout=kind, chunk_sectors=128)


def make_server(
    scheduler=None,
    *,
    group_commit: int = 1,
    record_dispatch: bool = False,
    capacity_mb: int = 4,
    device: str = "bare",
    **config_overrides,
):
    """A fresh LLD on a fresh device, wrapped in an LDServer."""
    disk = make_device(device, capacity_mb)
    lld = LLD(disk, small_config(**config_overrides))
    lld.initialize()
    server = LDServer(
        lld,
        scheduler,
        group_commit=group_commit,
        record_dispatch=record_dispatch,
    )
    return server, lld


def reopen_after_crash(lld: LLD) -> LLD:
    """Crash the LLD and recover a fresh instance on the same disk."""
    lld.crash()
    fresh = LLD(lld.disk, lld.config)
    fresh.initialize()
    return fresh


def populate(session, n: int, *, size: int = 1024, tag: str = "blk"):
    """A fresh list with ``n`` written blocks; returns ``(lid, bids)``."""
    lid = session.new_list()
    bids = []
    pred = LIST_HEAD
    for i in range(n):
        bid = session.new_block(lid, pred)
        session.write(bid, f"{tag}-{i:04d}:".encode().ljust(size, b"."))
        bids.append(bid)
        pred = bid
    return lid, bids


# ----------------------------------------------------------------------
# Completion-time invariants (deferred group commit)
# ----------------------------------------------------------------------


def watch_flushes(lld) -> list[float]:
    """Record the device's own write horizon after every physical flush.

    An independent reading of when each commit is on the medium: the
    server is handed the same figure by ``flush(wait=False)``, but what it
    then stamps on ops and acknowledgements is its own business — and what
    :func:`check_completions` holds against this list.
    """
    horizons: list[float] = []
    inner = lld.flush

    def flush(*, wait: bool = True) -> float:
        at = inner(wait=wait)
        horizons.append(lld.disk.write_horizon())
        return at

    lld.flush = flush  # flush_list reaches it too: it calls self.flush
    return horizons


def watch_reads(server, lld) -> None:
    """Journal, beside the server's own entries, when each LD read arrives.

    Every ``lld.read`` / ``lld.read_blocks`` call appends ``("delivered",
    at)`` to ``server.dispatch_log``: the latest completion a volume's
    ``_read_at`` computed under that call, or the clock once the call
    returned if it issued none (memory, a bare disk). Like
    :func:`watch_flushes` it reads the device, not what the server stamps.
    The server journals a read's ``dispatch`` after the LD call that served
    it, so each read's delivery is the last marker before that entry.
    """
    log = server.dispatch_log
    clock = lld.disk.clock
    arrivals: list[float] = []
    read_at = getattr(lld.disk, "_read_at", None)
    if read_at is not None:

        def timed(lba, nsectors, now):
            data, done = read_at(lba, nsectors, now)
            arrivals.append(done)
            return data, done

        lld.disk._read_at = timed

    def watched(inner):
        def call(*args, **kwargs):
            arrivals.clear()
            try:
                return inner(*args, **kwargs)
            finally:
                log.append(("delivered", max(arrivals, default=clock.now)))

        return call

    lld.read = watched(lld.read)
    lld.read_blocks = watched(lld.read_blocks)


def run_to_quiescence(server, ops) -> dict[int, float]:
    """Step the server until nothing is queued or parked, checking after
    every round that no op is ``done`` ahead of the clock; returns each
    op's ``completed_at`` as first seen done, keyed by ``id(op)``."""
    clock = server.ld.disk.clock
    first_seen: dict[int, float] = {}
    while server.queued or server.parked_completions:
        server.step()
        for op in ops:
            if op.done:
                assert op.completed_at <= clock.now, (
                    f"{op!r} done at {clock.now} but completed_at={op.completed_at}"
                )
                first_seen.setdefault(id(op), op.completed_at)
    return first_seen


def check_completions(server, ops, horizons, first_seen, mark: int = 0) -> None:
    """The completion-time contract, from the server's journal.

    * commits and acknowledgements pair up one to one, in order, each
      acknowledgement carrying exactly its commit's intents, all of them
      dispatched before the commit — an intent dispatched between a commit
      and its acknowledgement waits for the next commit;
    * every acknowledgement, and the ``completed_at`` of the op that
      triggered the commit, is no earlier than the device's write horizon
      after that commit's flush;
    * with :func:`watch_reads` installed, every read completes exactly when
      the device delivered it — parked until then, or done at once when
      the call had already waited or found the bytes in memory;
    * ``done`` is final: ``completed_at`` never changes once an op has
      been seen done;
    * nothing is left parked, and the clock has reached every
      ``completed_at``.
    """
    events = server.dispatch_log[mark:]
    commits = [e for e in events if e[0] == "commit"]
    acks = [e for e in events if e[0] == "ack"]
    assert len(horizons) == len(commits) == len(acks)
    assert sorted(c[1] for c in commits) == sorted(a[1] for a in acks)
    by_key = {(op.tenant, op.seq): op for op in ops}
    for commit, horizon in zip(commits, horizons):
        _tag, intents, complete_at = commit
        assert complete_at >= horizon
        (ack,) = [a for a in acks if a[1] == intents]
        assert ack[2] >= horizon, f"commit of {intents} acknowledged at {ack[2]} < {horizon}"
        trigger = by_key.get(intents[-1]) if intents else None
        if trigger is not None and trigger.result is True:
            assert trigger.completed_at >= horizon, (
                f"{trigger!r} completed at {trigger.completed_at}, "
                f"its commit reached the medium at {horizon}"
            )
    # What a commit covers is fixed when it is issued: its intents were all
    # dispatched before it, so a flush dispatched between a commit and its
    # acknowledgement is covered by a later one.
    dispatched: set[tuple] = set()
    delivered = None
    for event in events:
        if event[0] == "dispatch":
            dispatched.add((event[1], event[2]))
            op = by_key.get((event[1], event[2]))
            if delivered is not None and op is not None and op.kind in ("read", "read_blocks"):
                assert op.completed_at == delivered, (
                    f"{op!r} completed at {op.completed_at}, "
                    f"the device delivered it at {delivered}"
                )
        elif event[0] == "commit":
            assert set(event[1]) <= dispatched
        elif event[0] == "delivered":
            delivered = event[1]
    clock = server.ld.disk.clock
    for op in ops:
        assert op.done
        assert op.completed_at <= clock.now
        assert first_seen.get(id(op), op.completed_at) == op.completed_at, (
            f"{op!r} was done with completed_at={first_seen[id(op)]}, "
            f"later re-stamped {op.completed_at}"
        )
    assert server.parked_completions == 0
