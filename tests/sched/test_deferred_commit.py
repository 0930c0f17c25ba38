"""Commits and reads complete when the disks have them, not when issued.

``LDServer._commit`` calls ``ld.flush(wait=False)``: the writes are issued
and ordered, the op that triggered the commit is parked until the shared
clock reaches the device's write horizon, and the server keeps
dispatching meanwhile; with nothing to dispatch it waits where a flush
would have, at the device. A read goes the same way: ``ld.read(bid,
wait=False)`` hands back bytes stamped with when the device delivers them,
and the read op is parked until then. (A server with one tenant has
nobody to keep going: its commits and reads wait in the LD call, call for
call what the tenant would get from the LD directly.) The hypothesis
scripts over several tenants live in ``test_sched_property.py``
(``check_completions``); here are the mechanism itself, the solo-tenant
differential against a waiting flush, the typed stall, the overlap
figures, and three mutated servers the checker must catch.
"""

from heapq import heapify

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ld.errors import LDError
from repro.lld import LLD
from repro.obs import EventLog, Tracer, attach_events, attach_tracer
from repro.sched import FIFOScheduler, LDServer, Scheduler, SchedulerStalledError

from tests.lld.conftest import small_config
from tests.sched.conftest import (
    check_completions,
    make_device,
    make_server,
    populate,
    run_to_quiescence,
    watch_flushes,
    watch_reads,
)


def parked_flush(server, session):
    """Dispatch a forced flush of ``session``; returns the op, still parked."""
    op = session.submit_flush(force=True)
    assert server.scheduler.step(server) == 1  # one bare round: no retirement
    return op


def on_the_medium(server, lld, session, n: int, *, tag: str = "blk") -> list[int]:
    """``n`` written blocks of ``session``, sealed and flushed: reading
    them costs disk time (none is served from the open segment)."""
    _lid, bids = populate(session, n, size=4096, tag=tag)
    lld.log.seal()
    session.flush()
    assert all(lld.placement_hint(bid) is not None for bid in bids)
    return bids


# ----------------------------------------------------------------------
# The mechanism
# ----------------------------------------------------------------------


class TestCompletionAtDeviceTime:
    def test_trigger_is_parked_until_the_write_horizon(self):
        server, lld = make_server(FIFOScheduler(), device="raid5")
        a = server.open_session("a")
        server.open_session("b")
        populate(a, 3)
        clock = lld.disk.clock
        issued = clock.now
        op = parked_flush(server, a)
        horizon = lld.disk.write_horizon()
        # Issued and ordered, not waited for: the clock has not moved, the
        # client has not heard back, its window slot stays occupied.
        assert clock.now == issued < horizon
        assert not op.done and op.result is True
        assert server.parked_completions == 1
        assert server.queued == 0
        # Nothing else to dispatch: the next round waits for the disks, at
        # the device — one more barrier, and the time passes there.
        barriers = lld.disk.stats.barriers
        assert server.step() == 0
        assert lld.disk.stats.barriers == barriers + 1
        assert op.done and op.completed_at == horizon == clock.now
        assert server.parked_completions == 0
        stats = server.stats
        assert stats.commits_deferred == stats.group_commits == 1
        assert stats.idle_advances == 1
        assert stats.idle_advance_s == stats.commit_inflight_s == horizon - issued

    def test_a_lone_tenant_waits_in_the_flush(self):
        """Nobody to keep going meanwhile: the commit is the LD's own
        waiting flush, acknowledged when it returns."""
        server, lld = make_server(FIFOScheduler(), device="raid5")
        a = server.open_session("a")
        populate(a, 3)
        barriers = lld.disk.stats.barriers
        op = parked_flush(server, a)
        assert op.done and op.completed_at == lld.disk.write_horizon() <= lld.disk.clock.now
        assert server.parked_completions == 0
        assert server.stats.commits_deferred == server.stats.idle_advances == 0
        assert lld.disk.stats.barriers == barriers + 2  # segment-image, flush: the LLD's own

    def test_other_tenants_are_served_inside_the_commit(self):
        server, lld = make_server(FIFOScheduler(), device="raid5", record_dispatch=True)
        # A used array: no sector is on record as blank, so a's commit
        # pre-reads its rows and b's reads are delivered inside it.
        lld.disk.stripe_cache.clear()
        a = server.open_session("a")
        b = server.open_session("b")
        on_disk = on_the_medium(server, lld, b, 4)
        populate(a, 3)
        watch_reads(server, lld)
        mark = len(server.dispatch_log)
        clock = lld.disk.clock
        op = parked_flush(server, a)
        issued = clock.now
        horizon = lld.disk.write_horizon()
        write = b.submit_write(on_disk[0], b"n" * 4096)
        reads = [b.submit_read(bid) for bid in on_disk[1:]]
        server.step()
        # b's write ran inside a's commit without moving the clock.
        assert write.done and not op.done
        assert write.completed_at < horizon
        server.drain()
        assert op.done and op.completed_at == horizon
        assert all(r.done and r.error is None for r in reads)
        events = server.dispatch_log[mark:]
        kinds = [e[0] for e in events]
        inside = events[kinds.index("commit") + 1 : kinds.index("ack")]
        # The reads were dispatched inside the commit, at the clock it was
        # issued at, and completed when the device delivered them.
        assert {("b", r.seq) for r in reads} <= {(e[1], e[2]) for e in inside if e[0] == "dispatch"}
        delivered = [e[1] for e in events if e[0] == "delivered"]
        assert [r.completed_at for r in reads] == delivered
        assert all(at > issued for at in delivered)
        assert server.stats.reads_parked == len(reads)
        assert server.stats.read_inflight_s == pytest.approx(
            sum(at - issued for at in delivered)
        )
        assert server.stats.idle_advance_s <= server.stats.commit_inflight_s

    def test_a_flush_with_nothing_to_write_waits_for_the_commit_in_flight(self):
        """b's block left with a's sealing commit. b's own flush finds
        nothing to write, and is acknowledged when that commit is on the
        medium — not at once, while b's block is still on its way."""
        server, lld = make_server(FIFOScheduler(), device="raid5")
        a = server.open_session("a")
        b = server.open_session("b")
        populate(b, 1, tag="b")
        populate(a, 14, size=4096)  # past the partial threshold: a's flush seals
        sealed, noop = lld.stats.segments_sealed, lld.stats.flushes_noop
        first = parked_flush(server, a)
        horizon = lld.disk.write_horizon()
        second = parked_flush(server, b)
        assert lld.stats.segments_sealed == sealed + 1
        assert lld.stats.flushes_noop == noop + 1
        assert not second.done
        server.drain()
        assert first.completed_at == horizon
        assert second.completed_at >= horizon

    def test_a_waiting_flush_with_nothing_to_write_waits_at_the_device(self):
        """The LD alone on RAID-5: a flush with nothing to write, right
        after a sealing one nobody waited for, returns when those writes
        are on the medium — through a waiting barrier, so the time passes
        in the volume."""
        lld = LLD(make_device("raid5"), small_config())
        lld.initialize()
        populate(lld, 3)
        lld.log.seal()
        horizon = lld.flush(wait=False)
        clock = lld.disk.clock
        assert clock.now < horizon
        noop, barriers = lld.stats.flushes_noop, lld.disk.stats.barriers
        assert lld.flush() == horizon == clock.now
        assert lld.stats.flushes_noop == noop + 1
        assert lld.disk.stats.barriers == barriers + 1
        # With nothing in flight there is nothing to wait for: no barrier.
        assert lld.flush() == clock.now and lld.disk.stats.barriers == barriers + 1

    def test_a_bare_disk_has_nothing_to_wait_for(self):
        server, lld = make_server(FIFOScheduler())
        a = server.open_session("a")
        populate(a, 3)
        op = parked_flush(server, a)
        assert op.done and op.completed_at == lld.disk.clock.now
        assert server.parked_completions == 0
        assert server.stats.commits_deferred == 0
        assert server.stats.idle_advances == 0

    def test_ack_latency_is_taken_at_completed_at(self):
        server, lld = make_server(device="raid5", group_commit=2)
        a = server.open_session("a")
        b = server.open_session("b")
        populate(a, 2)
        populate(b, 2)
        early = a.submit_flush()
        late = b.submit_flush()
        server.drain()
        assert early.result is False and late.result is True
        horizon = late.completed_at
        assert horizon == lld.disk.write_horizon()
        tenants = server.stats.tenants
        assert tenants["a"].ack_latency_max == horizon - early.submitted_at
        assert tenants["b"].ack_latency_max == horizon - late.submitted_at
        assert tenants["a"].acks == tenants["b"].acks == 1

    def test_close_waits_for_the_commit_it_issues(self):
        server, lld = make_server(device="raid5", group_commit=4)
        a = server.open_session("a")
        server.open_session("b")
        populate(a, 2)
        assert a.request_flush() is False
        server.close()
        assert server.stats.commits_deferred == 1
        assert server.pending_intents == 0
        assert server.parked_completions == 0
        assert lld.disk.clock.now >= lld.disk.write_horizon()
        assert server.stats.tenants["a"].acks == 1

    def test_span_and_event_carry_complete_at(self):
        server, lld = make_server(device="raid5")
        tracer = attach_tracer(Tracer(lld.disk.clock), server, lld)
        events = attach_events(EventLog(lld.disk.clock), server, lld)
        a = server.open_session("a")
        server.open_session("b")
        populate(a, 2)
        at = a.flush()
        (span,) = [s for s in tracer.spans if s.name == "sched.group_commit"]
        assert span.attrs["complete_at"] == at > span.end
        (idle,) = [s for s in tracer.spans if s.name == "sched.idle_advance"]
        assert idle.end == at
        (event,) = events.select(name="sched.group_commit")
        assert event.payload["complete_at"] == at and event.t == span.end


# ----------------------------------------------------------------------
# Reads complete at device time too
# ----------------------------------------------------------------------


def two_tenants_on_raid5(scheduler=None, **kwargs):
    """A RAID-5 server with tenants ``a`` and ``b``, four blocks of each
    on the medium."""
    server, lld = make_server(scheduler or FIFOScheduler(), device="raid5", **kwargs)
    a = server.open_session("a")
    b = server.open_session("b")
    cold_a = on_the_medium(server, lld, a, 4, tag="a")
    cold_b = on_the_medium(server, lld, b, 4, tag="b")
    return server, lld, a, b, cold_a, cold_b


class TestParkedReads:
    def test_a_parked_read_completes_at_the_volumes_read_completion(self):
        server, lld, _a, b, _cold_a, cold_b = two_tenants_on_raid5()
        volume = lld.disk
        completions = []
        read_at = volume._read_at

        def timed(lba, nsectors, now):
            data, done = read_at(lba, nsectors, now)
            completions.append(done)
            return data, done

        volume._read_at = timed
        clock = volume.clock
        dispatched = clock.now
        idle = server.stats.idle_advances
        op = b.submit_read(cold_b[1])
        assert server.scheduler.step(server) == 1  # one bare round: no retirement
        (completion,) = completions
        # Dispatched, the bytes in hand, the clock untouched: parked.
        assert clock.now == dispatched < completion
        assert op.result.startswith(b"b-0001") and not op.done
        assert server.parked_completions == 1
        server.drain(until=op)
        assert op.done and op.completed_at == completion == clock.now
        assert server.stats.reads_parked == 1
        assert server.stats.read_inflight_s == completion - dispatched
        # The server had nothing else to do: it waited at the device.
        assert server.stats.idle_advances == idle + 1

    def test_a_lone_tenant_waits_in_the_read(self):
        server, lld = make_server(FIFOScheduler(), device="raid5")
        a = server.open_session("a")
        cold = on_the_medium(server, lld, a, 2)
        clock = lld.disk.clock
        before = clock.now
        op = a.submit_read(cold[0])
        assert server.scheduler.step(server) == 1
        assert op.done and op.completed_at == clock.now > before
        assert server.stats.reads_parked == server.parked_completions == 0

    def test_a_read_served_from_memory_is_done_at_once(self):
        server, lld, a, _b, _cold_a, _cold_b = two_tenants_on_raid5()
        _lid, (warm,) = populate(a, 1)  # in the open segment
        op = a.submit_read(warm)
        assert server.scheduler.step(server) == 1
        assert op.done and op.completed_at == lld.disk.clock.now
        assert server.stats.reads_parked == 0

    @pytest.mark.parametrize("scheduler", ["fifo", "qos"])
    def test_done_never_flips_ahead_of_the_clock(self, scheduler):
        from repro.bench import make_scheduler

        server, lld, a, b, cold_a, cold_b = two_tenants_on_raid5(make_scheduler(scheduler))
        ops = []
        for k in range(8):
            ops.append(a.submit_read(cold_a[k % 4]))
            ops.append(b.submit_read_blocks([cold_b[k % 4], cold_b[(k + 2) % 4]]))
            ops.append(b.submit_write(cold_b[3], bytes([k]) * 1024))
            ops.append(a.submit_flush(force=k % 3 == 0))
        run_to_quiescence(server, ops)  # asserts it after every round
        assert server.stats.reads_parked > 0
        assert all(op.done and op.error is None for op in ops)

    @pytest.mark.parametrize("scheduler", ["fifo", "qos"])
    def test_per_tenant_dispatch_order_is_unchanged(self, scheduler):
        from repro.bench import make_scheduler

        server, lld, a, b, cold_a, cold_b = two_tenants_on_raid5(
            make_scheduler(scheduler), record_dispatch=True
        )
        mark = len(server.dispatch_log)
        ops = []
        for k in range(6):
            for sess, cold in ((a, cold_a), (b, cold_b)):
                ops.append(sess.submit_read(cold[k % 4]))
                ops.append(sess.submit_write(cold[(k + 1) % 4], bytes([k + 1]) * 1024))
        run_to_quiescence(server, ops)
        for name in ("a", "b"):
            seqs = [e[2] for e in server.dispatch_log[mark:] if e[0] == "dispatch" and e[1] == name]
            assert seqs == sorted(seqs) and len(seqs) == 12
            # Completion order is the disks' business: a write after a
            # parked read of the same tenant is done before it.
            mine = [op for op in ops if op.tenant == name]
            assert any(
                later.completed_at < earlier.completed_at
                for earlier, later in zip(mine, mine[1:])
            )

    def test_a_read_returns_the_latest_write_dispatched_before_it(self):
        """What a read returns is fixed when it is dispatched: another
        tenant's write dispatched after it — and done long before the read
        is — does not show in it; the next read sees it."""
        server, lld, a, b, cold_a, _cold_b = two_tenants_on_raid5()
        target = cold_a[2]
        old = a.read(target)
        read = a.submit_read(target)
        assert server.scheduler.step(server) == 1
        assert not read.done
        write = b.submit_write(target, b"from b".ljust(4096, b"."))
        assert server.scheduler.step(server) == 1
        assert write.done and not read.done
        server.drain(until=read)
        assert write.completed_at < read.completed_at
        assert read.result == old
        assert a.read(target) == b"from b".ljust(4096, b".")

    @pytest.mark.parametrize("which", ["same", "successor"])
    def test_a_cache_hit_waits_for_the_fetch_that_filled_it(self, which):
        """With the read cache on, a's parked fetch puts the block — and its
        read-ahead successors — in the cache at dispatch. b's hit on one of
        them is not in hand before that fetch arrives."""
        server, lld, a, b, cold_a, _cold_b = two_tenants_on_raid5(read_cache_enabled=True)
        first = a.submit_read(cold_a[0])
        assert server.scheduler.step(server) == 1
        assert not first.done
        target = cold_a[0] if which == "same" else cold_a[1]
        assert target in lld.read_cache
        hits = lld.stats.cache_hits
        second = b.submit_read(target)
        assert server.scheduler.step(server) == 1
        assert lld.stats.cache_hits == hits + 1
        assert not second.done
        batch = a.submit_read_blocks([cold_a[2], target])
        server.drain()
        assert second.completed_at == first.completed_at
        assert batch.completed_at >= first.completed_at
        assert second.result == first.result if which == "same" else second.result.startswith(b"a-0001")

    @pytest.mark.parametrize("call", ["read", "read_blocks"])
    def test_a_waiting_cache_hit_waits_for_the_fetch_that_filled_it(self, call):
        """The same hit through the LD's waiting call (the server's fallback
        read takes it): it returns once the fetch is in hand, not before."""
        _server, lld, _a, _b, cold_a, _cold_b = two_tenants_on_raid5(read_cache_enabled=True)
        fetch = lld.read(cold_a[0], wait=False)
        clock = lld.disk.clock
        assert cold_a[1] in lld.read_cache and clock.now < fetch.at
        hits = lld.stats.cache_hits
        data = lld.read(cold_a[1]) if call == "read" else lld.read_blocks([cold_a[1]])[0]
        assert lld.stats.cache_hits == hits + 1
        assert data.startswith(b"a-0001")
        assert clock.now == fetch.at

    def test_spans_carry_complete_at(self):
        from repro.bench import make_scheduler

        server, lld, a, b, cold_a, cold_b = two_tenants_on_raid5(make_scheduler("qos"))
        tracer = attach_tracer(Tracer(lld.disk.clock), server, lld)
        ops = [a.submit_read(cold_a[0]), b.submit_read(cold_b[0]), b.submit_read(cold_b[1])]
        server.drain()
        (batch,) = [s for s in tracer.spans if s.name == "sched.read_batch"]
        assert batch.attrs["parked"] == 3 == server.stats.reads_parked
        assert batch.attrs["complete_at"] == max(op.completed_at for op in ops) > batch.end
        single = b.submit_read(cold_b[2])
        server.drain()
        (span,) = [
            s for s in tracer.spans if s.name == "sched.dispatch" and s.attrs["kind"] == "read"
        ]
        assert span.attrs["complete_at"] == single.completed_at > span.end


# ----------------------------------------------------------------------
# A solo tenant sees what a waiting flush gave it
# ----------------------------------------------------------------------

SOLO_KINDS = ("write", "big_write", "read", "read_blocks", "flush", "flush_list", "meta", "grow")


def play_solo(ld, script):
    """Play ``script`` on an LD surface; the clock after every op."""
    clock = ld.disk.clock
    lid, bids = populate(ld, 4, size=2048)
    times = []
    for k, kind in enumerate(script):
        if kind == "write":
            ld.write(bids[k % len(bids)], bytes([k % 251]) * 1024)
        elif kind == "big_write":
            for bid in bids:
                ld.write(bid, bytes([k % 251]) * 4096)
        elif kind == "read":
            ld.read(bids[k % len(bids)])
        elif kind == "read_blocks":
            ld.read_blocks(bids[:3])
        elif kind == "flush":
            ld.flush()
        elif kind == "flush_list":
            ld.flush_list(lid)
        elif kind == "grow":
            bids.append(ld.new_block(lid, bids[-1]))
            ld.write(bids[-1], b"g" * 4096)
        else:
            ld.list_length(lid)
        times.append(clock.now)
    ld.flush()
    times.append(clock.now)
    return times


@given(st.lists(st.sampled_from(SOLO_KINDS), min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_solo_session_matches_a_waiting_flush(script):
    """Differential: the routed stack, every commit deferred, against the
    bare LLD whose every flush waits at the barrier."""
    bare = LLD(make_device("raid5"), small_config())
    bare.initialize()
    want = play_solo(bare, script)

    server, routed = make_server(device="raid5")
    got = play_solo(server.open_session("solo"), script)

    assert got == want
    assert routed.disk.volume_stats.as_dict() == bare.disk.volume_stats.as_dict()
    assert routed.disk.stats.as_dict() == bare.disk.stats.as_dict()
    assert [d.clock.now for d in routed.disk.disks] == [d.clock.now for d in bare.disk.disks]
    assert routed.stats.as_dict() == bare.stats.as_dict()
    assert server.parked_completions == 0


# ----------------------------------------------------------------------
# The typed stall
# ----------------------------------------------------------------------


class StuckScheduler(Scheduler):
    name = "stuck"

    def step(self, server) -> int:
        return 0


class TestStall:
    def test_it_is_an_ld_error_and_still_a_runtime_error(self):
        assert issubclass(SchedulerStalledError, LDError)
        assert issubclass(SchedulerStalledError, RuntimeError)

    def test_no_stall_while_a_completion_is_parked(self):
        server, lld = make_server(FIFOScheduler(), device="raid5")
        a = server.open_session("a")
        server.open_session("b")
        populate(a, 2)
        flush = parked_flush(server, a)
        server.scheduler = StuckScheduler()
        stuck = a.submit_write(1, b"x" * 512)
        # Round one dispatches nothing, but a completion is parked: the
        # server waits for the disks and it retires. Round two has queued ops,
        # dispatches nothing and has nothing parked: that is the stall.
        with pytest.raises(SchedulerStalledError, match="1 ops queued and no completion parked"):
            server.drain()
        assert flush.done and flush.completed_at == lld.disk.clock.now
        assert not stuck.done

    def test_waiting_for_a_parked_op_is_not_a_stall(self):
        server, _lld = make_server(FIFOScheduler(), device="raid5")
        a = server.open_session("a")
        server.open_session("b")
        populate(a, 2)
        flush = parked_flush(server, a)
        server.scheduler = StuckScheduler()
        server.drain(until=flush)  # queues empty, nothing dispatched: time passes
        assert flush.done

    def test_an_op_nobody_can_complete_names_itself(self):
        server, _lld = make_server(StuckScheduler())
        other, _ = make_server()
        foreign = other.open_session("x").submit_flush()
        with pytest.raises(SchedulerStalledError, match="never completed"):
            server.drain(until=foreign)


# ----------------------------------------------------------------------
# The checker has teeth: three mutated servers
# ----------------------------------------------------------------------


class DoneAtDispatch(LDServer):
    """Mutation: the trigger's ``done`` flips when the commit is issued."""

    def _commit(self, trigger, *, forced):
        super()._commit(trigger, forced=forced)
        if trigger is not None:
            trigger.done = True


class AckAtDispatch(LDServer):
    """Mutation: a commit is acknowledged with the time it was issued."""

    def _commit(self, trigger, *, forced):
        super()._commit(trigger, forced=forced)
        self._parked[:] = [
            (self.now() if intents is not None and op is trigger else at, ticket, op, intents)
            for at, ticket, op, intents in self._parked
        ]
        heapify(self._parked)


class ReadDoneAtDispatch(LDServer):
    """Mutation: a read is done when it is dispatched, not when the disks
    deliver it."""

    def _complete(self, op, at=None):
        super()._complete(op)


def run_two_tenants(server_class):
    lld = LLD(make_device("raid5"), small_config())
    lld.initialize()
    server = server_class(lld, FIFOScheduler(), group_commit=2, record_dispatch=True)
    a = server.open_session("a")
    b = server.open_session("b")
    _lid, bids_a = populate(a, 3)
    _lid, bids_b = populate(b, 3)
    cold = on_the_medium(server, lld, b, 3, tag="cold")
    server.drain()
    watch_reads(server, lld)
    mark = len(server.dispatch_log)
    horizons = watch_flushes(lld)
    ops = []
    for k in range(6):
        ops.append(a.submit_write(bids_a[k % 3], b"a" * 1024))
        ops.append(b.submit_write(bids_b[k % 3], b"b" * 1024))
        ops.append(a.submit_flush())
        ops.append(b.submit_read(bids_b[k % 3]))
        ops.append(a.submit_read(cold[k % 3]))
        ops.append(b.submit_flush(force=k == 4))
    first_seen = run_to_quiescence(server, ops)
    server.close()
    check_completions(server, ops, horizons, first_seen, mark)
    return server


def test_the_shipped_server_passes_the_checker():
    server = run_two_tenants(LDServer)
    assert server.stats.commits_deferred == server.stats.group_commits > 0
    assert server.stats.reads_parked > 0


@pytest.mark.parametrize("mutant", [DoneAtDispatch, AckAtDispatch, ReadDoneAtDispatch])
def test_the_checker_catches_a_mutated_server(mutant):
    with pytest.raises(AssertionError):
        run_two_tenants(mutant)
