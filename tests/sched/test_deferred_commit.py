"""A group commit is acknowledged when the disks have it, not when it is issued.

``LDServer._commit`` calls ``ld.flush(wait=False)``: the writes are issued
and ordered, the op that triggered the commit is parked until the shared
clock reaches the device's write horizon, and the server keeps
dispatching meanwhile; with nothing to dispatch it waits where a flush
would have, at the device. (A server with one tenant has nobody to keep
going: its commits wait in the flush, call for call what the tenant would
get from the LD directly.) The hypothesis scripts over several tenants
live in ``test_sched_property.py`` (``check_completions``); here are the
mechanism itself, the solo-tenant differential against a waiting flush,
the typed stall, the overlap figures, and two mutated servers the checker
must catch.
"""

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
)


def parked_flush(server, session):
    """Dispatch a forced flush of ``session``; returns the op, still parked."""
    op = session.submit_flush(force=True)
    assert server.scheduler.step(server) == 1  # one bare round: no retirement
    return op


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
        a = server.open_session("a")
        b = server.open_session("b")
        _lid, on_disk = populate(b, 4, size=4096)
        b.flush()
        lld.log.seal()  # b's blocks leave the open segment: reading them costs disk time
        b.flush()
        populate(a, 3)
        mark = len(server.dispatch_log)
        op = parked_flush(server, a)
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
        kinds = [e[0] for e in server.dispatch_log[mark:]]
        assert kinds.index("commit") < kinds.index("ack")
        assert kinds[kinds.index("commit") + 1 : kinds.index("ack")].count("dispatch") >= 1
        # The reads covered some of the commit's disk time: less was idled away.
        assert server.stats.idle_advance_s < server.stats.commit_inflight_s

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
    figures = routed.stats.as_dict()
    figures.pop("tenants")
    assert figures == {k: v for k, v in bare.stats.as_dict().items() if k != "tenants"}
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
# The checker has teeth: two mutated servers
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
        _at, number, op, intents = self._parked.pop()
        self._parked.append((self.now(), number, op, intents))


def run_two_tenants(server_class):
    lld = LLD(make_device("raid5"), small_config())
    lld.initialize()
    server = server_class(lld, FIFOScheduler(), group_commit=2, record_dispatch=True)
    a = server.open_session("a")
    b = server.open_session("b")
    _lid, bids_a = populate(a, 3)
    _lid, bids_b = populate(b, 3)
    server.drain()
    mark = len(server.dispatch_log)
    horizons = watch_flushes(lld)
    ops = []
    for k in range(6):
        ops.append(a.submit_write(bids_a[k % 3], b"a" * 1024))
        ops.append(b.submit_write(bids_b[k % 3], b"b" * 1024))
        ops.append(a.submit_flush())
        ops.append(b.submit_read(bids_b[k % 3]))
        ops.append(b.submit_flush(force=k == 4))
    first_seen = run_to_quiescence(server, ops)
    server.close()
    check_completions(server, ops, horizons, first_seen, mark)
    return server


def test_the_shipped_server_passes_the_checker():
    server = run_two_tenants(LDServer)
    assert server.stats.commits_deferred == server.stats.group_commits > 0


@pytest.mark.parametrize("mutant", [DoneAtDispatch, AckAtDispatch])
def test_the_checker_catches_a_mutated_server(mutant):
    with pytest.raises(AssertionError):
        run_two_tenants(mutant)
