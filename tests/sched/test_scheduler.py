"""Dispatch policies: FIFO ordering, DRR fairness, elevator."""

from repro.sched import FIFOScheduler, QoSElevatorScheduler
from repro.sched.scheduler import READ_BATCH_LIMIT

from tests.sched.conftest import make_server, populate


# ----------------------------------------------------------------------
# FIFO baseline
# ----------------------------------------------------------------------


class TestFIFO:
    def test_global_arrival_order(self):
        server, _lld = make_server(FIFOScheduler(), record_dispatch=True)
        a = server.open_session("a")
        b = server.open_session("b")
        _lid_a, bids_a = populate(a, 2)
        _lid_b, bids_b = populate(b, 2, tag="bee")
        mark = len(server.dispatch_log)
        submitted = [
            a.submit_write(bids_a[0], b"w" * 512),
            b.submit_write(bids_b[0], b"w" * 512),
            a.submit_read(bids_a[1]),
            b.submit_read(bids_b[1]),
            a.submit_read_blocks(bids_a),
            b.submit_write(bids_b[1], b"w" * 512),
        ]
        server.drain()
        events = server.dispatch_log[mark:]
        dispatches = [e for e in events if e[0] == "dispatch"]
        assert [(e[1], e[2]) for e in dispatches] == [
            (op.tenant, op.seq) for op in submitted
        ]
        # One op per round, no merging.
        assert server.stats.read_batches == 0
        assert all(op.done and op.error is None for op in submitted)

    def test_step_returns_zero_when_idle(self):
        server, _lld = make_server(FIFOScheduler())
        server.open_session("a")
        assert server.step() == 0


# ----------------------------------------------------------------------
# DRR fairness
# ----------------------------------------------------------------------


class TestDRRFairness:
    def test_weights_split_one_round_proportionally(self):
        server, _lld = make_server(QoSElevatorScheduler(), capacity_mb=8)
        a = server.open_session("a", weight=4.0)
        b = server.open_session("b", weight=1.0)
        _lid_a, bids_a = populate(a, 1, size=16)
        _lid_b, bids_b = populate(b, 1, size=16, tag="bee")
        wa, wb = a._queue.stats.writes, b._queue.stats.writes
        for _ in range(100):
            a.submit_write(bids_a[0], b"A" * 4096)
            b.submit_write(bids_b[0], b"B" * 4096)
        server.step()
        # quantum=64 KB, weight 4 vs 1: 256 KB vs 64 KB of 4 KB writes.
        assert a._queue.stats.writes - wa == 64
        assert b._queue.stats.writes - wb == 16
        server.drain()
        assert a._queue.stats.writes - wa == 100
        assert b._queue.stats.writes - wb == 100

    def test_idle_tenants_bank_no_deficit(self):
        server, _lld = make_server(QoSElevatorScheduler())
        a = server.open_session("a")
        server.open_session("idle")
        _lid, bids = populate(a, 1, size=16)
        for _ in range(5):
            server.step()  # idle rounds must not accumulate credit
        assert server.tenants["idle"].deficit == 0.0
        a.submit_write(bids[0], b"w" * 512)
        server.drain()
        assert server.tenants["a"].deficit == 0.0


# ----------------------------------------------------------------------
# Elevator read batching
# ----------------------------------------------------------------------


class TestElevator:
    def test_cross_tenant_reads_merge_into_one_batch(self):
        server, _lld = make_server(QoSElevatorScheduler())
        a = server.open_session("a")
        b = server.open_session("b")
        _lid_a, bids_a = populate(a, 2)
        _lid_b, bids_b = populate(b, 2, tag="bee")
        batches = server.stats.read_batches
        ops = [
            a.submit_read(bids_a[0]),
            a.submit_read(bids_a[1]),
            b.submit_read(bids_b[0]),
            b.submit_read(bids_b[1]),
        ]
        dispatched = server.step()
        assert dispatched == 4
        assert server.stats.read_batches == batches + 1
        assert server.stats.batched_reads == 4
        assert [op.result[:3] for op in ops[:2]] == [b"blk", b"blk"]
        assert [op.result[:3] for op in ops[2:]] == [b"bee", b"bee"]

    def test_batch_is_elevator_sorted_by_placement(self):
        server, lld = make_server(QoSElevatorScheduler(), record_dispatch=True)
        writer = server.open_session("w")
        # Enough data to seal segments so blocks gain durable locations.
        _lid, bids = populate(writer, 40, size=4096)
        writer.flush()
        placed = [(lld.placement_hint(bid), bid) for bid in bids]
        placed = [(h, bid) for h, bid in placed if h is not None]
        assert len(placed) >= 4, "need sealed blocks for elevator hints"
        placed.sort()
        chosen = [placed[0], placed[len(placed) // 3], placed[2 * len(placed) // 3], placed[-1]]
        # Four tenants submit one read each, in *descending* LBA order.
        readers = [server.open_session(f"r{i}") for i in range(4)]
        mark = len(server.dispatch_log)
        elevator = server.stats.elevator_batches
        calls = []
        read_blocks = lld.read_blocks

        def spy(bids, **kwargs):
            calls.append(list(bids))
            return read_blocks(bids, **kwargs)

        lld.read_blocks = spy
        for sess, (_hint, bid) in zip(readers, reversed(chosen)):
            sess.submit_read(bid)
        server.step()
        assert server.stats.elevator_batches == elevator + 1
        # One vectored call, in ascending (spindle, LBA) order ...
        assert calls == [[bid for _hint, bid in chosen]]
        # ... and the ops dispatched in the order they were submitted.
        dispatches = [e for e in server.dispatch_log[mark:] if e[0] == "dispatch"]
        assert [e[1] for e in dispatches] == ["r0", "r1", "r2", "r3"]

    def test_read_batch_limit_bounds_one_batch(self):
        server, _lld = make_server(QoSElevatorScheduler())
        # A round's deficit covers 16 block reads per tenant: five tenants
        # queue more reads than one batch takes.
        tenants = [server.open_session(f"t{i}") for i in range(5)]
        blocks = [(sess, populate(sess, 16)[1]) for sess in tenants]
        ops = [sess.submit_read(bid) for sess, bids in blocks for bid in bids]
        assert len(ops) > READ_BATCH_LIMIT
        server.step()
        done = [op for op in ops if op.done]
        assert len(done) == READ_BATCH_LIMIT  # the limit, not the whole queue
        server.drain()
        assert all(op.done for op in ops)

    def test_later_write_never_passes_own_batched_read(self):
        server, _lld = make_server(QoSElevatorScheduler(), record_dispatch=True)
        a = server.open_session("a")
        _lid, bids = populate(a, 2)
        mark = len(server.dispatch_log)
        read = a.submit_read(bids[0])
        write = a.submit_write(bids[0], b"after" * 102)
        server.drain()
        events = [
            (e[1], e[2]) for e in server.dispatch_log[mark:] if e[0] == "dispatch"
        ]
        assert events.index((read.tenant, read.seq)) < events.index(
            (write.tenant, write.seq)
        )
        assert read.result.startswith(b"blk"), "read saw pre-write content"
