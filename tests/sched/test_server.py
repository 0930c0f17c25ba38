"""LDServer + TenantSession behaviour: facade, group commit, ARUs, stats."""

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld.errors import ARUError, LDError, NoSuchBlockError
from repro.lld import LLD
from repro.obs import diff_payloads
from repro.sched import LDServer, QoSElevatorScheduler
from repro.sim import VirtualClock

from tests.lld.conftest import small_config
from tests.sched.conftest import make_device, make_server, populate, reopen_after_crash


# ----------------------------------------------------------------------
# The blocking session facade
# ----------------------------------------------------------------------


class TestSessionFacade:
    def test_write_read_roundtrip(self):
        server, lld = make_server()
        sess = server.open_session("a")
        lid, bids = populate(sess, 3)
        assert sess.read(bids[0]).startswith(b"blk-0000")
        # The session drives the same LD the server owns.
        assert lld.read(bids[0]) == sess.read(bids[0])

    def test_vectored_read_blocks(self):
        server, _lld = make_server()
        sess = server.open_session("a")
        _lid, bids = populate(sess, 4)
        datas = sess.read_blocks(bids)
        assert [d[:8] for d in datas] == [
            f"blk-{i:04d}".encode() for i in range(4)
        ]

    def test_metadata_ops_route_through_the_queue(self):
        server, _lld = make_server()
        sess = server.open_session("a")
        lid, bids = populate(sess, 3)
        assert sess.list_blocks(lid) == bids
        assert sess.list_length(lid) == 3
        assert sess.block_at(lid, 1) == bids[1]
        sess.delete_block(bids[1], lid)
        assert sess.list_blocks(lid) == [bids[0], bids[2]]
        assert [d[:3] for d in sess.read_list(lid)] == [b"blk", b"blk"]

    def test_errors_propagate_and_session_stays_usable(self):
        server, _lld = make_server()
        sess = server.open_session("a")
        _lid, bids = populate(sess, 1)
        with pytest.raises(NoSuchBlockError):
            sess.read(999_999)
        # The failed op did not wedge the queue.
        assert sess.read(bids[0]).startswith(b"blk")
        assert server.queued == 0

    def test_initialize_is_refused(self):
        server, _lld = make_server()
        sess = server.open_session("a")
        with pytest.raises(LDError):
            sess.initialize()

    def test_attribute_fallthrough_to_the_lld(self):
        server, lld = make_server()
        sess = server.open_session("a")
        assert sess.stats is lld.stats
        assert sess.layout is lld.layout
        assert sess.disk is lld.disk

    def test_duplicate_session_name_rejected(self):
        server, _lld = make_server()
        server.open_session("a")
        with pytest.raises(ValueError):
            server.open_session("a")


# ----------------------------------------------------------------------
# Single-tenant identity: a session is figure-identical to a bare LLD
# ----------------------------------------------------------------------


def run_reference_workload(ld):
    lid, bids = populate(ld, 8, size=2048)
    ld.flush()
    for bid in bids[:4]:
        ld.write(bid, b"over" * 512)
    ld.flush()
    assert [len(d) for d in ld.read_blocks(bids)] == [2048] * 4 + [2048] * 4
    for bid in bids:
        ld.read(bid)
    return lid, bids


class TestSingleTenantIdentity:
    def test_session_matches_bare_lld_figures(self):
        bare = LLD(
            SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock()),
            small_config(),
        )
        bare.initialize()
        run_reference_workload(bare)

        server, routed = make_server(QoSElevatorScheduler())
        sess = server.open_session("solo")
        run_reference_workload(sess)

        assert routed.stats.as_dict() == bare.stats.as_dict()
        assert routed.disk.stats.as_dict() == bare.disk.stats.as_dict()

    def test_session_reads_on_raid5_match_bare_lld_figures(self):
        """A lone tenant's reads wait in the LD call, as a waiting flush
        does: on a volume whose members run ahead, call for call, member
        clock for member clock, what the bare LLD gets."""

        def run(ld, lld):
            _lid, bids = run_reference_workload(ld)
            lld.log.seal()  # every block onto the medium: the reads go to disk
            ld.flush()
            reads = ld.read_blocks(bids[::2]) + [ld.read(bid) for bid in bids]
            return reads, lld.disk.clock.now

        bare = LLD(make_device("raid5"), small_config())
        bare.initialize()
        want = run(bare, bare)

        server, routed = make_server(QoSElevatorScheduler(), device="raid5")
        got = run(server.open_session("solo"), routed)

        assert got == want
        assert server.stats.reads_parked == server.parked_completions == 0
        assert routed.disk.volume_stats.reads > 0
        assert routed.disk.volume_stats.as_dict() == bare.disk.volume_stats.as_dict()
        assert routed.disk.stats.as_dict() == bare.disk.stats.as_dict()
        assert [d.clock.now for d in routed.disk.disks] == [d.clock.now for d in bare.disk.disks]
        assert routed.stats.as_dict() == bare.stats.as_dict()

    def test_populate_is_drained_between_ops(self):
        server, _lld = make_server()
        sess = server.open_session("solo")
        populate(sess, 2)
        assert server.queued == 0
        assert server.stats.ops_submitted == server.stats.ops_dispatched


# ----------------------------------------------------------------------
# Cross-tenant group commit
# ----------------------------------------------------------------------


class TestGroupCommit:
    def test_deferred_intents_pool_until_the_batch_fills(self):
        server, lld = make_server(group_commit=3)
        a = server.open_session("a")
        b = server.open_session("b")
        populate(a, 1)
        flushes_before = lld.stats.flushes
        assert a.request_flush() is False
        assert b.request_flush() is False
        assert server.pending_intents == 2
        assert lld.stats.flushes == flushes_before
        assert a.request_flush() is True  # third intent commits the group
        assert server.pending_intents == 0
        assert lld.stats.flushes == flushes_before + 1
        assert server.stats.group_commits == 1
        assert server.stats.intents_committed == 3
        assert server.stats.flushes_deferred == 2

    def test_forced_flush_commits_pending_intents(self):
        server, lld = make_server(group_commit=8)
        a = server.open_session("a")
        b = server.open_session("b")
        populate(a, 1)
        assert a.request_flush() is False
        flushes_before = lld.stats.flushes
        b.flush()  # the LD-contract flush is a forced durability point
        assert server.pending_intents == 0
        assert lld.stats.flushes == flushes_before + 1
        assert server.stats.forced_flushes == 1
        assert server.stats.intents_committed == 2

    def test_commit_makes_deferred_tenants_data_durable(self):
        server, lld = make_server(group_commit=4)
        a = server.open_session("a")
        b = server.open_session("b")
        _lid, bids = populate(a, 2)
        assert a.request_flush() is False  # a's data: not yet durable
        populate(b, 1, tag="bee")
        b.flush()  # commits a's intent along with b's
        fresh = reopen_after_crash(lld)
        assert fresh.read(bids[0]).startswith(b"blk-0000")
        assert fresh.read(bids[1]).startswith(b"blk-0001")

    def test_close_commits_leftover_intents(self):
        server, lld = make_server(group_commit=4)
        a = server.open_session("a")
        _lid, bids = populate(a, 1)
        assert a.request_flush() is False
        server.close()
        assert server.pending_intents == 0
        fresh = reopen_after_crash(lld)
        assert fresh.read(bids[0]).startswith(b"blk")

    def test_epoch_bumps_per_physical_flush(self):
        server, _lld = make_server(group_commit=2)
        a = server.open_session("a")
        epoch = server.epoch
        a.request_flush()
        assert server.epoch == epoch  # deferred: no physical flush
        a.request_flush()
        assert server.epoch == epoch + 1


# ----------------------------------------------------------------------
# ARUs across tenants
# ----------------------------------------------------------------------


class TestTenantARUs:
    def test_concurrent_tenant_arus_commit_independently(self):
        server, lld = make_server()
        a = server.open_session("a")
        b = server.open_session("b")
        _lid_a, bids_a = populate(a, 2)
        _lid_b, bids_b = populate(b, 2, tag="bee")
        # Interleave two open ARUs through the nonblocking API.
        a.begin_aru()
        b.begin_aru()
        ops = [
            a.submit_write(bids_a[0], b"A" * 512),
            b.submit_write(bids_b[0], b"B" * 512),
            a.submit_write(bids_a[1], b"A" * 512),
            b.submit_write(bids_b[1], b"B" * 512),
        ]
        server.drain()
        assert all(op.done and op.error is None for op in ops)
        a.end_aru()
        b.end_aru()
        a.flush()
        fresh = reopen_after_crash(lld)
        assert fresh.read(bids_a[0]) == b"A" * 512
        assert fresh.read(bids_b[1]) == b"B" * 512

    def test_one_tenants_open_aru_does_not_tag_anothers_writes(self):
        server, lld = make_server()
        a = server.open_session("a")
        b = server.open_session("b")
        _lid_a, bids_a = populate(a, 1)
        _lid_b, bids_b = populate(b, 1, tag="bee")
        a.flush()
        a.begin_aru()
        a.write(bids_a[0], b"staged" * 85)
        b.write(bids_b[0], b"plain" * 102)  # not part of a's ARU
        b.flush()  # durable, though a's ARU is still open
        # Crash before a ever commits: b's write survives, a's vanishes.
        fresh = reopen_after_crash(lld)
        assert fresh.read(bids_b[0]) == b"plain" * 102
        assert fresh.read(bids_a[0]).startswith(b"blk-0000")

    def test_abort_aru_discards_staged_writes(self):
        server, lld = make_server()
        a = server.open_session("a")
        _lid, bids = populate(a, 1)
        a.flush()
        a.begin_aru()
        a.write(bids[0], b"doomed" * 85)
        a.abort_aru()
        a.flush()
        fresh = reopen_after_crash(lld)
        assert fresh.read(bids[0]).startswith(b"blk-0000")
        # The session's ARU slot is clear: plain writes commit again.
        a2 = LDServer(fresh).open_session("a")
        a2.write(bids[0], b"alive!" * 85)
        a2.flush()
        assert reopen_after_crash(fresh).read(bids[0]) == b"alive!" * 85

    def test_session_aru_context_manager(self):
        server, lld = make_server()
        a = server.open_session("a")
        _lid, bids = populate(a, 1)
        a.flush()
        with a.aru():
            a.write(bids[0], b"commit" * 85)
        a.flush()
        assert reopen_after_crash(lld).read(bids[0]) == b"commit" * 85

    def test_session_aru_context_manager_aborts_on_exception(self):
        server, lld = make_server()
        a = server.open_session("a")
        _lid, bids = populate(a, 1)
        a.flush()
        with pytest.raises(RuntimeError, match="client died"):
            with a.aru():
                a.write(bids[0], b"doomed" * 85)
                raise RuntimeError("client died")
        a.flush()
        assert reopen_after_crash(lld).read(bids[0]).startswith(b"blk")

    def test_aru_errors_clear_the_session_slot(self):
        server, _lld = make_server()
        a = server.open_session("a")
        with pytest.raises(ARUError):
            a.end_aru()  # nothing open
        aru = a.begin_aru()
        assert aru > 0
        a.end_aru()
        with pytest.raises(ARUError):
            a.abort_aru()


# ----------------------------------------------------------------------
# Per-tenant attribution (sched stats)
# ----------------------------------------------------------------------


class TestAttribution:
    def test_block_traffic_split_by_tenant(self):
        server, _lld = make_server()
        a = server.open_session("a")
        b = server.open_session("b")
        _lid_a, bids_a = populate(a, 3, size=4096)
        _lid_b, bids_b = populate(b, 1, size=4096)
        a.read(bids_a[0])
        tenants = server.stats.tenants
        assert tenants["a"].writes == 3
        assert tenants["b"].writes == 1
        assert tenants["a"].bytes_written == 3 * 4096
        assert tenants["a"].reads == 1
        assert tenants["b"].reads == 0
        assert tenants["a"].bytes_read == 4096
        payload = server.stats.as_dict()
        assert payload["tenants"]["a"]["writes"] == 3

    def test_sched_stats_split_by_tenant(self):
        server, _lld = make_server(group_commit=2)
        a = server.open_session("a")
        b = server.open_session("b")
        populate(a, 2)
        populate(b, 1)
        a.request_flush()
        b.request_flush()
        payload = server.stats.as_dict()
        assert payload["tenants"]["a"]["writes"] == 2
        assert payload["tenants"]["b"]["writes"] == 1
        assert payload["tenants"]["a"]["acks"] == 1
        assert payload["tenants"]["b"]["acks"] == 1
        assert payload["group_commits"] == 1
        assert payload["ops_submitted"] == payload["ops_dispatched"]

    def test_snapshot_is_a_deep_copy(self):
        """A payload taken earlier keeps its tenant slices as they were,
        and is the start of a window onto the live counters."""
        server, _lld = make_server()
        a = server.open_session("a")
        populate(a, 1)
        snap = server.stats.as_dict()
        populate(a, 1)
        assert snap["tenants"]["a"]["writes"] == 1
        assert server.stats.tenants["a"].writes == 2
        window = diff_payloads(snap, server.stats.as_dict())
        assert window["tenants"]["a"]["writes"] == 1
