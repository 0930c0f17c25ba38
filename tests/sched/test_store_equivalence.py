"""LDStore group commit routes through the scheduler.

``LDStore(flush_batch=N)`` used to count syncs in the store; group
commit is now only ``LDServer(group_commit=N)``, and a store on one of
its sessions maps each sync onto a deferrable flush intent. These tests
pin the equivalence: the scheduler-routed path produces byte-identical
LLD/disk figures to the in-store counting it replaced (since deleted;
its figures are the golden constants below) at every batch size, on the
exact workload group commit exists for (many small fsyncs).
"""

import pytest

from repro.bench import BuildSpec, build_minix_lld
from repro.disk import SimulatedDisk, fast_test_disk
from repro.fs.minix import LDStore, MinixFS
from repro.lld import LLD
from repro.sched import LDServer, QoSElevatorScheduler, TenantSession
from repro.sim import VirtualClock

from tests.lld.conftest import small_config


def fresh_lld(capacity_mb: int = 8) -> LLD:
    disk = SimulatedDisk(fast_test_disk(capacity_mb=capacity_mb), VirtualClock())
    lld = LLD(disk, small_config(checkpoint_slots=2))
    lld.initialize()
    return lld


def build_fs(backend, **store_kw) -> MinixFS:
    store = LDStore(backend, cache_bytes=256 * 1024, **store_kw)
    fs = MinixFS(store, readahead=False)
    fs.mkfs(ninodes=256)
    return fs


def fsync_workload(fs, n_files: int = 12) -> None:
    for i in range(n_files):
        fd = fs.open(f"/f{i}", create=True)
        fs.write(fd, f"file-{i}:".encode() * 300)
        fs.close(fd)
        fs.sync()
    fs.store.barrier()


def lld_figures(lld):
    """Every non-zero LLD counter, and the disk's full request accounting."""
    payload = lld.stats.as_dict()
    payload.pop("tenants")  # attribution is additive, not behaviour
    return {k: v for k, v in payload.items() if v}, lld.disk.stats.as_dict()


#: ``lld_figures`` + the store's sync accounting of the deleted in-store
#: counting path, captured from the parent commit with
#: ``LDStore(lld, flush_batch=N, legacy_group_commit=True)`` on
#: ``fsync_workload`` (N=1 never took the legacy branch).
#:
#: Re-based at batch 1 and 4 with seal-by-delta (batch 16 has no seal that
#: follows a partial flush and keeps the capture): a seal over a durable
#: prefix writes its data tail and summary, not the whole image. Batch 1:
#: 4 of 4 seals, 364 544 -> 221 696 bytes on 16 -> 20 writes, busy 1.872 ->
#: 1.830 s; batch 4: 2 of 3 seals, 242 176 -> 215 552 bytes on 6 -> 8 writes,
#: busy 1.738 -> 1.760 s (two short writes per seal cost a rotation more
#: than the 26 KB they save). Every count of flushes, seals, partial writes
#: and reads is the capture's.
_SAME_AT_EVERY_BATCH = {
    "blocks_written": 49, "logical_bytes_written": 196642,
    "stored_bytes_written": 196642, "data_bytes_logical": 196642,
}
#:
#: Re-based again for running checkpoints (two checkpoint slots): start-up
#: reads both copies' headers (one more 1-sector read), and the first seal
#: takes a checkpoint — one 2-sector write between two barriers, busy
#: +0.022 s. Everything else is the capture's.
_CHECKPOINT = {"checkpoints_written": 1, "checkpoint_bytes": 1024}
_SAME_DISK_READS = {
    "bytes_read": 513024, "reads": 127, "sectors_read": 1002, "sector_size": 512,
}
LEGACY_GOLDEN = {
    1: dict(
        lld={
            **_SAME_AT_EVERY_BATCH, **_CHECKPOINT, "data_bytes_physical": 221696,
            "flushes": 12, "flushes_noop": 1, "segments_sealed": 4,
            "partial_segment_writes": 8, "partial_full_writes": 4,
            "partial_delta_flushes": 4, "partial_delta_data_bytes": 66048,
            "partial_delta_summary_bytes": 2560,
            "seals_by_delta": 4, "seal_delta_bytes": 70656,
            "write_amplification": 1.127409200475992,
        },
        disk={
            **_SAME_DISK_READS, "barriers": 26, "busy_time": 1.8522222222222222,
            "bytes_written": 222720, "head_switch_time": 0.007500000000000003,
            "overhead_time": 0.22200000000000017, "requests": 148,
            "rotation_time": 1.2806111111111111, "sectors_written": 435,
            "seek_time": 0.07600000000000003, "seeks": 36,
            "transfer_time": 0.26611111111111085, "writes": 21,
            "request_sizes": {1: 5, 2: 5, 3: 1, 8: 125, 32: 6, 33: 2, 40: 3, 41: 1},
            "write_request_sizes": {1: 3, 2: 5, 3: 1, 32: 6, 33: 2, 40: 3, 41: 1},
        },
        syncs=12, syncs_deferred=0,
    ),
    4: dict(
        lld={
            **_SAME_AT_EVERY_BATCH, **_CHECKPOINT, "data_bytes_physical": 215552,
            "flushes": 4, "segments_sealed": 3, "partial_segment_writes": 3,
            "partial_full_writes": 3, "partial_delta_noop": 1,
            "seals_by_delta": 2, "seal_delta_bytes": 104448,
            "write_amplification": 1.0961646036960568,
        },
        disk={
            **_SAME_DISK_READS, "barriers": 12, "busy_time": 1.7819814814814827,
            "bytes_written": 216576, "head_switch_time": 0.007000000000000003,
            "overhead_time": 0.20400000000000015, "requests": 136,
            "rotation_time": 1.231092592592594, "sectors_written": 423,
            "seek_time": 0.07600000000000003, "seeks": 36,
            "transfer_time": 0.2638888888888887, "writes": 9,
            "request_sizes": {1: 2, 2: 3, 8: 125, 24: 1, 32: 1, 40: 1, 96: 1, 104: 1, 121: 1},
            "write_request_sizes": {2: 3, 24: 1, 32: 1, 40: 1, 96: 1, 104: 1, 121: 1},
        },
        syncs=12, syncs_deferred=9,
    ),
    16: dict(
        lld={
            **_SAME_AT_EVERY_BATCH, **_CHECKPOINT, "data_bytes_physical": 213504,
            "flushes": 1, "segments_sealed": 3, "partial_segment_writes": 1,
            "partial_full_writes": 1, "write_amplification": 1.085749738102745,
        },
        disk={
            **_SAME_DISK_READS, "barriers": 7, "busy_time": 1.7375370370370387,
            "seek_time": 0.07300000000000002, "seeks": 34,
            "bytes_written": 214528, "head_switch_time": 0.007000000000000003,
            "overhead_time": 0.19800000000000015, "requests": 132,
            "rotation_time": 1.1963888888888907, "sectors_written": 419,
            "transfer_time": 0.2631481481481479, "writes": 5,
            "request_sizes": {1: 2, 2: 1, 8: 125, 40: 1, 121: 1, 128: 2},
            "write_request_sizes": {2: 1, 40: 1, 121: 1, 128: 2},
        },
        syncs=12, syncs_deferred=12,
    ),
}


def group_committed_fs(group_commit):
    """A store riding session ``"fs"`` of a server with ``group_commit``."""
    lld = fresh_lld()
    server = LDServer(lld, QoSElevatorScheduler(), group_commit=group_commit)
    return build_fs(server.open_session("fs")), lld


@pytest.mark.parametrize("flush_batch", [1, 4, 16])
def test_scheduler_group_commit_matches_legacy_figures(flush_batch):
    golden = LEGACY_GOLDEN[flush_batch]
    fs, lld = group_committed_fs(flush_batch)
    fsync_workload(fs)
    assert lld_figures(lld) == (golden["lld"], golden["disk"])
    # The store-visible sync accounting agrees too.
    assert fs.store.stats.syncs == golden["syncs"]
    assert fs.store.stats.syncs_deferred == golden["syncs_deferred"]


def test_autowrap_exposes_its_session_and_server():
    """``build_minix_lld(flush_batch=N)`` is the one builder that wraps:
    a QoS server committing N intents, the store on its session "fs"."""
    fs, lld = build_minix_lld(BuildSpec.from_scale(0.05), flush_batch=4)
    session = fs.store.session
    assert isinstance(session, TenantSession) and session.name == "fs"
    assert session.server.group_commit == 4
    assert isinstance(session.server.scheduler, QoSElevatorScheduler)
    assert session.server.ld is lld


def test_flush_batch_on_a_session_backed_store_is_rejected():
    lld = fresh_lld()
    session = LDServer(lld, group_commit=4).open_session("fs")
    for backend in (session, lld):
        with pytest.raises(TypeError, match="flush_batch"):
            LDStore(backend, flush_batch=2)


def test_legacy_group_commit_argument_is_gone():
    lld = fresh_lld()
    with pytest.raises(TypeError, match="legacy_group_commit"):
        LDStore(lld, legacy_group_commit=True)


def test_deferred_syncs_commit_on_the_batch_boundary():
    fs, lld = group_committed_fs(3)
    server = fs.store.session.server
    flushes_before = lld.stats.flushes
    for i in range(3):
        fd = fs.open(f"/d{i}", create=True)
        fs.write(fd, b"x" * 1024)
        fs.close(fd)
        fs.sync()
    # Exactly one physical flush for three logical syncs.
    assert lld.stats.flushes == flushes_before + 1
    assert server.stats.group_commits == 1
    assert server.stats.intents_committed == 3
    assert fs.store.stats.syncs_deferred == 2
