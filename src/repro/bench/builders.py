"""Builders for the systems under test.

The paper's testbed: a 400 MB partition of an HP C3010, 0.5 MB segments,
4 KB blocks, a static 6144 KB buffer cache for both MINIX variants, 8 KB
blocks for SunOS. Benchmarks run a scaled-down copy of that configuration
(default 1/10th: 40 MB partition, same segment/block sizes, cache scaled so
the cache-to-working-set ratio is preserved). Set the environment variable
``REPRO_BENCH_SCALE=1.0`` to run at full paper scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.ffs import make_ffs
from repro.fs.minix import make_minix, make_minix_lld
from repro.lld import LLD, LLDConfig
from repro.sched import FIFOScheduler, LDServer, QoSElevatorScheduler
from repro.sim import VirtualClock
from repro.volume import Volume

KB = 1024
MB = 1024 * KB


def default_scale() -> float:
    """Benchmark scale factor (fraction of the paper's workload sizes)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


@dataclass(frozen=True)
class BuildSpec:
    """Scaled copy of the paper's testbed configuration."""

    scale: float = 0.1
    partition_mb: int = 400
    cache_bytes: int = 6144 * KB
    segment_size: int = 512 * KB
    block_size: int = 4 * KB
    ninodes: int = 12288

    @classmethod
    def from_scale(cls, scale: float | None = None) -> "BuildSpec":
        scale = default_scale() if scale is None else scale
        return cls(
            scale=scale,
            partition_mb=max(8, int(400 * scale)),
            cache_bytes=max(256 * KB, int(6144 * KB * scale)),
            segment_size=512 * KB,
            block_size=4 * KB,
            ninodes=max(1024, int(12288 * scale)),
        )

    def small_file_count(self, paper_count: int) -> int:
        return max(16, int(paper_count * self.scale))

    def large_file_mb(self, paper_mb: int = 80) -> int:
        return max(2, int(paper_mb * self.scale))


def fresh_disk(spec: BuildSpec) -> SimulatedDisk:
    """A new simulated HP C3010 partition."""
    return SimulatedDisk(hp_c3010(capacity_mb=spec.partition_mb), VirtualClock())


def fresh_volume(
    spec: BuildSpec,
    n_disks: int,
    *,
    layout: str = "stripe",
    chunk_sectors: int | None = None,
    segment_size: int | None = None,
) -> Volume:
    """A new N-spindle volume of HP C3010 members.

    Striped and parity volumes default to segment-granular chunks (one
    stripe chunk == one LLD segment slot), so every slot maps wholly to
    one spindle and round-robin slot placement turns into round-robin
    spindle placement.
    Members are sized so total *data* capacity matches the single-disk
    testbed: the N=1 stripe arm is the same partition as
    :func:`fresh_disk`, and a parity volume sizes members by the N-1 data
    chunks per stripe row.
    """
    if chunk_sectors is None:
        chunk_sectors = (segment_size or spec.segment_size) // 512
    if layout == "stripe":
        data_members = n_disks
    elif layout == "raid5":
        data_members = n_disks - 1
    else:
        data_members = 1
    member_mb = max(8, spec.partition_mb // data_members)
    members = [
        SimulatedDisk(hp_c3010(capacity_mb=member_mb), VirtualClock())
        for _ in range(n_disks)
    ]
    return Volume(
        members, VirtualClock(), layout=layout, chunk_sectors=chunk_sectors
    )


def build_minix(spec: BuildSpec, readahead: bool = True):
    """Plain MINIX (4 KB blocks, bitmaps, read-ahead on)."""
    fs = make_minix(
        fresh_disk(spec),
        cache_bytes=spec.cache_bytes,
        ninodes=spec.ninodes,
        readahead=readahead,
    )
    return fs


def build_minix_lld(
    spec: BuildSpec,
    list_per_file: bool = True,
    inode_block_mode: str = "packed",
    lists_enabled: bool = True,
    segment_size: int | None = None,
    compression: bool = False,
    read_cache: bool = False,
    readahead: bool = False,
    delta_partial_flush: bool = True,
    flush_batch: int = 1,
    n_disks: int | None = None,
    volume_layout: str = "stripe",
    scheduler: str | None = None,
):
    """MINIX LLD (0.5 MB segments, 4 KB blocks, read-ahead off).

    Returns ``(fs, lld)`` so benchmarks can inspect LD statistics. The
    paper configuration keeps both ``read_cache`` (the LD-level block
    cache) and ``readahead`` (FS prefetch through vectored reads) off;
    the read-path benchmark turns them on explicitly. The write-path
    benchmark uses ``delta_partial_flush=False`` for the paper's
    full-image flush baseline and ``flush_batch`` for group commit.

    With ``n_disks`` set, LLD runs over a multi-spindle
    :class:`~repro.volume.Volume` (segment-granular striping by default)
    instead of a bare disk; ``None`` keeps the single-disk testbed
    byte- and figure-identical to previous revisions.

    With ``scheduler`` set (``"qos"`` or ``"fifo"``), or ``flush_batch >
    1`` (the QoS elevator then), the store rides a tenant session ``"fs"``
    of an :class:`~repro.sched.LDServer` instead of driving the LLD
    directly; ``flush_batch`` is the server's cross-tenant
    ``group_commit``. The server is reachable as
    ``fs.store.session.server``.
    """
    config = LLDConfig(
        segment_size=segment_size or spec.segment_size,
        block_size=spec.block_size,
        lists_enabled=lists_enabled,
        checkpoint_slots=2,
        read_cache_enabled=read_cache,
        delta_partial_flush=delta_partial_flush,
    )
    if n_disks is None:
        backing = fresh_disk(spec)
    else:
        backing = fresh_volume(
            spec, n_disks, layout=volume_layout, segment_size=config.segment_size
        )
    lld = LLD(backing, config)
    lld.initialize()
    backend = lld
    if scheduler is not None or flush_batch > 1:
        server = LDServer(
            lld, make_scheduler(scheduler or "qos"), group_commit=flush_batch
        )
        backend = server.open_session("fs")
    fs = make_minix_lld(
        backend,
        cache_bytes=spec.cache_bytes,
        ninodes=min(spec.ninodes, spec.block_size * 8),
        list_per_file=list_per_file,
        inode_block_mode=inode_block_mode,
        readahead=readahead,
    )
    if compression:
        _enable_compression(fs, lld)
    return fs, lld


def make_scheduler(name: str):
    """A fresh scheduler instance by benchmark arm name."""
    if name in ("qos", "elevator", "qos-elevator"):
        return QoSElevatorScheduler()
    if name == "fifo":
        return FIFOScheduler()
    raise ValueError(f"unknown scheduler arm: {name!r}")


def build_ld_server(
    spec: BuildSpec,
    *,
    scheduler: str = "qos",
    group_commit: int = 1,
    segment_size: int | None = None,
    read_cache: bool = False,
    n_disks: int | None = None,
    volume_layout: str = "stripe",
    record_dispatch: bool = False,
):
    """A bare LLD wrapped in a multi-tenant :class:`~repro.sched.LDServer`.

    Returns ``(server, lld)``; callers open tenant sessions themselves.
    This is the multi-tenant macro benchmark's stack: tenants drive LD
    ops directly, with no per-tenant file system in the way.
    """
    config = LLDConfig(
        segment_size=segment_size or spec.segment_size,
        block_size=spec.block_size,
        checkpoint_slots=2,
        read_cache_enabled=read_cache,
    )
    if n_disks is None:
        backing = fresh_disk(spec)
    else:
        backing = fresh_volume(
            spec, n_disks, layout=volume_layout, segment_size=config.segment_size
        )
    lld = LLD(backing, config)
    lld.initialize()
    server = LDServer(
        lld,
        make_scheduler(scheduler),
        group_commit=group_commit,
        record_dispatch=record_dispatch,
    )
    return server, lld


def _enable_compression(fs, lld) -> None:
    """Turn on per-list compression for every future file list.

    MINIX LLD with compression compresses user data and file-system
    structures but not LD's own structures (paper §3.3); here the store's
    new lists are created with the compress hint.
    """
    from repro.ld.hints import LIST_HEAD, ListHints

    store = fs.store
    original = store.new_file_context

    def with_compression(near_ctx: int, directory: bool = False) -> int:
        if not store.list_per_file:
            return original(near_ctx, directory)
        pred = near_ctx if near_ctx > 0 else LIST_HEAD
        return lld.new_list(pred_lid=pred, hints=ListHints(compress=True))

    store.new_file_context = with_compression


def build_ffs(spec: BuildSpec):
    """The FFS/SunOS-like file system (8 KB blocks, sync metadata)."""
    return make_ffs(
        fresh_disk(spec),
        cache_bytes=spec.cache_bytes,
        ninodes=spec.ninodes,
    )
