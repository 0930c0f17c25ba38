"""Compose the stack under test from the layers' public constructors.

Bottom-up — disks, RAID-5 volume, LLD, LDServer, tenant session, LDStore,
MinixFS — so that a traced run can wrap each layer's instance before the
layer above is built and captures its bound methods. The values are the
ones ``build_minix_lld(BuildSpec.from_scale(0.1), n_disks=4,
volume_layout="raid5", scheduler="qos")`` produces today; a self-test pins
the two against each other.
"""

from __future__ import annotations

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.minix import LDStore, MinixFS
from repro.lld import LLD, LLDConfig
from repro.sched import LDServer, QoSElevatorScheduler, TenantSession
from repro.sim import VirtualClock
from repro.volume import Volume

from benchmarks.e2e.trace import Tracer, wrap_layer

KB = 1024
MB = 1024 * KB

N_DISKS = 4
DATA_MB = 40  # the paper's 400 MB partition at the repo's 1/10 scale
MEMBER_MB = DATA_MB // (N_DISKS - 1)  # RAID-5: N-1 data chunks per row
SEGMENT_SIZE = 512 * KB
BLOCK_SIZE = 4 * KB
CACHE_BYTES = int(6144 * KB * 0.1)  # 614 KB buffer cache
NINODES = int(12288 * 0.1)

LLD_CONFIG = LLDConfig(
    segment_size=SEGMENT_SIZE,
    block_size=BLOCK_SIZE,
    checkpoint_slots=2,
    read_cache_enabled=False,
    delta_partial_flush=True,
)

#: The public request surface of each layer: what a traced run wraps.
LD_SURFACE = (
    "read", "read_blocks", "read_list", "write", "new_block", "delete_block",
    "new_list", "delete_list", "move_sublist", "move_list", "list_blocks",
    "block_at", "list_length", "begin_aru", "end_aru", "flush", "flush_list",
    "reserve_blocks", "cancel_reservation",
)
SURFACES = {
    "fs": (
        "open", "read", "write", "seek", "close", "unlink", "mkdir", "sync",
        "drop_caches", "mount",
    ),
    "sched": LD_SURFACE + (
        "call", "submit_read", "submit_read_blocks", "submit_write",
        "submit_flush", "submit_call", "request_flush",
    ),
    "lld": LD_SURFACE + ("initialize",),
    "volume": ("read", "read_batch", "write", "barrier"),
    "disk": ("read", "read_batch", "write", "barrier"),
}


class Stack:
    """One composed stack: every layer's instance, bottom to top.

    The constructor builds disks -> RAID-5 volume -> LLD -> LDServer;
    tenants are added by the caller with :meth:`add_minix` and
    :meth:`open_session`. With a tracer, each instance is wrapped as soon
    as it exists, before the layer above is built.
    """

    def __init__(self, tracer: Tracer | None = None, *, group_commit: int = 1) -> None:
        self.tracer = tracer
        self.group_commit = group_commit
        #: Every member ever installed, failed and replacement ones
        #: included, so byte and busy-time totals survive ``replace_member``.
        self.disks: list[SimulatedDisk] = []
        self.volume = Volume(
            [self.new_member() for _ in range(N_DISKS)],
            VirtualClock(),
            layout="raid5",
            chunk_sectors=SEGMENT_SIZE // 512,
        )
        self.clock = self.volume.clock
        self._wrap(self.volume, "volume")
        self._serve()

    def _wrap(self, obj, layer: str, names=None, *, clock=None) -> None:
        if self.tracer is not None:
            wrap_layer(
                self.tracer, obj, layer, names or SURFACES[layer],
                clock or self.clock, private=clock is not None,
            )

    def _serve(self) -> None:
        """Build and initialize LLD -> server on the volume; no tenants yet."""
        self.lld = LLD(self.volume, LLD_CONFIG)
        self._wrap(self.lld, "lld")
        self.lld.initialize()
        self.server = LDServer(
            self.lld, QoSElevatorScheduler(), group_commit=self.group_commit
        )
        self._wrap(self.server, "sched", ("step",))
        self.filesystems: dict[str, MinixFS] = {}

    def new_member(self) -> SimulatedDisk:
        """A blank member disk on a private clock, wrapped like the others."""
        disk = SimulatedDisk(hp_c3010(capacity_mb=MEMBER_MB), VirtualClock())
        self._wrap(disk, "disk", clock=disk.clock)
        self.disks.append(disk)
        return disk

    def open_session(self, name: str, *, weight: float = 1.0) -> TenantSession:
        session = self.server.open_session(name, weight=weight)
        self._wrap(session, "sched")
        return session

    def add_minix(self, name: str, *, weight: float = 1.0, mkfs: bool = True) -> MinixFS:
        """A MINIX tenant on its own session (mkfs, or mount after a crash)."""
        store = LDStore(self.open_session(name, weight=weight), cache_bytes=CACHE_BYTES)
        fs = MinixFS(store, readahead=False)
        self._wrap(fs, "fs")
        if mkfs:
            fs.mkfs(ninodes=NINODES)
        else:
            fs.mount()
        self.filesystems[name] = fs
        return fs

    def crash_and_recover(self) -> None:
        """Power-fail the LLD and bring a fresh one up on the same volume.

        Everything above the volume is rebuilt; tenants remount themselves
        with ``add_minix(name, mkfs=False)``.
        """
        self.lld.crash()
        self._serve()
