"""A multi-disk volume behind the :class:`SimulatedDisk` request surface.

The paper's thesis is that file management and disk management separate
cleanly; this module swaps the single-spindle disk manager for an N-spindle
one without the layers above noticing. A :class:`Volume` duck-types the
``read`` / ``write`` / ``barrier`` / ``install`` / ``peek`` / ``corrupt``
surface of :class:`repro.disk.SimulatedDisk` over N backing member disks in
one of three layouts:

* **stripe** (RAID-0): fixed-size chunks round-robin across members (see
  :mod:`repro.volume.mapping`); capacity is the sum of the members'.
* **mirror** (RAID-1): every write fans out to all live members, reads are
  balanced to the least-busy replica; capacity is one member's. Members
  may be dropped (:meth:`fail_member`) and the volume keeps serving from
  the survivors.
* **raid5**: one chunk per stripe row holds the XOR parity of the row's
  N-1 data chunks, on a member rotating left-symmetric. Writes compute
  a row's parity one of two ways, as Linux md does: a delta
  (read-modify-write) or a reconstruct from the row's data chunks, which
  a full row, a degraded row and ``install`` always take and a healthy
  partial row takes when its pre-reads are cheaper. Any single member
  may fail (:meth:`fail_member` degrades instead of raising) and reads
  reconstruct the lost chunks by XOR over the survivors.
  :meth:`replace_member` installs a blank spindle and an
  online, rate-limited rebuild scanner (:attr:`rebuild_rate` rows per
  foreground request, or explicit :meth:`rebuild_step`) reconstructs it
  stripe row by stripe row, each row in steps of at most 64 KB per
  member, while the volume keeps serving traffic.

**The overlap model.** Each member disk keeps its *own* virtual clock — a
per-spindle busy-until horizon — while the volume owns the shared clock
the layers above observe. Dispatching a sub-request first lifts the member
clock to the shared ``now`` (a no-op when the spindle is still busy: the
request queues FIFO behind its predecessors), then lets the member charge
seek/rotation/transfer on its private clock; the sub-request completes at
the member clock's new value. Reads are blocking: the shared clock jumps
to the *max* completion over the dispatched sub-requests, so a striped
read costs ~max over spindles, not the sum — unless the caller asks not
to wait (``wait=False``), and is handed that completion time with the
bytes instead. Writes are queued: they
dispatch without advancing the shared clock at all, and a waiting
:meth:`barrier` drains — lifts the shared clock over every member's
horizon — so a striped segment write plus its flush barrier also costs
~max over spindles. An *ordering* barrier (``wait=False``) waits only for
the writes of the barrier before it, so at most one barrier epoch of
writes is ever left in flight behind the caller — and over an empty epoch
it waits for nothing: :meth:`Volume.write_horizon` then tells a caller
that did not wait when its writes will be done. A member write computed
from member reads (a parity row's read-modify-write or reconstruct-write)
starts no earlier than the last of those reads completes, on whichever
member it lands — and a pre-read whose sectors the volume itself wrote
recently, or has never written, is no member read at all: a parity volume
keeps the first and has the second on record as zeros
(:mod:`repro.volume.stripe_cache`), for this one purpose.
Data lands in the member sector stores at dispatch, so read-after-write
is always coherent regardless of clock skew.

With one member the model degenerates exactly to the bare disk: dispatch
``advance_to`` calls are no-ops (the single member's clock never trails
the shared one), so every request starts at the same instant, sees the
same rotational position, and charges the same time a bare
``SimulatedDisk`` on one shared clock would — the figure-identity the
scaling benchmark asserts.

**One request plan.** A layout supplies two things, fixed at construction:
an address *map* (:mod:`repro.volume.mapping`; a mirror is the one-member
stripe whose logical member has N copies) and a *write policy* (every
live copy of each member extent, or stripe rows with parity). The rest is
layout-blind core: :class:`_Dispatch` times member I/O for reads, writes
and the rebuild scanner alike, and its time-free twin :class:`_Install`
lets ``install`` and ``resync_parity`` run the very write plan a write
runs; :meth:`Volume._gather` assembles every read, timed or ``peek``,
from the member fetch it is passed; and one XOR over the other members
recovers a failed member's extent for reads and the rebuild scanner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.disk.disk import SimulatedDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.stats import DiskStats
from repro.disk.store import fill, sector_view
from repro.ld.errors import LDError
from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import Counters
from repro.obs.trace import NULL_SPAN
from repro.sim.clock import VirtualClock
from repro.volume.mapping import (
    ParityStripeMap,
    StripeMap,
    SubRequest,
    chunk_runs,
    mirror_map,
)
from repro.volume.stripe_cache import StripeCache

LAYOUTS = ("stripe", "mirror", "raid5")

#: Default stripe chunk: 128 sectors (64 KB).
DEFAULT_CHUNK_SECTORS = 128

#: The most the rebuild scanner moves per member in one step: 64 KB, the
#: default chunk, so a row of that chunk or less is rebuilt in one step
#: and a 512 KB chunk in eight (EXPERIMENTS.md, "A row a step at a time").
REBUILD_STEP_SECTORS = DEFAULT_CHUNK_SECTORS


#: Bytes :func:`_xor_buffers` turns into one int at a time: a store
#: extent's worth, the most a row write allocates at once.
XOR_WINDOW = 64 * 1024


def _xor_buffers(buffers, out=None):
    """XOR equal-length byte buffers through Python ints, a window at a time.

    The cheapest XOR CPython offers without an extension: ``int.from_bytes``
    of each operand, ``^``, ``to_bytes``. Taken over a whole 464 KB row,
    that made three ints and a result of the row's size per partial-row
    write — about 2 MB of fresh objects, which glibc trimmed and faulted
    back in row after row: 194 k minor faults and a quarter second of
    system time in ``aged_overwrite``'s timed phase. Here nothing larger
    than :data:`XOR_WINDOW` (64 KB) is built, and the arithmetic costs no
    more for it (three 464 KB operands into a reused buffer, median of 40
    on a 2-core Xeon under Python 3.11.7: 1.73–1.76 ms, against 1.97–2.06
    ms whole). Each window of every operand becomes an int, and their XOR
    is written into ``out`` — a reused volume buffer, possibly one of the
    operands themselves, since a window is read from every operand before
    it is written — which is returned. Without ``out`` the windows are
    joined into new ``bytes`` (degraded reads and the rebuild scanner,
    whose result is handed on).

    An operand is a ``bytes``-like buffer or a list of them end to end (a
    stripe cache answer, :meth:`StripeCache.find`, XORed from its views
    as it stands: only the parts of one window are joined).
    ``tests/volume/test_xor.py`` pins the bytes for every kind of operand.

    A ``None`` operand is a blank one — sectors never written, all zeros
    (:meth:`_Dispatch.prereads`) — and is left out. A single operand left
    needs no int: it is copied into ``out`` (which the caller may then
    patch, so it must not share its bytes with another row buffer), or
    without ``out`` returned as it is (a list: its parts joined). None at
    all is ``None``, itself blank.
    """
    operands = [buf for buf in buffers if buf is not None]
    if not operands:
        return None
    first = operands[0]
    if len(operands) == 1:
        if out is not None:
            return fill(out, first if isinstance(first, list) else (first,))
        if not isinstance(first, list):
            return first
    size = sum(map(len, first)) if isinstance(first, list) else len(first)
    windows = []
    at = 0
    for chunks in zip(*map(_windows, operands)):
        acc = 0
        for chunk in chunks:
            acc ^= int.from_bytes(chunk, "little")
        step = min(XOR_WINDOW, size - at)
        window = acc.to_bytes(step, "little")
        if out is None:
            windows.append(window)
        else:
            out[at : at + step] = window
        at += step
    if out is not None:
        return out
    return windows[0] if len(windows) == 1 else b"".join(windows)


def _windows(operand):
    """An operand of :func:`_xor_buffers` a :data:`XOR_WINDOW` at a time:
    slices of a contiguous buffer, or a cache answer's parts joined."""
    if not isinstance(operand, list):
        view = memoryview(operand).cast("B")
        for at in range(0, len(view), XOR_WINDOW):
            yield view[at : at + XOR_WINDOW]
        return
    pending, have = [], 0
    for part in operand:
        part = memoryview(part).cast("B")
        while part:
            take = min(len(part), XOR_WINDOW - have)
            pending.append(part[:take])
            have += take
            part = part[take:]
            if have == XOR_WINDOW:
                yield b"".join(pending)
                pending, have = [], 0
    if pending:
        yield b"".join(pending)


class _RowBuffers:
    """The byte buffers a parity volume's row writes reuse.

    A row's member pre-reads land here, and its new parity too, so a row
    write allocates nothing of the row's size: Linux md works over a
    stripe cache of pages it allocates once, in the same way. Buffers are
    handed out in order within a row (:meth:`take`) and all free again at
    the next (:meth:`reset`). Each grows, by replacement — a view of the
    old one may still be alive — to the largest range asked of it, so a
    volume whose rows are small never holds a chunk-sized buffer.
    """

    __slots__ = ("_pool", "_taken")

    def __init__(self) -> None:
        self._pool: list[bytearray] = []
        self._taken = 0

    def reset(self) -> None:
        self._taken = 0

    def take(self, nbytes: int) -> memoryview:
        """The row's next buffer, ``nbytes`` long; its contents are junk."""
        index = self._taken
        self._taken += 1
        pool = self._pool
        if index == len(pool):
            pool.append(bytearray(nbytes))
        elif len(pool[index]) < nbytes:
            pool[index] = bytearray(nbytes)
        return memoryview(pool[index])[:nbytes]


class VolumeError(LDError):
    """A volume-level request cannot be served."""


class VolumeDegradedError(VolumeError):
    """The request touches a failed member with no redundant copy."""


class VolumeGeometry:
    """Synthetic geometry of a volume: member timing, composite capacity.

    Sizing attributes (``total_sectors``, ``capacity_bytes``) describe the
    volume's addressable space and ``full_stripe_sectors`` the write size
    its layout makes cheap; every other attribute (timing constants,
    track shape) delegates to the member geometry, so consumers that
    reason about request cost — e.g. the recovery sweep's coalescing
    heuristic — see the real spindle characteristics.
    """

    def __init__(
        self, member: DiskGeometry, total_sectors: int, full_stripe_sectors: int
    ) -> None:
        #: Geometry every member spindle shares.
        self.member = member
        self.total_sectors = total_sectors
        self.sector_size = member.sector_size
        self.capacity_bytes = total_sectors * member.sector_size
        #: What a cheap write is (the ``io_opt`` a real array reports): a
        #: write covering whole multiples of this many sectors, aligned to
        #: it, updates parity without reading anything back. 0 where no
        #: size is special — stripes and mirrors, like a bare disk, which
        #: has no such attribute at all.
        self.full_stripe_sectors = full_stripe_sectors

    def __getattr__(self, name: str):
        return getattr(self.member, name)

    def __repr__(self) -> str:
        return (
            f"VolumeGeometry({self.capacity_bytes // (1024 * 1024)} MB, "
            f"member={self.member!r})"
        )


@dataclass(slots=True)
class VolumeStats(Counters):
    """Volume-level rollup: request latencies, queue depth, spindle balance.

    On top of its own counters ``as_dict()`` folds in a live per-spindle
    view taken from the member disks' own :class:`~repro.disk.DiskStats`.
    Request latencies record into
    bounded :class:`~repro.obs.hist.LatencyHistogram` sketches.
    """

    volume: "Volume"

    reads: int = 0
    writes: int = 0
    sub_reads: int = 0
    sub_writes: int = 0
    barriers: int = 0
    degraded_reads: int = 0
    # From here on the counters count parity paths (and stay 0 on
    # stripe/mirror layouts).
    reconstructed_reads: int = 0
    full_stripe_writes: int = 0
    rmw_writes: int = 0
    reconstruct_writes: int = 0
    degraded_writes: int = 0
    rebuild_rows_done: int = 0
    rebuild_reads: int = 0
    rebuild_writes: int = 0
    rebuilds_completed: int = 0
    max_queue_depth: int = 0
    # A row's pre-read buffers, whichever way it computed its parity:
    # served by the stripe cache (and the sectors that spared the
    # members), or read from a member.
    preread_hits: int = 0
    preread_misses: int = 0
    preread_sectors_saved: int = 0

    read_latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    #: Member writes that may still be in flight (volume-wide): those
    #: dispatched since the barrier before the last one, or the last
    #: drain.
    inflight_writes: int = 0
    #: The part of them dispatched since the last barrier.
    epoch_writes: int = 0

    HIDDEN = ("volume", "inflight_writes", "epoch_writes")
    DERIVED = (
        "read_latency_p50", "read_latency_p99",
        "write_latency_p50", "write_latency_p99",
    )

    @property
    def read_latency_p50(self) -> float:
        return self.read_latency_hist.quantile(0.50)

    @property
    def read_latency_p99(self) -> float:
        return self.read_latency_hist.quantile(0.99)

    @property
    def write_latency_p50(self) -> float:
        return self.write_latency_hist.quantile(0.50)

    @property
    def write_latency_p99(self) -> float:
        return self.write_latency_hist.quantile(0.99)

    def note_write_dispatch(self, subs: int) -> None:
        self.sub_writes += subs
        self.inflight_writes += subs
        self.epoch_writes += subs
        if self.inflight_writes > self.max_queue_depth:
            self.max_queue_depth = self.inflight_writes

    def note_ordering_barrier(self) -> None:
        """Everything older than the epoch just closed has completed."""
        self.inflight_writes = self.epoch_writes
        self.epoch_writes = 0

    def note_drain(self) -> None:
        self.inflight_writes = 0
        self.epoch_writes = 0

    #: ``DiskStats`` fields copied into each ``per_disk`` row.
    MEMBER_FIELDS = (
        "requests", "reads", "writes", "bytes_read", "bytes_written",
        "busy_time", "barriers",
    )

    @staticmethod
    def _balance(values: list[float]) -> float:
        """min/max across spindles: 1.0 is perfectly even, 0 fully skewed."""
        top = max(values, default=0.0)
        if top <= 0:
            return 1.0
        return min(values) / top

    def rollup(self) -> dict:
        """The volume's shape and health and its members' own counters,
        read from them now."""
        volume = self.volume
        per_disk = [
            {"index": i, "alive": volume.alive[i]}
            | {name: getattr(disk.stats, name) for name in self.MEMBER_FIELDS}
            for i, disk in enumerate(volume.disks)
        ]
        live = [d for d in per_disk if d["alive"]]
        return {
            "layout": volume.layout,
            "n_disks": len(volume.disks),
            "live_disks": sum(volume.alive),
            "chunk_sectors": volume.chunk_sectors,
            "rebuild_active": volume.rebuild_active,
            "rebuild_progress": volume.rebuild_progress,
            "total_bytes_read": sum(d["bytes_read"] for d in per_disk),
            "total_bytes_written": sum(d["bytes_written"] for d in per_disk),
            "request_balance": self._balance([d["requests"] for d in live]),
            "busy_balance": self._balance([d["busy_time"] for d in live]),
            "per_disk": per_disk,
        }

    def as_dict(self) -> dict:
        return Counters.as_dict(self) | self.rollup()


#: A pre-read candidate: ``(member, plba, nsectors, resident)``, where
#: ``resident`` is the stripe cache's answer (:meth:`StripeCache.find`):
#: views of the sectors, an empty list when they are all blank, or None.
_Preread = tuple[int, int, int, "list[memoryview] | None"]


class _Dispatch:
    """Member I/O of one timed request under the busy-until model.

    Every read issues at the shared time ``now``: the member clock is
    lifted to it (a no-op when the spindle is still busy — the request
    queues FIFO behind its predecessors), the member charges the
    mechanical cost on its private clock, and ``completion`` tracks the
    slowest member touched. A write issues at ``floor``: ``now``, or the
    completion of the latest read since the caller last reset it — the
    bytes of a parity update or of a rebuilt chunk do not exist before the
    reads they are computed from return, whichever members those came
    from. The caller decides which members to address, and books the
    member reads and writes counted here (a foreground request as
    sub-requests, the rebuild scanner as its own). On a parity volume every
    member write is also remembered by the stripe cache (write-through),
    so a later partial-row write can :meth:`probe` the same sectors and
    pre-read them without a member read — as it can sectors the volume has
    never written, which the cache has on record as blank.
    """

    __slots__ = (
        "disks", "stats", "cache", "scratch", "now", "floor", "completion", "reads", "writes",
    )

    #: A healthy partial row weighs delta against reconstruct by what its
    #: pre-reads cost (:meth:`Volume._reconstructs`).
    weighs = True

    def __init__(self, volume: "Volume", now: float) -> None:
        self.disks = volume.disks
        self.stats = volume.volume_stats
        self.cache = volume.stripe_cache
        #: The row's next reused buffer (:meth:`_RowBuffers.take`).
        self.scratch = volume._buffers.take
        self.now = now
        #: Earliest start of the next member write.
        self.floor = now
        self.completion = now
        #: Member reads and writes issued; booked by the caller.
        self.reads = 0
        self.writes = 0

    def read(self, member: int, plba: int, nsectors: int, into=None):
        disk = self.disks[member]
        disk.clock.advance_to(self.now)
        data = disk.read(plba, nsectors, into=into)
        self.reads += 1
        done = disk.clock.now
        if done > self.floor:
            self.floor = done
        if done > self.completion:
            self.completion = done
        return data

    def probe(self, member: int, plba: int, nsectors: int) -> _Preread:
        """One buffer a row write may pre-read, looked up in the stripe
        cache once: its blank or resident sectors, or None when only a
        member read can supply them. Issues nothing."""
        return member, plba, nsectors, self.cache.find(member, plba, nsectors)

    def cost(self, prereads: list[_Preread]) -> tuple[int, float]:
        """What a shape's pre-reads would cost: the member reads left after
        the cache has answered, then the latest busy-until clock among the
        members they land on (never earlier than ``now``)."""
        disks = self.disks
        latest = self.now
        misses = 0
        for member, _plba, _nsectors, resident in prereads:
            if resident is None:
                misses += 1
                busy = disks[member].clock.now
                if busy > latest:
                    latest = busy
        return misses, latest

    def prereads(self, prereads: list[_Preread]) -> list:
        """The bytes a row write computes its parity from, in the order
        probed: the stripe cache's views of them as the write that put
        them there left them (a list, never to be written to), ``None``
        for a buffer never written (blank: zeros, which :func:`_xor_buffers`
        leaves out), or else read from the member into the row's next
        reused buffer (a ``memoryview``, the row's to overwrite). A
        remembered or blank buffer issues nothing, so it does not raise
        ``floor``."""
        stats = self.stats
        size = self.cache.sector_size
        out = []
        for member, plba, nsectors, resident in prereads:
            if resident is None:
                stats.preread_misses += 1
                into = self.scratch(nsectors * size)
                out.append(self.read(member, plba, nsectors, into))
            else:
                stats.preread_hits += 1
                stats.preread_sectors_saved += nsectors
                out.append(resident or None)
        return out

    def write(self, member: int, plba: int, payload, keep: bool = True) -> None:
        """One member write at ``floor``; ``keep=False`` (the rebuild
        scanner's) drops what it covers from the stripe cache instead of
        remembering it, as the cache does for any write of a chunk."""
        disk = self.disks[member]
        disk.clock.advance_to(self.floor)
        disk.write(plba, payload)
        cache = self.cache
        if cache is not None:
            if keep:
                cache.store(member, plba, payload)
            else:
                cache.drop(member, plba, len(payload) // cache.sector_size)
        self.writes += 1
        if disk.clock.now > self.completion:
            self.completion = disk.clock.now

    def tally(self, counter: str) -> None:
        """Count one row of a kind (a :class:`VolumeStats` field)."""
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)


class _Install:
    """The time-free twin of :class:`_Dispatch`: ``install`` and
    ``resync_parity`` run the write plan through it.

    Its reads are member ``peek`` (never the stripe cache), its writes a
    drop from the stripe cache (:meth:`Volume._forget`) and the member's
    ``install``. It has no clock and no stats, and with no cost to weigh a
    partial row always reconstructs, recomputing parity from the data
    found rather than patching the parity found.
    """

    weighs = False
    now = floor = 0.0

    def __init__(self, volume: "Volume") -> None:
        self.volume = volume
        self.scratch = volume._buffers.take

    def read(self, member: int, plba: int, nsectors: int) -> bytes:
        return self.volume.disks[member].peek(plba, nsectors)

    def probe(self, member: int, plba: int, nsectors: int) -> _Preread:
        return member, plba, nsectors, None

    def prereads(self, prereads: list[_Preread]) -> list[bytes]:
        return [self.read(member, plba, n) for member, plba, n, _resident in prereads]

    def write(self, member: int, plba: int, payload) -> None:
        volume = self.volume
        volume._forget(member, plba, len(payload) // volume.geometry.sector_size)
        volume.disks[member].install(plba, payload)

    def tally(self, counter: str) -> None:
        pass


#: The member I/O a write plan runs through: timed, or time-free.
_Io = _Dispatch | _Install


class Volume:
    """N member disks behind the single-disk request surface."""

    def __init__(
        self,
        disks: list,
        clock: VirtualClock | None = None,
        *,
        layout: str = "stripe",
        chunk_sectors: int | None = None,
    ) -> None:
        if not disks:
            raise ValueError("a volume needs at least one member disk")
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r} (choose from {LAYOUTS})")
        member_geo = disks[0].geometry
        self.clock = clock if clock is not None else VirtualClock()
        for i, disk in enumerate(disks):
            self._admit(disk, member_geo, f"member {i}")
        self.disks = list(disks)
        self.alive = [True] * len(disks)
        self.layout = layout
        self.tracer = None
        self.events = None
        #: Stripe rows the scanner reconstructs per foreground request
        #: (fractional rates accumulate credit across requests).
        self.rebuild_rate = 0.0
        self._scan_from_start(None)
        #: Slowest member horizon as of the last barrier: how far an
        #: ordering barrier (``wait=False``) makes the shared clock wait.
        self._barrier_horizon = 0.0
        # The layout's whole contribution: an address map, the physical
        # members holding a copy of each of its logical members, the write
        # policy, and what becomes of an extent whose copies are all dead.
        n = len(disks)
        member_sectors = member_geo.total_sectors
        self.chunk_sectors = (
            chunk_sectors if chunk_sectors is not None else DEFAULT_CHUNK_SECTORS
        )
        self.map: StripeMap
        #: The parity map when this is a RAID-5 volume, else None.
        self.parity_map: ParityStripeMap | None = None
        self._copies = tuple((i,) for i in range(n))
        self._write_plan, self._lost_runs = self._write_copies, self._refuse
        if layout == "mirror":
            self.chunk_sectors = 0
            self.map = mirror_map(member_sectors)
            self._copies = (tuple(range(n)),)
        elif layout == "stripe":
            self.map = StripeMap(n, self.chunk_sectors, member_sectors)
        else:
            self.map = self.parity_map = ParityStripeMap(n, self.chunk_sectors, member_sectors)
            self._write_plan, self._lost_runs = self._write_rows, self._row_runs
        pmap = self.parity_map
        #: What a parity volume remembers of its members' media — its own
        #: member writes, and the sectors of members that came blank — for
        #: the row writes' pre-reads alone (None without parity).
        self.stripe_cache: StripeCache | None = None
        if pmap is not None:
            #: Sectors per member the rebuild scanner moves in one step, and
            #: the steps it takes to rebuild a row.
            self._step_sectors = min(self.chunk_sectors, REBUILD_STEP_SECTORS)
            self._steps_per_row = -(-self.chunk_sectors // self._step_sectors)
            self.stripe_cache = StripeCache(member_geo.sector_size, self.chunk_sectors)
            for i, disk in enumerate(disks):
                if disk.sectors_populated == 0:
                    self.stripe_cache.record_blank(i, member_sectors)
        self.geometry = VolumeGeometry(
            member_geo,
            self.map.total_sectors,
            pmap.data_per_row * pmap.chunk_sectors if pmap is not None else 0,
        )
        #: Volume-level request counters under the same type the layers
        #: above already consume (``lld.disk.stats``); mechanical time is
        #: charged on the *member* stats, so the time fields here stay 0.
        self.stats = DiskStats(sector_size=member_geo.sector_size)
        self.volume_stats = VolumeStats(self)
        #: The replacement being rebuilt came blank: no sector of it was
        #: ever written (:meth:`rebuild_step`).
        self._replacement_blank = False
        #: Where a row write's pre-reads and parity land.
        self._buffers = _RowBuffers()

    # ------------------------------------------------------------------
    # Membership / degraded modes
    # ------------------------------------------------------------------

    @property
    def spindle_count(self) -> int:
        """Independent placement targets the layers above can exploit.

        The map's logical members: a mirror replicates every sector, so
        placement cannot steer load between its spindles (read balancing
        does) and it counts as one; stripes and parity layouts expose
        every member as a placement target.
        """
        return self.map.n_disks

    def spindle_of(self, lba: int) -> int:
        """Member disk holding ``lba``'s data (always 0 for mirrors)."""
        return self.map.to_physical(lba)[0]

    @property
    def degraded(self) -> bool:
        return not all(self.alive)

    def _admit(self, disk, member_geo: DiskGeometry, what: str) -> None:
        """A spindle may join only with the members' geometry and its own clock."""
        if disk.geometry != member_geo:
            raise ValueError(
                f"{what} geometry {disk.geometry!r} differs from the "
                f"members' {member_geo!r}: all members must share one geometry"
            )
        if disk.clock is self.clock:
            raise ValueError(
                f"{what} shares the volume clock; each member needs a "
                "private clock for the per-spindle busy-until model"
            )

    def _announce(self, name: str, member: int, severity: str = "info", **payload) -> None:
        """Tell both observers of one membership change: a tracer instant
        and an event stamped with the shared clock."""
        tr = self.tracer
        if tr:
            tr.instant(name, member=member)
        ev = self.events
        if ev:
            ev.emit(name, severity=severity, t=self.clock.now, member=member, **payload)

    def _scan_from_start(self, member: int | None) -> None:
        """Reset the online-rebuild state: the member being rebuilt (None =
        no scan), the next stripe row to reconstruct and the sectors of it
        already rebuilt (a prefix of the chunk), unspent rate credit (in
        steps) and the last progress decile announced."""
        self._rebuilding = member
        self._rebuild_cursor = 0
        self._rebuilt_prefix = 0
        self._rebuild_credit = 0.0
        self._rebuild_decile = 0

    def fail_member(self, index: int) -> None:
        """Drop a member: it receives no further requests.

        A mirrored volume keeps serving from the survivors; a parity
        volume survives any *single* failure (reads reconstruct by XOR,
        writes maintain parity degraded) and refuses a second concurrent
        failure — including during a rebuild — with
        :class:`VolumeDegradedError`, leaving its state intact. A striped
        volume raises on any subsequent request that touches the failed
        member (RAID-0 has no redundancy). Failing the member currently
        being rebuilt aborts the rebuild and returns to plain degraded;
        failing a member that is already down is a no-op (one failure,
        one ``volume.member_failed``).
        """
        if not 0 <= index < len(self.disks):
            raise ValueError(f"no member {index}")
        if index == self._rebuilding:
            # The replacement spindle died mid-rebuild: abort the scan;
            # the volume is back to plain single-failure degraded, which
            # parity still covers.
            self._scan_from_start(None)
        elif not self.alive[index]:
            return
        elif self.parity_map is not None and self.degraded:
            raise VolumeDegradedError(
                f"dropping member {index} would be a second concurrent "
                f"failure; a {self.layout} volume survives only one"
            )
        elif self.layout == "mirror" and sum(self.alive) == 1:
            raise VolumeDegradedError("last mirror member dropped")
        self.alive[index] = False
        if self.stripe_cache is not None:
            self.stripe_cache.drop_member(index)  # no row consults it now
        self._announce(
            "volume.member_failed",
            index,
            severity="warn",
            layout=self.layout,
            live_members=sum(self.alive),
        )

    def replace_member(self, index: int, disk=None) -> None:
        """Install a blank spindle for a failed member and start rebuilding.

        The replacement (a fresh blank member by default) immediately
        serves writes for already-rebuilt rows; rows at or past the scan
        cursor keep being served by reconstruction until the scanner —
        driven by :attr:`rebuild_rate` rows per foreground request, or
        explicitly via :meth:`rebuild_step` — reconstructs them. The
        member rejoins ``alive`` only when the scan completes.
        """
        if self.parity_map is None:
            raise VolumeError(
                f"online rebuild needs a parity layout, not {self.layout!r}"
            )
        if not 0 <= index < len(self.disks):
            raise ValueError(f"no member {index}")
        if self.alive[index]:
            raise VolumeError(f"member {index} is live; nothing to rebuild")
        if self._rebuilding is not None:
            raise VolumeError(f"already rebuilding member {self._rebuilding}")
        if disk is None:
            disk = SimulatedDisk(self.geometry.member, VirtualClock())
        self._admit(disk, self.geometry.member, "replacement")
        self.disks[index] = disk
        self.stripe_cache.drop_member(index)  # a different medium now: no record
        self._replacement_blank = disk.sectors_populated == 0
        self._scan_from_start(index)
        self._announce("volume.rebuild_started", index, rows=self.parity_map.rows)

    @property
    def rebuild_active(self) -> bool:
        return self._rebuilding is not None

    @property
    def rebuild_progress(self) -> float:
        """Fraction of stripe rows reconstructed onto the replacement.

        1.0 when fully redundant, 0.0 when degraded with no replacement
        installed yet.
        """
        if self._rebuilding is not None:
            return self._rebuild_cursor / self.parity_map.rows
        return 0.0 if self.degraded else 1.0

    def rebuild_step(self, rows: int = 1) -> int:
        """Reconstruct up to ``rows`` stripe rows onto the replacement.

        Rows are counted whole: a row the rate-driven scanner left part-done
        is finished first, and counts as one. Returns the number of rows
        actually rebuilt; on the last row the member rejoins ``alive`` and
        the volume is fully redundant again. The scan itself is
        :meth:`_scan`.
        """
        return self._scan(rows, whole_rows=True)

    def _scan(self, budget: int, whole_rows: bool) -> int:
        """Run the scanner for ``budget`` steps, or rows when ``whole_rows``.

        A step rebuilds the next at most :data:`REBUILD_STEP_SECTORS` of
        the cursor row's chunk: it reads the other members over that range
        and writes their XOR to the replacement once those reads are back.
        Background semantics match queued writes: the member I/O goes
        through the write path's :class:`_Dispatch` at the current shared
        time (competing with foreground requests for the spindles — the
        rate/latency tradeoff) without advancing the shared clock, and it
        is counted apart from the foreground's sub-requests. A foreground
        request behind the scanner waits for one step, not a whole row.

        A row stays untrusted until its last step, so reads, the write
        path and :meth:`_trusted` see whole rows; the one rule the steps
        add is that the replacement's rebuilt prefix of the cursor row
        equals the XOR of the other members there, kept by
        :meth:`_unrebuild`. On a replacement that came blank, a step
        blank on every other member is zeros on the replacement already
        and issues nothing (ZFS resilvers only allocated blocks the same
        way); when the row is done, its steps still blank elsewhere go on
        the replacement's blank record. Returns the rows completed.
        """
        target = self._rebuilding
        if target is None:
            return 0
        pmap = self.parity_map
        now = self.clock.now
        vstats = self.volume_stats
        chunk = pmap.chunk_sectors
        step = self._step_sectors
        io = _Dispatch(self, now)
        done = 0
        while budget > 0 and self._rebuilding is not None:
            io.floor = now  # steps are independent of one another
            row_lba = pmap.row_lba(self._rebuild_cursor)
            start = self._rebuilt_prefix
            take = min(step, chunk - start)
            if not self._blank_elsewhere(target, row_lba + start, take):
                payload = self._xor_others(target, row_lba + start, take, io.read)
                io.write(target, row_lba + start, payload, keep=False)
            self._rebuilt_prefix = start + take
            if not whole_rows:
                budget -= 1
            if self._rebuilt_prefix < chunk:
                continue
            for start in range(0, chunk, step):
                # Nothing has written these on the replacement: the volume
                # writes no chunk of an untrusted row, nor the scanner a
                # step blank on every other member.
                take = min(step, chunk - start)
                if self._blank_elsewhere(target, row_lba + start, take):
                    self.stripe_cache.blank(target, row_lba + start, take)
            vstats.rebuild_rows_done += 1
            self._rebuild_cursor += 1
            self._rebuilt_prefix = 0
            done += 1
            if whole_rows:
                budget -= 1
            ev = self.events
            if self._rebuild_cursor >= pmap.rows:
                self.alive[target] = True
                self._rebuilding = None
                self._rebuild_credit = 0.0
                vstats.rebuilds_completed += 1
                self._announce("volume.rebuild_completed", target, rows=pmap.rows)
            elif ev:
                # Progress events only on decile crossings: bounded volume
                # no matter how many stripe rows the scan covers.
                decile = (10 * self._rebuild_cursor) // pmap.rows
                if decile > self._rebuild_decile:
                    self._rebuild_decile = decile
                    ev.emit(
                        "volume.rebuild_progress",
                        t=now,
                        member=target,
                        progress=self._rebuild_cursor / pmap.rows,
                    )
        vstats.rebuild_reads += io.reads
        vstats.rebuild_writes += io.writes
        return done

    def _blank_elsewhere(self, target: int, plba: int, nsectors: int) -> bool:
        """On a replacement that came blank: is ``[plba, plba + nsectors)``
        blank on every other member, so zeros on the replacement too?"""
        cache = self.stripe_cache
        return self._replacement_blank and all(
            cache.all_blank(member, plba, nsectors)
            for member in range(len(self.disks))
            if member != target
        )

    def _unrebuild(self, row: int, within: int) -> None:
        """The XOR of the other members of ``row`` changed from sector
        ``within`` of its chunk on: if that is inside the prefix the scanner
        has rebuilt of the cursor row, move the prefix back to the start of
        the step holding ``within``, so the replacement is rebuilt there
        again. Rows before the cursor are trusted and written like any
        member; rows after it are not rebuilt yet."""
        if row == self._rebuild_cursor and within < self._rebuilt_prefix:
            self._rebuilt_prefix = within - within % self._step_sectors

    def rebuild_run_to_completion(self, step_rows: int = 64) -> None:
        """Drive the scanner until the replacement is fully reconstructed."""
        while self._rebuilding is not None:
            self.rebuild_step(step_rows)

    def _rebuild_tick(self) -> None:
        """Advance the background scan by the configured per-request rate:
        :attr:`rebuild_rate` rows' worth of steps, spent a step at a time."""
        if self._rebuilding is None or self.rebuild_rate <= 0:
            return
        self._rebuild_credit += self.rebuild_rate * self._steps_per_row
        steps = int(self._rebuild_credit)
        if steps:
            self._rebuild_credit -= steps
            self._scan(steps, whole_rows=False)

    def _trusted(self, index: int, row: int) -> bool:
        """May ``row``'s chunk on member ``index`` be read directly?"""
        if self.alive[index]:
            return True
        return index == self._rebuilding and row < self._rebuild_cursor

    def _serving_members(self) -> list[int]:
        """Members currently receiving requests: the live ones, plus a
        replacement mid-rebuild (it takes writes for rebuilt rows and the
        scanner's reconstruction stream before rejoining ``alive``)."""
        serving = [i for i, ok in enumerate(self.alive) if ok or i == self._rebuilding]
        if not serving:
            raise VolumeDegradedError("no live members")
        return serving

    # ------------------------------------------------------------------
    # The request plan: member extents, gather, reconstruction
    # ------------------------------------------------------------------

    def _live(self, logical: int) -> list[int]:
        """Live physical members holding a copy of logical member ``logical``."""
        alive = self.alive
        return [i for i in self._copies[logical] if alive[i]]

    def _refuse(self, lost: int, plba: int, nsectors: int):
        """No redundancy left to cover a dead member's extent: fail loudly."""
        raise VolumeDegradedError(
            f"request touches failed member {lost} of a {self.layout} volume"
        )

    def _row_runs(self, lost: int, plba: int, nsectors: int):
        """Cut a dead parity member's extent at stripe-row boundaries.

        Yields ``(plba, nsectors, trusted)`` runs: rows the rebuild scanner
        has passed are served by the replacement directly, the rest only
        exist as the XOR of the other members.
        """
        for row, _within, take, offset in chunk_runs(plba, nsectors, self.chunk_sectors):
            yield plba + offset, take, self._trusted(lost, row)

    def _xor_others(self, skip: int, plba: int, nsectors: int, fetch) -> bytes:
        """XOR of the same extent on every member but ``skip``.

        Every chunk of a stripe row sits at the same member LBA, so any
        one chunk's bytes — data or parity — are the XOR of the other
        members' bytes at the identical extent. Degraded reads, ``peek``
        and the rebuild scanner differ only in the
        ``fetch(member, plba, nsectors)`` they pass.
        """
        return _xor_buffers(
            [fetch(i, plba, nsectors) for i in range(len(self.disks)) if i != skip]
        )

    def _extent(self, sub: SubRequest, fetch, count: VolumeStats | None) -> bytes:
        """One logical member's extent, from whichever member can serve it.

        The least-busy live copy wins (mirror read balancing; a stripe or
        parity member is its own only copy). With no live copy the extent
        is recovered run by run — from a replacement's rebuilt rows, by
        XOR over the other members for the rest — or refused.
        """
        copies = self._copies[sub.disk]
        live = self._live(sub.disk)
        if live:
            source = live[0]
            if len(live) > 1:
                source = min(live, key=lambda i: (self.disks[i].clock.now, i))
            data = fetch(source, sub.plba, sub.nsectors)
        else:
            lost = copies[0]
            parts = []
            for plba, nsectors, trusted in self._lost_runs(lost, sub.plba, sub.nsectors):
                if trusted:
                    parts.append(fetch(lost, plba, nsectors))
                else:
                    parts.append(self._xor_others(lost, plba, nsectors, fetch))
                    if count is not None:
                        count.reconstructed_reads += 1
            data = b"".join(parts)
        if count is not None and len(live) < len(copies):
            count.degraded_reads += 1
        return data

    def _gather(self, lba: int, nsectors: int, fetch, count: VolumeStats | None = None) -> bytes:
        """Assemble ``[lba, lba + nsectors)`` from member extents.

        ``fetch(member, plba, nsectors)`` obtains member bytes: a timed
        :meth:`_Dispatch.read` for ``read`` / ``read_batch``, a clock-free
        member ``peek`` for :meth:`peek`; ``count`` (timed reads only)
        tallies degraded and reconstructed extents. Healthy, degraded and
        mid-rebuild volumes all run exactly this code.
        """
        subs = self.map.split(lba, nsectors)
        if len(subs) == 1 and len(subs[0].pieces) == 1:
            return self._extent(subs[0], fetch, count)
        size = self.geometry.sector_size
        out = bytearray(nsectors * size)
        for sub in subs:
            buf = self._extent(sub, fetch, count)
            for sub_off, logical_off, n in sub.pieces:
                out[logical_off * size : (logical_off + n) * size] = buf[
                    sub_off * size : (sub_off + n) * size
                ]
        return bytes(out)

    @staticmethod
    def _payload(view: memoryview, sub: SubRequest, size: int):
        """The slice of a request buffer bound for one member extent.

        A single-piece extent is a zero-copy view; interleaved pieces are
        gathered into one contiguous buffer (the inverse of the scatter
        in :meth:`_gather`).
        """
        if len(sub.pieces) == 1:
            _sub_off, logical_off, n = sub.pieces[0]
            return view[logical_off * size : (logical_off + n) * size]
        buf = bytearray(sub.nsectors * size)
        for sub_off, logical_off, n in sub.pieces:
            buf[sub_off * size : (sub_off + n) * size] = view[
                logical_off * size : (logical_off + n) * size
            ]
        return bytes(buf)

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------

    def _read_at(self, lba: int, nsectors: int, now: float) -> tuple[bytes, float]:
        """One volume read dispatched at ``now``: ``(bytes, completion)``.

        Books the request but leaves the shared clock alone — ``read``
        advances it per request, ``read_batch`` once per batch.
        """
        io = _Dispatch(self, now)
        vstats = self.volume_stats
        try:
            data = self._gather(lba, nsectors, io.read, vstats)
        finally:  # a read refused part-way has still issued what it issued
            vstats.sub_reads += io.reads
        self.stats.record_request(nsectors, write=False)
        vstats.reads += 1
        vstats.read_latency_hist.record(io.completion - now)
        return data, io.completion

    def read(self, lba: int, nsectors: int, *, wait: bool = True):
        """Volume read: the shared clock advances to the slowest spindle.

        With ``wait=False`` it is left alone and the read returns
        ``(bytes, arrival)`` instead: dispatched now like any other, the
        bytes already taken from the members, the waiting left to a caller
        with something else to do until ``arrival``
        (:class:`~repro.sched.LDServer`).
        """
        self.map.check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("volume.read", lba=lba, sectors=nsectors) if tr else NULL_SPAN:
            self._rebuild_tick()
            data, completion = self._read_at(lba, nsectors, self.clock.now)
            if not wait:
                return data, completion
            self.clock.advance_to(completion)
        return data

    def read_batch(self, requests: list[tuple[int, int]], *, wait: bool = True):
        """Issue several reads as one overlapping batch.

        All requests dispatch at the current shared time; sub-requests to
        the same member queue FIFO on its private clock while different
        members proceed in parallel. The shared clock advances once, to
        the completion of the slowest request, and per-request latencies
        are recorded individually. ``wait=False`` as for :meth:`read`: the
        batch arrives with its slowest request.
        """
        for lba, nsectors in requests:
            self.map.check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("volume.read_batch", count=len(requests)) if tr else NULL_SPAN:
            self._rebuild_tick()
            now = self.clock.now
            done = [self._read_at(lba, nsectors, now) for lba, nsectors in requests]
            completion = max((end for _, end in done), default=now)
            bufs = [data for data, _ in done]
            if not wait:
                return bufs, completion
            self.clock.advance_to(completion)
        return bufs

    def write(self, lba: int, data: bytes) -> None:
        """Queued volume write: dispatched now, drained by the next barrier.

        The member sector stores are updated immediately (reads issued
        after this call return the new bytes) but the shared clock does
        not move — each member charges the mechanical cost on its private
        clock, so writes landing on different spindles overlap and
        :meth:`barrier` pays only the slowest spindle's horizon.
        """
        view, nsectors = sector_view(data, self.geometry.sector_size, "write")
        self.map.check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("volume.write", lba=lba, sectors=nsectors) if tr else NULL_SPAN as span:
            self._rebuild_tick()
            now = self.clock.now
            io = _Dispatch(self, now)
            vstats = self.volume_stats
            hits = vstats.preread_hits
            reconstructed = vstats.reconstruct_writes
            self._write_plan(io, lba, nsectors, view)
            if span is not None:
                span.attrs["prereads_saved"] = vstats.preread_hits - hits
                span.attrs["reconstruct"] = vstats.reconstruct_writes - reconstructed
            vstats.sub_reads += io.reads
            vstats.note_write_dispatch(io.writes)
            self.stats.record_request(nsectors, write=True)
            vstats.writes += 1
            vstats.write_latency_hist.record(io.completion - now)

    def _write_copies(self, io: _Io, lba: int, nsectors: int, view: memoryview) -> None:
        """Stripe and mirror policy: every live copy takes its member extent."""
        size = self.geometry.sector_size
        for sub in self.map.split(lba, nsectors):
            live = self._live(sub.disk)
            if not live:
                self._refuse(sub.disk, sub.plba, sub.nsectors)
            payload = self._payload(view, sub, size)
            for member in live:
                io.write(member, sub.plba, payload)

    def _write_rows(self, io: _Io, lba: int, nsectors: int, view: memoryview) -> None:
        """Parity policy: data + parity updates, one stripe row at a time.

        A row's new parity over the range its fragments touch, ``[lo, hi)``,
        is computed one of two ways:

        * **delta** (read-modify-write, :meth:`_delta`) — pre-read the old
          data under each fragment and the old parity over ``[lo, hi)``;
          new parity is old parity XOR old data XOR new data per fragment.
        * **reconstruct** (:meth:`_reconstruct`) — the XOR over the row's
          data chunks of each new fragment overlaid on the chunk's old
          bytes over ``[lo, hi)``. The old bytes come from nowhere under a
          fragment that spans ``[lo, hi)``; from the stripe cache or a
          member read (:meth:`_Dispatch.probe` / ``prereads``) for any
          other trusted chunk; and, for an untrusted data chunk, from the
          XOR of the old parity and every other chunk's old bytes — never
          from the cache, which holds what the member's stale medium holds
          (:meth:`_reconstruct_reads`).

        Which one a row takes:

        * a full row is a reconstruct with nothing to read;
        * a row with an untrusted data chunk always reconstructs and skips
          the write to that member: parity now encodes its content, for
          reads and the rebuild scanner to recover. With the parity chunk
          untrusted there is no parity to compute: the data alone. On the
          row the scanner is part-way through, a change to what the
          untrusted chunk should hold moves the scanner back over it
          (:meth:`_unrebuild`);
        * a healthy partial row reconstructs only when every fragment
          spans ``[lo, hi)`` (a one-chunk row always does) and those
          pre-reads cost fewer member reads once the stripe cache has
          answered, then land on members free sooner (member busy-until
          clocks, floored at ``now``; :meth:`_reconstructs`). A tie keeps
          delta, and so does any other partial row;
        * the time-free twin ``install`` and ``resync_parity`` pass
          (:class:`_Install`) always reconstructs.

        All member reads happen before any member write of the row, so
        pre-reads observe pre-request bytes regardless of fragment order
        — and in simulated time too: the row's writes start once the last
        of its pre-reads has completed (``io.floor``), rows being
        independent of one another, whichever members the reads landed on.
        """
        pmap = self.parity_map
        size = self.geometry.sector_size
        down = self.alive.index(False) if self.degraded else None

        def payload(f):
            return view[f.logical_off * size : (f.logical_off + f.nsectors) * size]

        for row, frags in pmap.split_rows(lba, nsectors):
            io.floor = io.now
            self._buffers.reset()
            base = pmap.row_lba(row)
            parity_member = pmap.parity_disk(row)
            bad = None if down is None or self._trusted(down, row) else down
            if bad is not None:
                # What the untrusted chunk should hold changes under its own
                # fragment, or under every fragment when it holds parity.
                moved = [f.within for f in frags if bad in (f.disk, parity_member)]
                if moved:
                    self._unrebuild(row, min(moved))
            lo = min(f.within for f in frags)
            hi = max(f.within + f.nsectors for f in frags)
            spanned = {f.disk for f in frags if f.within == lo and f.nsectors == hi - lo}
            parity = None
            shape = "degraded_writes" if bad is not None else "full_stripe_writes"
            if bad != parity_member:
                reads = self._reconstruct_reads(io, row, spanned, lo, hi, bad)
                if bad is None and reads and io.weighs:
                    shape = "rmw_writes"
                    rmw = [io.probe(f.disk, base + f.within, f.nsectors) for f in frags]
                    rmw.append(io.probe(parity_member, base + lo, hi - lo))
                    if len(spanned) == len(frags) and self._reconstructs(io, reads, rmw):
                        shape = "reconstruct_writes"
                    else:
                        parity = self._delta(io, frags, lo, rmw, payload)
                if parity is None:
                    parity = self._reconstruct(io, parity_member, bad, frags, lo, reads, payload)
            for f in frags:
                if f.disk != bad:
                    io.write(f.disk, base + f.within, payload(f))
            if parity is not None:
                io.write(parity_member, base + lo, parity)
            io.tally(shape)

    def _reconstruct_reads(self, io: _Io, row: int, spanned, lo: int, hi: int, bad) -> list:
        """What a reconstruct of ``row`` over ``[lo, hi)`` pre-reads, probed:
        the row's data chunks not under a fragment in ``spanned`` — or,
        when the untrusted ``bad`` chunk is not, every other data chunk and
        the old parity, whose XOR stands in for ``bad``'s old bytes."""
        pmap = self.parity_map
        members = pmap.data_disks(row)
        if bad is None or bad in spanned:
            members = [d for d in members if d not in spanned]
        else:
            members = [d for d in members if d != bad]
            members.append(pmap.parity_disk(row))
        plba = pmap.row_lba(row) + lo
        return [io.probe(d, plba, hi - lo) for d in members]

    def _reconstruct(self, io: _Io, parity_member: int, bad, frags, lo: int, reads, payload):
        """New parity over ``[lo, hi)``: the XOR of the row's data chunks
        there, each the new fragment over the old bytes ``reads`` supply
        (``None``: blank, zeros). It lands in place over one of the row's
        own pre-read buffers, or in a reused one."""
        size = self.geometry.sector_size
        # Every pre-read covers [lo, hi), and so does every fragment of a
        # row with none.
        nbytes = (reads[0][2] if reads else frags[0].nsectors) * size
        old = {}
        mine = set()  # members whose old bytes sit in a buffer the row may overwrite
        for read, buf in zip(reads, io.prereads(reads)):
            old[read[0]] = buf
            if isinstance(buf, memoryview):
                mine.add(read[0])
        if parity_member in old:
            mine.discard(parity_member)
            held = old.pop(parity_member)
            out = held if isinstance(held, memoryview) else io.scratch(nbytes)
            old[bad] = _xor_buffers([held, *old.values()], out)
            if old[bad] is out:
                mine.add(bad)
            io.tally("reconstructed_reads")
        for f in frags:
            if f.disk in old:  # overlay the fragment on the chunk's old bytes
                if f.disk not in mine:
                    old[f.disk] = self._copy(io.scratch(nbytes), old[f.disk])
                    mine.add(f.disk)
                off = (f.within - lo) * size
                old[f.disk][off : off + f.nsectors * size] = payload(f)
            else:
                old[f.disk] = payload(f)
        out = old[min(mine)] if mine else io.scratch(nbytes)
        return _xor_buffers(old.values(), out)

    def _delta(self, io: _Dispatch, frags, lo: int, rmw: list[_Preread], payload):
        """Read-modify-write's new parity over ``[lo, hi)`` from the old data
        and old parity ``rmw`` probed. A row touched in one chunk (the
        dominant shape: a partial segment flush) has a parity range equal
        to its fragment's, so the three buffers XOR as read, into the old
        parity's buffer or the old data's when a member read put it in one
        of the volume's; a row touched in several chunks patches the old
        parity a fragment at a time. A blank buffer (``None``) is left out
        of the XOR, so a fragment over blank data and blank parity is its
        own parity."""
        *old, old_parity = io.prereads(rmw)
        nbytes = rmw[-1][2] * self.geometry.sector_size
        if len(frags) == 1:
            under = old[0]
            out = next(
                (buf for buf in (old_parity, under) if isinstance(buf, memoryview)), None
            )
            if out is None and (old_parity is not None or under is not None):
                out = io.scratch(nbytes)
            return _xor_buffers([old_parity, under, payload(frags[0])], out)
        parity = old_parity
        if not isinstance(parity, memoryview):
            parity = self._copy(io.scratch(nbytes), old_parity)
        size = self.geometry.sector_size
        for f, obuf in zip(frags, old):
            span = parity[(f.within - lo) * size : (f.within - lo + f.nsectors) * size]
            _xor_buffers([span, obuf, payload(f)], span)
        return parity

    def _copy(self, out: memoryview, buf) -> memoryview:
        """``out`` holding what a pre-read buffer ``buf`` stands for: its
        bytes, its views' bytes end to end, or zeros for a blank one."""
        if buf is None:
            buf = self.stripe_cache.zeros[: len(out)]
        return fill(out, buf if isinstance(buf, list) else (buf,))

    def _reconstructs(self, io: _Dispatch, rcw: list[_Preread], rmw: list[_Preread]) -> bool:
        """A healthy partial row's choice: reconstruct only when its
        pre-reads cost strictly less (:meth:`_Dispatch.cost`)."""
        return io.cost(rcw) < io.cost(rmw)

    def barrier(self, label: str = "barrier", *, wait: bool = True) -> None:
        """Order writes; with ``wait``, drain every spindle's horizon too.

        Forwarded to each serving member either way (so member-level
        journals close their epochs). A waiting barrier — the default, an
        acknowledgement point — then lifts the shared clock over the
        slowest member: the point where queued writes' simulated time
        becomes visible to the layers above. An ordering barrier
        (``wait=False``) lifts it only to the member horizon the
        *previous* barrier recorded, then records its own: the caller runs
        ahead of the writes of one barrier epoch, never of two. An
        ordering barrier over an empty epoch — no write since the last
        barrier — orders nothing, so it waits for nothing and records
        nothing: the epoch before it stays the one the next barrier with
        writes behind it waits for.
        """
        tr = self.tracer
        if tr:
            tr.instant(
                "volume.barrier",
                label=label,
                queued=self.volume_stats.inflight_writes,
            )
        serving = self._serving_members()
        for i in serving:
            self.disks[i].barrier(label, wait=wait)
        self.stats.barriers += 1
        self.volume_stats.barriers += 1
        if wait:
            self.drain()
        elif self.volume_stats.epoch_writes:
            self.clock.advance_to(self._barrier_horizon)
            self.volume_stats.note_ordering_barrier()
        else:
            return  # an empty epoch: nothing to wait for, nothing to record
        self._barrier_horizon = self.write_horizon()

    def write_horizon(self) -> float:
        """Simulated time by which every write dispatched so far is on the
        medium: the slowest serving member's clock (what a waiting barrier
        would lift the shared clock to)."""
        return max(self.disks[i].clock.now for i in self._serving_members())

    def drain(self) -> None:
        """Advance the shared clock over every serving member (no barrier)."""
        for i in self._serving_members():
            self.clock.advance_to(self.disks[i].clock.now)
        self.volume_stats.note_drain()

    # ------------------------------------------------------------------
    # Failure injection / inspection (time-free, mirrors SimulatedDisk)
    # ------------------------------------------------------------------

    def _forget(self, member: int, plba: int, nsectors: int) -> None:
        """A member's medium is about to change behind the write path: the
        stripe cache may only hold what the member's ``peek`` returns."""
        if self.stripe_cache is not None:
            self.stripe_cache.drop(member, plba, nsectors)

    def power_fail(self) -> None:
        """Main memory is lost; the members keep what was written to them."""
        if self.stripe_cache is not None:
            self.stripe_cache.clear()

    def install(self, lba: int, data: bytes) -> None:
        """Place whole sectors on every relevant member without charging time.

        The write plan over the time-free :class:`_Install`: what
        :meth:`write` would store, stored by member ``install``. On parity
        layouts the touched rows' parity is recomputed from the
        as-installed data, so the volume stays reconstructible — install
        is how tests and the crash explorer materialize images, and those
        images must survive a member failure like written data.
        """
        view, nsectors = sector_view(data, self.geometry.sector_size, "install")
        self.map.check_range(lba, nsectors)
        self._write_plan(_Install(self), lba, nsectors, view)

    def resync_parity(self) -> int:
        """Recompute every row's parity from the data as found; rows changed.

        The crash-recovery step a real array runs after an unclean
        shutdown (md's *resync*): a crash can land a row's data write
        without its parity write or vice versa, and a member failure
        *after* such a crash would reconstruct garbage from the
        inconsistent row — the RAID-5 write hole. Resync, run while all
        members are present, restores the parity invariant;
        whichever of old/new data the crash left is then what a later
        degraded read reconstructs. (A member failure *before* the crash
        is the true write hole and needs journaling beyond this model.)
        Each row's parity is the write path's reconstruct over the whole
        chunk with nothing new to overlay, time-free like ``install``.
        """
        pmap = self.parity_map
        if pmap is None:
            raise VolumeError(f"no parity to resync on a {self.layout} volume")
        if self.degraded:
            raise VolumeError("resync needs all members present")
        io = _Install(self)
        chunk = pmap.chunk_sectors
        changed = 0
        for row in range(pmap.rows):
            self._buffers.reset()
            holder, base = pmap.parity_disk(row), pmap.row_lba(row)
            reads = self._reconstruct_reads(io, row, set(), 0, chunk, None)
            parity = self._reconstruct(io, holder, None, [], 0, reads, None)
            if io.read(holder, base, chunk) != parity:
                io.write(holder, base, parity)
                changed += 1
        return changed

    def peek(self, lba: int, nsectors: int) -> bytes:
        """Read bytes without charging time (tests and recovery checks).

        The same gather as :meth:`read` over a clock-free member fetch, so
        a degraded or rebuilding volume answers exactly what a read would.
        """
        self.map.check_range(lba, nsectors)
        return self._gather(lba, nsectors, _Install(self).read)

    def corrupt(self, lba: int, nsectors: int = 1) -> None:
        """Overwrite sectors with garbage on every member that stores them.

        On a degraded parity volume the failed member's not-yet-rebuilt
        sectors are skipped (they exist only as parity over the others);
        its rebuilt rows are held by the replacement and corrupted there:
        like ``install`` and ``peek``, fault injection keeps working with
        a member down — member death, then bit-rot. Without parity a dead
        member's extent is refused.
        """
        self.map.check_range(lba, nsectors)
        for sub in self.map.split(lba, nsectors):
            held = [(member, sub.plba, sub.nsectors) for member in self._live(sub.disk)]
            if not held:
                lost = self._copies[sub.disk][0]
                runs = self._lost_runs(lost, sub.plba, sub.nsectors)
                held = [(lost, plba, count) for plba, count, trusted in runs if trusted]
            for member, plba, count in held:
                self._forget(member, plba, count)
                self.disks[member].corrupt(plba, count)
                if self._rebuilding is not None:
                    for row, within, _take, _offset in chunk_runs(plba, count, self.chunk_sectors):
                        self._unrebuild(row, within)

    @property
    def sectors_populated(self) -> int:
        """Sectors ever written across the volume (per-copy for stripes)."""
        return sum(
            max(self.disks[i].sectors_populated for i in copies)
            for copies in self._copies
        )

    def __repr__(self) -> str:
        live = sum(self.alive)
        return (
            f"Volume({self.layout}, {live}/{len(self.disks)} disks, "
            f"{self.geometry.capacity_bytes // (1024 * 1024)} MB, "
            f"chunk={self.chunk_sectors})"
        )
