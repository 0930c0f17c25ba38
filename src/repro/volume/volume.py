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
  N-1 data chunks, on a member rotating left-symmetric. Writes maintain
  parity by full-stripe XOR when a row is completely overwritten and
  read-modify-write otherwise; any single member may fail (:meth:`fail_member` degrades instead of
  raising) and reads reconstruct the lost chunks by XOR over the
  survivors. :meth:`replace_member` installs a blank spindle and an
  online, rate-limited rebuild scanner (:attr:`rebuild_rate` rows per
  foreground request, or explicit :meth:`rebuild_step`) reconstructs it
  stripe row by stripe row while the volume keeps serving traffic.

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
from member reads (a parity row's read-modify-write) starts no earlier
than the last of those reads completes, on whichever member it lands —
and a pre-read whose sectors the volume itself wrote recently is no member
read at all: a parity volume keeps them (:mod:`repro.volume.stripe_cache`),
for this one purpose.
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
layout-blind core: :class:`_Dispatch` times member I/O;
:meth:`Volume._gather` assembles every read, timed or ``peek``, from the
member fetch it is passed; and one XOR over the other members recovers a
failed member's extent for reads, the rebuild scanner and ``install``.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field

from repro.disk.disk import SimulatedDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.stats import DiskStats
from repro.disk.store import sector_view
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


def _xor_buffers(buffers) -> bytes:
    """XOR equal-length byte buffers through Python ints.

    The cheapest XOR CPython offers without an extension, and not cheap:
    ``int.from_bytes`` walks every byte (about 1.4 GB/s from ``bytes``,
    half that from a ``memoryview`` — a plain copy is thirty times
    faster), so parity is a large share of the CPU wherever many rows are
    written (two fifths of ``aged_overwrite``'s timed phase when PR 22 was
    sized). Operands are taken as they come — ``bytes`` a member
    store's ``read`` returned (its one copy per byte), ``memoryview``
    slices of the request; copying a view to ``bytes`` first measures no
    better in place — and the result is the only buffer built here; a
    member ``write`` then copies it once more, into the store's extent.
    """
    acc = 0
    length = 0
    for buf in buffers:
        length = len(buf)
        acc ^= int.from_bytes(buf, "little")
    return acc.to_bytes(length, "little")


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
        self, member: DiskGeometry, total_sectors: int, full_stripe_sectors: int = 0
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
    view taken from the member disks' own :class:`~repro.disk.DiskStats`;
    a :meth:`snapshot` freezes that view. Request latencies record into
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
    degraded_writes: int = 0
    rebuild_rows_done: int = 0
    rebuild_reads: int = 0
    rebuild_writes: int = 0
    rebuilds_completed: int = 0
    max_queue_depth: int = 0
    # A read-modify-write's old-bytes buffers: served by the stripe cache
    # (and the sectors that spared the members), or read from a member.
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
    #: The per-spindle view as :meth:`snapshot` found it; None while live.
    frozen: dict | None = None

    HIDDEN = ("volume", "inflight_writes", "epoch_writes", "frozen")
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
        """The volume's shape and health and its members' own counters:
        read from them now, or as a snapshot froze them."""
        if self.frozen is not None:
            return deepcopy(self.frozen)
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

    def snapshot(self) -> "VolumeStats":
        twin = Counters.snapshot(self)
        twin.frozen = self.rollup()
        return twin


class _Dispatch:
    """Member I/O of one timed request under the busy-until model.

    Every read issues at the shared time ``now``: the member clock is
    lifted to it (a no-op when the spindle is still busy — the request
    queues FIFO behind its predecessors), the member charges the
    mechanical cost on its private clock, and ``completion`` tracks the
    slowest member touched. A write issues at ``floor``: ``now``, or the
    completion of the latest read since the caller last reset it — the
    bytes of a read-modify-write do not exist before its pre-reads return,
    whichever members they came from. The caller decides which members to
    address. On a parity volume every member write is also remembered by
    the stripe cache (write-through), so a later read-modify-write can
    :meth:`preread` the same sectors without a member read.
    """

    __slots__ = ("disks", "stats", "cache", "now", "floor", "completion", "writes")

    def __init__(self, volume: "Volume", now: float) -> None:
        self.disks = volume.disks
        self.stats = volume.volume_stats
        self.cache = volume.stripe_cache
        self.now = now
        #: Earliest start of the next member write.
        self.floor = now
        self.completion = now
        #: Member writes queued; booked once the whole request dispatched.
        self.writes = 0

    def read(self, member: int, plba: int, nsectors: int) -> bytes:
        disk = self.disks[member]
        disk.clock.advance_to(self.now)
        data = disk.read(plba, nsectors)
        self.stats.sub_reads += 1
        done = disk.clock.now
        if done > self.floor:
            self.floor = done
        if done > self.completion:
            self.completion = done
        return data

    def preread(self, member: int, plba: int, nsectors: int) -> bytes:
        """The bytes a read-modify-write is about to replace: remembered
        from the write that put them there, or else read from the member.
        A remembered buffer issues nothing, so it does not raise ``floor``."""
        data = self.cache.load(member, plba, nsectors)
        stats = self.stats
        if data is None:
            stats.preread_misses += 1
            return self.read(member, plba, nsectors)
        stats.preread_hits += 1
        stats.preread_sectors_saved += nsectors
        return data

    def write(self, member: int, plba: int, payload) -> None:
        disk = self.disks[member]
        disk.clock.advance_to(self.floor)
        disk.write(plba, payload)
        if self.cache is not None:
            self.cache.store(member, plba, payload)
        self.writes += 1
        if disk.clock.now > self.completion:
            self.completion = disk.clock.now


class Volume:
    """N member disks behind the single-disk request surface."""

    def __init__(
        self,
        disks: list,
        clock: VirtualClock | None = None,
        *,
        layout: str = "stripe",
        chunk_sectors: int | None = None,
        tracer=None,
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
        self.tracer = tracer
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
        #: What a parity volume remembers of its own member writes, for
        #: the read-modify-write pre-reads alone (None without parity).
        self.stripe_cache: StripeCache | None = (
            StripeCache(member_geo.sector_size, self.chunk_sectors)
            if pmap is not None
            else None
        )
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
        no scan), the next stripe row to reconstruct, unspent rate credit
        and the last progress decile announced."""
        self._rebuilding = member
        self._rebuild_cursor = 0
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
        self.stripe_cache.drop_member(index)  # a different medium now
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

        Background semantics match queued writes: source reads and the
        reconstruction write are charged on the member clocks at the
        current shared time (competing with foreground requests for the
        spindles — the rate/latency tradeoff) without advancing the
        shared clock. Returns the number of rows actually rebuilt; on the
        last row the member rejoins ``alive`` and the volume is fully
        redundant again.
        """
        target = self._rebuilding
        if target is None:
            return 0
        pmap = self.parity_map
        now = self.clock.now
        vstats = self.volume_stats
        chunk = pmap.chunk_sectors

        def scan(member: int, plba: int, nsectors: int) -> bytes:
            # Scanner I/O is tallied apart from foreground sub-requests.
            disk = self.disks[member]
            disk.clock.advance_to(now)
            vstats.rebuild_reads += 1
            return disk.read(plba, nsectors)

        replacement = self.disks[target]
        done = 0
        while done < rows and self._rebuilding is not None:
            row_lba = pmap.row_lba(self._rebuild_cursor)
            rebuilt = self._xor_others(target, row_lba, chunk, scan)
            replacement.clock.advance_to(now)
            replacement.write(row_lba, rebuilt)
            self.stripe_cache.store(target, row_lba, rebuilt)  # a member write like any other
            vstats.rebuild_writes += 1
            vstats.rebuild_rows_done += 1
            self._rebuild_cursor += 1
            done += 1
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
        return done

    def rebuild_run_to_completion(self, step_rows: int = 64) -> None:
        """Drive the scanner until the replacement is fully reconstructed."""
        while self._rebuilding is not None:
            self.rebuild_step(step_rows)

    def _rebuild_tick(self) -> None:
        """Advance the background scan by the configured per-request rate."""
        if self._rebuilding is None or self.rebuild_rate <= 0:
            return
        self._rebuild_credit += self.rebuild_rate
        rows = int(self._rebuild_credit)
        if rows:
            self._rebuild_credit -= rows
            self.rebuild_step(rows)

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
        members' bytes at the identical extent. Degraded reads, ``peek``,
        the rebuild scanner and the parity installer differ only in the
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
        data = self._gather(lba, nsectors, io.read, vstats)
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
            self._write_plan(io, lba, nsectors, view)
            if span is not None:
                span.attrs["prereads_saved"] = vstats.preread_hits - hits
            vstats.note_write_dispatch(io.writes)
            self.stats.record_request(nsectors, write=True)
            vstats.writes += 1
            vstats.write_latency_hist.record(io.completion - now)

    def _write_copies(self, io: _Dispatch, lba: int, nsectors: int, view: memoryview) -> None:
        """Stripe and mirror policy: every live copy takes its member extent."""
        size = self.geometry.sector_size
        for sub in self.map.split(lba, nsectors):
            live = self._live(sub.disk)
            if not live:
                self._refuse(sub.disk, sub.plba, sub.nsectors)
            payload = self._payload(view, sub, size)
            for member in live:
                io.write(member, sub.plba, payload)

    def _write_rows(self, io: _Dispatch, lba: int, nsectors: int, view: memoryview) -> None:
        """Parity policy: data + parity updates, one stripe row at a time.

        Three shapes per row, cheapest first:

        * **full stripe** — the fragments cover every data chunk, so the
          new parity is the XOR of the payload itself: no pre-reads.
        * **read-modify-write** — pre-read the old data under each
          fragment and the old parity over the touched range; new parity
          is old parity XOR old data XOR new data per fragment extent.
          This is the one place the stripe cache is consulted
          (:meth:`_Dispatch.preread`): a buffer whose sectors are all
          resident costs no member read, each buffer on its own.
          A row touched in one chunk (the dominant shape: a partial
          segment flush) has a parity range equal to its fragment's, so
          the three buffers XOR as read, with no staging copy; only a row
          touched in several chunks patches a ``bytearray`` of the range.
        * **degraded** — one chunk of the row is untrusted. If it is the
          parity chunk, just write the data. If it is a data chunk, its
          old bytes are unreadable, so delta RMW is impossible: read the
          surviving data chunks and old parity over the touched range,
          reconstruct the untrusted chunk by XOR, overlay the new
          fragments, and recompute parity from scratch — skipping the
          write to the untrusted member (parity now encodes its logical
          content, so reconstruction and the rebuild scanner serve it).

        All member reads happen before any member write of the row, so
        pre-reads observe pre-request bytes regardless of fragment order
        — and in simulated time too: the row's writes start once the last
        of its pre-reads has completed (``io.floor``), rows being
        independent of one another. The writes are the same for every
        shape — each fragment not on the untrusted member, then the parity
        chunk unless it is untrusted.
        """
        pmap = self.parity_map
        size = self.geometry.sector_size
        chunk = pmap.chunk_sectors
        vstats = self.volume_stats
        down = self.alive.index(False) if self.degraded else None

        def payload(f):
            return view[f.logical_off * size : (f.logical_off + f.nsectors) * size]

        for row, frags in pmap.split_rows(lba, nsectors):
            io.floor = io.now
            base = pmap.row_lba(row)
            parity_member = pmap.parity_disk(row)
            bad = None if down is None or self._trusted(down, row) else down
            full = sum(f.nsectors for f in frags) == pmap.data_per_row * chunk
            lo = min(f.within for f in frags)
            hi = max(f.within + f.nsectors for f in frags)
            if full:
                # Every fragment is a whole chunk at within=0.
                parity = _xor_buffers([payload(f) for f in frags])
            elif bad == parity_member:
                parity = None
            elif bad is None:
                old = [io.preread(f.disk, base + f.within, f.nsectors) for f in frags]
                old_parity = io.preread(parity_member, base + lo, hi - lo)
                if len(frags) == 1:
                    # The touched parity range is the fragment's own: one
                    # XOR over the three buffers as they are, no staging.
                    parity = _xor_buffers([old_parity, old[0], payload(frags[0])])
                else:
                    # Each fragment patches its slice of a staging copy.
                    parity = bytearray(old_parity)
                    for f, obuf in zip(frags, old):
                        off = (f.within - lo) * size
                        end = off + len(obuf)
                        parity[off:end] = _xor_buffers([parity[off:end], obuf, payload(f)])
            else:
                # Reconstruct-write: ``bad`` is one of the row's data
                # members (written or not — its unwritten sectors in
                # [lo, hi) still feed the new parity).
                survivors = [d for d in pmap.data_disks(row) if d != bad]
                chunks = {d: bytearray(io.read(d, base + lo, hi - lo)) for d in survivors}
                old_parity = io.read(parity_member, base + lo, hi - lo)
                chunks[bad] = bytearray(_xor_buffers([*chunks.values(), old_parity]))
                vstats.reconstructed_reads += 1
                for f in frags:
                    off = (f.within - lo) * size
                    chunks[f.disk][off : off + f.nsectors * size] = payload(f)
                parity = _xor_buffers(chunks.values())

            for f in frags:
                if f.disk != bad:
                    io.write(f.disk, base + f.within, payload(f))
            if parity is not None and parity_member != bad:
                io.write(parity_member, base + lo, parity)
            if bad is not None:
                vstats.degraded_writes += 1
            elif full:
                vstats.full_stripe_writes += 1
            else:
                vstats.rmw_writes += 1

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

    def _peek_member(self, member: int, plba: int, nsectors: int) -> bytes:
        return self.disks[member].peek(plba, nsectors)

    def _forget(self, member: int, plba: int, nsectors: int) -> None:
        """A member's medium is about to change behind the write path: the
        stripe cache may only hold what the member's ``peek`` returns."""
        if self.stripe_cache is not None:
            self.stripe_cache.drop(member, plba, nsectors)

    def power_fail(self) -> None:
        """Main memory is lost; the members keep what was written to them."""
        if self.stripe_cache is not None:
            self.stripe_cache.clear()

    def _stores(self, sub: SubRequest):
        """Where a time-free store to ``sub`` lands: ``(member, plba, nsectors, held)``.

        Every live copy holds the whole extent. A dead parity member's
        rebuilt rows are held by its replacement; its other rows exist
        only as parity (``held`` false): ``corrupt`` skips them, and
        ``install`` overlays them on the chunk it reconstructed for the
        parity it then recomputes to encode. Without parity a dead
        member's extent is refused.
        """
        live = self._live(sub.disk)
        for member in live:
            yield member, sub.plba, sub.nsectors, True
        if not live:
            lost = self._copies[sub.disk][0]
            for plba, nsectors, trusted in self._lost_runs(lost, sub.plba, sub.nsectors):
                yield lost, plba, nsectors, trusted

    def install(self, lba: int, data: bytes) -> None:
        """Place whole sectors on every relevant member without charging time.

        On parity layouts the touched rows' parity chunks are recomputed
        from the as-installed data, so the volume stays reconstructible —
        install is how tests and the crash explorer materialize images,
        and those images must survive a member failure like written data.
        """
        size = self.geometry.sector_size
        view, nsectors = sector_view(data, size, "install")
        self.map.check_range(lba, nsectors)
        chunk = self.chunk_sectors
        rows = self.map.parity_rows(lba, nsectors)
        # A row's untrusted data chunk exists only as the XOR of the others
        # (a degraded write skips its member, whose store is stale): take
        # it from the old parity before anything in the row changes,
        # overlay what is installed into it, and let the new parity encode
        # that — the degraded reconstruct-write of ``_write_rows``, time-free.
        lost = {row: self._lost_chunk(row) for row in rows}
        for sub in self.map.split(lba, nsectors):
            payload = self._payload(view, sub, size)
            for member, plba, count, held in self._stores(sub):
                off = (plba - sub.plba) * size
                piece = payload[off : off + count * size]
                if held:
                    self._forget(member, plba, count)
                    self.disks[member].install(plba, piece)
                else:
                    row, within = divmod(plba, chunk)
                    lost[row][within * size : (within + count) * size] = piece
        for row in rows:
            self._install_parity_row(row, lost[row])

    def _lost_chunk(self, row: int) -> bytearray | None:
        """``row``'s data chunk on a member that cannot be read, rebuilt
        from the others' stores; None when every data chunk can."""
        down = self.alive.index(False) if self.degraded else None
        pmap = self.parity_map
        if down is None or self._trusted(down, row) or down == pmap.parity_disk(row):
            return None
        return bytearray(
            self._xor_others(down, pmap.row_lba(row), pmap.chunk_sectors, self._peek_member)
        )

    def _install_parity_row(self, row: int, lost: bytearray | None = None) -> bool:
        """Recompute and install one row's parity chunk (time-free), from
        the members' stores and, for the one member that has none to speak
        of, its ``lost`` chunk.

        Returns whether the on-disk parity actually changed.
        """
        pmap = self.parity_map
        chunk = pmap.chunk_sectors
        base = pmap.row_lba(row)
        holder = pmap.parity_disk(row)
        peek = self._peek_member
        down = None if lost is None else self.alive.index(False)
        parity = self._xor_others(
            holder, base, chunk, lambda m, p, n: lost if m == down else peek(m, p, n)
        )
        if self._peek_member(holder, base, chunk) == parity:
            return False
        self._forget(holder, base, chunk)
        self.disks[holder].install(base, parity)
        return True

    def resync_parity(self) -> int:
        """Recompute every row's parity from the data as found; rows changed.

        The crash-recovery step a real array runs after an unclean
        shutdown (md's *resync*): a crash can land a row's data write
        without its parity write or vice versa, and a member failure
        *after* such a crash would reconstruct garbage from the
        inconsistent row — the RAID-5 write hole. Resync, run while all
        members are still present, restores the parity invariant;
        whichever of old/new data the crash left is then what a later
        degraded read reconstructs. (A member failure *before* the crash
        is the true write hole and needs journaling beyond this model.)
        Time-free, like the recovery-side ``install``/``peek`` surface.
        """
        pmap = self.parity_map
        if pmap is None:
            raise VolumeError(f"no parity to resync on a {self.layout} volume")
        if self.degraded:
            raise VolumeError("resync needs all members present")
        return sum(1 for row in range(pmap.rows) if self._install_parity_row(row))

    def peek(self, lba: int, nsectors: int) -> bytes:
        """Read bytes without charging time (tests and recovery checks).

        The same gather as :meth:`read` over a clock-free member fetch, so
        a degraded or rebuilding volume answers exactly what a read would.
        """
        self.map.check_range(lba, nsectors)
        return self._gather(lba, nsectors, self._peek_member)

    def corrupt(self, lba: int, nsectors: int = 1) -> None:
        """Overwrite sectors with garbage on every member that stores them.

        On a degraded parity volume the failed member's not-yet-rebuilt
        sectors are skipped (they exist only as parity over the others):
        like ``install`` and ``peek``, fault injection keeps working with
        a member down — member death, then bit-rot.
        """
        self.map.check_range(lba, nsectors)
        for sub in self.map.split(lba, nsectors):
            for member, plba, count, held in self._stores(sub):
                if held:
                    self._forget(member, plba, count)
                    self.disks[member].corrupt(plba, count)

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
