"""A multi-disk volume behind the :class:`SimulatedDisk` request surface.

The paper's thesis is that file management and disk management separate
cleanly; this module swaps the single-spindle disk manager for an N-spindle
one without the layers above noticing. A :class:`Volume` duck-types the
``read`` / ``write`` / ``barrier`` / ``install`` / ``peek`` / ``corrupt``
surface of :class:`repro.disk.SimulatedDisk` over N backing member disks in
one of two layouts:

* **stripe** (RAID-0): fixed-size chunks round-robin across members (see
  :mod:`repro.volume.mapping`); capacity is the sum of the members'.
* **mirror** (RAID-1): every write fans out to all live members, reads are
  balanced to the least-busy replica; capacity is one member's. Members
  may be dropped (:meth:`fail_member`) and the volume keeps serving from
  the survivors.
* **raid4** / **raid5**: one chunk per stripe row holds the XOR parity of
  the row's N-1 data chunks — on a fixed member for RAID-4, rotating
  left-symmetric for RAID-5. Writes maintain parity by full-stripe XOR
  when a row is completely overwritten and read-modify-write otherwise;
  any single member may fail (:meth:`fail_member` degrades instead of
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
read costs ~max over spindles, not the sum. Writes are queued: they
dispatch without advancing the shared clock at all, and :meth:`barrier`
drains — lifts the shared clock over every member's horizon — so a
striped segment write plus its flush barrier also costs ~max over
spindles. Data lands in the member sector stores at dispatch, so
read-after-write is always coherent regardless of clock skew.

With one member the model degenerates exactly to the bare disk: dispatch
``advance_to`` calls are no-ops (the single member's clock never trails
the shared one), so every request starts at the same instant, sees the
same rotational position, and charges the same time a bare
``SimulatedDisk`` on one shared clock would — the figure-identity the
scaling benchmark asserts.
"""

from __future__ import annotations

from repro.disk.disk import SimulatedDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.stats import DiskStats
from repro.obs.hist import LatencyHistogram
from repro.obs.trace import NULL_SPAN
from repro.sim.clock import VirtualClock
from repro.volume.mapping import ParityStripeMap, StripeMap, SubRequest

LAYOUTS = ("stripe", "mirror", "raid4", "raid5")

#: Layouts that dedicate one chunk per stripe row to XOR parity.
PARITY_LAYOUTS = ("raid4", "raid5")

#: Default stripe chunk: 128 sectors (64 KB).
DEFAULT_CHUNK_SECTORS = 128


def _xor_buffers(buffers) -> bytes:
    """XOR equal-length byte buffers (int-based: ~memcpy speed in CPython)."""
    acc = 0
    length = 0
    for buf in buffers:
        length = len(buf)
        acc ^= int.from_bytes(buf, "little")
    return acc.to_bytes(length, "little")


class VolumeError(Exception):
    """A volume-level request cannot be served."""


class VolumeDegradedError(VolumeError):
    """The request touches a failed member with no redundant copy."""


class VolumeGeometry:
    """Synthetic geometry of a volume: member timing, composite capacity.

    Sizing attributes (``total_sectors``, ``capacity_bytes``) describe the
    volume's addressable space; every other attribute (timing constants,
    track shape) delegates to the member geometry, so consumers that
    reason about request cost — e.g. the recovery sweep's coalescing
    heuristic — see the real spindle characteristics.
    """

    def __init__(self, member: DiskGeometry, total_sectors: int) -> None:
        #: Geometry every member spindle shares.
        self.member = member
        self.total_sectors = total_sectors
        self.sector_size = member.sector_size
        self.capacity_bytes = total_sectors * member.sector_size

    def __getattr__(self, name: str):
        return getattr(self.member, name)

    def __repr__(self) -> str:
        return (
            f"VolumeGeometry({self.capacity_bytes // (1024 * 1024)} MB, "
            f"member={self.member!r})"
        )


class VolumeStats:
    """Volume-level rollup: request latencies, queue depth, spindle balance.

    Conforms to the :class:`repro.obs.Snapshot` protocol so benchmarks
    register it in a :class:`~repro.obs.MetricsRegistry` next to the
    per-layer stats. ``as_dict()`` folds in a live per-spindle view taken
    from the member disks' own :class:`~repro.disk.DiskStats`. Request
    latencies record into bounded
    :class:`~repro.obs.hist.LatencyHistogram` sketches (they used to be
    raw lists — O(requests) memory on long runs).
    """

    def __init__(self, volume: "Volume") -> None:
        self._volume = volume
        self.reads = 0
        self.writes = 0
        self.sub_reads = 0
        self.sub_writes = 0
        self.barriers = 0
        self.degraded_reads = 0
        #: Parity-path counters (stay 0 on stripe/mirror layouts).
        self.reconstructed_reads = 0
        self.full_stripe_writes = 0
        self.rmw_writes = 0
        self.degraded_writes = 0
        self.rebuild_rows_done = 0
        self.rebuild_reads = 0
        self.rebuild_writes = 0
        self.rebuilds_completed = 0
        self.read_latency_hist = LatencyHistogram()
        self.write_latency_hist = LatencyHistogram()
        #: Writes dispatched since the last drain, total and per member.
        self.inflight_writes = 0
        self.max_queue_depth = 0

    def note_write_dispatch(self, subs: int) -> None:
        self.inflight_writes += subs
        if self.inflight_writes > self.max_queue_depth:
            self.max_queue_depth = self.inflight_writes

    def note_drain(self) -> None:
        self.inflight_writes = 0

    def _per_disk(self) -> list[dict]:
        out = []
        for i, disk in enumerate(self._volume.disks):
            stats: DiskStats = disk.stats
            out.append(
                {
                    "index": i,
                    "alive": self._volume.alive[i],
                    "requests": stats.requests,
                    "reads": stats.reads,
                    "writes": stats.writes,
                    "bytes_read": stats.bytes_read,
                    "bytes_written": stats.bytes_written,
                    "busy_time": stats.busy_time,
                    "barriers": stats.barriers,
                }
            )
        return out

    @staticmethod
    def _balance(values: list[float]) -> float:
        """min/max across spindles: 1.0 is perfectly even, 0 fully skewed."""
        top = max(values, default=0.0)
        if top <= 0:
            return 1.0
        return min(values) / top

    def as_dict(self) -> dict:
        volume = self._volume
        per_disk = self._per_disk()
        live = [d for d in per_disk if d["alive"]]
        read_lat = self.read_latency_hist
        write_lat = self.write_latency_hist
        return {
            "layout": volume.layout,
            "n_disks": len(volume.disks),
            "live_disks": sum(volume.alive),
            "chunk_sectors": volume.chunk_sectors,
            "reads": self.reads,
            "writes": self.writes,
            "sub_reads": self.sub_reads,
            "sub_writes": self.sub_writes,
            "barriers": self.barriers,
            "degraded_reads": self.degraded_reads,
            "reconstructed_reads": self.reconstructed_reads,
            "full_stripe_writes": self.full_stripe_writes,
            "rmw_writes": self.rmw_writes,
            "degraded_writes": self.degraded_writes,
            "rebuild_active": volume.rebuild_active,
            "rebuild_progress": volume.rebuild_progress,
            "rebuild_rows_done": self.rebuild_rows_done,
            "rebuild_reads": self.rebuild_reads,
            "rebuild_writes": self.rebuild_writes,
            "rebuilds_completed": self.rebuilds_completed,
            "max_queue_depth": self.max_queue_depth,
            "read_latency_p50": read_lat.quantile(0.50),
            "read_latency_p99": read_lat.quantile(0.99),
            "write_latency_p50": write_lat.quantile(0.50),
            "write_latency_p99": write_lat.quantile(0.99),
            "read_latency_hist": read_lat.as_dict(),
            "write_latency_hist": write_lat.as_dict(),
            "total_bytes_read": sum(d["bytes_read"] for d in per_disk),
            "total_bytes_written": sum(d["bytes_written"] for d in per_disk),
            "request_balance": self._balance([d["requests"] for d in live]),
            "busy_balance": self._balance([d["busy_time"] for d in live]),
            "per_disk": per_disk,
        }

    def snapshot(self) -> "_FrozenVolumeStats":
        """Independent copy of the current rollup (Snapshot protocol)."""
        return _FrozenVolumeStats(self.as_dict())


class _FrozenVolumeStats:
    """An immutable ``as_dict`` capture, itself Snapshot-conformant."""

    def __init__(self, payload: dict) -> None:
        self._payload = payload

    def as_dict(self) -> dict:
        return dict(self._payload)

    def snapshot(self) -> "_FrozenVolumeStats":
        return _FrozenVolumeStats(dict(self._payload))


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
        for disk in disks[1:]:
            if disk.geometry != member_geo:
                raise ValueError(
                    "all members must share one geometry: "
                    f"{disk.geometry!r} != {member_geo!r}"
                )
        self.clock = clock if clock is not None else VirtualClock()
        for i, disk in enumerate(disks):
            if disk.clock is self.clock:
                raise ValueError(
                    f"member {i} shares the volume clock; each member needs "
                    "a private clock for the per-spindle busy-until model"
                )
        self.disks = list(disks)
        self.alive = [True] * len(disks)
        self.layout = layout
        self.tracer = tracer
        self.events = None
        #: Online-rebuild state: member index being rebuilt (or None), the
        #: next stripe row the scanner will reconstruct, and the rate knob
        #: (stripe rows reconstructed per foreground request; fractional
        #: rates accumulate credit across requests).
        self._rebuilding: int | None = None
        self._rebuild_cursor = 0
        self._rebuild_credit = 0.0
        self._rebuild_decile = 0
        self.rebuild_rate = 0.0
        if layout == "mirror":
            self.chunk_sectors = 0
            self.map: StripeMap | None = None
            total = member_geo.total_sectors
        else:
            self.chunk_sectors = (
                chunk_sectors if chunk_sectors is not None else DEFAULT_CHUNK_SECTORS
            )
            if layout in PARITY_LAYOUTS:
                self.map = ParityStripeMap(
                    len(disks),
                    self.chunk_sectors,
                    member_geo.total_sectors,
                    rotate=layout == "raid5",
                )
            else:
                self.map = StripeMap(
                    len(disks), self.chunk_sectors, member_geo.total_sectors
                )
            total = self.map.total_sectors
        #: The parity map when this is a RAID-4/5 volume, else None.
        self.parity_map: ParityStripeMap | None = (
            self.map if isinstance(self.map, ParityStripeMap) else None
        )
        self.geometry = VolumeGeometry(member_geo, total)
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

        A mirror replicates every sector, so placement cannot steer load
        between its members (read balancing does); stripes and parity
        layouts expose every member as a placement target.
        """
        return 1 if self.layout == "mirror" else len(self.disks)

    def spindle_of(self, lba: int) -> int:
        """Member disk holding ``lba``'s data (always 0 for mirrors)."""
        if self.map is None:
            return 0
        return self.map.to_physical(lba)[0]

    def parity_spindle_of(self, lba: int) -> int | None:
        """Member holding the parity chunk of ``lba``'s stripe row.

        ``None`` on layouts without parity. A write to ``lba`` busies this
        member too, so placement policies above should treat it as loaded
        alongside :meth:`spindle_of`'s answer.
        """
        pmap = self.parity_map
        if pmap is None:
            return None
        return pmap.parity_disk(pmap.to_physical(lba)[1] // pmap.chunk_sectors)

    @property
    def degraded(self) -> bool:
        return not all(self.alive)

    def fail_member(self, index: int) -> None:
        """Drop a member: it receives no further requests.

        A mirrored volume keeps serving from the survivors; a parity
        volume survives any *single* failure (reads reconstruct by XOR,
        writes maintain parity degraded) and refuses a second concurrent
        failure — including during a rebuild — with
        :class:`VolumeDegradedError`, leaving its state intact. A striped
        volume raises on any subsequent request that touches the failed
        member (RAID-0 has no redundancy). Failing the member currently
        being rebuilt aborts the rebuild and returns to plain degraded.
        """
        if not 0 <= index < len(self.disks):
            raise ValueError(f"no member {index}")
        if self.layout == "mirror" and self.alive[index] and sum(self.alive) == 1:
            raise VolumeDegradedError("last mirror member dropped")
        if self.layout in PARITY_LAYOUTS:
            if index == self._rebuilding:
                # The replacement spindle died mid-rebuild: abort the
                # scan; the volume is back to plain single-failure
                # degraded, which parity still covers.
                self._rebuilding = None
                self._rebuild_cursor = 0
                self._rebuild_credit = 0.0
            elif self.alive[index] and (self.degraded or self._rebuilding is not None):
                raise VolumeDegradedError(
                    f"dropping member {index} would be a second concurrent "
                    f"failure; a {self.layout} volume survives only one"
                )
        self.alive[index] = False
        tr = self.tracer
        if tr:
            tr.instant("volume.member_failed", member=index)
        ev = self.events
        if ev:
            ev.emit(
                "volume.member_failed",
                severity="warn",
                t=self.clock.now,
                member=index,
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
        if self.layout not in PARITY_LAYOUTS:
            raise VolumeError(
                f"online rebuild needs a parity layout, not {self.layout!r}"
            )
        if self.alive[index]:
            raise VolumeError(f"member {index} is live; nothing to rebuild")
        if self._rebuilding is not None:
            raise VolumeError(f"already rebuilding member {self._rebuilding}")
        if disk is None:
            disk = SimulatedDisk(self.disks[index].geometry, VirtualClock())
        if disk.geometry != self.geometry.member:
            raise ValueError(
                f"replacement geometry {disk.geometry!r} does not match "
                f"members ({self.geometry.member!r})"
            )
        if disk.clock is self.clock:
            raise ValueError("replacement must carry a private clock")
        self.disks[index] = disk
        self._rebuilding = index
        self._rebuild_cursor = 0
        self._rebuild_credit = 0.0
        self._rebuild_decile = 0
        tr = self.tracer
        if tr:
            tr.instant("volume.rebuild_started", member=index)
        ev = self.events
        if ev:
            ev.emit(
                "volume.rebuild_started",
                t=self.clock.now,
                member=index,
                rows=self.parity_map.rows if self.parity_map else 0,
            )

    @property
    def rebuild_active(self) -> bool:
        return self._rebuilding is not None

    @property
    def rebuild_progress(self) -> float:
        """Fraction of stripe rows reconstructed onto the replacement.

        1.0 when fully redundant, 0.0 when degraded with no replacement
        installed yet.
        """
        pmap = self.parity_map
        if self._rebuilding is not None and pmap is not None:
            return self._rebuild_cursor / pmap.rows
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
        pmap = self.parity_map
        if target is None or pmap is None:
            return 0
        now = self.clock.now
        vstats = self.volume_stats
        replacement = self.disks[target]
        chunk = pmap.chunk_sectors
        done = 0
        while done < rows and self._rebuilding is not None:
            row = self._rebuild_cursor
            row_lba = pmap.row_lba(row)
            sources = []
            for i in range(len(self.disks)):
                if i == target:
                    continue
                disk = self.disks[i]
                disk.clock.advance_to(now)
                sources.append(disk.read(row_lba, chunk))
                vstats.rebuild_reads += 1
            replacement.clock.advance_to(now)
            replacement.write(row_lba, _xor_buffers(sources))
            vstats.rebuild_writes += 1
            vstats.rebuild_rows_done += 1
            self._rebuild_cursor = row + 1
            done += 1
            ev = self.events
            if self._rebuild_cursor >= pmap.rows:
                self.alive[target] = True
                self._rebuilding = None
                self._rebuild_credit = 0.0
                vstats.rebuilds_completed += 1
                tr = self.tracer
                if tr:
                    tr.instant("volume.rebuild_completed", member=target)
                if ev:
                    ev.emit(
                        "volume.rebuild_completed",
                        t=now,
                        member=target,
                        rows=pmap.rows,
                    )
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

    def _member(self, index: int):
        if not self.alive[index]:
            raise VolumeDegradedError(
                f"request touches failed member {index} of a {self.layout} volume"
            )
        return self.disks[index]

    def _live_members(self) -> list[int]:
        live = [i for i, ok in enumerate(self.alive) if ok]
        if not live:
            raise VolumeDegradedError("no live members")
        return live

    def _pick_replica(self) -> int:
        """Mirror read balancing: the least-busy live member wins."""
        live = self._live_members()
        return min(live, key=lambda i: (self.disks[i].clock.now, i))

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------

    def _check_range(self, lba: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise ValueError(f"sector count must be positive: {nsectors}")
        if lba < 0 or lba + nsectors > self.geometry.total_sectors:
            raise ValueError(
                f"request [{lba}, {lba + nsectors}) outside volume of "
                f"{self.geometry.total_sectors} sectors"
            )

    def _split(self, lba: int, nsectors: int) -> list[SubRequest]:
        if self.map is not None:
            return self.map.split(lba, nsectors)
        return [
            SubRequest(
                disk=0, plba=lba, nsectors=nsectors, pieces=((0, 0, nsectors),)
            )
        ]

    def _dispatch_read(self, member_index: int, plba: int, nsectors: int, now: float):
        """Issue one member read at time ``now``; returns (bytes, completion)."""
        self._member(member_index)
        return self._dispatch_read_raw(member_index, plba, nsectors, now)

    def _dispatch_read_raw(self, member_index: int, plba: int, nsectors: int, now: float):
        """Member read without the alive check (rebuilt-row / rebuild paths)."""
        disk = self.disks[member_index]
        disk.clock.advance_to(now)
        data = disk.read(plba, nsectors)
        self.volume_stats.sub_reads += 1
        return data, disk.clock.now

    def _reconstruct_extent(self, lost: int, plba: int, nsectors: int, now: float):
        """XOR ``lost``'s extent from the same extent on every other member.

        Every chunk of a stripe row sits at the same member LBA, so the
        lost chunk's bytes are the XOR of the other members' bytes at the
        identical extent — whichever of them holds the row's parity.
        """
        vstats = self.volume_stats
        completion = now
        pieces = []
        for i, disk in enumerate(self.disks):
            if i == lost:
                continue
            disk.clock.advance_to(now)
            pieces.append(disk.read(plba, nsectors))
            vstats.sub_reads += 1
            completion = max(completion, disk.clock.now)
        vstats.reconstructed_reads += 1
        return _xor_buffers(pieces), completion

    @staticmethod
    def _scatter(out: bytearray, buf, sub: SubRequest, size: int) -> None:
        """Place a sub-request's buffer into the volume request's buffer."""
        for sub_off, logical_off, count in sub.pieces:
            out[logical_off * size : (logical_off + count) * size] = buf[
                sub_off * size : (sub_off + count) * size
            ]

    def _read_at_degraded_parity(
        self, lba: int, nsectors: int, now: float
    ) -> tuple[bytes, float]:
        """Parity read with one untrusted member: reconstruct its chunks."""
        pmap = self.parity_map
        size = self.geometry.sector_size
        chunk = pmap.chunk_sectors
        bad = self.alive.index(False)
        out = bytearray(nsectors * size)
        completion = now
        for sub in self._split(lba, nsectors):
            if sub.disk != bad:
                buf, done = self._dispatch_read_raw(sub.disk, sub.plba, sub.nsectors, now)
                completion = max(completion, done)
                self._scatter(out, buf, sub, size)
                continue
            self.volume_stats.degraded_reads += 1
            # Serve the failed member's extent row by row: already-rebuilt
            # rows read straight from the replacement, the rest XOR over
            # the survivors.
            buf = bytearray(sub.nsectors * size)
            pos = sub.plba
            end = sub.plba + sub.nsectors
            while pos < end:
                row = pos // chunk
                take = min(end, (row + 1) * chunk) - pos
                if self._trusted(bad, row):
                    piece, done = self._dispatch_read_raw(bad, pos, take, now)
                else:
                    piece, done = self._reconstruct_extent(bad, pos, take, now)
                completion = max(completion, done)
                off = pos - sub.plba
                buf[off * size : (off + take) * size] = piece
                pos += take
            self._scatter(out, bytes(buf), sub, size)
        return bytes(out), completion

    def _read_at(self, lba: int, nsectors: int, now: float) -> tuple[bytes, float]:
        """Assemble one volume read dispatched at ``now`` (no shared-clock move)."""
        size = self.geometry.sector_size
        if self.map is None:
            replica = self._pick_replica()
            if self.degraded:
                self.volume_stats.degraded_reads += 1
            data, completion = self._dispatch_read(replica, lba, nsectors, now)
            return data, completion
        if self.parity_map is not None and self.degraded:
            return self._read_at_degraded_parity(lba, nsectors, now)
        subs = self._split(lba, nsectors)
        completion = now
        if len(subs) == 1 and len(subs[0].pieces) == 1:
            sub = subs[0]
            data, completion = self._dispatch_read(sub.disk, sub.plba, sub.nsectors, now)
            return data, completion
        out = bytearray(nsectors * size)
        for sub in subs:
            buf, done = self._dispatch_read(sub.disk, sub.plba, sub.nsectors, now)
            completion = max(completion, done)
            for sub_off, logical_off, count in sub.pieces:
                out[logical_off * size : (logical_off + count) * size] = buf[
                    sub_off * size : (sub_off + count) * size
                ]
        return bytes(out), completion

    def read(self, lba: int, nsectors: int) -> bytes:
        """Blocking volume read: shared clock advances to the slowest spindle."""
        self._check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("volume.read", lba=lba, sectors=nsectors) if tr else NULL_SPAN:
            self._rebuild_tick()
            now = self.clock.now
            data, completion = self._read_at(lba, nsectors, now)
            self.clock.advance_to(completion)
            self.stats.record_request(nsectors, write=False)
            self.volume_stats.reads += 1
            self.volume_stats.read_latency_hist.record(completion - now)
        return data

    def read_batch(self, requests: list[tuple[int, int]]) -> list[bytes]:
        """Issue several reads as one overlapping batch.

        All requests dispatch at the current shared time; sub-requests to
        the same member queue FIFO on its private clock while different
        members proceed in parallel. The shared clock advances once, to
        the completion of the slowest request, and per-request latencies
        are recorded individually.
        """
        for lba, nsectors in requests:
            self._check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("volume.read_batch", count=len(requests)) if tr else NULL_SPAN:
            self._rebuild_tick()
            now = self.clock.now
            vstats = self.volume_stats
            out: list[bytes] = []
            batch_completion = now
            for lba, nsectors in requests:
                data, completion = self._read_at(lba, nsectors, now)
                out.append(data)
                self.stats.record_request(nsectors, write=False)
                vstats.reads += 1
                vstats.read_latency_hist.record(completion - now)
                batch_completion = max(batch_completion, completion)
            self.clock.advance_to(batch_completion)
        return out

    def write(self, lba: int, data: bytes) -> None:
        """Queued volume write: dispatched now, drained by the next barrier.

        The member sector stores are updated immediately (reads issued
        after this call return the new bytes) but the shared clock does
        not move — each member charges the mechanical cost on its private
        clock, so writes landing on different spindles overlap and
        :meth:`barrier` pays only the slowest spindle's horizon.
        """
        size = self.geometry.sector_size
        if len(data) % size != 0:
            raise ValueError(
                f"write length {len(data)} is not a multiple of sector size {size}"
            )
        nsectors = len(data) // size
        self._check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("volume.write", lba=lba, sectors=nsectors) if tr else NULL_SPAN:
            self._rebuild_tick()
            now = self.clock.now
            vstats = self.volume_stats
            completion = now
            if self.map is None:
                live = self._live_members()
                for i in live:
                    disk = self.disks[i]
                    disk.clock.advance_to(now)
                    disk.write(lba, data)
                    completion = max(completion, disk.clock.now)
                vstats.sub_writes += len(live)
                vstats.note_write_dispatch(len(live))
            elif self.parity_map is not None:
                view = memoryview(data)
                dispatched = vstats.sub_writes
                for row, frags in self.parity_map.split_rows(lba, nsectors):
                    done = self._write_parity_row(row, frags, view, now)
                    completion = max(completion, done)
                vstats.note_write_dispatch(vstats.sub_writes - dispatched)
            else:
                subs = self._split(lba, nsectors)
                view = memoryview(data)
                for sub in subs:
                    disk = self._member(sub.disk)
                    disk.clock.advance_to(now)
                    if len(sub.pieces) == 1:
                        piece = view[
                            sub.pieces[0][1] * size : (sub.pieces[0][1] + sub.pieces[0][2]) * size
                        ]
                        disk.write(sub.plba, piece)
                    else:
                        chunk = bytearray(sub.nsectors * size)
                        for sub_off, logical_off, count in sub.pieces:
                            chunk[sub_off * size : (sub_off + count) * size] = view[
                                logical_off * size : (logical_off + count) * size
                            ]
                        disk.write(sub.plba, bytes(chunk))
                    completion = max(completion, disk.clock.now)
                vstats.sub_writes += len(subs)
                vstats.note_write_dispatch(len(subs))
            self.stats.record_request(nsectors, write=True)
            vstats.writes += 1
            vstats.write_latency_hist.record(completion - now)

    def _member_write_at(self, index: int, plba: int, payload, now: float) -> float:
        """Queue one member write at ``now`` (no alive check); completion time."""
        disk = self.disks[index]
        disk.clock.advance_to(now)
        disk.write(plba, payload)
        self.volume_stats.sub_writes += 1
        return disk.clock.now

    def _write_parity_row(self, row: int, frags, view, now: float) -> float:
        """Dispatch one stripe row's data + parity updates; completion time.

        Three shapes, cheapest first:

        * **full stripe** — the fragments cover every data chunk, so the
          new parity is the XOR of the payload itself: no pre-reads.
        * **read-modify-write** — pre-read the old data under each
          fragment and the old parity over the touched range; new parity
          is old parity XOR old data XOR new data per fragment extent.
        * **degraded** — one chunk of the row is untrusted. If it is the
          parity chunk, just write the data. If it is a data chunk, its
          old bytes are unreadable, so delta RMW is impossible: read the
          surviving data chunks and old parity over the touched range,
          reconstruct the untrusted chunk by XOR, overlay the new
          fragments, and recompute parity from scratch — skipping the
          write to the untrusted member (parity now encodes its logical
          content, so reconstruction and the rebuild scanner serve it).

        All member reads happen before any member write of the row, so
        pre-reads observe pre-request bytes regardless of fragment order.
        """
        pmap = self.parity_map
        size = self.geometry.sector_size
        chunk = pmap.chunk_sectors
        base = pmap.row_lba(row)
        parity_member = pmap.parity_disk(row)
        vstats = self.volume_stats
        completion = now

        bad = None
        if self.degraded:
            bad = self.alive.index(False)
            if self._trusted(bad, row):
                bad = None

        def payload(f):
            return view[f.logical_off * size : (f.logical_off + f.nsectors) * size]

        if sum(f.nsectors for f in frags) == pmap.data_per_row * chunk:
            # Full stripe: every fragment is a whole chunk at within=0.
            parity = _xor_buffers([payload(f) for f in frags])
            for f in frags:
                if f.disk == bad:
                    continue
                done = self._member_write_at(f.disk, base, payload(f), now)
                completion = max(completion, done)
            if parity_member != bad:
                done = self._member_write_at(parity_member, base, parity, now)
                completion = max(completion, done)
            if bad is None:
                vstats.full_stripe_writes += 1
            else:
                vstats.degraded_writes += 1
            return completion

        if bad == parity_member:
            for f in frags:
                done = self._member_write_at(f.disk, base + f.within, payload(f), now)
                completion = max(completion, done)
            vstats.degraded_writes += 1
            return completion

        lo = min(f.within for f in frags)
        hi = max(f.within + f.nsectors for f in frags)

        if bad is None:
            old = []
            for f in frags:
                buf, done = self._dispatch_read_raw(
                    f.disk, base + f.within, f.nsectors, now
                )
                old.append(buf)
                completion = max(completion, done)
            pbuf, done = self._dispatch_read_raw(parity_member, base + lo, hi - lo, now)
            completion = max(completion, done)
            parity = bytearray(pbuf)
            for f, obuf in zip(frags, old):
                off = (f.within - lo) * size
                end = off + len(obuf)
                parity[off:end] = _xor_buffers([parity[off:end], obuf, payload(f)])
                done = self._member_write_at(f.disk, base + f.within, payload(f), now)
                completion = max(completion, done)
            done = self._member_write_at(parity_member, base + lo, bytes(parity), now)
            completion = max(completion, done)
            vstats.rmw_writes += 1
            return completion

        # Degraded reconstruct-write: ``bad`` is one of the row's data
        # members (written or not — its unwritten sectors in [lo, hi)
        # still feed the new parity).
        span = hi - lo
        survivors = [d for d in pmap.data_disks(row) if d != bad]
        chunks: dict[int, bytearray] = {}
        pieces = []
        for member in survivors + [parity_member]:
            buf, done = self._dispatch_read_raw(member, base + lo, span, now)
            completion = max(completion, done)
            if member != parity_member:
                chunks[member] = bytearray(buf)
            pieces.append(buf)
        chunks[bad] = bytearray(_xor_buffers(pieces))
        vstats.reconstructed_reads += 1
        for f in frags:
            off = (f.within - lo) * size
            chunks[f.disk][off : off + f.nsectors * size] = payload(f)
            if f.disk != bad:
                done = self._member_write_at(f.disk, base + f.within, payload(f), now)
                completion = max(completion, done)
        parity = _xor_buffers([bytes(c) for c in chunks.values()])
        done = self._member_write_at(parity_member, base + lo, parity, now)
        completion = max(completion, done)
        vstats.degraded_writes += 1
        return completion

    def _serving_members(self) -> list[int]:
        """Members currently receiving requests: the live ones, plus a
        replacement mid-rebuild (it takes writes for rebuilt rows and the
        scanner's reconstruction stream before rejoining ``alive``)."""
        serving = [
            i
            for i, ok in enumerate(self.alive)
            if ok or i == self._rebuilding
        ]
        if not serving:
            raise VolumeDegradedError("no live members")
        return serving

    def barrier(self, label: str = "barrier") -> None:
        """Order writes and drain every spindle's busy-until horizon.

        Forwarded to each serving member (so member-level journals close
        their epochs), then the shared clock is lifted over the slowest
        member — the point where queued writes' simulated time becomes
        visible to the layers above.
        """
        tr = self.tracer
        if tr:
            tr.instant(
                "volume.barrier",
                label=label,
                queued=self.volume_stats.inflight_writes,
            )
        horizon = self.clock.now
        for i in self._serving_members():
            disk = self.disks[i]
            disk.barrier(label)
            horizon = max(horizon, disk.clock.now)
        self.clock.advance_to(horizon)
        self.stats.barriers += 1
        self.volume_stats.barriers += 1
        self.volume_stats.note_drain()

    def drain(self) -> None:
        """Advance the shared clock over every serving member (no barrier)."""
        for i in self._serving_members():
            self.clock.advance_to(self.disks[i].clock.now)
        self.volume_stats.note_drain()

    # ------------------------------------------------------------------
    # Failure injection / inspection (time-free, mirrors SimulatedDisk)
    # ------------------------------------------------------------------

    def install(self, lba: int, data: bytes) -> None:
        """Place whole sectors on every relevant member without charging time.

        On parity layouts the touched rows' parity chunks are recomputed
        from the as-installed data, so the volume stays reconstructible —
        install is how tests and the crash explorer materialize images,
        and those images must survive a member failure like written data.
        """
        size = self.geometry.sector_size
        if len(data) % size != 0:
            raise ValueError(
                f"install length {len(data)} is not a multiple of sector size {size}"
            )
        nsectors = len(data) // size
        self._check_range(lba, nsectors)
        if self.map is None:
            for i in self._live_members():
                self.disks[i].install(lba, data)
            return
        pmap = self.parity_map
        view = memoryview(data)
        for sub in self._split(lba, nsectors):
            disk = self.disks[sub.disk] if pmap is not None else self._member(sub.disk)
            chunk = bytearray(sub.nsectors * size)
            for sub_off, logical_off, count in sub.pieces:
                chunk[sub_off * size : (sub_off + count) * size] = view[
                    logical_off * size : (logical_off + count) * size
                ]
            disk.install(sub.plba, bytes(chunk))
        if pmap is not None:
            first_row = (lba // pmap.chunk_sectors) // pmap.data_per_row
            last_row = (
                (lba + nsectors - 1) // pmap.chunk_sectors
            ) // pmap.data_per_row
            for row in range(first_row, last_row + 1):
                self._install_parity_row(row)

    def _install_parity_row(self, row: int) -> bool:
        """Recompute and install one row's parity chunk (time-free).

        Returns whether the on-disk parity actually changed.
        """
        pmap = self.parity_map
        chunk = pmap.chunk_sectors
        base = pmap.row_lba(row)
        parity = _xor_buffers(
            [self.disks[d].peek(base, chunk) for d in pmap.data_disks(row)]
        )
        holder = self.disks[pmap.parity_disk(row)]
        if holder.peek(base, chunk) == parity:
            return False
        holder.install(base, parity)
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

        A degraded parity volume reconstructs the untrusted member's
        chunks by XOR, exactly like :meth:`read` — just clock-free.
        """
        self._check_range(lba, nsectors)
        if self.map is None:
            return self._member(self._live_members()[0]).peek(lba, nsectors)
        size = self.geometry.sector_size
        pmap = self.parity_map
        bad = None
        if pmap is not None and self.degraded:
            bad = self.alive.index(False)
        out = bytearray(nsectors * size)
        for sub in self._split(lba, nsectors):
            if bad is None or sub.disk != bad:
                source = self.disks[sub.disk] if pmap is not None else self._member(
                    sub.disk
                )
                buf = source.peek(sub.plba, sub.nsectors)
                self._scatter(out, buf, sub, size)
                continue
            chunk = pmap.chunk_sectors
            buf = bytearray(sub.nsectors * size)
            pos = sub.plba
            end = sub.plba + sub.nsectors
            while pos < end:
                row = pos // chunk
                take = min(end, (row + 1) * chunk) - pos
                if self._trusted(bad, row):
                    piece = self.disks[bad].peek(pos, take)
                else:
                    piece = _xor_buffers(
                        [
                            disk.peek(pos, take)
                            for i, disk in enumerate(self.disks)
                            if i != bad
                        ]
                    )
                off = pos - sub.plba
                buf[off * size : (off + take) * size] = piece
                pos += take
            self._scatter(out, bytes(buf), sub, size)
        return bytes(out)

    def corrupt(self, lba: int, nsectors: int = 1) -> None:
        """Overwrite sectors with garbage on every relevant member."""
        self._check_range(lba, nsectors)
        if self.map is None:
            for i in self._live_members():
                self.disks[i].corrupt(lba, nsectors)
            return
        for sub in self._split(lba, nsectors):
            self._member(sub.disk).corrupt(sub.plba, sub.nsectors)

    @property
    def sectors_populated(self) -> int:
        """Sectors ever written across the volume (per-copy for stripes)."""
        if self.map is None:
            return max(
                (self.disks[i].sectors_populated for i in self._live_members()),
                default=0,
            )
        return sum(disk.sectors_populated for disk in self.disks)

    def __repr__(self) -> str:
        live = sum(self.alive)
        return (
            f"Volume({self.layout}, {live}/{len(self.disks)} disks, "
            f"{self.geometry.capacity_bytes // (1024 * 1024)} MB, "
            f"chunk={self.chunk_sectors})"
        )
