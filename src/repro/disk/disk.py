"""The simulated disk proper: byte storage plus a mechanical time model."""

from __future__ import annotations

import math
from typing import Iterator

from repro.disk.geometry import DiskGeometry
from repro.disk.stats import DiskStats
from repro.disk.store import ExtentStore, sector_view
from repro.obs.trace import NULL_SPAN
from repro.sim.clock import VirtualClock


class SimulatedDisk:
    """A disk that stores real bytes and charges realistic simulated time.

    The mechanical model:

    * **Seek.** ``t(d) = min_seek + b * (sqrt(d) - 1)`` for distance ``d >= 1``
      cylinders, with ``b`` chosen so that a full-stroke seek costs
      ``max_seek``. This is the standard square-root arm model.
    * **Rotation.** The platter position is a pure function of the virtual
      clock, so a request that arrives "late" (e.g. after per-request host
      overhead) genuinely misses its rotational window and waits most of a
      revolution — the effect behind the paper's 300 KB/s back-to-back
      4 KB write measurement.
    * **Transfer.** One sector time per sector; crossing a track boundary
      charges a head switch, crossing a cylinder boundary charges a
      single-cylinder seek. Track skew is assumed ideal, i.e. the switch
      costs only the switch time, not an extra rotation.
    * **Overhead.** A fixed per-request host/controller cost charged before
      the mechanism starts.

    Storage is sparse and extent-backed (:class:`repro.disk.store.ExtentStore`):
    sectors never written read back as zeros, and bytes move one slice per
    64 KB extent touched, not one object per sector. Two copies per byte
    remain and are the minimum for a store that owns its contents — one
    into the extent on ``write``/``install``, one into the returned
    ``bytes`` on ``read``/``peek``.
    """

    def __init__(
        self, geometry: DiskGeometry, clock: VirtualClock, tracer=None
    ) -> None:
        self.geometry = geometry
        self.clock = clock
        self.stats = DiskStats(sector_size=geometry.sector_size)
        #: Optional :class:`repro.obs.Tracer`; None (the default) keeps
        #: the request path span-free (see repro.obs for the guard idiom).
        self.tracer = tracer
        self._store = ExtentStore(geometry.sector_size)
        self._current_cylinder = 0
        # Pre-computed seek-curve slope: min + b*(sqrt(max_dist)-1) == max.
        max_dist = max(1, geometry.cylinders - 1)
        denom = max(1e-12, math.sqrt(max_dist) - 1.0)
        self._seek_slope = (geometry.max_seek_ms - geometry.min_seek_ms) / 1000.0 / denom

    # ------------------------------------------------------------------
    # Time model
    # ------------------------------------------------------------------

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seconds to move the arm between two cylinders."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        return self.geometry.min_seek_ms / 1000.0 + self._seek_slope * (
            math.sqrt(distance) - 1.0
        )

    def _rotational_wait(self, target_sector: int) -> float:
        """Seconds until ``target_sector`` rotates under the head."""
        geo = self.geometry
        position = (self.clock.now / geo.sector_time) % geo.sectors_per_track
        delta = target_sector - position
        if delta < 0:
            delta += geo.sectors_per_track
        return delta * geo.sector_time

    def _charge_access(self, lba: int, nsectors: int) -> None:
        """Advance the clock by the mechanical cost of one request.

        Attribute lookups are hoisted out of the transfer loop, but every
        ``advance``/``+=`` keeps the original per-component order: the
        rotation position is a function of the clock, and the simulated
        figures (and their float rounding) must stay byte-identical
        across CPU-only optimization passes.
        """
        geo = self.geometry
        stats = self.stats
        advance = self.clock.advance
        sectors_per_track = geo.sectors_per_track
        sectors_per_cylinder = geo.sectors_per_cylinder

        overhead = geo.request_overhead_ms / 1000.0
        advance(overhead)
        stats.overhead_time += overhead

        # _check_range already bounded the request, so the CHS split is
        # plain integer arithmetic here, not a validating decompose().
        cylinder = lba // sectors_per_cylinder
        seek = self.seek_time(self._current_cylinder, cylinder)
        if seek:
            advance(seek)
            stats.seek_time += seek
            stats.seeks += 1
        self._current_cylinder = cylinder

        rotation = self._rotational_wait(lba % sectors_per_track)
        if rotation:
            advance(rotation)
            stats.rotation_time += rotation

        # Transfer, accounting for track and cylinder crossings.
        sector_time = geo.sector_time
        remaining = nsectors
        position = lba
        while remaining > 0:
            run = min(remaining, sectors_per_track - position % sectors_per_track)
            transfer = run * sector_time
            advance(transfer)
            stats.transfer_time += transfer
            remaining -= run
            position += run
            if remaining > 0:
                next_cyl = position // sectors_per_cylinder
                if next_cyl != self._current_cylinder:
                    cyl_seek = self.seek_time(self._current_cylinder, next_cyl)
                    advance(cyl_seek)
                    stats.seek_time += cyl_seek
                    self._current_cylinder = next_cyl
                else:
                    switch = geo.head_switch_ms / 1000.0
                    advance(switch)
                    stats.head_switch_time += switch

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def _check_range(self, lba: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise ValueError(f"sector count must be positive: {nsectors}")
        if lba < 0 or lba + nsectors > self.geometry.total_sectors:
            raise ValueError(
                f"request [{lba}, {lba + nsectors}) outside disk of "
                f"{self.geometry.total_sectors} sectors"
            )

    def read(self, lba: int, nsectors: int, *, wait: bool = True):
        """Read ``nsectors`` contiguous sectors starting at ``lba``.

        ``wait=False`` returns ``(bytes, arrival)``, as a
        :class:`repro.volume.Volume` does; here the request is charged on
        the one clock before it returns, so it has already waited and
        arrives ``now``.
        """
        self._check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("disk.read", lba=lba, sectors=nsectors) if tr else NULL_SPAN:
            self._charge_access(lba, nsectors)
            self.stats.record_request(nsectors, write=False)
        data = self._store.read(lba, nsectors)
        return data if wait else (data, self.clock.now)

    def read_batch(self, requests: list[tuple[int, int]], *, wait: bool = True):
        """Read several ``(lba, nsectors)`` extents as one submission.

        A single spindle has no parallelism to exploit, so this is
        timing-identical to issuing the reads back-to-back; the method
        exists so callers can hand a whole batch to whatever disk they
        hold and let a multi-spindle :class:`repro.volume.Volume` overlap
        the sub-requests in simulated time. ``wait`` as for :meth:`read`.
        """
        bufs = [self.read(lba, nsectors) for lba, nsectors in requests]
        return bufs if wait else (bufs, self.clock.now)

    def write(self, lba: int, data: bytes) -> None:
        """Write ``data`` (a whole number of sectors) starting at ``lba``."""
        view, nsectors = sector_view(data, self.geometry.sector_size, "write")
        self._check_range(lba, nsectors)
        tr = self.tracer
        with tr.span("disk.write", lba=lba, sectors=nsectors) if tr else NULL_SPAN:
            self._charge_access(lba, nsectors)
            self.stats.record_request(nsectors, write=True)
        self._store.write(lba, view)

    def barrier(self, label: str = "barrier", *, wait: bool = True) -> None:
        """Write-ordering barrier: writes issued before it reach the medium
        before any write issued after it.

        ``wait`` is the disk surface's one distinction between *ordering*
        and *acknowledgement*: a waiting barrier (the default) returns only
        once everything written before it is on the medium; with
        ``wait=False`` the caller needs the order and nothing else.

        The simulated disk applies every write immediately and charges its
        time on the spot, so either kind changes nothing here and charges
        no time — it only counts. A :class:`repro.volume.Volume`, whose
        writes are queued, is where ``wait`` costs simulated time; the
        crash-state explorer's :class:`repro.crashsim.RecordingDisk` gives
        barriers their other meaning: they delimit the epochs within which
        in-flight writes may be reordered or lost by a crash.
        """
        tr = self.tracer
        if tr:
            tr.instant("disk.barrier", label=label)
        self.stats.barriers += 1

    def write_horizon(self) -> float:
        """Simulated time by which every write issued so far is on the
        medium: now — a write here is charged, and done, before it
        returns. (A volume's members run ahead of its shared clock.)"""
        return self.clock.now

    # ------------------------------------------------------------------
    # Failure injection / inspection
    # ------------------------------------------------------------------

    def install(self, lba: int, data: bytes) -> None:
        """Place whole sectors without charging time or stats.

        Replay support for the crash-state explorer: crash images are
        materialized by installing journaled writes onto a fresh disk, so
        the recovery that follows starts from a clean clock and clean
        counters.
        """
        view, nsectors = sector_view(data, self.geometry.sector_size, "install")
        self._check_range(lba, nsectors)
        self._store.write(lba, view)

    def peek(self, lba: int, nsectors: int) -> bytes:
        """Read bytes without charging time (for tests and recovery checks)."""
        self._check_range(lba, nsectors)
        return self._store.read(lba, nsectors)

    def corrupt(self, lba: int, nsectors: int = 1) -> None:
        """Overwrite sectors with garbage without charging time (fault injection)."""
        self._check_range(lba, nsectors)
        size = self.geometry.sector_size
        # Exactly one sector of junk, also when 4 does not divide the size.
        junk = (bytes((0xDE, 0xAD, 0xBE, 0xEF)) * (size // 4 + 1))[:size]
        self._store.write(lba, memoryview(junk * nsectors))

    @property
    def sectors_populated(self) -> int:
        """Number of sectors ever written (sparse-store footprint)."""
        return self._store.populated

    def written_sectors(self) -> Iterator[tuple[int, bytes]]:
        """``(lba, contents)`` of every sector ever written, ascending LBA.

        The one window onto the store for tests and tools that compare or
        digest whole disk images.
        """
        return self._store.written_sectors()

    def snapshot(self) -> ExtentStore:
        """Frozen copy of the current contents, for :meth:`restore`."""
        return self._store.copy()

    def restore(self, image: ExtentStore) -> None:
        """Replace the contents with a copy of ``image``, a :meth:`snapshot`
        of a disk of the same geometry (time- and stat-free).

        One extent copy per allocated extent: how the crash-state explorer
        rewinds a fresh disk to a recording's base image.
        """
        self._store = image.copy()

    def __repr__(self) -> str:
        geo = self.geometry
        return (
            f"SimulatedDisk({geo.capacity_bytes // (1024 * 1024)} MB, "
            f"{geo.rpm} rpm, cyl={self._current_cylinder})"
        )
