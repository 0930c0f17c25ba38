"""Write-journal wrapper around the simulated disk.

A :class:`RecordingDisk` sits between an LD implementation and its
:class:`~repro.disk.disk.SimulatedDisk`, passing every request through
unchanged while journalling the write stream and the barriers that
partition it into *epochs*. The journal is what the crash-state
enumerator replays: any crash state of the device is some prefix of the
epochs, plus a subset (possibly torn) of the writes in the first
unfinished epoch.

The crash model matches what commodity disks guarantee:

* A single-sector write is atomic (powersafe overwrite).
* A multi-sector write may *tear*: a crash can leave any sector-aligned
  prefix of it on the medium.
* Writes between two barriers may be reordered or dropped by the crash;
  writes separated by a barrier may not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.disk import SimulatedDisk
from repro.sim.clock import VirtualClock


@dataclass(frozen=True)
class WriteEvent:
    """One journalled sector write.

    ``seq`` is the write's index in the journal (0-based, dense), the
    coordinate system the enumerator and the durability oracle share.
    """

    seq: int
    epoch: int
    lba: int
    data: bytes

    @property
    def nsectors(self) -> int:
        return len(self.data) // 512

    def __repr__(self) -> str:  # keep journals readable in test output
        return (
            f"WriteEvent(seq={self.seq}, epoch={self.epoch}, "
            f"lba={self.lba}, sectors={self.nsectors})"
        )


@dataclass(frozen=True)
class BarrierEvent:
    """A barrier, recorded with the epoch it closed.

    ``position`` is the number of writes journalled before the barrier;
    ``label`` names the choke point that issued it (``"flush"``,
    ``"summary-guard"``, ``"segment-image"``, ...).
    """

    position: int
    epoch: int
    label: str


class RecordingDisk:
    """Pass-through disk wrapper that journals writes and barriers.

    Reads, peeks, and time charging are delegated untouched, so an LD
    running on a RecordingDisk behaves (and costs) exactly as it would on
    the bare disk. Only :meth:`write` and :meth:`barrier` add journalling.

    The wrapper snapshots the underlying sector store at construction, so
    it can be installed over a disk that already has content; crash images
    are materialized (:meth:`image`) as base-snapshot + journalled writes.
    """

    def __init__(self, inner: SimulatedDisk) -> None:
        self.inner = inner
        self.events: list[WriteEvent] = []
        self.barriers: list[BarrierEvent] = []
        self._epoch = 0
        self._epoch_start = 0  # journal position where the open epoch began
        # Base image: disk contents before recording started.
        self._base = inner.snapshot()

    # ------------------------------------------------------------------
    # Journalled operations
    # ------------------------------------------------------------------

    def write(self, lba: int, data: bytes) -> None:
        data = bytes(data)
        self.inner.write(lba, data)  # validates and charges time first
        self.events.append(
            WriteEvent(seq=len(self.events), epoch=self._epoch, lba=lba, data=data)
        )

    def barrier(self, label: str = "barrier", *, wait: bool = True) -> None:
        self.inner.barrier(label, wait=wait)
        if len(self.events) == self._epoch_start:
            return  # no writes since the last barrier: epochs never go empty
        self.barriers.append(
            BarrierEvent(position=len(self.events), epoch=self._epoch, label=label)
        )
        self._epoch += 1
        self._epoch_start = len(self.events)

    # ------------------------------------------------------------------
    # Journal queries
    # ------------------------------------------------------------------

    @property
    def position(self) -> int:
        """Number of writes journalled so far (the oracle's clock)."""
        return len(self.events)

    @property
    def epoch_count(self) -> int:
        """Closed epochs plus the open one (when it has writes)."""
        closed = self._epoch
        return closed + (1 if len(self.events) > self._epoch_start else 0)

    def epoch_bounds(self) -> list[tuple[int, int]]:
        """``[start, end)`` journal positions of every epoch, in order."""
        bounds: list[tuple[int, int]] = []
        start = 0
        for barrier in self.barriers:
            bounds.append((start, barrier.position))
            start = barrier.position
        if start < len(self.events):
            bounds.append((start, len(self.events)))
        return bounds

    def base_image(self) -> dict[int, bytes]:
        """The pre-recording sector contents, by LBA."""
        return dict(self._base.written_sectors())

    def image(self, plan) -> SimulatedDisk:
        """A fresh disk (fresh clock, zero stats) holding one crash image.

        The base image arrives by extent copy, then each ``(seq, applied)``
        of ``plan`` installs the first ``applied`` sectors of journalled
        write ``seq``.
        """
        disk = SimulatedDisk(self.inner.geometry, VirtualClock())
        disk.restore(self._base)
        sector = disk.geometry.sector_size
        for seq, applied in plan:
            event = self.events[seq]
            disk.install(event.lba, event.data[: applied * sector])
        return disk

    # ------------------------------------------------------------------
    # Transparent delegation
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # geometry, clock, stats, read, peek, install, corrupt,
        # sectors_populated, ... — everything else is the inner disk's.
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return (
            f"RecordingDisk({len(self.events)} writes, "
            f"{len(self.barriers)} barriers, epoch={self._epoch})"
        )
