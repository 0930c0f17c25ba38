"""Disk geometry: the static shape of a simulated drive."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class DiskGeometry:
    """Physical shape and timing constants of a drive.

    Attributes:
        sector_size: bytes per sector.
        sectors_per_track: sectors on one track.
        heads: tracks per cylinder (number of recording surfaces).
        cylinders: seek positions.
        rpm: spindle speed, revolutions per minute.
        min_seek_ms: single-cylinder (track-to-track) seek time.
        max_seek_ms: full-stroke seek time.
        head_switch_ms: time to activate the next head within a cylinder.
        request_overhead_ms: fixed host + controller cost per request; this
            models the SCSI command processing that makes consecutive
            single-block requests miss the rotational window.

    The derived constants below are computed once per instance
    (``cached_property`` stores into ``__dict__``, which a frozen dataclass
    allows): the fields cannot change, and the disk's request path reads
    ``sector_time`` and ``total_sectors`` on every request.
    """

    sector_size: int = 512
    sectors_per_track: int = 60
    heads: int = 8
    cylinders: int = 1707
    rpm: int = 5400
    min_seek_ms: float = 1.5
    max_seek_ms: float = 22.0
    head_switch_ms: float = 0.5
    request_overhead_ms: float = 1.5

    def __post_init__(self) -> None:
        for name in ("sector_size", "sectors_per_track", "heads", "cylinders", "rpm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.min_seek_ms < 0 or self.max_seek_ms < self.min_seek_ms:
            raise ValueError(
                f"seek times must satisfy 0 <= min <= max, got "
                f"min={self.min_seek_ms} max={self.max_seek_ms}"
            )

    @cached_property
    def sectors_per_cylinder(self) -> int:
        """Sectors addressable without moving the arm."""
        return self.sectors_per_track * self.heads

    @cached_property
    def total_sectors(self) -> int:
        """Total addressable sectors on the drive."""
        return self.sectors_per_cylinder * self.cylinders

    @cached_property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.total_sectors * self.sector_size

    @cached_property
    def revolution_time(self) -> float:
        """Seconds per spindle revolution."""
        return 60.0 / self.rpm

    @cached_property
    def sector_time(self) -> float:
        """Seconds for one sector to pass under the head."""
        return self.revolution_time / self.sectors_per_track

    def decompose(self, lba: int) -> tuple[int, int, int]:
        """Map a logical block address to (cylinder, head, sector)."""
        if not 0 <= lba < self.total_sectors:
            raise ValueError(f"LBA {lba} out of range [0, {self.total_sectors})")
        cylinder, rem = divmod(lba, self.sectors_per_cylinder)
        head, sector = divmod(rem, self.sectors_per_track)
        return cylinder, head, sector

    def cylinder_of(self, lba: int) -> int:
        """Cylinder containing ``lba``."""
        return self.decompose(lba)[0]
