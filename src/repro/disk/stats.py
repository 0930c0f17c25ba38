"""Per-disk access statistics.

The benchmark harness derives every throughput/latency figure from these
counters plus the virtual clock, so they must account for every source of
simulated time the disk charges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs.metrics import Counters


@dataclass(slots=True)
class DiskStats(Counters):
    """Counters accumulated by :class:`repro.disk.SimulatedDisk`."""

    DERIVED = ("requests", "bytes_read", "bytes_written", "busy_time")

    #: Bytes per sector of the disk these counters describe; the byte
    #: totals below are derived from it, so non-512 geometry profiles
    #: report correct byte counts.
    sector_size: int = 512

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    seeks: int = 0

    seek_time: float = 0.0
    rotation_time: float = 0.0
    transfer_time: float = 0.0
    overhead_time: float = 0.0
    head_switch_time: float = 0.0

    # Write-ordering barriers announced by the layer above (see
    # SimulatedDisk.barrier). Free in simulated time; counted so the
    # crash-state explorer and benchmarks can reason about epochs.
    barriers: int = 0

    # Histogram of request sizes (in sectors), useful for workload analysis.
    request_sizes: Counter = field(default_factory=Counter)
    # Write-only request-size histogram (in sectors): the write path's
    # request-size/throughput profile, separate from reads.
    write_request_sizes: Counter = field(default_factory=Counter)

    @property
    def requests(self) -> int:
        """Total requests serviced."""
        return self.reads + self.writes

    @property
    def busy_time(self) -> float:
        """Total simulated time the disk spent servicing requests."""
        return (
            self.seek_time
            + self.rotation_time
            + self.transfer_time
            + self.overhead_time
            + self.head_switch_time
        )

    @property
    def bytes_read(self) -> int:
        return self.sectors_read * self.sector_size

    @property
    def bytes_written(self) -> int:
        return self.sectors_written * self.sector_size

    def record_request(self, nsectors: int, write: bool) -> None:
        """Count one request of ``nsectors`` sectors.

        Runs once per disk request: the histograms are bumped with plain
        ``dict.get`` increments, which skip ``Counter.__missing__``
        dispatch for new bucket keys (Counter is a dict subclass, so the
        buckets stay Counter-compatible for every consumer).
        """
        if write:
            self.writes += 1
            self.sectors_written += nsectors
            sizes = self.write_request_sizes
            sizes[nsectors] = sizes.get(nsectors, 0) + 1
        else:
            self.reads += 1
            self.sectors_read += nsectors
        sizes = self.request_sizes
        sizes[nsectors] = sizes.get(nsectors, 0) + 1
