"""Bandwidth model for the compressor.

The paper (section 4.2) reports MINIX LLD with compression writing at
1600 KB/s — within 21% of the uncompressed 2000+ KB/s because compression of
one segment is *pipelined* with the disk write of the previous segment — and
reading at 800 KB/s because decompression cannot be overlapped with reads.

This module charges those CPU costs to the virtual clock. The
bandwidths are calibrated to a 1993-era workstation so the reproduced
throughput table keeps the paper's shape.
"""

from __future__ import annotations

from repro.compress.lzrw import compress, decompress
from repro.sim.bandwidth import BandwidthModel
from repro.sim.clock import VirtualClock

# Calibrated to reproduce the paper's 1600 KB/s write (pipelined) and
# 800 KB/s read (serial) throughput on the simulated HP C3010.
COMPRESS_BW = 2200 * 1024
DECOMPRESS_BW = 1400 * 1024


class CompressionModel:
    """Compress/decompress with simulated CPU cost.

    Compression can be pipelined with the previous segment's disk write
    (``pipelined=True`` on :meth:`compress_bytes`), decompression is always
    serial with the read that produced the data.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._compress_bw = BandwidthModel(clock, COMPRESS_BW)
        self._decompress_bw = BandwidthModel(clock, DECOMPRESS_BW)
        self.bytes_in = 0
        self.bytes_out = 0

    def compress_bytes(self, data: bytes, pipelined: bool = False) -> bytes:
        """Compress ``data``, charging CPU time for the *input* size."""
        if pipelined:
            self._compress_bw.charge_pipelined(len(data))
        else:
            self._compress_bw.charge(len(data))
        out = compress(data)
        self.bytes_in += len(data)
        self.bytes_out += len(out)
        return out

    def decompress_bytes(self, data: bytes, original_length: int) -> bytes:
        """Decompress, charging CPU time for the *output* size."""
        self._decompress_bw.charge(original_length)
        return decompress(data, original_length)

    def drain_pipeline(self) -> float:
        """Wait for any pipelined compression still in flight."""
        return self._compress_bw.wait_for_stage()

    @property
    def achieved_ratio(self) -> float:
        """Aggregate compressed/original ratio observed so far."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_out / self.bytes_in
