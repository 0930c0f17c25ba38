"""What a parity volume remembers of the sectors it just wrote.

A read-modify-write needs the *old* bytes under the range it replaces — on
the data member and on the parity member — and the log above rewrites the
same few sectors over and over (the open slot's summary on every partial
flush, the boundary sector of every data tail), so most of those old bytes
are bytes the volume itself put on the members a moment ago. The
:class:`StripeCache` keeps them: a write-through shadow of the members'
media, filled by member writes only and consulted by the read-modify-write
pre-reads only. It is not a read cache — client reads neither fill nor
consult it.

**The one rule.** A resident sector holds exactly what the member's
``peek`` would return. Whatever changes a member's medium other than a
member write stored here — ``install``, ``corrupt``, a parity resync, a
replaced spindle, a power failure — drops what it touches; dropping is
always correct, keeping never is.

Built like :class:`repro.disk.store.ExtentStore`: fixed extents, one
``bytearray`` plus one "resident" flag byte per sector, a request moved
with one slice per extent touched, never one object per sector.
"""

from __future__ import annotations

from typing import Iterator

from repro.disk.store import EXTENT_SECTORS
from repro.volume.mapping import chunk_runs


class StripeCache:
    """Recently written member sectors, an extent at a time.

    The capacity is a function of the geometry, not a setting: two chunks'
    worth of sectors — the data chunk and the parity chunk of the stripe
    row the log is filling. Less, and the data tails written between two
    flushes push the summary's sectors out before the next flush rewrites
    them; more buys nothing (EXPERIMENTS.md, "The volume remembers what it
    wrote"). It is counted in allocated extents, so it bounds the memory
    held as well as the sectors resident, and the extent whose latest
    write is oldest leaves first.

    A member write of a whole chunk or more (a sealed image, a full
    stripe, the rebuild scanner's row) is not kept — it would flush
    everything else for bytes nothing rewrites in place — and only drops
    what it overlaps.
    """

    def __init__(self, sector_size: int, chunk_sectors: int) -> None:
        self.sector_size = sector_size
        self.chunk_sectors = chunk_sectors
        #: Sectors per extent: the store's, or the chunk when that is smaller.
        self.extent_sectors = min(EXTENT_SECTORS, chunk_sectors)
        self.max_extents = 2 * chunk_sectors // self.extent_sectors
        #: (member, extent index) -> (sector bytes, per-sector resident
        #: flags), least recently written first.
        self._extents: dict[tuple[int, int], tuple[bytearray, bytearray]] = {}

    def store(self, member: int, plba: int, payload) -> None:
        """Remember a member write of ``payload`` (whole sectors) at ``plba``."""
        size = self.sector_size
        view = memoryview(payload)  # slices per extent without copying twice
        nsectors = len(view) // size
        if nsectors >= self.chunk_sectors:
            self.drop(member, plba, nsectors)
            return
        extents = self._extents
        per_extent = self.extent_sectors
        for index, first, take, offset in chunk_runs(plba, nsectors, per_extent):
            key = (member, index)
            extent = extents.pop(key, None)
            if extent is None:
                if len(extents) < self.max_extents:
                    extent = (bytearray(per_extent * size), bytearray(per_extent))
                else:
                    # Full: the least recently written extent gives up its
                    # buffers (stale bytes under cleared flags are never read).
                    extent = extents.pop(next(iter(extents)))
                    extent[1][:] = bytes(per_extent)
            extents[key] = extent
            data, resident = extent
            data[first * size : (first + take) * size] = view[
                offset * size : (offset + take) * size
            ]
            resident[first : first + take] = b"\x01" * take

    def load(self, member: int, plba: int, nsectors: int) -> bytes | None:
        """``[plba, plba + nsectors)`` of ``member`` if every sector is resident."""
        size = self.sector_size
        extents = self._extents
        parts = []
        for index, first, take, _offset in chunk_runs(plba, nsectors, self.extent_sectors):
            extent = extents.get((member, index))
            if extent is None or extent[1].count(1, first, first + take) != take:
                return None
            parts.append(memoryview(extent[0])[first * size : (first + take) * size])
        return b"".join(parts)

    def drop(self, member: int, plba: int, nsectors: int) -> None:
        """Forget ``[plba, plba + nsectors)`` of ``member``."""
        extents = self._extents
        for index, first, take, _offset in chunk_runs(plba, nsectors, self.extent_sectors):
            extent = extents.get((member, index))
            if extent is None:
                continue
            resident = extent[1]
            resident[first : first + take] = bytes(take)
            if not any(resident):
                del extents[member, index]

    def drop_member(self, member: int) -> None:
        """Forget everything held for ``member`` (its medium was replaced)."""
        extents = self._extents
        for key in [key for key in extents if key[0] == member]:
            del extents[key]

    def clear(self) -> None:
        """Forget everything: main memory does not survive a power failure."""
        self._extents.clear()

    def resident_sectors(self) -> Iterator[tuple[int, int, bytes]]:
        """``(member, plba, contents)`` of every resident sector."""
        size = self.sector_size
        for (member, index), (data, resident) in self._extents.items():
            sector = resident.find(1)
            while sector >= 0:
                yield (
                    member,
                    index * self.extent_sectors + sector,
                    bytes(data[sector * size : (sector + 1) * size]),
                )
                sector = resident.find(1, sector + 1)
