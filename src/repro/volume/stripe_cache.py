"""What a parity volume remembers of its members' media.

A read-modify-write needs the *old* bytes under the range it replaces — on
the data member and on the parity member — and those old bytes are mostly
known without a read. The log above rewrites the same few sectors over and
over (the open slot's summary on every partial flush, the boundary sector
of every data tail), so many are bytes the volume itself put on the
members a moment ago; and until the log wraps, most are sectors nobody has
written at all, which read as zeros. The :class:`StripeCache` knows both
kinds: a write-through shadow of the sectors member writes put down, and
a *blank record* of the sectors this volume has never written, taken at
construction from members that had never been written either. It is
consulted by a row write's pre-reads only — a healthy partial row's
candidates for both ways of computing parity, since which member reads are
left after it answers is what the row's choice between them weighs, and a
degraded row's trusted chunks (never the untrusted one: its medium is
stale by design). It is not a read cache — client reads neither fill nor
consult it.

**The one rule.** A resident sector holds exactly what the member's
``peek`` would return, and a blank one reads as zeros there. A member
write stored here makes what it covers resident (a whole chunk: drops it)
and takes it off the blank record; whatever else changes a member's
medium — ``install``, ``corrupt``, a parity resync — drops what it
touches, off the record too, so the record only ever loses sectors, but
for one case: the rebuild scanner puts a replacement that came blank on
it (:meth:`StripeCache.blank`) where a finished row is blank on every
other member, a step's range at a time, since nothing has written it yet. A member that
fails or is replaced forgets everything held for it, a power failure
everything. Dropping is always correct, keeping never is.

Built like :class:`repro.disk.store.ExtentStore`: fixed extents, one
``bytearray`` plus one "resident" flag byte per sector, a request moved
with one slice per extent touched, never one object per sector. The blank
record costs nothing per sector: a sorted list of run boundaries per
member, which writes split and trim.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.disk.store import EXTENT_SECTORS
from repro.volume.mapping import chunk_runs


class StripeCache:
    """Recently written member sectors, an extent at a time, and the
    sectors of each member never written at all.

    The capacity is a function of the geometry, not a setting: two chunks'
    worth of sectors — the data chunk and the parity chunk of the stripe
    row the log is filling. Less, and the data tails written between two
    flushes push the summary's sectors out before the next flush rewrites
    them; more buys nothing (EXPERIMENTS.md, "The volume remembers what it
    wrote"). It is counted in allocated extents, so it bounds the memory
    held as well as the sectors resident, and the extent whose latest
    write is oldest leaves first. The blank record is outside it: it holds
    no bytes.

    A member write of a whole chunk or more (a sealed image, a full
    stripe) is not kept — it would flush everything else for bytes
    nothing rewrites in place — and only drops what it overlaps; the
    rebuild scanner's writes are dropped the same way, a step at a time.
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
        #: The blank record: member -> ascending boundaries ``[start, end,
        #: start, end, ...]`` of the runs of sectors never written; a
        #: sector is blank when an odd number of boundaries are <= it.
        self._blank: dict[int, list[int]] = {}
        #: What a blank run of a partly resident range is answered with (a
        #: pre-read never spans more than one chunk).
        self._zeros = memoryview(bytes(chunk_sectors * sector_size))

    def record_blank(self, member: int, nsectors: int) -> None:
        """Put ``member``'s first ``nsectors`` sectors on record as never
        written: only for a medium whose every sector reads as zeros."""
        self._blank[member] = [0, nsectors]

    def blank(self, member: int, plba: int, nsectors: int) -> None:
        """Put ``[plba, plba + nsectors)`` of ``member`` on the blank record:
        sectors the caller knows read as zeros. Nothing of it stays
        resident."""
        self._unresident(member, plba, nsectors)
        bounds = self._blank.setdefault(member, [])
        end = plba + nsectors
        first = bisect_left(bounds, plba)
        last = bisect_right(bounds, end)
        # A run that ends at ``plba`` or starts at ``end`` joins the new one;
        # every boundary between goes.
        bounds[first:last] = [plba] * (1 - (first & 1)) + [end] * (1 - (last & 1))

    def all_blank(self, member: int, plba: int, nsectors: int) -> bool:
        """Is every sector of ``[plba, plba + nsectors)`` of ``member`` blank?"""
        bounds = self._blank.get(member)
        if not bounds:
            return False
        edge = bisect_right(bounds, plba)
        return bool(edge & 1) and bounds[edge] >= plba + nsectors

    def store(self, member: int, plba: int, payload) -> None:
        """Remember a member write of ``payload`` (whole sectors) at ``plba``."""
        size = self.sector_size
        view = memoryview(payload)  # slices per extent without copying twice
        nsectors = len(view) // size
        if nsectors >= self.chunk_sectors:
            self.drop(member, plba, nsectors)
            return
        self._written(member, plba, nsectors)
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

    def find(self, member: int, plba: int, nsectors: int) -> list[memoryview] | None:
        """Views of ``[plba, plba + nsectors)`` of ``member`` — one per
        blank run, one per extent of resident sectors — if every sector is
        blank or resident; None otherwise. An empty list means every
        sector is blank: the range reads as zeros, and nothing stands for
        it. Nothing is copied until the caller joins the views, and they
        hold until the next :meth:`store`."""
        bounds = self._blank.get(member)
        if not bounds:
            return self._resident(member, plba, nsectors, [])
        end = plba + nsectors
        at = plba
        parts: list[memoryview] = []
        blank_only = True
        # Walk the range a run at a time: ``edge`` indexes the next boundary.
        edge = bisect_right(bounds, at)
        while at < end:
            stop = min(end, bounds[edge]) if edge < len(bounds) else end
            if edge & 1:
                parts.append(self._zeros[: (stop - at) * self.sector_size])
            elif self._resident(member, at, stop - at, parts) is None:
                return None
            else:
                blank_only = False
            at = stop
            edge += 1
        return [] if blank_only else parts

    def _resident(self, member: int, plba: int, nsectors: int, parts: list) -> list | None:
        """``parts`` extended by views of ``[plba, plba + nsectors)`` if every
        sector is resident, else None."""
        size = self.sector_size
        extents = self._extents
        for index, first, take, _offset in chunk_runs(plba, nsectors, self.extent_sectors):
            extent = extents.get((member, index))
            if extent is None or extent[1].count(1, first, first + take) != take:
                return None
            parts.append(memoryview(extent[0])[first * size : (first + take) * size])
        return parts

    def load(self, member: int, plba: int, nsectors: int) -> bytes | None:
        """``[plba, plba + nsectors)`` of ``member`` if every sector is
        blank or resident."""
        parts = self.find(member, plba, nsectors)
        if parts is None:
            return None
        return b"".join(parts) if parts else bytes(nsectors * self.sector_size)

    def drop(self, member: int, plba: int, nsectors: int) -> None:
        """Forget ``[plba, plba + nsectors)`` of ``member``."""
        self._written(member, plba, nsectors)
        self._unresident(member, plba, nsectors)

    def _unresident(self, member: int, plba: int, nsectors: int) -> None:
        """Clear the resident flags of ``[plba, plba + nsectors)`` of ``member``."""
        extents = self._extents
        if not extents or nsectors <= 0:
            return
        per = self.extent_sectors
        end = plba + nsectors
        low, high = plba // per, (end - 1) // per
        if high - low >= len(extents):  # fewer extents held than spanned
            keys = [key for key in extents if key[0] == member and low <= key[1] <= high]
        else:
            keys = [(member, i) for i in range(low, high + 1) if (member, i) in extents]
        for key in keys:
            base = key[1] * per
            first, stop = max(plba, base) - base, min(end, base + per) - base
            resident = extents[key][1]
            resident[first:stop] = bytes(stop - first)
            if not any(resident):
                del extents[key]

    def _written(self, member: int, plba: int, nsectors: int) -> None:
        """Take ``[plba, plba + nsectors)`` of ``member`` off the blank record."""
        bounds = self._blank.get(member)
        if bounds:
            end = plba + nsectors
            first = bisect_left(bounds, plba)
            last = bisect_right(bounds, end)
            # A blank run cut at ``plba`` ends there; one cut at ``end``
            # resumes there. Every boundary between goes.
            bounds[first:last] = [plba] * (first & 1) + [end] * (last & 1)

    def drop_member(self, member: int) -> None:
        """Forget everything held for ``member``, its blank record too (it
        failed, or its medium was replaced)."""
        self._blank.pop(member, None)
        extents = self._extents
        for key in [key for key in extents if key[0] == member]:
            del extents[key]

    def clear(self) -> None:
        """Forget everything: main memory does not survive a power failure."""
        self._extents.clear()
        self._blank.clear()

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

    def blank_runs(self) -> Iterator[tuple[int, int, int]]:
        """``(member, plba, nsectors)`` of every run on the blank record."""
        for member, bounds in self._blank.items():
            for start, end in zip(bounds[::2], bounds[1::2]):
                yield member, start, end - start
