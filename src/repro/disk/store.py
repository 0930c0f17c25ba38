"""Sparse sector storage for the simulated disk: bytes live in extents.

The disk's request path moves whole runs of sectors — a 0.5 MB LLD
segment is 1 024 of them — so the store keeps bytes in fixed-size
extents and moves each request with one slice per extent touched,
never one Python object per sector.
"""

from __future__ import annotations

from typing import Iterator

#: Sectors per extent (64 KB at 512-byte sectors). A constant, not a
#: setting: it only trades allocation granularity against slices per
#: request, and nothing observable — bytes, ``populated``, simulated time
#: — depends on it.
EXTENT_SECTORS = 128

_ALL_WRITTEN = b"\x01" * EXTENT_SECTORS


def sector_view(data, sector_size: int, what: str) -> tuple[memoryview, int]:
    """``data`` as a byte view plus its whole-sector count, or ValueError.

    The byte view is taken before anything is measured: ``len()`` of a
    non-byte ``memoryview`` counts items, not bytes.
    """
    view = memoryview(data).cast("B")
    nsectors, ragged = divmod(len(view), sector_size)
    if ragged:
        raise ValueError(
            f"{what} length {len(view)} is not a multiple of sector size {sector_size}"
        )
    return view, nsectors


def fill(into, parts):
    """Write the byte buffers ``parts`` end to end into ``into`` (which
    they fill exactly) and return ``into``."""
    at = 0
    for part in parts:
        into[at : at + len(part)] = part
        at += len(part)
    return into


class ExtentStore:
    """Sector contents of one disk, allocated an extent at a time.

    An extent is a zero-filled ``bytearray`` of :data:`EXTENT_SECTORS`
    sectors created by the first write that touches it, plus one "ever
    written" flag byte per sector. Guarantees:

    * sectors never written read back as zeros, whether or not their
      extent exists;
    * :attr:`populated` is the exact number of distinct sectors ever
      written, and :meth:`written_sectors` lists exactly those;
    * ``read`` copies each byte once (into the returned ``bytes``, or the
      caller's buffer) and ``write`` once (into the extent).

    Callers validate ranges; the store trusts ``lba`` and lengths.
    """

    def __init__(self, sector_size: int) -> None:
        self.sector_size = sector_size
        #: Number of distinct sectors ever written.
        self.populated = 0
        #: extent index -> (sector bytes, per-sector written flags)
        self._extents: dict[int, tuple[bytearray, bytearray]] = {}

    def read(self, lba: int, nsectors: int, into=None):
        """Contents of ``[lba, lba + nsectors)``: new ``bytes``, or written
        into ``into`` (a writable buffer of exactly that many bytes), which
        is returned."""
        size = self.sector_size
        extents = self._extents
        index, first = divmod(lba, EXTENT_SECTORS)
        parts = []
        while nsectors:
            take = min(nsectors, EXTENT_SECTORS - first)
            extent = extents.get(index)
            if extent is None:
                parts.append(bytes(take * size))
            else:
                parts.append(memoryview(extent[0])[first * size : (first + take) * size])
            nsectors -= take
            index += 1
            first = 0
        if into is None:
            return b"".join(parts)
        return fill(into, parts)

    def write(self, lba: int, view: memoryview) -> None:
        """Store ``view`` (a byte view of whole sectors) starting at ``lba``."""
        size = self.sector_size
        extents = self._extents
        index, first = divmod(lba, EXTENT_SECTORS)
        remaining = len(view) // size
        offset = 0
        while remaining:
            take = min(remaining, EXTENT_SECTORS - first)
            extent = extents.get(index)
            if extent is None:
                extent = extents[index] = (
                    bytearray(EXTENT_SECTORS * size),
                    bytearray(EXTENT_SECTORS),
                )
            data, written = extent
            nbytes = take * size
            data[first * size : first * size + nbytes] = view[offset : offset + nbytes]
            fresh = take - written.count(1, first, first + take)
            if fresh:
                written[first : first + take] = _ALL_WRITTEN[:take]
                self.populated += fresh
            remaining -= take
            offset += nbytes
            index += 1
            first = 0

    def written_sectors(self) -> Iterator[tuple[int, bytes]]:
        """``(lba, contents)`` of every sector ever written, ascending LBA."""
        size = self.sector_size
        for index in sorted(self._extents):
            data, written = self._extents[index]
            sector = written.find(1)
            while sector >= 0:
                yield (
                    index * EXTENT_SECTORS + sector,
                    bytes(data[sector * size : (sector + 1) * size]),
                )
                sector = written.find(1, sector + 1)

    def copy(self) -> "ExtentStore":
        """Independent copy: one ``bytearray`` copy per allocated extent."""
        clone = ExtentStore(self.sector_size)
        clone.populated = self.populated
        clone._extents = {
            index: (bytearray(data), bytearray(written))
            for index, (data, written) in self._extents.items()
        }
        return clone
