"""Sector-address mapping: every volume layout is a map.

RAID-0 round-robins fixed-size *chunks* of consecutive sectors across the
member disks: chunk ``c`` of the volume lives on disk ``c % N`` at chunk
position ``c // N``. The map is exact and invertible; the property tests
(`tests/volume/test_mapping_property.py`) round-trip it under hypothesis.

Requests are split at chunk boundaries and the per-disk fragments merged
back into contiguous member requests: consecutive volume chunks landing on
the same disk (chunks ``d, d+N, d+2N, ...`` of a long sequential run) are
physically adjacent there, so a segment-sized volume write becomes exactly
one contiguous write per member — the shape that lets the per-spindle
clock model overlap them at ~max-over-disks cost instead of the sum.

Because each merged member request covers logically *interleaved* chunks,
every :class:`SubRequest` carries a scatter list mapping its buffer back
to offsets of the volume-level request.

:class:`ParityStripeMap` extends the math to RAID-5: each *stripe
row* (one chunk position across every member) dedicates one chunk to
parity, rotating left-symmetric, and the data→member placement skips the parity chunk, so a
volume of N members exposes N-1 chunks of capacity per row. The map stays
exact and invertible over the data chunks; parity chunks have no logical
address (``to_logical`` raises on them).

RAID-1 needs no class of its own: :func:`mirror_map` is the one-member,
one-chunk stripe, so the volume never has to ask whether it has a map.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SubRequest:
    """One contiguous member-disk request derived from a volume request.

    ``pieces`` maps the sub-request's buffer to the volume request's
    buffer: each ``(sub_off, logical_off, nsectors)`` says sectors
    ``[sub_off, sub_off + nsectors)`` of this member transfer correspond
    to sectors ``[logical_off, logical_off + nsectors)`` of the volume
    request. For an unmerged (single-chunk) sub-request there is exactly
    one piece with ``sub_off == 0``.
    """

    disk: int
    plba: int
    nsectors: int
    pieces: tuple[tuple[int, int, int], ...]


def chunk_runs(start: int, nsectors: int, chunk_sectors: int):
    """Cut ``[start, start + nsectors)`` at chunk boundaries.

    Yields ``(chunk, within, take, offset)`` per run: the chunk index, the
    sector offset inside it where the run starts, the run's length, and
    its offset from ``start``. The package's one chunk-split loop: request
    splitting, per-row grouping and the volume's walk over a failed
    member's extent (member address space, where the chunk index *is* the
    stripe row) all consume it.
    """
    pos = start
    end = start + nsectors
    while pos < end:
        chunk, within = divmod(pos, chunk_sectors)
        take = min(end - pos, chunk_sectors - within)
        yield chunk, within, take, pos - start
        pos += take


class StripeMap:
    """The RAID-0 address map: volume LBA ↔ (disk, member LBA).

    Only whole chunks are mapped: a member's trailing partial chunk (when
    its capacity is not chunk-aligned) is unaddressable, so every volume
    LBA in ``[0, total_sectors)`` maps inside every member.

    Subclasses change *placement* only — which member and chunk position a
    volume chunk occupies (:meth:`_place` and its inverse
    :meth:`_chunk_at`); range checks, splitting and merging are shared.
    """

    def __init__(self, n_disks: int, chunk_sectors: int, member_sectors: int) -> None:
        if n_disks < 1:
            raise ValueError(f"need at least one disk, got {n_disks}")
        if chunk_sectors < 1:
            raise ValueError(f"chunk must be at least one sector, got {chunk_sectors}")
        if member_sectors < chunk_sectors:
            raise ValueError(
                f"member of {member_sectors} sectors smaller than one "
                f"chunk of {chunk_sectors}"
            )
        self.n_disks = n_disks
        self.chunk_sectors = chunk_sectors
        self.chunks_per_disk = member_sectors // chunk_sectors
        self.usable_per_disk = self.chunks_per_disk * chunk_sectors
        self.total_sectors = n_disks * self.usable_per_disk

    def _place(self, chunk: int) -> tuple[int, int]:
        """Volume chunk index -> ``(disk, chunk position on that disk)``."""
        position, disk = divmod(chunk, self.n_disks)
        return disk, position

    def _chunk_at(self, disk: int, position: int) -> int:
        """Inverse of :meth:`_place`."""
        return position * self.n_disks + disk

    def check_range(self, lba: int, nsectors: int) -> None:
        """Raise unless ``[lba, lba + nsectors)`` is a non-empty in-volume extent."""
        if nsectors <= 0:
            raise ValueError(f"sector count must be positive: {nsectors}")
        if lba < 0 or lba + nsectors > self.total_sectors:
            raise ValueError(
                f"request [{lba}, {lba + nsectors}) outside volume of "
                f"{self.total_sectors} sectors"
            )

    def to_physical(self, lba: int) -> tuple[int, int]:
        """Volume LBA -> ``(disk index, member LBA)``."""
        if not 0 <= lba < self.total_sectors:
            raise ValueError(f"LBA {lba} out of range [0, {self.total_sectors})")
        chunk, within = divmod(lba, self.chunk_sectors)
        disk, position = self._place(chunk)
        return disk, position * self.chunk_sectors + within

    def to_logical(self, disk: int, plba: int) -> int:
        """``(disk index, member LBA)`` -> volume LBA (inverse of to_physical)."""
        if not 0 <= disk < self.n_disks:
            raise ValueError(f"disk {disk} out of range [0, {self.n_disks})")
        if not 0 <= plba < self.usable_per_disk:
            raise ValueError(
                f"member LBA {plba} out of range [0, {self.usable_per_disk})"
            )
        position, within = divmod(plba, self.chunk_sectors)
        return self._chunk_at(disk, position) * self.chunk_sectors + within

    def split(self, lba: int, nsectors: int) -> list[SubRequest]:
        """Split ``[lba, lba + nsectors)`` into contiguous member requests.

        Chunk fragments landing on the same member at adjacent physical
        positions are merged into one :class:`SubRequest`; the scatter
        ``pieces`` record where each fragment belongs in the volume
        request. Sub-requests are returned in ``(member, member LBA)``
        order, and each one's pieces in ascending physical (equivalently
        logical) order.

        A RAID-0 run revisits a member only at the physically adjacent
        next chunk, so it yields at most one sub-request per member. A
        parity layout *can* revisit a member at a non-adjacent position:
        the member held the parity chunk of an intermediate row, so its
        data chunks in rows ``r`` and ``r+2`` are separated by the parity
        chunk at row ``r+1``. Such revisits open a second
        :class:`SubRequest` for the member instead of merging.
        """
        self.check_range(lba, nsectors)
        chunk_sectors = self.chunk_sectors
        # Records [disk, plba, nsectors, pieces] under construction, and per
        # disk the one record a physically adjacent next chunk may extend.
        subs: list[list] = []
        last: dict[int, list] = {}
        for chunk, within, take, logical_off in chunk_runs(lba, nsectors, chunk_sectors):
            disk, position = self._place(chunk)
            plba = position * chunk_sectors + within
            current = last.get(disk)
            if current is not None and current[1] + current[2] == plba:
                current[3].append((current[2], logical_off, take))
                current[2] += take
            else:
                current = last[disk] = [disk, plba, take, [(0, logical_off, take)]]
                subs.append(current)
        subs.sort()  # (disk, plba) is unique, so pieces are never compared
        return [SubRequest(d, p, n, tuple(pieces)) for d, p, n, pieces in subs]

    def parity_rows(self, lba: int, nsectors: int) -> range:
        """Stripe rows whose parity covers ``[lba, lba + nsectors)``: none here."""
        return range(0)


def mirror_map(member_sectors: int) -> StripeMap:
    """The RAID-1 address map: one logical member, one chunk spanning it.

    Every replica holds the whole address space at identity offsets, so a
    mirror's *map* is the degenerate stripe: volume LBA ``x`` is sector
    ``x`` of logical member 0. Which spindles hold copies of that member
    is replication, not addressing, and lives in the volume.
    """
    return StripeMap(1, member_sectors, member_sectors)


@dataclass(frozen=True)
class RowFragment:
    """One data-chunk portion of a stripe row touched by a request.

    ``disk`` holds the chunk, ``within`` is the sector offset inside the
    chunk where the fragment starts, ``nsectors`` its length, and
    ``logical_off`` the fragment's sector offset inside the volume-level
    request — the parity write paths slice the request buffer with it.
    """

    disk: int
    within: int
    nsectors: int
    logical_off: int


class ParityStripeMap(StripeMap):
    """RAID-5 address map: N members, N-1 data chunks per stripe row.

    Chunk ``c`` of the volume lives in row ``c // (N-1)`` at data position
    ``c % (N-1)``; the row's parity chunk occupies one member and the data
    positions fill the remaining members *after* it, in ring order:
    ``disk = (parity + 1 + position) % N``. The parity member walks
    backwards one member per row (left-symmetric), so parity traffic
    spreads across all members instead of queueing on one.

    Member LBAs are unchanged from RAID-0 (``row * chunk + within``), so
    every chunk of one row sits at the same physical position on its
    member — reconstruction reads the *same* extent from every survivor.
    """

    def __init__(
        self,
        n_disks: int,
        chunk_sectors: int,
        member_sectors: int,
    ) -> None:
        if n_disks < 3:
            raise ValueError(
                f"parity layouts need at least 3 members, got {n_disks}"
            )
        super().__init__(n_disks, chunk_sectors, member_sectors)
        self.data_per_row = n_disks - 1
        #: Stripe rows (== chunk positions per member).
        self.rows = self.chunks_per_disk
        self.total_sectors = self.data_per_row * self.rows * chunk_sectors

    # -- row geometry ---------------------------------------------------

    def parity_disk(self, row: int) -> int:
        """Member holding ``row``'s parity chunk."""
        n = self.n_disks
        return (n - 1) - (row % n)

    def data_disk(self, row: int, position: int) -> int:
        """Member holding data position ``position`` (0..N-2) of ``row``."""
        return (self.parity_disk(row) + 1 + position) % self.n_disks

    def data_disks(self, row: int) -> list[int]:
        """The row's data members, in data-position order."""
        return [self.data_disk(row, d) for d in range(self.data_per_row)]

    def row_lba(self, row: int) -> int:
        """First member LBA of ``row``'s chunks (same on every member)."""
        return row * self.chunk_sectors

    # -- the address map ------------------------------------------------

    def _place(self, chunk: int) -> tuple[int, int]:
        row, position = divmod(chunk, self.data_per_row)
        return self.data_disk(row, position), row

    def _chunk_at(self, disk: int, row: int) -> int:
        parity = self.parity_disk(row)
        if disk == parity:
            raise ValueError(
                f"member {disk} holds row {row}'s parity chunk; "
                "parity has no logical address"
            )
        return row * self.data_per_row + (disk - parity - 1) % self.n_disks

    def parity_rows(self, lba: int, nsectors: int) -> range:
        """Stripe rows whose parity covers ``[lba, lba + nsectors)``."""
        row_sectors = self.data_per_row * self.chunk_sectors
        return range(lba // row_sectors, (lba + nsectors - 1) // row_sectors + 1)

    def split_rows(self, lba: int, nsectors: int) -> list[tuple[int, list[RowFragment]]]:
        """Group ``[lba, lba + nsectors)`` by stripe row.

        Returns ``(row, fragments)`` pairs in ascending row order; each
        fragment is one data-chunk portion the request touches. The
        parity write paths work row-at-a-time: a row whose fragments
        cover all ``N-1`` data chunks completely takes the full-stripe
        path, anything less takes read-modify-write.
        """
        self.check_range(lba, nsectors)
        rows: dict[int, list[RowFragment]] = {}
        for chunk, within, take, logical_off in chunk_runs(lba, nsectors, self.chunk_sectors):
            disk, row = self._place(chunk)
            rows.setdefault(row, []).append(RowFragment(disk, within, take, logical_off))
        return sorted(rows.items())
