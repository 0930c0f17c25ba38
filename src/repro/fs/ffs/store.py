"""The FFS/SunOS-style block store."""

from __future__ import annotations

from repro.disk.disk import SimulatedDisk
from repro.fs.api import NoSpace
from repro.fs.minix.classic_store import ClassicStore

#: Maximum blocks coalesced into one clustered write (FFS ``maxcontig``).
MAX_CONTIG = 7

#: SunOS's 8 KB blocks, and the blocks of one cylinder group.
BLOCK_SIZE = 8192
BLOCKS_PER_GROUP = 2048


class FFSStore(ClassicStore):
    """Classic layout plus cylinder groups, sync metadata, write clustering."""

    block_size = BLOCK_SIZE

    def __init__(self, disk: SimulatedDisk, cache_bytes: int = 6144 * 1024) -> None:
        super().__init__(disk, cache_bytes=cache_bytes)
        self._group_rotor = 0

    # ------------------------------------------------------------------
    # Cylinder groups
    # ------------------------------------------------------------------

    @property
    def group_count(self) -> int:
        data_blocks = self.total_blocks - self.first_data
        return max(1, data_blocks // BLOCKS_PER_GROUP)

    def _group_start(self, group: int) -> int:
        return self.first_data + group * BLOCKS_PER_GROUP

    def new_file_context(self, near_ctx: int, directory: bool = False) -> int:
        """Pick a cylinder group.

        Files created in a directory share the parent's group
        (``near_ctx``); directories rotate across groups (the classic FFS
        policy). Contexts are ``group + 1`` so 0 keeps meaning "none".
        """
        if not directory and near_ctx > 0:
            return near_ctx
        self._group_rotor = (self._group_rotor + 1) % self.group_count
        return self._group_rotor + 1

    def delete_file_context(self, ctx: int) -> None:
        return None

    def alloc_zone(self, ctx: int, prev_zone: int) -> int:
        """Allocate near the previous block, else inside the file's group."""
        if prev_zone:
            start = prev_zone + 1
        elif ctx > 0:
            start = self._group_start((ctx - 1) % self.group_count)
        else:
            start = self.first_data
        start = max(start, self.first_data)
        zone = self._find_free_bit(self._zmap_start, self.total_blocks, start)
        if zone < self.first_data:
            raise NoSpace("no data zones free")
        self._set_bit(self._zmap_start, zone, True)
        self.stats.zones_allocated += 1
        return zone

    # ------------------------------------------------------------------
    # Synchronous metadata
    # ------------------------------------------------------------------

    def write_zone(self, zone: int, data: bytes, sync: bool = False) -> None:
        super().write_zone(zone, data, sync=sync)
        if sync:
            self.cache.flush(keys=[zone])

    def write_inode_raw(self, ino: int, data: bytes, sync: bool = False) -> None:
        super().write_inode_raw(ino, data, sync=sync)
        if sync:
            block, _offset = self._inode_location(ino)
            self.cache.flush(keys=[block])

    # ------------------------------------------------------------------
    # Write clustering (EFS-style delayed-write coalescing)
    # ------------------------------------------------------------------

    def _writeback(self, block: int, data: bytes) -> None:
        """Write ``block`` plus any contiguous dirty neighbours in one I/O."""
        run: list[tuple[int, bytes]] = [(block, data)]
        neighbour = block + 1
        while (
            len(run) < MAX_CONTIG
            and self.cache.is_dirty(neighbour)
            and (cached := self.cache.peek(neighbour)) is not None
        ):
            run.append((neighbour, cached))
            self.cache.clean(neighbour)
            neighbour += 1
        neighbour = block - 1
        while (
            len(run) < MAX_CONTIG
            and self.cache.is_dirty(neighbour)
            and (cached := self.cache.peek(neighbour)) is not None
        ):
            run.insert(0, (neighbour, cached))
            self.cache.clean(neighbour)
            neighbour -= 1
        first = run[0][0]
        payload = b"".join(chunk for _key, chunk in run)
        self.disk.write(first * self._sectors_per_block, payload)
