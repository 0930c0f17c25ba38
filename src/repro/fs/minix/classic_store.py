"""The classic MINIX block store: bitmaps, fixed layout, allocate-near.

Disk layout (in ``block_size`` units)::

    block 0        superblock
    blocks 1..     i-node bitmap
    ...            zone bitmap
    ...            i-node table
    first_data..   data zones (zone number == absolute block number)

Writes leave the buffer cache one block at a time (classic ``sync``/LRU
eviction behaviour) — this is precisely what makes plain MINIX slow on the
paper's write benchmarks: every 4 KB write is its own disk request and
misses the rotational window. Reads are a block at a time as well: a
multi-block file request (``read_zones``) is the inherited ``read_zone``
loop, and ``prefetch`` is the only place consecutive zones share a request.
"""

from __future__ import annotations

import struct

from repro.disk.disk import SimulatedDisk
from repro.fs.api import NoSpace
from repro.fs.cache import BufferCache
from repro.fs.minix.inode import INODE_SIZE
from repro.fs.minix.store import BlockStore, StoreStats, lowest_clear_bit

SECTOR = 512

_SUPER = struct.Struct("<4sIIIII")
_MAGIC = b"MNX1"


class ClassicStore(BlockStore):
    """Plain MINIX storage on a raw simulated disk."""

    def __init__(self, disk: SimulatedDisk, block_size: int = 4096, cache_bytes: int = 6144 * 1024) -> None:
        if block_size % SECTOR != 0:
            raise ValueError(f"block size must be sector-aligned: {block_size}")
        self.disk = disk
        self.block_size = block_size
        self.stats = StoreStats()
        self.cache = BufferCache(cache_bytes, self._writeback)
        self._sectors_per_block = block_size // SECTOR
        self.total_blocks = disk.geometry.total_sectors // self._sectors_per_block
        self._ninodes = 0
        self.first_data = 0
        self._imap_start = 1
        self._zmap_start = 0
        self._itable_start = 0
        self._mounted = False

    # ------------------------------------------------------------------
    # Layout and lifecycle
    # ------------------------------------------------------------------

    def _compute_layout(self, ninodes: int) -> None:
        bits_per_block = self.block_size * 8
        self._ninodes = ninodes
        imap_blocks = (ninodes + bits_per_block - 1) // bits_per_block
        zmap_blocks = (self.total_blocks + bits_per_block - 1) // bits_per_block
        itable_blocks = (ninodes * INODE_SIZE + self.block_size - 1) // self.block_size
        self._imap_start = 1
        self._zmap_start = self._imap_start + imap_blocks
        self._itable_start = self._zmap_start + zmap_blocks
        self.first_data = self._itable_start + itable_blocks
        if self.first_data >= self.total_blocks:
            raise NoSpace("disk too small for the requested i-node count")

    def mkfs(self, ninodes: int) -> None:
        self._compute_layout(ninodes)
        super_block = _SUPER.pack(
            _MAGIC,
            ninodes,
            self.total_blocks,
            self._zmap_start - self._imap_start,
            self._itable_start - self._zmap_start,
            self.first_data,
        )
        self._put_block(0, super_block + b"\x00" * (self.block_size - _SUPER.size))
        for block in range(1, self.first_data):
            self._put_block(block, b"\x00" * self.block_size)
        # Bit 0 of each bitmap is reserved so 0 never names a real object.
        self._set_bit(self._imap_start, 0, True)
        self._set_bit(self._zmap_start, 0, True)
        # Zones below first_data are not allocatable: pre-mark them used.
        for zone in range(1, self.first_data):
            self._set_bit(self._zmap_start, zone, True)
        self._mounted = True

    def mount(self) -> None:
        raw = self.disk.read(0, self._sectors_per_block)
        magic, ninodes, total, imap_blocks, zmap_blocks, first_data = _SUPER.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise ValueError("not a MINIX file system")
        self._compute_layout(ninodes)
        if self.first_data != first_data:
            raise ValueError("superblock layout mismatch")
        self._mounted = True

    def sync(self) -> None:
        self.stats.syncs += 1
        self.cache.flush()

    def drop_caches(self) -> None:
        self.cache.drop()

    @property
    def clock(self):
        return self.disk.clock

    @property
    def ninodes(self) -> int:
        return self._ninodes

    # ------------------------------------------------------------------
    # Raw block access through the cache
    # ------------------------------------------------------------------

    def _writeback(self, block: int, data: bytes) -> None:
        self.disk.write(block * self._sectors_per_block, data)

    def _get_block(self, block: int) -> bytes:
        cached = self.cache.get(block)
        if cached is not None:
            return cached
        data = self.disk.read(block * self._sectors_per_block, self._sectors_per_block)
        self.cache.put(block, data, dirty=False)
        return data

    def _put_block(self, block: int, data: bytes) -> None:
        if len(data) != self.block_size:
            raise ValueError(f"block must be {self.block_size} bytes, got {len(data)}")
        self.cache.put(block, data, dirty=True)

    # ------------------------------------------------------------------
    # Bitmaps
    # ------------------------------------------------------------------

    def _bit_location(self, map_start: int, index: int) -> tuple[int, int, int]:
        bits_per_block = self.block_size * 8
        block = map_start + index // bits_per_block
        within = index % bits_per_block
        return block, within // 8, within % 8

    def _set_bit(self, map_start: int, index: int, value: bool) -> None:
        block, byte, bit = self._bit_location(map_start, index)
        data = bytearray(self._get_block(block))
        if value:
            data[byte] |= 1 << bit
        else:
            data[byte] &= ~(1 << bit)
        self._put_block(block, bytes(data))

    def _find_free_bit(self, map_start: int, limit: int, start: int) -> int:
        """Lowest clear bit in ``[start, limit)``, else in ``[1, start)``.

        Reads each bitmap block it crosses once, in ascending order.
        """
        bits_per_block = self.block_size * 8
        for lo, hi in ((start, limit), (1, start)):
            if lo >= hi:
                continue
            for block in range(lo // bits_per_block, (hi - 1) // bits_per_block + 1):
                base = block * bits_per_block
                bit = lowest_clear_bit(
                    self._get_block(map_start + block),
                    max(lo - base, 0),
                    min(hi - base, bits_per_block),
                )
                if bit >= 0:
                    return base + bit
        raise NoSpace("bitmap exhausted")

    # ------------------------------------------------------------------
    # Zones
    # ------------------------------------------------------------------

    def read_zone(self, zone: int) -> bytes:
        self.stats.zone_reads += 1
        return self._get_block(zone)

    def write_zone(self, zone: int, data: bytes, sync: bool = False) -> None:
        self.stats.zone_writes += 1
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        self._put_block(zone, data)

    def prefetch(self, zones: list[int]) -> None:
        """Read-ahead: coalesce physically-consecutive zones into one I/O.

        The window refills only when its leading zone has been consumed;
        otherwise every sequential read would trigger a one-block I/O at
        the trailing edge, defeating the batching entirely.
        """
        if not zones or zones[0] in self.cache:
            return
        missing = [z for z in zones if z not in self.cache]
        run_start = None
        previous = None
        for zone in missing + [None]:
            if run_start is None:
                run_start = previous = zone
                continue
            if zone is not None and zone == previous + 1:
                previous = zone
                continue
            count = previous - run_start + 1
            raw = self.disk.read(
                run_start * self._sectors_per_block,
                count * self._sectors_per_block,
            )
            for i in range(count):
                self.cache.put(
                    run_start + i,
                    raw[i * self.block_size : (i + 1) * self.block_size],
                    dirty=False,
                )
            run_start = previous = zone

    def alloc_zone(self, ctx: int, prev_zone: int) -> int:
        start = prev_zone + 1 if prev_zone else self.first_data
        start = max(start, self.first_data)
        zone = self._find_free_bit(self._zmap_start, self.total_blocks, start)
        if zone < self.first_data:
            raise NoSpace("no data zones free")
        self._set_bit(self._zmap_start, zone, True)
        self.stats.zones_allocated += 1
        return zone

    def free_zone(self, zone: int, ctx: int, prev_hint: int) -> None:
        self._set_bit(self._zmap_start, zone, False)
        self.cache.forget(zone)
        self.stats.zones_freed += 1

    # ------------------------------------------------------------------
    # I-nodes
    # ------------------------------------------------------------------

    def _inode_location(self, ino: int) -> tuple[int, int]:
        per_block = self.block_size // INODE_SIZE
        index = ino - 1
        return self._itable_start + index // per_block, (index % per_block) * INODE_SIZE

    def read_inode_raw(self, ino: int) -> bytes:
        self.stats.inode_reads += 1
        block, offset = self._inode_location(ino)
        return self._get_block(block)[offset : offset + INODE_SIZE]

    def write_inode_raw(self, ino: int, data: bytes, sync: bool = False) -> None:
        self.stats.inode_writes += 1
        block, offset = self._inode_location(ino)
        raw = bytearray(self._get_block(block))
        raw[offset : offset + INODE_SIZE] = data
        self._put_block(block, bytes(raw))

    def alloc_inode(self) -> int:
        ino = self._find_free_bit(self._imap_start, self._ninodes + 1, 1)
        self._set_bit(self._imap_start, ino, True)
        self.stats.inodes_allocated += 1
        return ino

    def free_inode(self, ino: int) -> None:
        self._set_bit(self._imap_start, ino, False)
        self.stats.inodes_freed += 1

    # ------------------------------------------------------------------
    # File contexts: meaningless for the classic store
    # ------------------------------------------------------------------

    def new_file_context(self, near_ctx: int, directory: bool = False) -> int:
        return 0

    def delete_file_context(self, ctx: int) -> None:
        return None
