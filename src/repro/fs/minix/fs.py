"""The MINIX file-system core.

Paths, directories, i-nodes, and the direct/indirect/double-indirect zone
tree. All storage goes through a :class:`~repro.fs.minix.store.BlockStore`,
so the same core runs as plain MINIX (classic store) and as MINIX LLD
(LD store) — the structural point of the paper.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.fs.api import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    FileStat,
    FileSystemError,
    IsADir,
    NotADir,
    split_path,
)
from repro.fs.minix.inode import I_DIR, I_FILE, INODE_SIZE, NDIRECT, Inode
from repro.fs.minix.store import BlockStore

DIRENT = struct.Struct("<I60s")
DIRENT_SIZE = 64
ROOT_INO = 1


def _decode_dirents(raw: bytes) -> dict[bytes, tuple[int, int]]:
    """A directory block as ``{name: (ino, slot)}``, in slot order.

    Free slots (``ino == 0``) are left out; of two entries with one name
    the lowest slot wins, as in a linear scan. Whether a slot lies inside
    the directory is the caller's business — ``_dir_remove`` leaves the
    moved-from tail entry's bytes in place past ``inode.size``.
    """
    table: dict[bytes, tuple[int, int]] = {}
    for slot, (ino, name) in enumerate(DIRENT.iter_unpack(raw)):
        if ino:
            table.setdefault(name.rstrip(b"\x00"), (ino, slot))
    return table


@dataclass
class _OpenFile:
    ino: int
    pos: int = 0
    seq_end: int = 0  # last sequential read position (read-ahead detection)


@dataclass
class FSStats:
    files_created: int = 0
    files_deleted: int = 0
    dirs_created: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    readaheads: int = 0


class MinixFS:
    """A POSIX-flavoured MINIX file system over a pluggable block store."""

    def __init__(self, store: BlockStore, readahead: bool = True, readahead_blocks: int = 8) -> None:
        self.store = store
        self.readahead = readahead
        self.readahead_blocks = readahead_blocks
        self.stats = FSStats()
        self.block_size = store.block_size
        self._pointers_per_block = self.block_size // 4
        self._pointer_block = struct.Struct(f"<{self._pointers_per_block}I")
        # One function object for the life of the FS: the cache keys its
        # memoised views on decoder identity.
        self._decode_pointers = self._pointer_block.unpack_from
        self._fds: dict[int, _OpenFile] = {}
        self._next_fd = 3

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def mkfs(self, ninodes: int = 4096) -> None:
        """Create an empty file system with a root directory."""
        self.store.mkfs(ninodes)
        ino = self.store.alloc_inode()
        if ino != ROOT_INO:
            raise FileSystemError(f"expected root i-node 1, got {ino}")
        root = Inode(mode=I_DIR, nlinks=1, mtime=self._now())
        root.lid = self.store.new_file_context(0, directory=True)
        self._iput(ROOT_INO, root)

    def mount(self) -> None:
        """Attach to an existing file system."""
        self.store.mount()

    def sync(self) -> None:
        """Flush everything to stable storage."""
        self.store.sync()

    def drop_caches(self) -> None:
        """Sync and empty the buffer cache (benchmark phase boundary)."""
        self.store.drop_caches()

    def _now(self) -> int:
        return int(self.store.clock.now)

    # ------------------------------------------------------------------
    # I-node plumbing
    # ------------------------------------------------------------------

    def _iget(self, ino: int) -> Inode:
        return Inode.unpack(self.store.read_inode_raw(ino))

    def _iput(self, ino: int, inode: Inode, sync: bool = False) -> None:
        self.store.write_inode_raw(ino, inode.pack(), sync=sync)

    # ------------------------------------------------------------------
    # Zone mapping: 7 direct, 1 indirect, 1 double indirect
    # ------------------------------------------------------------------

    def _read_pointers(self, zone: int) -> tuple[int, ...]:
        """An indirect block's pointers: the cached, shared, read-only parse.

        Paths that change a pointer copy to a list first and write the
        block back, which replaces the buffer and with it this tuple.
        """
        self.store.read_zone(zone)
        return self.store.cache.view(zone, self._decode_pointers)

    def _write_pointers(self, zone: int, pointers: list[int]) -> None:
        self.store.write_zone(zone, self._pointer_block.pack(*pointers))

    def _bmap(
        self,
        inode: Inode,
        index: int,
        allocate: bool,
        prev_zone: int = 0,
    ) -> int:
        """Map file-block ``index`` to a zone; optionally allocating.

        Returns 0 for an unmapped index when ``allocate`` is False.
        ``prev_zone`` is the placement/predecessor hint (the previous
        file block's zone).
        """
        pointers = self._pointers_per_block
        if index < NDIRECT:
            zone = inode.zones[index]
            if zone == 0 and allocate:
                zone = self.store.alloc_zone(inode.lid, prev_zone)
                inode.zones[index] = zone
            return zone
        index -= NDIRECT
        if index < pointers:
            return self._bmap_indirect(inode, 7, index, allocate, prev_zone)
        index -= pointers
        if index < pointers * pointers:
            return self._bmap_double(inode, index, allocate, prev_zone)
        raise FileSystemError("file too large for the zone tree")

    def _bmap_indirect(
        self, inode: Inode, slot: int, index: int, allocate: bool, prev_zone: int
    ) -> int:
        indirect = inode.zones[slot]
        if indirect == 0:
            if not allocate:
                return 0
            indirect = self.store.alloc_zone(inode.lid, prev_zone)
            inode.zones[slot] = indirect
            self._write_pointers(indirect, [0] * self._pointers_per_block)
        table = self._read_pointers(indirect)
        zone = table[index]
        if zone == 0 and allocate:
            zone = self.store.alloc_zone(inode.lid, prev_zone)
            table = list(table)
            table[index] = zone
            self._write_pointers(indirect, table)
        return zone

    def _bmap_double(
        self, inode: Inode, index: int, allocate: bool, prev_zone: int
    ) -> int:
        pointers = self._pointers_per_block
        outer, inner = divmod(index, pointers)
        double = inode.zones[8]
        if double == 0:
            if not allocate:
                return 0
            double = self.store.alloc_zone(inode.lid, prev_zone)
            inode.zones[8] = double
            self._write_pointers(double, [0] * pointers)
        level1 = self._read_pointers(double)
        indirect = level1[outer]
        if indirect == 0:
            if not allocate:
                return 0
            indirect = self.store.alloc_zone(inode.lid, prev_zone)
            level1 = list(level1)
            level1[outer] = indirect
            self._write_pointers(double, level1)
            self._write_pointers(indirect, [0] * pointers)
        table = self._read_pointers(indirect)
        zone = table[inner]
        if zone == 0 and allocate:
            zone = self.store.alloc_zone(inode.lid, prev_zone)
            table = list(table)
            table[inner] = zone
            self._write_pointers(indirect, table)
        return zone

    def _file_zones(self, inode: Inode) -> tuple[list[int], list[int]]:
        """All (data zones in file order, metadata zones) of a file."""
        data: list[int] = []
        meta: list[int] = []
        for zone in inode.zones[:NDIRECT]:
            if zone:
                data.append(zone)
        if inode.zones[7]:
            meta.append(inode.zones[7])
            data.extend(z for z in self._read_pointers(inode.zones[7]) if z)
        if inode.zones[8]:
            meta.append(inode.zones[8])
            for indirect in self._read_pointers(inode.zones[8]):
                if indirect:
                    meta.append(indirect)
                    data.extend(z for z in self._read_pointers(indirect) if z)
        return data, meta

    # ------------------------------------------------------------------
    # File content I/O (shared by fd ops and directory ops)
    # ------------------------------------------------------------------

    def _file_read(self, inode: Inode, pos: int, nbytes: int, fd: _OpenFile | None = None) -> bytes:
        """Bytes ``[pos, pos + nbytes)`` of a file, clipped at EOF.

        The whole request is mapped first and its zones asked for in one
        ``read_zones`` call, so a store that can fetch them together (the
        LD store) sees the request whole; what comes back is used
        directly, never looked up again.
        """
        end = min(pos + nbytes, inode.size)
        if pos >= end:
            return b""
        size = self.block_size
        ahead: list[int] = []
        if self.readahead and fd is not None and pos == fd.seq_end:
            ahead = self._readahead_window(inode, end)
        first, last = pos // size, (end - 1) // size
        zones = [self._bmap(inode, index, allocate=False) for index in range(first, last + 1)]
        if 0 in zones:  # unmapped blocks are holes: zeros
            blocks = iter(self.store.read_zones([zone for zone in zones if zone], ahead))
            parts = [next(blocks) if zone else bytes(size) for zone in zones]
        else:
            parts = self.store.read_zones(zones, ahead)
        parts[-1] = parts[-1][: end - last * size]
        parts[0] = parts[0][pos - first * size :]
        if fd is not None:
            fd.seq_end = end
        return b"".join(parts)

    def _readahead_window(self, inode: Inode, end: int) -> list[int]:
        """Zones of the ``readahead_blocks`` file blocks after byte ``end``."""
        # First block the current read does not itself touch.
        first = (end + self.block_size - 1) // self.block_size
        zones = []
        for index in range(first, first + self.readahead_blocks):
            if index * self.block_size >= inode.size:
                break
            zone = self._bmap(inode, index, allocate=False)
            if zone:
                zones.append(zone)
        if zones:
            self.stats.readaheads += 1
        return zones

    def _file_write(
        self, ino: int, inode: Inode, pos: int, data: bytes, sync: bool = False
    ) -> None:
        cursor = pos
        view = memoryview(data)
        taken = 0
        prev_zone = 0
        while taken < len(data):
            index, offset = divmod(cursor, self.block_size)
            take = min(self.block_size - offset, len(data) - taken)
            if prev_zone == 0 and index > 0:
                prev_zone = self._bmap(inode, index - 1, allocate=False)
            zone = self._bmap(inode, index, allocate=True, prev_zone=prev_zone)
            if offset == 0 and take == self.block_size:
                self.store.write_zone(zone, bytes(view[taken : taken + take]), sync=sync)
            else:
                old = self.store.read_zone(zone)
                block = bytearray(old)
                if len(block) < self.block_size:
                    block += b"\x00" * (self.block_size - len(block))
                block[offset : offset + take] = view[taken : taken + take]
                self.store.write_zone(zone, bytes(block), sync=sync)
            prev_zone = zone
            cursor += take
            taken += take
        inode.size = max(inode.size, pos + len(data))
        inode.mtime = self._now()
        self._iput(ino, inode, sync=sync)

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def _dir_blocks(self, inode: Inode) -> list[tuple[bytes, dict[bytes, tuple[int, int]]]]:
        """Every block of a directory as ``(raw, {name: (ino, slot)})``.

        MINIX scans a directory linearly through the buffer cache, and that
        reference string is what produces the paper's Table 4 disk traffic,
        so every lookup still maps and reads *every* block, in file order.
        Only the parse is shared: a block resident in the cache is decoded
        once (``BufferCache.view``), not once per lookup.
        """
        read_zone = self.store.read_zone
        view = self.store.cache.view
        blocks = []
        for index in range(-(-inode.size // self.block_size)):
            zone = self._bmap(inode, index, allocate=False)
            if zone == 0:
                blocks.append((bytes(self.block_size), {}))  # hole
            else:
                blocks.append((read_zone(zone), view(zone, _decode_dirents)))
        return blocks

    def _dir_locate(self, inode: Inode, blocks: list, name: str) -> tuple[int, int] | None:
        """``(ino, byte offset)`` of the first live entry called ``name``.

        ``blocks`` is the :meth:`_dir_blocks` walk of ``inode``.
        """
        target = name.encode()
        for index, (_raw, table) in enumerate(blocks):
            hit = table.get(target)
            if hit is not None:
                offset = index * self.block_size + hit[1] * DIRENT_SIZE
                # Bytes at or beyond inode.size are a removed entry's ghost.
                if offset + DIRENT_SIZE <= inode.size:
                    return hit[0], offset
        return None

    def _dir_entries(self, inode: Inode) -> list[tuple[int, str]]:
        entries = []
        for index, (_raw, table) in enumerate(self._dir_blocks(inode)):
            live = (inode.size - index * self.block_size) // DIRENT_SIZE
            entries.extend(
                (ino, name.decode()) for name, (ino, slot) in table.items() if slot < live
            )
        return entries

    def _dir_find(self, inode: Inode, name: str) -> int | None:
        hit = self._dir_locate(inode, self._dir_blocks(inode), name)
        return None if hit is None else hit[0]

    def _dir_add(self, dir_ino: int, inode: Inode, name: str, child_ino: int) -> None:
        entry = DIRENT.pack(child_ino, name.encode())
        # sync=True: stores with synchronous-metadata semantics (SunOS/FFS)
        # write directory updates through; MINIX-style stores defer them.
        self._file_write(dir_ino, inode, inode.size, entry, sync=True)

    def _dir_remove(self, dir_ino: int, inode: Inode, name: str, path: str) -> None:
        """Delete ``name``'s entry by moving the last entry into its slot."""
        blocks = self._dir_blocks(inode)
        hit = self._dir_locate(inode, blocks, name)
        if hit is None:
            raise FileNotFound(path)
        found_at = hit[1]
        last_at = inode.size - DIRENT_SIZE
        if found_at != last_at:
            tail = last_at % self.block_size
            self._file_write(
                dir_ino, inode, found_at, blocks[-1][0][tail : tail + DIRENT_SIZE], sync=True
            )
        inode.size -= DIRENT_SIZE
        inode.mtime = self._now()
        self._iput(dir_ino, inode, sync=True)

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _resolve(self, path: str) -> int:
        ino = ROOT_INO
        for part in split_path(path):
            inode = self._iget(ino)
            if not inode.is_dir:
                raise NotADir(path)
            child = self._dir_find(inode, part)
            if child is None:
                raise FileNotFound(path)
            ino = child
        return ino

    def _resolve_parent(self, path: str) -> tuple[int, str]:
        parts = split_path(path)
        if not parts:
            raise FileSystemError("cannot operate on the root directory")
        parent = ROOT_INO
        for part in parts[:-1]:
            inode = self._iget(parent)
            if not inode.is_dir:
                raise NotADir(path)
            child = self._dir_find(inode, part)
            if child is None:
                raise FileNotFound(path)
            parent = child
        return parent, parts[-1]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def open(self, path: str, create: bool = False) -> int:
        """Open (optionally creating) a file; returns a file descriptor."""
        parent_ino, name = self._resolve_parent(path)
        parent = self._iget(parent_ino)
        if not parent.is_dir:
            raise NotADir(path)
        ino = self._dir_find(parent, name)
        if ino is None:
            if not create:
                raise FileNotFound(path)
            ino = self._create_file(parent_ino, parent, name)
        else:
            existing = self._iget(ino)
            if existing.is_dir:
                raise IsADir(path)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(ino=ino)
        return fd

    def _create_file(self, parent_ino: int, parent: Inode, name: str) -> int:
        ino = self.store.alloc_inode()
        inode = Inode(mode=I_FILE, nlinks=1, mtime=self._now())
        inode.lid = self.store.new_file_context(parent.lid)
        self._iput(ino, inode, sync=True)
        self._dir_add(parent_ino, parent, name, ino)
        self.stats.files_created += 1
        return ino

    def _fd(self, fd: int) -> _OpenFile:
        handle = self._fds.get(fd)
        if handle is None:
            raise BadFileDescriptor(f"fd {fd} is not open")
        return handle

    def read(self, fd: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` from the current position."""
        handle = self._fd(fd)
        inode = self._iget(handle.ino)
        data = self._file_read(inode, handle.pos, nbytes, fd=handle)
        handle.pos += len(data)
        self.stats.bytes_read += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        """Write ``data`` at the current position; returns bytes written."""
        handle = self._fd(fd)
        inode = self._iget(handle.ino)
        self._file_write(handle.ino, inode, handle.pos, bytes(data))
        handle.pos += len(data)
        self.stats.bytes_written += len(data)
        return len(data)

    def seek(self, fd: int, pos: int) -> None:
        """Set the file position (absolute)."""
        if pos < 0:
            raise ValueError(f"negative seek position: {pos}")
        self._fd(fd).pos = pos

    def close(self, fd: int) -> None:
        """Close a file descriptor."""
        if self._fds.pop(fd, None) is None:
            raise BadFileDescriptor(f"fd {fd} is not open")

    def unlink(self, path: str) -> None:
        """Remove a file and free its storage."""
        parent_ino, name = self._resolve_parent(path)
        parent = self._iget(parent_ino)
        ino = self._dir_find(parent, name)
        if ino is None:
            raise FileNotFound(path)
        inode = self._iget(ino)
        if inode.is_dir:
            raise IsADir(path)
        # _dir_remove walks the directory a second time. Its cache touches
        # are part of MINIX's reference string (search, then delete), so
        # the find above is not folded into it.
        self._dir_remove(parent_ino, parent, name, path)
        inode.nlinks -= 1
        if inode.nlinks <= 0:
            self._destroy(ino, inode)
            self.stats.files_deleted += 1
        else:
            self._iput(ino, inode)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent_ino, name = self._resolve_parent(path)
        parent = self._iget(parent_ino)
        ino = self._dir_find(parent, name)
        if ino is None:
            raise FileNotFound(path)
        inode = self._iget(ino)
        if not inode.is_dir:
            raise NotADir(path)
        if self._dir_entries(inode):
            raise FileSystemError(f"directory not empty: {path}")
        # Second walk of the parent kept on purpose; see unlink.
        self._dir_remove(parent_ino, parent, name, path)
        self._destroy(ino, inode)

    def _destroy(self, ino: int, inode: Inode) -> None:
        """Free every zone, the file context, and the i-node."""
        data, meta = self._file_zones(inode)
        # Free data zones in reverse file order so each DeleteBlock's
        # predecessor hint (the previous zone) is still alive -> O(1).
        for i in range(len(data) - 1, -1, -1):
            prev_hint = data[i - 1] if i > 0 else 0
            self.store.free_zone(data[i], inode.lid, prev_hint)
        for zone in reversed(meta):
            self.store.free_zone(zone, inode.lid, 0)
        self.store.delete_file_context(inode.lid)
        inode.mode = 0
        inode.size = 0
        inode.zones = [0] * len(inode.zones)
        self._iput(ino, inode, sync=True)
        self.store.free_inode(ino)

    def link(self, existing: str, newpath: str) -> None:
        """Create a hard link: one more name for the same i-node."""
        ino = self._resolve(existing)
        inode = self._iget(ino)
        if inode.is_dir:
            raise IsADir(existing)
        parent_ino, name = self._resolve_parent(newpath)
        parent = self._iget(parent_ino)
        if not parent.is_dir:
            raise NotADir(newpath)
        if self._dir_find(parent, name) is not None:
            raise FileExists(newpath)
        self._dir_add(parent_ino, parent, name, ino)
        inode.nlinks += 1
        self._iput(ino, inode, sync=True)

    def rename(self, oldpath: str, newpath: str) -> None:
        """Move/rename a file or directory; replaces an existing file."""
        old_parent_ino, old_name = self._resolve_parent(oldpath)
        old_parent = self._iget(old_parent_ino)
        ino = self._dir_find(old_parent, old_name)
        if ino is None:
            raise FileNotFound(oldpath)
        inode = self._iget(ino)
        new_parent_ino, new_name = self._resolve_parent(newpath)
        if inode.is_dir:
            self._check_not_descendant(ino, new_parent_ino, newpath)
        new_parent = self._iget(new_parent_ino)
        if not new_parent.is_dir:
            raise NotADir(newpath)
        target = self._dir_find(new_parent, new_name)
        if target is not None:
            if target == ino:
                return  # renaming onto itself
            target_inode = self._iget(target)
            if target_inode.is_dir:
                raise IsADir(newpath)
            self.unlink(newpath)
            new_parent = self._iget(new_parent_ino)
        self._dir_add(new_parent_ino, new_parent, new_name, ino)
        # Re-read the old parent: it may be the same directory object.
        old_parent = self._iget(old_parent_ino)
        # Second walk of the old parent kept on purpose; see unlink.
        self._dir_remove(old_parent_ino, old_parent, old_name, oldpath)

    def _check_not_descendant(self, dir_ino: int, candidate: int, path: str) -> None:
        """Reject moving a directory into its own subtree."""
        if dir_ino == candidate:
            raise FileSystemError(f"cannot move a directory into itself: {path}")
        inode = self._iget(dir_ino)
        for child_ino, _name in self._dir_entries(inode):
            child = self._iget(child_ino)
            if child.is_dir:
                self._check_not_descendant(child_ino, candidate, path)

    def truncate(self, path: str, size: int = 0) -> None:
        """Set a file's length; shrinking frees zones, growing is sparse."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        ino = self._resolve(path)
        inode = self._iget(ino)
        if inode.is_dir:
            raise IsADir(path)
        if size >= inode.size:
            inode.size = size
            inode.mtime = self._now()
            self._iput(ino, inode)
            return
        cutoff = (size + self.block_size - 1) // self.block_size
        self._free_zones_from(inode, cutoff)
        if size % self.block_size:
            # POSIX: bytes past the new EOF read as zero if re-extended.
            zone = self._bmap(inode, size // self.block_size, allocate=False)
            if zone:
                block = bytearray(self.store.read_zone(zone))
                offset = size % self.block_size
                block[offset:] = b"\x00" * (self.block_size - offset)
                self.store.write_zone(zone, bytes(block))
        inode.size = size
        inode.mtime = self._now()
        self._iput(ino, inode)

    def _free_zones_from(self, inode: Inode, cutoff: int) -> None:
        """Free every data zone with file index >= ``cutoff``."""
        pointers = self._pointers_per_block
        # Direct zones.
        for index in range(max(cutoff, 0), NDIRECT):
            if inode.zones[index]:
                self.store.free_zone(inode.zones[index], inode.lid, 0)
                inode.zones[index] = 0
        # Single-indirect range.
        if inode.zones[7]:
            start = max(cutoff - NDIRECT, 0)
            self._free_indirect_range(inode, 7, start)
        # Double-indirect range.
        if inode.zones[8]:
            start = max(cutoff - NDIRECT - pointers, 0)
            self._free_double_range(inode, start)

    def _free_indirect_range(self, inode: Inode, slot: int, start: int) -> None:
        indirect = inode.zones[slot]
        table = list(self._read_pointers(indirect))
        changed = False
        for i in range(start, len(table)):
            if table[i]:
                self.store.free_zone(table[i], inode.lid, 0)
                table[i] = 0
                changed = True
        if start == 0:
            self.store.free_zone(indirect, inode.lid, 0)
            inode.zones[slot] = 0
        elif changed:
            self._write_pointers(indirect, table)

    def _free_double_range(self, inode: Inode, start: int) -> None:
        pointers = self._pointers_per_block
        double = inode.zones[8]
        level1 = list(self._read_pointers(double))
        changed = False
        for outer, indirect in enumerate(level1):
            if not indirect:
                continue
            lo = outer * pointers
            if start >= lo + pointers:
                continue
            inner_start = max(start - lo, 0)
            table = list(self._read_pointers(indirect))
            for i in range(inner_start, len(table)):
                if table[i]:
                    self.store.free_zone(table[i], inode.lid, 0)
                    table[i] = 0
            if inner_start == 0:
                self.store.free_zone(indirect, inode.lid, 0)
                level1[outer] = 0
                changed = True
            else:
                self._write_pointers(indirect, table)
        if start == 0:
            self.store.free_zone(double, inode.lid, 0)
            inode.zones[8] = 0
        elif changed:
            self._write_pointers(double, level1)

    def mkdir(self, path: str) -> None:
        """Create a directory."""
        parent_ino, name = self._resolve_parent(path)
        parent = self._iget(parent_ino)
        if not parent.is_dir:
            raise NotADir(path)
        if self._dir_find(parent, name) is not None:
            raise FileExists(path)
        ino = self.store.alloc_inode()
        inode = Inode(mode=I_DIR, nlinks=1, mtime=self._now())
        inode.lid = self.store.new_file_context(parent.lid, directory=True)
        self._iput(ino, inode, sync=True)
        self._dir_add(parent_ino, parent, name, ino)
        self.stats.dirs_created += 1

    def readdir(self, path: str) -> list[str]:
        """Names in a directory, in directory order."""
        ino = self._resolve(path)
        inode = self._iget(ino)
        if not inode.is_dir:
            raise NotADir(path)
        return [name for _ino, name in self._dir_entries(inode)]

    def stat(self, path: str) -> FileStat:
        """Metadata for a path."""
        ino = self._resolve(path)
        inode = self._iget(ino)
        return FileStat(
            ino=ino,
            size=inode.size,
            is_dir=inode.is_dir,
            nlinks=inode.nlinks,
            mtime=inode.mtime,
        )

    def exists(self, path: str) -> bool:
        """True if the path resolves."""
        try:
            self._resolve(path)
            return True
        except (FileNotFound, NotADir):
            return False
