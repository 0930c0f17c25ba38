"""A DOS/FAT-style file system on LD — without the FAT (Figure 1, §5.4).

Figure 1 shows a "DOS FS" as the second client of the LD interface, and
section 5.4 spells out the optimization this module implements:

    "if we combine an implementation of the LD interface with an MS DOS
    file system, we could eliminate the duplication of information in the
    File Allocation Table and LD's block-number map"

In FAT file systems the directory entry holds a file's *first cluster* and
the FAT chains clusters together. On LD both jobs are already done by
block lists: the directory entry stores the file's **list identifier**,
and cluster ``i`` of the file is simply ``block_at(lid, i)`` — offset
addressing. There is no FAT to read, write, cache, or scan, and no
indirect blocks either.

The implementation is deliberately small and direct (no buffer cache):
every cluster access goes straight to LD, which serves hot blocks from
its in-memory segment anyway.
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
from repro.ld.hints import LIST_HEAD, ListHints
from repro.ld.interface import LogicalDisk

_SUPER = struct.Struct("<4sII")  # magic, root dir lid, cluster size
_ENTRY = struct.Struct("<23sBII")  # name, attr, size, lid
ENTRY_SIZE = _ENTRY.size  # 32 bytes, like FAT's directory entries

_MAGIC = b"DOSL"
CLUSTER_SIZE = 4096
ATTR_FILE = 0x01
ATTR_DIR = 0x02


@dataclass
class _Handle:
    lid: int
    dir_lid: int
    name: str
    size: int
    pos: int = 0


class DosFS:
    """FAT-style semantics, list-per-file storage, zero FAT."""

    def __init__(self, ld: LogicalDisk) -> None:
        self.ld = ld
        #: A new volume's cluster size; a mounted one's is its superblock's.
        self.cluster_size = CLUSTER_SIZE
        self.root_lid = 0
        self._fds: dict[int, _Handle] = {}
        self._next_fd = 3

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def mkfs(self) -> None:
        """Create an empty file system (superblock + empty root dir)."""
        meta_lid = self.ld.new_list()
        super_bid = self.ld.new_block(meta_lid, LIST_HEAD)
        self.root_lid = self.ld.new_list(pred_lid=meta_lid)
        self.ld.write(
            super_bid, _SUPER.pack(_MAGIC, self.root_lid, self.cluster_size)
        )

    def mount(self) -> None:
        """Attach to an existing file system."""
        raw = self.ld.read(1)
        if len(raw) < _SUPER.size:
            raise FileSystemError("no DosFS superblock")
        magic, root_lid, cluster = _SUPER.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise FileSystemError("not a DosFS volume")
        self.root_lid = root_lid
        self.cluster_size = cluster

    def sync(self) -> None:
        """Everything is already in LD; just make it durable."""
        self.ld.flush()

    # ------------------------------------------------------------------
    # Cluster-level I/O via offset addressing (no FAT!)
    # ------------------------------------------------------------------

    def _read_span(self, lid: int, pos: int, nbytes: int, size: int) -> bytes:
        end = min(pos + nbytes, size)
        if pos >= end:
            return b""
        out = bytearray()
        length = self.ld.list_length(lid)
        while pos < end:
            index, offset = divmod(pos, self.cluster_size)
            take = min(self.cluster_size - offset, end - pos)
            if index < length:
                cluster = self.ld.read(self.ld.block_at(lid, index))
                if len(cluster) < self.cluster_size:
                    cluster = cluster + b"\x00" * (self.cluster_size - len(cluster))
                out += cluster[offset : offset + take]
            else:
                out += b"\x00" * take
            pos += take
        return bytes(out)

    def _write_span(self, lid: int, pos: int, data: bytes) -> None:
        view = memoryview(data)
        taken = 0
        length = self.ld.list_length(lid)
        last = self.ld.block_at(lid, length - 1) if length else LIST_HEAD
        while taken < len(data):
            index, offset = divmod(pos + taken, self.cluster_size)
            while length <= index:  # grow the chain: append clusters
                last = self.ld.new_block(lid, last)
                length += 1
            bid = self.ld.block_at(lid, index)
            take = min(self.cluster_size - offset, len(data) - taken)
            if offset == 0 and take == self.cluster_size:
                self.ld.write(bid, bytes(view[taken : taken + take]))
            else:
                cluster = bytearray(self.ld.read(bid))
                if len(cluster) < self.cluster_size:
                    cluster += b"\x00" * (self.cluster_size - len(cluster))
                cluster[offset : offset + take] = view[taken : taken + take]
                self.ld.write(bid, bytes(cluster))
            taken += take

    # ------------------------------------------------------------------
    # Directories (files full of 32-byte entries)
    # ------------------------------------------------------------------

    def _dir_size(self, lid: int) -> int:
        return self.ld.list_length(lid) * self.cluster_size

    def _dir_entries(self, lid: int):
        raw = self._read_span(lid, 0, self._dir_size(lid), self._dir_size(lid))
        for offset in range(0, len(raw) - ENTRY_SIZE + 1, ENTRY_SIZE):
            name, attr, size, child_lid = _ENTRY.unpack_from(raw, offset)
            if attr:
                yield offset, name.rstrip(b"\x00").decode(), attr, size, child_lid

    def _dir_find(self, lid: int, name: str):
        for offset, entry_name, attr, size, child_lid in self._dir_entries(lid):
            if entry_name == name:
                return offset, attr, size, child_lid
        return None

    def _dir_add(self, lid: int, name: str, attr: int, size: int, child_lid: int) -> None:
        encoded = name.encode()
        if len(encoded) > 23:
            raise FileSystemError(f"name too long for DosFS: {name!r}")
        entry = _ENTRY.pack(encoded, attr, size, child_lid)
        for offset in range(0, self._dir_size(lid), ENTRY_SIZE):
            raw = self._read_span(lid, offset, ENTRY_SIZE, self._dir_size(lid))
            if len(raw) < ENTRY_SIZE or raw[23] == 0:  # free slot (attr 0)
                self._write_span(lid, offset, entry)
                return
        self._write_span(lid, self._dir_size(lid), entry)

    def _dir_update(self, lid: int, offset: int, name: str, attr: int, size: int, child_lid: int) -> None:
        self._write_span(lid, offset, _ENTRY.pack(name.encode(), attr, size, child_lid))

    def _dir_clear(self, lid: int, offset: int) -> None:
        self._write_span(lid, offset, b"\x00" * ENTRY_SIZE)

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _resolve_dir(self, parts: list[str], path: str) -> int:
        lid = self.root_lid
        for part in parts:
            found = self._dir_find(lid, part)
            if found is None:
                raise FileNotFound(path)
            _offset, attr, _size, child_lid = found
            if attr != ATTR_DIR:
                raise NotADir(path)
            lid = child_lid
        return lid

    def _resolve_parent(self, path: str) -> tuple[int, str]:
        parts = split_path(path)
        if not parts:
            raise FileSystemError("cannot operate on the root directory")
        return self._resolve_dir(parts[:-1], path), parts[-1]

    # ------------------------------------------------------------------
    # Public API (mirrors repro.fs.api)
    # ------------------------------------------------------------------

    def open(self, path: str, create: bool = False) -> int:
        dir_lid, name = self._resolve_parent(path)
        found = self._dir_find(dir_lid, name)
        if found is None:
            if not create:
                raise FileNotFound(path)
            file_lid = self.ld.new_list(
                pred_lid=dir_lid, hints=ListHints(cluster=True)
            )
            self._dir_add(dir_lid, name, ATTR_FILE, 0, file_lid)
            size = 0
        else:
            _offset, attr, size, file_lid = found
            if attr == ATTR_DIR:
                raise IsADir(path)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _Handle(lid=file_lid, dir_lid=dir_lid, name=name, size=size)
        return fd

    def _fd(self, fd: int) -> _Handle:
        handle = self._fds.get(fd)
        if handle is None:
            raise BadFileDescriptor(f"fd {fd} is not open")
        return handle

    def read(self, fd: int, nbytes: int) -> bytes:
        handle = self._fd(fd)
        data = self._read_span(handle.lid, handle.pos, nbytes, handle.size)
        handle.pos += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        handle = self._fd(fd)
        self._write_span(handle.lid, handle.pos, bytes(data))
        handle.pos += len(data)
        if handle.pos > handle.size:
            handle.size = handle.pos
            found = self._dir_find(handle.dir_lid, handle.name)
            if found is None:  # pragma: no cover - entry cannot vanish
                raise FileNotFound(handle.name)
            offset, attr, _old, lid = found
            self._dir_update(handle.dir_lid, offset, handle.name, attr, handle.size, lid)
        return len(data)

    def seek(self, fd: int, pos: int) -> None:
        if pos < 0:
            raise ValueError(f"negative seek position: {pos}")
        self._fd(fd).pos = pos

    def close(self, fd: int) -> None:
        if self._fds.pop(fd, None) is None:
            raise BadFileDescriptor(f"fd {fd} is not open")

    def unlink(self, path: str) -> None:
        dir_lid, name = self._resolve_parent(path)
        found = self._dir_find(dir_lid, name)
        if found is None:
            raise FileNotFound(path)
        offset, attr, _size, file_lid = found
        if attr == ATTR_DIR:
            raise IsADir(path)
        # One DeleteList call frees the whole cluster chain — the FAT
        # walk-and-clear loop of a real DOS FS simply does not exist.
        self.ld.delete_list(file_lid)
        self._dir_clear(dir_lid, offset)

    def mkdir(self, path: str) -> None:
        dir_lid, name = self._resolve_parent(path)
        if self._dir_find(dir_lid, name) is not None:
            raise FileExists(path)
        child = self.ld.new_list(pred_lid=dir_lid)
        self._dir_add(dir_lid, name, ATTR_DIR, 0, child)

    def rmdir(self, path: str) -> None:
        dir_lid, name = self._resolve_parent(path)
        found = self._dir_find(dir_lid, name)
        if found is None:
            raise FileNotFound(path)
        offset, attr, _size, child = found
        if attr != ATTR_DIR:
            raise NotADir(path)
        if any(True for _ in self._dir_entries(child)):
            raise FileSystemError(f"directory not empty: {path}")
        self.ld.delete_list(child)
        self._dir_clear(dir_lid, offset)

    def readdir(self, path: str) -> list[str]:
        lid = self._resolve_dir(split_path(path), path)
        return [name for _o, name, _a, _s, _l in self._dir_entries(lid)]

    def stat(self, path: str) -> FileStat:
        parts = split_path(path)
        if not parts:
            return FileStat(ino=self.root_lid, size=0, is_dir=True, nlinks=1, mtime=0)
        dir_lid, name = self._resolve_parent(path)
        found = self._dir_find(dir_lid, name)
        if found is None:
            raise FileNotFound(path)
        _offset, attr, size, lid = found
        return FileStat(
            ino=lid, size=size, is_dir=attr == ATTR_DIR, nlinks=1, mtime=0
        )

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except (FileNotFound, NotADir):
            return False
