"""Discrete write-counting simulators for Table 6's cross-check.

Instead of assuming ε and δ, these counters *measure* them: operations mark
i-nodes, i-node-map entries, and metadata blocks dirty; a flush (segment
write / checkpoint) counts how many whole blocks actually leave memory.
Dividing by the number of operations yields amortized per-operation costs
directly comparable with the analytic Table 6 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The file-system shape both counters model: 4 KB blocks holding 64-byte
#: i-nodes, 12-byte i-node-map entries or 4-byte block pointers, and seven
#: direct zones per i-node.
BLOCK_SIZE = 4096
INODES_PER_BLOCK = BLOCK_SIZE // 64
IMAP_ENTRIES_PER_BLOCK = BLOCK_SIZE // 12
POINTERS_PER_BLOCK = BLOCK_SIZE // 4
DIRECT_BLOCKS = 7


@dataclass
class WriteCounts:
    """Blocks written, by category."""

    data: int = 0
    inode_blocks: int = 0
    imap_blocks: int = 0
    indirect: int = 0
    directory: int = 0

    @property
    def total(self) -> int:
        return self.data + self.inode_blocks + self.imap_blocks + self.indirect + self.directory


class SpriteLFSCounter:
    """Counts block writes the way Sprite LFS generates them.

    * dirty i-nodes are collected into shared i-node blocks
      (``INODES_PER_BLOCK``);
    * i-node-map entries go to map blocks written only at checkpoints;
    * writing a data block cascades into the indirect chain above it
      because physical addresses live in the metadata.
    """

    def __init__(self) -> None:
        self.counts = WriteCounts()
        self.operations = 0
        self._dirty_inodes: set[int] = set()
        self._dirty_imap: set[int] = set()

    def _touch_inode(self, ino: int) -> None:
        self._dirty_inodes.add(ino)
        self._dirty_imap.add(ino)

    def _depth(self, index: int) -> int:
        """Indirect-chain depth above file block ``index`` (0, 1, or 2)."""
        if index < DIRECT_BLOCKS:
            return 0
        if index < DIRECT_BLOCKS + POINTERS_PER_BLOCK:
            return 1
        return 2

    def create_file(self, dir_ino: int, ino: int) -> None:
        """Create an empty file: directory block + two dirty i-nodes."""
        self.operations += 1
        self.counts.directory += 1
        self._touch_inode(dir_ino)
        self._touch_inode(ino)

    def delete_file(self, dir_ino: int, ino: int) -> None:
        """Delete an empty file (same write pattern as create)."""
        self.create_file(dir_ino, ino)

    def overwrite_block(self, ino: int, index: int) -> None:
        """Overwrite an existing data block: the address change cascades."""
        self.operations += 1
        self.counts.data += 1
        self.counts.indirect += self._depth(index)
        self._touch_inode(ino)

    def append_block(self, ino: int, index: int) -> None:
        """Append a data block: inserting the new address also cascades."""
        self.operations += 1
        self.counts.data += 1
        self.counts.indirect += self._depth(index)
        self._touch_inode(ino)

    def checkpoint(self) -> None:
        """Flush dirty i-node blocks and i-node-map blocks."""
        inode_blocks = {ino // INODES_PER_BLOCK for ino in self._dirty_inodes}
        imap_blocks = {ino // IMAP_ENTRIES_PER_BLOCK for ino in self._dirty_imap}
        self.counts.inode_blocks += len(inode_blocks)
        self.counts.imap_blocks += len(imap_blocks)
        self._dirty_inodes.clear()
        self._dirty_imap.clear()

    def per_operation_cost(self) -> float:
        """Amortized blocks written per operation (after a checkpoint)."""
        if self.operations == 0:
            return 0.0
        return self.counts.total / self.operations


class MinixLLDCounter:
    """Counts block writes the way MINIX LLD generates them.

    Logical addresses are stable: no i-node map exists and data-block
    writes never touch the indirect chain. I-nodes are still written (for
    mtimes) and share blocks exactly as in Sprite.
    """

    def __init__(self) -> None:
        self.counts = WriteCounts()
        self.operations = 0
        self._dirty_inodes: set[int] = set()

    def create_file(self, dir_ino: int, ino: int) -> None:
        self.operations += 1
        self.counts.directory += 1
        self._dirty_inodes.add(dir_ino)
        self._dirty_inodes.add(ino)

    def delete_file(self, dir_ino: int, ino: int) -> None:
        self.create_file(dir_ino, ino)

    def overwrite_block(self, ino: int, index: int) -> None:
        """Overwrite: just the data block + the i-node. No cascades."""
        self.operations += 1
        self.counts.data += 1
        self._dirty_inodes.add(ino)

    def append_block(self, ino: int, index: int, new_indirect: bool = False) -> None:
        """Append: the indirect block gaining the pointer is written.

        ``new_indirect`` models the rare case where a fresh indirect block
        must be linked below the double-indirect block.
        """
        self.operations += 1
        self.counts.data += 1
        if index >= DIRECT_BLOCKS:
            self.counts.indirect += 1
        if new_indirect:
            self.counts.indirect += 1
        self._dirty_inodes.add(ino)

    def checkpoint(self) -> None:
        inode_blocks = {ino // INODES_PER_BLOCK for ino in self._dirty_inodes}
        self.counts.inode_blocks += len(inode_blocks)
        self._dirty_inodes.clear()

    def per_operation_cost(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.counts.total / self.operations
