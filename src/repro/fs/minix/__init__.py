"""The MINIX file system, classic and LD-backed (paper section 4).

The file-system core (:class:`MinixFS`) is written against a small
``BlockStore`` strategy interface. Swapping the store turns plain MINIX
into MINIX LLD, mirroring the paper's claim that fewer than 100 of 7000
lines changed:

* :class:`~repro.fs.minix.classic_store.ClassicStore` — superblock,
  i-node/zone bitmaps, fixed i-node table, allocate-near placement,
  per-block writes (plain MINIX).
* :class:`~repro.fs.minix.ld_store.LDStore` — blocks live in a Logical
  Disk; files get their own block lists (or share one), the zone bitmap is
  gone, ``sync`` maps to ``Flush``, and i-nodes can be packed into blocks
  or stored as individual 64-byte LD blocks (the paper's two
  configurations).
"""

from repro.fs.minix.fs import MinixFS
from repro.fs.minix.classic_store import ClassicStore
from repro.fs.minix.ld_store import LDStore
from repro.fs.minix.inode import Inode, I_FILE, I_DIR

__all__ = ["MinixFS", "ClassicStore", "LDStore", "Inode", "I_FILE", "I_DIR"]


def make_minix(disk, cache_bytes: int = 6144 * 1024, ninodes: int = 4096, readahead: bool = True) -> MinixFS:
    """Plain MINIX on a simulated disk (mkfs + mount included).

    MINIX's read-ahead is modest (a couple of blocks), unlike the
    aggressive clustering of the FFS-style store.
    """
    store = ClassicStore(disk, cache_bytes=cache_bytes)
    fs = MinixFS(store, readahead=readahead, readahead_blocks=2)
    fs.mkfs(ninodes=ninodes)
    return fs


def make_minix_lld(
    lld,
    cache_bytes: int = 6144 * 1024,
    ninodes: int = 4096,
    list_per_file: bool = True,
    inode_block_mode: str = "packed",
    readahead: bool = False,
    readahead_blocks: int = 8,
) -> MinixFS:
    """MINIX LLD on an initialized :class:`repro.lld.LLD` — or a tenant
    session of an :class:`~repro.sched.LDServer` over one (mkfs + mount).

    Read-ahead defaults to off, as in the paper ("blocks that MINIX thinks
    are contiguous may not actually be so"). Pass ``readahead=True`` to
    route it through the LD's vectored ``read_blocks``, which coalesces
    only what really is contiguous and so removes the paper's objection.
    Group commit (that many logical syncs share one physical ``Flush``)
    is the server's: pass a session of ``LDServer(lld, group_commit=N)``.
    """
    store = LDStore(
        lld,
        cache_bytes=cache_bytes,
        list_per_file=list_per_file,
        inode_block_mode=inode_block_mode,
    )
    fs = MinixFS(store, readahead=readahead, readahead_blocks=readahead_blocks)
    fs.mkfs(ninodes=ninodes)
    return fs
