"""Main-memory and cost model for LLD (paper Tables 2 and 3, section 3.4).

The paper derives LLD's memory footprint from its data-structure entry
sizes (per logical block: 3 bytes of physical address plus 3 bytes of
successor; with compression: +2 bytes length, +1 byte address, and 67% more
blocks at a 60% compression ratio), and the cost overhead from 1993 RAM and
disk prices. These functions reproduce those derivations exactly so the
Table 2/3 benchmarks can regenerate the published numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


#: Entry sizes and workload assumptions from paper section 3.4 that no
#: caller varies.
BLOCK_SIZE = 4 * KB
SEGMENT_SIZE = 512 * KB
ADDRESS_BYTES = 3
SUCCESSOR_BYTES = 3
COMPRESSED_LENGTH_BYTES = 2
COMPRESSED_EXTRA_ADDRESS_BYTES = 1
LIST_TABLE_ENTRY_BYTES = 4
SEGMENT_USAGE_ENTRY_BYTES = 3
AVERAGE_FILE_BYTES = 8 * KB


@dataclass(frozen=True)
class MemoryModelParams:
    """The disk the model sizes, and how well its data compresses."""

    disk_bytes: int = GB
    compression_ratio: float = 0.6  # compressed size / original size


def block_count(params: MemoryModelParams = MemoryModelParams()) -> int:
    """Logical blocks on the disk (uncompressed)."""
    return params.disk_bytes // BLOCK_SIZE


def compressed_block_count(params: MemoryModelParams = MemoryModelParams()) -> int:
    """Blocks that fit once compression stretches capacity by 1/ratio."""
    return int(block_count(params) / params.compression_ratio)


def block_map_bytes(compression: bool, params: MemoryModelParams = MemoryModelParams()) -> int:
    """Size of the block-number map.

    Without compression: address + successor per block (6 bytes).
    With compression: +length +extra address byte, over 1/ratio more blocks.
    """
    if not compression:
        per_entry = ADDRESS_BYTES + SUCCESSOR_BYTES
        return block_count(params) * per_entry
    per_entry = (
        ADDRESS_BYTES
        + COMPRESSED_EXTRA_ADDRESS_BYTES
        + SUCCESSOR_BYTES
        + COMPRESSED_LENGTH_BYTES
    )
    return compressed_block_count(params) * per_entry


def list_table_bytes(
    list_per_file: bool, compression: bool, params: MemoryModelParams = MemoryModelParams()
) -> int:
    """Size of the list table: 4 bytes per list."""
    if not list_per_file:
        return LIST_TABLE_ENTRY_BYTES  # a single list
    capacity = params.disk_bytes / params.compression_ratio if compression else params.disk_bytes
    files = int(capacity / AVERAGE_FILE_BYTES)
    return files * LIST_TABLE_ENTRY_BYTES


def segment_usage_table_bytes(params: MemoryModelParams = MemoryModelParams()) -> int:
    """3 bytes per segment."""
    segments = params.disk_bytes // SEGMENT_SIZE
    return segments * SEGMENT_USAGE_ENTRY_BYTES


def total_memory_bytes(
    compression: bool, list_per_file: bool, params: MemoryModelParams = MemoryModelParams()
) -> int:
    """Total LLD main-memory requirement for a configuration."""
    return (
        block_map_bytes(compression, params)
        + list_table_bytes(list_per_file, compression, params)
        + segment_usage_table_bytes(params)
    )


def table2_rows(params: MemoryModelParams = MemoryModelParams()) -> dict[str, dict[str, float]]:
    """Paper Table 2: memory per GB for the two measured configurations."""
    plain = dict(
        block_map_mb=block_map_bytes(False, params) / MB,
        list_table_mb=list_table_bytes(False, False, params) / MB,
        usage_table_mb=segment_usage_table_bytes(params) / MB,
        total_mb=total_memory_bytes(False, False, params) / MB,
    )
    packed = dict(
        block_map_mb=block_map_bytes(True, params) / MB,
        list_table_mb=list_table_bytes(True, True, params) / MB,
        usage_table_mb=segment_usage_table_bytes(params) / MB,
        total_mb=total_memory_bytes(True, True, params) / MB,
    )
    return {"single_list": plain, "compression_list_per_file": packed}


def table3_overhead_percent(
    ram_dollars_per_mb: float,
    disk_dollars_per_gb: float,
    memory_mb: float,
) -> float:
    """Paper Table 3: % LLD adds to the price of one GB of disk."""
    return 100.0 * (memory_mb * ram_dollars_per_mb) / disk_dollars_per_gb


def table3_rows() -> list[dict[str, float]]:
    """All Table 3 cells: RAM at $30/$50 per MB, disks at $750/$1500 per GB."""
    rows = []
    best_case = total_memory_bytes(False, False) / MB  # 1.5 MB
    worst_case = total_memory_bytes(True, True) / MB  # 4.6 MB
    for ram in (30.0, 50.0):
        for disk in (750.0, 1500.0):
            rows.append(
                dict(
                    ram_per_mb=ram,
                    disk_per_gb=disk,
                    best_percent=table3_overhead_percent(ram, disk, best_case),
                    worst_percent=table3_overhead_percent(ram, disk, worst_case),
                )
            )
    return rows
