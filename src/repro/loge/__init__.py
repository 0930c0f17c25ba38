"""A Loge-style Logical Disk (English & Stepanov 1992; paper section 5.2).

Loge is a self-organizing disk controller: it keeps an indirection table
from logical block numbers to physical locations and, on every write, picks
the free reserved physical block *closest to the current head position*.
Each physical block carries an out-of-band header with the logical block
number and a timestamp, so the indirection table can be rebuilt — but only
by reading the **whole disk**, which is why the paper's LLD recovers at
least an order of magnitude faster.

This implementation exposes the LD interface so it can slot under the same
file systems for comparison, but faithfully keeps Loge's limitations:

* list relationships are volatile (the controller only sees the block-level
  I/O stream — "it is not feasible to detect only from the block-level
  trace which blocks are related"); after recovery the lists are gone.
* there are no atomic recovery units (Mime added those later);
  :meth:`begin_aru` raises.
* every write is an individual, immediately-durable block write; recovery
  is guaranteed "up to the very last block successfully written".
"""

from repro.loge.loge import LogeDisk

__all__ = ["LogeDisk"]
