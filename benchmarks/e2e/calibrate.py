"""A fixed CPU kernel that says how fast this machine is *right now*.

The sandbox is a shared 2-core box whose speed moves by up to 30% for tens
of seconds at a time (a busy sibling hyperthread, host frequency changes).
``process_time`` does not hide that: ten identical runs of one workload
spread 13% when a neighbour was toggled on and off, far more than the
per-batch minimum over three back-to-back repeats can remove, because all
three fall into the same slow spell.

So every CPU figure is reported *at reference speed*. The kernel below is a
few milliseconds of deterministic pure-Python work shaped like the stack's
own (LRU dict churn, bytes slicing, struct codecs); it runs next to every
timed region, and a region's CPU time is scaled by ``REFERENCE_S`` over the
mean of the kernel times just before and after it. With that, the same ten
runs spread 2.4%. ``REFERENCE_S`` is the kernel's time on this box when
nothing disturbs it, so undisturbed figures read as plain CPU time.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from time import process_time

REFERENCE_S = 0.005

_RECORD = struct.Struct("<IIHH")
_BLOCK = bytes(range(256)) * 16


def _kernel() -> int:
    cache: OrderedDict[int, bytes] = OrderedDict()
    buf = bytearray(64 * 1024)
    acc = 0
    for i in range(6000):
        key = (i * 2654435761) & 1023
        hit = cache.get(key)
        if hit is None:
            cache[key] = _BLOCK[key & 255 : (key & 255) + 512]
            if len(cache) > 256:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
            acc += len(hit)
        offset = (key * 61) & 0xFFF0
        _RECORD.pack_into(buf, offset, i, key, i & 0xFFFF, key & 0xFFFF)
        a, b, c, _d = _RECORD.unpack_from(buf, offset)
        acc += a ^ b
        buf[offset + 16 : offset + 48] = _BLOCK[c & 255 : (c & 255) + 32]
    return acc


def calibrate() -> float:
    """CPU seconds the kernel takes now (the faster of two goes)."""
    best = float("inf")
    for _ in range(2):
        start = process_time()
        _kernel()
        best = min(best, process_time() - start)
    return best


def at_reference(cpu_s: float, before: float, after: float) -> float:
    """``cpu_s`` scaled to reference speed by the kernel times around it."""
    return cpu_s * REFERENCE_S / ((before + after) / 2)
