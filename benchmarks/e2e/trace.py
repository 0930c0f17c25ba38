"""Spans recorded from outside the program, and the layer table they give.

A traced run wraps each layer's public methods *on the instance* (none of
``MinixFS``, ``TenantSession``, ``LLD``, ``Volume``, ``SimulatedDisk`` is
slotted; a delegating proxy would not do, because ``LDStore`` tests
``isinstance(ld, TenantSession)``). Every wrapped call records one span:
id, parent, request id, layer, name, ``perf_counter_ns`` start and end,
the virtual clock at start and end, and the payload bytes that entered the
layer. Spans stay in memory and are written as JSON lines at exit.

Clocks: fs, sched, lld and volume spans read the *shared* volume clock;
a disk span reads its member's *private* clock (the volume's busy-until
model), so disk simulated time is spindle busy time — members overlap and
it is not subtracted from the volume span above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterable, NamedTuple

LAYERS = ("fs", "sched", "lld", "volume", "disk")
SECTOR = 512


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    request: int  # the driver's step index; -1 outside the timed phase
    layer: str
    name: str
    start_ns: int
    end_ns: int
    sim_start: float
    sim_end: float
    private_clock: bool
    nbytes: int


def _len_arg1(args, result) -> int:
    return len(args[1])


def _len_result(args, result) -> int:
    return len(result) if result is not None else 0


def _sum_result(args, result) -> int:
    return sum(len(part) for part in result) if result is not None else 0


def _sectors_arg1(args, result) -> int:
    return args[1] * SECTOR


def _sectors_batch(args, result) -> int:
    return sum(nsectors for _lba, nsectors in args[0]) * SECTOR


_LD_BYTES = {
    "write": _len_arg1,
    "submit_write": _len_arg1,
    "read": _len_result,
    "read_blocks": _sum_result,
    "read_list": _sum_result,
}
_DEVICE_BYTES = {
    "write": _len_arg1,
    "read": _sectors_arg1,
    "read_batch": _sectors_batch,
}
#: Payload bytes entering a layer through one call, by layer and method.
#: ``submit_read*`` results are not known at submission; the driver adds
#: them on completion with :meth:`Tracer.add_bytes`.
BYTES_IN: dict[str, dict[str, Callable]] = {
    "fs": {"write": _len_arg1, "read": _len_result},
    "sched": _LD_BYTES,
    "lld": _LD_BYTES,
    "volume": _DEVICE_BYTES,
    "disk": _DEVICE_BYTES,
}


class Tracer:
    """In-memory span recorder; off until ``recording`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.recording = False
        #: Stamped on every span: the driver sets it to its step index.
        self.request = -1
        self.extra_bytes = dict.fromkeys(LAYERS, 0)
        self._open: list[int] = []

    def add_bytes(self, layer: str, nbytes: int) -> None:
        """Count payload bytes a span could not see (nonblocking reads)."""
        if self.recording:
            self.extra_bytes[layer] += nbytes

    def traced(self, layer: str, name: str, inner: Callable, clock, private: bool) -> Callable:
        spans = self.spans
        open_spans = self._open
        nbytes_of = BYTES_IN[layer].get(name)

        def call(*args, **kwargs):
            if not self.recording:
                return inner(*args, **kwargs)
            sid = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)  # reserve: ids are in start order
            open_spans.append(sid)
            result = None
            sim_start = clock.now
            start = perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                open_spans.pop()
                spans[sid] = Span(
                    sid, parent, self.request, layer, name, start, end,
                    sim_start, clock.now, private,
                    nbytes_of(args, result) if nbytes_of else 0,
                )

        return call

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(
                    f'{{"id":{s.id},"parent":{s.parent},"request":{s.request},'
                    f'"layer":"{s.layer}","name":"{s.name}",'
                    f'"start_ns":{s.start_ns},"end_ns":{s.end_ns},'
                    f'"sim_start":{s.sim_start!r},"sim_end":{s.sim_end!r},'
                    f'"bytes":{s.nbytes}}}\n'
                )


def wrap_layer(tracer: Tracer, obj, layer: str, names: Iterable[str], clock, *, private: bool = False) -> None:
    """Replace ``obj``'s public methods with span-recording wrappers.

    Must run before the layer above is built: ``LDServer`` captures
    ``ld.set_tenant`` at construction, and a bound method captured before
    wrapping would bypass the span.
    """
    for name in names:
        setattr(obj, name, tracer.traced(layer, name, getattr(obj, name), clock, private))


@dataclass
class LayerRow:
    calls: int = 0  # entries into the layer from the layer above
    cpu_self_ns: int = 0
    sim_self_s: float = 0.0
    bytes_in: int = 0


@dataclass
class LayerTable:
    rows: dict[str, LayerRow]
    root_ns: int  # summed duration of root spans: what the rows must sum to
    root_sim_s: float
    self_sum_error: float


def layer_table(spans: list[Span], extra_bytes: dict[str, int] | None = None) -> LayerTable:
    """Self time per layer: a span's duration minus what its children cover.

    The program is single-threaded, so sibling spans never overlap and the
    covered interval is the sum of the children's durations. ``calls`` and
    ``bytes_in`` count only spans entered from another layer, so a public
    method that calls a sibling (``read_list`` -> ``read_blocks``) is not
    counted twice.
    """
    first = spans[0].id if spans else 0
    child_ns = [0] * len(spans)
    child_sim = [0.0] * len(spans)
    for s in spans:
        if s.parent >= first:
            child_ns[s.parent - first] += s.end_ns - s.start_ns
            if not s.private_clock:
                child_sim[s.parent - first] += s.sim_end - s.sim_start
    rows = {layer: LayerRow() for layer in LAYERS}
    root_ns = 0
    root_sim = 0.0
    for s in spans:
        row = rows[s.layer]
        row.cpu_self_ns += s.end_ns - s.start_ns - child_ns[s.id - first]
        row.sim_self_s += s.sim_end - s.sim_start - child_sim[s.id - first]
        if s.parent < first:
            root_ns += s.end_ns - s.start_ns
            root_sim += s.sim_end - s.sim_start
        if s.parent < first or spans[s.parent - first].layer != s.layer:
            row.calls += 1
            row.bytes_in += s.nbytes
    for layer, nbytes in (extra_bytes or {}).items():
        rows[layer].bytes_in += nbytes
    total_self = sum(row.cpu_self_ns for row in rows.values())
    error = abs(total_self - root_ns) / root_ns if root_ns else 0.0
    return LayerTable(rows, root_ns, root_sim, error)
