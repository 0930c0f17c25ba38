"""Crash recovery: a checkpoint and its tail, or one sweep (paper §3.6).

The paper's recovery reads *only* the segment summaries — a single sweep
over their fixed locations — and rebuilds the block-number map, list table,
and segment usage table from the logged tuples. Timestamps decide the most
recent version of every piece of metadata; records belonging to atomic
recovery units that never logged a COMMIT are discarded, which yields the
all-or-nothing guarantee. No roll-forward pass is needed.

Its cost grows with the disk. So LLD also takes checkpoints
(:mod:`repro.lld.checkpoint`), each holding the tables as of a timestamp
``T`` and listing the slots the log opens first; every summary names the
slot opened after it. Recovery loads the newest copy, reads the listed
summaries in one batch, follows the chain of ``next`` slots past them —
the *tail*, Sprite LFS's roll-forward — and replays it from ``T`` with
the sweep's own :func:`replay`; without a usable copy it sweeps
(DESIGN.md §17). Either way it ends with ``SlotTable.recover``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lld.config import SECTOR
from repro.lld.records import Record
from repro.lld.segment import decode_summary_into, summary_next
from repro.lld.state import KIND_COMMIT, RECORD_KINDS, LLDState
from repro.obs.metrics import Counters
from repro.obs.trace import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover
    from repro.lld.lld import LLD


@dataclass(slots=True)
class RecoveryReport(Counters):
    """What recovery did, and what it cost in simulated time."""

    #: Summaries read: every slot's by the sweep; after a checkpoint the
    #: listed ones' and :attr:`summaries_followed`.
    segments_scanned: int = 0
    #: Of those, the summaries read one at a time along the chain of
    #: ``next`` slots, past the list.
    summaries_followed: int = 0
    summaries_valid: int = 0
    records_seen: int = 0
    records_applied: int = 0
    records_discarded: int = 0
    arus_committed: int = 0
    arus_discarded: int = 0
    simulated_seconds: float = 0.0
    # Disk read requests the sweep issued; with coalescing this can be far
    # below segments_scanned (one request spans several slots' summaries).
    summary_read_requests: int = 0
    #: Sequence number of the checkpoint recovery started from (0: swept).
    checkpoint_sequence: int = 0

    def __str__(self) -> str:
        start = (
            f"checkpoint {self.checkpoint_sequence} + "
            if self.checkpoint_sequence
            else "sweep: "
        )
        followed = (
            f" ({self.summaries_followed} followed)" if self.checkpoint_sequence else ""
        )
        return (
            f"recovery: {start}{self.summaries_valid}/{self.segments_scanned} summaries"
            f"{followed}, "
            f"{self.records_applied}/{self.records_seen} records applied, "
            f"{self.arus_discarded} ARU(s) discarded, "
            f"{self.simulated_seconds * 1000:.1f} ms simulated"
        )


#: The record type that commits a unit (the one whose key is its COMMIT).
COMMIT = next(kind for kind, row in RECORD_KINDS.items() if row.sets == KIND_COMMIT)

#: Upper bound on one coalesced sweep request, in sectors (1 MB).
_MAX_SWEEP_REQUEST_SECTORS = 2048


def _sweep_batch_size(lld: "LLD") -> int:
    """Slots whose summaries one sweep request should span.

    Summaries sit at fixed offsets with a data area between them, so
    coalescing adjacent summary reads into one multi-sector request means
    transferring (and discarding) the gap. That pays off exactly when the
    gap's transfer time is below the cost of issuing a fresh request —
    per-request host overhead plus the expected rotational delay — which
    the geometry decides. For the paper's 512 KB segments the gap is far
    too wide and the sweep stays one-request-per-slot.
    """
    geo = lld.disk.geometry
    config = lld.config
    gap_sectors = config.sectors_per_segment - config.summary_sectors
    bridge_cost = gap_sectors * geo.sector_time
    separate_cost = geo.request_overhead_ms / 1000.0 + 0.5 * geo.revolution_time
    if bridge_cost > separate_cost:
        return 1
    span_budget = _MAX_SWEEP_REQUEST_SECTORS - config.summary_sectors
    return max(1, span_budget // config.sectors_per_segment + 1)


def sweep_summaries(lld: "LLD") -> list[tuple[int, list[Record]]]:
    """Read and parse every segment summary, in slot order (one sweep).

    Adjacent slots' summaries are coalesced into one multi-sector request
    whenever the geometry makes bridging the inter-summary gap cheaper
    than paying another per-request overhead (see ``_sweep_batch_size``).
    Summaries that fail to parse — never written, torn, or corrupt — are
    skipped; a damaged slot can never abort the sweep.

    Each summary is decoded in one batch pass (``decode_summary_into``)
    straight out of a ``memoryview`` of the sweep request's buffer —
    coalesced requests are never sliced into per-slot ``bytes`` copies.
    """
    result: list[tuple[int, list[Record]]] = []
    config = lld.config
    segment_count = lld.layout.segment_count
    batch = _sweep_batch_size(lld)
    stride = config.sectors_per_segment * SECTOR
    summary_capacity = config.summary_capacity

    # Phase 1: plan the sweep — one (start_slot, count, lba, nsectors)
    # request per batch of adjacent slots.
    requests: list[tuple[int, int, int, int]] = []
    for start in range(0, segment_count, batch):
        count = min(batch, segment_count - start)
        if count == 1:
            nsectors = config.summary_sectors
        else:
            nsectors = (count - 1) * config.sectors_per_segment + config.summary_sectors
        requests.append((start, count, lld.layout.slot_lba(start), nsectors))

    # Phase 2: dispatch. A multi-spindle volume overlaps the per-disk
    # sub-sweeps of the whole batch in simulated time — the parallel
    # summary sweep; a bare disk serves the batch back-to-back,
    # timing-identical to the sequential loop this replaces.
    if len(requests) > 1:
        bufs = lld.disk.read_batch(
            [(lba, nsectors) for _s, _c, lba, nsectors in requests]
        )
    else:
        bufs = [lld.disk.read(lba, nsectors) for _s, _c, lba, nsectors in requests]

    # Phase 3: decode, in slot order.
    for (start, count, _lba, _nsectors), raw in zip(requests, bufs):
        if count == 1:
            images = [raw]
        else:
            buf = memoryview(raw)
            images = [
                buf[i * stride : i * stride + summary_capacity] for i in range(count)
            ]
        for i, image in enumerate(images):
            records: list[Record] = []
            if decode_summary_into(image, records):
                result.append((start + i, records))
    return result


def run_recovery(lld: "LLD") -> RecoveryReport:
    """Rebuild ``lld.state`` from the newest checkpoint and its tail, or,
    when there is no usable copy, from every summary on disk."""
    tr = lld.tracer
    t0 = lld.disk.clock.now
    with (tr.span("lld.checkpoint_load") if tr else NULL_SPAN) as sp:
        report = _from_checkpoint(lld)
        if sp is not None and report is not None:
            sp.attrs["sequence"] = report.checkpoint_sequence
            sp.attrs["records_applied"] = report.records_applied
    if report is None:
        t0 = lld.disk.clock.now  # the sweep's own time, without the probe
        with (tr.span("lld.recovery_sweep") if tr else NULL_SPAN) as sp:
            report = _sweep(lld)
            if sp is not None:
                sp.attrs["summaries_valid"] = report.summaries_valid
                sp.attrs["records_applied"] = report.records_applied
                sp.attrs["arus_discarded"] = report.arus_discarded
    report.simulated_seconds = lld.disk.clock.now - t0
    ev = lld.events
    if ev:
        ev.emit(
            "lld.checkpoint_loaded" if report.checkpoint_sequence else "lld.recovery_sweep",
            t=lld.disk.clock.now,
            checkpoint_sequence=report.checkpoint_sequence,
            segments_scanned=report.segments_scanned,
            summaries_followed=report.summaries_followed,
            summaries_valid=report.summaries_valid,
            records_applied=report.records_applied,
            arus_discarded=report.arus_discarded,
            simulated_seconds=report.simulated_seconds,
        )
    return report


def _from_checkpoint(lld: "LLD") -> RecoveryReport | None:
    """Load the newest copy and replay its tail — the listed slots'
    summaries, then the chain of ``next`` slots past them; None when
    there is no copy to load (nothing is changed then)."""
    region = lld.checkpoint
    header = region.newest_copy()
    if header is None:
        return None
    config = lld.config
    listed = header.listed
    since = header.timestamp
    reads_before = lld.disk.stats.reads
    # In slot order, which is LBA order: each member serves its share of
    # the batch in one pass of the arm, whatever order the log opened the
    # slots in (listed victims fall anywhere).
    batch = sorted(listed)
    body, *images = lld.disk.read_batch(
        [region.body_extent(header)]
        + [(lld.layout.slot_lba(slot), config.summary_sectors) for slot in batch]
    )
    if not region.load(lld.state, header, body):
        return None
    slots: list[tuple[int, list[Record]]] = []
    opened: set[int] = set()  # slots opened since T: their summaries are newer
    heads = []  # (timestamp, image) of each opened one
    for slot, image in zip(batch, images):
        records: list[Record] = []
        if decode_summary_into(image, records):
            slots.append((slot, records))
            if records and records[0].timestamp >= since:
                opened.add(slot)
                heads.append((records[-1].timestamp, image))
    # Roll forward: each summary names the slot opened after it. The log
    # may open unlisted slots between listed ones (a listed victim opens
    # once the cleaner has emptied it), so the chain is followed from every
    # opened summary that names an unlisted slot, in log order. A slot the
    # log named but never wrote holds an older summary, an empty one or
    # none — the end of that run.
    heads.sort(key=lambda head: head[0])
    newest = heads[-1] if heads else None  # (timestamp, image) of the newest read
    followed = 0
    for last, image in heads:
        link = summary_next(image)
        while (
            link is not None
            and link not in listed
            and link not in opened
            and followed < lld.layout.segment_count
        ):
            image = lld.disk.read(lld.layout.slot_lba(link), config.summary_sectors)
            followed += 1
            records = []
            if not decode_summary_into(image, records) or not records:
                break
            if records[0].timestamp <= last:
                break  # older than the summary that named it
            slots.append((link, records))
            opened.add(link)
            last = records[-1].timestamp
            if last > newest[0]:
                newest = (last, image)
            link = summary_next(image)
    link = None if newest is None else summary_next(newest[1])
    report = RecoveryReport(
        segments_scanned=len(listed) + followed,
        summaries_followed=followed,
        summary_read_requests=lld.disk.stats.reads - reads_before,
        checkpoint_sequence=header.sequence,
    )
    report.summaries_valid = len(slots)
    state = lld.state
    for slot, records in slots:
        if not records or records[0].timestamp >= since:
            # Opened or scrubbed since T: the unit records the image places
            # in the slot are gone (``LogWriter.open_next`` forgot them).
            state.forget_units(slot)
    replay(state, slots, report, since=since)
    # The recovered log goes on where the crashed one was: the listed slots
    # not opened yet first, no slot of the chain before the next
    # checkpoint, and the slot the chain's last summary names, if any.
    lld.slots.recover(set(listed) - opened, opened, link)
    return report


def _sweep(lld: "LLD") -> RecoveryReport:
    report = RecoveryReport(segments_scanned=lld.layout.segment_count)
    reads_before = lld.disk.stats.reads
    slots = sweep_summaries(lld)
    report.summary_read_requests = lld.disk.stats.reads - reads_before
    report.summaries_valid = len(slots)
    replay(lld.state, slots, report)
    lld.slots.recover()
    return report


def replay(
    state: LLDState,
    slots: list[tuple[int, list[Record]]],
    report: RecoveryReport,
    since: int = 0,
) -> None:
    """Apply the records of ``slots``' summaries stamped ``since`` or later,
    in timestamp order, to ``state``: the sweep's replay (``since`` 0,
    every record on disk) and a checkpoint's tail (``since`` its ``T``).

    A unit's records are applied only when its COMMIT is among them —
    the all-or-nothing rule, read off ``RECORD_KINDS``. Each summary with
    replayed records sets its slot's oldest timestamp; a valid empty one
    (a scrubbed slot) clears it; one older than ``since`` leaves what the
    checkpoint holds.
    """
    committed: set[int] = set()
    open_arus: set[int] = set()
    tagged: list[tuple[int, int, int, Record]] = []
    for slot, records in slots:
        if not records:
            state.summary_min_ts.pop(slot, None)
            continue
        if records[0].timestamp < since:
            continue  # a summary from before the checkpoint
        for index, record in enumerate(records):
            if type(record) is COMMIT:
                committed.add(record.aru)
            elif record.aru:
                open_arus.add(record.aru)
            tagged.append((record.timestamp, slot, index, record))
        report.records_seen += len(records)
        state.summary_min_ts[slot] = min(r.timestamp for r in records)

    report.arus_committed = len(committed & open_arus)
    report.arus_discarded = len(open_arus - committed)

    tagged.sort(key=lambda item: (item[0], item[1], item[2]))
    for _ts, slot, _index, record in tagged:
        if record.aru and record.aru not in committed:
            report.records_discarded += 1
            continue
        state.apply(record, slot)
        report.records_applied += 1
    if tagged:
        # Past every record on disk, the discarded ones too: the log's
        # next records (and unit ids) must not repeat their timestamps.
        state.next_ts = max(state.next_ts, tagged[-1][0] + 1)
