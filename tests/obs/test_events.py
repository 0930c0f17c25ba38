"""EventLog: emission, severity validation, bounded ring, JSONL round-trip."""

import pytest

from repro.obs.events import (
    Event,
    EventLog,
    export_events_jsonl,
    load_events_jsonl,
)
from repro.sim import VirtualClock


def test_emit_stamps_virtual_time_and_payload():
    clock = VirtualClock()
    log = EventLog(clock)
    clock.advance(1.5)
    event = log.emit("volume.member_failed", severity="warn", member=2)
    assert event.t == 1.5
    assert event.layer == "volume"
    assert event.payload == {"member": 2}
    assert log.emitted == 1


def test_empty_log_is_truthy():
    # The choke-point guard is `ev = self.events` / `if ev:` — an empty
    # log being falsy would silently swallow the first event of a run.
    log = EventLog()
    assert len(log) == 0
    assert bool(log)


def test_unknown_severity_raises():
    log = EventLog()
    with pytest.raises(ValueError, match="unknown severity"):
        log.emit("x.y", severity="fatal")


def test_explicit_timestamp_and_no_clock_default():
    log = EventLog()  # no clock: offline replay
    assert log.emit("a.b").t == 0.0
    assert log.emit("a.b", t=3.25).t == 3.25


def test_ring_is_bounded_and_counts_drops():
    log = EventLog(capacity=4)
    for i in range(10):
        log.emit("lld.cleaner_pass", slot=i)
    assert len(log) == 4
    assert log.emitted == 10
    assert log.dropped == 6
    assert [e.payload["slot"] for e in log] == [6, 7, 8, 9]
    with pytest.raises(ValueError):
        EventLog(capacity=0)


def test_select_filters_compose():
    log = EventLog()
    log.emit("volume.member_failed", severity="warn", t=1.0)
    log.emit("lld.cleaner_pass", severity="debug", t=2.0)
    log.emit("volume.rebuild_started", severity="info", t=3.0)
    assert [e.name for e in log.select(layer="volume")] == [
        "volume.member_failed",
        "volume.rebuild_started",
    ]
    assert len(log.select(min_severity="warn")) == 1
    assert len(log.select(since=2.5)) == 1
    assert len(log.select(layer="volume", name="volume.rebuild_started")) == 1


def test_counts_by_name_and_clear():
    log = EventLog()
    log.emit("a.x")
    log.emit("a.x")
    log.emit("b.y")
    assert log.counts_by_name() == {"a.x": 2, "b.y": 1}
    log.clear()
    assert len(log) == 0
    assert log.emitted == 3  # lifetime total survives a clear


def test_jsonl_round_trip(tmp_path):
    log = EventLog()
    log.emit("volume.member_failed", severity="error", t=1.25, member=2)
    log.emit("health.volume_degraded", t=1.5, status="warn", previous=None)
    path = tmp_path / "events.jsonl"
    export_events_jsonl(log, path)
    loaded = load_events_jsonl(path)
    assert [e.as_dict() for e in loaded] == [e.as_dict() for e in log]
    assert loaded[0].severity == "error"
    assert loaded[0].payload["member"] == 2


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"t": 1.0, "name": "a.b"}\n\n\n')
    loaded = load_events_jsonl(path)
    assert len(loaded) == 1
    assert loaded[0].severity == "info"  # defaulted
    assert isinstance(loaded[0], Event)


# ----------------------------------------------------------------------
# lld.slot: one event per slot state change, from the slot table
# ----------------------------------------------------------------------


def _slot_script(events):
    """A 4 MB LLD (one checkpoint slot) that fills a few segments, kills
    most of the first one's blocks, cleans it and flushes; ``events``
    (an EventLog or None) attached from the start. Returns the LLD, its
    recording disk and the cleaned slot."""
    from repro.crashsim import RecordingDisk
    from repro.disk import SimulatedDisk, fast_test_disk
    from repro.ld import LIST_HEAD
    from repro.lld import LLD
    from repro.obs import attach_events

    from tests.lld.conftest import small_config

    disk = RecordingDisk(SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock()))
    lld = LLD(disk, small_config())
    attach_events(events, lld)
    lld.initialize()
    lid, pred, bids = lld.new_list(), LIST_HEAD, []
    for i in range(40):
        pred = lld.new_block(lid, pred)
        lld.write(pred, bytes([i + 1]) * 4096)
        bids.append(pred)
    lld.flush()
    victim = lld.state.blocks[bids[0]].segment
    for bid in bids:
        if lld.state.blocks[bid].segment == victim and bid != bids[0]:
            lld.write(bid, b"n" * 4096)
    lld.flush()
    assert lld.clean(1) == 1 and lld.slots.of[victim] == "retired"
    lld.write(bids[-1], b"z" * 4096)
    lld.flush()  # the re-logged records are durable: the scrub follows
    return lld, disk, victim


def test_slot_events_follow_one_slot_through_a_clean():
    log = EventLog(capacity=100_000)
    lld, _disk, victim = _slot_script(log)
    moves = [
        (e.payload["old"], e.payload["new"], e.payload["cause"])
        for e in log.select(name="lld.slot")
        if e.payload["slot"] == victim
    ]
    assert moves == [
        ("free", "open", "open"),
        ("open", "sealed", "seal"),
        ("sealed", "retired", "clean"),
        ("retired", "free", "scrub"),
    ]
    assert lld.slots.of[victim] == "free"
    times = [e.t for e in log.select(name="lld.slot")]
    assert times == sorted(times) and all(
        e.severity == "debug" for e in log.select(name="lld.slot")
    )


def test_slot_events_do_not_change_what_the_disk_sees():
    with_sink, disk_a, _ = _slot_script(EventLog(capacity=100_000))
    without, disk_b, _ = _slot_script(None)
    assert disk_a.events == disk_b.events and disk_a.barriers == disk_b.barriers
    assert disk_a.clock.now == disk_b.clock.now
    assert with_sink.stats.as_dict() == without.stats.as_dict()
