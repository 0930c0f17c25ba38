"""The stats classes' payloads, the window onto them, and MetricsRegistry.

A payload (``as_dict()``) is a snapshot: it shares nothing with the stats
object, so one taken earlier is the start of a window, and
:meth:`MetricsRegistry.collect_delta` is the window.
"""

import copy
import dataclasses
import json
from collections import Counter

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.disk.stats import DiskStats
from repro.fs.minix.store import StoreStats
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.lld.lld import LLDStats
from repro.lld.nvram import NVRAM
from repro.lld.readcache import ReadCacheCounters
from repro.lld.recovery import RecoveryReport
from repro.obs import Counters, LatencyHistogram, MetricsRegistry, diff_payloads
from repro.sched.stats import SchedStats, TenantSchedStats
from repro.sim import VirtualClock
from repro.volume import Volume
from repro.volume.volume import VolumeStats


def _volume_stats():
    members = [SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock()) for _ in range(3)]
    volume = Volume(members, VirtualClock(), layout="raid5", chunk_sectors=8)
    volume.write(0, bytes(512 * 16))
    return volume.volume_stats


#: Every stats class in the tree (``VolumeStats`` comes with its volume).
STATS_TYPES = [
    pytest.param(factory, id=getattr(factory, "__name__").strip("_"))
    for factory in (
        DiskStats, StoreStats, LLDStats, NVRAM, RecoveryReport, SchedStats,
        TenantSchedStats, ReadCacheCounters, _volume_stats,
    )
]


def _containers(stats):
    """The nested containers of ``stats``, each with something in it."""
    if isinstance(stats, SchedStats):
        stats.tenant("alice").ack_latency_hist.record(0.002)
    found = []
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, Counter):
            value[8] += 1
        elif isinstance(value, LatencyHistogram):
            value.record(0.001)
        elif not isinstance(value, dict):
            continue
        found.append(value)
    return found


def _disturb(container) -> None:
    if isinstance(container, LatencyHistogram):
        container.record(0.5)
    elif isinstance(container, Counter):
        container[8] += 5
    else:
        for key, value in list(container.items()):
            if isinstance(value, Counters):
                for nested in _containers(value):
                    _disturb(nested)
                first = dataclasses.fields(value)[0].name
                setattr(value, first, getattr(value, first) + 3)
            else:
                container[key] = value + 3


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_stats_objects_satisfy_snapshot_protocol(stats_type):
    """What the registry asks of a source: ``as_dict()``, a dict of JSON
    values that ``collect()`` reports under the layer's prefix."""
    stats = stats_type()
    assert isinstance(stats, Counters)
    _containers(stats)
    payload = stats.as_dict()
    assert isinstance(payload, dict)
    json.dumps(payload)  # every value is JSON-serializable
    registry = MetricsRegistry()
    registry.register("layer", stats)
    assert registry.collect() == {f"layer.{key}": payload[key] for key in sorted(payload)}


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_snapshot_is_an_independent_copy(stats_type):
    """A payload taken earlier describes the object as it was then."""
    stats = stats_type()
    containers = _containers(stats)
    captured = stats.as_dict()
    frozen = copy.deepcopy(captured)
    # Mutating the original — a counter, and inside every nested container:
    # a tenant slice, a histogram bucket, a latency sketch, a per-disk row —
    # must not change the payload.
    counter = next(
        f.name
        for f in dataclasses.fields(stats)
        if type(getattr(stats, f.name)) is int and f.name not in stats.HIDDEN
    )
    setattr(stats, counter, getattr(stats, counter) + 7)
    for container in containers:
        _disturb(container)
    if hasattr(stats, "volume"):
        stats.volume.disks[0].stats.reads += 1
    assert stats.as_dict() != frozen
    assert captured == frozen
    # Nor does a payload share anything with the object it describes.
    for value in captured.values():
        if isinstance(value, dict):
            value["intruder"] = 1
        elif isinstance(value, list):
            value[0]["reads"] = -1
    assert "intruder" not in json.dumps(stats.as_dict())


def _numbers(payload):
    """Every numeric leaf of a window, histogram sketches included. (A
    list — the volume's ``per_disk`` rows — has its own test below.)"""
    for value in payload.values():
        if isinstance(value, dict):
            yield from _numbers(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield value


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_reset_returns_every_counter_to_its_start(stats_type):
    """A window opened now reads every counter at zero: the fresh start a
    run once got by zeroing the object. Nothing is zeroed: the object
    keeps counting."""
    stats = stats_type()
    for f in dataclasses.fields(stats):
        if f.default == 0 and f.name not in stats.HIDDEN:
            setattr(stats, f.name, f.default + 5)
    _containers(stats)
    registry = MetricsRegistry()
    registry.register("layer", stats)
    before = registry.collect()
    window = registry.collect_delta(before)
    assert window.keys() == before.keys()
    numbers = list(_numbers(window))
    assert numbers and not any(numbers)
    assert registry.collect() == before


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_a_window_is_per_field_subtraction(stats_type):
    """``collect_delta`` over a window in which every reported counter
    moved reads, for each field, the later value minus the earlier one —
    for every ``Counters`` subclass, its tenant slices included."""
    stats = stats_type()
    _containers(stats)
    registry = MetricsRegistry()
    registry.register("layer", stats)
    before = registry.collect()
    earlier = stats.as_dict()
    counters = [
        f.name
        for f in dataclasses.fields(stats)
        if type(getattr(stats, f.name)) in (int, float) and f.name not in stats.HIDDEN
    ]
    assert counters
    for step, name in enumerate(counters, start=1):
        setattr(stats, name, getattr(stats, name) + step)
    if isinstance(stats, SchedStats):
        stats.tenant("alice").writes += 4
    later = stats.as_dict()
    window = registry.collect_delta(before)
    for step, name in enumerate(counters, start=1):
        assert window[f"layer.{name}"] == later[name] - earlier[name] == step, name
    if isinstance(stats, SchedStats):
        assert window["layer.tenants"]["alice"]["writes"] == 4
    assert window == {f"layer.{key}": value for key, value in diff_payloads(earlier, later).items()}


def test_registry_collect_prefixes_layers():
    registry = MetricsRegistry()
    disk = DiskStats()
    disk.record_request(8, write=True)
    registry.register("disk", disk)
    registry.register("derived", lambda: {"gauge": 42})
    merged = registry.collect()
    assert merged["disk.writes"] == 1
    assert merged["disk.sectors_written"] == 8
    assert merged["derived.gauge"] == 42
    assert all("." in key for key in merged)


def test_registry_collect_ordering_is_deterministic():
    registry = MetricsRegistry()
    registry.register("zeta", lambda: {"b": 2, "a": 1})
    registry.register("alpha", lambda: {"z": 26, "m": 13})
    keys = list(registry.collect())
    assert keys == ["alpha.m", "alpha.z", "zeta.a", "zeta.b"]


def test_registry_rejects_bad_layers_and_sources():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.register("", DiskStats())
    with pytest.raises(ValueError):
        registry.register("disk.sub", DiskStats())
    with pytest.raises(TypeError):
        registry.register("disk", object())
    registry.register("disk", DiskStats())
    with pytest.raises(ValueError):
        registry.register("disk", DiskStats())  # duplicate


def test_registry_membership():
    registry = MetricsRegistry()
    assert "disk" not in registry
    registry.register("disk", DiskStats())
    assert "disk" in registry
    assert registry.layers == ["disk"]


def test_registry_rejects_non_dict_payload_at_collect():
    registry = MetricsRegistry()
    registry.register("bad", lambda: [1, 2, 3])
    with pytest.raises(TypeError):
        registry.collect()


def test_disk_stats_bytes_follow_sector_size():
    for sector_size in (512, 1024, 4096):
        stats = DiskStats(sector_size=sector_size)
        stats.record_request(3, write=False)
        stats.record_request(5, write=True)
        assert stats.bytes_read == 3 * sector_size
        assert stats.bytes_written == 5 * sector_size
        payload = stats.as_dict()
        assert payload["sector_size"] == sector_size
        assert payload["bytes_written"] == 5 * sector_size


def test_diff_payloads_subtracts_counters_and_recurses():
    from repro.obs.metrics import diff_payloads

    before = {"reads": 10, "nested": {"hits": 3}, "label": "raid5", "flag": False}
    after = {"reads": 25, "nested": {"hits": 8, "misses": 2}, "label": "raid5", "flag": True}
    window = diff_payloads(before, after)
    assert window["reads"] == 15
    assert window["nested"] == {"hits": 5, "misses": 2}
    assert window["label"] == "raid5"  # non-numerics pass through from after
    assert window["flag"] is True  # bools are state, not counters
    assert "gone" not in diff_payloads({"gone": 4}, {})  # before-only keys drop


def test_diff_payloads_merge_subtracts_histograms():
    from repro.obs.hist import LatencyHistogram
    from repro.obs.metrics import diff_payloads

    hist = LatencyHistogram()
    hist.record(0.001)
    before = {"lat": hist.as_dict()}
    hist.record(0.500)
    hist.record(0.600)
    window = diff_payloads(before, {"lat": hist.as_dict()})
    assert window["lat"]["count"] == 2
    # The window's quantiles describe only the two slow post-snapshot samples.
    assert window["lat"]["p50"] > 0.1
    # A histogram with no prior snapshot passes through whole.
    fresh = diff_payloads({}, {"lat": hist.as_dict()})
    assert fresh["lat"]["count"] == 3


def test_registry_collect_delta_yields_the_window():
    registry = MetricsRegistry()
    disk = DiskStats()
    registry.register("disk", disk)
    disk.record_request(8, write=True)
    before = registry.collect()
    disk.record_request(4, write=True)
    disk.record_request(2, write=False)
    window = registry.collect_delta(before)
    assert window["disk.writes"] == 1
    assert window["disk.reads"] == 1
    assert window["disk.sectors_written"] == 4


def test_a_window_computes_derived_figures_from_its_own_fields():
    """20 rewrites of one block at 4 KB, then a window of 20 at 100 bytes,
    each flushed: the window's write amplification is its own physical
    bytes over its own logical ones (14.8), not the difference of two
    cumulative ratios (0.32)."""
    config = LLDConfig(
        segment_size=64 * 1024, summary_capacity=4096, block_size=4096,
        checkpoint_slots=1, delta_partial_flush=True,
    )
    lld = LLD(SimulatedDisk(fast_test_disk(capacity_mb=8), VirtualClock()), config)
    lld.initialize()
    registry = MetricsRegistry()
    registry.register("lld", lld.stats)
    bid = lld.new_block(lld.new_list(), LIST_HEAD)
    for i in range(20):
        lld.write(bid, bytes([i + 1]) * 4096)
        lld.flush()
    before = registry.collect()
    for i in range(20):
        lld.write(bid, bytes([i + 1]) * 100)
        lld.flush()
    window = registry.collect_delta(before)
    physical, logical = window["lld.data_bytes_physical"], window["lld.data_bytes_logical"]
    assert logical == 2000
    assert window["lld.write_amplification"] == physical / logical == pytest.approx(14.848)
    cumulative = registry.collect()["lld.write_amplification"] - before["lld.write_amplification"]
    assert cumulative == pytest.approx(0.325, abs=1e-3)  # what subtraction read


def test_a_window_subtracts_each_members_row_and_keeps_its_index():
    members = [SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock()) for _ in range(3)]
    volume = Volume(members, VirtualClock(), layout="raid5", chunk_sectors=8)
    registry = MetricsRegistry()
    registry.register("volume", volume.volume_stats)
    volume.write(0, bytes(512 * 16))
    before = registry.collect()
    earlier = [disk.stats.as_dict() for disk in members]
    volume.write(0, b"\x01" * 512)
    volume.read(8, 8)
    window = registry.collect_delta(before)
    rows = window["volume.per_disk"]
    assert [row["index"] for row in rows] == [0, 1, 2]
    for row, disk, old in zip(rows, members, earlier):
        for name in VolumeStats.MEMBER_FIELDS:
            assert row[name] == getattr(disk.stats, name) - old[name], name
    assert sum(row["requests"] for row in rows) > 0
    assert window["volume.total_bytes_written"] == sum(row["bytes_written"] for row in rows)
