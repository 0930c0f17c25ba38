"""Snapshot protocol conformance and MetricsRegistry behaviour."""

import copy
import dataclasses
import json
from collections import Counter

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.disk.stats import DiskStats
from repro.fs.minix.store import StoreStats
from repro.lld.lld import LLDStats, TenantCounters
from repro.lld.nvram import NVRAM
from repro.lld.readcache import ReadCacheCounters
from repro.lld.recovery import RecoveryReport
from repro.obs import Counters, LatencyHistogram, MetricsRegistry, Snapshot
from repro.sched.stats import SchedStats, TenantSchedStats
from repro.sim import VirtualClock
from repro.volume import Volume


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
        TenantSchedStats, TenantCounters, ReadCacheCounters, _volume_stats,
    )
]


def _containers(stats):
    """The nested containers of ``stats``, each with something in it."""
    if isinstance(stats, LLDStats):
        stats.tenant_counters("alice").blocks_read += 1
    if isinstance(stats, SchedStats):
        stats.tenant("alice").ack_latency_hist.record(0.002)
    found = []
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, Counter):
            value[8] += 1
        elif isinstance(value, LatencyHistogram):
            value.record(0.001)
        elif f.name == "extra":
            value["gauge"] = 1
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
    stats = stats_type()
    assert isinstance(stats, Snapshot)
    assert isinstance(stats, Counters)
    _containers(stats)
    payload = stats.as_dict()
    assert isinstance(payload, dict)
    json.dumps(payload)  # every value is JSON-serializable


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_snapshot_is_an_independent_copy(stats_type):
    stats = stats_type()
    containers = _containers(stats)
    before = stats.snapshot()
    assert before is not stats
    assert type(before) is type(stats)
    captured = before.as_dict()
    assert captured == stats.as_dict()
    frozen = copy.deepcopy(captured)
    # Mutating the original — a counter, and inside every nested container:
    # a tenant slice, a histogram bucket, a latency sketch, a per-disk row —
    # must not change the snapshot.
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
    assert before.as_dict() == frozen
    # Nor does a payload share anything with the object it describes.
    for value in captured.values():
        if isinstance(value, dict):
            value["intruder"] = 1
        elif isinstance(value, list):
            value[0]["reads"] = -1
    assert before.as_dict() == frozen
    assert before.snapshot().as_dict() == frozen


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_reset_returns_every_counter_to_its_start(stats_type):
    stats = stats_type()
    for f in dataclasses.fields(stats):
        if f.default == 0 and f.name not in stats.HIDDEN:
            setattr(stats, f.name, f.default + 5)
    _containers(stats)
    assert stats.as_dict() != stats_type().as_dict()
    stats.reset()
    fresh = stats_type()
    if stats_type is _volume_stats:  # its factory has written to the volume
        fresh.reset()
    assert stats.as_dict() == fresh.as_dict()


def test_reset_keeps_what_an_nvram_holds_and_a_disk_is():
    nvram = NVRAM(capacity_bytes=4096)
    nvram.store(3, b"image")
    nvram.reset()
    assert (nvram.slot, nvram.image, nvram.capacity_bytes) == (3, b"image", 4096)
    assert nvram.stores == nvram.bytes_stored == 0
    disk = DiskStats(sector_size=1024)
    disk.record_request(8, write=True)
    disk.reset()
    assert disk.as_dict() == DiskStats(sector_size=1024).as_dict()


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
    nested = registry.collect_nested()
    assert list(nested) == ["alpha", "zeta"]
    assert list(nested["zeta"]) == ["a", "b"]


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


def test_registry_membership_and_unregister():
    registry = MetricsRegistry()
    registry.register("disk", DiskStats())
    assert "disk" in registry
    assert registry.layers == ["disk"]
    registry.unregister("disk")
    assert "disk" not in registry
    with pytest.raises(KeyError):
        registry.unregister("disk")


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
        assert stats.snapshot().sector_size == sector_size


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
