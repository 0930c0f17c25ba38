"""The one walker over a built stack: coverage, the attach guard, inheritance."""

import pytest

from repro.bench.builders import BuildSpec, build_ld_server, build_minix, build_minix_lld
from repro.crashsim import CrashStateEnumerator
from repro.crashsim.recording import RecordingDisk
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD
from repro.lld.nvram import NVRAM
from repro.obs import EventLog, Tracer, attach_events, attach_tracer
from repro.obs.stack import HOOKS, inherit, registry_of, walk
from repro.sim import VirtualClock

from tests.lld.conftest import small_config

SPEC = BuildSpec.from_scale(0.05)


def _fs_on(device_kwargs, **kwargs):
    fs, _lld = build_minix_lld(SPEC, **device_kwargs, **kwargs)
    return fs


def _with_nvram():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    lld = LLD(RecordingDisk(disk), small_config(), nvram=NVRAM())
    lld.initialize()
    return lld


DEVICES = {
    "bare": {},
    "stripe": {"n_disks": 3, "volume_layout": "stripe"},
    "mirror": {"n_disks": 2, "volume_layout": "mirror"},
    "raid5": {"n_disks": 4, "volume_layout": "raid5"},
}

#: name -> builder of the top of a stack, for every builder arm.
STACKS = {
    **{f"minix_lld-{name}": (lambda kw=kw: _fs_on(kw)) for name, kw in DEVICES.items()},
    **{
        f"minix_session-{name}": (lambda kw=kw: _fs_on(kw, scheduler="qos"))
        for name, kw in DEVICES.items()
    },
    "minix_group_commit": lambda: _fs_on({}, flush_batch=4),
    "server-raid5": lambda: build_ld_server(SPEC, n_disks=4, volume_layout="raid5")[0],
    "minix_classic": lambda: build_minix(SPEC),
    "lld_nvram_recording": _with_nvram,
}


def _reachable(top):
    """Every object reachable from ``top`` through instance attributes
    (and lists / dicts of them), whatever the attribute is called."""
    seen, pending, found = set(), [top], []
    while pending:
        obj = pending.pop()
        if isinstance(obj, (list, tuple)):
            pending.extend(obj)
        elif isinstance(obj, dict):
            pending.extend(obj.values())
        elif hasattr(obj, "__dict__") and not isinstance(obj, type) and id(obj) not in seen:
            seen.add(id(obj))
            found.append(obj)
            pending.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("name", sorted(STACKS))
def test_walk_reaches_every_object_that_declares_a_hook(name):
    """A new layer cannot be silently un-instrumented: whatever declares
    ``tracer`` or ``events`` anywhere under a built stack is walked, from
    the top and from every component on the way down."""
    top = STACKS[name]()
    declaring = {
        id(obj): obj for obj in _reachable(top) if any(hook in vars(obj) for hook in HOOKS)
    }
    assert declaring, "the stack declares no hook at all?"
    walked = list(walk(top))
    assert len({id(obj) for _layer, obj in walked}) == len(walked)  # each once
    missed = declaring.keys() - {id(obj) for _layer, obj in walked}
    assert not missed, [type(declaring[i]).__name__ for i in missed]
    # Every entry point sees everything below it.
    for _layer, entry in walked:
        below = {id(obj) for obj in _reachable(entry)} & declaring.keys()
        assert below <= {id(obj) for _layer, obj in walk(entry)}, type(entry).__name__


def test_walk_names_the_layers_top_down():
    fs = _fs_on(DEVICES["raid5"], scheduler="qos")
    layers = [layer for layer, _obj in walk(fs)]
    assert layers == sorted(
        layers, key=("fs", "sched", "lld", "volume", "disk").index
    )
    assert layers.count("disk") == 4 and layers.count("volume") == 1
    names = [type(obj).__name__ for _layer, obj in walk(fs)]
    assert names[:6] == [
        "MinixFS", "LDStore", "TenantSession", "LDServer", "LLD", "LogWriter",
    ]


def test_attach_events_leaves_a_crash_recorders_journal_alone():
    """A ``RecordingDisk``'s ``events`` is its write journal, not an event
    log: attaching one must not replace it (the next write would die with
    ``'EventLog' object has no attribute 'append'``)."""
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    lld = LLD(recording, small_config())
    lld.initialize()
    log = attach_events(EventLog(disk.clock), lld)
    assert lld.events is log and lld.log.events is log
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"x" * 4096)
    lld.flush()
    assert isinstance(recording.events, list)
    assert recording.position > 0
    states = CrashStateEnumerator(recording).enumerate()
    assert len(states) > recording.position
    # Detaching does not take it for one either.
    attach_events(None, lld)
    assert lld.events is None and isinstance(recording.events, list)


def test_the_same_guard_holds_for_a_tracer_slot_and_at_construction():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    disk.tracer = "not a tracer"  # somebody else's attribute of that name
    recording = RecordingDisk(disk)
    lld = LLD(recording, small_config())
    assert lld.tracer is None and lld.events is None  # neither was inherited
    tracer = attach_tracer(Tracer(disk.clock), lld)
    assert lld.tracer is tracer and disk.tracer == "not a tracer"

    class Probe:
        pass

    probe = Probe()
    inherit(probe, lld, events=False)
    assert probe.tracer is tracer and not hasattr(probe, "events")


def test_attach_rejects_a_hook_nobody_reads():
    from repro.obs.stack import attach

    with pytest.raises(TypeError):
        attach(object(), tracr=None)


def test_registry_of_finds_the_same_layers_from_any_entry_point():
    fs = _fs_on(DEVICES["raid5"], scheduler="qos")
    server = fs.store.ld.server
    of_lld = ["disk", "lld", "recovery", "space", "volume"]
    assert registry_of(fs).layers == sorted(of_lld + ["fs", "sched"])
    assert registry_of(server).layers == sorted(of_lld + ["sched"])
    assert registry_of(server.ld).layers == of_lld
    assert registry_of(server.ld.disk).layers == ["disk", "volume"]
    assert registry_of(server.ld.disk.disks[0]).layers == ["disk"]
    # The volume's members roll up in "volume"; "disk" is its own requests.
    payload = registry_of(fs).collect()
    assert payload["disk.writes"] == server.ld.disk.stats.writes
    lld = _with_nvram()
    assert "nvram" in registry_of(lld)
    assert registry_of(lld).collect()["disk.writes"] == lld.disk.stats.writes
    assert registry_of(None, recovery=lld.stats).layers == ["recovery"]
