"""The shape of a built stack, in one place.

A stack is a chain of components, each holding the next one down in an
instance attribute::

    MinixFS.store -> LDStore.ld -> TenantSession.server -> LDServer.ld
        -> LLD.log / LLD.disk -> Volume.disks -> SimulatedDisk

with device wrappers (a crash recorder) holding theirs in ``inner``, and
a server holding every tenant's session, which are its own front.
:func:`walk` follows that chain from any entry point; everything that has
to reach every layer is written on it: :func:`attach` (post-construction
instrumentation), :func:`inherit` (the same at construction time, for a
component built on an instrumented one) and :func:`registry_of` (every
layer's stats behind one ``collect()``). A new layer is one more walked
attribute here, not a change to each of them.

This module sits below every layer it describes, so it imports none of
them: components are recognised by what they hold and by class name.
"""

from __future__ import annotations

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: The attributes in which a component holds the next ones down, in the
#: order they are descended (a session's server before the LD they share,
#: an LLD's log before its device), so a walk runs top to bottom.
BELOW = ("store", "server", "sessions", "ld", "log", "disk", "inner", "disks")

#: The layer each component belongs to, by class name along its MRO.
#: Anything else is a device: a bare disk, a member, a wrapper around one.
LAYERS = {
    "MinixFS": "fs",
    "BlockStore": "fs",
    "TenantSession": "sched",
    "LDServer": "sched",
    "LogicalDisk": "lld",
    "LogWriter": "lld",
    "Volume": "volume",
}

#: The instrumentation hooks a component may declare (an instance
#: attribute its choke points read), and what each carries.
HOOKS = {"tracer": Tracer, "events": EventLog}


def _layer(obj) -> str:
    for cls in type(obj).__mro__:
        layer = LAYERS.get(cls.__name__)
        if layer is not None:
            return layer
    return "disk"


def walk(top):
    """Yield ``(layer, component)`` for ``top`` and everything below it,
    top down, each component once.

    Duck-typed: whatever is passed (a ``MinixFS``, a store, a tenant
    session, an ``LDServer``, an LD, a ``Volume``, a disk, a test's
    wrapper) is descended through the :data:`BELOW` attributes of its
    instance dict, a volume's member list and a server's session table
    included. Only instance attributes count — a wrapper's
    ``__getattr__`` pass-through must not make its inner disk's
    components look like its own.
    """
    seen: set[int] = set()
    pending = [top]
    while pending:
        obj = pending.pop()
        held = getattr(obj, "__dict__", None)
        if held is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        yield _layer(obj), obj
        below: list = []
        for attr in BELOW:
            child = held.get(attr)
            if isinstance(child, dict):
                child = list(child.values())
            if isinstance(child, (list, tuple)):
                below.extend(child)
            elif child is not None:
                below.append(child)
        pending.extend(reversed(below))


def _shareable(value, hook: str) -> bool:
    """Whether what a ``hook`` attribute holds is that hook's. Not every
    ``events`` is an event log: a crash recorder's is its write journal,
    and neither a walk nor a constructor may take it for one."""
    return isinstance(value, HOOKS[hook])


def attach(*tops, **hooks) -> None:
    """Point the ``tracer=`` / ``events=`` hooks of ``tops`` and of every
    component below them at the given objects; ``None`` detaches.

    Assigns only where the component already declares the hook — those
    are the objects whose choke points read it, and growing a new
    attribute on an un-instrumented hot object (a ``MinixFS``, say) would
    un-share its CPython key-sharing instance dict and slow every
    attribute access on it — and only where the slot is empty or holds
    that hook's own kind of object.
    """
    unknown = hooks.keys() - HOOKS.keys()
    if unknown:
        raise TypeError(f"unknown instrumentation hook(s): {sorted(unknown)}")
    for top in tops:
        for _layer_name, obj in walk(top):
            held = obj.__dict__
            for hook, value in hooks.items():
                if hook in held and (held[hook] is None or _shareable(held[hook], hook)):
                    setattr(obj, hook, value)


def inherit(component, below, tracer=None, *, events: bool = True) -> None:
    """Constructor-time instrumentation: ``component`` declares its hooks
    and joins the trace and the event log of the component it is built
    on, so a post-crash LLD built over an instrumented disk keeps
    reporting (recovery spans land in the same trace). An explicit
    ``tracer`` wins; ``events=False`` for a component that emits none.
    """
    wanted = ("tracer", "events") if events else ("tracer",)
    for hook in wanted:
        value = getattr(below, hook, None)
        setattr(component, hook, value if _shareable(value, hook) else None)
    if tracer is not None:
        component.tracer = tracer


def registry_of(top, recovery=None) -> MetricsRegistry:
    """One :class:`MetricsRegistry` over the stack under ``top``.

    The topmost stats object of each of ``fs`` / ``sched`` / ``lld`` that
    reports (a store's, not the ``FSStats`` tallies of the ``MinixFS`` over
    it) is adopted under its layer name; the device directly below them as
    ``disk`` (a volume's request-level counters) with its per-spindle
    rollup as ``volume``; and, of an LLD, its NVRAM, its derived ``space``
    gauges (what the free-segment health rule watches) and its recovery
    report. ``recovery`` overrides that report (useful when it came from a
    *different* post-crash LLD instance). ``registry.collect()`` yields
    the merged, layer-prefixed, deterministically-ordered dict.
    """
    registry = MetricsRegistry()
    ld = device = None
    for layer, obj in walk(top):
        held = obj.__dict__
        if layer in ("volume", "disk"):
            if device is None:
                device = obj
        elif layer not in registry and hasattr(held.get("stats"), "as_dict"):
            registry.register(layer, held["stats"])
            if layer == "lld":
                ld = obj
        if held.get("nvram") is not None and "nvram" not in registry:
            registry.register("nvram", held["nvram"])
    if device is not None:
        registry.register("disk", device.stats)
        volume_stats = getattr(device, "volume_stats", None)
        if volume_stats is not None:
            registry.register("volume", volume_stats)
    if hasattr(ld, "free_segment_count"):
        registry.register(
            "space",
            lambda: {
                "free_segments": ld.free_segment_count(),
                "segment_count": ld.layout.segment_count,
                "min_free_segments": ld.min_free_segments,
                "live_bytes": ld.state.live_bytes(),
            },
        )
    if recovery is None:
        recovery = getattr(ld, "recovery_report", None)
    if recovery is not None:
        registry.register("recovery", recovery)
    return registry
