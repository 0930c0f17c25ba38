"""One stats declaration per layer, and one ``collect()`` over all of them.

Counters live where they are cheap to bump — ``DiskStats`` on the disk,
``LLDStats`` on the LD, ``StoreStats`` on the MINIX store, ``NVRAM`` and
``RecoveryReport`` on their subsystems. Each is a slotted dataclass over
:class:`Counters`: the class declares its fields, its hot-path bump
methods and its derived properties, and the base derives ``snapshot()``,
``as_dict()`` and ``reset()`` from the field list. The registry adopts any
object satisfying the :class:`Snapshot` protocol under a layer name and
merges everything into a single deterministic, layer-prefixed dict.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import cache
from typing import ClassVar, Protocol, runtime_checkable

from repro.obs.hist import LatencyHistogram, is_histogram_dict

_SCALARS = frozenset({int, float, bool, str, type(None)})


def _copy(value):
    """An independent copy of one field's value."""
    if value.__class__ in _SCALARS:
        return value
    if isinstance(value, Counter):
        return value.copy()
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, (Counters, LatencyHistogram)):
        return value.snapshot()
    return value  # immutable (bytes), or a reference to what is described


def _plain(value):
    """The JSON form of one field's value: a bucket histogram keyed by
    ``int``, a table of slices by sorted name, the rest by ``as_dict()``."""
    if isinstance(value, Counter):
        return {int(key): count for key, count in sorted(value.items())}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in sorted(value.items())}
    if isinstance(value, (Counters, LatencyHistogram)):
        return value.as_dict()
    return value


@cache
def _layout(cls) -> tuple[tuple, tuple, tuple]:
    """``(every field name, the reported ones, (name, zero) per counter)``."""
    fields = dataclasses.fields(cls)
    reported = [f for f in fields if f.name not in cls.HIDDEN]
    missing = dataclasses.MISSING
    zeros = [
        (f.name, f.default if f.default_factory is missing else f.default_factory)
        for f in reported
        if f.default_factory is not missing
        or (f.default is not missing and f.default == 0)
    ]
    return (
        tuple(f.name for f in fields),
        tuple(f.name for f in reported),
        tuple(zeros),
    )


class Counters:
    """Base of every per-layer stats class: declare the fields, get the rest.

    A subclass is a ``@dataclass(slots=True)`` whose fields are its
    counters (``int`` / ``float``, bumped in place by the layer — the base
    puts nothing on that path) and its containers: a ``Counter`` of
    buckets, a ``dict`` of named :class:`Counters` slices, a
    :class:`LatencyHistogram`. Figures computed
    from the fields are properties named in :attr:`DERIVED`; fields that
    are the layer's working state rather than something it reports are
    named in :attr:`HIDDEN` (copied by :meth:`snapshot`, absent from
    :meth:`as_dict`, untouched by :meth:`reset`).
    """

    __slots__ = ()

    DERIVED: ClassVar[tuple[str, ...]] = ()
    HIDDEN: ClassVar[tuple[str, ...]] = ()

    def snapshot(self):
        """An independent copy (for before/after deltas)."""
        every, _reported, _zeros = _layout(self.__class__)
        twin = object.__new__(self.__class__)
        for name in every:
            setattr(twin, name, _copy(getattr(self, name)))
        return twin

    def as_dict(self) -> dict:
        """Machine-readable form for benchmark JSON reports: every
        reported field, then the derived figures, so downstream tooling
        never re-implements the arithmetic. One shallow walk — the
        monitoring sampler calls this on every firing tick."""
        _every, reported, _zeros = _layout(self.__class__)
        out = {}
        for name in reported:
            value = getattr(self, name)
            out[name] = value if value.__class__ in _SCALARS else _plain(value)
        for name in self.DERIVED:
            out[name] = getattr(self, name)
        return out

    def reset(self) -> None:
        """Zero what counts: every reported field that starts at zero or
        empty. A field that starts elsewhere (``sector_size``,
        ``capacity_bytes``) describes the object and is kept."""
        _every, _reported, zeros = _layout(self.__class__)
        for name, zero in zeros:
            setattr(self, name, zero() if callable(zero) else zero)


def diff_payloads(before: dict, after: dict) -> dict:
    """``after`` minus ``before``, recursively.

    Numeric values subtract (missing-in-before counts as zero); nested
    dicts recurse; histogram-shaped dicts (``LatencyHistogram.as_dict``
    output) are rebuilt and merge-subtracted so the delta's quantiles
    describe only the window, not the cumulative run. Non-numeric values
    (labels, layouts) pass through from ``after``. Keys only present in
    ``before`` are dropped — a window can't contain less than nothing.
    """
    out: dict = {}
    for key, value in after.items():
        prior = before.get(key)
        if is_histogram_dict(value):
            if is_histogram_dict(prior):
                value = (
                    LatencyHistogram.from_dict(value)
                    .subtract(LatencyHistogram.from_dict(prior))
                    .as_dict()
                )
            out[key] = value
        elif isinstance(value, bool):
            out[key] = value
        elif isinstance(value, (int, float)):
            base = prior if isinstance(prior, (int, float)) and not isinstance(prior, bool) else 0
            out[key] = value - base
        elif isinstance(value, dict):
            out[key] = diff_payloads(prior if isinstance(prior, dict) else {}, value)
        else:
            out[key] = value
    return out


@runtime_checkable
class Snapshot(Protocol):
    """What a stats object must provide to join the registry.

    ``as_dict()`` returns the machine-readable counters/gauges/histograms
    (plain JSON-serializable values); ``snapshot()`` returns an
    independent copy for before/after deltas. Every :class:`Counters`
    subclass and ``LatencyHistogram`` conform.
    """

    def as_dict(self) -> dict: ...

    def snapshot(self): ...


class MetricsRegistry:
    """Layer-named metric sources behind one ``collect()``.

    Sources are either :class:`Snapshot` objects or zero-argument
    callables returning a dict (for derived gauges). Layer names must be
    dot-free — the dot is the prefix separator in the merged view.
    """

    def __init__(self) -> None:
        self._sources: dict[str, object] = {}

    def register(self, layer: str, source) -> None:
        """Adopt ``source`` under ``layer``; duplicate layers are an error."""
        if not layer or "." in layer:
            raise ValueError(f"layer name must be non-empty and dot-free: {layer!r}")
        if layer in self._sources:
            raise ValueError(f"layer {layer!r} is already registered")
        if not callable(getattr(source, "as_dict", None)) and not callable(source):
            raise TypeError(
                f"source for layer {layer!r} must provide as_dict() or be callable"
            )
        self._sources[layer] = source

    def unregister(self, layer: str) -> None:
        if layer not in self._sources:
            raise KeyError(layer)
        del self._sources[layer]

    @property
    def layers(self) -> list[str]:
        """Registered layer names, sorted (the collection order)."""
        return sorted(self._sources)

    def __contains__(self, layer: str) -> bool:
        return layer in self._sources

    def _payload(self, layer: str) -> dict:
        source = self._sources[layer]
        as_dict = getattr(source, "as_dict", None)
        payload = as_dict() if callable(as_dict) else source()  # type: ignore[operator]
        if not isinstance(payload, dict):
            raise TypeError(f"layer {layer!r} produced {type(payload).__name__}, not dict")
        return payload

    def collect_nested(self) -> dict:
        """``{layer: payload}`` with layers and payload keys sorted."""
        return {
            layer: {key: payload[key] for key in sorted(payload)}
            for layer in self.layers
            for payload in (self._payload(layer),)
        }

    def collect(self) -> dict:
        """One merged dict: ``{"<layer>.<key>": value}``, fully sorted.

        Key order is deterministic (layers sorted, then keys sorted
        within each layer), so two collections of identical state render
        to identical JSON.
        """
        out: dict = {}
        for layer, payload in self.collect_nested().items():
            for key, value in payload.items():
                out[f"{layer}.{key}"] = value
        return out

    def collect_delta(self, before: dict) -> dict:
        """Current ``collect()`` minus an earlier one: the window view.

        ``before`` is a payload a previous :meth:`collect` returned.
        Counters subtract, histograms merge-subtract (see
        :func:`diff_payloads`), so benchmarks capture workload-only
        metrics without hand-rolled before/after bookkeeping::

            before = registry.collect()
            run_workload()
            window = registry.collect_delta(before)
        """
        return diff_payloads(before, self.collect())
