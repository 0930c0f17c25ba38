"""One stats declaration per layer, and one ``collect()`` over all of them.

Counters live where they are cheap to bump — ``DiskStats`` on the disk,
``LLDStats`` on the LD, ``StoreStats`` on the MINIX store, ``NVRAM`` and
``RecoveryReport`` on their subsystems. Each is a slotted dataclass over
:class:`Counters`: the class declares its fields, its hot-path bump
methods and its derived properties, and the base derives ``as_dict()``
from the field list. The registry adopts any object with an ``as_dict()``
under a layer name and merges everything into a single deterministic,
layer-prefixed dict. A window onto the counters is two collections
subtracted (:meth:`MetricsRegistry.collect_delta`, :func:`diff_payloads`):
a stats object is never copied or zeroed.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import cache
from typing import ClassVar

from repro.obs.hist import LatencyHistogram, is_histogram_dict

_SCALARS = frozenset({int, float, bool, str, type(None)})


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
def _reported(cls) -> tuple[str, ...]:
    """The fields of ``cls`` that ``as_dict()`` reports, in order."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.name not in cls.HIDDEN)


class Counters:
    """Base of every per-layer stats class: declare the fields, get the rest.

    A subclass is a ``@dataclass(slots=True)`` whose fields are its
    counters (``int`` / ``float``, bumped in place by the layer — the base
    puts nothing on that path) and its containers: a ``Counter`` of
    buckets, a ``dict`` of named :class:`Counters` slices, a
    :class:`LatencyHistogram`. Figures computed
    from the fields are properties named in :attr:`DERIVED`; fields that
    are the layer's working state rather than something it reports are
    named in :attr:`HIDDEN` (absent from :meth:`as_dict`).
    """

    __slots__ = ()

    DERIVED: ClassVar[tuple[str, ...]] = ()
    HIDDEN: ClassVar[tuple[str, ...]] = ()

    def as_dict(self) -> dict:
        """Machine-readable form for benchmark JSON reports: every
        reported field, then the derived figures, so downstream tooling
        never re-implements the arithmetic. The payload shares nothing
        with the object, so one taken earlier is the start of a window."""
        out = {}
        for name in _reported(self.__class__):
            value = getattr(self, name)
            out[name] = value if value.__class__ in _SCALARS else _plain(value)
        for name in self.DERIVED:
            out[name] = getattr(self, name)
        return out


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


class MetricsRegistry:
    """Layer-named metric sources behind one ``collect()``.

    Sources are either objects with an ``as_dict()`` (every
    :class:`Counters` subclass, a :class:`LatencyHistogram`) or
    zero-argument callables returning a dict (for derived gauges). Layer
    names must be dot-free — the dot is the prefix separator in the
    merged view.
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

    def collect(self) -> dict:
        """One merged dict: ``{"<layer>.<key>": value}``, fully sorted.

        Key order is deterministic (layers sorted, then keys sorted
        within each layer), so two collections of identical state render
        to identical JSON.
        """
        out: dict = {}
        for layer in self.layers:
            payload = self._payload(layer)
            for key in sorted(payload):
                out[f"{layer}.{key}"] = payload[key]
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
