"""Windowed time series: periodic probes of metrics on the virtual clock.

End-state counters say what a run cost; they can't show a cleaner
falling behind mid-run or a rebuild's progress flatlining. A
:class:`SeriesRecorder` samples any probe — most usefully a whole
:class:`~repro.obs.MetricsRegistry` — at a fixed virtual-time interval
into per-metric ring buffers, so benchmarks (and the health rules in
:mod:`repro.obs.health`) can look at *windows* of recent behavior
instead of lifetime totals.

Sampling is pull-based: the driver calls :meth:`SeriesRecorder.tick`
wherever it already loops (per op, per fsync); the recorder samples only
when the virtual clock has moved past the interval, so an idle tick is
one clock read and a float compare.
"""

from __future__ import annotations

import json
from collections import deque

from repro.obs.export import read_jsonl


class Series:
    """One metric's bounded ``(t, value)`` ring."""

    __slots__ = ("name", "points")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.points: deque[tuple[float, float]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def record(self, t: float, value: float) -> None:
        self.points.append((t, value))

    @property
    def latest(self) -> float | None:
        return self.points[-1][1] if self.points else None

    @property
    def latest_time(self) -> float | None:
        return self.points[-1][0] if self.points else None

    def values(self) -> list[float]:
        return [v for _t, v in self.points]

    def window(self, seconds: float) -> list[tuple[float, float]]:
        """Points within the last ``seconds`` of virtual time."""
        if not self.points:
            return []
        cutoff = self.points[-1][0] - seconds
        return [(t, v) for t, v in self.points if t >= cutoff]

    def delta(self, seconds: float | None = None) -> float:
        """Last value minus first value (over a window, or the whole ring)."""
        points = self.window(seconds) if seconds is not None else list(self.points)
        if len(points) < 2:
            return 0.0
        return points[-1][1] - points[0][1]

    def rate(self, seconds: float | None = None) -> float:
        """Average per-virtual-second change; the counter→rate view."""
        points = self.window(seconds) if seconds is not None else list(self.points)
        if len(points) < 2:
            return 0.0
        dt = points[-1][0] - points[0][0]
        if dt <= 0.0:
            return 0.0
        return (points[-1][1] - points[0][1]) / dt

    def __repr__(self) -> str:
        return f"Series({self.name!r}, {len(self.points)} points)"


def _flatten_numeric(prefix: str, payload: dict, out: dict) -> None:
    """Dotted numeric leaves of a metrics payload.

    Recurses into nested dicts (per-tenant stats, histogram summaries) so
    ``sched.tenants.a.ack_latency_p99`` becomes a trackable series; skips
    lists, strings, booleans, and histogram ``buckets`` maps (per-bucket
    series would be noise — the derived quantiles ride alongside). Runs
    on every firing monitor tick, hence the exact-type fast path (``bool``
    is not ``int`` under ``type()``, so the bool skip falls out free).
    """
    for key, value in payload.items():
        if type(key) is not str:
            key = str(key)  # e.g. the coalesced-run-length histogram keys
        t = type(value)
        if t is int or t is float:
            out[prefix + key] = value
        elif t is dict:
            if key != "buckets":
                _flatten_numeric(prefix + key + ".", value, out)
        elif t is bool or isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[prefix + key] = value
        elif isinstance(value, dict) and key != "buckets":
            _flatten_numeric(prefix + key + ".", value, out)


class SeriesRecorder:
    """Samples registered probes into bounded per-metric rings.

    ``interval`` and every timestamp are *virtual* seconds — the same
    time base as all benchmark figures. ``capacity`` bounds each metric's
    ring. Probes never advance the clock: sampling observes the
    simulation, it cannot perturb it.
    """

    def __init__(self, clock, *, interval: float = 0.1, capacity: int = 512) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2: {capacity}")
        self.clock = clock
        self.interval = interval
        self.capacity = capacity
        self.series: dict[str, Series] = {}
        self.samples_taken = 0
        self._probes: list = []  # zero-arg callables -> {name: value}
        self._last_sample = -float("inf")

    def track(self, name: str, probe) -> None:
        """Sample ``probe()`` (one float) under ``name`` on every sample."""
        self._probes.append(lambda probe=probe, name=name: {name: float(probe())})

    def track_registry(self, registry, keys=None) -> None:
        """Sample a :class:`MetricsRegistry`'s numeric metrics.

        ``keys`` restricts which flattened dotted names are kept (an
        iterable of exact names, or a predicate); ``None`` tracks every
        numeric leaf.
        """
        if keys is None:
            accept = None
        elif callable(keys):
            accept = keys
        else:
            wanted = set(keys)
            accept = wanted.__contains__

        def probe() -> dict:
            flat: dict = {}
            _flatten_numeric("", registry.collect_nested(), flat)
            if accept is None:
                return flat
            return {name: value for name, value in flat.items() if accept(name)}

        self._probes.append(probe)

    def __getitem__(self, name: str) -> Series:
        return self.series[name]

    def get(self, name: str) -> Series | None:
        return self.series.get(name)

    @property
    def names(self) -> list[str]:
        return sorted(self.series)

    @property
    def due(self) -> bool:
        """Has the virtual clock moved past the sampling interval?"""
        return self.clock.now - self._last_sample >= self.interval

    def tick(self) -> bool:
        """Sample iff the virtual clock moved past the interval."""
        if not self.due:
            return False
        self.sample()
        return True

    def sample(self) -> None:
        """Probe everything now, unconditionally."""
        flat: dict = {}
        for probe in self._probes:
            flat.update(probe())
        self.record_flat(flat)

    def record_flat(self, flat: dict) -> None:
        """Record one pre-flattened ``{name: value}`` sample at clock-now.

        The bring-your-own-payload path: :class:`~repro.obs.health.Monitor`
        collects its registry once per firing tick and feeds the same
        payload to both the series rings (here) and the health rules.
        """
        now = self.clock.now
        self._last_sample = now
        self.samples_taken += 1
        series = self.series
        capacity = self.capacity
        for name, value in flat.items():
            s = series.get(name)
            if s is None:
                s = series[name] = Series(name, capacity)
            s.record(now, value)

    def __repr__(self) -> str:
        return (
            f"SeriesRecorder({len(self.series)} series, "
            f"{self.samples_taken} samples, interval={self.interval})"
        )


def export_series_jsonl(recorder: SeriesRecorder, path) -> str:
    """One JSON object per retained sample point, grouped by metric."""
    with open(path, "w", encoding="utf-8") as handle:
        for name in recorder.names:
            for t, value in recorder.series[name].points:
                handle.write(
                    json.dumps({"metric": name, "t": t, "value": value}, sort_keys=True)
                )
                handle.write("\n")
    return str(path)


def load_series_jsonl(path) -> dict[str, Series]:
    """Rebuild ``{metric: Series}`` from :func:`export_series_jsonl` output."""
    out: dict[str, Series] = {}
    rows = [(raw["metric"], raw["t"], raw["value"]) for raw in read_jsonl(path)]
    counts: dict[str, int] = {}
    for name, _t, _v in rows:
        counts[name] = counts.get(name, 0) + 1
    for name, t, value in rows:
        series = out.get(name)
        if series is None:
            series = out[name] = Series(name, max(2, counts[name]))
        series.record(t, value)
    return out
