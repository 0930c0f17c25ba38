"""Bounded log-bucketed latency histograms that merge and subtract.

Benchmarks and long-running simulations used to keep raw latency lists
(``VolumeStats.read_latencies`` and friends) and sort them at report
time — O(requests) memory and an O(n log n) percentile at every
``as_dict()``. A :class:`LatencyHistogram` replaces those lists with a
fixed-error sketch: values land in logarithmic buckets ``round(log2(v) *
SUBBUCKETS)`` so each bucket spans a constant *relative* width of
``2**(1/SUBBUCKETS) - 1`` (≈4.4% at the default 16 sub-buckets per
octave). Memory is bounded by the clamped index range regardless of how
many samples are recorded, quantiles are exact to within half a bucket,
and two histograms merge (or subtract, for before/after windows) by
adding (or subtracting) bucket counts — which is what lets
:meth:`repro.obs.MetricsRegistry.collect_delta` diff payloads that
contain histograms.
"""

from __future__ import annotations

import math

#: Buckets per octave (power of two). 16 gives a relative bucket width
#: of ``2**(1/16) - 1`` ≈ 4.4%, so any quantile is within ~2.2% of the
#: value an exact (raw-list) nearest-rank percentile would report.
SUBBUCKETS = 16

#: Index clamp: covers magnitudes 2**(-64) .. 2**(64) (≈5e-20 s .. 5e19 s
#: at 16 sub-buckets) — far beyond any simulated latency, while bounding
#: the worst-case bucket count.
_MIN_INDEX = -64 * SUBBUCKETS
_MAX_INDEX = 64 * SUBBUCKETS

_LOG2 = math.log2
_INV_WIDTH = float(SUBBUCKETS)


class LatencyHistogram:
    """Bounded histogram of non-negative samples (virtual seconds).

    ``record()`` is the hot path: one ``log2``, one ``round``, one dict
    upsert. Zero (and any non-positive) samples are counted exactly in a
    dedicated zero bucket so idle/no-op latencies don't distort the
    logarithmic range. ``min``/``max``/``total`` are tracked exactly;
    quantiles come from the bucket representatives (geometric centers).
    """

    __slots__ = ("count", "total", "min", "max", "zeros", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.zeros = 0
        self.buckets: dict[int, int] = {}

    def __bool__(self) -> bool:
        return self.count > 0

    def __len__(self) -> int:
        return self.count

    def record(self, value: float) -> None:
        """Add one sample (non-positive values count in the zero bucket)."""
        self.count += 1
        if value <= 0.0:
            self.zeros += 1
            if value < self.min:
                self.min = 0.0
            return
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = round(_LOG2(value) * _INV_WIDTH)
        if index < _MIN_INDEX:
            index = _MIN_INDEX
        elif index > _MAX_INDEX:
            index = _MAX_INDEX
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1

    @staticmethod
    def bucket_value(index: int) -> float:
        """Representative value (geometric center) of bucket ``index``."""
        return 2.0 ** (index / _INV_WIDTH)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the buckets (0.0 when empty).

        ``q=0``/``q=1`` return the exact tracked min/max; interior
        quantiles return the representative value of the bucket holding
        the nearest-rank sample, i.e. the true sample value to within
        half a bucket's relative width — clamped to the exact tracked
        ``[min, max]`` so a report never shows p99 above max.
        """
        n = self.count
        if not n:
            return 0.0
        if q <= 0.0:
            return 0.0 if self.zeros else self.min
        if q >= 1.0:
            return self.max
        rank = max(0, min(n - 1, round(q * (n - 1))))
        if rank < self.zeros:
            return 0.0
        seen = self.zeros
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank < seen:
                return min(max(self.bucket_value(index), self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to n

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (returns self)."""
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        buckets = self.buckets
        for index, n in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + n
        return self

    def subtract(self, before: "LatencyHistogram") -> "LatencyHistogram":
        """New histogram holding the samples recorded since ``before``.

        ``before`` must be this histogram as it was earlier (rebuilt with
        :meth:`from_dict` from an earlier :meth:`as_dict`), or any
        histogram whose buckets are a subset; counts clamp at zero so a
        mismatched subtraction degrades rather than going negative. The
        exact ``min``/``max`` of just-the-window cannot be recovered from
        two cumulative sketches, so the window's extrema are bounded by
        its surviving buckets' representatives.
        """
        out = LatencyHistogram()
        out.count = max(0, self.count - before.count)
        out.total = max(0.0, self.total - before.total)
        out.zeros = max(0, self.zeros - before.zeros)
        for index, n in self.buckets.items():
            remaining = n - before.buckets.get(index, 0)
            if remaining > 0:
                out.buckets[index] = remaining
        if out.buckets:
            indices = sorted(out.buckets)
            out.min = self.bucket_value(indices[0])
            out.max = self.bucket_value(indices[-1])
        if out.zeros:
            out.min = 0.0
        return out

    def as_dict(self) -> dict:
        """JSON-serializable form; recognized by ``collect_delta``.

        The derived quantiles ride along for human-readable reports; the
        ``buckets`` mapping (string keys, for JSON) is the mergeable
        ground truth that :func:`from_dict` round-trips.
        """
        return {
            "count": self.count,
            "zeros": self.zeros,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`as_dict` output."""
        hist = cls()
        hist.count = int(payload.get("count", 0))
        hist.zeros = int(payload.get("zeros", 0))
        hist.total = float(payload.get("total", 0.0))
        hist.min = float(payload.get("min", 0.0)) if hist.count else math.inf
        hist.max = float(payload.get("max", 0.0))
        hist.buckets = {
            int(index): int(n) for index, n in payload.get("buckets", {}).items()
        }
        return hist

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram(n={self.count}, p50={self.quantile(0.5):.6f}, "
            f"p99={self.quantile(0.99):.6f}, max={self.max:.6f})"
        )


def is_histogram_dict(value) -> bool:
    """Does ``value`` look like :meth:`LatencyHistogram.as_dict` output?"""
    return (
        isinstance(value, dict)
        and "buckets" in value
        and "count" in value
        and isinstance(value.get("buckets"), dict)
    )
