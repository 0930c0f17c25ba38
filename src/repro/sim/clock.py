"""A virtual clock shared by all simulated components.

The clock advances only when a component explicitly charges time to it
(a disk access, a compression pass, a modelled host overhead). Simulated
throughput is then ``bytes / clock.elapsed_since(t0)``.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonic simulated time in seconds.

    The clock supports two ways of moving forward:

    * :meth:`advance` — add a duration (the common case: a component did
      work that takes ``dt`` seconds).
    * :meth:`advance_to` — jump to an absolute time (used when a component
      must wait for a rotational position or a pipelined stage to finish).
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds and return the new time."""
        if dt < 0.0:
            raise ValueError(f"cannot advance clock by negative time: {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time ``t`` (no-op if in the past)."""
        if t > self._now:
            self._now = t
        return self._now

    def elapsed_since(self, t0: float) -> float:
        """Seconds of simulated time elapsed since ``t0``."""
        return self._now - t0

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
