"""Unit tests for the virtual clock."""

import pytest

from repro.sim import VirtualClock


def test_starts_at_zero_by_default():
    assert VirtualClock().now == 0.0


def test_advance_moves_forward():
    clock = VirtualClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == pytest.approx(2.0)


def test_advance_returns_new_time():
    clock = VirtualClock()
    assert clock.advance(3.0) == pytest.approx(3.0)


def test_advance_negative_rejected():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_advance_zero_allowed():
    clock = VirtualClock()
    clock.advance(1.0)
    clock.advance(0.0)
    assert clock.now == 1.0


def test_advance_to_future():
    clock = VirtualClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0


def test_advance_to_past_is_noop():
    clock = VirtualClock()
    clock.advance(10.0)
    clock.advance_to(5.0)
    assert clock.now == 10.0


def test_elapsed_since():
    clock = VirtualClock()
    t0 = clock.now
    clock.advance(2.5)
    assert clock.elapsed_since(t0) == pytest.approx(2.5)


def test_repr_contains_time():
    clock = VirtualClock()
    clock.advance(1.5)
    assert "1.5" in repr(clock)
