"""Calendar-queue engine: fast-path scheduling and auto-housekeeping.

The bucketed engine has two scheduling paths (Event-allocating and the
bare ``(fn, args)`` fast path) that must share one dispatch order, plus
automatic draining of cancelled events.  These tests pin both contracts
by example; tests/test_engine_model.py checks them against a list model
over random scripts, and docs/PERF.md spells out the ordering invariant
they encode.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_fast_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_fast(30, order.append, 3)
    sim.schedule_fast(10, order.append, 1)
    sim.schedule_fast(20, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]
    assert sim.events_dispatched == 3


def test_same_cycle_fifo_across_both_paths():
    """Slow and fast entries in one cycle fire in insertion order."""
    sim = Simulator()
    order = []
    sim.schedule(5, order.append, "slow-0")
    sim.schedule_fast(5, order.append, "fast-1")
    sim.schedule(5, order.append, "slow-2")
    sim.schedule_fast(5, order.append, "fast-3")
    sim.run()
    assert order == ["slow-0", "fast-1", "slow-2", "fast-3"]


def test_fast_zero_delay_runs_within_current_cycle():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule_fast(0, order.append, "inner")

    sim.schedule_fast(5, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 5


def test_fast_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_fast(-1, lambda: None)


def test_fast_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule_fast(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_fast_at(5, lambda: None)


def test_fast_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_fast_at(7, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 7


def test_pending_events_counts_fast_entries():
    sim = Simulator()
    sim.schedule_fast(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_step_dispatches_fast_entries():
    sim = Simulator()
    fired = []
    sim.schedule_fast(3, fired.append, 1)
    sim.schedule(5, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_watchdog_counts_fast_events():
    sim = Simulator()

    def reschedule():
        sim.schedule_fast(1, reschedule)

    sim.schedule_fast(0, reschedule)
    with pytest.raises(SimulationError, match="watchdog"):
        sim.run(max_events=100)


# ------------------------------------------------------- auto-housekeeping


def test_auto_drain_when_cancelled_exceed_half_pending():
    """Regression: cancelling more than half the queue compacts it
    without anyone calling drain_cancelled()."""
    sim = Simulator()
    events = [sim.schedule(100 + i, lambda: None) for i in range(20)]
    for event in events[:12]:  # 12 cancelled > 8 floor, > half of 20
        event.cancel()
    # The 11th cancellation tips cancelled*2 > pending (22 > 20) and the
    # idle simulator compacts immediately; only the 12th survives it.
    assert sim.cancelled_events == 1
    assert sim.pending_events == 9
    sim.run()
    assert sim.events_dispatched == 8


def test_no_auto_drain_below_floor():
    """A handful of cancellations is cheaper to skip than to drain."""
    sim = Simulator()
    events = [sim.schedule(10 + i, lambda: None) for i in range(6)]
    for event in events[:4]:  # > half, but below the 8-cancellation floor
        event.cancel()
    assert sim.cancelled_events == 4
    assert sim.pending_events == 6
    sim.run()
    assert sim.events_dispatched == 2


def test_auto_drain_deferred_while_running():
    """Cancellations inside a callback drain at the next bucket boundary,
    never mid-bucket (the dispatch loop is walking the current FIFO)."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(50 + i, fired.append, f"doomed-{i}")
              for i in range(16)]

    def cancel_most():
        for event in doomed:
            event.cancel()
        # Deferred: the queue still holds the cancelled entries.
        assert sim.cancelled_events == 16

    sim.schedule(10, cancel_most)
    sim.schedule(20, fired.append, "kept")
    sim.run()
    assert fired == ["kept"]
    assert sim.cancelled_events == 0
    assert sim.pending_events == 0


def test_manual_drain_still_available():
    sim = Simulator()
    events = [sim.schedule(10 + i, lambda: None) for i in range(10)]
    for event in events[:3]:
        event.cancel()
    assert sim.cancelled_events == 3
    sim.drain_cancelled()
    assert sim.cancelled_events == 0
    assert sim.pending_events == 7
    sim.run()
    assert sim.events_dispatched == 7


def test_cancelled_fast_sibling_order_preserved_after_drain():
    """Draining must not reorder the surviving entries."""
    sim = Simulator()
    order = []
    sim.schedule(5, order.append, "a")
    doomed = [sim.schedule(5, order.append, f"x{i}") for i in range(10)]
    sim.schedule_fast(5, order.append, "b")
    sim.schedule(5, order.append, "c")
    for event in doomed:
        event.cancel()
    sim.run()
    assert order == ["a", "b", "c"]
