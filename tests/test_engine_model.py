"""The calendar engine against a plain list model of its contract.

The engine schedules one way whatever ``Simulator(fastpath=...)`` says
(the flag only selects which core and L1 handlers are built), so its
ordering contract is checked directly here instead of by comparing two
engines.  Hypothesis draws random scripts of scheduling operations --
``schedule``/``schedule_at`` (cancellable :class:`Event` handles),
``schedule_fast``/``schedule_fast_at`` (bare entries), zero delays,
callbacks that schedule more work in their own cycle, bursts of
:meth:`Event.cancel` large enough to trip auto-drain mid-``run()``, and
:meth:`Simulator.make_relay` chains -- and runs each script on the real
engine and on :class:`ListModel`, a flat list ordered by
``(time, insertion)`` that skips cancelled entries and expands relays
one hop per dispatch.  Dispatch order (with the cycle of every
callback), ``events_dispatched``, ``pending_events`` and ``now`` must
agree after one ``run()``, after each slice of ``run(until=...)``, and
after every ``step()``.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import Simulator

_APIS = ("schedule", "schedule_at", "schedule_fast", "schedule_fast_at")

#: Auto-drain floor, as in repro.sim.engine.
_DRAIN_MIN = 8


# ------------------------------------------------------------------ model


class _Entry:
    __slots__ = ("time", "seq", "node", "relay", "cancelled", "fired",
                 "_model")

    def __init__(self, model, time, seq, node, relay=None):
        self.time = time
        self.seq = seq
        self.node = node
        #: (deltas, idx, stop) for a relay hop, else None.
        self.relay = relay
        self.cancelled = False
        self.fired = False
        self._model = model

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired:
            self._model.note_cancelled(self)


class ListModel:
    """The reference engine: one unordered list of pending entries.

    Dispatch picks the minimum ``(time, insertion)`` entry.  Two engine
    rules that are visible through the public counters are modelled
    explicitly: a cycle's consumed entries leave ``pending_events``
    only when ``run()`` finishes that cycle, and cancelled entries
    are drained (once at least 8 of them make up more than half the
    pending count) immediately when idle but only at the end of the
    current cycle inside ``run()``.  ``run()`` sets ``now`` to every
    cycle that ever held an entry, live or not.
    """

    def __init__(self):
        self.entries: List[_Entry] = []
        self.times = set()
        self.seq = 0
        self.now = 0
        self.events_dispatched = 0
        self.cancelled = 0
        self.running = False
        self.drain_pending = False
        self.deferred_drains = 0
        #: Entries consumed in run()'s current cycle, still pending.
        self.consumed = 0

    @property
    def pending_events(self):
        return len(self.entries) + self.consumed

    def add(self, time, node, relay=None):
        entry = _Entry(self, time, self.seq, node, relay)
        self.seq += 1
        self.entries.append(entry)
        self.times.add(time)
        return entry

    def note_cancelled(self, entry):
        self.cancelled += 1
        if (self.cancelled >= _DRAIN_MIN
                and self.cancelled * 2 > self.pending_events):
            if self.running:
                self.drain_pending = True
            else:
                self.drain()

    def drain(self):
        self.drain_pending = False
        kept = [e for e in self.entries if not e.cancelled]
        self.cancelled -= len(self.entries) - len(kept)
        self.entries = kept

    def _pop(self, time) -> Optional[_Entry]:
        at = [e for e in self.entries if e.time == time]
        if not at:
            return None
        entry = min(at, key=lambda e: e.seq)
        self.entries.remove(entry)
        return entry

    def _fire(self, entry, fire):
        self.events_dispatched += 1
        if entry.relay is not None:
            deltas, idx, stop = entry.relay
            when = entry.time + deltas[idx]
            if idx + 1 == stop:
                self.add(when, entry.node)          # the chain's final
            else:
                self.add(when, entry.node, (deltas, idx + 1, stop))
            return
        entry.fired = True
        fire(entry.node)

    def run(self, fire, until=None):
        self.running = True
        try:
            while self.times:
                time = min(self.times)
                if until is not None and time > until:
                    self.now = until
                    return
                self.now = time
                while True:
                    entry = self._pop(time)
                    if entry is None:
                        break
                    self.consumed += 1
                    if entry.cancelled:
                        self.cancelled -= 1
                        continue
                    self._fire(entry, fire)
                self.times.discard(time)
                self.consumed = 0
                if self.drain_pending:
                    self.deferred_drains += 1
                    self.drain()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.running = False

    def step(self, fire) -> bool:
        while self.times:
            time = min(self.times)
            entry = self._pop(time)
            if entry is None:
                self.times.discard(time)
                continue
            if not any(e.time == time for e in self.entries):
                self.times.discard(time)
            if entry.cancelled:
                self.cancelled -= 1
                continue
            self.now = time
            self._fire(entry, fire)
            return True
        return False


# ----------------------------------------------------------------- driver


def _append(sim, time, entry):
    """The inline calendar-bucket append the hot components use."""
    bucket = sim._buckets.get(time)
    if bucket is None:
        sim._buckets[time] = [entry]
        heapq.heappush(sim._times, time)
    else:
        bucket.append(entry)
    sim._pending += 1


class _Driver:
    """Interprets one script on one backend (real engine or model).

    Script ops: ``("sched", api, delay, children)`` schedules a
    callback that runs ``children`` when it fires; ``("relay", delay,
    deltas, start, children)`` appends a relay chain whose final entry
    runs ``children``; ``("cancel", k, n)`` cancels ``n`` handles
    starting at index ``k`` (mod the handles created so far).  Each
    callback is logged by its path in the script tree together with
    the cycle it fired in.
    """

    def __init__(self, backend):
        self.backend = backend
        self.handles = []
        self.log = []

    @property
    def now(self):
        return self.backend.now

    def execute(self, ops, prefix):
        for index, op in enumerate(ops):
            label = f"{prefix}{index}"
            kind = op[0]
            if kind == "sched":
                _, api, delay, children = op
                handle = self._schedule(api, delay, (label, children))
                if handle is not None:
                    self.handles.append(handle)
            elif kind == "relay":
                _, delay, deltas, start, children = op
                start = min(start, len(deltas) - 1)
                self._relay(delay, tuple(deltas), start, (label, children))
            else:
                _, k, n = op
                for i in range(n):
                    if self.handles:
                        self.handles[(k + i) % len(self.handles)].cancel()

    def fire(self, node):
        label, children = node
        self.log.append((label, self.now))
        self.execute(children, label + ".")


class _RealDriver(_Driver):
    def _schedule(self, api, delay, node):
        sim = self.backend
        when = sim.now + delay if api.endswith("_at") else delay
        handle = getattr(sim, api)(when, self.fire, node)
        if api.startswith("schedule_fast"):
            assert handle is None, f"{api} must not hand out a handle"
        return handle

    def _relay(self, delay, deltas, start, node):
        relay = Simulator.make_relay(deltas)
        payload = relay[1]
        payload[1] = start
        payload[2] = len(deltas)
        payload[3] = (self.fire, (node,))
        _append(self.backend, self.backend.now + delay, relay)


class _ModelDriver(_Driver):
    def _schedule(self, api, delay, node):
        entry = self.backend.add(self.now + delay, node)
        return entry if api in ("schedule", "schedule_at") else None

    def _relay(self, delay, deltas, start, node):
        self.backend.add(self.now + delay, node,
                         (deltas, start, len(deltas)))


# ---------------------------------------------------------------- scripts

_delays = st.integers(0, 3)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 40), st.integers(1, 12))


def _grow(children):
    kids = st.lists(children, max_size=4)
    return st.one_of(
        st.tuples(st.just("sched"), st.sampled_from(_APIS), _delays, kids),
        st.tuples(st.just("relay"), _delays,
                  st.lists(st.integers(0, 3), min_size=1, max_size=4),
                  st.integers(0, 1), kids),
    )


_ops = st.recursive(
    _cancel | st.tuples(st.just("sched"), st.sampled_from(_APIS), _delays,
                        st.just(())),
    _grow, max_leaves=40)


def _burst(n_events, cancels_at):
    """Schedule ``n_events`` handles, then (from a callback at cycle
    ``cancels_at``, which also schedules a same-cycle entry) cancel all
    but two of them: enough for auto-drain to trip inside ``run()``."""
    return ([("sched", "schedule", 5 + i, ()) for i in range(n_events)]
            + [("sched", "schedule_fast", cancels_at,
                [("sched", "schedule_fast", 0, ()),
                 ("cancel", n_events - 2, n_events - 2)])])


#: Random op lists, half of them prefixed by a cancel burst.
_scripts = st.tuples(
    st.one_of(st.just([]), st.builds(_burst, st.integers(8, 20),
                                     st.integers(0, 6))),
    st.lists(_ops, min_size=1, max_size=12),
).map(lambda parts: parts[0] + parts[1])

_DRAIN_SCRIPT = _burst(16, 2)


def _pair(script, fastpath):
    real = _RealDriver(Simulator(fastpath=fastpath))
    model = _ModelDriver(ListModel())
    real.execute(script, "")
    model.execute(script, "")
    return real, model


def _assert_same(real, model):
    assert real.log == model.log
    sim, ref = real.backend, model.backend
    assert sim.events_dispatched == ref.events_dispatched
    assert sim.pending_events == ref.pending_events
    assert sim.cancelled_events == ref.cancelled
    assert sim.now == ref.now


@pytest.mark.parametrize("fastpath", [True, False])
@settings(deadline=None, max_examples=50)
@given(script=_scripts)
@example(script=_DRAIN_SCRIPT)
def test_run_matches_list_model(fastpath, script):
    real, model = _pair(script, fastpath)
    _assert_same(real, model)
    real.backend.run()
    model.backend.run(model.fire)
    _assert_same(real, model)


@pytest.mark.parametrize("fastpath", [True, False])
@settings(deadline=None, max_examples=30)
@given(script=_scripts, slices=st.lists(st.integers(0, 4), max_size=6))
@example(script=_DRAIN_SCRIPT, slices=[3, 0, 4])
def test_run_until_slices_match_list_model(fastpath, script, slices):
    real, model = _pair(script, fastpath)
    until = 0
    for width in slices:
        until += width
        real.backend.run(until=until)
        model.backend.run(model.fire, until=until)
        _assert_same(real, model)
    real.backend.run()
    model.backend.run(model.fire)
    _assert_same(real, model)


@pytest.mark.parametrize("fastpath", [True, False])
@settings(deadline=None, max_examples=30)
@given(script=_scripts)
@example(script=_DRAIN_SCRIPT)
def test_step_matches_list_model(fastpath, script):
    real, model = _pair(script, fastpath)
    while True:
        fired = real.backend.step()
        assert fired == model.backend.step(model.fire)
        _assert_same(real, model)
        if not fired:
            break


def test_drain_script_drains_mid_run():
    """The explicit example above is not vacuous: its cancel burst lands
    inside run() and the drain is deferred to the cycle's end."""
    real, model = _pair(_DRAIN_SCRIPT, True)
    model.backend.run(model.fire)
    real.backend.run()
    assert model.backend.deferred_drains == 1
    _assert_same(real, model)
