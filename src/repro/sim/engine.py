"""Deterministic discrete-event simulation engine.

The whole simulated machine -- cores, cache controllers, the directory,
the interconnect -- is driven by a single :class:`Simulator` instance.
Components never busy-wait: they schedule callbacks at future cycles and
the engine dispatches them in (time, insertion-order) order, which makes
every run bit-for-bit deterministic for a given configuration and seed.

Internally the queue is a *calendar of buckets*: one FIFO list per
pending cycle, indexed by a dict, plus a small min-heap holding each
live cycle once.  Scheduling is an O(1) list append (the heap is touched
only when a cycle gains its first event) and dispatch walks one bucket
at a time, so the per-event cost has no heap comparisons in it -- the
old global heapq paid an O(log n) chain of Python-level ``Event.__lt__``
calls on every push and pop.  Same-cycle FIFO order is exactly the old
(time, seq) order, so the overhaul is semantically invisible; the
ordering contract is spelled out in docs/PERF.md.

Two scheduling paths share the calendar:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` allocate a
  cancellable :class:`Event` handle (the original API);
* :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_fast_at`
  append a bare ``(fn, args)`` pair -- no handle, no allocation beyond
  the tuple -- for the ~90% of events that are never cancelled (core
  step events, L1 callbacks, message deliveries).

Cancelled :class:`Event` objects are skipped at dispatch; when they
outnumber half the pending queue the engine drains them automatically
(at a safe point, between buckets) so speculation-heavy runs cannot
accumulate dead queue entries.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

#: Auto-housekeeping floor: below this many cancelled events a drain
#: costs more than the dead entries do.
_AUTO_DRAIN_MIN_CANCELLED = 8


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent or stuck state."""


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, seq)`` where ``seq`` is a global
    monotonically increasing insertion counter; two events scheduled for
    the same cycle therefore fire in the order they were scheduled, which
    keeps the simulation deterministic.  (The calendar queue realises the
    same order positionally -- ``seq`` survives as the tie-break key for
    direct ``Event`` comparisons and for debugging.)

    Events may be cancelled before they fire via :meth:`cancel`; a
    cancelled event is skipped by the dispatch loop.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} fn={getattr(self.fn, '__qualname__', self.fn)}{state}>"


class Simulator:
    """Discrete-event simulator with an integer cycle clock.

    Typical use::

        sim = Simulator()
        sim.schedule(10, some_callback, arg1, arg2)
        sim.run()           # dispatch until the event queue is empty
        print(sim.now)      # simulated cycles elapsed

    The engine schedules one way whatever ``fastpath`` says.  The flag
    is read by the components at construction: ``fastpath=False``
    builds the un-specialised reference handlers (no fused load hits,
    no superblocks, no spin parking), which the determinism suite runs
    against the specialised ones.
    """

    def __init__(self, fastpath: bool = True) -> None:
        #: time -> FIFO list of entries (Event objects or (fn, args) pairs).
        self._buckets: dict = {}
        #: min-heap of times; each live bucket's time appears exactly once.
        self._times: List[int] = []
        self._seq = itertools.count()
        self._now = 0
        self._events_dispatched = 0
        self._running = False
        self._pending = 0
        self._cancelled = 0
        self._drain_pending = False
        #: False builds the reference machine: cores read this once at
        #: construction and skip every specialised handler (fused load
        #: hit, request-free L1 read, superblocks, spin parking).
        self.fastpath = fastpath

    @property
    def now(self) -> int:
        """Current simulated cycle."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Total number of events executed so far.

        Updated at bucket granularity while :meth:`run` is dispatching:
        callbacks reading it mid-cycle see the count as of the start of
        the current cycle's bucket.
        """
        return self._events_dispatched

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired (including cancelled) events."""
        return self._pending

    @property
    def cancelled_events(self) -> int:
        """Number of cancelled events still occupying the queue."""
        return self._cancelled

    # ----------------------------------------------------------- scheduling

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be >= 0; a delay of 0 runs later in the current
        cycle (after all previously scheduled same-cycle events).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at cycle {time}; now is {self._now}")
        event = Event(time, next(self._seq), fn, args)
        event._sim = self
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._pending += 1
        return event

    def schedule_fast(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` handle.

        Identical dispatch semantics (same (time, insertion-order)
        slot), but the entry cannot be cancelled.  This is the hot path
        for the dominant event classes -- core steps, cache callbacks,
        message deliveries -- none of which are ever cancelled (the core
        neutralises stale continuations with epoch guards instead).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args))
        self._pending += 1

    def schedule_fast_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_fast`)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at cycle {time}; now is {self._now}")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args))
        self._pending += 1

    @staticmethod
    def make_relay(deltas) -> tuple:
        """Build a reusable relay entry for a superblock's event cadence.

        The hook for trace-compiled execution.  A fused
        superblock executes all of its instructions' *work* (register
        writes, pc, stats) in its head event, but it must not collapse
        the span's events into one dispatch: every bucket append in this
        engine happens at a definite moment, and the moment an entry is
        appended fixes its FIFO position among same-cycle events --
        which in turn fixes crossbar arbitration, hit/miss races, and
        therefore the fingerprint.  So the head schedules a *relay
        chain*: one zero-work entry per elided instruction, each
        appended exactly when the per-instruction engine would have
        appended that instruction's event.  The run loop advances relays
        inline (no Python call, no allocation -- the payload list and
        the entry tuple are reused across executions).

        Payload layout (mutable, rewritten by the head per execution):
        ``[deltas, idx, stop, final]`` where ``deltas[k]`` is the
        latency of the span's k-th instruction, ``idx`` is the slot the
        next relay stands in for, ``stop`` is the executed instruction
        count, and ``final`` is the prebuilt ``(fn, args)`` entry for
        the span's successor.  A relay at index ``idx`` fires at the
        same cycle as the elided instruction and appends either the next
        relay (``idx + 1 < stop``) or ``final`` at ``now +
        deltas[idx]``.  Relays count as dispatched events, so
        :attr:`events_dispatched` matches the unfused engine exactly.

        Two users build chains with it, both in :mod:`repro.cpu.core`:
        fused superblocks (``_make_superblock``: one relay per elided
        instruction of a span) and spin parking (``Core._park_entry``:
        a parked spin loop's load-hit, branch and load slots for a fixed
        number of iterations, ending in a Python ``final`` entry that
        settles them).  Spin parking may also wake a core early; it
        then swaps the live relay for a real entry, in place.
        """
        return (None, [tuple(deltas), 0, 0, None])

    # ------------------------------------------------------------- dispatch

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None,
            max_cycles: Optional[int] = None) -> int:
        """Dispatch events until the queue drains (or a limit is hit).

        Parameters
        ----------
        until:
            If given, stop once the clock would pass this cycle; events at
            exactly ``until`` still fire.  The clock always ends at
            ``until`` exactly: if the queue drains earlier, ``now`` is
            advanced to ``until`` (simulated time passes even when nothing
            is scheduled), and if later events remain, ``now`` stops at
            ``until`` without firing them.
        max_events:
            If given, stop after dispatching this many events.  Used as a
            watchdog: exceeding it raises :class:`SimulationError`, since a
            correct run of our workloads always drains the queue.
        max_cycles:
            Safety cap on simulated time: raise :class:`SimulationError`
            (with queue diagnostics) before firing any event past this
            cycle.  Off by default for library use; harness and fuzz
            entry points turn it on so a stuck run fails instead of
            spinning forever.

        Returns the simulated cycle at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        dispatched = 0
        # Hot-loop locals: every per-event attribute walk avoided here is
        # paid millions of times per experiment point.
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        heappush = heapq.heappush
        event_cls = Event
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self._now = until
                    return until
                if max_cycles is not None and time > max_cycles:
                    raise SimulationError(
                        f"watchdog: next event is at cycle {time}, past "
                        f"max_cycles={max_cycles} "
                        f"({self._events_dispatched} events dispatched, "
                        f"{self._pending} pending); the simulated system "
                        f"is likely stuck"
                    )
                heappop(times)
                bucket = buckets[time]
                self._now = time
                # One comparison per event: the watchdog budget collapses
                # to a single int (a huge sentinel when unlimited -- an
                # int/int compare beats int/float).
                # ``fired`` is derived as consumed - skipped at the end:
                # skips (cancelled Events) are rare, so the budget check
                # compares against ``consumed`` directly (bumping the
                # threshold per skip) and the hot loop carries a single
                # counter instead of two.
                budget = (max_events - dispatched) if max_events is not None \
                    else (1 << 62)
                consumed = 0
                skipped = 0
                try:
                    # The list iterator re-reads the length on every step,
                    # so callbacks appending same-cycle events grow the
                    # bucket and the loop picks them up -- with C-level
                    # iteration instead of manual indexing.
                    for entry in bucket:
                        consumed += 1
                        if entry.__class__ is event_cls:
                            if entry.cancelled:
                                self._cancelled -= 1
                                skipped += 1
                                budget += 1
                                continue
                            entry._sim = None
                            fn = entry.fn
                            args = entry.args
                        else:
                            fn, args = entry
                            if fn is None:
                                # Superblock relay (see make_relay): stand
                                # in for one elided instruction's event --
                                # append the next hop (or the span's
                                # successor) at exactly the moment the
                                # per-instruction engine would have.
                                idx = args[1]
                                t2 = time + args[0][idx]
                                idx += 1
                                if idx == args[2]:
                                    nxt = args[3]
                                else:
                                    args[1] = idx
                                    nxt = entry
                                b2 = buckets.get(t2)
                                if b2 is None:
                                    buckets[t2] = [nxt]
                                    heappush(times, t2)
                                else:
                                    b2.append(nxt)
                                self._pending += 1
                                if consumed >= budget:
                                    raise SimulationError(
                                        f"watchdog: exceeded {max_events} events at cycle "
                                        f"{self._now}; the simulated system is likely livelocked"
                                    )
                                continue
                        fn(*args)
                        if consumed >= budget:
                            raise SimulationError(
                                f"watchdog: exceeded {max_events} events at cycle "
                                f"{self._now}; the simulated system is likely livelocked"
                            )
                finally:
                    fired = consumed - skipped
                    self._pending -= consumed
                    self._events_dispatched += fired
                    dispatched += fired
                    if consumed < len(bucket):
                        # Aborted mid-bucket (exception in a callback or the
                        # watchdog): keep the unconsumed tail dispatchable.
                        del bucket[:consumed]
                        heapq.heappush(times, time)
                    else:
                        del buckets[time]
                if self._drain_pending:
                    self._drain_now()
            # Queue drained before reaching ``until``: time still passes,
            # so the clock lands exactly on ``until``.
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False

    def step(self) -> bool:
        """Dispatch a single (non-cancelled) event.

        Returns True if an event fired, False if the queue was empty.
        """
        while self._times:
            time = self._times[0]
            bucket = self._buckets[time]
            while bucket:
                entry = bucket.pop(0)
                self._pending -= 1
                if entry.__class__ is Event:
                    if entry.cancelled:
                        self._cancelled -= 1
                        continue
                    entry._sim = None
                    fn, args = entry.fn, entry.args
                else:
                    fn, args = entry
                if not bucket:
                    heapq.heappop(self._times)
                    del self._buckets[time]
                self._now = time
                self._events_dispatched += 1
                if fn is None:
                    # Superblock relay entry (see make_relay).
                    idx = args[1]
                    t2 = time + args[0][idx]
                    idx += 1
                    if idx == args[2]:
                        nxt = args[3]
                    else:
                        args[1] = idx
                        nxt = entry
                    b2 = self._buckets.get(t2)
                    if b2 is None:
                        self._buckets[t2] = [nxt]
                        heapq.heappush(self._times, t2)
                    else:
                        b2.append(nxt)
                    self._pending += 1
                    return True
                fn(*args)
                return True
            heapq.heappop(self._times)
            del self._buckets[time]
        return False

    # --------------------------------------------------------- housekeeping

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; triggers auto-housekeeping once
        cancelled events outnumber half the pending queue."""
        self._cancelled += 1
        if (self._cancelled >= _AUTO_DRAIN_MIN_CANCELLED
                and self._cancelled * 2 > self._pending):
            if self._running:
                self._drain_pending = True  # drained at the next bucket boundary
            else:
                self._drain_now()

    def drain_cancelled(self) -> None:
        """Remove cancelled events from the queue (housekeeping).

        Runs immediately when the simulator is idle; during :meth:`run`
        it is deferred to the next bucket boundary (the dispatch loop
        may be mid-way through the current cycle's FIFO).
        """
        if self._running:
            self._drain_pending = True
        else:
            self._drain_now()

    def _drain_now(self) -> None:
        self._drain_pending = False
        if not self._cancelled:
            return
        removed = 0
        for time, bucket in self._buckets.items():
            kept = [entry for entry in bucket
                    if entry.__class__ is not Event or not entry.cancelled]
            if len(kept) != len(bucket):
                removed += len(bucket) - len(kept)
                bucket[:] = kept   # in place: run() may hold a reference
        self._pending -= removed
        self._cancelled -= removed
