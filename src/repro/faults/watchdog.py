"""Liveness watchdog: turn hangs into diagnosable exceptions.

A protocol bug -- or an injected fault with retries disabled -- shows up
in one of two ways:

* **Deadlock**: the event queue goes quiescent (nothing but the
  watchdog's own tick fires) while cores are still blocked.  The engine
  already catches the fully-drained variant; the watchdog also catches
  the variant where a periodic event keeps the queue technically
  non-empty.
* **Livelock**: events keep churning but no core commits an instruction
  for a whole ``no_commit_window``.  InvisiFence's own abort/retry loop
  cannot genuinely livelock (the conservative-window policy guarantees
  forward progress), so the watchdog is a backstop against *bugs* in
  that machinery and against hostile fault plans, not a crutch the
  design needs.

Both conditions raise with a :func:`diagnostic_dump`: per-core stall
reason, store-buffer depth, in-flight message count, L1 transient state
(MSHRs / writeback buffer), and directory transient transactions -- the
state needed to name the stuck address and cores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import System


class DeadlockError(SimulationError):
    """The system went quiescent with cores still blocked."""


class LivelockError(SimulationError):
    """Events keep firing but no instruction has committed for too long."""


def diagnostic_dump(system: "System") -> str:
    """Render the liveness-relevant machine state as indented text."""
    sim = system.sim
    for core in system.cores:
        core.settle()  # a parked core's counters and pc lag its relays
    lines: List[str] = [
        f"diagnostic dump at cycle {sim.now} "
        f"({sim.events_dispatched} events dispatched, "
        f"{sim.pending_events} pending):"
    ]
    net = system.net
    inner = getattr(net, "inner", net)  # unwrap a FaultInjector
    inflight = getattr(inner, "inflight", None)
    if inflight is not None:
        lines.append(f"  interconnect: {inflight} message(s) in flight")
    for core in system.cores:
        if core.halted:
            lines.append(f"  core {core.core_id}: halted at cycle "
                         f"{core.finish_cycle}")
            continue
        # Node-fault (chaos) states first: a fail-stop report must name
        # which node died, not just the addresses the survivors are
        # stuck on.
        nf_state = getattr(core, "nf_state", 0)
        if nf_state == 2:
            lines.append(
                f"  core {core.core_id}: CRASHED (fail-stop) at cycle "
                f"{core.nf_crashed_at}, pc={core.pc}, "
                f"{core.instructions} committed, "
                f"{core.sb.occupancy} store(s) lost in the frozen buffer"
            )
            continue
        if nf_state == 1:
            lines.append(
                f"  core {core.core_id}: PAUSED since cycle "
                f"{core.nf_paused_at} (resumes at cycle "
                f"{core.nf_resume_at}), pc={core.pc}, "
                f"{core.instructions} committed, "
                f"store buffer depth {core.sb.occupancy}"
            )
            continue
        wait = core._pending_wait
        if wait is not None:
            _, cause, started_at, _ = wait
            state = f"stalled on {cause.value} since cycle {started_at}"
        else:
            # No explicit drain-wait: the core is either mid-step or
            # blocked inside a cache access (check the L1 lines below).
            state = "awaiting a step/cache callback"
        spec = " speculating" if core.speculating else ""
        lines.append(
            f"  core {core.core_id}: {state}, pc={core.pc}, "
            f"{core.instructions} committed, "
            f"store buffer depth {core.sb.occupancy}{spec}"
        )
    for l1 in system.l1s:
        parked = getattr(l1, "_wb_blocked", None) or {}
        if not l1._mshrs and not l1._wb and not parked:
            continue
        mshrs = ", ".join(f"{addr:#x}" for addr in sorted(l1._mshrs))
        wbs = ", ".join(f"{addr:#x}" for addr in sorted(l1._wb))
        line = (f"  l1[{l1.node_id}]: outstanding misses [{mshrs or '-'}], "
                f"writebacks in flight [{wbs or '-'}]")
        if parked:
            blocked = ", ".join(f"{addr:#x}" for addr in sorted(parked))
            line += f", misses parked behind writebacks [{blocked}]"
        lines.append(line)
    directory = system.directory
    for addr, txn in sorted(directory._active.items()):
        queued = len(directory._pending.get(addr, ()))
        lines.append(
            f"  directory: block {addr:#x} transaction {txn.kind!r} "
            f"for node {txn.msg.src} ({txn.acks_needed} ack(s) outstanding, "
            f"{queued} request(s) queued behind it)"
        )
    if len(lines) == 1:
        lines.append("  (no transient state anywhere: nothing left to wait for)")
    return "\n".join(lines)


class Watchdog:
    """Periodic progress monitor scheduled into a system's simulator.

    Every ``check_interval`` cycles it compares total committed
    instructions and total dispatched events against the previous tick:

    * no new events beyond the watchdog's own tick => the queue is
      quiescent; with unhalted cores that is a deadlock;
    * events but no committed instruction for ``no_commit_window``
      cycles => livelock.

    The tick stops rescheduling itself once every core has halted, so a
    healthy run still drains its queue (and its stats/results are
    untouched -- the watchdog reads state, never writes it).
    """

    def __init__(self, system: "System", check_interval: int = 2_000,
                 no_commit_window: int = 200_000):
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if no_commit_window < check_interval:
            raise ValueError("no_commit_window must be >= check_interval")
        self.system = system
        self.check_interval = check_interval
        self.no_commit_window = no_commit_window
        self._last_progress = -1
        self._last_dispatched = -1
        self._stalled_cycles = 0

    def start(self) -> None:
        """Arm the watchdog; call before ``sim.run()``."""
        self._last_progress = self._progress()
        self._last_dispatched = self.system.sim.events_dispatched
        self.system.sim.schedule_fast(self.check_interval, self._tick)

    def _progress(self) -> int:
        # Committed instructions + halts: monotone, and advanced by any
        # genuine forward progress.  Rollbacks reset pc but never undo
        # the committed count.
        system = self.system
        for core in system.cores:
            core.settle()  # a parked core's counters lag its relays
        return sum(core.instructions for core in system.cores) \
            + system._halted_count

    def _tick(self) -> None:
        system = self.system
        if getattr(system, "all_settled", system.all_halted):
            return  # disarm: let the queue drain normally
        sim = system.sim
        dispatched = sim.events_dispatched
        if dispatched - self._last_dispatched <= 1:
            # Only our own previous tick fired in a whole interval: the
            # machine is quiescent but cores are still blocked.  A
            # paused core makes quiescence expected -- its resume event
            # is pending, so hold fire and re-check next interval.
            if not any(getattr(c, "nf_state", 0) == 1
                       for c in system.cores):
                crashed = getattr(system, "crashed_cores", set())
                stuck = [c.core_id for c in system.cores
                         if not c.halted and c.core_id not in crashed]
                note = ""
                if crashed:
                    note = (f" (cores {sorted(crashed)} crash-stopped "
                            "by the node-fault plan)")
                raise DeadlockError(
                    f"deadlock: no events besides the watchdog fired for "
                    f"{self.check_interval} cycles; cores {stuck} "
                    f"blocked{note}\n" + diagnostic_dump(system)
                )
        progress = self._progress()
        if progress > self._last_progress:
            self._stalled_cycles = 0
        else:
            self._stalled_cycles += self.check_interval
            if self._stalled_cycles >= self.no_commit_window:
                raise LivelockError(
                    f"livelock: no instruction committed for "
                    f"{self._stalled_cycles} cycles while events keep firing\n"
                    + diagnostic_dump(system)
                )
        self._last_progress = progress
        self._last_dispatched = dispatched
        sim.schedule_fast(self.check_interval, self._tick)
