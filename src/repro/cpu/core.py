"""In-order timing core with store buffer and InvisiFence speculation.

Execution model: one instruction at a time, overlapped with store-buffer
drain.  Every ordering decision goes through the consistency policy;
wherever the policy demands a store-buffer drain, the core either stalls
(conventional baseline) or -- with InvisiFence enabled -- checkpoints
and continues speculatively.

Cycle accounting: every elapsed cycle of a core's runtime is attributed
to exactly one category (busy, memory, or one of the stall causes),
which is what the E1 breakdown figure reports.

Rollback correctness relies on an *epoch* counter: every continuation
the core schedules (step events, L1 callbacks) captures the epoch at
issue; a rollback bumps the epoch, atomically invalidating all in-flight
speculative continuations.
"""

from __future__ import annotations

import enum
from heapq import heappush as _heappush
from itertools import accumulate
from types import CodeType, FunctionType
from typing import Callable, Optional, Tuple

from repro.consistency import ConsistencyPolicy, policy_for
from repro.coherence.l1 import L1Cache, ViolationReason
from repro.core.checkpoint import Checkpoint
from repro.core.invisifence import InvisiFenceController, SpecTrigger
from repro.cpu.regfile import RegisterFile
from repro.cpu.storebuffer import StoreBuffer
from repro.isa import semantics
from repro.isa.instructions import _ALU, _ATOMICS, _BRANCHES, Instruction, Opcode
from repro.isa.interpreter import (
    SPIN_MAX_BRANCHES,
    SuperblockSpan,
    spin_loops,
    superblock_spans,
)
from repro.isa.program import Program
from repro.sim.config import CoreConfig, SpeculationConfig, SpeculationMode
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import StatsRegistry

_WORD_MASK = semantics.WORD_MASK


class StallCause(enum.Enum):
    """Where a core's non-busy cycles go (E1 breakdown categories)."""

    FENCE = "fence"            #: draining at an explicit fence
    ATOMIC = "atomic"          #: draining before an atomic RMW
    ATOMIC_DEP = "atomic-dep"  #: true same-address store->RMW dependence
    SC_ORDER = "sc-order"      #: SC's per-operation store-completion wait
    SB_FULL = "sb-full"        #: store buffer structurally full
    MEMORY = "memory"          #: cache/memory access time (not ordering)
    ROLLBACK = "rollback"      #: misspeculation recovery penalty
    HALT_DRAIN = "halt-drain"  #: draining/committing before HALT

    @property
    def is_ordering(self) -> bool:
        """Ordering-induced categories (the ones InvisiFence removes)."""
        return self in (StallCause.FENCE, StallCause.ATOMIC, StallCause.SC_ORDER)


class Core:
    """One simulated processor core."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        config: CoreConfig,
        spec_config: SpeculationConfig,
        program: Program,
        l1: L1Cache,
        stats: StatsRegistry,
        on_halt: Optional[Callable[["Core"], None]] = None,
        commit_arbiter=None,
        superblocks: bool = False,
    ):
        self.sim = sim
        self.core_id = core_id
        self.config = config
        self.spec_config = spec_config
        self.program = program
        self.l1 = l1
        self.on_halt = on_halt

        self.policy: ConsistencyPolicy = policy_for(config.consistency)
        self.regs = RegisterFile()
        self.pc = 0
        self.halted = False
        self.epoch = 0
        self.instructions = 0
        # Program-order index for ordering-relevant instructions (memory
        # ops and fences).  Assigned at issue and carried on every
        # recorded access so the verification layer can reconstruct each
        # core's program-order stream from the (apply-ordered) log.
        # Monotonically increasing; re-execution after a rollback takes
        # fresh indices, so committed records are po-sorted per core.
        self._po = 0
        self.sb = StoreBuffer(config.store_buffer_entries,
                              coalescing=config.store_buffer_coalescing)
        self.spec: Optional[InvisiFenceController] = (
            InvisiFenceController(spec_config, stats, core_id)
            if spec_config.enabled else None
        )
        # Incremental checkpointing: while speculating, every register
        # write first journals (reg, old_value) here; rollback replays
        # the journal in reverse instead of restoring a full register
        # snapshot, and entering speculation copies nothing.  The list
        # object is stable (cleared in place) so decoded closures may
        # capture it.
        self._reg_undo: list = []
        self.l1.violation_listener = self._on_violation

        self.commit_arbiter = commit_arbiter
        self._commit_requested = False
        self._draining = False
        # (predicate, cause, started_at, action) -- at most one pending wait.
        self._pending_wait: Optional[Tuple[Callable[[], bool], StallCause, int, Callable[[], None]]] = None
        self._rolling_back = False
        self.finish_cycle: Optional[int] = None

        # Node-fault (chaos) state: 0 = live, 1 = paused, 2 = crashed.
        # Plain attributes on every core (cheap to initialise), but the
        # dispatch guard that reads them is only installed on cores named
        # by an active NodeFaultPlan (see enable_node_faults) -- cores
        # outside a plan execute the exact same closures as before, so
        # fault-free runs stay byte-identical.
        self.nf_state = 0
        self.nf_crashed_at: Optional[int] = None
        self.nf_paused_at: Optional[int] = None
        self.nf_resume_at: Optional[int] = None
        self._nf_guarded = False
        # While paused, the one deferred dispatch: (handler, instr, epoch).
        self._nf_stash: Optional[Tuple[Callable, Instruction, int]] = None
        self._nf_stat_deferred = None  # shared counter, set at enable time

        prefix = f"core.{core_id}"
        self.stat_instructions = stats.counter(f"{prefix}.instructions")
        self.stat_busy = stats.counter(f"{prefix}.busy_cycles")
        self.stat_stall = {
            cause: stats.counter(f"{prefix}.stall.{cause.value}")
            for cause in StallCause
        }
        self.stat_forwards = stats.counter(f"{prefix}.store_forwards")
        self.stat_drained = stats.counter(f"{prefix}.stores_drained")
        self.stat_ordering_avoided = stats.counter(f"{prefix}.ordering_stalls_avoided")
        self.stat_sb_occupancy = stats.histogram(f"{prefix}.sb_occupancy")

        # Hot-path caches (resolved once; attribute walks cost on every event).
        self._schedule_fast = sim.schedule_fast
        self._regfile = self.regs._regs  # raw list; restore() copies in place
        self._sb_entries = self.sb._entries  # raw deque; truthy iff non-empty
        self._alu_latency = config.alu_latency
        self._spec_continuous = (
            self.spec is not None
            and spec_config.mode is SpeculationMode.CONTINUOUS
        )
        self._spec_note = (self.spec.note_instruction
                           if self.spec is not None else None)
        # Policies are stateless: their per-class answers are constants,
        # cached here so memory ops pay attribute reads, not method calls.
        self._load_needs_drain = self.policy.load_requires_drain()
        self._store_needs_drain = self.policy.store_requires_drain()
        self._atomic_needs_drain = self.policy.atomic_requires_drain()
        self._allows_forwarding = self.policy.allows_store_forwarding
        self._stat_mem_stall = self.stat_stall[StallCause.MEMORY]
        # In-order core: at most one load/RMW is outstanding (its
        # callback schedules the next instruction) and a squashed
        # request's callback never fires, so the pending access's
        # operands live here instead of in a per-access partial().
        # Loads and RMWs share the slots -- they can never overlap.
        self._mem_instr: Optional[Instruction] = None
        self._mem_issued_at = 0
        self._load_done_h = self._load_done
        self._rmw_done_h = self._rmw_done
        if sim.fastpath:
            if self.spec is None:
                # Non-speculating fast-path core: load completion inlines
                # retirement (_load_done_fast), and the L1's request-free
                # read specialisation dispatches straight into it.
                self._load_done_h = self._load_done_fast
                self.l1._read_callback = self._load_done_fast
            else:
                # Speculation-capable core: the request-free read path is
                # used only for loads issued OUTSIDE an active episode
                # (see _make_load: episodes cannot begin while an
                # in-order core is stalled on its one outstanding load,
                # so issue-time inactivity holds through completion).
                # Its miss path completes through the generic _load_done,
                # whose active-episode journaling check is then vacuous.
                self.l1._read_callback = self._load_done
        # Same idea for the store-buffer drain (one in flight, gated by
        # _draining): the head entry lives here, not in a per-drain lambda.
        self._drain_entry = None
        self._drain_done_h = self._drain_done_head
        # Decode once at program load: every instruction slot resolves to
        # its exec callable, so _step is a list index + call instead of
        # an elif chain over Opcode properties.  (A list, not a tuple:
        # non-speculating cores' closures capture it for direct
        # next-instruction dispatch, and it must be the same object.)
        # Prebuilt per-slot (handler, (instr,)) bucket entries: successor
        # appends reuse these immutable tuples instead of allocating two
        # tuples per dispatched instruction.  Created empty here so the
        # decode/fusion closures can capture the list object; filled
        # below once the decoded table is final.
        self._entries: list = []
        # Fused L1-read-hit + load-retirement event (see _make_load_hit);
        # built before decode so _make_load closures can capture it.
        self._load_hit_h: Optional[Callable] = (
            _make_load_hit(self) if sim.fastpath else None)
        self._decoded: List[Tuple[Callable, Instruction]] = \
            self._decode_program(program)
        # Trace compilation (superblock fusion): only with fastpath=True
        # (the reference build stays per-instruction so the
        # determinism proof has a reference), and never in
        # CONTINUOUS speculation -- that mode is active at essentially
        # every instruction boundary, so fusion would always fall back
        # and only add a guard to the hot path.  Coverage counters are
        # plain attributes (surfaced via CoreSummary), NOT StatsRegistry
        # counters: fusion must not change the fingerprinted stats
        # snapshot.
        self.superblocks = bool(
            superblocks and sim.fastpath
            and spec_config.mode is not SpeculationMode.CONTINUOUS)
        self.fused_instructions = 0
        self.fused_blocks = 0
        #: Fused span per head slot (empty without fusion); spin parking
        #: reads it to replay the fused cadence of a loop's branches.
        self._fused_spans: dict = {}
        if self.superblocks:
            self._install_superblocks(program)
        # Spin parking (see _install_spin_parking): same engine and mode
        # rules as fusion.  ``parked_slots`` counts the event slots that
        # relay chains stood in for; a plain attribute, like the fusion
        # counters, so results and fingerprints never see it.
        self.parked_slots = 0
        self._park: Optional[_Park] = None
        self._spin_shapes: dict = {}
        if sim.fastpath and not self._spec_continuous:
            self._install_spin_parking(program)
        self._entries.extend((h, (ins,)) for h, ins in self._decoded)
        if self.spec is None:
            # No speculation: the epoch never advances and a halted core
            # schedules nothing, so the _step trampoline's guards are
            # dead weight.  Retirement schedules the next instruction's
            # handler directly (see _finish_direct and _make_alu).
            self._finish = self._finish_direct  # type: ignore[method-assign]

    # -------------------------------------------------------------- decode

    def _decode_program(self, program: Program) -> List[Tuple[Callable, Instruction]]:
        """Resolve every instruction slot to its exec callable, once.

        ALU and branch slots -- the dominant dynamic instruction classes
        -- compile to specialised closures with the operand registers,
        semantic evaluator, latency and branch target pre-resolved (see
        :func:`_make_alu` / :func:`_make_branch`).  All other opcodes
        bind their ``_exec_*`` handler from the dispatch table.
        Dispatching an instruction is then one list index and one call,
        with no per-step Opcode classification.
        """
        dispatch = _exec_dispatch()
        decoded: List[Tuple[Callable, Instruction]] = []
        for index, instr in enumerate(program.instructions):
            op = instr.op
            if op in _ALU:
                decoded.append((_make_alu(self, instr, index, decoded), instr))
            elif op in _BRANCHES:
                if instr.target is None:
                    raise SimulationError(
                        f"core {self.core_id}: unresolved branch at load: {instr}")
                decoded.append((_make_branch(self, instr, index, decoded), instr))
            elif op is Opcode.LOAD and self.sim.fastpath:
                decoded.append((_make_load(self, instr), instr))
            else:
                decoded.append((dispatch[op].__get__(self), instr))
        return decoded

    def _install_superblocks(self, program: Program) -> None:
        """Overlay fused closures onto superblock head slots.

        Only the *head* slot of each span is replaced; interior slots
        keep their per-instruction closures.  For non-speculating cores
        the interiors are unreachable (no slot after the head is a
        branch target); speculation-capable cores execute them when the
        fused closure falls back to per-instruction dispatch during an
        active episode (see :func:`_make_superblock`).
        """
        decoded = self._decoded
        instructions = program.instructions
        for span in superblock_spans(program):
            fused = _make_superblock(self, span, decoded)
            decoded[span.start] = (fused, instructions[span.start])
            self._fused_spans[span.start] = span

    def _install_spin_parking(self, program: Program) -> None:
        """Overlay parking-capable closures onto spin-loop load slots.

        Only loads :func:`~repro.isa.interpreter.spin_loops` names get
        the parking closure (:func:`_make_spin_load`); every other slot,
        and every slot of a program without spin loops, keeps the
        closure it was decoded to.
        """
        decoded = self._decoded
        for index in spin_loops(program):
            instr = decoded[index][1]
            decoded[index] = (_make_spin_load(self, instr, index), instr)

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Schedule the first instruction."""
        self._schedule_step(0)

    # ---------------------------------------------------------- node faults

    def enable_node_faults(self) -> None:
        """Install the crash/pause dispatch guard on every instruction slot.

        Every dispatch path -- the ``_step`` trampoline, the direct
        successor appends of non-speculating cores, fused superblocks and
        their relays, the load-completion retirement paths -- fetches the
        next handler from the shared ``_decoded``/``_entries`` list
        objects *at dispatch time*, so wrapping the handlers in place
        gates all of them at instruction boundaries.  A parked spinner
        (see :meth:`_park_entry`) dispatches nothing until it wakes, and
        :meth:`nf_pause`/:meth:`nf_crash` wake it first.  Only cores
        named by an active :class:`~repro.faults.nodeplan.NodeFaultPlan`
        are wrapped; every other core keeps its original closures.
        """
        if self._nf_guarded:
            return
        self._nf_guarded = True
        decoded = self._decoded
        entries = self._entries
        for index, (handler, instr) in enumerate(decoded):
            guarded = _make_node_guard(self, handler)
            decoded[index] = (guarded, instr)
            entries[index] = (guarded, (instr,))

    def nf_crash(self) -> bool:
        """Fail-stop this core at the next instruction boundary.

        The core stops dispatching permanently.  Its store buffer is
        frozen -- buffered-but-undrained stores are lost -- while the L1
        stays attached to the coherence protocol, so survivors can still
        read whatever this node made architecturally visible.  An active
        speculative episode is aborted first (registers roll back, the
        L1 relinquishes SW ownership): a dead node's *uncommitted*
        speculative state must never become visible to the survivors.

        Returns False (no-op) if the core already halted or crashed.
        """
        if self.halted or self.nf_state == 2:
            return False
        if self._park is not None:
            self._spin_wake()
        self.nf_state = 2
        self.nf_crashed_at = self.sim.now
        self._nf_stash = None
        if self.spec is not None and self.spec.active:
            self.l1.rollback_speculation()
            self._on_violation(ViolationReason.EXTERNAL_INVALIDATION, 0)
        # The instruction blocked on a wait (SB slot, drain, HALT) dies
        # with the core; without this the next SB event would run its
        # action post-mortem.
        self._pending_wait = None
        # Freeze the store buffer: the instance attribute shadows the
        # class method, so nothing new issues.  A drain already in
        # flight completes (the line was on the wire when the node died).
        self._maybe_drain = _nf_drain_frozen.__get__(self)  # type: ignore[method-assign]
        return True

    def nf_pause(self, resume_at: int) -> bool:
        """Suspend instruction dispatch until :meth:`nf_resume`.

        In-flight memory operations and store-buffer drain continue --
        the node is stalled (think GC pause or preemption), not dead.
        Returns False (no-op) if the core already halted, paused, or
        crashed.
        """
        if self.halted or self.nf_state != 0:
            return False
        if self._park is not None:
            self._spin_wake()
        self.nf_state = 1
        self.nf_paused_at = self.sim.now
        self.nf_resume_at = resume_at
        return True

    def nf_resume(self) -> bool:
        """End a pause; replay the deferred dispatch, if any.

        The stash carries the epoch it was captured under: a rollback
        during the pause bumps the epoch and re-steps on its own, making
        a stale stash dead (replaying it would double-dispatch).
        """
        if self.nf_state != 1:
            return False
        self.nf_state = 0
        self.nf_resume_at = None
        stash = self._nf_stash
        self._nf_stash = None
        if stash is not None and stash[2] == self.epoch:
            self._schedule_fast(0, stash[0], stash[1])
        return True

    # -------------------------------------------------------- spin parking
    #
    # A core spinning on an L1-resident block repeats one iteration
    # exactly until the block changes, and the block can change only
    # through a message to this core's L1 (the core itself issues
    # nothing else while it spins).  So at the spin load's dispatch the
    # core may *park*: instead of the load-hit event it queues one
    # engine-level relay chain (Simulator.make_relay) whose entries are
    # appended at exactly the moments the load-hit, branch and load
    # events would have been, so every bucket position and the event
    # count are unchanged while no Python runs per iteration.  The
    # parked iterations' effects are charged arithmetically (settle) and
    # the chain's live entry is swapped, in place, for the real one when
    # the L1 receives anything, at a node fault, or when the finite
    # chain runs out.  docs/PERF.md ("Spin parking") has the argument.

    def _park_entry(self, load: int, instr: Instruction, addr: int,
                    po: int, now: int) -> tuple:
        """The entry a spin load appends at ``now + hit_latency``.

        Called by the spin-load closure after the load's own issue work,
        with an empty store buffer and no active episode.  Returns a
        fresh relay chain (and parks the core) when parking is exact
        here, else the plain load-hit entry.
        """
        l1 = self.l1
        entry = (self._load_hit_h, (addr, po))
        if l1.access_listener is not None or l1._mshrs:
            return entry
        array = l1.array
        block_addr = addr & l1._block_mask
        index = (block_addr >> l1._offset_bits) & l1._set_mask
        block = array._sets[index].get(block_addr)
        # MRU: every parked hit's LRU touch must be a no-op.
        if (block is None or not block.state.readable
                or array._mru[index] != block_addr):
            return entry
        word = block.data[(addr & l1._word_mask) >> 3] & _WORD_MASK
        path = self._spin_path(load, instr.rd, word)
        if path is None:
            return entry
        shape = self._spin_shapes.get((load, path))
        if shape is None:
            shape = self._spin_shapes[(load, path)] = _SpinShape(
                load, instr.rd, path, l1._hit_latency)
        relay = Simulator.make_relay(shape.deltas)
        final = (self._spin_final, ())
        payload = relay[1]
        payload[2] = shape.stop
        payload[3] = final
        self._park = _Park(shape, relay, final, now, addr, word, po)
        l1.wake_listener = self._spin_wake
        return relay

    def _spin_path(self, load: int, rd: int, word: int):
        """The branch slots one iteration runs after the load hits.

        Evaluates the loop's continuation with ``rd`` holding ``word``
        and returns ``((slot, fused), ...)`` -- ``fused`` is the executed
        instruction count at a fused span's head, else 0 -- if it is
        branches only, at most :data:`SPIN_MAX_BRANCHES` slots, and
        leads back to ``load``; otherwise None.  Branches write no
        register, so the same path repeats until the block changes.
        """
        regs = self._regfile
        instructions = self.program.instructions
        evaluate = semantics._BRANCH_EVAL
        path = []
        pc = load + 1
        while pc != load:
            span = self._fused_spans.get(pc)
            stop = span.stop if span is not None else pc + 1
            head = pc
            count = 0
            while True:
                if len(path) + count >= SPIN_MAX_BRANCHES \
                        or pc >= len(instructions):
                    return None
                branch = instructions[pc]
                if branch.op not in _BRANCHES:
                    return None
                count += 1
                rs = word if branch.rs == rd else regs[branch.rs]
                rt = word if branch.rt == rd else regs[branch.rt]
                if evaluate[branch.op](branch, rs, rt):
                    pc = branch.target
                    break
                pc += 1
                if pc == stop:
                    break
            path.append((head, count if span is not None else 0))
            path.extend((slot, 0) for slot in range(head + 1, head + count))
        return tuple(path)

    def _parked_consumed(self, park: "_Park") -> int:
        """How many chain slots the engine has dispatched so far."""
        consumed = park.relay[1][1]
        stop = park.shape.stop
        if consumed == stop - 1:
            # The last relay leaves its index in place when it appends
            # the final entry: it has fired iff that entry is queued.
            bucket = self.sim._buckets.get(park.slot_time(stop), ())
            if any(entry is park.final for entry in bucket):
                consumed = stop
        return consumed

    def _settle_to(self, park: "_Park", consumed: int) -> None:
        """Charge chain slots ``[park.settled, consumed)``.

        Per slot kind, exactly what the unparked event would have done:
        a load hit (L1 hit, memory-stall cycles, retirement, ``rd``), a
        branch (retirement; a fused head also its fusion counters), a
        load issue (``_po``, ``_mem_issued_at``).  Each retirement takes
        one busy cycle, and an idle speculation controller only ticks
        its conservative-window countdown.
        """
        done = park.settled
        if consumed == done:
            return
        shape = park.shape
        hits, retired, blocks, fused = (
            after - before for after, before
            in zip(shape.totals(consumed), shape.totals(done)))
        self.instructions += retired
        self.stat_instructions.value += retired
        self.stat_busy.value += retired
        spec = self.spec
        if spec is not None:
            remaining = spec._conservative_remaining
            if remaining > 0:
                spec._conservative_remaining = \
                    remaining - retired if remaining > retired else 0
        self.l1.stat_hits.value += hits
        self._stat_mem_stall.value += hits * shape.hit_latency
        self.fused_blocks += blocks
        self.fused_instructions += fused
        laps, slot = divmod(consumed, shape.m)
        self._po = park.po + laps  # one load issue per full iteration
        self._mem_issued_at = park.issued_at + laps * shape.period
        self.pc = shape.pcs[slot]
        self._regfile[shape.rd] = park.word
        self.parked_slots += consumed - done
        park.settled = consumed

    def settle(self) -> None:
        """Bring a parked core's counters, registers and pc up to date.

        A no-op unless the core is parked.  Observers that read a core
        mid-run (the watchdog, diagnostic dumps) call this first; the
        core stays parked.
        """
        park = self._park
        if park is not None:
            self._settle_to(park, self._parked_consumed(park))

    def _spin_wake(self) -> None:
        """Unpark: settle, then put the real entry where the live one is.

        Runs before the L1 handles a message (or a node fault lands), so
        the handler sees the exact unparked state.  The live chain entry
        is found by identity -- relay tuples compare by value -- and
        replaced in place, keeping its bucket position: what the
        unparked engine would hold there is the load-hit entry, or the
        next instruction's (a fused span's interior slot resumes as its
        per-instruction closure, which settle accounted for).
        """
        park = self._park
        consumed = self._parked_consumed(park)
        self._settle_to(park, consumed)
        self._park = None
        self.l1.wake_listener = None
        if consumed % park.shape.m == 0:
            entry = (self._load_hit_h, (park.addr, self._po))
        elif self.spec is None:
            entry = self._entries[self.pc]
        else:
            entry = (self._step, (self.epoch,))
        live = park.final if consumed == park.shape.stop else park.relay
        bucket = self.sim._buckets[park.slot_time(consumed)]
        for index in range(len(bucket)):
            if bucket[index] is live:
                bucket[index] = entry
                return
        raise SimulationError(
            f"core {self.core_id}: parked relay chain not found")

    def _spin_final(self) -> None:
        """The chain's last entry, at the load slot after its final
        iteration: settle everything and dispatch the load for real
        (which parks again if it still may)."""
        park = self._park
        self._settle_to(park, park.shape.stop)
        self._park = None
        self.l1.wake_listener = None
        handler, instr = self._decoded[self.pc]
        handler(instr)

    @property
    def speculating(self) -> bool:
        return self.spec is not None and self.spec.active

    def _guard(self) -> Callable[[], bool]:
        """An epoch guard closing over the current epoch."""
        epoch = self.epoch
        return lambda: self.epoch == epoch

    def _schedule_step(self, delay: int) -> None:
        # Step events are never cancelled (rollbacks neutralise them via
        # the epoch guard), so they ride the allocation-free fast path.
        self._schedule_fast(delay, self._step, self.epoch)

    # ------------------------------------------------------------ stepping

    def _step(self, epoch: int) -> None:
        if epoch != self.epoch or self.halted or self._rolling_back:
            return
        spec = self.spec
        if spec is not None:
            # Continuous-mode housekeeping at the instruction boundary:
            # commit a matured episode, then immediately re-checkpoint.
            # (Guarded so the common idle/on-demand case costs two plain
            # attribute reads, not two policy calls.)
            if spec.active and spec.should_commit(self.sb.empty, at_drain=False):
                self._do_commit()
            if self._spec_continuous and spec.wants_continuous_entry():
                self._enter_speculation(SpecTrigger.CONTINUOUS)
        handler, instr = self._decoded[self.pc]
        handler(instr)

    def _finish(self, busy_cycles: int, next_pc: int) -> None:
        """Complete the current instruction and schedule the next.

        The schedule_fast body is inlined: a plain calendar-bucket
        append of the _step trampoline entry."""
        self.stat_busy.value += busy_cycles
        self.stat_instructions.value += 1
        self.instructions += 1
        if self._spec_note is not None:
            self._spec_note()
        self.pc = next_pc
        sim = self.sim
        time = sim._now + busy_cycles
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._step, (self.epoch,))]
            _heappush(sim._times, time)
        else:
            bucket.append((self._step, (self.epoch,)))
        sim._pending += 1

    def _finish_direct(self, busy_cycles: int, next_pc: int) -> None:
        """_finish for non-speculating cores: append the next
        instruction's prebuilt entry itself, skipping the _step
        trampoline (its epoch/halt/speculation guards can never fire
        here)."""
        self.stat_busy.value += busy_cycles
        self.stat_instructions.value += 1
        self.instructions += 1
        self.pc = next_pc
        entry = self._entries[next_pc]
        sim = self.sim
        time = sim._now + busy_cycles
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [entry]
            _heappush(sim._times, time)
        else:
            bucket.append(entry)
        sim._pending += 1

    # ------------------------------------------------------- waits & drain

    def _wait_for(self, predicate: Callable[[], bool], cause: StallCause,
                  action: Callable[[], None]) -> None:
        """Block the core until ``predicate`` holds, then run ``action``.

        Predicates become true only through store-buffer drain events, so
        re-checking on each drain suffices.  A rollback cancels the wait
        (the waiting instruction was speculative and will re-execute).
        """
        if predicate():
            action()
            return
        if self._pending_wait is not None:
            raise SimulationError(f"core {self.core_id}: nested wait")
        self._pending_wait = (predicate, cause, self.sim._now, action)

    def _on_sb_event(self) -> None:
        """A store drained: check the commit condition, then wake waiters.

        Commit must run first: a HALT waiting for ``not speculating``
        would otherwise never see its predicate become true.
        """
        if (self.spec is not None
                and self.spec.should_commit(self.sb.empty, at_drain=True)):
            self._do_commit()
        if self._pending_wait is not None:
            predicate, cause, started_at, action = self._pending_wait
            if predicate():
                self._pending_wait = None
                self.stat_stall[cause].increment(self.sim._now - started_at)
                action()

    def _maybe_drain(self) -> None:
        if self._draining or self.sb.empty:
            return
        entry = self.sb.head()
        entry.in_flight = True
        self._draining = True
        if self.spec is None:
            # No speculation: entries are never speculative, the epoch
            # never advances; skip the guard and flag closures entirely
            # (and the per-drain lambda: one drain in flight at a time).
            self._drain_entry = entry
            self.l1.write(entry.addr, entry.value,
                          callback=self._drain_done_h, po=entry.po)
        else:
            guard = self._guard() if entry.speculative else None
            # The speculation flag is re-read at L1 apply time: a commit
            # that races with this in-flight drain clears the entry's
            # flag, and the write must then land non-speculatively.
            self.l1.write(entry.addr, entry.value,
                          callback=lambda e=entry: self._drain_done(e),
                          guard=guard, speculative=lambda e=entry: e.speculative,
                          po=entry.po)
        self._prefetch_queued_stores(entry)

    def _prefetch_queued_stores(self, head) -> None:
        """Overlap queued stores' coherence misses (exclusive prefetch).

        Write *application* stays FIFO; only permission acquisition is
        hoisted, which is TSO-safe and mirrors real write buffers.
        """
        depth = self.config.store_prefetch_depth
        if depth == 0:
            return
        head_block = self.l1.config.block_of(head.addr)
        seen = {head_block}
        for entry in self.sb:
            if len(seen) > depth:
                break
            block = self.l1.config.block_of(entry.addr)
            if block not in seen:
                seen.add(block)
                self.l1.prefetch_write(entry.addr)

    def _drain_done_head(self) -> None:
        self._drain_done(self._drain_entry)

    def _drain_done(self, entry) -> None:
        self.sb.pop_head(entry)
        self.stat_drained.increment()
        self._draining = False
        self._maybe_drain()
        self._on_sb_event()

    # ------------------------------------------------------------ nop
    # (ALU and branch slots compile to closures in _decode_program.)

    def _exec_nop(self, instr: Instruction) -> None:
        self._finish(1, self.pc + 1)

    # --------------------------------------------------------------- loads

    def _exec_load(self, instr: Instruction) -> None:
        addr = (self._regfile[instr.rs] + instr.imm) & _WORD_MASK
        po = self._po = self._po + 1
        self._exec_load_ordered(instr, addr, po)

    def _exec_load_ordered(self, instr: Instruction, addr: int, po: int) -> None:
        """Ordering checks + issue for a load whose addr/po are assigned.

        Split from :meth:`_exec_load` so the decode-time load closure
        (see :func:`_make_load`) can delegate here when the store buffer
        is non-empty -- the only case with drain/forwarding concerns.
        """
        spec = self.spec
        if (self._load_needs_drain and self._sb_entries
                and (spec is None or not spec.active)):
            if self._try_speculate(SpecTrigger.SC_ORDER):
                self._issue_load(instr, addr, po)
                return
            self._wait_for(lambda: self.sb.empty, StallCause.SC_ORDER,
                           lambda: self._issue_load(instr, addr, po))
            return
        self._issue_load(instr, addr, po)

    def _issue_load(self, instr: Instruction, addr: int, po: int = -1) -> None:
        # SC disables forwarding only because its loads wait for the
        # buffer to drain (the L1 value then equals the store's).  A
        # *speculative* SC load skips that wait, so it must forward --
        # otherwise a same-address load would read the pre-store value
        # and no violation would ever flag it (our own drain triggers no
        # invalidation).
        if self._sb_entries and (self._allows_forwarding or self.speculating):
            forwarded = self.sb.forward_value(addr)
            if forwarded is not None:
                self.stat_forwards.increment()
                if instr.rd:
                    if self.speculating:
                        self._reg_undo.append((instr.rd, self._regfile[instr.rd]))
                    self._regfile[instr.rd] = forwarded & _WORD_MASK
                if self.speculating:
                    # A speculative load that forwards never touches the
                    # L1, but it still belongs to the episode's read set:
                    # the episode may have reordered this load above a
                    # drain point (an elided fence, an SC load's wait), so
                    # a remote write to the block before commit makes the
                    # forwarded value order-visible.  Mark the block SR --
                    # pending until the forwarded-from store's drain makes
                    # it resident -- so such a write aborts the episode.
                    self.l1.note_speculative_forward(addr)
                listener = self.l1.forward_listener
                if listener is not None:
                    listener(addr, forwarded, self.speculating, po)
                self._finish(1, self.pc + 1)
                return
        self._mem_instr = instr
        self._mem_issued_at = self.sim._now
        # `speculative` is a callable evaluated when the L1 applies the
        # access: if the episode commits while this load is in flight, the
        # load must not leave a stale SR bit behind.  With speculation
        # disabled the epoch never advances and nothing is speculative,
        # so both closures are elided.
        if self.spec is None:
            self.l1.read(addr, callback=self._load_done_h, po=po)
            return
        self.l1.read(
            addr,
            callback=self._load_done_h,
            guard=self._guard(),
            speculative=lambda: self.speculating,
            po=po,
        )

    def _load_done(self, value: int) -> None:
        instr = self._mem_instr
        if instr.rd:  # r0 stays hardwired to zero
            spec = self.spec
            if spec is not None and spec.active:
                self._reg_undo.append((instr.rd, self._regfile[instr.rd]))
            self._regfile[instr.rd] = value & _WORD_MASK
        self._stat_mem_stall.value += self.sim._now - self._mem_issued_at
        self._finish(1, self.pc + 1)

    def _load_done_fast(self, value: int) -> None:
        """:meth:`_load_done` for non-speculating fast-path cores, with
        the ``_finish_direct`` body inlined (one fewer call on the
        dominant completion path; byte-identical effects)."""
        instr = self._mem_instr
        if instr.rd:  # r0 stays hardwired to zero
            self._regfile[instr.rd] = value & _WORD_MASK
        sim = self.sim
        self._stat_mem_stall.value += sim._now - self._mem_issued_at
        self.stat_busy.value += 1
        self.stat_instructions.value += 1
        self.instructions += 1
        pc = self.pc + 1
        self.pc = pc
        entry = self._entries[pc]
        time = sim._now + 1
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [entry]
            _heappush(sim._times, time)
        else:
            bucket.append(entry)
        sim._pending += 1

    # -------------------------------------------------------------- stores

    def _exec_store(self, instr: Instruction) -> None:
        addr = (self._regfile[instr.rs] + instr.imm) & _WORD_MASK
        value = self._regfile[instr.rt]
        po = self._po = self._po + 1
        spec = self.spec
        if (self._store_needs_drain and self._sb_entries
                and (spec is None or not spec.active)):
            if self._try_speculate(SpecTrigger.SC_ORDER):
                self._issue_store(addr, value, po)
                return
            self._wait_for(lambda: self.sb.empty, StallCause.SC_ORDER,
                           lambda: self._issue_store(addr, value, po))
            return
        self._issue_store(addr, value, po)

    def _issue_store(self, addr: int, value: int, po: int = -1) -> None:
        if self.sb.full:
            self._wait_for(lambda: not self.sb.full, StallCause.SB_FULL,
                           lambda: self._issue_store(addr, value, po))
            return
        self.sb.enqueue(addr, value, speculative=self.speculating,
                        now=self.sim._now, po=po)
        if self.speculating:
            self.spec.note_speculative_store()
        self.stat_sb_occupancy.add(self.sb.occupancy)
        self._maybe_drain()
        self._finish(1, self.pc + 1)

    # ------------------------------------------------------------- atomics

    def _exec_atomic(self, instr: Instruction) -> None:
        addr = (self._regfile[instr.rs] + instr.imm) & _WORD_MASK
        po = self._po = self._po + 1
        if self.sb.contains(addr):
            # True same-address dependence: the RMW must observe the
            # buffered store; drain it first (no RMW forwarding).  Not an
            # ordering stall -- no speculation mechanism can remove it.
            self._wait_for(lambda: not self.sb.contains(addr), StallCause.ATOMIC_DEP,
                           lambda: self._exec_atomic(instr))
            return
        spec = self.spec
        if (self._atomic_needs_drain and self._sb_entries
                and (spec is None or not spec.active)):
            if self._try_speculate(SpecTrigger.ATOMIC):
                self._issue_rmw(instr, addr, po)
                return
            self._wait_for(lambda: self.sb.empty, StallCause.ATOMIC,
                           lambda: self._issue_rmw(instr, addr, po))
            return
        self._issue_rmw(instr, addr, po)

    def _issue_rmw(self, instr: Instruction, addr: int, po: int = -1) -> None:
        rt_val = self.regs.read(instr.rt)
        ru_val = self.regs.read(instr.ru)

        def modify(old: int):
            return semantics.atomic_result(instr, old, rt_val, ru_val)

        self._mem_instr = instr
        self._mem_issued_at = self.sim._now
        if self.spec is None:
            self.l1.rmw(addr, modify, callback=self._rmw_done_h, po=po)
            return
        self.l1.rmw(
            addr, modify,
            callback=self._rmw_done_h,
            guard=self._guard(),
            speculative=lambda: self.speculating,
            po=po,
        )

    def _rmw_done(self, loaded: int) -> None:
        instr = self._mem_instr
        if instr.rd:  # r0 stays hardwired to zero
            spec = self.spec
            if spec is not None and spec.active:
                self._reg_undo.append((instr.rd, self._regfile[instr.rd]))
            self._regfile[instr.rd] = loaded & _WORD_MASK
        self._stat_mem_stall.value += self.sim._now - self._mem_issued_at
        self._finish(self.config.atomic_latency, self.pc + 1)

    # -------------------------------------------------------------- fences

    def _exec_fence(self, instr: Instruction) -> None:
        assert instr.fence is not None
        po = self._po = self._po + 1
        needs_drain = (self.policy.fence_requires_drain(instr.fence)
                       and not self.sb.empty)
        if not needs_drain:
            self._retire_fence(instr.fence, po)
            return
        if self.speculating:
            # Already speculating: the fence is speculatively satisfied;
            # the commit condition (buffer drained) enforces it for real.
            self.stat_ordering_avoided.increment()
            self._retire_fence(instr.fence, po)
            return
        if self._try_speculate(SpecTrigger.FENCE):
            self._retire_fence(instr.fence, po)
            return
        self._wait_for(lambda: self.sb.empty, StallCause.FENCE,
                       lambda: self._retire_fence(instr.fence, po))

    def _retire_fence(self, kind, po: int) -> None:
        """Complete a fence, recording it in the program-order stream.

        A fence retired inside a speculative episode is recorded as
        speculative: it is discarded with the episode on rollback (the
        re-executed fence takes a fresh program-order index).
        """
        listener = self.l1.fence_listener
        if listener is not None:
            listener(kind, po, self.speculating)
        self._finish(1, self.pc + 1)

    # ---------------------------------------------------------------- halt

    def _exec_halt(self, instr: Optional[Instruction] = None) -> None:
        if self.speculating and self.sb.empty:
            # Nothing left to drain; commit immediately so HALT can retire.
            self._do_commit()
        if self.sb.empty and not self.speculating:
            self._halt()
            return
        self._wait_for(lambda: self.sb.empty and not self.speculating,
                       StallCause.HALT_DRAIN, self._halt)

    def _halt(self) -> None:
        self.halted = True
        self.finish_cycle = self.sim.now
        if self.on_halt is not None:
            self.on_halt(self)

    # ---------------------------------------------------------- speculation

    def _try_speculate(self, trigger: SpecTrigger) -> bool:
        """Enter speculation instead of stalling, if allowed."""
        if self.spec is None or not self.spec.can_speculate():
            return False
        self._enter_speculation(trigger)
        self.stat_ordering_avoided.increment()
        return True

    def _enter_speculation(self, trigger: SpecTrigger) -> None:
        # Incremental checkpoint: no register copy -- the journal starts
        # empty and rollback replays it (see _finish_rollback).
        del self._reg_undo[:]
        checkpoint = Checkpoint(None, self.pc, self.sim.now, self.instructions)
        self.spec.enter(checkpoint, trigger)

    def _do_commit(self) -> None:
        if self.commit_arbiter is not None:
            # Chunk-baseline: the commit must win global arbitration first.
            if self._commit_requested:
                return
            self._commit_requested = True
            epoch = self.epoch
            self.commit_arbiter.request(self.core_id,
                                        lambda: self._commit_granted(epoch))
            return
        self._commit_now()

    def _commit_granted(self, epoch: int) -> None:
        self._commit_requested = False
        # A violation may have killed the episode while the request queued.
        if epoch != self.epoch or self.spec is None or not self.spec.active:
            return
        self._commit_now()
        # The commit may unblock a HALT (or other drain waiter) that was
        # waiting on `not speculating`.
        if self._pending_wait is not None:
            predicate, cause, started_at, action = self._pending_wait
            if predicate():
                self._pending_wait = None
                self.stat_stall[cause].increment(self.sim._now - started_at)
                action()

    def _commit_now(self) -> None:
        sr, sw = self.l1.speculative_footprint()
        self.spec.commit(self.sim.now, sr + sw)
        self.l1.commit_speculation()
        self.sb.commit_speculative()
        del self._reg_undo[:]  # the journaled writes became architectural

    def _on_violation(self, reason: ViolationReason, addr: int) -> None:
        """Called synchronously by the L1 after its own state rollback."""
        if self.spec is None or not self.spec.active:
            raise SimulationError(
                f"core {self.core_id}: violation ({reason.value}) without "
                "active speculation"
            )
        checkpoint = self.spec.on_violation(reason, self.sim.now)
        self.epoch += 1  # invalidates every in-flight speculative continuation
        head = self.sb.head()
        if head is not None and head.in_flight and head.speculative:
            self._draining = False  # its L1 callback is epoch-guarded away
        self.sb.squash_speculative()
        self._pending_wait = None  # the waiting instruction was speculative
        self._rolling_back = True
        started_at = self.sim.now
        self.sim.schedule(self.spec_config.rollback_penalty,
                          self._finish_rollback, checkpoint, started_at)

    def _finish_rollback(self, checkpoint: Checkpoint, started_at: int) -> None:
        self.stat_stall[StallCause.ROLLBACK].increment(self.sim.now - started_at)
        # The checkpoint is incremental (see _enter_speculation): replay
        # the undo log newest-first.  A register written twice is
        # journaled twice; the reverse replay applies its oldest
        # (pre-checkpoint) value last.
        regs = self._regfile
        for reg, old in reversed(self._reg_undo):
            regs[reg] = old
        del self._reg_undo[:]
        self.pc = checkpoint.pc
        self._rolling_back = False
        self._maybe_drain()  # non-speculative entries keep draining
        self._schedule_step(0)

    # ------------------------------------------------------------- queries

    def read_reg(self, index: int) -> int:
        return self.regs.read(index)

    def ordering_stall_cycles(self) -> int:
        """Total ordering-induced stall cycles (E1's headline quantity)."""
        return sum(self.stat_stall[c].value for c in StallCause if c.is_ordering)


def _make_alu(core: Core, instr: Instruction, index: int,
              decoded: list) -> Callable:
    """Compile one ALU slot to a closure over the raw register list.

    The evaluators in ``semantics._ALU_EVAL`` produce already-masked
    words given masked inputs, and slot 0 of the register list is never
    written, so the closure can index the list directly -- no bounds
    check, no re-mask, no method call.  Rollback restores registers
    in place from the undo journal, keeping the captured list valid.

    The closure belongs to program slot ``index``, so the fall-through
    pc is a decode-time constant, and :meth:`Core._finish` is inlined
    bodily, down to the calendar-bucket append -- retiring an ALU
    instruction is a single Python call.

    ``decoded`` is the (still-filling) program decode list; the
    non-speculating variants capture it and schedule the *next
    instruction's handler* directly instead of the _step trampoline --
    with no speculation there is no epoch to guard and no commit
    housekeeping at the boundary, so the trampoline's checks are dead.
    """
    evaluate = semantics._ALU_EVAL[instr.op]
    latency = instr.imm if instr.op is Opcode.EXEC else core._alu_latency
    regs = core.regs._regs
    if core.spec is None:
        if instr.rd:
            def exec_alu(instr, _regs=regs, _eval=evaluate, _rd=instr.rd,
                         _rs=instr.rs, _rt=instr.rt, _lat=latency,
                         _next=index + 1, _busy=core.stat_busy,
                         _icnt=core.stat_instructions, _dec=decoded,
                         _core=core, _sim=core.sim,
                         _buckets=core.sim._buckets, _times=core.sim._times,
                         _push=_heappush):
                _regs[_rd] = _eval(instr, _regs[_rs], _regs[_rt])
                # Inlined _finish_direct(_lat, _next):
                _busy.value += _lat
                _icnt.value += 1
                _core.instructions += 1
                _core.pc = _next
                h, ins = _dec[_next]
                time = _sim._now + _lat
                b = _buckets.get(time)
                if b is None:
                    _buckets[time] = [(h, (ins,))]
                    _push(_times, time)
                else:
                    b.append((h, (ins,)))
                _sim._pending += 1
        else:
            def exec_alu(instr, _regs=regs, _eval=evaluate,
                         _rs=instr.rs, _rt=instr.rt, _lat=latency,
                         _next=index + 1, _busy=core.stat_busy,
                         _icnt=core.stat_instructions, _dec=decoded,
                         _core=core, _sim=core.sim,
                         _buckets=core.sim._buckets, _times=core.sim._times,
                         _push=_heappush):
                _eval(instr, _regs[_rs], _regs[_rt])  # result discarded (r0)
                _busy.value += _lat
                _icnt.value += 1
                _core.instructions += 1
                _core.pc = _next
                h, ins = _dec[_next]
                time = _sim._now + _lat
                b = _buckets.get(time)
                if b is None:
                    _buckets[time] = [(h, (ins,))]
                    _push(_times, time)
                else:
                    b.append((h, (ins,)))
                _sim._pending += 1
        return exec_alu
    if instr.rd:
        # Speculation-capable core: journal the overwritten value while
        # an episode is active so rollback can undo it incrementally.
        def exec_alu(instr, _regs=regs, _eval=evaluate, _rd=instr.rd,
                     _rs=instr.rs, _rt=instr.rt, _lat=latency,
                     _next=index + 1, _busy=core.stat_busy,
                     _icnt=core.stat_instructions, _note=core._spec_note,
                     _step=core._step, _core=core, _spec=core.spec,
                     _undo=core._reg_undo, _sim=core.sim,
                     _buckets=core.sim._buckets, _times=core.sim._times,
                     _push=_heappush):
            if _spec.active:
                _undo.append((_rd, _regs[_rd]))
            _regs[_rd] = _eval(instr, _regs[_rs], _regs[_rt])
            # Inlined _finish(_lat, _next):
            _busy.value += _lat
            _icnt.value += 1
            _core.instructions += 1
            if _note is not None:
                _note()
            _core.pc = _next
            time = _sim._now + _lat
            b = _buckets.get(time)
            if b is None:
                _buckets[time] = [(_step, (_core.epoch,))]
                _push(_times, time)
            else:
                b.append((_step, (_core.epoch,)))
            _sim._pending += 1
    else:
        def exec_alu(instr, _regs=regs, _eval=evaluate,
                     _rs=instr.rs, _rt=instr.rt, _lat=latency,
                     _next=index + 1, _busy=core.stat_busy,
                     _icnt=core.stat_instructions, _note=core._spec_note,
                     _step=core._step, _core=core, _sim=core.sim,
                     _buckets=core.sim._buckets, _times=core.sim._times,
                     _push=_heappush):
            _eval(instr, _regs[_rs], _regs[_rt])  # result discarded (r0)
            _busy.value += _lat
            _icnt.value += 1
            _core.instructions += 1
            if _note is not None:
                _note()
            _core.pc = _next
            time = _sim._now + _lat
            b = _buckets.get(time)
            if b is None:
                _buckets[time] = [(_step, (_core.epoch,))]
                _push(_times, time)
            else:
                b.append((_step, (_core.epoch,)))
            _sim._pending += 1
    return exec_alu


def _make_branch(core: Core, instr: Instruction, index: int,
                 decoded: list) -> Callable:
    """Compile one branch slot to a closure (see :func:`_make_alu`)."""
    evaluate = semantics._BRANCH_EVAL[instr.op]
    if core.spec is None:
        def exec_branch(instr, _regs=core.regs._regs, _eval=evaluate,
                        _target=instr.target, _rs=instr.rs, _rt=instr.rt,
                        _next=index + 1, _busy=core.stat_busy,
                        _icnt=core.stat_instructions, _dec=decoded,
                        _core=core, _sim=core.sim,
                        _buckets=core.sim._buckets, _times=core.sim._times,
                        _push=_heappush):
            # Inlined _finish_direct(1, taken ? target : fall-through):
            _busy.value += 1
            _icnt.value += 1
            _core.instructions += 1
            pc = (_target if _eval(instr, _regs[_rs], _regs[_rt])
                  else _next)
            _core.pc = pc
            h, ins = _dec[pc]
            time = _sim._now + 1
            b = _buckets.get(time)
            if b is None:
                _buckets[time] = [(h, (ins,))]
                _push(_times, time)
            else:
                b.append((h, (ins,)))
            _sim._pending += 1
        return exec_branch

    def exec_branch(instr, _regs=core.regs._regs, _eval=evaluate,
                    _target=instr.target, _rs=instr.rs, _rt=instr.rt,
                    _next=index + 1, _busy=core.stat_busy,
                    _icnt=core.stat_instructions, _note=core._spec_note,
                    _step=core._step, _core=core, _sim=core.sim,
                    _buckets=core.sim._buckets, _times=core.sim._times,
                    _push=_heappush):
        # Inlined _finish(1, taken ? target : fall-through):
        _busy.value += 1
        _icnt.value += 1
        _core.instructions += 1
        if _note is not None:
            _note()
        _core.pc = (_target if _eval(instr, _regs[_rs], _regs[_rt])
                    else _next)
        time = _sim._now + 1
        b = _buckets.get(time)
        if b is None:
            _buckets[time] = [(_step, (_core.epoch,))]
            _push(_times, time)
        else:
            b.append((_step, (_core.epoch,)))
        _sim._pending += 1
    return exec_branch


def _make_load_hit(core: Core) -> Callable:
    """Fuse the L1 read hit and the load's retirement into one closure.

    For a non-speculating fast-path core, the scheduled L1 access event
    and the completion callback it invokes
    (:meth:`L1Cache._start_read` -> :meth:`Core._load_done_fast`) are
    always this core's own private L1 and this core's own completion --
    both statically known at program load.  This closure is that whole
    event: cache lookup (LRU touch inlined), hit stat, word extract,
    register write, stall/retire stats and the next instruction's
    bucket append, with no intermediate Python calls.  Anything off the
    plain-hit path -- a miss, a non-readable resident block, or an
    attached access listener (verification runs) -- delegates to the
    generic ``_start_read``, whose lookup re-touch is a no-op.

    Speculation-capable cores get the same fusion for loads issued
    outside an active episode (the only ones _make_load routes here):
    an in-order core executes nothing while its one outstanding load is
    in flight, episodes only begin at instruction execution, and
    rollback requires an active episode -- so issue-time inactivity
    holds through completion, the epoch guard could never fire, the
    speculative flag evaluates False, and no register journaling is
    due.  Their completion keeps the _step trampoline (commit
    housekeeping runs at the next boundary, as _finish would).
    """
    l1 = core.l1
    array = l1.array

    if core.spec is None:
        def load_hit(addr, po, _l1=l1, _sets=array._sets, _lru=array._lru,
                     _mru=array._mru, _bmask=array._block_mask,
                     _obits=array._offset_bits, _smask=array._set_mask,
                     _wmask=array._word_mask, _hits=l1.stat_hits,
                     _start_read=l1._start_read_h, _core=core,
                     _regs=core.regs._regs, _stall=core._stat_mem_stall,
                     _busy=core.stat_busy, _icnt=core.stat_instructions,
                     _entries=core._entries, _sim=core.sim,
                     _buckets=core.sim._buckets, _times=core.sim._times,
                     _push=_heappush):
            block_addr = addr & _bmask
            index = (block_addr >> _obits) & _smask
            block = _sets[index].get(block_addr)
            if (block is None or not block.state.readable
                    or _l1.access_listener is not None):
                _start_read(addr, po)
                return
            if _mru[index] != block_addr:
                order = _lru[index]
                del order[block_addr]
                order[block_addr] = None
                _mru[index] = block_addr
            _hits.value += 1
            value = block.data[(addr & _wmask) >> 3]
            # Inlined _load_done_fast(value):
            rd = _core._mem_instr.rd
            if rd:  # r0 stays hardwired to zero
                _regs[rd] = value & _WORD_MASK
            now = _sim._now
            _stall.value += now - _core._mem_issued_at
            _busy.value += 1
            _icnt.value += 1
            _core.instructions += 1
            pc = _core.pc + 1
            _core.pc = pc
            entry = _entries[pc]
            time = now + 1
            b = _buckets.get(time)
            if b is None:
                _buckets[time] = [entry]
                _push(_times, time)
            else:
                b.append(entry)
            _sim._pending += 1

        return load_hit

    def load_hit_spec(addr, po, _l1=l1, _sets=array._sets, _lru=array._lru,
                      _mru=array._mru, _bmask=array._block_mask,
                      _obits=array._offset_bits, _smask=array._set_mask,
                      _wmask=array._word_mask, _hits=l1.stat_hits,
                      _start_read=l1._start_read_h, _core=core,
                      _regs=core.regs._regs, _stall=core._stat_mem_stall,
                      _busy=core.stat_busy, _icnt=core.stat_instructions,
                      _note=core._spec_note, _step=core._step,
                      _sim=core.sim, _buckets=core.sim._buckets,
                      _times=core.sim._times, _push=_heappush):
        block_addr = addr & _bmask
        index = (block_addr >> _obits) & _smask
        block = _sets[index].get(block_addr)
        if (block is None or not block.state.readable
                or _l1.access_listener is not None):
            _start_read(addr, po)
            return
        if _mru[index] != block_addr:
            order = _lru[index]
            del order[block_addr]
            order[block_addr] = None
            _mru[index] = block_addr
        _hits.value += 1
        value = block.data[(addr & _wmask) >> 3]
        # Inlined _load_done(value) + _finish(1, pc + 1); the
        # episode is inactive (see above), so journaling is skipped.
        rd = _core._mem_instr.rd
        if rd:  # r0 stays hardwired to zero
            _regs[rd] = value & _WORD_MASK
        now = _sim._now
        _stall.value += now - _core._mem_issued_at
        _busy.value += 1
        _icnt.value += 1
        _core.instructions += 1
        _note()
        _core.pc = _core.pc + 1
        time = now + 1
        b = _buckets.get(time)
        if b is None:
            _buckets[time] = [(_step, (_core.epoch,))]
            _push(_times, time)
        else:
            b.append((_step, (_core.epoch,)))
        _sim._pending += 1

    return load_hit_spec


def _make_load(core: Core, instr: Instruction) -> Callable:
    """Compile one LOAD slot to a closure (``fastpath=True`` builds
    only; the reference build keeps the generic ``_exec_load``).

    The common case -- empty store buffer -- skips
    _exec_load/_exec_load_ordered/_issue_load/L1.read entirely: address
    computation, program-order stamp, issue bookkeeping and the L1
    access's bucket append are one closure body, and the scheduled entry
    dispatches the L1's request-free read specialisation
    (:meth:`L1Cache._start_read`), so a load hit allocates only the
    ``(addr, po)`` args tuple.  A non-empty store buffer (drain
    ordering, store forwarding) delegates to the generic path unchanged.

    Speculation-capable cores (any mode) get the same closure with one
    extra fallback condition: an active episode routes to the generic
    path, which journals, guards and marks the read set.  Loads issued
    while inactive stay inactive through completion (see
    :func:`_make_load_hit`), so the request-free path is exact.
    """
    l1 = core.l1
    if core.spec is not None:
        def exec_load_spec(instr, _regs=core.regs._regs, _rs=instr.rs,
                           _imm=instr.imm, _core=core, _sb=core._sb_entries,
                           _spec=core.spec, _sim=core.sim,
                           _load_hit=core._load_hit_h, _lat=l1._hit_latency,
                           _buckets=core.sim._buckets, _times=core.sim._times,
                           _push=_heappush):
            addr = (_regs[_rs] + _imm) & _WORD_MASK
            po = _core._po = _core._po + 1
            if _sb or _spec.active:
                _core._exec_load_ordered(instr, addr, po)
                return
            _core._mem_instr = instr
            _core._mem_issued_at = _sim._now
            time = _sim._now + _lat
            b = _buckets.get(time)
            if b is None:
                _buckets[time] = [(_load_hit, (addr, po))]
                _push(_times, time)
            else:
                b.append((_load_hit, (addr, po)))
            _sim._pending += 1

        return exec_load_spec

    def exec_load(instr, _regs=core.regs._regs, _rs=instr.rs,
                  _imm=instr.imm, _core=core, _sb=core._sb_entries,
                  _sim=core.sim, _start_read=core._load_hit_h,
                  _lat=l1._hit_latency, _buckets=core.sim._buckets,
                  _times=core.sim._times, _push=_heappush):
        addr = (_regs[_rs] + _imm) & _WORD_MASK
        po = _core._po = _core._po + 1
        if _sb:
            _core._exec_load_ordered(instr, addr, po)
            return
        _core._mem_instr = instr
        _core._mem_issued_at = _sim._now
        # Inlined l1.read(addr, callback=_load_done_h, po=po), with the
        # _Request record elided until a miss (see L1Cache._start_read):
        time = _sim._now + _lat
        b = _buckets.get(time)
        if b is None:
            _buckets[time] = [(_start_read, (addr, po))]
            _push(_times, time)
        else:
            b.append((_start_read, (addr, po)))
        _sim._pending += 1

    return exec_load


#: Iterations one parked relay chain covers before its final entry
#: settles them and re-dispatches the load (which parks again).
SPIN_CHAIN_ITERATIONS = 512


class _SpinShape:
    """One spin loop's iteration, for one concrete branch path.

    A chain's slots repeat ``m`` kinds per iteration, starting at the
    load hit: ``[hit, branch_1 .. branch_k, load]``, with cadence
    ``(1, .., 1, hit_latency)`` between successive slots -- each
    retires in one cycle, and the load's hit lands ``hit_latency``
    after its issue.  Cached per (load, path) on the core.
    """

    __slots__ = ("rd", "hit_latency", "m", "period", "stop", "deltas",
                 "pcs", "fused_blocks", "fused_instructions")

    def __init__(self, load: int, rd: int, path: tuple, hit_latency: int):
        k = len(path)
        self.rd = rd
        self.hit_latency = hit_latency
        self.m = k + 2
        self.period = hit_latency + k + 1
        self.stop = SPIN_CHAIN_ITERATIONS * self.m - 1
        self.deltas = ((1,) * (k + 1) + (hit_latency,)) * SPIN_CHAIN_ITERATIONS
        #: core.pc while slot ``r`` of an iteration is the next to fire
        self.pcs = (load, *(slot for slot, _ in path), load)
        #: fusion counters of an iteration's first ``r`` slots
        self.fused_blocks = tuple(accumulate(
            [0, *(1 if n else 0 for _, n in path)], initial=0))
        self.fused_instructions = tuple(accumulate(
            [0, *(n for _, n in path)], initial=0))

    def totals(self, slots: int) -> tuple:
        """What a chain's first ``slots`` slots did: (load hits,
        instructions retired, fused blocks, fused instructions).  Every
        slot but the load retires one instruction."""
        laps, r = divmod(slots, self.m)
        return (laps + (r > 0), slots - laps,
                laps * self.fused_blocks[-1] + self.fused_blocks[r],
                laps * self.fused_instructions[-1]
                + self.fused_instructions[r])


class _Park:
    """A parked core's live chain and what settling it needs."""

    __slots__ = ("shape", "relay", "final", "issued_at", "addr", "word",
                 "po", "settled")

    def __init__(self, shape: _SpinShape, relay: tuple, final: tuple,
                 issued_at: int, addr: int, word: int, po: int):
        self.shape = shape
        self.relay = relay
        self.final = final
        self.issued_at = issued_at  # cycle the parking load issued
        self.addr = addr
        self.word = word
        self.po = po  # program-order index of the parking load
        self.settled = 0  # chain slots charged so far

    def slot_time(self, slot: int) -> int:
        """The cycle chain slot ``slot`` fires at."""
        shape = self.shape
        laps, offset = divmod(slot, shape.m)
        return (self.issued_at + shape.hit_latency + laps * shape.period
                + offset)


def _make_spin_load(core: Core, instr: Instruction, index: int) -> Callable:
    """Compile one spin-loop LOAD slot (see :func:`_make_load`).

    Identical issue work, then :meth:`Core._park_entry` picks what to
    append at the hit cycle: a relay chain when the core parks, else
    the plain load-hit entry.  Installed only on slots
    :func:`~repro.isa.interpreter.spin_loops` names, on the fast-path
    engine, outside CONTINUOUS speculation.
    """
    def exec_spin_load(instr, _regs=core.regs._regs, _rs=instr.rs,
                       _imm=instr.imm, _core=core, _sb=core._sb_entries,
                       _spec=core.spec, _sim=core.sim,
                       _park=core._park_entry, _load=index,
                       _lat=core.l1._hit_latency, _buckets=core.sim._buckets,
                       _times=core.sim._times, _push=_heappush):
        addr = (_regs[_rs] + _imm) & _WORD_MASK
        po = _core._po = _core._po + 1
        if _sb or (_spec is not None and _spec.active):
            _core._exec_load_ordered(instr, addr, po)
            return
        now = _sim._now
        _core._mem_instr = instr
        _core._mem_issued_at = now
        entry = _park(_load, instr, addr, po, now)
        time = now + _lat
        b = _buckets.get(time)
        if b is None:
            _buckets[time] = [entry]
            _push(_times, time)
        else:
            b.append(entry)
        _sim._pending += 1

    return exec_spin_load


#: Generated superblock source -> compiled ``_superblock`` code object.
#: Keyed by source text, which names only parameters and so depends on
#: the span's shape alone (see :func:`_make_superblock`).
_SUPERBLOCK_CODE: dict = {}


def _make_superblock(core: Core, span: SuperblockSpan,
                     decoded: list) -> Callable:
    """Trace-compile one superblock span into a single fused closure.

    The span's register work is code-generated into straight-line
    Python with the exact single-source semantics of
    ``repro.isa.semantics`` inlined per opcode (64-bit masking, the
    XOR-sign-bit trick for signed compares), so N instructions execute
    their ALU work, branch decisions, and pc update in ONE head event
    with no per-instruction dispatch.  Conditional branches inside the
    span become early exits: each exit point gets its own epilogue with
    the executed-prefix instruction count, summed busy cycles, and exit
    pc bound as constants.

    Every per-span value (register indices, immediates, exit pcs,
    counts, latencies, the fallback evaluator) is a bound default
    parameter ``_k0, _k1, ...`` rather than a literal, so the generated
    source depends only on the span's *shape* and is compiled once per
    process (:data:`_SUPERBLOCK_CODE`).  Each span gets its own function
    object built from the shared code with ``types.FunctionType`` --
    no per-span ``exec`` or namespace, so no cached object holds a
    reference to any span's core or simulator.

    What the head does NOT collapse is the span's event cadence.  Every
    bucket append happens at a definite moment, and that moment fixes
    the entry's FIFO position among same-cycle events -- which decides
    crossbar arbitration and same-cycle hit/miss races downstream, and
    is therefore part of the simulated semantics.  So each exit
    schedules a *relay chain* (see :meth:`Simulator.make_relay`): one
    zero-work engine-level entry per elided instruction, each appended
    exactly when the per-instruction engine would have appended that
    instruction's event, with the span's successor appended by the last
    relay.  Event counts and all bucket positions are bit-identical to
    the unfused engine; only the Python work per event changes.

    Speculation-capable cores get a guard: while an episode is active
    the closure falls back to the span head's per-instruction closure
    (captured before the overlay), because active-episode execution
    must journal register undo entries for rollback.  A span can never
    *start* mid-episode: entry into speculation happens only at
    memory/fence slots, which are always outside spans.  While idle,
    the only speculation state the span touches is the
    conservative-window countdown, batch-decremented by the executed
    count -- arithmetically identical to N ``note_instruction`` calls.

    Only built with ``fastpath=True`` (callers guarantee it).
    """
    assert core.sim.fastpath, "superblocks require the fast-path engine"
    instructions = core.program.instructions
    start, stop = span.start, span.stop
    spec = core.spec
    alu_latency = core._alu_latency

    M = semantics.WORD_MASK
    S = semantics.SIGN_BIT
    _SIGNED_MIN, _SIGNED_MAX = -(1 << 63), (1 << 63) - 1

    consts = []

    def const(value) -> str:
        """Bind one per-span value as the next ``_k<i>`` parameter."""
        consts.append(value)
        return f"_k{len(consts) - 1}"

    # Per-slot latencies drive the relay cadence; deltas[k - start] is
    # the cycle count between slot k's event and its successor's.
    deltas = []
    for k in range(start, stop):
        op = instructions[k].op
        if op in _BRANCHES or op is Opcode.NOP:
            deltas.append(1)  # branches and NOPs always retire in 1
        elif op is Opcode.EXEC:
            deltas.append(instructions[k].imm)
        else:
            deltas.append(alu_latency)
    relay = Simulator.make_relay(deltas)
    payload = relay[1]

    bindings = {
        "_r": core.regs._regs,
        "_busy": core.stat_busy,
        "_icnt": core.stat_instructions,
        "_core": core,
        "_sim": core.sim,
        "_buckets": core.sim._buckets,
        "_times": core.sim._times,
        "_push": _heappush,
        "_pl": payload,
        "_relay": relay,
        "_M": M,
        "_S": S,
    }
    if spec is not None:
        bindings["_spec"] = spec
        bindings["_plain"] = decoded[start][0]
        bindings["_step"] = core._step
    else:
        # Successor entries are the core's prebuilt (handler, (instr,))
        # tuples -- the list object is captured now and filled after the
        # decode/overlay pass completes (see Core.__init__).
        bindings["_entries"] = core._entries

    def alu_stmt(instr, indent: str):
        """One inlined register-update statement (exact semantics)."""
        op = instr.op
        if op is Opcode.NOP or instr.rd == 0:
            return None  # pure ops with discarded results emit nothing
        dst = f"{indent}_r[{const(instr.rd)}] ="
        if op is Opcode.LI:
            return f"{dst} {const(instr.imm & M)}"
        if op is Opcode.EXEC:
            return f"{dst} 0"
        rs = f"_r[{const(instr.rs)}]"
        if op is Opcode.MOV:
            return f"{dst} {rs}"
        if op is Opcode.ADDI:
            return f"{dst} ({rs} + {const(instr.imm)}) & _M"
        if op is Opcode.SLTI and _SIGNED_MIN <= instr.imm <= _SIGNED_MAX:
            return f"{dst} 1 if ({rs} ^ _S) < {const((instr.imm & M) ^ S)} else 0"
        rt = f"_r[{const(instr.rt)}]"
        if op is Opcode.ADD:
            return f"{dst} ({rs} + {rt}) & _M"
        if op is Opcode.SUB:
            return f"{dst} ({rs} - {rt}) & _M"
        if op is Opcode.MUL:
            return f"{dst} ({rs} * {rt}) & _M"
        if op is Opcode.AND:
            return f"{dst} {rs} & {rt}"
        if op is Opcode.OR:
            return f"{dst} {rs} | {rt}"
        if op is Opcode.XOR:
            return f"{dst} {rs} ^ {rt}"
        if op is Opcode.SLT:
            return f"{dst} 1 if ({rs} ^ _S) < ({rt} ^ _S) else 0"
        # Fallback: evaluate through the shared semantics table.
        return f"{dst} {const(semantics._ALU_EVAL[op])}({const(instr)}, {rs}, {rt})"

    def cond_expr(instr):
        """The branch-taken condition (exact semantics, inlined)."""
        op = instr.op
        rs, rt = f"_r[{const(instr.rs)}]", f"_r[{const(instr.rt)}]"
        if op is Opcode.BEQ:
            return f"{rs} == {rt}"
        if op is Opcode.BNE:
            return f"{rs} != {rt}"
        if op is Opcode.BLT:
            return f"({rs} ^ _S) < ({rt} ^ _S)"
        if op is Opcode.BGE:
            return f"({rs} ^ _S) >= ({rt} ^ _S)"
        raise SimulationError(f"unexpected branch opcode {op}")

    def exit_lines(pc: int, n_exec: int, lat: int, indent: str,
                   is_last: bool):
        """The epilogue for one exit point: stats, pc, relay schedule.

        Every quantity is an exit-point constant, so the per-instruction
        sums the unfused engine would have accumulated are charged as
        single constant adds.
        """
        n = const(n_exec)
        out = [
            f"{indent}_busy.value += {const(lat)}",
            f"{indent}_icnt.value += {n}",
            f"{indent}_core.instructions += {n}",
            f"{indent}_core.fused_instructions += {n}",
            f"{indent}_core.fused_blocks += 1",
        ]
        if spec is not None:
            # Batched note_instruction(): idle episodes only tick the
            # conservative-window countdown.
            out += [
                f"{indent}_rem = _spec._conservative_remaining",
                f"{indent}if _rem > 0:",
                f"{indent}    _spec._conservative_remaining = "
                f"_rem - {n} if _rem > {n} else 0",
            ]
        pc_name = const(pc)
        out.append(f"{indent}_core.pc = {pc_name}")
        successor = ("(_step, (_core.epoch,))" if spec is not None
                     else f"_entries[{pc_name}]")
        if n_exec == 1:
            # Nothing elided: the head's schedule IS the successor
            # append, at the same moment as the unfused instruction's.
            out.append(f"{indent}_item = {successor}")
        else:
            out += [
                f"{indent}_pl[1] = 1",
                f"{indent}_pl[2] = {n}",
                f"{indent}_pl[3] = {successor}",
                f"{indent}_item = _relay",
            ]
        out += [
            f"{indent}_t = _sim._now + {const(deltas[0])}",
            f"{indent}_b = _buckets.get(_t)",
            f"{indent}if _b is None:",
            f"{indent}    _buckets[_t] = [_item]",
            f"{indent}    _push(_times, _t)",
            f"{indent}else:",
            f"{indent}    _b.append(_item)",
            f"{indent}_sim._pending += 1",
        ]
        if not is_last:
            out.append(f"{indent}return")
        return out

    lines = []
    if spec is not None:
        lines += [
            "    if _spec.active:",
            "        _plain(instr)",
            "        return",
        ]
    cum = 0
    count = 0
    terminated = False
    for k in range(start, stop):
        instr = instructions[k]
        op = instr.op
        cum += deltas[k - start]
        count += 1
        if op in _BRANCHES:
            if op is Opcode.JMP:
                # Unconditional: the span ends here (detector guarantees
                # this is the final slot).
                lines += exit_lines(instr.target, count, cum, "    ",
                                    is_last=True)
                terminated = True
                break
            lines.append(f"    if {cond_expr(instr)}:")
            last = (k == stop - 1)
            lines += exit_lines(instr.target, count, cum, "        ",
                                is_last=False)
            if last:
                lines += exit_lines(stop, count, cum, "    ",
                                    is_last=True)
                terminated = True
        else:
            stmt = alu_stmt(instr, "    ")
            if stmt is not None:
                lines.append(stmt)
    if not terminated:
        lines += exit_lines(stop, count, cum, "    ", is_last=True)

    params = ", ".join([*bindings, *(f"_k{i}" for i in range(len(consts)))])
    source = (f"def _superblock(instr, {params}):\n"
              + "\n".join(lines) + "\n")
    code = _SUPERBLOCK_CODE.get(source)
    if code is None:
        module = compile(source, "<superblock>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        _SUPERBLOCK_CODE[source] = code
    fused = FunctionType(code, globals(), "_superblock",
                         (*bindings.values(), *consts))
    fused.__qualname__ = f"superblock core{core.core_id}@{start}"
    return fused


_DISPATCH: Optional[dict] = None


def _exec_dispatch() -> dict:
    """Opcode -> unbound exec handler, built once per process.

    Cores bind these to themselves at program load (see ``_decoded``),
    replacing the per-instruction elif chain over Opcode-class
    properties with a single tuple index.
    """
    global _DISPATCH
    if _DISPATCH is None:
        table = {}
        for op in Opcode:
            if op in _ALU or op in _BRANCHES:
                continue  # specialised to closures in Core._decode_program
            if op is Opcode.LOAD:
                table[op] = Core._exec_load
            elif op is Opcode.STORE:
                table[op] = Core._exec_store
            elif op in _ATOMICS:
                table[op] = Core._exec_atomic
            elif op is Opcode.FENCE:
                table[op] = Core._exec_fence
            elif op is Opcode.NOP:
                table[op] = Core._exec_nop
            elif op is Opcode.HALT:
                table[op] = Core._exec_halt
            else:  # pragma: no cover - new opcodes must be classified here
                raise SimulationError(f"no exec handler for opcode {op.name}")
        _DISPATCH = table
    return _DISPATCH


# ------------------------------------------------------------ node faults


def _nf_drain_frozen(self: "Core") -> None:
    """Instance shadow for ``_maybe_drain`` on a crashed core.

    The store buffer froze at the crash: whatever had not drained yet is
    lost, exactly the lost-update window a fail-stop node exposes.
    """


def _make_node_guard(core: "Core", inner: Callable) -> Callable:
    """Wrap one decoded handler with the crash/pause dispatch gate.

    The guard fires at dispatch time, i.e. at the instruction boundary:
    a crashed core drops the dispatch forever, a paused core stashes it
    (an in-order core has at most one next-instruction dispatch
    outstanding) for :meth:`Core.nf_resume` to replay.  Live cores pay
    one attribute read and fall straight through to the original
    closure.
    """

    def dispatch(instr, _inner=inner, _core=core):
        state = _core.nf_state
        if state:
            if state == 1:
                stash = _core._nf_stash
                if stash is not None and stash[2] == _core.epoch:
                    raise SimulationError(
                        f"core {_core.core_id}: second dispatch while "
                        "paused (in-order cores defer at most one)")
                _core._nf_stash = (_inner, instr, _core.epoch)
                stat = _core._nf_stat_deferred
                if stat is not None:
                    stat.value += 1
            return
        _inner(instr)

    return dispatch
