"""Private L1 data-cache controller (MESI, directory-mediated).

Besides ordinary MESI duties -- serving core reads/writes/RMWs, miss
handling with MSHRs, evictions through a writeback buffer -- this
controller implements the L1 side of InvisiFence:

* speculative accesses set per-block SR (speculatively-read) / SW
  (speculatively-written) bits;
* the first speculative write to a dirty block *cleans* it first
  (``WB_CLEAN`` pushes the pre-speculation data to the L2 copy), so a
  later rollback can discard the block outright;
* incoming invalidations that hit SR/SW blocks, incoming downgrades
  that hit SW blocks, and evictions of SR/SW blocks raise a
  **violation** through ``violation_listener`` (synchronously cleaning
  the L1's speculative state before any data is surrendered);
* :meth:`commit_speculation` flash-clears all SR/SW bits;
  :meth:`rollback_speculation` discards SW blocks (relinquishing
  ownership to the directory) and clears SR bits.

Requests carry an optional ``guard`` predicate evaluated at apply time;
the core uses it to neutralise in-flight requests squashed by a
rollback.
"""

from __future__ import annotations

import enum
from heapq import heappush as _heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.cache import CacheArray, CacheBlock, CacheState
from repro.coherence.messages import Message, MessageType
from repro.sim.config import (
    CacheConfig,
    RollbackStrategy,
    SpeculationConfig,
    ViolationGranularity,
)
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import StatsRegistry

Guard = Callable[[], bool]
ModifyFn = Callable[[int], Tuple[int, Optional[int]]]

_GET_S = MessageType.GET_S
_GET_M = MessageType.GET_M
_PUT_S = MessageType.PUT_S
_PUT_E = MessageType.PUT_E
_PUT_M = MessageType.PUT_M
_WB_CLEAN = MessageType.WB_CLEAN
_WB_WORD = MessageType.WB_WORD
_INV_ACK = MessageType.INV_ACK
_DOWNGRADE_ACK = MessageType.DOWNGRADE_ACK

#: Cache state granted by each data-response type (prebuilt: the per-call
#: dict literal in the fill path was measurable).
_GRANTED = {
    MessageType.DATA_S: CacheState.SHARED,
    MessageType.DATA_E: CacheState.EXCLUSIVE,
    MessageType.DATA_M: CacheState.MODIFIED,
}


def _identity(data):
    return data


class ViolationReason(enum.Enum):
    """Why a speculation was aborted (reported to the core)."""

    EXTERNAL_INVALIDATION = "external-invalidation"
    EXTERNAL_DOWNGRADE = "external-downgrade"
    CAPACITY_EVICTION = "capacity-eviction"
    VICTIM_BUFFER_OVERFLOW = "victim-buffer-overflow"


class _Kind(enum.Enum):
    READ = enum.auto()
    WRITE = enum.auto()
    RMW = enum.auto()
    PREFETCH_W = enum.auto()  #: acquire write permission, apply nothing


class _Request:
    """A core-side access waiting inside the L1 (possibly in an MSHR)."""

    __slots__ = ("kind", "addr", "value", "modify", "callback", "guard", "_spec", "po")

    def __init__(self, kind: _Kind, addr: int, value: Optional[int], modify: Optional[ModifyFn],
                 callback: Callable, guard: Optional[Guard], speculative,
                 po: int = -1):
        self.kind = kind
        self.addr = addr
        self.value = value
        self.modify = modify
        self.callback = callback
        self.guard = guard
        self._spec = speculative
        self.po = po

    @property
    def speculative(self) -> bool:
        """Evaluated lazily: the flag may change while the request waits."""
        return self._spec() if callable(self._spec) else bool(self._spec)

    @property
    def needs_write(self) -> bool:
        return self.kind is not _Kind.READ


class _Mshr:
    """Miss status for one block: transient state + queued requests."""

    __slots__ = ("block_addr", "want_m", "has_s_copy", "waiters")

    def __init__(self, block_addr: int, want_m: bool, has_s_copy: bool):
        self.block_addr = block_addr
        self.want_m = want_m
        self.has_s_copy = has_s_copy  # True for the SM upgrade transient
        self.waiters: List[_Request] = []


class _WbEntry:
    """A block evicted from the array, awaiting the directory's PUT_ACK."""

    __slots__ = ("data", "dirty", "surrendered")

    def __init__(self, data: Optional[List[int]], dirty: bool):
        self.data = data
        self.dirty = dirty
        self.surrendered = False  # data already handed over via INV_ACK/DOWNGRADE


class L1Cache:
    """One core's private L1 data cache + MESI controller."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: CacheConfig,
        spec_config: SpeculationConfig,
        interconnect,
        directory_id: int,
        stats: StatsRegistry,
        copy_blocks: bool = False,
        home_map=None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.spec_config = spec_config
        self.net = interconnect
        self.directory_id = directory_id
        # block addr -> directory home node.  With one home (or no map)
        # this is a constant closure on directory_id, preserving the
        # historical behaviour exactly; with n_homes > 1 it routes
        # through the shared consistent-hash ring (repro.coherence
        # .homemap).  Only directory-bound sends consult it -- the hit
        # fast path never does.
        if home_map is None or home_map.n_homes == 1:
            self._home_of = lambda addr, _d=directory_id: _d
        else:
            self._home_of = home_map.node_id
        self.array = CacheArray(config)
        self._mshrs: Dict[int, _Mshr] = {}
        self._wb: Dict[int, _WbEntry] = {}
        self._reserved: Dict[int, int] = {}
        # Victim buffer for the VICTIM_BUFFER rollback strategy: block -> saved data.
        self._victim_buffer: Dict[int, List[int]] = {}
        # Speculatively forwarded loads whose block is not resident yet:
        # block_addr -> word indices read.  The SR bit lands when the
        # forwarded-from store's drain (or any other access) fills the
        # block -- guaranteed before commit, which waits for the store
        # buffer to empty.  See note_speculative_forward.
        self._pending_spec_reads: Dict[int, set] = {}
        # Registry of blocks carrying SR/SW bits, so commit and footprint
        # queries touch only the speculative set instead of scanning the
        # whole array.  Rollback still walks the array (its relinquish
        # messages must keep array iteration order -- see
        # rollback_speculation).
        self._spec_blocks: Dict[int, CacheBlock] = {}
        # Copy-elision debug mode: ``_take`` re-copies payloads whose
        # ownership the fast path transfers (dead senders only), proving
        # the elision creates no live aliases.
        self._take = list if copy_blocks else _identity
        #: set by the core/speculation controller; called as listener(reason, block_addr)
        self.violation_listener: Optional[Callable[[ViolationReason, int], None]] = None
        #: optional execution recorder hooks (see repro.verification):
        #: access_listener(kind, addr, value, written, speculative, po) fires
        #: at L1 apply time; forward_listener(addr, value, speculative, po)
        #: fires for store-buffer-forwarded loads (which never reach the L1);
        #: fence_listener(kind, po, speculative) records retired fences so
        #: the ordering checker can place them in the program-order stream.
        self.access_listener: Optional[Callable] = None
        self.forward_listener: Optional[Callable] = None
        self.fence_listener: Optional[Callable] = None
        #: set by the owning core while it is parked on a spin loop
        #: (see Core._park_entry): called before any message is handled,
        #: since only a message can change the block the core spins on.
        self.wake_listener: Optional[Callable[[], None]] = None

        prefix = f"l1.{node_id}"
        self.stat_hits = stats.counter(f"{prefix}.hits")
        self.stat_misses = stats.counter(f"{prefix}.misses")
        self.stat_evictions = stats.counter(f"{prefix}.evictions")
        self.stat_writebacks = stats.counter(f"{prefix}.writebacks")
        self.stat_clean_before_write = stats.counter(f"{prefix}.clean_before_write")
        self.stat_inv_received = stats.counter(f"{prefix}.invalidations_received")
        self.stat_downgrades = stats.counter(f"{prefix}.downgrades_received")
        self.stat_spec_relinquish = stats.counter(f"{prefix}.spec_relinquish")
        self.stat_sm_demotions = stats.counter(f"{prefix}.sm_demotions")
        self.stat_wb_surrenders = stats.counter(f"{prefix}.wb_surrenders")
        self.stat_committed_writethrough = stats.counter(
            f"{prefix}.committed_writethroughs")

        # Hot-path caches: core-side accesses are never cancelled (guards
        # neutralise squashed requests), so they ride the fast path.
        self._schedule_fast = sim.schedule_fast
        self._hit_latency = config.hit_latency
        self._block_mask = ~(config.block_bytes - 1)
        self._word_mask = config.block_bytes - 1
        self._offset_bits = config.offset_bits
        self._set_mask = config.n_sets - 1
        self._lookup = self.array.lookup
        self._receive_handlers = {
            MessageType.DATA_S: self._on_data,
            MessageType.DATA_E: self._on_data,
            MessageType.DATA_M: self._on_data,
            MessageType.INV: self._on_inv,
            MessageType.FWD_GET_S: self._on_fwd_get_s,
            MessageType.PUT_ACK: self._on_put_ack,
        }
        # Fault hardening (armed by enable_fault_hardening; see repro.faults).
        self._retry_plan = None
        self._seen_uids: Optional[set] = None
        # The core-facing access methods inline the schedule_fast body
        # (a calendar-bucket append) of this entry handler.
        self._start_h = self._start
        # Specialised non-speculative read path: the owning core (the
        # L1 is private, 1:1) installs its load-completion callback here
        # and schedules (self._start_read_h, (addr, po)) entries
        # directly -- no _Request allocation and no keyword-argument
        # call on the dominant event class (see _start_read).
        self._read_callback: Optional[Callable[[int], None]] = None
        self._start_read_h = self._start_read

    # ------------------------------------------------------------ core API

    def read(self, addr: int, callback: Callable[[int], None],
             guard: Optional[Guard] = None, speculative: bool = False,
             po: int = -1) -> None:
        """Read the word at ``addr``; ``callback(value)`` fires when done."""
        req = _Request(_Kind.READ, addr, None, None, callback, guard, speculative, po)
        # Inlined self._schedule_fast(self._hit_latency, self._start, req):
        sim = self.sim
        time = sim._now + self._hit_latency
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._start_h, (req,))]
            _heappush(sim._times, time)
        else:
            bucket.append((self._start_h, (req,)))
        sim._pending += 1

    def write(self, addr: int, value: int, callback: Callable[[], None],
              guard: Optional[Guard] = None, speculative: bool = False,
              po: int = -1) -> None:
        """Write ``value`` to the word at ``addr``; ``callback()`` fires
        once the store is globally performed (block in M, write applied)."""
        req = _Request(_Kind.WRITE, addr, value, None, callback, guard, speculative, po)
        sim = self.sim
        time = sim._now + self._hit_latency
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._start_h, (req,))]
            _heappush(sim._times, time)
        else:
            bucket.append((self._start_h, (req,)))
        sim._pending += 1

    def rmw(self, addr: int, modify: ModifyFn, callback: Callable[[int], None],
            guard: Optional[Guard] = None, speculative: bool = False,
            po: int = -1) -> None:
        """Atomic read-modify-write.  ``modify(old) -> (loaded, new|None)``
        runs once write permission is held; ``callback(loaded)`` fires on
        completion."""
        req = _Request(_Kind.RMW, addr, None, modify, callback, guard, speculative, po)
        sim = self.sim
        time = sim._now + self._hit_latency
        buckets = sim._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(self._start_h, (req,))]
            _heappush(sim._times, time)
        else:
            bucket.append((self._start_h, (req,)))
        sim._pending += 1

    def prefetch_write(self, addr: int) -> None:
        """Begin acquiring write permission for ``addr`` without writing.

        Used by the store-buffer drain engine to overlap the coherence
        transactions of queued stores (exclusive prefetching), exactly
        as aggressive write buffers do; *visibility* order is still
        enforced by applying the writes strictly in FIFO order.
        No-op if the block is already writable or a miss is pending.
        """
        block_addr = self.config.block_of(addr)
        block = self.array.lookup(block_addr, touch=False)
        if block is not None and block.state.writable:
            return
        if block_addr in self._mshrs:
            return  # a miss is already in flight for this block
        req = _Request(_Kind.PREFETCH_W, addr, None, None,
                       lambda *a: None, None, False)
        self._schedule_fast(self._hit_latency, self._start, req)

    # -------------------------------------------------------- access logic

    def _start_read(self, addr: int, po: int) -> None:
        """:meth:`_start` specialised for a non-speculative read.

        Semantically identical to ``_start`` on a ``_Request(READ,
        guard=None, speculative=False)`` -- same single (LRU-touching)
        lookup, same stat bumps, same callback timing -- but the request
        record only materialises on the miss path, so the dominant event
        class (spin-loop load hits) allocates nothing.
        """
        block = self._lookup(addr & self._block_mask)
        if block is not None:
            if block.state.readable:
                self.stat_hits.value += 1
                value = block.data[(addr & self._word_mask) >> 3]
                if self.access_listener is not None:
                    self._record_read_fast(addr, value, po)
                self._read_callback(value)
                return
            raise SimulationError(
                f"L1 {self.node_id}: unexpected state {block.state}")
        self.stat_misses.value += 1
        block_addr = addr & self._block_mask
        req = _Request(_Kind.READ, addr, None, None, self._read_callback,
                       None, False, po)
        self._miss(block_addr, req, has_s_copy=False)

    def _record_read_fast(self, addr: int, value: int, po: int) -> None:
        from repro.verification.recorder import AccessKind
        self.access_listener(AccessKind.READ, addr, value, None, False, po)

    def _start(self, req: _Request) -> None:
        if req.guard is not None and not req.guard():
            return  # squashed by a rollback while queued
        block_addr = req.addr & self._block_mask
        block = self._lookup(block_addr)
        if block is not None:
            if req.kind is _Kind.READ and block.state.readable:
                self.stat_hits.value += 1
                # Inlined _apply's read branch (the dominant access):
                # the guard was evaluated on entry this same cycle, so
                # _apply's re-check is redundant from here.
                word = (req.addr & self._word_mask) >> 3
                spec = req._spec
                speculative = spec if spec.__class__ is bool else spec()
                if speculative:
                    block.spec_read = True
                    block.spec_read_words.add(word)
                    self._spec_blocks[block.addr] = block
                value = block.data[word]
                if self.access_listener is not None:
                    self._record(req, value, None, speculative)
                req.callback(value)
                return
            if req.needs_write and block.state.writable:
                self.stat_hits.value += 1
                self._apply(req, block)
                return
            if req.needs_write and block.state is CacheState.SHARED:
                # S -> M upgrade.
                self.stat_misses.value += 1
                self._miss(block_addr, req, has_s_copy=True)
                return
            raise SimulationError(f"L1 {self.node_id}: unexpected state {block.state}")
        self.stat_misses.value += 1
        self._miss(block_addr, req, has_s_copy=False)

    def _apply(self, req: _Request, block: CacheBlock) -> None:
        """Perform a request against a block with sufficient permission."""
        if req.guard is not None and not req.guard():
            return
        if req.kind is _Kind.PREFETCH_W:
            return  # permission acquired; the drain write applies later
        word = (req.addr & self._word_mask) >> 3
        # Inlined _Request.speculative: this flag is re-read per apply.
        # (bool-class test instead of callable(): the flag is either a
        # plain bool or a zero-arg closure, and the builtin call costs.)
        spec = req._spec
        speculative = spec if spec.__class__ is bool else spec()
        if req.kind is _Kind.READ:
            if speculative:
                block.spec_read = True
                block.spec_read_words.add(word)
                self._spec_blocks[block.addr] = block
            value = block.data[word]
            if self.access_listener is not None:
                self._record(req, value, None, speculative)
            req.callback(value)
            return
        # WRITE or RMW: E silently upgrades to M.
        if block.state is CacheState.EXCLUSIVE:
            block.state = CacheState.MODIFIED
        if req.kind is _Kind.WRITE:
            if self._write_word(block, word, req.value, speculative):
                if self.access_listener is not None:
                    self._record(req, req.value, None, speculative)
                req.callback()
            return
        # RMW reads then conditionally writes, atomically (we hold M).
        old = block.data[word]
        loaded, new_value = req.modify(old)
        if new_value is not None:
            if not self._write_word(block, word, new_value, speculative):
                return  # aborted by victim-buffer overflow; will re-execute
        if speculative:
            block.spec_read = True
            block.spec_read_words.add(word)
            self._spec_blocks[block.addr] = block
        if self.access_listener is not None:
            self._record(req, loaded, new_value, speculative)
        req.callback(loaded)

    def _record(self, req: _Request, value: int, written, speculative: bool) -> None:
        if self.access_listener is None:
            return
        from repro.verification.recorder import AccessKind
        kind = {_Kind.READ: AccessKind.READ, _Kind.WRITE: AccessKind.WRITE,
                _Kind.RMW: AccessKind.RMW}[req.kind]
        self.access_listener(kind, req.addr, value, written, speculative, req.po)

    def _write_word(self, block: CacheBlock, word: int, value: int, speculative: bool) -> bool:
        """Apply one word write; returns False if the write was aborted
        because preparing the block for speculation raised a violation."""
        if speculative and not block.spec_written:
            if not self._prepare_first_speculative_write(block):
                return False
        if not speculative and block.spec_written:
            # A *committed* store (an older buffered entry draining while
            # the core speculates) landing on a speculatively written
            # block: a later rollback discards the whole block, so the
            # committed word must be preserved in the rollback image --
            # write it through to the L2 copy (clean-before-write) or
            # patch the saved copy (victim buffer).  A speculative RMW
            # overtaking older buffered stores is what creates this case.
            saved = self._victim_buffer.get(block.addr)
            if saved is not None:
                saved[word] = value
            else:
                self.stat_committed_writethrough.value += 1
                self.net.send(self.node_id, self._home_of(block.addr),
                              Message(_WB_WORD, block.addr,
                                      self.node_id, data=[value],
                                      word_addr=block.addr + 8 * word))
        block.data[word] = value
        block.dirty = True
        if speculative:
            block.spec_written = True
            block.spec_written_words.add(word)
            self._spec_blocks[block.addr] = block
        return True

    def _prepare_first_speculative_write(self, block: CacheBlock) -> bool:
        """Make the block recoverable before its first speculative write.

        Returns False when a victim-buffer overflow aborted the
        speculation (the write must then be dropped; the triggering
        instruction re-executes after the core's rollback).
        """
        strategy = self.spec_config.rollback_strategy
        if strategy is RollbackStrategy.VICTIM_BUFFER:
            if len(self._victim_buffer) >= self.spec_config.victim_buffer_entries:
                self._violation(ViolationReason.VICTIM_BUFFER_OVERFLOW, block.addr,
                                exclude=None)
                return False
            self._victim_buffer[block.addr] = list(block.data)
            return True
        # CLEAN_BEFORE_WRITE: push the pre-speculation data to the L2 copy so
        # rollback can simply invalidate this block.
        if block.dirty:
            self.stat_clean_before_write.value += 1
            self.net.send(self.node_id, self._home_of(block.addr),
                          Message(_WB_CLEAN, block.addr, self.node_id,
                                  data=list(block.data)))
            block.dirty = False
        return True

    # --------------------------------------------------------- miss path

    def _miss(self, block_addr: int, req: _Request, has_s_copy: bool) -> None:
        mshr = self._mshrs.get(block_addr)
        if mshr is not None:
            mshr.waiters.append(req)
            if req.needs_write and not mshr.want_m:
                # Escalate: when the GetS data arrives in S we will issue GetM.
                mshr.want_m = True
            return
        if not has_s_copy:
            self._reserve_way(block_addr)
        mshr = _Mshr(block_addr, want_m=req.needs_write, has_s_copy=has_s_copy)
        mshr.waiters.append(req)
        self._mshrs[block_addr] = mshr
        mtype = _GET_M if req.needs_write else _GET_S
        self.net.send(self.node_id, self._home_of(block_addr),
                      Message(mtype, block_addr, self.node_id, word_addr=req.addr))

    def _reserve_way(self, block_addr: int) -> None:
        """Free (and reserve) a way in the target set for an incoming fill.

        Ways already reserved by other outstanding fills count as
        occupied, so a resident block may be evicted even when the set
        is not nominally full.
        """
        index = (block_addr >> self._offset_bits) & self._set_mask
        reserved = self._reserved.get(index, 0)
        while self.array.set_occupancy(block_addr) + reserved >= self.config.assoc:
            victim = self.array.lru_block(block_addr)
            if victim is None:
                raise SimulationError(
                    f"L1 {self.node_id}: set {index} oversubscribed "
                    f"(assoc={self.config.assoc} too small for outstanding misses)"
                )
            self._evict(victim)
        self._reserved[index] = reserved + 1

    def _evict(self, victim: CacheBlock) -> None:
        """Evict ``victim`` (raising a violation first if it is speculative)."""
        if victim.speculative:
            self._violation(ViolationReason.CAPACITY_EVICTION, victim.addr, exclude=None)
            # rollback_speculation() ran inside _violation; the victim may be
            # gone now (it was SW).  If it survived (SR-only), evict normally.
            if self.array.lookup(victim.addr, touch=False) is None:
                return
        self.stat_evictions.value += 1
        self.array.remove(victim.addr)
        if victim.state is CacheState.SHARED:
            self._wb[victim.addr] = _WbEntry(None, dirty=False)
            self.net.send(self.node_id, self._home_of(victim.addr),
                          Message(_PUT_S, victim.addr, self.node_id))
        elif victim.dirty:
            self.stat_writebacks.value += 1
            # The victim dies here: the writeback entry and the PUT_M may
            # share its word list (both readers, never writers).  Debug
            # mode keeps the two historical copies.
            self._wb[victim.addr] = _WbEntry(self._take(victim.data), dirty=True)
            self.net.send(self.node_id, self._home_of(victim.addr),
                          Message(_PUT_M, victim.addr, self.node_id,
                                  data=self._take(victim.data)))
        else:
            # Clean E (or M cleaned by clean-before-write): L2 copy is current.
            self._wb[victim.addr] = _WbEntry(None, dirty=False)
            self.net.send(self.node_id, self._home_of(victim.addr),
                          Message(_PUT_E, victim.addr, self.node_id))
        self._victim_buffer.pop(victim.addr, None)

    # ------------------------------------------------- network message side

    def receive(self, msg: Message) -> None:
        if self.wake_listener is not None:
            self.wake_listener()
        handler = self._receive_handlers.get(msg.mtype)
        if handler is None:
            raise SimulationError(f"L1 {self.node_id}: unexpected message {msg}")
        handler(msg)

    # -------------------------------------------- fault hardening (opt-in)

    def enable_fault_hardening(self, plan, stats: StatsRegistry) -> None:
        """Arm duplicate suppression and NACK-driven retries.

        Installed only when a :class:`repro.faults.FaultPlan` is active.
        The retry/dedup counters are created lazily *here* so fault-free
        runs keep their stats snapshots -- and hence their result
        fingerprints -- byte-identical to before the fault subsystem
        existed.  The hardened receive path shadows the plain one via an
        instance attribute, keeping the fault-free hot path untouched.
        """
        prefix = f"l1.{self.node_id}"
        self._retry_plan = plan
        self._seen_uids = set()
        self._wb_blocked: Dict[int, List] = {}
        self.stat_nacks = stats.counter(f"{prefix}.nacks_received")
        self.stat_retries = stats.counter(f"{prefix}.retries")
        self.stat_dups_suppressed = stats.counter(f"{prefix}.dups_suppressed")
        self._receive_handlers[MessageType.NACK] = self._on_nack
        self._receive_handlers[MessageType.PUT_ACK] = self._on_put_ack_hardened
        self.receive = self._receive_hardened  # type: ignore[method-assign]
        self._miss = self._miss_hardened  # type: ignore[method-assign]

    def _receive_hardened(self, msg: Message) -> None:
        """receive() with duplicate suppression (fault-injection runs).

        Injected duplicates share the original's uid, so filtering on
        uid drops exactly the injected copies; retries carry fresh uids
        and pass through.
        """
        if self.wake_listener is not None:
            self.wake_listener()
        seen = self._seen_uids
        if msg.uid in seen:
            self.stat_dups_suppressed.value += 1
            return
        seen.add(msg.uid)
        handler = self._receive_handlers.get(msg.mtype)
        if handler is None:
            raise SimulationError(f"L1 {self.node_id}: unexpected message {msg}")
        handler(msg)

    def _miss_hardened(self, block_addr: int, req: "_Request",
                       has_s_copy: bool) -> None:
        """``_miss`` with the writeback/retry overtaking race closed.

        The base protocol may issue a GET while its own PUT for the same
        block is still in flight: per-(src, dst) FIFO guarantees the
        directory sees the PUT first.  A *dropped* PUT breaks that
        guarantee -- its retry waits out a backoff, so a fresh GET issued
        now would overtake it and reach a directory that still records
        this node as owner.  Park the miss until the writeback completes
        (PUT_ACK) and replay it then.
        """
        if block_addr in self._wb and block_addr not in self._mshrs:
            self._wb_blocked.setdefault(block_addr, []).append(
                (req, has_s_copy))
            return
        L1Cache._miss(self, block_addr, req, has_s_copy)

    def _on_put_ack_hardened(self, msg: Message) -> None:
        self._on_put_ack(msg)
        parked = self._wb_blocked.pop(msg.addr, None)
        if parked:
            for req, has_s_copy in parked:
                self._miss(msg.addr, req, has_s_copy)

    def _on_nack(self, msg: Message) -> None:
        """The fault layer dropped one of our requests; re-issue it.

        The retry waits out an exponential backoff
        (``base << min(attempt, cap)`` cycles) and is guarded -- at
        schedule time and again at fire time -- on the request's
        transient state still being open, so a request that became moot
        is not re-sent.  With retries disabled the loss is permanent and
        liveness rests on the watchdog (that is the point: proving the
        watchdog catches the resulting deadlock).
        """
        self.stat_nacks.value += 1
        plan = self._retry_plan
        orig = msg.orig
        if plan is None or not plan.retries_enabled or orig is None:
            return
        if not self._retry_wanted(orig):
            return
        backoff = plan.retry_backoff_base << min(orig.attempt, plan.retry_backoff_cap)
        self._schedule_fast(backoff, self._retry, orig)

    def _retry_wanted(self, orig: Message) -> bool:
        """Is the dropped request's transient state still open?"""
        if orig.mtype in (_GET_S, _GET_M):
            return orig.addr in self._mshrs
        return orig.addr in self._wb  # PUT_S / PUT_E / PUT_M

    def _retry(self, orig: Message) -> None:
        if not self._retry_wanted(orig):
            return
        self.stat_retries.value += 1
        self.net.send(self.node_id, self._home_of(orig.addr),
                      Message(orig.mtype, orig.addr, self.node_id,
                              data=orig.data, word_addr=orig.word_addr,
                              attempt=orig.attempt + 1))

    def _on_data(self, msg: Message) -> None:
        mshr = self._mshrs.get(msg.addr)
        if mshr is None:
            raise SimulationError(f"L1 {self.node_id}: fill without MSHR: {msg}")
        granted = _GRANTED[msg.mtype]
        if mshr.has_s_copy:
            # SM upgrade completing: the resident S copy gains write permission.
            block = self.array.lookup(msg.addr, touch=False)
            if block is None:
                raise SimulationError(f"L1 {self.node_id}: SM upgrade lost its S copy")
            block.state = granted
        else:
            index = (msg.addr >> self._offset_bits) & self._set_mask
            self._reserved[index] -= 1
            assert msg.data is not None, "fill must carry data"
            # The fill payload is the directory's own fresh copy and this
            # is its sole delivery (duplicates are uid-suppressed before
            # dispatch), so the block may adopt it without copying.
            block = self.array.insert(msg.addr, granted, self._take(msg.data))
            pending = self._pending_spec_reads.pop(msg.addr, None)
            if pending is not None:
                # A speculatively forwarded load read this block while it
                # was absent; the fill joins it to the read set.
                block.spec_read = True
                block.spec_read_words.update(pending)
                self._spec_blocks[block.addr] = block

        # Drain waiters in order; a write waiter under an S grant forces a
        # follow-up GetM upgrade carrying the remaining waiters.
        waiters = mshr.waiters
        del self._mshrs[msg.addr]
        for i, req in enumerate(waiters):
            if req.needs_write and not block.state.writable:
                upgrade = _Mshr(msg.addr, want_m=True, has_s_copy=True)
                upgrade.waiters = waiters[i:]
                self._mshrs[msg.addr] = upgrade
                self.net.send(self.node_id, self._home_of(msg.addr),
                              Message(_GET_M, msg.addr, self.node_id,
                                      word_addr=req.addr))
                return
            self._apply(req, block)

    def _inv_conflicts(self, block: CacheBlock, msg: Message) -> bool:
        """Does this invalidation abort the current speculation?

        BLOCK granularity (the hardware design): any SR/SW hit aborts.
        WORD granularity (idealised oracle, E4 ablation): an SR-only
        block survives when the remote writer's word provably misses the
        speculatively read words (false sharing); SW blocks always abort
        -- speculative data must never escape.
        """
        if not block.speculative:
            return False
        if block.spec_written:
            return True
        if (self.spec_config.granularity is ViolationGranularity.WORD
                and msg.word_addr is not None):
            remote_word = self.array.word_index(msg.word_addr)
            return remote_word in block.spec_read_words
        return True

    def _on_inv(self, msg: Message) -> None:
        self.stat_inv_received.value += 1
        block = self.array.lookup(msg.addr, touch=False)
        if block is not None:
            if self._inv_conflicts(block, msg):
                self._violation(ViolationReason.EXTERNAL_INVALIDATION, msg.addr,
                                exclude=msg.addr)
                block = self.array.lookup(msg.addr, touch=False)
                if block is None:
                    # The block was SW and rollback removed it; the directory
                    # copy is current (clean-before-write).
                    self._respond(_INV_ACK, msg.addr, None)
                    self._demote_sm_mshr(msg.addr)
                    return
            # The block dies here, so ownership of its word list moves
            # into the INV_ACK (no copy on the fast path).
            data = self._take(block.data) if block.dirty else None
            self.array.remove(msg.addr)
            self._victim_buffer.pop(msg.addr, None)
            # WORD-granularity false sharing can remove an SR-only block
            # without a rollback: drop it from the speculative registry.
            self._spec_blocks.pop(msg.addr, None)
            self._respond(_INV_ACK, msg.addr, data)
            self._demote_sm_mshr(msg.addr)
            return
        wb = self._wb.get(msg.addr)
        if wb is not None:
            self.stat_wb_surrenders.value += 1
            data = wb.data if (wb.dirty and not wb.surrendered) else None
            wb.surrendered = True
            self._respond(_INV_ACK, msg.addr, data)
            return
        raise SimulationError(f"L1 {self.node_id}: INV for absent block {msg.addr:#x}")

    def _demote_sm_mshr(self, block_addr: int) -> None:
        """An INV killed our S copy while a GetM upgrade was in flight:
        the upgrade becomes a full IM miss (DATA_M will carry data), and the
        way the S copy occupied must be re-reserved for the fill."""
        mshr = self._mshrs.get(block_addr)
        if mshr is not None and mshr.has_s_copy:
            self.stat_sm_demotions.value += 1
            mshr.has_s_copy = False
            index = (block_addr >> self._offset_bits) & self._set_mask
            self._reserved[index] = self._reserved.get(index, 0) + 1

    def _on_fwd_get_s(self, msg: Message) -> None:
        self.stat_downgrades.value += 1
        block = self.array.lookup(msg.addr, touch=False)
        if block is not None:
            if block.spec_written:
                # A remote reader must never observe speculative data.
                self._violation(ViolationReason.EXTERNAL_DOWNGRADE, msg.addr,
                                exclude=msg.addr)
                if self.array.lookup(msg.addr, touch=False) is None:
                    # SW block discarded by rollback: tell the directory we
                    # dropped to I; its copy (clean-before-write) is current.
                    self._respond(_INV_ACK, msg.addr, None)
                    return
                block = self.array.lookup(msg.addr, touch=False)
            # Plain downgrade M/E -> S (an SR-only block stays tracked in S).
            data = list(block.data) if block.dirty else None
            block.dirty = False
            block.state = CacheState.SHARED
            self._victim_buffer.pop(msg.addr, None)
            self._respond(_DOWNGRADE_ACK, msg.addr, data)
            return
        wb = self._wb.get(msg.addr)
        if wb is not None:
            self.stat_wb_surrenders.value += 1
            data = wb.data if (wb.dirty and not wb.surrendered) else None
            wb.surrendered = True
            self._respond(_INV_ACK, msg.addr, data)
            return
        raise SimulationError(f"L1 {self.node_id}: FWD_GET_S for absent block {msg.addr:#x}")

    def _on_put_ack(self, msg: Message) -> None:
        if msg.addr not in self._wb:
            raise SimulationError(f"L1 {self.node_id}: PUT_ACK without writeback entry")
        del self._wb[msg.addr]

    def _respond(self, mtype: MessageType, addr: int, data: Optional[List[int]]) -> None:
        self.net.send(self.node_id, self._home_of(addr),
                      Message(mtype, addr, self.node_id, data=data))

    # ------------------------------------------------ speculation interface

    def note_speculative_forward(self, addr: int) -> None:
        """Add a store-buffer-forwarded speculative load to the read set.

        A forwarded load never reaches the L1, but the episode may have
        hoisted it above a drain point (an elided fence, an SC load's
        buffer wait), so the forwarded value becomes order-visible if a
        remote write to the block slips in before commit.  Mark the block
        SR so that write aborts the episode.  If the block is not resident
        (the forwarded-from store has not drained), park the mark in
        ``_pending_spec_reads``; the fill transfers it.  A remote write
        that lands *before* the drain re-acquires the block is harmless:
        it is then coherence-ordered before our store, and the forwarded
        value is simply the newest.
        """
        block_addr = addr & self._block_mask
        word = (addr & self._word_mask) >> 3
        block = self._lookup(block_addr, touch=False)
        if block is not None:
            block.spec_read = True
            block.spec_read_words.add(word)
            self._spec_blocks[block_addr] = block
        else:
            self._pending_spec_reads.setdefault(block_addr, set()).add(word)

    def speculative_footprint(self) -> Tuple[int, int]:
        """(number of SR blocks, number of SW blocks) currently tracked."""
        sr = sw = 0
        for block in self._spec_blocks.values():
            if block.spec_read:
                sr += 1
            if block.spec_written:
                sw += 1
        return sr, sw

    def commit_speculation(self) -> None:
        """Flash-clear all SR/SW bits (speculation became architectural).

        Touches only the registered speculative set -- commit is the
        frequent case and must not scan the whole array.  No messages
        are emitted, so iteration order is free here (unlike rollback).
        """
        for block in self._spec_blocks.values():
            block.clear_speculation()
        self._spec_blocks.clear()
        self._victim_buffer.clear()
        self._pending_spec_reads.clear()

    def rollback_speculation(self, exclude: Optional[int] = None) -> None:
        """Discard all speculative state.

        SW blocks are removed: under clean-before-write their
        pre-speculation data lives in the L2 copy, so ownership is simply
        relinquished (PUT_E); under the victim-buffer strategy the saved
        data is restored in place.  SR-only blocks just lose their bit.
        ``exclude`` names a block whose coherence response the *caller*
        will send (the block that took the external request), so no
        relinquish message is emitted for it -- but it is still removed.
        """
        # NOTE: rollback walks the *array* (not the registry): the PUT_E
        # relinquish messages below must be emitted in array iteration
        # order -- registry insertion order differs, and message order is
        # timing-visible.  Rollbacks are rare; commits take the fast path.
        for block in list(self.array.speculative_blocks()):
            if block.spec_written:
                saved = self._victim_buffer.pop(block.addr, None)
                if (self.spec_config.rollback_strategy is RollbackStrategy.VICTIM_BUFFER
                        and saved is not None):
                    block.data = saved
                    block.dirty = True
                    block.clear_speculation()
                    continue
                self.array.remove(block.addr)
                if block.addr != exclude:
                    self.stat_spec_relinquish.value += 1
                    self._wb[block.addr] = _WbEntry(None, dirty=False)
                    self.net.send(self.node_id, self._home_of(block.addr),
                                  Message(_PUT_E, block.addr, self.node_id))
            else:
                block.clear_speculation()
        self._spec_blocks.clear()
        self._victim_buffer.clear()
        self._pending_spec_reads.clear()

    def _violation(self, reason: ViolationReason, addr: int,
                   exclude: Optional[int]) -> None:
        """Abort the current speculation.

        The L1-side rollback (discarding SW blocks, clearing SR bits) runs
        synchronously *here*, before any data is surrendered; the listener
        then performs the core-side rollback (squash speculative store
        buffer entries, restore the checkpoint after the penalty).
        ``exclude`` names the block whose coherence response the caller
        sends itself (so no relinquish message is emitted for it).
        """
        if self.violation_listener is None:
            raise SimulationError(
                f"L1 {self.node_id}: violation ({reason.value}) with no listener"
            )
        self.rollback_speculation(exclude=exclude)
        self.violation_listener(reason, addr)

    # ------------------------------------------------------------- helpers

    def peek_word(self, addr: int) -> Optional[int]:
        """Non-intrusive read for debugging/tests (no LRU update)."""
        block = self.array.lookup(addr, touch=False)
        if block is None or not block.state.readable:
            return None
        return block.data[self.array.word_index(addr)]
