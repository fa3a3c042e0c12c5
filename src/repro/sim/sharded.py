"""Sharded multi-process simulation: bounded-lag epoch parallelism.

The single-process engine runs the whole machine on one Python thread,
which caps E9-style scaling studies right where contention gets
interesting.  This module partitions the simulated system into
``shards`` worker processes -- each owning a contiguous slice of the
cores (pipelines + L1s) and a slice of the directory homes -- and
advances them in **conservative bounded-lag epochs**:

* **Lookahead.**  Every cross-shard interaction travels through the
  interconnect, and the interconnect has a minimum latency ``L``
  (``link_latency`` on the crossbar, ``mesh_hop_latency`` per hop on
  the mesh).  A message sent at cycle ``t`` can therefore never arrive
  before ``t + L``.
* **Epoch window.**  All shards run ``[start, start + L - 1]``
  independently; any message generated inside the window arrives at
  ``>= start + L``, i.e. strictly after the window, so no shard can
  receive a message from its own past.
* **Barrier.**  At the window end each shard ships the boundary
  messages it generated (per-pair FIFO channels: pickled frames over
  per-pair pipes), along with a *hint* -- the earliest cycle at which
  it could next do anything (its next local event, or its earliest
  outgoing arrival).  Every shard computes the identical global minimum
  and jumps its next window there, so idle stretches cost one barrier,
  not ``stretch / L`` of them.  A global hint of +inf terminates.

Determinism: each shard is itself the deterministic serial engine, and
arriving boundary messages are inserted in a canonical order -- sorted
by ``(arrive_cycle, origin_shard, origin_sequence)`` -- so a sharded
run is a pure function of (config, programs, plans, shards).  The
in-process reference mode (``mode="inline"``) executes bit-identically
to the forked mode, and ``docs/SHARDING.md`` spells out exactly when a
sharded run also reproduces the *serial* engine's fingerprints.

What sharding refuses (cleanly, at entry): commit arbitration (a
global synchronous arbiter), active fault plans in ``global`` RNG scope
(one RNG consumed in global send order cannot be replayed shard-locally
-- use ``rng_scope="pair"``), and a crossbar with ``link_latency < 1``
(zero lookahead admits no conservative window).
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from heapq import heappush as _heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coherence import messages as _messages
from repro.coherence.cache import CacheState
from repro.coherence.directory import Directory
from repro.coherence.homemap import build_home_map
from repro.coherence.l1 import L1Cache
from repro.cpu.core import Core, StallCause
from repro.faults.injector import FaultInjector
from repro.faults.nodeplan import NodeFaultPlan
from repro.faults.nodes import NodeFaultController
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import DeadlockError
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.mesh import Mesh
from repro.isa.program import Program
from repro.sim.config import SystemConfig, Topology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import Accumulator, Counter, Histogram, StatsRegistry
from repro.system import DEFAULT_MAX_EVENTS, CoreSummary, SystemResult

_INF = float("inf")

#: boundary-record kinds
_DELIVER = 0    # payload = destination node id
_TRAVERSE = 1   # payload = (path, index, dst) -- mesh flit mid-route


class ShardingError(ValueError):
    """A configuration the sharded engine refuses to run."""


# --------------------------------------------------------------- layout

class ShardLayout:
    """Static ownership map: which shard owns each core / home / node.

    Cores are split into contiguous slices (locality: neighbouring
    cores usually share workload phases); home ``h`` goes to shard
    ``h % n_shards`` so directory load spreads over all shards.
    """

    def __init__(self, config: SystemConfig, n_shards: int):
        n_cores, n_homes = config.n_cores, config.n_homes
        self.n_shards = n_shards
        base, rem = divmod(n_cores, n_shards)
        self.core_slices: List[List[int]] = []
        start = 0
        for shard in range(n_shards):
            size = base + (1 if shard < rem else 0)
            self.core_slices.append(list(range(start, start + size)))
            start += size
        self.home_slices: List[List[int]] = [
            [h for h in range(n_homes) if h % n_shards == shard]
            for shard in range(n_shards)
        ]
        #: node id -> owning shard, for every node on the interconnect
        self.owner: List[int] = [0] * (n_cores + n_homes)
        for shard, cores in enumerate(self.core_slices):
            for core_id in cores:
                self.owner[core_id] = shard
        for shard, homes in enumerate(self.home_slices):
            for home in homes:
                self.owner[n_cores + home] = shard


def _lookahead(config: SystemConfig) -> int:
    if config.interconnect.topology is Topology.MESH:
        return config.interconnect.mesh_hop_latency
    return config.interconnect.link_latency


# ------------------------------------------------------ boundary fabric

class _RemoteStub:
    """Placeholder endpoint for nodes another shard owns.

    Attached so the base interconnect's src/dst checks pass; a local
    delivery to it means the boundary routing is broken.
    """

    __slots__ = ("node",)

    def __init__(self, node: int):
        self.node = node

    def receive(self, msg: Any) -> None:
        raise SimulationError(
            f"boundary routing error: message delivered locally to "
            f"remote node {self.node}")


class _ShardCrossbar(Crossbar):
    """Crossbar whose remote deliveries divert into the shard outbox.

    Sender-side bookkeeping (port serialisation, injection stats) is
    identical to the serial crossbar; only the final delivery crosses
    the process boundary, carrying its exact arrival cycle.
    """

    def __init__(self, sim, config, stats, owner: List[int], me: int,
                 outbox: List[tuple], marks: Dict[int, int]):
        super().__init__(sim, config, stats)
        self._owner = owner
        self._me = me
        self._outbox = outbox
        self._marks = marks
        # Interpose the boundary check in front of the local send.
        self._local_send = super().send
        self.send = self._boundary_send  # type: ignore[method-assign]

    def _boundary_send(self, src: int, dst: int, msg: Any) -> None:
        ports = self._port_free_at
        if src not in ports:
            raise KeyError(f"unknown source node {src}")
        now = self.sim._now
        free = ports[src]
        inject_at = free if free > now else now
        arrive = inject_at + self._link_latency
        if self._owner[dst] == self._me:
            self._local_send(src, dst, msg)
            # Record where this bucket's delivery prefix now ends:
            # boundary arrivals for the same cycle splice in right here
            # (see _Shard.absorb for the ordering argument).
            self._marks[arrive] = len(self.sim._buckets[arrive])
            return
        ports[src] = inject_at + self._issue_interval
        self._queue_add(inject_at - now)
        self._sent.value += 1
        # Materialise the lazy uid before the message is pickled: a
        # duplicate injected by the fault layer shares its original's
        # uid by object identity, which pickling per-frame would break.
        msg.uid
        self._outbox.append((self._owner[dst], arrive, _DELIVER, dst, msg))


class _ShardMesh(Mesh):
    """Mesh that hands flits to the owner of the next tile.

    Each directed link is owned by (and its FIFO state lives in) the
    shard owning the link's *source* tile, so link claims happen
    exactly once, in arrival order, with serial timing: the handoff
    record carries the flit's precise arrival cycle at the next tile.
    Tiles that host no node (padding on a non-square grid) belong to
    shard 0.
    """

    def __init__(self, sim, n_nodes, stats, hop_latency, link_issue_interval,
                 owner: List[int], me: int, outbox: List[tuple],
                 marks: Dict[int, int]):
        self._owner = owner
        self._me = me
        self._outbox = outbox
        self._marks = marks
        super().__init__(sim, n_nodes, stats, hop_latency=hop_latency,
                         link_issue_interval=link_issue_interval)
        self._tile_owner: Dict[Tuple[int, int], int] = {}
        for tile, node in self._tiles.items():
            self._tile_owner[tile] = owner[node]
        for y in range(self.height):
            for x in range(self.width):
                self._tile_owner.setdefault((x, y), 0)

    def _traverse(self, path, index: int, dst: int, msg: Any,
                  arrived_at: int) -> None:
        if index == len(path) - 1:
            self._deliver(dst, msg)
            return
        nxt = path[index + 1]
        link = (path[index], nxt)
        free_at = self._link_free_at.get(link, 0)
        depart = arrived_at if arrived_at > free_at else free_at
        self._link_free_at[link] = depart + self.link_issue_interval
        self.stat_link_wait.add(depart - arrived_at)
        arrive = depart + self.hop_latency
        owner = self._tile_owner[nxt]
        if owner != self._me:
            msg.uid  # materialise before pickling (see _ShardCrossbar)
            self.inflight -= 1
            self._outbox.append((owner, arrive, _TRAVERSE,
                                 (path, index + 1, dst), msg))
            return
        self.sim.schedule_fast_at(arrive, self._traverse, path, index + 1,
                                  dst, msg, arrive)
        # Delivery-prefix mark, as in _ShardCrossbar._boundary_send.
        self._marks[arrive] = len(self.sim._buckets[arrive])


# --------------------------------------------------------------- shard

class _Shard:
    """One worker's slice of the machine: a faithful projection of
    ``System.__init__`` onto the owned cores and directory homes.

    Construction order mirrors the serial builder exactly (net ->
    fault-injector wrap -> directories -> preload -> L1s/cores ->
    node-fault wiring -> hardening), so per-component behaviour --
    including lazily created stats -- is the serial engine's.
    """

    def __init__(self, index: int, layout: ShardLayout, config: SystemConfig,
                 programs: Sequence[Program],
                 initial_memory: Optional[Dict[int, int]],
                 fastpath: bool,
                 fault_plan: Optional[FaultPlan],
                 node_plan: Optional[NodeFaultPlan]):
        self.index = index
        self.layout = layout
        self.config = config
        self.owned_cores = layout.core_slices[index]
        self.owned_homes = layout.home_slices[index]
        self.outbox: List[tuple] = []
        self.sim = Simulator(fastpath=fastpath)
        self.stats = StatsRegistry()
        self._seq = 0            # per-origin-shard record sequence
        #: bucket time -> index just past the last locally appended
        #: interconnect-delivery entry (maintained by the boundary nets)
        self.marks: Dict[int, int] = {}
        #: bucket time -> index just past the last absorbed boundary
        #: entry (see absorb's ordering rationale)
        self._absorbed_at: Dict[int, int] = {}

        n_cores, n_homes = config.n_cores, config.n_homes
        if config.interconnect.topology is Topology.MESH:
            self.basenet = _ShardMesh(
                self.sim, n_cores + n_homes, self.stats,
                hop_latency=config.interconnect.mesh_hop_latency,
                link_issue_interval=config.interconnect.port_issue_interval,
                owner=layout.owner, me=index, outbox=self.outbox,
                marks=self.marks)
        else:
            self.basenet = _ShardCrossbar(
                self.sim, config.interconnect, self.stats,
                owner=layout.owner, me=index, outbox=self.outbox,
                marks=self.marks)
        self.net: Any = self.basenet

        self.fault_plan = fault_plan if fault_plan is not None \
            and fault_plan.active else None
        if self.fault_plan is not None:
            self.net = FaultInjector(self.sim, self.net, self.fault_plan,
                                     self.stats)

        # Node faults: only the owned cores' faults run here.
        owned = set(self.owned_cores)
        self.node_plan: Optional[NodeFaultPlan] = None
        if node_plan is not None and node_plan.active:
            mine = tuple(f for f in node_plan.faults if f.core in owned)
            if mine:
                self.node_plan = NodeFaultPlan(seed=node_plan.seed,
                                               faults=mine)

        self.home_map = build_home_map(n_homes, n_cores)
        copy_blocks = config.debug_copy_blocks
        self.directories: List[Directory] = []
        for home in self.owned_homes:
            directory = Directory(self.sim, n_cores + home, config.l1,
                                  config.memory, self.net, self.stats,
                                  copy_blocks=copy_blocks)
            self.net.attach(n_cores + home, directory)
            self.directories.append(directory)

        if initial_memory:
            owned_home_set = set(self.owned_homes)
            by_home = {h: d for h, d in zip(self.owned_homes,
                                            self.directories)}
            for addr, value in initial_memory.items():
                if addr % 8 != 0:
                    raise ValueError(
                        f"initial memory address {addr:#x} not word-aligned")
                home = self.home_map.home_index(config.l1.block_of(addr))
                if home in owned_home_set:
                    by_home[home].preload(addr, value)

        self.l1s: List[L1Cache] = []
        self.cores: List[Core] = []
        self.core_by_id: Dict[int, Core] = {}
        self._halted_count = 0
        self.crashed_cores: set = set()
        targeted = (self.node_plan.affected_cores()
                    if self.node_plan is not None else frozenset())
        for core_id in self.owned_cores:
            l1 = L1Cache(self.sim, core_id, config.l1, config.speculation,
                         self.net, n_cores, self.stats,
                         copy_blocks=copy_blocks, home_map=self.home_map)
            self.net.attach(core_id, l1)
            core = Core(self.sim, core_id, config.core, config.speculation,
                        programs[core_id], l1, self.stats,
                        on_halt=self._on_core_halt, commit_arbiter=None,
                        superblocks=config.superblocks
                        and core_id not in targeted)
            self.l1s.append(l1)
            self.cores.append(core)
            self.core_by_id[core_id] = core

        # Remote stubs for every node another shard owns, so the base
        # interconnect's endpoint checks accept boundary-bound sends.
        for node in range(n_cores + n_homes):
            if layout.owner[node] != index:
                self.net.attach(node, _RemoteStub(node))

        self.node_controller: Optional[NodeFaultController] = None
        if self.node_plan is not None:
            deferred = self.stats.counter("nodefaults.deferred")
            for core_id in sorted(targeted):
                core = self.core_by_id[core_id]
                core._nf_stat_deferred = deferred
                core.enable_node_faults()
            # The controller indexes ``cores[fault.core]``; a dict keyed
            # by global core id satisfies that for a non-dense slice.
            self.node_controller = NodeFaultController(
                self.sim, self.core_by_id, self.node_plan, self.stats,
                on_crash=self._on_core_crash)

        if self.fault_plan is not None:
            for directory in self.directories:
                directory.enable_fault_hardening(self.fault_plan, self.stats)
            for l1 in self.l1s:
                l1.enable_fault_hardening(self.fault_plan, self.stats)

    def _on_core_halt(self, core: Core) -> None:
        self._halted_count += 1

    def _on_core_crash(self, core: Core) -> None:
        self.crashed_cores.add(core.core_id)

    # ------------------------------------------------------- epoch steps

    def start(self) -> None:
        if self.node_controller is not None:
            self.node_controller.start()
        for core in self.cores:
            core.start()

    def run_window(self, until: int, max_events: int,
                   max_cycles: Optional[int]) -> None:
        remaining = max_events - self.sim.events_dispatched
        if remaining <= 0:
            raise SimulationError(
                f"shard {self.index}: exceeded {max_events} events")
        self.sim.run(until=until, max_events=remaining,
                     max_cycles=max_cycles)

    def collect(self) -> Tuple[float, Dict[int, List[tuple]]]:
        """Drain the outbox into per-peer frames; compute this shard's
        hint (earliest cycle it could next act)."""
        frames: Dict[int, List[tuple]] = {}
        hint: float = self.sim._times[0] if self.sim._times else _INF
        if self.outbox:
            for dest, arrive, kind, payload, msg in self.outbox:
                self._seq += 1
                frames.setdefault(dest, []).append(
                    (arrive, self._seq, kind, payload, msg))
                if arrive < hint:
                    hint = arrive
            self.outbox.clear()
        return hint, frames

    def absorb(self, records: List[tuple]) -> None:
        """Insert boundary arrivals, already canonically sorted by
        ``(arrive, origin_shard, origin_seq)``.

        Ordering rationale: the serial engine dispatches a bucket in
        *append* order, so a bucket at cycle ``t`` is layered
        chronologically by when each entry was scheduled: far-ahead
        wakeups first (think phases, retry backoffs, scheduled >= L
        cycles early), then interconnect deliveries (all appended at
        their send cycle, ``t - L`` for a minimum-latency fabric), then
        near appends (a spinning core's next step goes in at ``t - 1``).
        A boundary arrival is a delivery whose send happened on another
        shard, so it belongs at the end of the *delivery* layer: the
        boundary nets maintain ``marks[t]`` = index just past the last
        locally appended delivery, and absorbed records splice in
        there -- after local deliveries, before everything the receiver
        appended later.  ``_absorbed_at`` keeps successive slabs in
        arrival order.  The residual divergence -- same-cycle sends
        from different shards to one endpoint, where the serial
        interleave is genuinely unrecoverable -- is the documented
        oracle-grid caveat (docs/SHARDING.md)."""
        sim = self.sim
        net = self.basenet
        buckets = sim._buckets
        marks = self.marks
        absorbed = self._absorbed_at
        now = sim._now
        for table in (marks, absorbed):
            if table:
                for stale in [t for t in table if t <= now]:
                    del table[stale]
        for arrive, _src, _seq, kind, payload, msg in records:
            net.inflight += 1
            if kind == _DELIVER:
                entry = (net._deliver, (payload, msg))
            else:
                path, index, dst = payload
                entry = (net._traverse, (path, index, dst, msg, arrive))
            position = absorbed.get(arrive, 0)
            mark = marks.get(arrive, 0)
            if mark > position:
                position = mark
            bucket = buckets.get(arrive)
            if bucket is None:
                buckets[arrive] = [entry]
                _heappush(sim._times, arrive)
            else:
                bucket.insert(position, entry)
            absorbed[arrive] = position + 1
            sim._pending += 1

    # --------------------------------------------------------- results

    @property
    def settled(self) -> bool:
        return self._halted_count + len(self.crashed_cores) == \
            len(self.owned_cores)

    def result_blob(self) -> dict:
        summaries = [
            CoreSummary(
                core_id=c.core_id,
                instructions=c.instructions,
                finish_cycle=c.finish_cycle,
                busy_cycles=c.stat_busy.value,
                stall_cycles={cause: c.stat_stall[cause].value
                              for cause in StallCause},
                registers=c.regs.snapshot(),
                fused_instructions=c.fused_instructions,
                fused_blocks=c.fused_blocks,
                crashed=(c.nf_state == 2),
                crashed_at=c.nf_crashed_at,
            )
            for c in self.cores
        ]
        backing: Dict[int, int] = {}
        for directory in self.directories:
            for block_addr, data in directory.backing_blocks():
                for i, value in enumerate(data):
                    backing[block_addr + 8 * i] = value
        dirty: Dict[int, int] = {}
        for l1 in self.l1s:
            for block in l1.array:
                if block.state is CacheState.MODIFIED:
                    for i, value in enumerate(block.data):
                        dirty[block.addr + 8 * i] = value
        stuck = [c.core_id for c in self.cores
                 if not c.halted and c.core_id not in self.crashed_cores]
        return {
            "settled": self.settled,
            "stuck": stuck,
            "stats": self.stats,
            "events": self.sim.events_dispatched,
            "summaries": summaries,
            "backing": backing,
            "dirty": dirty,
        }


# ------------------------------------------------------------ merging

def _merge_stats(registries: Sequence[StatsRegistry]) -> StatsRegistry:
    """Order-independent merge: every fingerprinted scalar (Counter
    value, Accumulator total, Histogram count) is a plain sum."""
    merged = StatsRegistry()
    for registry in registries:
        for name in sorted(registry._stats):
            stat = registry._stats[name]
            if isinstance(stat, Counter):
                merged.counter(name).value += stat.value
            elif isinstance(stat, Accumulator):
                acc = merged.accumulator(name)
                acc.total += stat.total
                acc.count += stat.count
                for bound, pick in (("minimum", min), ("maximum", max)):
                    theirs = getattr(stat, bound)
                    if theirs is None:
                        continue
                    ours = getattr(acc, bound)
                    setattr(acc, bound,
                            theirs if ours is None else pick(ours, theirs))
            elif isinstance(stat, Histogram):
                hist = merged.histogram(name, bucket_width=stat.bucket_width,
                                        log2=stat.log2)
                for bucket, weight in stat.buckets.items():
                    hist.buckets[bucket] = \
                        hist.buckets.get(bucket, 0) + weight
                hist.total += stat.total
                hist.count += stat.count
            else:  # pragma: no cover - registry only makes these three
                raise TypeError(f"cannot merge stat {name}: {type(stat)}")
    return merged


def _merge_result(config: SystemConfig, blobs: List[dict],
                  telemetry: dict) -> SystemResult:
    for blob in blobs:
        if not blob["settled"]:
            stuck = sorted(core for b in blobs for core in b["stuck"])
            raise DeadlockError(
                f"deadlock under sharding: cores {stuck} not settled "
                f"(sharded runs carry no per-shard diagnostic dump; "
                f"reproduce serially for the full dump)")
    summaries = sorted((s for blob in blobs for s in blob["summaries"]),
                       key=lambda s: s.core_id)
    memory: Dict[int, int] = {}
    for blob in blobs:
        memory.update(blob["backing"])
    for blob in blobs:
        memory.update(blob["dirty"])
    result = SystemResult.from_parts(
        config=config,
        cycles=max((s.finish_cycle or 0) for s in summaries),
        events=sum(blob["events"] for blob in blobs),
        stats=_merge_stats([blob["stats"] for blob in blobs]),
        cores=summaries,
        memory=memory,
    )
    result.sharding = telemetry
    return result


# -------------------------------------------------------- epoch drivers

def _epoch_sort_key(record: tuple) -> tuple:
    # (arrive, origin_shard, origin_seq): the canonical insertion order.
    return (record[0], record[1], record[2])


def _run_inline(shards: List[_Shard], lookahead: int, max_events: int,
                max_cycles: Optional[int]) -> dict:
    """In-process reference driver: the same shard objects, the same
    barrier protocol, no processes.  Bit-identical to the forked mode
    (the determinism tests assert it) and the fallback when forking is
    unavailable (e.g. inside daemonic pool workers)."""
    for shard in shards:
        shard.start()
    window_start = 0
    epochs = 0
    crossings = 0
    while True:
        if max_cycles is not None and window_start > max_cycles:
            raise SimulationError(
                f"watchdog: sharded window start {window_start} past "
                f"max_cycles={max_cycles}")
        until = window_start + lookahead - 1
        for shard in shards:
            shard.run_window(until, max_events, max_cycles)
        epochs += 1
        hints = []
        inboxes: List[List[tuple]] = [[] for _ in shards]
        for shard in shards:
            hint, frames = shard.collect()
            hints.append(hint)
            for dest, records in frames.items():
                for arrive, seq, kind, payload, msg in records:
                    inboxes[dest].append(
                        (arrive, shard.index, seq, kind, payload, msg))
                crossings += len(records)
        for shard, inbox in zip(shards, inboxes):
            if inbox:
                inbox.sort(key=_epoch_sort_key)
                shard.absorb(inbox)
        global_next = min(hints)
        if global_next == _INF:
            break
        window_start = int(global_next)
    return {"epochs": epochs, "crossings": crossings}


def _worker_main(index: int, layout: ShardLayout, config: SystemConfig,
                 programs: Sequence[Program],
                 initial_memory: Optional[Dict[int, int]], fastpath: bool,
                 fault_plan: Optional[FaultPlan],
                 node_plan: Optional[NodeFaultPlan], lookahead: int,
                 max_events: int, max_cycles: Optional[int],
                 peer_conns: Dict[int, Any], control_conn: Any) -> None:
    """Forked worker: one shard plus the distributed barrier loop."""
    try:
        # Stride the message-uid counter so uids are unique across
        # workers (uid values are never fingerprinted; only equality
        # matters, for duplicate suppression).
        _messages._msg_ids = itertools.count(index, layout.n_shards)
        shard = _Shard(index, layout, config, programs, initial_memory,
                       fastpath, fault_plan, node_plan)
        peers = sorted(peer_conns)
        shard.start()
        window_start = 0
        epochs = 0
        crossings = 0
        # Busy time = wall time minus the time spent *blocked* at the
        # barrier waiting for peers.  On a single-CPU host the workers
        # are time-sliced, so wall clock cannot show a speedup; the
        # maximum per-shard busy time is the critical path a genuinely
        # parallel host would pay, and BENCH_5 reports both.
        wall_start = time.perf_counter()
        blocked = 0.0
        while True:
            if max_cycles is not None and window_start > max_cycles:
                raise SimulationError(
                    f"watchdog: sharded window start {window_start} past "
                    f"max_cycles={max_cycles}")
            until = window_start + lookahead - 1
            shard.run_window(until, max_events, max_cycles)
            epochs += 1
            hint, frames = shard.collect()
            # All-to-all barrier: send every peer its frame (plus our
            # hint), then gather.  Frames are small (boundary messages
            # of one window), so sends never fill the pipe buffers.
            for peer in peers:
                records = frames.get(peer, ())
                crossings += len(records)
                peer_conns[peer].send((hint, records))
            hints = [hint]
            inbox: List[tuple] = []
            for peer in peers:
                recv_start = time.perf_counter()
                peer_hint, records = peer_conns[peer].recv()
                blocked += time.perf_counter() - recv_start
                hints.append(peer_hint)
                for arrive, seq, kind, payload, msg in records:
                    inbox.append((arrive, peer, seq, kind, payload, msg))
            if inbox:
                inbox.sort(key=_epoch_sort_key)
                shard.absorb(inbox)
            global_next = min(hints)
            if global_next == _INF:
                break
            window_start = int(global_next)
        blob = shard.result_blob()
        blob["epochs"] = epochs
        blob["crossings"] = crossings
        blob["busy_seconds"] = time.perf_counter() - wall_start - blocked
        control_conn.send(("done", blob))
    except BaseException as exc:  # noqa: BLE001 - ship any failure home
        import traceback
        try:
            control_conn.send(("error", f"{exc}\n{traceback.format_exc()}"))
        finally:
            raise
    finally:
        control_conn.close()
        for conn in peer_conns.values():
            conn.close()


def _run_forked(layout: ShardLayout, config: SystemConfig,
                programs: Sequence[Program],
                initial_memory: Optional[Dict[int, int]], fastpath: bool,
                fault_plan: Optional[FaultPlan],
                node_plan: Optional[NodeFaultPlan], lookahead: int,
                max_events: int,
                max_cycles: Optional[int]) -> Tuple[List[dict], dict]:
    ctx = multiprocessing.get_context("fork")
    n = layout.n_shards
    # Per-pair duplex pipes (FIFO channels) + a control pipe per worker.
    pair_conns: List[Dict[int, Any]] = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            end_i, end_j = ctx.Pipe(duplex=True)
            pair_conns[i][j] = end_i
            pair_conns[j][i] = end_j
    controls = []
    workers = []
    try:
        for index in range(n):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(index, layout, config, programs, initial_memory,
                      fastpath, fault_plan, node_plan, lookahead,
                      max_events, max_cycles, pair_conns[index], child_conn),
                daemon=True)
            proc.start()
            child_conn.close()
            controls.append(parent_conn)
            workers.append(proc)
        # The parent only holds pair-pipe ends so a worker crash cannot
        # hang its peers on a half-open pipe; close them now that every
        # worker inherited its own copies.
        for conns in pair_conns:
            for conn in conns.values():
                conn.close()
        blobs: List[Optional[dict]] = [None] * n
        for index, conn in enumerate(controls):
            try:
                status, payload = conn.recv()
            except EOFError:
                raise SimulationError(
                    f"shard worker {index} died without reporting "
                    f"(exit code {workers[index].exitcode})") from None
            if status == "error":
                raise SimulationError(
                    f"shard worker {index} failed:\n{payload}")
            blobs[index] = payload
        for proc in workers:
            proc.join(timeout=30)
        epochs = max(blob["epochs"] for blob in blobs)
        return blobs, {
            "mode": "fork",
            "epochs": epochs,
            "crossings": sum(blob["crossings"] for blob in blobs),
            "busy_seconds": [blob["busy_seconds"] for blob in blobs],
        }
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in controls:
            conn.close()


# ---------------------------------------------------------- entry point

def run_sharded(config: SystemConfig, programs: Sequence[Program],
                initial_memory: Optional[Dict[int, int]] = None,
                shards: int = 2, fastpath: bool = True,
                fault_plan: Optional[FaultPlan] = None,
                node_plan: Optional[NodeFaultPlan] = None,
                max_events: int = DEFAULT_MAX_EVENTS,
                max_cycles: Optional[int] = None,
                mode: str = "auto") -> SystemResult:
    """Run the machine partitioned over ``shards`` workers.

    ``mode``: ``"fork"`` (worker processes), ``"inline"`` (same epoch
    protocol, one process -- the bit-identical reference), or ``"auto"``
    (fork when possible, inline inside daemonic workers where forking
    is forbidden).  Returns a :class:`SystemResult` indistinguishable
    from a serial run's, with a ``.sharding`` telemetry attribute.
    """
    if len(programs) != config.n_cores:
        raise ValueError(
            f"need exactly {config.n_cores} programs, got {len(programs)}")
    if shards < 1:
        raise ShardingError("shards must be >= 1")
    if shards > config.n_cores:
        raise ShardingError(
            f"cannot split {config.n_cores} cores over {shards} shards")
    if mode not in ("auto", "fork", "inline"):
        raise ShardingError(f"unknown mode {mode!r}")

    if shards == 1:
        # One shard is the serial machine: run it directly (no epochs).
        shard = _Shard(0, ShardLayout(config, 1), config, programs,
                       initial_memory, fastpath, fault_plan, node_plan)
        shard.start()
        shard.sim.run(max_events=max_events, max_cycles=max_cycles)
        blob = shard.result_blob()
        return _merge_result(config, [blob],
                             {"mode": "single", "epochs": 0, "shards": 1})

    if config.speculation.enabled and config.speculation.commit_arbitration:
        raise ShardingError(
            "commit arbitration is a global synchronous arbiter and "
            "cannot be sharded; run it on the serial engine")
    if fault_plan is not None and fault_plan.active \
            and fault_plan.rng_scope != "pair":
        raise ShardingError(
            "active fault plans under sharding need rng_scope='pair': "
            "a global-scope RNG is consumed in global send order, which "
            "no shard can observe")
    lookahead = _lookahead(config)
    if lookahead < 1:
        raise ShardingError(
            "sharding needs interconnect lookahead >= 1 cycle "
            "(crossbar link_latency or mesh_hop_latency); got "
            f"{lookahead}")
    if node_plan is not None and node_plan.active:
        for fault in node_plan.faults:
            if fault.core >= config.n_cores:
                raise ValueError(
                    f"node fault targets core {fault.core}, but the "
                    f"system has only {config.n_cores} cores")

    layout = ShardLayout(config, shards)
    if mode == "auto":
        daemon = multiprocessing.current_process().daemon
        mode = "inline" if daemon else "fork"

    if mode == "fork":
        blobs, telemetry = _run_forked(
            layout, config, programs, initial_memory, fastpath, fault_plan,
            node_plan, lookahead, max_events, max_cycles)
    else:
        all_shards = [_Shard(i, layout, config, programs, initial_memory,
                             fastpath, fault_plan, node_plan)
                      for i in range(shards)]
        telemetry = _run_inline(all_shards, lookahead, max_events, max_cycles)
        telemetry["mode"] = "inline"
        blobs = [shard.result_blob() for shard in all_shards]
    telemetry["shards"] = shards
    telemetry["lookahead"] = lookahead
    return _merge_result(config, blobs, telemetry)
