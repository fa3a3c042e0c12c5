"""The fault-injection subsystem: plans, injector invariants, watchdog.

Covers the load-bearing guarantees documented in docs/ROBUSTNESS.md:

* FIFO per (src, dst) survives duplication, stalls, and jitter on both
  interconnect topologies (the MESI protocol relies on it);
* identical seed + identical plan => bit-identical results;
* a dropped request with retries disabled becomes a diagnosable
  :class:`DeadlockError` naming the stuck address and cores, while the
  same drop with retries enabled recovers to the fault-free
  architectural state;
* the liveness watchdog and ``max_cycles`` caps turn hangs into
  exceptions and perturb nothing on healthy runs.
"""

from __future__ import annotations

import pytest

from repro.coherence.messages import Message, MessageType
from repro.faults import (
    DROPPABLE,
    DeadlockError,
    FaultInjector,
    FaultPlan,
    LivelockError,
    Watchdog,
    fault_scenarios,
)
from repro.harness.parallel import result_fingerprint
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.mesh import Mesh
from repro.isa.program import Assembler
from repro.sim.config import InterconnectConfig
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import StatsRegistry
from repro.system import System
from tests.conftest import small_config

SHARED = 0x1_0000


def _false_sharing_programs(n_cores: int = 2, rounds: int = 4):
    """Every core hammers its own word of one shared block: plenty of
    coherence traffic, but a timing-independent architectural outcome."""
    programs = []
    for tid in range(n_cores):
        asm = Assembler(f"faults.t{tid}")
        asm.li(1, SHARED)
        for i in range(rounds):
            asm.li(2, (tid + 1) * 100 + i)
            asm.store(2, base=1, offset=8 * tid)
            asm.load(3, base=1, offset=8 * ((tid + 1) % n_cores))
        asm.halt()
        programs.append(asm.build())
    return programs


def _run(plan=None, n_cores: int = 2, watchdog_args=None, **run_kwargs):
    system = System(small_config(n_cores), _false_sharing_programs(n_cores),
                    fault_plan=plan)
    watchdog = Watchdog(system, **watchdog_args) if watchdog_args is not None \
        else None
    result = system.run(check_invariants=True, watchdog=watchdog,
                        **run_kwargs)
    return system, result


# ----------------------------------------------------------------- FaultPlan

def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(drop_prob=1.5)
    with pytest.raises(ValueError):
        FaultPlan(jitter_prob=0.5)          # needs max_jitter > 0
    with pytest.raises(ValueError):
        FaultPlan(stall_prob=0.5)           # needs stall_cycles > 0
    with pytest.raises(ValueError):
        FaultPlan(dup_lag=0)
    with pytest.raises(ValueError):
        FaultPlan(nack_latency=0)


def test_plan_active_and_describe():
    assert not FaultPlan().active
    assert FaultPlan().describe().endswith("clean")
    plan = FaultPlan(drop_prob=0.1, retries_enabled=False)
    assert plan.active
    assert "drop=0.1" in plan.describe()
    assert "retries=off" in plan.describe()


def test_plan_fingerprint_content_addressed():
    assert FaultPlan(seed=1).fingerprint() == FaultPlan(seed=1).fingerprint()
    assert FaultPlan(seed=1).fingerprint() != FaultPlan(seed=2).fingerprint()


def test_plan_repr_is_eval_able():
    plan = fault_scenarios(seed=9)["storm"]
    assert eval(repr(plan)) == plan  # reproducer scripts rely on this


def test_scenarios_contain_fault_free_control():
    scenarios = fault_scenarios()
    assert not scenarios["none"].active
    assert all(plan.active for name, plan in scenarios.items()
               if name != "none")


def test_inactive_plan_leaves_interconnect_unwrapped():
    system = System(small_config(2), _false_sharing_programs(2),
                    fault_plan=FaultPlan())
    assert not isinstance(system.net, FaultInjector)
    assert system.fault_plan is None
    system = System(small_config(2), _false_sharing_programs(2),
                    fault_plan=FaultPlan(dup_prob=0.5))
    assert isinstance(system.net, FaultInjector)


# ------------------------------------------------- FIFO-per-pair invariant

class _Recorder:
    def __init__(self):
        self.received = []

    def receive(self, msg):
        self.received.append(msg)


def _nets(sim, stats, n_nodes):
    yield Crossbar(sim, InterconnectConfig(link_latency=3), stats)
    yield Mesh(sim, n_nodes, stats)


@pytest.mark.parametrize("net_index", [0, 1], ids=["crossbar", "mesh"])
def test_fifo_per_pair_under_duplication_stalls_and_jitter(net_index):
    n_nodes, n_msgs = 4, 60
    plan = FaultPlan(seed=7, dup_prob=0.4, dup_lag=2,
                     stall_prob=0.3, stall_cycles=17,
                     jitter_prob=0.5, max_jitter=9)
    sim = Simulator()
    stats = StatsRegistry()
    inner = list(_nets(sim, stats, n_nodes))[net_index]
    injector = FaultInjector(sim, inner, plan, stats)
    recorders = {}
    for node in range(n_nodes):
        recorders[node] = _Recorder()
        injector.attach(node, recorders[node])

    pairs = [(0, 1), (1, 0), (0, 2), (3, 1)]
    sent = {pair: [] for pair in pairs}

    def burst():
        for i in range(n_msgs):
            pair = pairs[i % len(pairs)]
            msg = Message(MessageType.GET_S, addr=64 * i, src=pair[0])
            sent[pair].append(msg.uid)
            injector.send(*pair, msg)

    sim.schedule_fast(0, burst)
    sim.run()

    assert stats.snapshot()["faults.duplicated"] > 0
    assert stats.snapshot()["faults.stalls"] > 0
    for (src, dst), uids in sent.items():
        arrived = [m.uid for m in recorders[dst].received if m.src == src]
        first_seen, seen = [], set()
        for uid in arrived:
            if uid not in seen:
                seen.add(uid)
                first_seen.append(uid)
        # First deliveries in exact send order; duplicates never overtake
        # a later message's first delivery.
        assert first_seen == uids
        assert set(arrived) == set(uids)
        for i, uid in enumerate(arrived):
            if uid in arrived[:i]:  # this is a duplicate copy
                assert arrived.index(uid) < i


# -------------------------------------------------------------- determinism

def test_same_seed_same_plan_bit_identical():
    plan = fault_scenarios(seed=5)["storm"]
    _, first = _run(plan, watchdog_args={})
    _, second = _run(plan, watchdog_args={})
    assert result_fingerprint(first) == result_fingerprint(second)
    assert first.stats.snapshot() == second.stats.snapshot()
    assert first.cycles == second.cycles


def test_different_seed_different_fault_sequence():
    base = fault_scenarios(seed=0)["storm"]
    other = fault_scenarios(seed=1)["storm"]
    _, first = _run(base, watchdog_args={})
    _, second = _run(other, watchdog_args={})
    # Final memory still matches (each word has one writer; faults change
    # timing only) ...
    assert _final_memory(first) == _final_memory(second)
    # ... but the runs are genuinely different executions.
    assert first.stats.snapshot() != second.stats.snapshot()


def _final_memory(result, n_cores: int = 2):
    """The per-core words of the shared block: single-writer each, so
    their final values are timing-independent (unlike the cross-core
    *loads*, whose observed values legitimately vary with fault timing)."""
    return [result.read_word(SHARED + 8 * tid) for tid in range(n_cores)]


# --------------------------------------------- drop / NACK / retry recovery

def test_drop_with_retries_recovers_fault_free_state():
    _, clean = _run(None)
    system, faulty = _run(FaultPlan(drop_first_n=3), watchdog_args={})
    snap = faulty.stats.snapshot()
    assert snap["faults.dropped"] == 3
    assert snap["faults.nacks_sent"] == 3
    retries = sum(snap[f"l1.{i}.retries"] for i in range(2)) \
        + snap["dir.retries"]
    assert retries >= 3
    assert _final_memory(faulty) == _final_memory(clean)


def test_duplicates_are_suppressed_not_reprocessed():
    _, clean = _run(None)
    _, faulty = _run(FaultPlan(seed=3, dup_prob=0.6, dup_lag=2),
                     watchdog_args={})
    snap = faulty.stats.snapshot()
    assert snap["faults.duplicated"] > 0
    suppressed = sum(snap[f"l1.{i}.dups_suppressed"] for i in range(2)) \
        + snap["dir.dups_suppressed"]
    assert suppressed == snap["faults.duplicated"]
    assert _final_memory(faulty) == _final_memory(clean)


def test_storm_scenario_completes_clean():
    plan = fault_scenarios(seed=2)["storm"]
    system, result = _run(plan, watchdog_args={})
    assert result.stats.snapshot()["faults.dropped"] >= 0
    assert system.all_halted


# --------------------------------------------------- deadlock and livelock

def test_dropped_request_without_retries_deadlocks_via_watchdog():
    plan = FaultPlan(drop_first_n=1, retries_enabled=False)
    with pytest.raises(DeadlockError) as info:
        _run(plan, watchdog_args=dict(check_interval=500))
    message = str(info.value)
    assert "deadlock" in message
    assert "blocked" in message
    assert f"{SHARED:#x}" in message        # the stuck address, from the dump
    assert "outstanding misses" in message
    assert "core" in message


def test_dropped_request_without_retries_deadlocks_on_drained_queue():
    # Same scenario without a watchdog: the queue drains and System.run's
    # own check raises, with the same diagnostic dump attached.
    plan = FaultPlan(drop_first_n=1, retries_enabled=False)
    with pytest.raises(DeadlockError) as info:
        _run(plan)
    message = str(info.value)
    assert "event queue drained" in message
    assert f"{SHARED:#x}" in message


def test_total_loss_with_retries_is_a_livelock():
    # Every request dropped, every retry dropped again: events churn
    # (NACK -> backoff -> retry) but nothing ever commits a memory op.
    plan = FaultPlan(drop_prob=1.0, retry_backoff_base=8,
                     retry_backoff_cap=2)
    with pytest.raises(LivelockError) as info:
        _run(plan, watchdog_args=dict(check_interval=2_000,
                                      no_commit_window=4_000))
    message = str(info.value)
    assert "livelock" in message
    assert "no instruction committed" in message


def test_watchdog_is_invisible_on_healthy_runs():
    _, plain = _run(None)
    _, watched = _run(None, watchdog_args={})
    assert result_fingerprint(plain) == result_fingerprint(watched)


# ------------------------------------------------------------- max_cycles

def test_simulator_max_cycles_cap():
    sim = Simulator()

    def tick():
        sim.schedule_fast(10, tick)

    sim.schedule_fast(0, tick)
    with pytest.raises(SimulationError, match="max_cycles"):
        sim.run(max_cycles=500)
    assert sim.now <= 500


def test_system_max_cycles_includes_diagnostic_dump():
    plan = FaultPlan(drop_prob=1.0, retry_backoff_base=8,
                     retry_backoff_cap=2)
    with pytest.raises(SimulationError) as info:
        _run(plan, max_cycles=5_000)
    message = str(info.value)
    assert "max_cycles" in message
    assert "diagnostic dump" in message


def test_max_cycles_does_not_perturb_completing_runs():
    _, uncapped = _run(None)
    _, capped = _run(None, max_cycles=10_000_000)
    assert result_fingerprint(uncapped) == result_fingerprint(capped)


# ----------------------------------------------------------- NACK plumbing

def test_nack_names_the_unreached_node():
    sim = Simulator()
    stats = StatsRegistry()
    inner = Crossbar(sim, InterconnectConfig(link_latency=3), stats)
    plan = FaultPlan(drop_first_n=1)
    injector = FaultInjector(sim, inner, plan, stats)
    sender, receiver = _Recorder(), _Recorder()
    injector.attach(0, sender)
    injector.attach(1, receiver)
    original = Message(MessageType.GET_M, addr=0x40, src=0)
    sim.schedule_fast(0, injector.send, 0, 1, original)
    sim.run()
    assert receiver.received == []          # dropped before the inner net
    assert len(sender.received) == 1
    nack = sender.received[0]
    assert nack.mtype is MessageType.NACK
    assert nack.src == 1                    # the node it never reached
    assert nack.orig is original


def test_only_resendable_types_are_droppable():
    assert MessageType.GET_S in DROPPABLE
    assert MessageType.GET_M in DROPPABLE
    assert MessageType.DATA_M not in DROPPABLE
    assert MessageType.INV_ACK not in DROPPABLE
    assert MessageType.PUT_ACK not in DROPPABLE
    assert MessageType.NACK not in DROPPABLE


def test_fault_free_stats_namespace_untouched():
    # Lazy counter creation: a fault-free run must not grow new stats
    # keys, or golden fingerprints would shift.
    _, clean = _run(None)
    assert not any(name.startswith(("faults.", "dir.nacks", "dir.retries",
                                    "dir.dups"))
                   or ".nacks_received" in name or ".retries" in name
                   or ".dups_suppressed" in name
                   for name in clean.stats.snapshot())


def test_miss_waits_for_dropped_writeback_to_land():
    """A miss must not overtake its own dropped, not-yet-retried PUT_M.

    Per-(src, dst) FIFO normally puts a writeback ahead of a later GET
    for the same block; a dropped PUT_M waits out a NACK and a backoff,
    so a GET issued meanwhile would reach a directory that still records
    this L1 as the dirty owner.  The hardened L1 parks the miss in
    ``_wb_blocked`` and replays it on the PUT_ACK.
    """
    from dataclasses import replace

    from repro.coherence.cache import CacheState
    from repro.coherence.directory import DirState

    a, c, b = 0x0, 0x80, 0x100   # one set of a 2-set, 2-way L1
    config = replace(small_config(1),
                     l1=replace(small_config(1).l1, size_bytes=256, assoc=2))
    asm = Assembler("faults.idle")
    asm.halt()
    # The plan drops the first droppable send (GET_M(a), recovered by
    # its retry); it is re-armed below for the PUT_M evicting a.
    system = System(config, [asm.build()],
                    fault_plan=FaultPlan(drop_first_n=1))
    sim, l1, injector = system.sim, system.l1s[0], system.net
    dropped = []
    injector_drop = injector._drop
    injector._drop = lambda src, dst, msg: (
        dropped.append(msg.mtype), injector_drop(src, dst, msg))

    l1.write(a, 7, lambda: None)
    sim.run()
    l1.read(c, lambda value: None)
    sim.run()
    injector._forced_drops = 1
    l1.write(b, 9, lambda: None)          # evicts dirty a (LRU)
    while a not in l1._wb:
        assert sim.step()
    assert dropped == [MessageType.GET_M, MessageType.PUT_M]
    got = []
    l1.read(a, got.append)
    while a not in l1._wb_blocked:
        assert sim.step()
    retries = l1.stat_retries.value       # the PUT_M retry is not out yet
    assert a in l1._wb and not got
    sim.run()

    assert got == [7]
    assert l1.stat_retries.value == retries + 1
    assert not l1._wb_blocked and a not in l1._wb
    block = l1.array.lookup(a, touch=False)
    assert block is not None and block.state is CacheState.EXCLUSIVE
    home = system.directory
    assert home.entry_state(a) is DirState.EXCLUSIVE
    assert home.owner_of(a) == 0
    assert home.peek_word(a) == 7         # the retried PUT_M landed first
    assert system.read_word(b) == 9
    system.check_swmr()
