"""Spin parking: a parked core is bit-identical to one dispatching every spin.

A core spinning on an L1-resident block parks on an engine-level relay
chain instead of dispatching the loop's load-hit and branch events (see
docs/PERF.md, "Spin parking").  The reference throughout is the same
fast-path engine with the parking installer patched to a no-op, so the
only difference between the two runs is parking itself: result
fingerprints, event counts and the per-core fusion counters must match
exactly.  The compat engine (which never parks) is the second oracle.
Each proof also asserts that parking engaged, so none is vacuous.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cpu.core import Core
from repro.faults import (
    CRASH,
    PAUSE,
    FaultPlan,
    NodeFault,
    NodeFaultPlan,
    Watchdog,
)
from repro.faults.watchdog import diagnostic_dump
from repro.harness.parallel import result_fingerprint
from repro.isa import Assembler
from repro.isa.interpreter import spin_loops
from repro.sim.config import (
    ConsistencyModel,
    InterconnectConfig,
    SpeculationMode,
    SystemConfig,
    Topology,
)
from repro.sim.engine import SimulationError
from repro.system import System, SystemResult
from repro.workloads import locks
from repro.workloads.barriers import stencil
from repro.workloads.base import Workload
from repro.workloads.suite import standard_suite


def _build(config, workload, *, park=True, fastpath=True, **kwargs):
    """A System whose cores park (default) or never do."""
    with pytest.MonkeyPatch.context() as mp:
        if not park:
            mp.setattr(Core, "_install_spin_parking",
                       lambda self, program: None)
        return System(config, workload.programs, workload.initial_memory,
                      fastpath=fastpath, **kwargs)


def _run(config, workload, *, park=True, fastpath=True, watchdog=False,
         **kwargs):
    system = _build(config, workload, park=park, fastpath=fastpath,
                    **kwargs)
    result = system.run(watchdog=Watchdog(system) if watchdog else None)
    if workload.validate is not None:
        workload.validate(result)
    return system, result


def _assert_identical(parked, reference):
    assert result_fingerprint(parked) == result_fingerprint(reference)
    assert parked.events == reference.events
    assert [(c.fused_instructions, c.fused_blocks) for c in parked.cores] \
        == [(c.fused_instructions, c.fused_blocks) for c in reference.cores]


def _parked(system) -> int:
    return sum(core.parked_slots for core in system.cores)


def _mesh_config(n_cores: int) -> SystemConfig:
    return replace(SystemConfig(n_cores=n_cores, n_homes=8),
                   interconnect=InterconnectConfig(topology=Topology.MESH,
                                                   mesh_hop_latency=4))


# ------------------------------------------------------------- detection

class TestDetection:
    def _spin(self, build):
        asm = Assembler("t")
        build(asm)
        return spin_loops(asm.build())

    def test_sense_spin_is_detected(self):
        def build(asm):
            asm.li(2, 0x100)
            asm.label("wait")
            asm.load(31, base=2)
            asm.bne(31, 3, "wait")
            asm.halt()
        assert self._spin(build) == {1}

    def test_ticket_spin_through_a_jump_is_detected(self):
        def build(asm):
            asm.label("spin")
            asm.load(30, base=1, offset=64)
            asm.beq(30, 29, "done")
            asm.jmp("spin")
            asm.label("done")
            asm.halt()
        assert self._spin(build) == {0}

    @pytest.mark.parametrize("rd,rs", [(0, 1), (1, 1)],
                             ids=["rd-is-r0", "rd-is-base"])
    def test_load_must_write_a_register_other_than_its_base(self, rd, rs):
        def build(asm):
            asm.label("wait")
            asm.load(rd, base=rs)
            asm.bne(rd, 3, "wait")
            asm.halt()
        assert self._spin(build) == frozenset()

    def test_register_work_in_the_loop_disqualifies_it(self):
        def build(asm):
            asm.label("wait")
            asm.load(4, base=2)
            asm.addi(5, 5, 1)
            asm.bne(4, 3, "wait")
            asm.halt()
        assert self._spin(build) == frozenset()

    def test_continuation_is_at_most_four_branches(self):
        def build(asm, fillers):
            asm.label("wait")
            asm.load(4, base=2)
            for i in range(fillers):
                asm.beq(4, 3, f"out{i}")
            asm.bne(4, 3, "wait")
            for i in range(fillers):
                asm.label(f"out{i}")
            asm.halt()
        assert self._spin(lambda asm: build(asm, 3)) == {0}
        assert self._spin(lambda asm: build(asm, 4)) == frozenset()

    def test_detection_is_cached_and_restamped(self):
        asm = Assembler("t")
        asm.label("wait")
        asm.load(4, base=2)
        asm.bne(4, 3, "wait")
        asm.halt()
        program = asm.build()
        first = spin_loops(program)
        assert spin_loops(program) is first
        plain = Assembler("t").load(4, base=2).halt().build()
        object.__setattr__(program, "instructions", plain.instructions)
        assert spin_loops(program) == frozenset()


# ------------------------------------------------- parked vs. unparked

def _spin_dispatches(system) -> list:
    """Count every dispatch of a spin-loop load slot (reference runs);
    one ``[count]`` cell per slot."""
    counts = []
    for core in system.cores:
        for index in spin_loops(core.program):
            handler, instr = core._decoded[index]
            hits = [0]

            def counted(instr, _inner=handler, _hits=hits):
                _hits[0] += 1
                _inner(instr)

            core._decoded[index] = (counted, instr)
            core._entries[index] = (counted, (instr,))
            counts.append(hits)
    return counts


def test_mesh_stencil_parks_most_spin_slots_and_stays_identical():
    """The 16-core mesh stencil: parked, unparked and compat agree, and
    at least 90% of the barrier spin's event slots ran parked."""
    config = _mesh_config(16)
    workload = stencil(16, phases=2, cells_per_thread=4, compute_cycles=2)
    parked_system, parked = _run(config, workload)
    reference_system = _build(config, workload, park=False)
    counts = _spin_dispatches(reference_system)
    reference = reference_system.run()
    _, compat = _run(config, workload, fastpath=False)
    _assert_identical(parked, reference)
    assert result_fingerprint(compat) == result_fingerprint(reference)
    # Every barrier-spin iteration is three event slots: load, hit, bne.
    spin_slots = 3 * sum(hits[0] for hits in counts)
    assert _parked(parked_system) >= 0.9 * spin_slots
    assert _parked(reference_system) == 0


def _e1_points():
    suite = standard_suite(4, scale=0.2)
    workloads = [suite["locks-ticket"], suite["locks-tas"],
                 suite["barrier-stencil"],
                 locks.lock_contention(4, increments=6, lock_kind="ttas")]
    points = []
    for workload in workloads:
        for model in ConsistencyModel:
            for mode in (SpeculationMode.NONE, SpeculationMode.ON_DEMAND):
                for superblocks in (True, False):
                    tag = "if" if mode is SpeculationMode.ON_DEMAND else "base"
                    config = (SystemConfig(n_cores=4)
                              .with_consistency(model)
                              .with_speculation(mode)
                              .with_superblocks(superblocks))
                    label = (f"{workload.name}|{tag}-{model.value}|"
                             f"sb-{'on' if superblocks else 'off'}")
                    points.append(pytest.param(config, workload, id=label))
    return points


@pytest.mark.parametrize("config,workload", _e1_points())
def test_e1_points_parked_match_unparked(config, workload):
    parked_system, parked = _run(config, workload)
    _, reference = _run(config, workload, park=False)
    _assert_identical(parked, reference)
    if workload.name != "locks-tas":  # TAS spins on the atomic itself
        assert _parked(parked_system) > 0


def test_every_wake_slot_kind_is_exercised(monkeypatch):
    """Wakes land on every kind of chain slot -- load hit, branch, a
    fused span's interior, and the load -- so each replacement rule is
    covered by the parity proofs above."""
    seen = set()
    wake = Core._spin_wake

    def recording(self):
        park = self._park
        slot = self._parked_consumed(park) % park.shape.m
        pc = park.shape.pcs[slot]
        if slot == 0:
            seen.add("hit")
        elif slot == park.shape.m - 1:
            seen.add("load")
        elif any(span.start < pc < span.stop
                 for span in self._fused_spans.values()):
            seen.add("fused-interior")
        else:
            seen.add("branch")
        wake(self)

    monkeypatch.setattr(Core, "_spin_wake", recording)
    suite = standard_suite(4, scale=0.2)
    for model in ConsistencyModel:
        config = SystemConfig(n_cores=4).with_consistency(model)
        _run(config, suite["locks-ticket"])
        _run(config, suite["barrier-stencil"])
    assert seen == {"hit", "branch", "fused-interior", "load"}


def test_chains_run_out_and_repark():
    """A spin longer than one chain settles at the chain's final entry
    and parks again, still identical to the unparked run."""
    asm = Assembler("waiter")
    asm.li(2, 0x1000)
    asm.label("wait")
    asm.load(4, base=2)
    asm.beq(4, 0, "wait")
    asm.halt()
    setter = Assembler("setter")
    setter.li(2, 0x1000).li(5, 1)
    setter.exec_(20_000)
    setter.store(5, base=2)
    setter.halt()

    workload = Workload("long-spin", [asm.build(), setter.build()])
    config = SystemConfig(n_cores=2)
    parked_system, parked = _run(config, workload)
    _, reference = _run(config, workload, park=False)
    _assert_identical(parked, reference)
    # ~20k cycles at 4 cycles per iteration: several 512-iteration chains.
    assert parked_system.cores[0].parked_slots > 3 * 512 * 3


# ---------------------------------------- speculation: conservative window

_X, _S, _F, _T = 0x1000, 0x2000, 0x3000, 0x4000


def _window_workload(delay: int) -> Workload:
    """Core 0 takes a violation, re-executes, spins, then hits a fence.

    Core 0 loads X, buffers a store to a cold block, and speculates
    through a fence; core 1's write to X aborts that episode, which
    opens the conservative window.  Core 0 re-executes non-speculatively
    -- 30 straight-line instructions, then a spin on F that parks -- and
    finally buffers another cold store and meets a second fence: it
    speculates there only if the window has closed, which depends on
    every parked spin instruction being counted.
    """
    a = Assembler("t0")
    a.li(1, _X).li(2, _S).li(6, _F).li(7, _T).li(5, 1)
    a.load(3, base=1)
    a.store(5, base=2)
    a.fence()
    a.load(3, base=1)
    for _ in range(30):
        a.addi(8, 8, 1)
    a.label("spin")
    a.load(4, base=6)
    a.beq(4, 0, "spin")
    a.store(5, base=7)
    a.fence()
    a.halt()
    b = Assembler("t1")
    b.li(1, _X).li(5, 1).li(6, _F)
    b.exec_(200)
    b.store(5, base=1)
    b.exec_(delay)
    b.store(5, base=6)
    b.halt()
    return Workload("window", [a.build(), b.build()])


@pytest.mark.parametrize("delay,window_closes", [(180, False), (210, True),
                                                  (300, True)])
def test_parked_spin_counts_toward_the_conservative_window(delay,
                                                           window_closes):
    window = 64
    config = (SystemConfig(n_cores=2)
              .with_consistency(ConsistencyModel.TSO)
              .with_speculation(SpeculationMode.ON_DEMAND,
                                conservative_window=window))
    workload = _window_workload(delay)
    parked_system, parked = _run(config, workload)
    _, reference = _run(config, workload, park=False)
    _, compat = _run(config, workload, fastpath=False)
    _assert_identical(parked, reference)
    assert result_fingerprint(parked) == result_fingerprint(compat)
    stats = parked.stats.snapshot()
    assert stats["spec.0.violations"] == 1
    assert stats["spec.0.conservative_entries"] == 1
    # The second fence speculated iff the window had closed.
    assert stats["spec.0.episodes"] == (2 if window_closes else 1)
    spun = parked_system.cores[0].parked_slots
    assert spun > 0
    if delay == 210:
        # The parked spin alone is shorter than the window (two of
        # every three slots retire an instruction), yet it decides it.
        assert spun * 2 // 3 < window


# ------------------------------------------------- chaos and the watchdog

_LINK = FaultPlan(seed=5, drop_prob=0.05, jitter_prob=0.2, max_jitter=6)


def _chaos_workloads():
    return [locks.lock_contention(4, increments=5, lock_kind="ticket"),
            stencil(4, phases=3, cells_per_thread=4)]


@pytest.mark.parametrize("workload", _chaos_workloads(),
                         ids=lambda w: w.name)
def test_chaos_with_paused_spinner_matches_compat(workload, monkeypatch):
    """Dropped and delayed messages plus a pause that lands while its
    core is parked: the pause wakes it, and the run -- resumed -- stays
    identical to the unparked and compat runs."""
    parked_at_pause = []
    pause = Core.nf_pause

    def recording(self, resume_at):
        parked_at_pause.append(self._park is not None)
        return pause(self, resume_at)

    monkeypatch.setattr(Core, "nf_pause", recording)
    config = SystemConfig(n_cores=4)
    node = NodeFaultPlan(faults=(NodeFault(2, PAUSE, 700, 500),))
    parked_system, parked = _run(config, workload, watchdog=True,
                                 fault_plan=_LINK, node_plan=node)
    assert parked_at_pause == [True]
    _, reference = _run(config, workload, park=False, watchdog=True,
                        fault_plan=_LINK, node_plan=node)
    _, compat = _run(config, workload, fastpath=False, watchdog=True,
                     fault_plan=_LINK, node_plan=node)
    _assert_identical(parked, reference)
    assert result_fingerprint(parked) == result_fingerprint(compat)
    stats = parked.stats.snapshot()
    assert stats["nodefaults.pauses"] == stats["nodefaults.resumes"] == 1
    assert stats["faults.dropped"] > 0 and stats["faults.delayed"] > 0


def _holder_crash(fastpath: bool, park: bool = True):
    """Crash the ticket lock's holder: the others spin forever, so the
    run ends at the event budget with a diagnostic dump.  Fusion is off:
    a fused span retires its instructions at its head, so a dump taken
    mid-span reads differently from the compat engine's even unparked."""
    workload = locks.lock_contention(4, increments=5, lock_kind="ticket")
    node = NodeFaultPlan(faults=(NodeFault(0, CRASH, 550),))
    config = SystemConfig(n_cores=4, superblocks=False)
    system = _build(config, workload, park=park, fastpath=fastpath,
                    fault_plan=_LINK, node_plan=node)
    with pytest.raises(SimulationError) as excinfo:
        system.run(max_events=60_000, watchdog=Watchdog(system))
    return system, excinfo


def test_holder_crash_raises_the_same_error_as_compat():
    parked_system, parked = _holder_crash(fastpath=True)
    reference_system, reference = _holder_crash(fastpath=True, park=False)
    compat_system, compat = _holder_crash(fastpath=False)
    assert "exceeded 60000 events" in str(parked.value)
    assert "core 0: CRASHED (fail-stop) at cycle 550" in str(parked.value)
    for other_system, other in ((reference_system, reference),
                                (compat_system, compat)):
        assert type(parked.value) is type(other.value)
        assert str(parked.value) == str(other.value)
        assert parked_system.sim.now == other_system.sim.now
        assert (parked_system.sim.events_dispatched
                == other_system.sim.events_dispatched)
    # Core 0 died holding the lock: every survivor is in the ticket spin.
    for core in parked_system.cores[1:]:
        (load,) = spin_loops(core.program)
        assert load <= core.pc <= load + 2
        assert core.parked_slots > 0


@pytest.mark.parametrize("workload", _chaos_workloads(),
                         ids=lambda w: w.name)
def test_mid_run_dumps_settle_parked_cores(workload):
    """Dumps taken while cores are parked report the same pcs and
    committed counts as the unparked machine at every sampled cycle
    (odd stride, so samples land on every slot of the spin)."""
    config = SystemConfig(n_cores=4, superblocks=False)
    systems = [_build(config, workload, park=park) for park in (True, False)]
    for system in systems:
        for core in system.cores:
            core.start()
    parked_samples = 0
    for until in range(101, 4000, 13):
        dumps = []
        for system in systems:
            system.sim.run(until=until)
            dumps.append(diagnostic_dump(system))
        assert dumps[0] == dumps[1], f"dumps differ at cycle {until}"
        parked_samples += sum(core._park is not None
                              for core in systems[0].cores)
    assert parked_samples > 20
    for system in systems:
        system.sim.run()
    _assert_identical(*(SystemResult(system) for system in systems))


def test_compat_engine_never_parks():
    workload = stencil(4, phases=2, cells_per_thread=4)
    system, _ = _run(SystemConfig(n_cores=4), workload, fastpath=False)
    assert _parked(system) == 0
