"""Superblock fusion boundary cases (trace-compiled execution, ISSUE 7).

The detector (:func:`repro.isa.interpreter.superblock_spans`) may fuse
only core-private straight-line code: every memory/fence/RMW opcode, a
branch *target*, and HALT must break a span, and fused dispatch must be
invisible across speculation checkpoint/rollback.  These tests pin the
structural rules directly and the timing-core behaviour end to end.
"""

import gc
import weakref

import pytest

from repro.cpu import core as core_module
from repro.harness.experiments import e9_plan
from repro.harness.parallel import result_fingerprint
from repro.isa import Assembler, semantics
from repro.isa.instructions import Opcode
from repro.isa.interpreter import _dispatch_pairs, superblock_spans
from repro.sim.config import SpeculationMode, SystemConfig
from repro.system import System
from repro.workloads.randmix import random_mix


def _spans(program):
    return [(s.start, s.stop, s.has_branch) for s in superblock_spans(program)]


def _run(config, programs, initial_memory=None):
    return System(config, programs, initial_memory).run()


# ------------------------------------------------------------- detection

class TestSpanDetection:
    def test_pure_alu_run_fuses(self):
        asm = Assembler("t").li(1, 1).li(2, 2).add(3, 1, 2).halt()
        assert _spans(asm.build()) == [(0, 3, False)]

    def test_branch_target_breaks_span_not_just_branch(self):
        # Slots 0-3 are straight-line ALU, but slot 2 is a branch target:
        # a jump may enter mid-run, so fusion must split there even
        # though no boundary *opcode* intervenes.
        asm = Assembler("t")
        asm.li(1, 1).li(2, 0)
        asm.label("loop")
        asm.add(2, 2, 1)
        asm.sub(3, 2, 1)
        asm.bne(2, 1, "loop")
        asm.halt()
        program = asm.build()
        assert program.labels["loop"] == 2
        assert _spans(program) == [(0, 2, False), (2, 5, True)]

    def test_span_head_may_be_a_branch_target(self):
        # The head is an entry point, not a mid-span entry: a span may
        # start at a target.
        asm = Assembler("t")
        asm.label("spin")
        asm.add(1, 1, 2)
        asm.sub(3, 1, 2)
        asm.jmp("spin")
        program = asm.build()
        assert _spans(program) == [(0, 3, True)]

    @pytest.mark.parametrize("emit,opcode", [
        (lambda a: a.load(3, base=9), Opcode.LOAD),
        (lambda a: a.store(3, base=9), Opcode.STORE),
        (lambda a: a.swap(3, base=9, value=4), Opcode.SWAP),
        (lambda a: a.cas(3, base=9, expected=4, new=5), Opcode.CAS),
        (lambda a: a.fetch_add(3, base=9, addend=4), Opcode.FETCH_ADD),
        (lambda a: a.tas(3, base=9), Opcode.TAS),
        (lambda a: a.fence(), Opcode.FENCE),
    ], ids=lambda p: p.name if isinstance(p, Opcode) else "")
    def test_every_memory_and_fence_opcode_breaks_fusion(self, emit, opcode):
        asm = Assembler("t").li(1, 1).li(2, 2)
        emit(asm)
        asm.add(4, 1, 2).add(5, 4, 1).halt()
        program = asm.build()
        assert program.instructions[2].op is opcode
        assert _spans(program) == [(0, 2, False), (3, 5, False)]

    def test_halt_breaks_fusion_and_trailing_run_needs_successor(self):
        # ALU straight into HALT: the run before HALT fuses, HALT does
        # not join it (it drains the store buffer / ends the thread).
        asm = Assembler("t").li(1, 1).li(2, 2).halt()
        assert _spans(asm.build()) == [(0, 2, False)]

    def test_single_instruction_program_has_no_spans(self):
        assert _spans(Assembler("t").halt().build()) == []

    def test_single_alu_instruction_is_not_fused(self):
        # Minimum span length is two: fusing one instruction buys
        # nothing and would only add dispatch indirection.
        asm = Assembler("t").li(1, 7).halt()
        assert _spans(asm.build()) == []

    def test_trailing_run_without_halt_is_still_detected(self):
        # End of text is a span boundary like any other; a well-formed
        # program ends in HALT/JMP, so the detector does not special-case
        # a missing successor.
        asm = Assembler("t").li(1, 1).add(2, 1, 1)
        assert _spans(asm.build()) == [(0, 2, False)]

    def test_detection_cache_restamps_on_mutated_program(self):
        asm = Assembler("t").li(1, 1).li(2, 2).add(3, 1, 2).halt()
        program = asm.build()
        first = superblock_spans(program)
        assert _spans(program) == [(0, 3, False)]
        # Mutate the (frozen) program the only way possible: replace the
        # instructions tuple.  The cache must re-detect, not serve spans
        # for the old text.
        trimmed = Assembler("t").li(1, 1).halt().build()
        object.__setattr__(program, "instructions", trimmed.instructions)
        assert superblock_spans(program) is not first
        assert _spans(program) == []


# ----------------------------------------------------- decode-cache stamp

def test_dispatch_pairs_cache_restamps_on_mutated_program():
    """Regression: ``_dispatch_pairs`` once cached on nothing -- a
    mutated/rebuilt ``Program`` could serve stale closures.  The cache
    is now stamped with the instructions tuple it decoded."""
    asm = Assembler("t").li(1, 4).halt()
    program = asm.build()
    stale = _dispatch_pairs(program)
    assert _dispatch_pairs(program) is stale  # cache hit on same text
    replacement = Assembler("t").store(1, base=2).halt().build()
    object.__setattr__(program, "instructions", replacement.instructions)
    fresh = _dispatch_pairs(program)
    assert fresh is not stale
    assert [instr.op for _, instr in fresh] == [Opcode.STORE, Opcode.HALT]


# ----------------------------------------------------- fused execution

def _alu_loop_program():
    """A branchy, ALU-heavy single-thread program with fusable spans."""
    asm = Assembler("t")
    asm.li(1, 20).li(2, 1).li(3, 0)
    asm.label("loop")
    asm.add(3, 3, 1)
    asm.mul(4, 3, 2)
    asm.sub(1, 1, 2)
    asm.bne(1, 0, "loop")
    asm.halt()
    return asm.build()


def test_fused_execution_matches_unfused_registers_and_cycles():
    program = _alu_loop_program()
    assert superblock_spans(program), "expected fusable spans"
    config = SystemConfig(n_cores=1)
    fused = _run(config, [program])
    plain = _run(config.with_superblocks(False), [program])
    assert fused.cores[0].registers == plain.cores[0].registers
    assert fused.cycles == plain.cycles
    assert fused.events == plain.events
    assert fused.fused_instructions() > 0
    assert plain.fused_instructions() == 0


def test_single_instruction_program_runs_with_superblocks_on():
    result = _run(SystemConfig(n_cores=1), [Assembler("t").halt().build()])
    # HALT retires no instruction; the run must simply terminate with
    # nothing fused and nothing left pending.
    assert result.events == 1
    assert result.cores[0].instructions == 0
    assert result.fused_instructions() == 0


def test_fusion_counters_reconcile_with_span_structure():
    program = _alu_loop_program()
    result = _run(SystemConfig(n_cores=1), [program])
    # Every fused dispatch retires at least two instructions, and fused
    # retirement can never exceed total retirement.
    assert result.mean_superblock_length() >= 2.0
    assert 0 < result.fused_instructions() <= result.cores[0].instructions


def test_superblocks_invisible_across_speculation_rollback():
    """Rollback safety: the 4-core barrier-stencil InvisiFence point
    takes at least one speculation violation (checkpoint + rollback),
    and fusion must leave its entire outcome byte-identical."""
    spec = next(s for s in e9_plan(core_counts=(4,), scale=0.2)
                if s.label == "4|barrier-stencil|if-sc")
    fused = _run(spec.config, spec.workload.programs,
                 spec.workload.initial_memory)
    plain = _run(spec.config.with_superblocks(False),
                 spec.workload.programs, spec.workload.initial_memory)
    violations = sum(v for k, v in fused.stats.snapshot().items()
                     if k.endswith(".violations"))
    assert violations > 0, "expected at least one rollback on this point"
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.events == plain.events
    assert fused.cycles == plain.cycles


# ------------------------------------------------------ code-object cache

def _head(system, core_id, start=0):
    """The fused closure installed at one core's span head slot."""
    return system.cores[core_id]._decoded[start][0]


def _branchy_head_program(a, b, c, imm_a, imm_b, trailing_halts):
    """Slots 0-3 fuse (li, li, add, beq); only the registers, the
    immediates and -- via the number of trailing HALTs -- the branch
    target vary with the arguments."""
    asm = Assembler("t").li(a, imm_a).li(b, imm_b).add(c, a, b)
    asm.beq(c, 0, "out")
    for _ in range(trailing_halts):
        asm.halt()
    asm.label("out")
    asm.halt()
    return asm.build()


def test_span_shapes_share_one_code_object():
    first = _branchy_head_program(1, 2, 3, 5, 7, trailing_halts=1)
    second = _branchy_head_program(4, 5, 6, 9, -3, trailing_halts=2)
    assert first.instructions[3].target != second.instructions[3].target
    assert _spans(first) == _spans(second) == [(0, 4, True)]
    config = SystemConfig(n_cores=2)
    system = System(config, [first, second])
    head0, head1 = _head(system, 0), _head(system, 1)
    assert head0 is not head1
    assert head0.__code__ is head1.__code__
    assert head0.__qualname__ == "superblock core0@0"
    assert head1.__qualname__ == "superblock core1@0"
    result = system.run()
    assert result.cores[0].registers[3] == 12
    assert result.cores[1].registers[6] == 6

    # An identical second machine compiles nothing new.
    entries = len(core_module._SUPERBLOCK_CODE)
    System(config, [first, second])
    assert len(core_module._SUPERBLOCK_CODE) == entries


def test_speculating_and_plain_cores_get_different_code():
    # Only a speculation-capable core's closure carries the
    # ``_spec.active`` guard, so the same span has two shapes.
    program = _branchy_head_program(1, 2, 3, 5, 7, trailing_halts=1)
    config = SystemConfig(n_cores=1)
    plain = _head(System(config, [program]), 0)
    spec = _head(System(config.with_speculation(SpeculationMode.ON_DEMAND),
                        [program]), 0)
    assert plain.__code__ is not spec.__code__
    assert "_spec" in spec.__code__.co_varnames
    assert "_spec" not in plain.__code__.co_varnames


def test_finished_system_is_not_pinned_by_the_code_cache():
    program = _alu_loop_program()
    system = System(SystemConfig(n_cores=2), [program, program])
    assert system.config.superblocks
    result = system.run()
    assert result.fused_instructions() > 0
    sim = weakref.ref(system.sim)
    del system, result
    gc.collect()
    assert sim() is None


@pytest.mark.parametrize("imm", [2 ** 63, -(2 ** 63) - 1],
                         ids=["above-int64", "below-int64"])
def test_slti_outside_int64_uses_semantics_fallback(imm):
    """SLTI with an immediate no signed 64-bit register can reach is the
    one opcode the codegen cannot inline; it calls the shared
    ``semantics`` evaluator instead, fused or not."""
    asm = Assembler("t").li(1, 10).li(2, 1).li(3, -4)
    asm.label("loop")
    asm.slti(4, 1, imm)
    asm.slti(5, 3, imm)
    asm.add(6, 6, 4)
    asm.add(7, 7, 5)
    asm.sub(1, 1, 2)
    asm.bne(1, 0, "loop")
    asm.halt()
    program = asm.build()
    config = SystemConfig(n_cores=1)
    system = System(config, [program])
    head = _head(system, 0, start=3)
    assert semantics._ALU_EVAL[Opcode.SLTI] in head.__defaults__
    fused = system.run()
    plain = _run(config.with_superblocks(False), [program])
    assert fused.fused_instructions() > 0
    assert fused.cores[0].registers == plain.cores[0].registers
    assert fused.cycles == plain.cycles
    assert result_fingerprint(fused) == result_fingerprint(plain)
    expected = 10 if imm > 0 else 0
    assert fused.cores[0].registers[6] == expected
    assert fused.cores[0].registers[7] == expected


def test_shape_cache_saturates_on_random_programs(monkeypatch):
    # Were a per-span literal to leak back into the generated source,
    # every seed would add fresh entries and this bound would break.
    monkeypatch.setattr(core_module, "_SUPERBLOCK_CODE", {})
    config = SystemConfig(n_cores=8)
    for seed in range(1, 41):
        workload = random_mix(8, seed=seed)
        System(config, workload.programs, workload.initial_memory)
    assert 0 < len(core_module._SUPERBLOCK_CODE) < 64
