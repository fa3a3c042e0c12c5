"""Tests for the micro-ISA: instructions, assembler, semantics."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.isa import Assembler, FenceKind, Opcode, Program
from repro.isa.instructions import Instruction, REG_COUNT, WORD_BYTES
from repro.isa.program import AssemblyError
from repro.isa import semantics


class TestInstruction:
    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, rd=REG_COUNT)
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, rs=-1)

    def test_fence_requires_kind(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.FENCE)
        Instruction(Opcode.FENCE, fence=FenceKind.FULL)

    def test_exec_latency_positive(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.EXEC, imm=0)

    def test_classification_load(self):
        load = Instruction(Opcode.LOAD, rd=1, rs=2)
        assert load.is_load and load.is_memory
        assert not load.writes_memory and not load.is_atomic

    def test_classification_store(self):
        store = Instruction(Opcode.STORE, rs=1, rt=2)
        assert store.is_store and store.writes_memory and store.is_memory

    def test_classification_atomics(self):
        for op in (Opcode.TAS, Opcode.SWAP, Opcode.CAS, Opcode.FETCH_ADD):
            instr = Instruction(op, rd=1, rs=2)
            assert instr.is_atomic and instr.is_memory and instr.writes_memory

    def test_classification_branches(self):
        for op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP):
            assert Instruction(op).is_branch

    def test_classification_alu(self):
        assert Instruction(Opcode.ADD).is_alu
        assert Instruction(Opcode.EXEC, imm=3).is_alu
        assert not Instruction(Opcode.NOP).is_alu

    def test_str_renders(self):
        assert "FENCE" in str(Instruction(Opcode.FENCE, fence=FenceKind.FULL))
        assert "LOAD" in str(Instruction(Opcode.LOAD, rd=1, rs=2))


class TestFenceKind:
    def test_full_orders_everything(self):
        f = FenceKind.FULL
        assert f.orders_store_load and f.orders_store_store
        assert f.orders_load_load and f.orders_load_store

    def test_directional_fences_order_only_their_pair(self):
        assert FenceKind.STORE_LOAD.orders_store_load
        assert not FenceKind.STORE_LOAD.orders_store_store
        assert FenceKind.STORE_STORE.orders_store_store
        assert not FenceKind.STORE_STORE.orders_store_load
        assert FenceKind.LOAD_LOAD.orders_load_load
        assert FenceKind.LOAD_STORE.orders_load_store


class TestAssembler:
    def test_build_appends_halt(self):
        program = Assembler("t").li(1, 5).build()
        assert program[len(program) - 1].op is Opcode.HALT

    def test_halt_not_duplicated(self):
        program = Assembler("t").li(1, 5).halt().build()
        assert len(program) == 2

    def test_label_resolution(self):
        asm = Assembler("t")
        asm.li(1, 0)
        asm.label("target")
        asm.addi(1, 1, 1)
        asm.jmp("target")
        program = asm.build()
        jmp = program[2]
        assert jmp.op is Opcode.JMP and jmp.target == 1

    def test_forward_label_resolution(self):
        asm = Assembler("t")
        asm.jmp("end")
        asm.li(1, 99)
        asm.label("end")
        asm.halt()
        program = asm.build()
        assert program[0].target == 2

    def test_undefined_label_raises(self):
        asm = Assembler("t").jmp("nowhere")
        with pytest.raises(AssemblyError, match="nowhere"):
            asm.build()

    def test_duplicate_label_raises(self):
        asm = Assembler("t").label("x")
        with pytest.raises(AssemblyError):
            asm.label("x")

    def test_unaligned_offset_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler("t").load(1, base=2, offset=4)
        with pytest.raises(AssemblyError):
            Assembler("t").store(1, base=2, offset=3)

    def test_aligned_offsets_accepted(self):
        Assembler("t").load(1, base=2, offset=WORD_BYTES * 3)

    def test_fluent_chaining(self):
        program = (Assembler("t").li(1, 1).li(2, 2).add(3, 1, 2).build())
        assert len(program) == 4  # + HALT

    def test_listing_contains_labels(self):
        asm = Assembler("t")
        asm.label("start").nop().jmp("start")
        listing = asm.build().listing()
        assert "start:" in listing

    def test_static_counts(self):
        asm = Assembler("t")
        asm.li(1, 0x100)
        asm.load(2, base=1)
        asm.store(2, base=1)
        asm.tas(3, base=1)
        asm.fence(FenceKind.FULL)
        asm.beq(2, 3, "end")
        asm.label("end")
        counts = asm.build().static_counts()
        assert counts["load"] == 1
        assert counts["store"] == 1
        assert counts["atomic"] == 1
        assert counts["fence"] == 1
        assert counts["branch"] == 1
        assert counts["alu"] == 1


class TestSemantics:
    def test_word_wraparound(self):
        assert semantics.to_word(2 ** 64) == 0
        assert semantics.to_word(-1) == 2 ** 64 - 1

    def test_signed_conversion(self):
        assert semantics.to_signed(2 ** 64 - 1) == -1
        assert semantics.to_signed(5) == 5

    @pytest.mark.parametrize("op,rs,rt,expected", [
        (Opcode.ADD, 2, 3, 5),
        (Opcode.SUB, 2, 3, 2 ** 64 - 1),
        (Opcode.MUL, 4, 5, 20),
        (Opcode.AND, 0b110, 0b011, 0b010),
        (Opcode.OR, 0b110, 0b011, 0b111),
        (Opcode.XOR, 0b110, 0b011, 0b101),
        (Opcode.SLT, 1, 2, 1),
        (Opcode.SLT, 2, 1, 0),
        (Opcode.MOV, 7, 0, 7),
    ])
    def test_alu_ops(self, op, rs, rt, expected):
        instr = Instruction(op, rd=1, rs=2, rt=3)
        assert semantics.alu_result(instr, rs, rt) == expected

    def test_slt_is_signed(self):
        instr = Instruction(Opcode.SLT, rd=1, rs=2, rt=3)
        minus_one = semantics.to_word(-1)
        assert semantics.alu_result(instr, minus_one, 0) == 1

    def test_li_and_slti_use_imm(self):
        assert semantics.alu_result(Instruction(Opcode.LI, imm=42), 0, 0) == 42
        assert semantics.alu_result(Instruction(Opcode.SLTI, rs=1, imm=10), 5, 0) == 1

    def test_alu_result_rejects_non_alu(self):
        with pytest.raises(ValueError):
            semantics.alu_result(Instruction(Opcode.LOAD), 0, 0)

    @pytest.mark.parametrize("op,rs,rt,taken", [
        (Opcode.BEQ, 1, 1, True),
        (Opcode.BEQ, 1, 2, False),
        (Opcode.BNE, 1, 2, True),
        (Opcode.BLT, 1, 2, True),
        (Opcode.BGE, 2, 2, True),
        (Opcode.JMP, 0, 0, True),
    ])
    def test_branches(self, op, rs, rt, taken):
        assert semantics.branch_taken(Instruction(op), rs, rt) is taken

    def test_blt_signed(self):
        minus = semantics.to_word(-5)
        assert semantics.branch_taken(Instruction(Opcode.BLT), minus, 0)

    def test_effective_address(self):
        instr = Instruction(Opcode.LOAD, rd=1, rs=2, imm=16)
        assert semantics.effective_address(instr, 0x100) == 0x110

    def test_atomic_tas(self):
        loaded, new = semantics.atomic_result(Instruction(Opcode.TAS), 0, 0, 0)
        assert (loaded, new) == (0, 1)
        loaded, new = semantics.atomic_result(Instruction(Opcode.TAS), 1, 0, 0)
        assert (loaded, new) == (1, 1)

    def test_atomic_swap(self):
        loaded, new = semantics.atomic_result(Instruction(Opcode.SWAP), 5, 9, 0)
        assert (loaded, new) == (5, 9)

    def test_atomic_cas_success_and_failure(self):
        cas = Instruction(Opcode.CAS)
        assert semantics.atomic_result(cas, 7, 7, 42) == (7, 42)
        assert semantics.atomic_result(cas, 8, 7, 42) == (8, None)

    def test_atomic_fetch_add(self):
        fa = Instruction(Opcode.FETCH_ADD)
        assert semantics.atomic_result(fa, 10, 3, 0) == (10, 13)

    def test_atomic_result_rejects_non_atomic(self):
        with pytest.raises(ValueError):
            semantics.atomic_result(Instruction(Opcode.LOAD), 0, 0, 0)


# ------------------------------------------------------------------ repr
#
# ``point_fingerprint`` hashes ``repr(instr)``, so the hand-written
# ``Instruction.__repr__`` must stay byte-identical to the dataclass
# field format it replaced.

def _dataclass_repr(instr: Instruction) -> str:
    fields = ", ".join(f"{f.name}={getattr(instr, f.name)!r}"
                       for f in dataclasses.fields(instr))
    return f"{type(instr).__qualname__}({fields})"


_registers = st.integers(min_value=0, max_value=REG_COUNT - 1)
_wide_ints = st.integers(min_value=-2**64, max_value=2**64)


@given(op=st.sampled_from(Opcode), rd=_registers, rs=_registers,
       rt=_registers, ru=_registers, imm=_wide_ints,
       fence=st.none() | st.sampled_from(FenceKind),
       target=st.none() | _wide_ints)
def test_repr_matches_dataclass_field_format(op, rd, rs, rt, ru, imm,
                                             fence, target):
    if op is Opcode.FENCE and fence is None:
        fence = FenceKind.FULL
    if op is Opcode.EXEC and imm < 1:
        imm = 1 - imm
    instr = Instruction(op, rd=rd, rs=rs, rt=rt, ru=ru, imm=imm,
                        fence=fence, target=target)
    assert repr(instr) == _dataclass_repr(instr)


def test_repr_covers_every_opcode_and_fence_kind():
    for op in Opcode:
        for fence in (None, *FenceKind):
            if op is Opcode.FENCE and fence is None:
                continue
            instr = Instruction(op, rd=1, rs=2, rt=3, ru=4,
                                imm=2**63 if op is Opcode.EXEC else -2**63,
                                fence=fence, target=7)
            assert repr(instr) == _dataclass_repr(instr)
