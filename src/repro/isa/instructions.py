"""Instruction definitions for the workload micro-ISA.

The ISA is deliberately small but complete enough to express real
synchronisation idioms: spinlocks need an atomic (TAS/SWAP/CAS) plus a
conditional branch; message passing needs ordinary loads/stores plus
fences; barriers need fetch-and-add.  All memory operations move one
8-byte word and must be 8-byte aligned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: Number of general-purpose registers; register 0 is hardwired to zero.
REG_COUNT = 32

#: Bytes moved by every load/store/atomic.
WORD_BYTES = 8


class Opcode(enum.Enum):
    """All operations in the micro-ISA."""

    # ALU / immediates
    LI = enum.auto()        # rd <- imm
    MOV = enum.auto()       # rd <- rs
    ADD = enum.auto()       # rd <- rs + rt
    ADDI = enum.auto()      # rd <- rs + imm
    SUB = enum.auto()       # rd <- rs - rt
    MUL = enum.auto()       # rd <- rs * rt
    AND = enum.auto()       # rd <- rs & rt
    OR = enum.auto()        # rd <- rs | rt
    XOR = enum.auto()       # rd <- rs ^ rt
    SLT = enum.auto()       # rd <- 1 if rs < rt else 0
    SLTI = enum.auto()      # rd <- 1 if rs < imm else 0
    EXEC = enum.auto()      # pure computation taking `imm` cycles

    # Memory
    LOAD = enum.auto()      # rd <- mem[rs + imm]
    STORE = enum.auto()     # mem[rs + imm] <- rt

    # Atomic read-modify-write (each is a single memory transaction)
    TAS = enum.auto()       # rd <- mem[a]; mem[a] <- 1            (a = rs+imm)
    SWAP = enum.auto()      # rd <- mem[a]; mem[a] <- rt
    CAS = enum.auto()       # rd <- mem[a]; if rd == rt: mem[a] <- ru
    FETCH_ADD = enum.auto() # rd <- mem[a]; mem[a] <- rd + rt

    # Ordering
    FENCE = enum.auto()     # memory fence of the given FenceKind

    # Control flow
    BEQ = enum.auto()       # if rs == rt: goto label
    BNE = enum.auto()       # if rs != rt: goto label
    BLT = enum.auto()       # if rs <  rt: goto label
    BGE = enum.auto()       # if rs >= rt: goto label
    JMP = enum.auto()       # goto label
    NOP = enum.auto()
    HALT = enum.auto()      # thread finished


class FenceKind(enum.Enum):
    """Directional memory fences (RMO `membar` style).

    ``FULL`` orders everything before against everything after; the
    directional kinds order only the named pair.  Under SC and TSO most
    fences are no-ops because the model already provides the ordering;
    the one that matters under TSO is ``STORE_LOAD`` (and ``FULL``).
    """

    FULL = "full"
    STORE_LOAD = "store-load"
    STORE_STORE = "store-store"
    LOAD_LOAD = "load-load"
    LOAD_STORE = "load-store"

    @property
    def orders_store_load(self) -> bool:
        return self in (FenceKind.FULL, FenceKind.STORE_LOAD)

    @property
    def orders_store_store(self) -> bool:
        return self in (FenceKind.FULL, FenceKind.STORE_STORE)

    @property
    def orders_load_load(self) -> bool:
        return self in (FenceKind.FULL, FenceKind.LOAD_LOAD)

    @property
    def orders_load_store(self) -> bool:
        return self in (FenceKind.FULL, FenceKind.LOAD_STORE)


_ATOMICS = frozenset({Opcode.TAS, Opcode.SWAP, Opcode.CAS, Opcode.FETCH_ADD})
_BRANCHES = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP})
_ALU = frozenset({
    Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.ADDI, Opcode.SUB, Opcode.MUL,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLT, Opcode.SLTI, Opcode.EXEC,
})


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Field usage varies by opcode (see :class:`Opcode` comments).  ``ru``
    exists only for CAS (the swap value).  ``target`` holds the resolved
    branch destination (instruction index) after assembly.
    """

    op: Opcode
    rd: int = 0
    rs: int = 0
    rt: int = 0
    ru: int = 0
    imm: int = 0
    fence: Optional[FenceKind] = None
    target: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("rd", "rs", "rt", "ru"):
            reg = getattr(self, name)
            if not 0 <= reg < REG_COUNT:
                raise ValueError(f"{self.op.name}: register {name}={reg} out of range")
        if self.op is Opcode.FENCE and self.fence is None:
            raise ValueError("FENCE requires a FenceKind")
        if self.op is Opcode.EXEC and self.imm < 1:
            raise ValueError("EXEC latency must be >= 1")

    # -- classification helpers used by the core, LSU and speculation logic --

    @property
    def is_load(self) -> bool:
        return self.op is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.op is Opcode.STORE

    @property
    def is_atomic(self) -> bool:
        return self.op in _ATOMICS

    @property
    def is_memory(self) -> bool:
        return self.op is Opcode.LOAD or self.op is Opcode.STORE or self.op in _ATOMICS

    @property
    def is_fence(self) -> bool:
        return self.op is Opcode.FENCE

    @property
    def is_branch(self) -> bool:
        return self.op in _BRANCHES

    @property
    def is_alu(self) -> bool:
        return self.op in _ALU

    @property
    def writes_memory(self) -> bool:
        """True for stores and all atomics (CAS may or may not write, but
        it always needs write permission)."""
        return self.op is Opcode.STORE or self.op in _ATOMICS

    def __repr__(self) -> str:
        # Byte-identical to the dataclass-generated repr, which
        # ``point_fingerprint`` hashes for every instruction; the enum
        # reprs are looked up instead of rebuilt on every call.
        return (f"{type(self).__qualname__}(op={_OP_REPR[self.op]}, "
                f"rd={self.rd!r}, rs={self.rs!r}, rt={self.rt!r}, "
                f"ru={self.ru!r}, imm={self.imm!r}, "
                f"fence={_FENCE_REPR[self.fence]}, target={self.target!r})")

    def __str__(self) -> str:
        if self.op is Opcode.FENCE:
            return f"FENCE {self.fence.value}"
        if self.op in _BRANCHES:
            return f"{self.op.name} r{self.rs}, r{self.rt} -> @{self.target}"
        if self.is_memory:
            return f"{self.op.name} rd=r{self.rd} [r{self.rs}+{self.imm}] rt=r{self.rt}"
        return f"{self.op.name} rd=r{self.rd} rs=r{self.rs} rt=r{self.rt} imm={self.imm}"


_OP_REPR = {op: repr(op) for op in Opcode}
_FENCE_REPR = {kind: repr(kind) for kind in (None, *FenceKind)}
