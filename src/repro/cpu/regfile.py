"""Architectural register file with checkpoint support."""

from __future__ import annotations

from typing import List

from repro.isa.instructions import REG_COUNT
from repro.isa import semantics


class RegisterFile:
    """32 general-purpose 64-bit registers; register 0 reads as zero."""

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs: List[int] = [0] * REG_COUNT

    def read(self, index: int) -> int:
        if not 0 <= index < REG_COUNT:
            raise IndexError(f"register {index} out of range")
        return 0 if index == 0 else self._regs[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < REG_COUNT:
            raise IndexError(f"register {index} out of range")
        if index != 0:
            self._regs[index] = semantics.to_word(value)

    def snapshot(self) -> List[int]:
        """A copy of all register values (for checkpointing)."""
        return list(self._regs)

    def __repr__(self) -> str:
        nonzero = {i: v for i, v in enumerate(self._regs) if v}
        return f"<RegisterFile {nonzero}>"
