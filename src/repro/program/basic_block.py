"""Basic blocks: straight-line sequences of instructions with one terminator.

A basic block exists in two forms during compilation:

* *Unscheduled*: a plain list of :class:`~repro.isa.instruction.Instruction`
  objects, one per line, with the optional control-flow instruction last.
  This is the form produced by the program builder and the assembler and
  consumed by the compiler passes.
* *Scheduled*: a list of :class:`~repro.isa.instruction.Bundle` objects with
  delay slots filled, produced by the VLIW scheduler and consumed by the
  linker and the simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import CompilerError
from ..isa.instruction import Bundle, Instruction
from ..isa.opcodes import ControlKind, Opcode


@dataclass
class BasicBlock:
    """A basic block within a function."""

    label: str
    instrs: list[Instruction] = field(default_factory=list)
    bundles: Optional[list[Bundle]] = None
    #: Maximum number of times the loop headed by this block may iterate per
    #: entry, if the block is a loop header and a bound is known.
    loop_bound: Optional[int] = None

    # -- structural queries -----------------------------------------------------

    @property
    def is_scheduled(self) -> bool:
        return self.bundles is not None

    def terminator(self) -> Optional[Instruction]:
        """Return the control-flow instruction ending this block, if any."""
        for instr in reversed(self.instrs):
            if instr.info.is_control_flow:
                return instr
        return None

    def body_instructions(self) -> list[Instruction]:
        """Return the instructions excluding the terminator."""
        return self.split_terminator()[0]

    def split_terminator(self) -> tuple[list[Instruction], Optional[Instruction]]:
        """Return the body and the terminator (or ``None``), in one scan."""
        instrs = self.instrs
        for index in range(len(instrs) - 1, -1, -1):
            if instrs[index].info.is_control_flow:
                body = list(instrs)
                del body[index]
                return body, instrs[index]
        return list(instrs), None

    def successors(self, fallthrough: Optional[str]) -> list[str]:
        """Labels of possible successor blocks.

        ``fallthrough`` is the label of the lexically following block (or
        ``None`` if this is the last block of the function).
        """
        term = self.terminator()
        succs: list[str] = []
        if term is None:
            if fallthrough is not None:
                succs.append(fallthrough)
            return succs
        info = term.info
        if info.control is ControlKind.BRANCH:
            if isinstance(term.target, str):
                succs.append(term.target)
            if not term.guard.is_always and fallthrough is not None:
                # Conditional branch: may fall through.
                succs.append(fallthrough)
            elif term.guard.is_always and term.opcode is Opcode.BR:
                pass  # unconditional branch, no fallthrough
            elif fallthrough is not None and term.opcode is Opcode.BRCF \
                    and not term.guard.is_always:
                pass  # already added above
        elif info.control is ControlKind.CALL:
            # Calls return to the next block.
            if fallthrough is not None:
                succs.append(fallthrough)
        elif info.control is ControlKind.RETURN:
            if not term.guard.is_always and fallthrough is not None:
                succs.append(fallthrough)
        # Remove duplicates while preserving order.
        seen = set()
        unique = []
        for label in succs:
            if label not in seen:
                seen.add(label)
                unique.append(label)
        return unique

    def calls(self) -> list[Instruction]:
        """Return all call instructions in this block."""
        return [i for i in self.instrs if i.info.control is ControlKind.CALL]

    # -- size metrics ------------------------------------------------------------

    def instruction_count(self) -> int:
        return len(self.instrs)

    def scheduled_size_bytes(self) -> int:
        """Code size of the scheduled block in bytes."""
        if self.bundles is None:
            raise CompilerError(f"block {self.label} is not scheduled")
        return sum(bundle.size_bytes for bundle in self.bundles)

    def scheduled_bundle_count(self) -> int:
        if self.bundles is None:
            raise CompilerError(f"block {self.label} is not scheduled")
        return len(self.bundles)

    # -- mutation helpers --------------------------------------------------------

    def append(self, instr: Instruction) -> None:
        self.instrs.append(instr)

    def extend(self, instrs: Iterable[Instruction]) -> None:
        self.instrs.extend(instrs)

    def replace_instructions(self, instrs: list[Instruction]) -> None:
        self.instrs = list(instrs)
        self.bundles = None

    def copy(self) -> "BasicBlock":
        return BasicBlock(
            label=self.label,
            instrs=list(self.instrs),
            bundles=list(self.bundles) if self.bundles is not None else None,
            loop_bound=self.loop_bound,
        )

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        if self.bundles is not None:
            lines.extend(f"    {bundle}" for bundle in self.bundles)
        else:
            lines.extend(f"    {instr}" for instr in self.instrs)
        return "\n".join(lines)
