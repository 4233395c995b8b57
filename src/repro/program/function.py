"""Function representation: an ordered list of basic blocks plus metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import CompilerError
from ..isa.instruction import Instruction
from ..isa.opcodes import ControlKind, Opcode


@dataclass
class Function:
    """A Patmos function.

    Blocks are kept in layout order; the first block is the entry.  Function
    attributes carry information used by the compiler passes and the WCET
    analysis (frame size for the stack cache, sub-function linkage for the
    method cache, loop bounds).
    """

    name: str
    blocks: list = field(default_factory=list)
    #: Number of stack-cache words reserved by this function's frame.
    frame_words: int = 0
    #: True if this function was produced by the method-cache function
    #: splitter; sub-functions are entered via ``brcf`` rather than ``call``.
    is_subfunction: bool = False
    #: Name of the original function for sub-functions.
    parent: Optional[str] = None
    #: Free-form attributes (used by workloads/tests).
    attrs: dict = field(default_factory=dict)

    # -- block access ------------------------------------------------------------

    def block(self, label: str):
        """Return the block with the given label."""
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block {label!r} in function {self.name}")

    def block_labels(self) -> list[str]:
        return [blk.label for blk in self.blocks]

    def entry_block(self):
        if not self.blocks:
            raise CompilerError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def fallthrough_label(self, label: str) -> Optional[str]:
        """Label of the block lexically following ``label`` (or ``None``)."""
        labels = self.block_labels()
        index = labels.index(label)
        if index + 1 < len(labels):
            return labels[index + 1]
        return None

    def __iter__(self) -> Iterator:
        return iter(self.blocks)

    # -- whole-function queries ----------------------------------------------------

    def instructions(self) -> list[Instruction]:
        """All instructions of the function in layout order (unscheduled view)."""
        out: list[Instruction] = []
        for blk in self.blocks:
            out.extend(blk.instrs)
        return out

    def callees(self) -> list[str]:
        """Names of functions called (via ``call``) from this function.

        Each name appears once, in the order of its first call, so that the
        call graph and every report walking it are the same in every process.
        """
        names: dict[str, None] = {}
        for instr in self.instructions():
            if instr.opcode is Opcode.CALL and isinstance(instr.target, str):
                names[instr.target] = None
        return list(names)

    def has_calls(self) -> bool:
        return any(
            instr.info.control is ControlKind.CALL for instr in self.instructions()
        )

    @property
    def is_scheduled(self) -> bool:
        return all(blk.is_scheduled for blk in self.blocks)

    def scheduled_size_bytes(self) -> int:
        """Code size of the scheduled function in bytes."""
        return sum(blk.scheduled_size_bytes() for blk in self.blocks)

    def instruction_count(self) -> int:
        return sum(blk.instruction_count() for blk in self.blocks)

    def loop_bounds(self) -> dict[str, int]:
        """Mapping of loop-header labels to their iteration bounds."""
        return {
            blk.label: blk.loop_bound
            for blk in self.blocks
            if blk.loop_bound is not None
        }

    def copy(self) -> "Function":
        return Function(
            name=self.name,
            blocks=[blk.copy() for blk in self.blocks],
            frame_words=self.frame_words,
            is_subfunction=self.is_subfunction,
            parent=self.parent,
            attrs=dict(self.attrs),
        )

    def __str__(self) -> str:
        header = f".func {self.name}"
        return "\n".join([header] + [str(blk) for blk in self.blocks])
