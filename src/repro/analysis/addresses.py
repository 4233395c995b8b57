"""Address-range analysis: classify every memory access of a function.

Each load/store computes ``rs1 + imm``; the fixpoint states track register
values as *symbol + offset interval*, so most accesses resolve to a named
data item with a bounded byte-offset range.  The lint pass reports
accesses whose typed opcode disagrees with the region their address
resolves to, and accesses provably outside their item's extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa.opcodes import Format, MemType
from ..program.cfg import ControlFlowGraph
from ..program.program import DataSpace, Program
from .domain import const_val
from .fixpoint import FixpointResult

#: Region names used in reports.
REGION_BY_SPACE = {
    DataSpace.CONST: "static",
    DataSpace.DATA: "static",
    DataSpace.HEAP: "heap",
    DataSpace.LOCAL: "scratchpad",
}

#: The region each typed access opcode is architecturally meant for.
REGION_BY_MEM_TYPE = {
    MemType.STATIC: "static",
    MemType.OBJECT: "heap",
    MemType.STACK: "stack",
    MemType.LOCAL: "scratchpad",
    MemType.MAIN: "main",
}


@dataclass(frozen=True)
class AccessFact:
    """Classification of one memory access site."""

    function: str
    block: str
    index: int
    opcode: str
    is_store: bool
    mem_type: str
    #: Region the *address* resolves to ("static", "heap", "scratchpad",
    #: "stack", "unknown").
    region: str
    symbol: Optional[str] = None
    offset_lo: Optional[int] = None
    offset_hi: Optional[int] = None
    #: False when the access is provably outside the item's extent,
    #: True when provably inside, None when undecidable.
    in_bounds: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "opcode": self.opcode,
            "is_store": self.is_store,
            "mem_type": self.mem_type,
            "region": self.region,
            "symbol": self.symbol,
            "offset": [self.offset_lo, self.offset_hi],
            "in_bounds": self.in_bounds,
        }


def classify_accesses(cfg: ControlFlowGraph, fix: FixpointResult,
                      program: Program) -> list[AccessFact]:
    """Classify every load/store of the function's reachable blocks."""
    facts = []
    for label in sorted(fix.in_states):
        for position, (instr, state) in enumerate(fix.block_states(label)):
            fmt = instr.info.fmt
            if fmt not in (Format.LOAD, Format.STORE):
                continue
            mem_type = instr.info.mem_type
            address = state.gpr(instr.rs1)
            if instr.imm:
                address = address.add(const_val(instr.imm))
            symbol = address.base
            region = "unknown"
            offset_lo = offset_hi = None
            in_bounds = None
            if mem_type is MemType.STACK:
                # Stack-cache accesses are relative to the stack pointer,
                # not a data symbol; the region is structural.
                region = "stack"
            elif symbol is not None and symbol in program.data:
                item = program.data_item(symbol)
                region = REGION_BY_SPACE.get(item.space, "unknown")
                offset = address.offset
                if not offset.is_top:
                    offset_lo, offset_hi = offset.lo, offset.hi
                    width = instr.info.width or 1
                    if 0 <= offset.lo and offset.hi + width <= item.size_bytes:
                        in_bounds = True
                    elif (offset.lo >= item.size_bytes
                          or offset.hi + width <= 0):
                        in_bounds = False
            facts.append(AccessFact(
                function=cfg.function.name,
                block=label,
                index=position,
                opcode=instr.opcode.value,
                is_store=fmt is Format.STORE,
                mem_type=mem_type.name.lower() if mem_type else "none",
                region=region,
                symbol=symbol,
                offset_lo=offset_lo,
                offset_hi=offset_hi,
                in_bounds=in_bounds,
            ))
    return facts


def region_mismatches(facts: list[AccessFact]) -> list[AccessFact]:
    """Accesses whose typed opcode targets a different region than the
    address resolves to (e.g. a scratchpad load of a static symbol)."""
    mismatches = []
    for fact in facts:
        expected = REGION_BY_MEM_TYPE.get(MemType[fact.mem_type.upper()]) \
            if fact.mem_type != "none" else None
        if fact.region == "unknown" or expected is None:
            continue
        if expected == "main":
            continue  # typed bypass accesses may target any region
        if fact.region != expected:
            mismatches.append(fact)
    return mismatches


def out_of_bounds(facts: list[AccessFact]) -> list[AccessFact]:
    """Accesses provably outside their resolved item's extent."""
    return [fact for fact in facts if fact.in_bounds is False]


__all__ = [
    "AccessFact",
    "REGION_BY_MEM_TYPE",
    "REGION_BY_SPACE",
    "classify_accesses",
    "out_of_bounds",
    "region_mismatches",
]
