"""Linker: lays out a scheduled program in memory and resolves symbols.

The linker assigns byte addresses to every bundle, function and data item,
resolves symbolic branch/call/data targets to numeric addresses, and produces
an :class:`Image` that the simulators, the encoder and the WCET analysis all
operate on.

Address-space layout (see :class:`repro.config.MemoryMap`):

* code, constants, static data, heap objects and the shadow stack live in the
  shared main memory;
* scratchpad (``local``) data lives in a separate, core-private scratchpad
  address space starting at 0;
* the stack cache's backing store grows downwards from ``stack_top``.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Optional

from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import LinkError
from ..isa.instruction import Bundle, Instruction
from ..isa.opcodes import Format, Opcode
from .program import DataSpace, Program


@dataclass(frozen=True)
class FunctionRecord:
    """Placement of one function (or sub-function) in the image."""

    name: str
    entry_addr: int
    size_bytes: int
    is_subfunction: bool = False
    parent: Optional[str] = None


@dataclass(frozen=True)
class BlockRecord:
    """Placement of one basic block in the image."""

    function: str
    label: str
    addr: int
    size_bytes: int
    num_bundles: int


@dataclass
class Image:
    """A linked program: address-mapped bundles, functions, blocks and data."""

    program: Program
    config: PatmosConfig
    entry_addr: int = 0
    bundles: dict[int, Bundle] = field(default_factory=dict)
    functions: list[FunctionRecord] = field(default_factory=list)
    blocks: list[BlockRecord] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    #: Initial main-memory contents: word address -> word value.
    initial_memory: dict[int, int] = field(default_factory=dict)
    #: Initial scratchpad contents: word address -> word value.
    initial_scratchpad: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._func_by_addr: dict[int, FunctionRecord] = {}
        self._func_by_name: dict[str, FunctionRecord] = {}
        self._block_by_addr: dict[int, BlockRecord] = {}
        self._block_by_key: dict[tuple[str, str], BlockRecord] = {}
        self._func_sorted: list[FunctionRecord] = []
        self._func_entries: list[int] = []
        #: Pure caches of derived data, by name: the content hash, the
        #: engine's pre-decoded programs (repro.sim.engine), the WCET
        #: layout (repro.wcet.analyzer) and the co-simulation traces
        #: (repro.cmp.replay).  Their owners fill them on demand.
        self._caches: dict[str, object] = {}

    def __getstate__(self) -> dict:
        # Cached entries may hold objects that cannot be pickled (pre-bound
        # evaluation functions); copies and unpickled images start empty.
        return {**self.__dict__, "_caches": {}}

    def content_hash(self) -> str:
        """Stable hex digest of the linked image's content.

        Covers everything that determines execution: the placed bundles
        (address and rendered text, which spells out opcodes, operands,
        guards and immediates), function and block placement, symbols, the
        entry point and the initial memory/scratchpad contents.  Two images
        hash equally iff a simulator cannot tell them apart, so the digest
        pins compiler output across processes and machines (the golden
        schedules of ``tests/test_compiler.py``).  Memoised per image.
        """
        cached = self._caches.get("content_hash")
        if cached is None:
            payload = {
                "entry": self.entry_addr,
                "bundles": [(addr, str(self.bundles[addr]))
                            for addr in sorted(self.bundles)],
                "functions": [(f.name, f.entry_addr, f.size_bytes,
                               f.is_subfunction, f.parent)
                              for f in self.functions],
                "blocks": [(b.function, b.label, b.addr, b.size_bytes,
                            b.num_bundles) for b in self.blocks],
                "symbols": sorted(self.symbols.items()),
                "memory": sorted(self.initial_memory.items()),
                "scratchpad": sorted(self.initial_scratchpad.items()),
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            self._caches["content_hash"] = cached
        return cached

    def _index(self) -> None:
        self._func_by_addr = {f.entry_addr: f for f in self.functions}
        self._func_by_name = {f.name: f for f in self.functions}
        self._block_by_addr = {b.addr: b for b in self.blocks}
        self._block_by_key = {(b.function, b.label): b for b in self.blocks}
        self._func_sorted = sorted(self.functions, key=lambda f: f.entry_addr)
        self._func_entries = [f.entry_addr for f in self._func_sorted]

    # -- lookups -----------------------------------------------------------------

    def bundle_at(self, addr: int) -> Bundle:
        try:
            return self.bundles[addr]
        except KeyError as exc:
            raise LinkError(f"no bundle at address {addr:#x}") from exc

    def has_bundle(self, addr: int) -> bool:
        return addr in self.bundles

    def function_at(self, addr: int) -> FunctionRecord:
        """Function record whose entry is exactly ``addr``."""
        try:
            return self._func_by_addr[addr]
        except KeyError as exc:
            raise LinkError(f"no function entry at address {addr:#x}") from exc

    def function_record(self, name: str) -> FunctionRecord:
        try:
            return self._func_by_name[name]
        except KeyError as exc:
            raise LinkError(f"no function record for {name!r}") from exc

    def function_containing(self, addr: int) -> FunctionRecord:
        """Function record whose code range contains ``addr``.

        Resolved with a binary search over the entry addresses built at
        :meth:`_index` time (like every other lookup, mutating the record
        lists afterwards requires re-running ``_index``); this sits on the
        simulator's call/return path.
        """
        pos = bisect_right(self._func_entries, addr) - 1
        if pos >= 0:
            record = self._func_sorted[pos]
            if addr < record.entry_addr + record.size_bytes:
                return record
        raise LinkError(f"address {addr:#x} is not inside any function")

    def block_at(self, addr: int) -> Optional[BlockRecord]:
        """Block record starting exactly at ``addr`` (or ``None``)."""
        return self._block_by_addr.get(addr)

    def block_record(self, function: str, label: str) -> BlockRecord:
        try:
            return self._block_by_key[(function, label)]
        except KeyError as exc:
            raise LinkError(f"no block {label!r} in function {function!r}") from exc

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError as exc:
            raise LinkError(f"undefined symbol {name!r}") from exc

    def code_size_bytes(self) -> int:
        return sum(record.size_bytes for record in self.functions)


def _data_base(space: DataSpace, config: PatmosConfig) -> int:
    mm = config.memory_map
    if space is DataSpace.CONST:
        return mm.const_base
    if space is DataSpace.DATA:
        return mm.data_base
    if space is DataSpace.HEAP:
        return mm.heap_base
    if space is DataSpace.LOCAL:
        return 0
    raise LinkError(f"unknown data space {space}")  # pragma: no cover


def _resolve_instruction(instr: Instruction, addr: int, image: Image,
                         function_name: str,
                         local_labels: dict[str, int]) -> Instruction:
    """Return a copy of ``instr`` with symbolic targets resolved to addresses."""
    if instr.target is None or isinstance(instr.target, int):
        return instr
    name = instr.target
    fmt = instr.info.fmt

    if fmt is Format.BRANCH:
        if instr.opcode is Opcode.BRCF and name in image.symbols \
                and (function_name, name) not in image._block_by_key:
            return instr.with_target(image.symbols[name])
        if name in local_labels:
            return instr.with_target(local_labels[name])
        if name in image.symbols:
            return instr.with_target(image.symbols[name])
        raise LinkError(
            f"{function_name}: branch to undefined label {name!r} at {addr:#x}")
    if fmt is Format.CALL:
        if name not in image.symbols:
            raise LinkError(f"{function_name}: call to undefined symbol {name!r}")
        return instr.with_target(image.symbols[name])
    # Long immediates / li with a symbolic operand: materialise the address.
    if name not in image.symbols:
        raise LinkError(f"{function_name}: undefined symbol {name!r}")
    return replace(instr, imm=image.symbols[name], target=None)


def link(program: Program, config: PatmosConfig = DEFAULT_CONFIG) -> Image:
    """Link a scheduled program into an executable :class:`Image`."""
    if not program.is_scheduled:
        raise LinkError(
            "program is not scheduled; run the compiler (e.g. "
            "repro.compiler.compile_program) before linking")
    program.validate_call_targets()

    image = Image(program=program, config=config)
    mm = config.memory_map

    # ---- pass 1: assign addresses --------------------------------------------
    addr = mm.code_base
    block_layout: list[tuple[str, str, int]] = []  # (function, label, addr)
    for func in program.functions_in_order():
        entry = addr
        func_blocks: list[BlockRecord] = []
        for block in func.blocks:
            block_addr = addr
            size = 0
            for bundle in block.bundles:
                size += bundle.size_bytes
            image.blocks.append(BlockRecord(
                function=func.name, label=block.label, addr=block_addr,
                size_bytes=size, num_bundles=len(block.bundles)))
            block_layout.append((func.name, block.label, block_addr))
            addr += size
            func_blocks.append(image.blocks[-1])
        size_bytes = addr - entry
        image.functions.append(FunctionRecord(
            name=func.name, entry_addr=entry, size_bytes=size_bytes,
            is_subfunction=func.is_subfunction, parent=func.parent))
        if func.name in image.symbols:
            raise LinkError(f"duplicate symbol {func.name!r}")
        image.symbols[func.name] = entry

    # ---- data layout -----------------------------------------------------------
    cursors = {
        DataSpace.CONST: mm.const_base,
        DataSpace.DATA: mm.data_base,
        DataSpace.HEAP: mm.heap_base,
        DataSpace.LOCAL: 0,
    }
    for item in program.data_in_order():
        base = cursors[item.space]
        if item.name in image.symbols:
            raise LinkError(f"duplicate symbol {item.name!r}")
        image.symbols[item.name] = base
        target = (image.initial_scratchpad if item.space is DataSpace.LOCAL
                  else image.initial_memory)
        for index, word in enumerate(item.words):
            target[base + 4 * index] = word & 0xFFFF_FFFF
        cursors[item.space] = base + item.size_bytes
        if item.space is DataSpace.LOCAL and cursors[item.space] > \
                config.scratchpad.size_bytes:
            raise LinkError(
                f"scratchpad data overflows the scratchpad "
                f"({cursors[item.space]} > {config.scratchpad.size_bytes} bytes)")

    image._index()

    # ---- pass 2: resolve targets and place bundles ------------------------------
    for func in program.functions_in_order():
        local_labels = {
            blk_label: blk_addr
            for f_name, blk_label, blk_addr in block_layout
            if f_name == func.name
        }
        for block in func.blocks:
            record = image.block_record(func.name, block.label)
            bundle_addr = record.addr
            for bundle in block.bundles:
                resolved = [
                    _resolve_instruction(instr, bundle_addr, image, func.name,
                                         local_labels)
                    for instr in bundle.slots
                ]
                # A bundle with nothing to resolve was validated when it was
                # scheduled, so the image shares it.
                image.bundles[bundle_addr] = (
                    bundle if all(new is old for new, old
                                  in zip(resolved, bundle.slots))
                    else Bundle(*resolved))
                bundle_addr += bundle.size_bytes

    entry_record = image.function_record(program.entry)
    image.entry_addr = entry_record.entry_addr
    return image
