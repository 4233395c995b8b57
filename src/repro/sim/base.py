"""Shared execution engine of the Patmos simulators.

:class:`BaseSimulator` implements the full architectural semantics of the
Patmos ISA — fully predicated execution, exposed delay slots for loads,
multiplies, branches and calls, split main-memory accesses, stack-cache
control instructions and the method-cache call/return protocol — but charges
no stall cycles for the memory hierarchy.  Used directly it is the
*functional* simulator; :class:`repro.sim.cycle.CycleSimulator` subclasses it
and plugs in the time-predictable caches and the memory controller to obtain
cycle-accurate timing.

Exposed-delay semantics
-----------------------

Patmos never stalls to hide operand latencies (Section 3.2): an instruction
that reads a result before the producer's delay has elapsed observes the *old*
register value.  The simulator reproduces this by committing register writes
only after the corresponding number of issued bundles.  With ``strict=True``
such premature reads raise :class:`~repro.errors.ScheduleViolation` instead,
which is how the test-suite validates that the compiler's scheduler respects
all delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import ScheduleViolation, SimulationError, StackCacheError
from ..isa.instruction import Bundle, Instruction
from ..isa.opcodes import (
    ControlKind,
    Format,
    MemType,
    Opcode,
    control_delay_slots,
    result_delay_slots,
)
from ..isa.registers import SpecialReg
from ..memory.main_memory import MainMemory
from ..memory.scratchpad import Scratchpad
from ..program.linker import FunctionRecord, Image
from ..caches.stack_cache import StackCache
from .executor import alu_op, compare_op, multiply, predicate_op
from .results import SimResult, StallBreakdown, TraceEntry
from .state import ArchState, to_signed, to_unsigned


@dataclass
class _PendingWrite:
    due_issue: int
    kind: str  # "gpr", "pred" or "special"
    index: object
    value: object


@dataclass
class _PendingControl:
    target: int
    countdown: int
    is_call: bool
    call_target_name: Optional[str] = None


@dataclass
class _PendingMainLoad:
    rd: int
    value: int
    ready_cycle: int


#: The execution engines every simulator accepts: the pre-decoded micro-op
#: engine (the default) and the reference interpreter it is checked against.
ENGINES = ("fast", "reference")


class BaseSimulator:
    """Functional Patmos simulator (architectural semantics, no timing).

    Two execution engines (:data:`ENGINES`) share these semantics: the
    readable reference interpreter implemented by :meth:`_step`/
    :meth:`_execute` below, and the pre-decoded fast engine of
    :mod:`repro.sim.engine` (the default), which compiles the image into a
    micro-op table once and is several times faster.  Pass
    ``engine="reference"`` to run the interpreter.  Subclasses change the
    timing hooks below, never the execution internals (``_step``,
    ``_execute`` and the helpers they dispatch to), which only the
    interpreter runs.
    """

    def __init__(self, image: Image, config: Optional[PatmosConfig] = None,
                 strict: bool = False, trace: bool = False,
                 engine: str = "fast",
                 memory: Optional[MainMemory] = None):
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; use one of {list(ENGINES)}")
        self.image = image
        self.config = config or image.config or DEFAULT_CONFIG
        self.strict = strict
        self.trace_enabled = trace
        self.engine = engine

        self.state = ArchState()
        # An externally provided memory (e.g. a bank view of the multicore
        # system's shared memory) replaces the private per-core memory.
        self.memory = memory if memory is not None \
            else MainMemory(self.config.memory.size_bytes)
        self.memory.load_words(image.initial_memory)
        self.scratchpad = Scratchpad(self.config.scratchpad)
        self.scratchpad.load_words(image.initial_scratchpad)
        self.stack_cache = self._make_stack_cache()

        stack_top = self.config.memory_map.stack_top
        self.state.write_special(SpecialReg.ST, stack_top)
        self.state.write_special(SpecialReg.SS, stack_top)

        self.cycles = 0
        self.issued = 0
        self.instructions = 0
        self.nops = 0
        self.stalls = StallBreakdown()
        self.block_counts: dict[tuple[str, str], int] = {}
        self.call_counts: dict[str, int] = {}
        self.trace: list[TraceEntry] = []

        self._pending_writes: list[_PendingWrite] = []
        self._pending_control: Optional[_PendingControl] = None
        self._pending_main_load: Optional[_PendingMainLoad] = None
        self._pc = image.entry_addr
        self._current_func: FunctionRecord = image.function_at(image.entry_addr)
        self._started = False
        self._context = None  # the fast engine's (engine_context)

    # ------------------------------------------------------------------
    # Hooks overridden by the cycle-accurate simulator
    # ------------------------------------------------------------------

    def _make_stack_cache(self) -> StackCache:
        return StackCache(self.config.stack_cache, self.config.memory,
                          self.config.memory_map.stack_top)

    def _fetch_stall(self, addr: int, bundle: Bundle) -> int:
        """Stall cycles charged for fetching a bundle (conventional I$ only)."""
        return 0

    def _method_cache_stall(self, record: FunctionRecord) -> int:
        """Stall cycles for a method-cache access at call/return/brcf."""
        return 0

    def _cached_read_stall(self, mem_type: MemType, addr: int) -> int:
        """Stall cycles of a typed cached read (C$, D$, S$, SP)."""
        return 0

    def _cached_write_stall(self, mem_type: MemType, addr: int) -> int:
        """Stall cycles of a typed cached write."""
        return 0

    def _stack_control_stall(self, opcode: Opcode, words: int) -> int:
        """Stall cycles of an sres/sens/sfree (spill/fill traffic)."""
        return 0

    def _main_store_stall(self, addr: int, value: int, width: int) -> int:
        """Stall cycles of an uncached main-memory store."""
        return 0

    def _split_load_latency(self) -> int:
        """Cycles until an uncached split load completes."""
        return 0

    def _split_load_wait(self, ready_cycle: int) -> int:
        """Stall cycles of a ``wmem`` whose split load is ready at
        ``ready_cycle``."""
        return max(0, ready_cycle - self.cycles)

    def _engine_fetch_hook(self):
        """Per-fetch stall callback for the pre-decoded engine.

        ``None`` means fetches never stall, letting the engine skip the call
        per bundle; subclasses that charge fetch stalls return the callable.
        """
        if type(self)._fetch_stall is BaseSimulator._fetch_stall:
            return None
        return self._fetch_stall

    # ------------------------------------------------------------------
    # Register access with exposed-delay semantics
    # ------------------------------------------------------------------

    def _commit_due_writes(self) -> None:
        remaining = []
        for write in self._pending_writes:
            if write.due_issue <= self.issued:
                if write.kind == "gpr":
                    self.state.write_gpr(write.index, write.value)
                elif write.kind == "pred":
                    self.state.write_pred(write.index, write.value)
                else:
                    self.state.write_special(write.index, write.value)
            else:
                remaining.append(write)
        self._pending_writes = remaining

    def _schedule_write(self, kind: str, index, value, delay_slots: int) -> None:
        # r0 and p0 are hard-wired; writes to them disappear and must not be
        # tracked as pending (they would trip the strict stale-read check).
        if kind in ("gpr", "pred") and index == 0:
            return
        self._pending_writes.append(_PendingWrite(
            due_issue=self.issued + 1 + delay_slots, kind=kind, index=index,
            value=value))

    def _check_stale(self, kind: str, index) -> None:
        if not self.strict:
            return
        for write in self._pending_writes:
            if write.kind == kind and write.index == index:
                raise ScheduleViolation(
                    f"read of {kind} {index} at bundle {self.issued} before the "
                    f"result of a previous instruction is available "
                    f"(due at bundle {write.due_issue})")

    def _read_gpr(self, index: int) -> int:
        self._check_stale("gpr", index)
        return self.state.read_gpr(index)

    def _read_pred(self, index: int) -> bool:
        self._check_stale("pred", index)
        return self.state.read_pred(index)

    def _read_special(self, reg: SpecialReg) -> int:
        self._check_stale("special", reg)
        return self.state.read_special(reg)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _on_start(self) -> None:
        """Hook invoked once before the first bundle is issued."""

    def _ensure_started(self) -> None:
        if not self._started:
            self._started = True
            self._on_start()

    def _memory_event_source(self):
        """Object whose ``events`` counter ticks on shared-memory transfers.

        ``None`` (the functional simulator has no shared bus) disables
        run-until-memory-event stepping; the cycle simulator returns its
        arbiter port when the core is attached to a shared memory.
        """
        return None

    def engine_context(self):
        """This simulator's :class:`~repro.sim.engine.EngineContext`.

        Built at the first call, on the started simulator, and kept until
        :meth:`result` is read after the halt, so every fast-engine step
        resumes it.  A caller that drives its ``advance`` directly (the
        RTOS task runtimes) reads the clock from :attr:`cycles` and
        everything else through :meth:`result`, which exports the context
        first.
        """
        context = self._context
        if context is None:
            from .engine import EngineContext
            self._ensure_started()
            context = self._context = EngineContext(self)
        return context

    def run(self, max_bundles: int = 2_000_000) -> SimResult:
        """Run until ``halt`` (or until ``max_bundles`` bundles were issued)."""
        self.run_step(max_bundles=max_bundles)
        return self.result()

    def run_step(self, until_cycle: Optional[int] = None,
                 stop_on_memory_event: bool = False,
                 max_bundles: int = 2_000_000) -> str:
        """Resumable stepping: run until a scheduling point and return why.

        The simulator keeps all in-flight state (pending writes, delayed
        control transfers, outstanding split loads) between calls, so a
        global multicore scheduler can interleave several cores on one clock
        without losing the pre-decoded fast path: the fast engine resumes
        the simulator's one :meth:`engine_context` and exports its state on
        every return, also on exceptions.  A caller may move :attr:`cycles`
        forward between calls (an ECC correction charge); the next call
        runs from the moved clock.  Returns one of:

        * ``"halted"`` — the program executed ``halt``;
        * ``"memory_event"`` — ``stop_on_memory_event`` was set and the core
          performed at least one arbitrated shared-memory transfer (the
          bundle containing the transfer completes before control returns);
        * ``"cycle_limit"`` — the core's clock reached ``until_cycle``.

        ``until_cycle`` is exclusive: the core stops *before* issuing a
        bundle once ``cycles >= until_cycle``, so a caller advancing the
        global clock never lets a core run past the horizon unobserved.
        """
        self._ensure_started()
        source = self._memory_event_source() if stop_on_memory_event else None
        events_before = source.events if source is not None else 0
        if self.engine == "fast" and not self.state.halted:
            context = self.engine_context()
            try:
                context.advance(max_bundles, sync=False,
                                until_cycle=until_cycle, event_source=source)
            finally:
                context.export()
        else:
            while not self.state.halted:
                if self.issued >= max_bundles:
                    raise SimulationError(
                        f"program did not halt within {max_bundles} bundles")
                if until_cycle is not None and self.cycles >= until_cycle:
                    break
                if source is not None and source.events != events_before:
                    break
                self._step()
        if self.state.halted:
            return "halted"
        if source is not None and source.events != events_before:
            return "memory_event"
        return "cycle_limit"

    def _step(self) -> None:
        self._commit_due_writes()

        pc = self._pc
        block = self.image.block_at(pc)
        if block is not None:
            key = (block.function, block.label)
            self.block_counts[key] = self.block_counts.get(key, 0) + 1

        bundle = self.image.bundle_at(pc)
        fetch_stall = self._fetch_stall(pc, bundle)
        self.stalls.icache += fetch_stall

        stall = fetch_stall
        for instr in bundle.instructions():
            stall += self._execute(instr, pc)
            self.instructions += 1
            if instr.is_nop:
                self.nops += 1

        if self.trace_enabled:
            self.trace.append(TraceEntry(cycle=self.cycles, addr=pc,
                                         text=str(bundle)))

        self.issued += 1
        self.cycles += 1 + stall

        next_pc = pc + bundle.size_bytes
        if self._pending_control is not None:
            self._pending_control.countdown -= 1
            if self._pending_control.countdown == 0:
                control = self._pending_control
                self._pending_control = None
                if control.is_call:
                    # The return offset is the fall-through point after the
                    # delay slots, relative to the caller's entry.
                    self.state.write_special(
                        SpecialReg.SRO, next_pc - self._current_func.entry_addr)
                next_pc = control.target
                if not self.state.halted:
                    self._current_func = self.image.function_containing(next_pc)
        self._pc = next_pc

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------

    def _guard_true(self, instr: Instruction) -> bool:
        value = self._read_pred(instr.guard.pred)
        return (not value) if instr.guard.negate else value

    def _execute(self, instr: Instruction, pc: int) -> int:
        """Execute one instruction; returns the stall cycles it caused."""
        info = instr.info
        fmt = info.fmt

        if fmt is Format.NOP:
            return 0
        if not self._guard_true(instr):
            return 0

        if fmt in (Format.ALU_R, Format.ALU_I, Format.ALU_L):
            a = self._read_gpr(instr.rs1)
            b = (self._read_gpr(instr.rs2) if fmt is Format.ALU_R
                 else to_unsigned(instr.imm))
            self._schedule_write("gpr", instr.rd, alu_op(instr.opcode, a, b), 0)
            return 0
        if fmt is Format.LI:
            if instr.opcode is Opcode.LIL:
                value = to_unsigned(to_signed(to_unsigned(instr.imm)))
            else:  # LIH: merge into the upper half, keeping the lower half
                old = self._read_gpr(instr.rd)
                value = (old & 0xFFFF) | ((instr.imm & 0xFFFF) << 16)
            self._schedule_write("gpr", instr.rd, value, 0)
            return 0
        if fmt is Format.MUL:
            low, high = multiply(instr.opcode, self._read_gpr(instr.rs1),
                                 self._read_gpr(instr.rs2))
            delay = result_delay_slots(info, self.config.pipeline)
            self._schedule_write("special", SpecialReg.SL, low, delay)
            self._schedule_write("special", SpecialReg.SH, high, delay)
            return 0
        if fmt in (Format.CMP_R, Format.CMP_I):
            a = self._read_gpr(instr.rs1)
            b = (self._read_gpr(instr.rs2) if fmt is Format.CMP_R
                 else to_unsigned(instr.imm))
            self._schedule_write("pred", instr.pd, compare_op(instr.opcode, a, b), 0)
            return 0
        if fmt is Format.PRED:
            a = self._read_pred(instr.ps1)
            b = self._read_pred(instr.ps2) if instr.ps2 is not None else False
            self._schedule_write("pred", instr.pd,
                                 predicate_op(instr.opcode, a, b), 0)
            return 0
        if fmt is Format.LOAD:
            return self._execute_load(instr)
        if fmt is Format.STORE:
            return self._execute_store(instr)
        if fmt is Format.WAIT:
            return self._execute_wmem()
        if fmt is Format.STACK:
            return self._execute_stack_control(instr)
        if fmt in (Format.BRANCH, Format.CALL, Format.CALLR, Format.RET):
            return self._execute_control(instr, pc)
        if fmt is Format.MTS:
            value = self._read_gpr(instr.rs1)
            self.state.write_special(instr.special, value)
            if instr.special is SpecialReg.ST:
                self.stack_cache.st = value
                self.stack_cache.ss = max(self.stack_cache.ss, value)
            if instr.special is SpecialReg.SS:
                self.stack_cache.ss = value
            return 0
        if fmt is Format.MFS:
            self._schedule_write("gpr", instr.rd,
                                 self._read_special(instr.special), 0)
            return 0
        if fmt is Format.HALT:
            self.state.halted = True
            return 0
        if fmt is Format.OUT:
            self.state.output.append(to_signed(self._read_gpr(instr.rs1)))
            return 0
        raise SimulationError(f"cannot execute {instr}")  # pragma: no cover

    # -- memory accesses -------------------------------------------------------------

    def _effective_address(self, instr: Instruction) -> int:
        base = self._read_gpr(instr.rs1)
        addr = to_unsigned(base + instr.imm)
        if instr.info.mem_type is MemType.STACK:
            # Stack accesses are relative to the stack-top pointer.
            addr = to_unsigned(self._read_special(SpecialReg.ST) + base + instr.imm)
        return addr

    def _execute_load(self, instr: Instruction) -> int:
        info = instr.info
        mem_type = info.mem_type
        addr = self._effective_address(instr)

        if mem_type is MemType.MAIN:
            if self._pending_main_load is not None:
                raise SimulationError(
                    "split load issued while another main-memory load is pending")
            value = self.memory.read(addr, info.width, signed=info.signed)
            latency = self._split_load_latency()
            self._pending_main_load = _PendingMainLoad(
                rd=instr.rd, value=to_unsigned(value),
                ready_cycle=self.cycles + latency)
            return 0

        if mem_type is MemType.LOCAL:
            value = self.scratchpad.read(addr, info.width, signed=info.signed)
            stall = self._cached_read_stall(mem_type, addr)
        else:
            if mem_type is MemType.STACK and self.strict and \
                    not self.stack_cache.contains(addr, info.width):
                raise StackCacheError(
                    f"stack access at {addr:#x} outside the cached window "
                    f"[{self.stack_cache.st:#x}, {self.stack_cache.ss:#x})")
            value = self.memory.read(addr, info.width, signed=info.signed)
            stall = self._cached_read_stall(mem_type, addr)
        delay = result_delay_slots(info, self.config.pipeline)
        self._schedule_write("gpr", instr.rd, to_unsigned(value), delay)
        self.stalls.data_cache += stall
        return stall

    def _execute_store(self, instr: Instruction) -> int:
        info = instr.info
        mem_type = info.mem_type
        addr = self._effective_address(instr)
        value = self._read_gpr(instr.rs2)

        if mem_type is MemType.LOCAL:
            self.scratchpad.write(addr, value, info.width)
            stall = self._cached_write_stall(mem_type, addr)
            self.stalls.data_cache += stall
            return stall
        if mem_type is MemType.MAIN:
            stall = self._main_store_stall(addr, value, info.width)
            self.memory.write(addr, value, info.width)
            self.stalls.store_buffer += stall
            return stall
        if mem_type is MemType.STACK and self.strict and \
                not self.stack_cache.contains(addr, info.width):
            raise StackCacheError(
                f"stack store at {addr:#x} outside the cached window "
                f"[{self.stack_cache.st:#x}, {self.stack_cache.ss:#x})")
        self.memory.write(addr, value, info.width)
        stall = self._cached_write_stall(mem_type, addr)
        self.stalls.data_cache += stall
        return stall

    def _execute_wmem(self) -> int:
        pending = self._pending_main_load
        if pending is None:
            return 0
        self._pending_main_load = None
        stall = self._split_load_wait(pending.ready_cycle)
        self._schedule_write("gpr", pending.rd, pending.value, 0)
        self.stalls.split_load_wait += stall
        return stall

    def _execute_stack_control(self, instr: Instruction) -> int:
        words = instr.imm
        stall = self._stack_control_stall(instr.opcode, words)
        if instr.opcode is Opcode.SRES:
            self.stack_cache.reserve(words)
        elif instr.opcode is Opcode.SENS:
            self.stack_cache.ensure(words)
        else:
            self.stack_cache.free(words)
        self.state.write_special(SpecialReg.ST, self.stack_cache.st)
        self.state.write_special(SpecialReg.SS, self.stack_cache.ss)
        self.stalls.stack_cache += stall
        return stall

    # -- control flow ------------------------------------------------------------------

    def _resolved_target(self, instr: Instruction) -> int:
        if not isinstance(instr.target, int):
            raise SimulationError(
                f"unresolved control-flow target {instr.target!r}; "
                "simulate a linked image")
        return instr.target

    def _take_control(self, target: int, delay_slots: int, is_call: bool,
                      call_name: Optional[str] = None) -> None:
        if self._pending_control is not None:
            raise SimulationError(
                "control-transfer issued inside the delay slots of another "
                "control transfer")
        self._pending_control = _PendingControl(
            target=target, countdown=delay_slots + 1, is_call=is_call,
            call_target_name=call_name)

    def _execute_control(self, instr: Instruction, pc: int) -> int:
        info = instr.info
        pipeline = self.config.pipeline
        delay = control_delay_slots(info, pipeline)

        if info.control is ControlKind.BRANCH:
            target = self._resolved_target(instr)
            stall = 0
            if instr.opcode is Opcode.BRCF:
                record = self.image.function_containing(target)
                stall = self._method_cache_stall(record)
                self.stalls.method_cache += stall
            self._take_control(target, delay, is_call=False)
            return stall

        if info.control is ControlKind.CALL:
            if instr.opcode is Opcode.CALLR:
                target = self._read_gpr(instr.rs1)
            else:
                target = self._resolved_target(instr)
            record = self.image.function_at(target)
            stall = self._method_cache_stall(record)
            self.stalls.method_cache += stall
            self.call_counts[record.name] = self.call_counts.get(record.name, 0) + 1
            self.state.write_special(SpecialReg.SRB, self._current_func.entry_addr)
            self._take_control(target, delay, is_call=True, call_name=record.name)
            return stall

        # Return
        base = self._read_special(SpecialReg.SRB)
        offset = self._read_special(SpecialReg.SRO)
        record = self.image.function_containing(base)
        stall = self._method_cache_stall(record)
        self.stalls.method_cache += stall
        self._take_control(to_unsigned(base + offset), delay, is_call=False)
        return stall

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self) -> SimResult:
        context = self._context
        if context is not None:
            context.export()
            if self.state.halted:
                # A halted simulator never steps again.  The context refers
                # back to the simulator, so dropping it here frees both by
                # reference counting instead of leaving the pair to the
                # cycle collector.
                self._context = None
        return SimResult(
            cycles=self.cycles,
            bundles=self.issued,
            instructions=self.instructions,
            nops=self.nops,
            output=list(self.state.output),
            stalls=self.stalls,
            block_counts=dict(self.block_counts),
            call_counts=dict(self.call_counts),
            cache_stats=self._cache_stats(),
            trace=self.trace if self.trace_enabled else None,
            halted=self.state.halted,
            issue_width=2 if self.config.pipeline.dual_issue else 1,
        )

    def _cache_stats(self) -> dict[str, dict]:
        return {"stack_cache": vars(self.stack_cache.stats).copy()}
