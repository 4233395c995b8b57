"""repro — a reproduction of the Patmos time-predictable dual-issue processor.

The package provides, in Python:

* the Patmos instruction set (:mod:`repro.isa`), an assembler
  (:mod:`repro.asm`) and a program builder (:mod:`repro.program`);
* the time-predictable memory hierarchy — method cache, stack cache, split
  data caches, scratchpad, burst memory controller and TDMA arbitration
  (:mod:`repro.caches`, :mod:`repro.memory`);
* functional and cycle-accurate simulators (:mod:`repro.sim`);
* WCET-aware compilation passes — VLIW scheduling, if-conversion, single-path
  transformation, function splitting and stack-cache allocation
  (:mod:`repro.compiler`);
* static WCET analysis built on IPET (:mod:`repro.wcet`) and a differential
  WCET-vs-simulation soundness conformance harness (:mod:`repro.verify`,
  ``python -m repro.verify``);
* a chip-multiprocessor model: true shared-memory multicore co-simulation
  with pluggable arbitration (TDMA, round-robin, priority)
  (:mod:`repro.cmp`);
* an FPGA timing/resource model reproducing the register-file evaluation of
  the paper (:mod:`repro.hw`);
* the kernel workloads used by the benchmarks (:mod:`repro.workloads`).

Quickstart
----------

>>> from repro import ProgramBuilder, compile_and_link, CycleSimulator
>>> b = ProgramBuilder("hello")
>>> f = b.function("main")
>>> f.li("r1", 21)
>>> f.emit("add", "r2", "r1", "r1")
>>> f.out("r2")
>>> f.halt()
>>> image, _ = compile_and_link(b.build())
>>> CycleSimulator(image).run().output
[42]
"""

from .asm import assemble, disassemble_image, disassemble_program
from .config import (
    DEFAULT_CONFIG,
    MemoryConfig,
    MethodCacheConfig,
    PatmosConfig,
    PipelineConfig,
    ScratchpadConfig,
    SetAssocCacheConfig,
    StackCacheConfig,
)
from .cmp import MulticoreSystem, default_tdma_schedule
from .compiler import CompileOptions, CompileResult, compile_and_link, compile_program
from .errors import (
    AssemblerError,
    CacheError,
    CompilerError,
    ConfigError,
    EncodingError,
    ExplorationError,
    IsaError,
    LinkError,
    MemoryAccessError,
    ReproError,
    RtosError,
    ScheduleViolation,
    SimulationError,
    StackCacheError,
    VerificationError,
    WcetError,
)
from .explore import (
    ExperimentSpec,
    ExplorationResult,
    ExplorationRunner,
    ParameterSpace,
    ResultCache,
    pareto_frontier,
)
from .isa import Bundle, Guard, Instruction, Opcode
from .program import (
    BasicBlock,
    CallGraph,
    ControlFlowGraph,
    DataSpace,
    Function,
    Image,
    Program,
    ProgramBuilder,
    link,
)
from .sim import CycleSimulator, FunctionalSimulator, SimResult
from .wcet import WcetAnalyzer, WcetOptions, WcetResult, analyze_wcet

__version__ = "0.1.0"

__all__ = [
    "AssemblerError",
    "BasicBlock",
    "Bundle",
    "CacheError",
    "CallGraph",
    "CompileOptions",
    "CompileResult",
    "CompilerError",
    "ConfigError",
    "ControlFlowGraph",
    "CycleSimulator",
    "DEFAULT_CONFIG",
    "DataSpace",
    "EncodingError",
    "ExperimentSpec",
    "ExplorationError",
    "ExplorationResult",
    "ExplorationRunner",
    "Function",
    "FunctionalSimulator",
    "Guard",
    "Image",
    "Instruction",
    "IsaError",
    "LinkError",
    "MemoryAccessError",
    "MemoryConfig",
    "MethodCacheConfig",
    "Opcode",
    "ParameterSpace",
    "PatmosConfig",
    "PipelineConfig",
    "Program",
    "ProgramBuilder",
    "ReproError",
    "RtosError",
    "ResultCache",
    "ScheduleViolation",
    "ScratchpadConfig",
    "SetAssocCacheConfig",
    "SimResult",
    "SimulationError",
    "StackCacheConfig",
    "StackCacheError",
    "VerificationError",
    "MulticoreSystem",
    "WcetAnalyzer",
    "WcetError",
    "WcetOptions",
    "WcetResult",
    "analyze_wcet",
    "assemble",
    "compile_and_link",
    "compile_program",
    "default_tdma_schedule",
    "disassemble_image",
    "disassemble_program",
    "link",
    "pareto_frontier",
    "__version__",
]
