"""Top-level WCET analysis for compiled and linked Patmos programs.

The analyzer combines the pieces the paper argues should be co-designed with
the architecture:

* per-block pipeline timing (trivial thanks to the stall-free, exposed-delay
  pipeline — one cycle per issued bundle);
* the method-cache, static-cache, object-cache and stack-cache analyses from
  :mod:`repro.wcet.cache_analysis`;
* an IPET formulation per function (functions split for the method cache are
  analysed together with their sub-functions), composed bottom-up over the
  call graph;
* optional TDMA arbitration costs for chip-multiprocessor configurations.

The result is a WCET bound in cycles plus a per-function, per-category
breakdown that the experiments compare against cycle-accurate simulation.

The work is split by what it depends on.  Work that does not depend on the
bus is done once per image and hardware and kept on the image
(:class:`_ImageLayout`, in ``Image._caches``, dropped on pickling): merged
CFGs, block summaries and the call graph once per image; the four cache
analyses and each block's event profile (bundles, direct callees, the base
cycles of its memory transfers and its transfer count per arbitrated word
size) once per core configuration, cache-analysis modes and entry
function; and each IPET solution once per instance (function, block costs,
loop bounds).  Work that depends on the bus is done for every analysis by
:class:`WcetAnalyzer`: the arbitration wait per transfer size, the retry
attempts, the resulting block costs, the loop bounds and the one-off
charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import ConfigError, WcetError
from ..isa.opcodes import MemType, Opcode
from ..memory.tdma import TdmaSchedule
from ..program.callgraph import CallGraph
from ..program.cfg import merged_cfg
from ..program.function import Function
from ..program.linker import Image
from .block_timing import BlockSummary, summarise_block
from .cache_analysis import (
    ConventionalICacheAnalysis,
    MethodCacheAnalysis,
    ObjectCacheAnalysis,
    StackCacheAnalysis,
    StaticCacheAnalysis,
    analyse_conventional_icache,
    analyse_method_cache,
    analyse_object_cache,
    analyse_stack_cache,
    analyse_static_cache,
)
from .ipet import IpetResult, solve_ipet


@dataclass(frozen=True)
class WcetOptions:
    """Analysis configuration (which cache models / baselines to use)."""

    #: "persistence", "always_miss" or "ideal".
    method_cache: str = "persistence"
    #: "persistence", "always_miss" or "ideal".
    static_cache: str = "persistence"
    #: "always_miss" or "ideal".
    object_cache: str = "always_miss"
    #: "refined" or "naive".
    stack_cache: str = "refined"
    #: Analyse the conventional instruction-cache baseline instead of the
    #: method cache (experiment E4).
    conventional_icache: bool = False
    #: Analyse the unified data-cache baseline (experiment E5).
    unified_data_cache: bool = False
    #: TDMA schedule of the CMP configuration (adds worst-case arbitration).
    tdma: Optional[TdmaSchedule] = None
    #: The core whose TDMA slot this analysis models.  ``None`` falls back to
    #: the blanket schedule-wide bound (``period - 1`` per transfer); with a
    #: core id every transfer is charged the refined per-core, per-transfer
    #: bound ``schedule.worst_case_wait(core, transfer_cycles)`` instead.
    tdma_core_id: Optional[int] = None
    #: Interference model of the memory arbiter: "tdma" uses the exact
    #: per-transfer bound of ``tdma``; "round_robin" charges ``(N - 1)``
    #: maximal transfers per access; "priority" is bounded only for the
    #: top-priority core (any other rank makes the analysis fail).
    arbiter: str = "tdma"
    #: Number of cores competing on the bus (round-robin/priority models;
    #: < 2 means no interference).
    arbiter_cores: int = 0
    #: This core's priority rank under "priority" (0 = highest).
    priority_rank: int = 0
    #: Extra loop bounds: ``(function, header label) -> bound`` (overrides
    #: block annotations).
    loop_bounds: dict = field(default_factory=dict)
    #: Bounded bus-transfer retries (fault model): every arbitrated transfer
    #: may fail and be re-arbitrated up to this many times, each attempt
    #: occupying a full slot plus worst-case wait.  0 = fault-free bus.
    bus_retry_limit: int = 0
    #: Flat per-run latency of the fault-recovery hardware outside the bus
    #: model (ECC correction charges); added once to the total bound.
    fault_overhead_cycles: int = 0
    #: Run the abstract-interpretation value analysis (:mod:`repro.analysis`):
    #: infer loop bounds where annotations are missing and tighten loose
    #: ones.  Disabling falls back to annotations only.
    analysis: bool = True

    @classmethod
    def for_arbiter(cls, kind: str, num_cores: int,
                    schedule: Optional[TdmaSchedule] = None,
                    priority_rank: int = 0,
                    core_id: Optional[int] = None,
                    **overrides) -> Optional["WcetOptions"]:
        """The interference options matching one multicore arbiter.

        Single source of the arbiter-to-analysis mapping shared by
        :class:`~repro.cmp.system.MulticoreSystem` and the exploration
        specs: TDMA uses the exact ``schedule`` bound, round-robin the
        ``(N - 1)``-transfers bound, and priority is analysable only at
        rank 0 — any other rank returns ``None`` (no bound exists).
        ``core_id`` selects the refined per-core TDMA bound (the analysed
        core's own slot); ``None`` keeps the blanket ``period - 1`` bound.
        TDMA on two or more cores needs its ``schedule``: without one the
        options would charge no bus wait at all, so that raises.
        """
        if num_cores <= 1:
            return cls(**overrides)
        if kind == "tdma":
            if schedule is None:
                raise WcetError(
                    f"TDMA arbitration on {num_cores} cores needs its "
                    f"schedule to bound the bus wait")
            overrides.setdefault("tdma_core_id", core_id)
            return cls(tdma=schedule, **overrides)
        if kind == "round_robin":
            return cls(arbiter="round_robin", arbiter_cores=num_cores,
                       **overrides)
        if kind == "priority":
            if priority_rank != 0:
                return None
            return cls(arbiter="priority", arbiter_cores=num_cores,
                       priority_rank=0, **overrides)
        raise WcetError(f"unknown arbiter interference model {kind!r}")

    def to_dict(self) -> dict:
        """Stable, JSON-serializable view of the analysis options.

        Used by result caches (``repro.explore``) to key stored WCET bounds;
        the TDMA schedule is flattened to its defining pair and the loop-bound
        overrides to a sorted list so equal options serialize identically.
        """
        return {
            "method_cache": self.method_cache,
            "static_cache": self.static_cache,
            "object_cache": self.object_cache,
            "stack_cache": self.stack_cache,
            "conventional_icache": self.conventional_icache,
            "unified_data_cache": self.unified_data_cache,
            "tdma": (None if self.tdma is None else
                     {"num_cores": self.tdma.num_cores,
                      "slot_cycles": self.tdma.slot_cycles,
                      "slot_weights": list(self.tdma.slot_weights)}),
            "tdma_core_id": self.tdma_core_id,
            "arbiter": self.arbiter,
            "arbiter_cores": self.arbiter_cores,
            "priority_rank": self.priority_rank,
            "loop_bounds": sorted(
                [list(key), bound] for key, bound in self.loop_bounds.items()),
            "bus_retry_limit": self.bus_retry_limit,
            "fault_overhead_cycles": self.fault_overhead_cycles,
            "analysis": self.analysis,
        }


@dataclass
class FunctionWcet:
    """WCET contribution of one function (including its sub-functions)."""

    name: str
    wcet_cycles: int
    ipet: IpetResult
    block_costs: dict[str, int]
    callee_cycles: int = 0


@dataclass
class WcetResult:
    """Result of a whole-program WCET analysis."""

    entry: str
    wcet_cycles: int
    one_off_cycles: int
    per_function: dict[str, FunctionWcet]
    options: WcetOptions
    #: Loop-bound audits from the value analysis (empty when disabled).
    loop_audits: list = field(default_factory=list)
    method_cache: MethodCacheAnalysis | None = None
    icache: ConventionalICacheAnalysis | None = None
    static_cache: StaticCacheAnalysis | None = None
    object_cache: ObjectCacheAnalysis | None = None
    stack_cache: StackCacheAnalysis | None = None

    def tightness(self, observed_cycles: int) -> float:
        """Ratio of the WCET bound to an observed execution time (>= 1.0)."""
        if observed_cycles <= 0:
            raise WcetError("observed execution time must be positive")
        return self.wcet_cycles / observed_cycles

    def summary(self) -> str:
        lines = [
            f"WCET bound       : {self.wcet_cycles} cycles",
            f"  one-off costs  : {self.one_off_cycles} cycles",
            f"  entry function : {self.entry}",
        ]
        for name, func in self.per_function.items():
            lines.append(f"  {name:24s}: {func.wcet_cycles} cycles")
        return "\n".join(lines)


class _BlockProfile(NamedTuple):
    """The bus-independent timing events of one block.

    Under a bus that charges each attempt of a transfer of ``words`` words
    ``wait(words)`` cycles of arbitration, and makes ``attempts`` attempts,
    the block costs ``bundles + attempts * (base_cycles + sum(count *
    wait(words) for words, count in transfers))`` plus the WCET of each of
    its direct ``calls``.
    """

    label: str
    #: Local pipeline cycles: one per issued bundle.
    bundles: int
    #: Direct callees, one entry per call.
    calls: tuple[str, ...]
    #: Sum of the base (unarbitrated) cycles of the block's transfers.
    base_cycles: int
    #: ``(words, count)`` per arbitrated transfer size.
    transfers: tuple[tuple[int, int], ...]


class _Hardware:
    """The bus-independent analysis of one image on one hardware.

    One exists per image and key (the core configuration, the five
    cache-analysis modes and the entry function; see
    :meth:`_ImageLayout.hardware`).  It holds the cache analyses, the
    callees-first order of the functions to analyse, the one-off costs
    and, filled by :meth:`_ImageLayout.profiles`, each function's block
    profiles.  The cache analyses are shared by every result of the key
    and must not be mutated.
    """

    def __init__(self, image: Image, layout: "_ImageLayout",
                 config: PatmosConfig, options: WcetOptions, entry: str):
        # The same order analyze() has always run them in, so the first
        # analysis that raises is still the one reported.
        call_graph = layout.call_graph
        self.method_cache: MethodCacheAnalysis | None = None
        self.icache: ConventionalICacheAnalysis | None = None
        if options.conventional_icache:
            self.icache = analyse_conventional_icache(image, config)
        else:
            self.method_cache = analyse_method_cache(
                image, config, mode=options.method_cache, entry=entry,
                call_graph=call_graph)
        self.static_cache = analyse_static_cache(
            image, config, mode=options.static_cache,
            unified=options.unified_data_cache)
        self.object_cache = analyse_object_cache(config,
                                                 mode=options.object_cache)
        self.stack_cache = analyse_stack_cache(
            layout.program, config, layout.frame_words,
            mode=options.stack_cache, call_graph=call_graph)
        if call_graph.is_recursive():
            raise WcetError(
                "WCET analysis requires a non-recursive call graph")

        program = layout.program
        self.functions = [
            function for function in map(
                program.function, call_graph.topological_order(root=entry))
            if not function.is_subfunction]
        self.one_off_cycles = self.static_cache.one_off_cycles
        self.one_off_transfers = self.static_cache.one_off_transfers
        for analysis in (self.method_cache, self.icache):
            if analysis is not None:
                self.one_off_cycles += analysis.one_off_cycles
                self.one_off_transfers += analysis.one_off_transfers

        self.config = config
        self.unified = options.unified_data_cache
        self.fill_words = layout.fill_words
        #: Worst fill (words) of a sens in each caller, over its callees.
        self.worst_fill: dict[str, int] = {}
        for (caller, _callee), words in self.stack_cache.fill_words.items():
            self.worst_fill[caller] = max(words,
                                          self.worst_fill.get(caller, words))
        #: Function name -> block profiles in summary order.
        self.profiles: dict[str, tuple[_BlockProfile, ...]] = {}

    def profile(self, summary: BlockSummary) -> _BlockProfile:
        """The timing events of one summarised block on this hardware."""
        if summary.indirect_calls:
            raise WcetError(
                f"{summary.function}/{summary.label}: indirect calls (callr) "
                "cannot be bounded without target annotations")
        config = self.config
        memory = config.memory
        base = 0
        transfers: dict[int, int] = {}

        def charge(count: int, base_cycles: int, words: int) -> None:
            # Every event passes the word count of its (single, burst-capped)
            # arbitrated transaction, mirroring what the simulator registers
            # with the arbiter for that event.  An event with no base cost
            # makes no transfer, so it waits for nothing either.
            nonlocal base
            if count and base_cycles > 0:
                base += count * base_cycles
                transfers[words] = transfers.get(words, 0) + count

        static_line_words = config.static_cache.line_bytes // 4
        # The simulator arbitrates every cached-line fill at the static-cache
        # line size; take the larger of that and the object cache's own line
        # so the charge dominates either wiring.
        object_line_words = max(static_line_words,
                                config.data_cache.line_bytes // 4)

        if self.icache is not None:
            charge(summary.bundles, self.icache.per_fetch_cost,
                   self.icache.line_words)
        method_cache = self.method_cache
        if method_cache is not None:
            fill_words = self.fill_words
            # Calls: method-cache fill of the callee and, on return, of this
            # function; brcf into sub-functions (or other functions).
            for callee in summary.calls:
                charge(1, method_cache.transfer_cost(callee),
                       fill_words.get(callee, 0))
                charge(1, method_cache.transfer_cost(summary.function),
                       fill_words.get(summary.function, 0))
            for target in summary.brcf_targets:
                charge(1, method_cache.transfer_cost(target),
                       fill_words.get(target, 0))

        # Typed data accesses.
        static_cache = self.static_cache
        object_cache = self.object_cache
        charge(summary.read_count(MemType.STATIC),
               static_cache.per_read_cost, static_line_words)
        charge(summary.write_count(MemType.STATIC),
               static_cache.per_write_cost, 1)
        charge(summary.read_count(MemType.OBJECT),
               object_cache.per_read_cost, object_line_words)
        charge(summary.write_count(MemType.OBJECT),
               object_cache.per_write_cost, 1)
        if self.unified:
            # Stack accesses also compete in the unified cache.
            charge(summary.read_count(MemType.STACK),
                   static_cache.per_read_cost, static_line_words)
            charge(summary.write_count(MemType.STACK),
                   static_cache.per_write_cost, 1)
        # Split main-memory loads are charged at the wait instruction.
        charge(summary.wmem_count, memory.transfer_cycles(1), 1)
        charge(summary.write_count(MemType.MAIN), memory.transfer_cycles(1), 1)

        # Stack-control costs.
        spill = self.stack_cache.spill_words.get(summary.function, 0)
        charge(len(summary.sres_words), memory.transfer_cycles(spill), spill)
        fill = self.worst_fill.get(summary.function, 0)
        charge(len(summary.sens_words), memory.transfer_cycles(fill), fill)

        return _BlockProfile(summary.label, summary.bundles,
                             tuple(summary.calls), base,
                             tuple(transfers.items()))


class _ImageLayout:
    """The bus-independent part of the analysis of one linked image.

    Built once per image and cached on it (``Image._caches``, dropped on
    pickling).  It holds what no analysis option changes (block
    summaries, call graph, frame and fill words), one
    :class:`_Hardware` per hardware key (cache analyses and block
    profiles), and the IPET solutions by instance.  What depends on the
    bus (arbitration waits, retry attempts) and the loop bounds are
    applied per analysis by :class:`WcetAnalyzer`.

    Every part is computed on first use, so ``analyze()`` raises in the
    same order as if it rebuilt them, and a part that raised is not cached
    and raises again on the next call.  The block summaries, cache
    analyses and IPET results are shared by every analysis of the image
    and must not be mutated.
    """

    def __init__(self, image: Image):
        self.program = image.program
        #: Fill size in words of every linked function (method-cache events).
        self.fill_words = {record.name: -(-record.size_bytes // 4)
                           for record in image.functions}
        self._summaries: dict[str, tuple[list, list[BlockSummary]]] = {}
        self._hardware: dict[tuple, _Hardware] = {}
        self._ipet: dict[tuple, IpetResult] = {}

    @classmethod
    def of(cls, image: Image) -> "_ImageLayout":
        layout = image._caches.get("wcet_layout")
        if layout is None:
            layout = image._caches["wcet_layout"] = cls(image)
        return layout

    @cached_property
    def frame_words(self) -> dict[str, int]:
        """Words reserved by each function's sres (0 for frameless ones)."""
        return {
            function.name: max([0, *(
                instr.imm for block in function.blocks
                for instr in block.instrs if instr.opcode is Opcode.SRES)])
            for function in self.program.functions.values()}

    @cached_property
    def call_graph(self) -> CallGraph:
        return CallGraph.build(self.program)

    def summaries(self, function: Function) -> Iterator[BlockSummary]:
        """Summaries of the blocks of ``function`` and its sub-functions in
        CFG block order.  Each is made when first reached, so a block that
        cannot be summarised raises only after the blocks before it."""
        if function.name not in self._summaries:
            self._summaries[function.name] = ([
                (owner, block) for owner in (
                    function, *self.program.subfunctions(function.name))
                for block in owner.blocks], [])
        blocks, done = self._summaries[function.name]
        for index, (owner, block) in enumerate(blocks):
            if index == len(done):
                # Summaries of the original blocks keep their brcf targets;
                # the stack/frame and call costs of sub-functions belong to
                # the parent frame.
                summary = summarise_block(owner, block)
                summary.function = function.name
                done.append(summary)
            yield done[index]

    def hardware(self, image: Image, config: PatmosConfig,
                 options: WcetOptions, entry: str) -> _Hardware:
        """The bus-independent analysis for ``config``, the cache modes of
        ``options`` and ``entry``, made on first use."""
        key = (config, options.method_cache, options.static_cache,
               options.object_cache, options.stack_cache,
               options.conventional_icache, options.unified_data_cache,
               entry)
        hardware = self._hardware.get(key)
        if hardware is None:
            hardware = self._hardware[key] = _Hardware(
                image, self, config, options, entry)
        return hardware

    def profiles(self, hardware: _Hardware, function: Function
                 ) -> Iterable[_BlockProfile]:
        """Profiles of the blocks of ``function`` on ``hardware``, in
        summary order.  Like the summaries, each is made when first
        reached, so block errors keep their order; the function's tuple is
        kept once every block is profiled."""
        profiles = hardware.profiles.get(function.name)
        if profiles is None:
            return self._profile_blocks(hardware, function)
        return profiles

    def _profile_blocks(self, hardware: _Hardware, function: Function
                        ) -> Iterator[_BlockProfile]:
        built = []
        for summary in self.summaries(function):
            built.append(hardware.profile(summary))
            yield built[-1]
        hardware.profiles[function.name] = tuple(built)

    def solve(self, function: Function, labels: list[str], costs: tuple,
              loop_bounds: dict[str, int]) -> IpetResult:
        """:func:`solve_ipet` of ``function`` with block ``costs`` (in
        summary order, ``labels`` naming them), once per instance."""
        key = (function.name, costs, tuple(sorted(loop_bounds.items())))
        result = self._ipet.get(key)
        if result is None:
            result = self._ipet[key] = solve_ipet(
                merged_cfg(self.program, function), dict(zip(labels, costs)),
                loop_bounds)
        return result


class WcetAnalyzer:
    """Static WCET analysis of a linked Patmos image."""

    def __init__(self, image: Image, config: Optional[PatmosConfig] = None,
                 options: WcetOptions = WcetOptions()):
        self.image = image
        self.config = config or image.config or DEFAULT_CONFIG
        self.options = options
        self.program = image.program
        self._layout = _ImageLayout.of(image)
        #: Memo of the per-transfer bus wait, keyed by transfer word count.
        self._wait_memo: dict[int, int] = {}
        #: Value-analysis facts of the last analyze() run (None if disabled).
        self._facts = None

    # ------------------------------------------------------------------

    def analyze(self, entry: Optional[str] = None) -> WcetResult:
        """Compute the WCET bound for the program starting at ``entry``.

        The result's ``per_function``, ``FunctionWcet`` records and
        ``block_costs`` belong to it; its cache analyses and IPET results
        are shared with every analysis of the image and must not be
        mutated.
        """
        entry = entry or self.program.entry
        options = self.options
        # Fail fast on an unbounded interference model (e.g. any core below
        # the top priority) instead of deep inside the per-block costing,
        # and on a core id outside the TDMA schedule.
        self._interference_wait()
        if options.bus_retry_limit < 0 or options.fault_overhead_cycles < 0:
            raise WcetError(
                "bus_retry_limit and fault_overhead_cycles must be >= 0")
        if (options.arbiter == "tdma" and options.tdma is not None
                and options.tdma_core_id is not None):
            options.tdma.slot_length(options.tdma_core_id)  # range check

        facts = None
        if options.analysis:
            # Imported lazily: runs without the analysis never load it.
            from ..analysis.facts import program_facts
            facts = program_facts(self.program)
        self._facts = facts

        hardware = self._layout.hardware(self.image, self.config, options,
                                         entry)
        per_function: dict[str, FunctionWcet] = {}
        function_wcet: dict[str, int] = {}
        for function in hardware.functions:  # callees first
            result = self._analyse_function(function, function_wcet,
                                            hardware)
            per_function[function.name] = result
            function_wcet[function.name] = result.wcet_cycles

        one_off = hardware.one_off_cycles
        one_off_transfers = hardware.one_off_transfers
        if one_off_transfers > 0:
            # Every one-off transfer may additionally wait for the bus; each
            # is at most one burst on the bus (the controller's slot limit).
            interference = self._transfer_wait(self.config.memory.burst_words)
            if interference:
                one_off += one_off_transfers * interference
            if options.bus_retry_limit:
                # Each retried attempt re-occupies a full burst slot and may
                # wait for the bus again (the same per-attempt bound the
                # block costs charge every transfer).
                one_off += (one_off_transfers * options.bus_retry_limit
                            * (self.config.memory.burst_cycles()
                               + interference))

        total = (function_wcet[entry] + one_off
                 + options.fault_overhead_cycles)
        return WcetResult(
            entry=entry, wcet_cycles=total, one_off_cycles=one_off,
            per_function=per_function, options=options,
            loop_audits=facts.loop_audits() if facts is not None else [],
            method_cache=hardware.method_cache, icache=hardware.icache,
            static_cache=hardware.static_cache,
            object_cache=hardware.object_cache,
            stack_cache=hardware.stack_cache)

    # ------------------------------------------------------------------
    # Per-function analysis
    # ------------------------------------------------------------------

    def _interference_wait(self) -> int:
        """Worst-case extra bus wait charged to every memory transfer.

        TDMA is exact (the schedule bounds the wait independently of the
        other cores); round-robin assumes all ``N - 1`` competitors are
        queued ahead with maximal transfers; priority is one blocking
        transfer for the top core and *unbounded* for everyone else — the
        model the paper argues against.
        """
        options = self.options
        if options.arbiter == "tdma":
            if options.tdma is None:
                return 0
            return options.tdma.worst_case_wait()
        if options.arbiter_cores < 2:
            return 0
        burst = self.config.memory.burst_cycles()
        if options.arbiter == "round_robin":
            return (options.arbiter_cores - 1) * burst
        if options.arbiter == "priority":
            if options.priority_rank == 0:
                return burst  # one non-preemptible transfer in flight
            raise WcetError(
                f"priority arbitration has no WCET bound for priority rank "
                f"{options.priority_rank}; only the top-priority core is "
                f"analysable")
        raise WcetError(f"unknown arbiter interference model "
                        f"{options.arbiter!r}")

    def _transfer_wait(self, words: int) -> int:
        """Worst-case bus wait of one arbitrated transfer of ``words`` words.

        The memory controller arbitrates at most one burst per transaction
        (larger fills are split), so the arbitrated length is the burst-capped
        transfer time of ``words``.  Under TDMA with a known core id this is
        the refined bound ``schedule.worst_case_wait(core, transfer)``; with
        no core id it falls back to the blanket ``period - 1``, and the
        round-robin/priority models are per-transfer constants anyway.

        Note the current :class:`~repro.config.MemoryConfig` cost model
        rounds every transfer up to whole bursts, so all ``words >= 1``
        presently collapse to one burst and the refinement is effectively
        per *core* (slot length).  The per-event word counts mirror what the
        simulator registers with the arbiter at each call site, keeping the
        bound aligned if the cost model ever gains sub-burst transfers.
        """
        cached = self._wait_memo.get(words)
        if cached is not None:
            return cached
        options = self.options
        schedule = options.tdma
        if options.arbiter != "tdma":
            cached = self._interference_wait()
        elif schedule is None:
            cached = 0
        elif options.tdma_core_id is None:
            cached = schedule.worst_case_wait()
        else:
            memory = self.config.memory
            transfer = min(
                memory.transfer_cycles(min(words, memory.burst_words)),
                memory.burst_cycles())
            try:
                cached = schedule.worst_case_wait(options.tdma_core_id,
                                                  transfer)
            except ConfigError as exc:
                raise WcetError(
                    f"core {options.tdma_core_id}'s TDMA slot cannot fit a "
                    f"{transfer}-cycle burst transfer; no WCET bound exists "
                    f"(widen the slot or the core's weight)") from exc
        self._wait_memo[words] = cached
        return cached

    def _analyse_function(self, function: Function,
                          function_wcet: dict[str, int],
                          hardware: _Hardware) -> FunctionWcet:
        """Price the blocks of ``function`` for this analysis's bus and
        solve its IPET instance."""
        layout = self._layout
        # Built before any block, so a bad branch target raises first.
        merged_cfg(self.program, function)
        wait = self._transfer_wait
        # Under the bounded-retry bus-fault model every arbitrated transfer
        # may fail and be re-arbitrated up to bus_retry_limit times; each
        # attempt occupies its slot in full and waits for the bus again, so
        # every transfer is charged (1 + retries) attempts.
        attempts = 1 + self.options.bus_retry_limit
        labels: list[str] = []
        costs: list[int] = []
        callee_total = 0
        for label, bundles, calls, base, transfers in layout.profiles(
                hardware, function):
            # The callee's own WCET, which the method-cache fills around
            # the call (in the profile) do not include.
            callee_part = 0
            for callee in calls:
                if callee not in function_wcet:
                    raise WcetError(
                        f"callee {callee!r} analysed after its caller "
                        f"{function.name!r} (call-graph order error)")
                callee_part += function_wcet[callee]
            bus = base
            for words, count in transfers:
                bus += count * wait(words)
            labels.append(label)
            costs.append(bundles + attempts * bus + callee_part)
            callee_total += callee_part

        # Bound precedence: explicit per-call overrides > audited effective
        # bounds (min of annotation and inferred) > block annotations, which
        # solve_ipet reads off the CFG itself.
        loop_bounds: dict[str, int] = {}
        func_facts = (self._facts.function_facts(function.name)
                      if self._facts is not None else None)
        if func_facts is not None:
            loop_bounds.update(func_facts.effective_bounds())
        loop_bounds.update({
            label: bound
            for (func_name, label), bound in self.options.loop_bounds.items()
            if func_name == function.name
        })
        ipet = layout.solve(function, labels, tuple(costs), loop_bounds)
        return FunctionWcet(name=function.name, wcet_cycles=ipet.wcet,
                            ipet=ipet, block_costs=dict(zip(labels, costs)),
                            callee_cycles=callee_total)


def analyze_wcet(image: Image, config: Optional[PatmosConfig] = None,
                 options: WcetOptions = WcetOptions(),
                 entry: Optional[str] = None) -> WcetResult:
    """Convenience wrapper: analyse ``image`` and return the WCET result."""
    return WcetAnalyzer(image, config=config, options=options).analyze(entry=entry)
