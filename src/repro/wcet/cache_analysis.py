"""Static cache analyses used by the WCET analyzer.

The paper's central argument is that the *specialised* caches of Patmos make
their static analysis simple:

* **Method cache** — misses can only happen at call, return and ``brcf``.  If
  all functions reachable from the entry fit into the cache together, each
  function is loaded at most once (a one-off cost); otherwise every
  call/return conservatively pays the fill cost of its target.  A conventional
  instruction cache, by contrast, can miss at every fetch, and without a
  precise abstract-interpretation model the analysis has to assume so unless
  the whole program fits.
* **Static/constant cache** — static data addresses are known at link time, so
  the analysis can check conflict-freedom exactly and charge each line's fill
  once (persistence) instead of once per access.
* **Object/heap cache** — heap addresses are statically unknown; accesses are
  conservatively classified as misses (analysing object caches is cited as
  future work in the paper).
* **Stack cache** — spill and fill costs are a deterministic function of the
  reserve/ensure amounts and the worst-case occupancy along call paths.
* **Unified cache baseline** — any access may evict any line, so without a
  global may/must analysis every data access (including stack data) must be
  treated as a potential miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import PatmosConfig
from ..errors import WcetError
from ..program.callgraph import CallGraph
from ..program.linker import Image
from ..program.program import DataSpace, Program


# ---------------------------------------------------------------------------
# Method cache
# ---------------------------------------------------------------------------


@dataclass
class MethodCacheAnalysis:
    """Classification of method-cache costs.

    ``per_target_cost[name]`` is the cycle cost charged at every control
    transfer into function ``name`` (0 if classified always-hit), and
    ``one_off_cycles`` is the total cost of first-time loads charged once.
    """

    fits_all: bool
    one_off_cycles: int
    per_target_cost: dict[str, int]
    fill_cost: dict[str, int]
    #: Number of separate one-off memory transfers behind ``one_off_cycles``
    #: (each may additionally wait for its TDMA slot in CMP configurations).
    one_off_transfers: int = 0

    def transfer_cost(self, target: str) -> int:
        return self.per_target_cost.get(target, 0)


def _fill_cycles(config: PatmosConfig, size_bytes: int) -> int:
    words = -(-size_bytes // 4)
    return config.memory.transfer_cycles(words)


def analyse_method_cache(image: Image, config: PatmosConfig,
                         mode: str = "persistence",
                         entry: str | None = None, *,
                         call_graph: CallGraph | None = None
                         ) -> MethodCacheAnalysis:
    """Analyse method-cache behaviour for the whole program.

    ``mode`` is ``"persistence"`` (all-fit analysis), ``"always_miss"`` or
    ``"ideal"`` (no cost, used for what-if comparisons).  ``call_graph`` is
    the program's call graph, built here when not given.
    """
    program = image.program
    entry = entry or program.entry
    if call_graph is None:
        call_graph = CallGraph.build(program)
    reachable = set(call_graph.reachable_from(entry))
    # Sub-functions created by the splitter are reached via brcf, not call.
    for record in image.functions:
        if record.is_subfunction and record.parent in reachable:
            reachable.add(record.name)

    fill_cost = {
        record.name: _fill_cycles(config, record.size_bytes)
        for record in image.functions
    }

    if mode == "ideal":
        return MethodCacheAnalysis(fits_all=True, one_off_cycles=0,
                                   per_target_cost={}, fill_cost=fill_cost,
                                   one_off_transfers=0)

    blocks_needed = 0
    block_bytes = config.method_cache.block_bytes
    for record in image.functions:
        if record.name in reachable:
            blocks_needed += max(1, -(-record.size_bytes // block_bytes))
    fits_all = blocks_needed <= config.method_cache.num_blocks

    if mode == "persistence" and fits_all:
        one_off = sum(fill_cost[name] for name in reachable)
        return MethodCacheAnalysis(
            fits_all=True, one_off_cycles=one_off,
            per_target_cost={name: 0 for name in reachable},
            fill_cost=fill_cost, one_off_transfers=len(reachable))

    if mode not in ("persistence", "always_miss"):
        raise WcetError(f"unknown method-cache analysis mode {mode!r}")

    per_target = {name: fill_cost[name] for name in reachable}
    entry_cost = fill_cost.get(entry, 0)
    return MethodCacheAnalysis(fits_all=fits_all, one_off_cycles=entry_cost,
                               per_target_cost=per_target, fill_cost=fill_cost,
                               one_off_transfers=1 if entry_cost else 0)


@dataclass
class ConventionalICacheAnalysis:
    """Pessimistic analysis of the conventional instruction-cache baseline."""

    fits_whole_program: bool
    one_off_cycles: int
    #: Cycles charged per issued bundle when the program does not fit.
    per_fetch_cost: int
    #: Number of separate one-off line fills behind ``one_off_cycles``.
    one_off_transfers: int = 0
    #: Words per line fill (the arbitrated transfer size of one miss).
    line_words: int = 4


def analyse_conventional_icache(image: Image, config: PatmosConfig,
                                icache_size_bytes: int | None = None,
                                line_bytes: int = 16
                                ) -> ConventionalICacheAnalysis:
    """Analyse the conventional I-cache baseline (experiment E4).

    Without the method cache's structural guarantee, a sound analysis needs a
    precise model of the replacement state at every fetch.  This baseline
    implements the two simple, sound classifications that are available
    without such a model: if the whole program fits into the cache, every line
    misses at most once; otherwise every fetch must be assumed to miss.
    """
    if icache_size_bytes is None:
        icache_size_bytes = config.method_cache.size_bytes
    code_bytes = image.code_size_bytes()
    line_fill = config.memory.transfer_cycles(line_bytes // 4)
    if code_bytes <= icache_size_bytes:
        lines = -(-code_bytes // line_bytes)
        return ConventionalICacheAnalysis(
            fits_whole_program=True, one_off_cycles=lines * line_fill,
            per_fetch_cost=0, one_off_transfers=lines,
            line_words=line_bytes // 4)
    return ConventionalICacheAnalysis(
        fits_whole_program=False, one_off_cycles=0, per_fetch_cost=line_fill,
        one_off_transfers=0, line_words=line_bytes // 4)


# ---------------------------------------------------------------------------
# Static/constant cache
# ---------------------------------------------------------------------------


@dataclass
class StaticCacheAnalysis:
    """Classification of static/constant-cache accesses."""

    persistent: bool
    one_off_cycles: int
    per_read_cost: int
    per_write_cost: int
    #: Number of separate one-off line fills behind ``one_off_cycles``.
    one_off_transfers: int = 0


def analyse_static_cache(image: Image, config: PatmosConfig,
                         mode: str = "persistence",
                         unified: bool = False) -> StaticCacheAnalysis:
    """Analyse the static/constant cache (or the unified-cache baseline).

    The persistence argument covers every static data item of the image:
    static addresses are known at link time, so no address analysis is
    needed to place each item's lines in their cache sets.
    """
    line_bytes = config.static_cache.line_bytes
    miss = config.memory.transfer_cycles(line_bytes // 4)
    write_cost = config.memory.transfer_cycles(1)

    if mode == "ideal":
        return StaticCacheAnalysis(persistent=True, one_off_cycles=0,
                                   per_read_cost=0, per_write_cost=0)
    if unified or mode == "always_miss":
        # Unified baseline: heap and unknown accesses share the cache, so no
        # persistence argument holds; every read may miss.
        return StaticCacheAnalysis(persistent=False, one_off_cycles=0,
                                   per_read_cost=miss, per_write_cost=write_cost)
    if mode != "persistence":
        raise WcetError(f"unknown static-cache analysis mode {mode!r}")

    # Persistence: static data addresses are known at link time.  Check that
    # all static lines fit without conflicts; then each line misses at most
    # once over the whole execution.
    lines_by_set: dict[int, set[int]] = {}
    num_sets = (config.static_cache.size_bytes
                // (line_bytes * config.static_cache.associativity))
    total_lines = 0
    for item in image.program.data_in_order():
        if item.space not in (DataSpace.CONST, DataSpace.DATA):
            continue
        base = image.symbol(item.name)
        first_line = base // line_bytes
        last_line = (base + item.size_bytes - 1) // line_bytes
        for line in range(first_line, last_line + 1):
            set_index = line % max(1, num_sets)
            lines_by_set.setdefault(set_index, set())
            if line not in lines_by_set[set_index]:
                lines_by_set[set_index].add(line)
                total_lines += 1
    conflict_free = all(
        len(lines) <= config.static_cache.associativity
        for lines in lines_by_set.values())
    if conflict_free:
        return StaticCacheAnalysis(
            persistent=True, one_off_cycles=total_lines * miss,
            per_read_cost=0, per_write_cost=write_cost,
            one_off_transfers=total_lines)
    return StaticCacheAnalysis(persistent=False, one_off_cycles=0,
                               per_read_cost=miss, per_write_cost=write_cost)


# ---------------------------------------------------------------------------
# Object/heap cache
# ---------------------------------------------------------------------------


@dataclass
class ObjectCacheAnalysis:
    """Classification of object/heap-cache accesses."""

    per_read_cost: int
    per_write_cost: int


def analyse_object_cache(config: PatmosConfig, mode: str = "always_miss"
                         ) -> ObjectCacheAnalysis:
    """Analyse the highly associative heap cache (conservative by default)."""
    if mode == "ideal":
        return ObjectCacheAnalysis(per_read_cost=0, per_write_cost=0)
    if mode != "always_miss":
        raise WcetError(f"unknown object-cache analysis mode {mode!r}")
    miss = config.memory.transfer_cycles(config.data_cache.line_bytes // 4)
    write_cost = config.memory.transfer_cycles(1)
    return ObjectCacheAnalysis(per_read_cost=miss, per_write_cost=write_cost)


# ---------------------------------------------------------------------------
# Stack cache
# ---------------------------------------------------------------------------


@dataclass
class StackCacheAnalysis:
    """Worst-case spill/fill words per function."""

    #: Worst-case occupancy (in words) when each function is entered.
    occupancy_in: dict[str, int] = field(default_factory=dict)
    #: Worst-case spill words at the function's sres.
    spill_words: dict[str, int] = field(default_factory=dict)
    #: Worst-case fill words at a sens after calling a given callee,
    #: keyed by (caller, callee).
    fill_words: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Worst-case displacement (words) caused by calling a function.
    displacement: dict[str, int] = field(default_factory=dict)


def analyse_stack_cache(program: Program, config: PatmosConfig,
                        frame_words: dict[str, int],
                        mode: str = "refined", *,
                        call_graph: CallGraph | None = None
                        ) -> StackCacheAnalysis:
    """Bound spill and fill traffic of the stack cache.

    ``frame_words`` maps each function to the number of words its ``sres``
    reserves.  ``mode`` is ``"refined"`` (occupancy/displacement analysis over
    the call graph) or ``"naive"`` (every sres spills fully, every sens fills
    fully).  ``call_graph`` is the program's call graph, built here when not
    given.
    """
    cache_words = config.stack_cache.size_bytes // 4
    if call_graph is None:
        call_graph = CallGraph.build(program)
    if call_graph.is_recursive():
        raise WcetError("stack-cache analysis requires a non-recursive call graph")
    analysis = StackCacheAnalysis()

    if mode == "naive":
        for name in program.functions:
            frame = frame_words.get(name, 0)
            analysis.occupancy_in[name] = cache_words
            analysis.spill_words[name] = frame
            analysis.displacement[name] = cache_words
        for caller in program.functions:
            for callee in call_graph.callees(caller):
                analysis.fill_words[(caller, callee)] = frame_words.get(caller, 0)
        return analysis
    if mode != "refined":
        raise WcetError(f"unknown stack-cache analysis mode {mode!r}")

    entry = program.entry

    # Worst-case occupancy at function entry: longest frame sum over any call
    # path from the entry, capped at the cache size.
    occupancy: dict[str, int] = {entry: 0}
    for name in _topological_call_order(call_graph, entry):
        base = occupancy.get(name, 0)
        frame = frame_words.get(name, 0)
        for callee in call_graph.callees(name):
            candidate = min(cache_words, base + frame)
            occupancy[callee] = max(occupancy.get(callee, 0), candidate)
    analysis.occupancy_in = occupancy

    # Worst-case displacement of a call: how many words of the caller's cached
    # data a callee (and its own callees) can push out of the cache.
    displacement: dict[str, int] = {}

    def compute_displacement(name: str) -> int:
        if name in displacement:
            return displacement[name]
        frame = frame_words.get(name, 0)
        nested = max((compute_displacement(callee)
                      for callee in call_graph.callees(name)), default=0)
        value = min(cache_words, frame + nested)
        displacement[name] = value
        return value

    for name in program.functions:
        compute_displacement(name)
    analysis.displacement = displacement

    for name in program.functions:
        frame = frame_words.get(name, 0)
        occ = occupancy.get(name, 0)
        analysis.spill_words[name] = max(0, occ + frame - cache_words)
        for callee in call_graph.callees(name):
            analysis.fill_words[(name, callee)] = min(
                frame, displacement.get(callee, 0))
    return analysis


def _topological_call_order(call_graph: CallGraph, entry: str) -> list[str]:
    """Callers-before-callees order restricted to functions reachable from entry."""
    order = call_graph.topological_order(root=entry)
    order.reverse()  # topological_order is callees-first; we need callers-first
    return order
