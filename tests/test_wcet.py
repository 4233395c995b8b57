"""Tests of the WCET analysis: IPET, cache analyses and whole-program bounds."""

import collections
import itertools
import pickle
import random

import pytest

from repro import (
    CompileOptions,
    CycleSimulator,
    PatmosConfig,
    ProgramBuilder,
    compile_and_link,
)
from repro.config import MethodCacheConfig
from repro.errors import WcetError
from repro.memory import TdmaSchedule
from repro.program import ControlFlowGraph
from repro.verify import DEFAULT_VARIANTS
from repro.wcet import (
    WcetOptions,
    analyse_method_cache,
    analyse_stack_cache,
    analyse_static_cache,
    analyze_wcet,
    longest_path_dag,
    solve_ipet,
    summarise_function,
)
from repro.wcet import analyzer, ipet
from repro.workloads import (
    build_call_tree,
    build_fir_filter,
    build_linear_search,
    build_matmul,
    build_mixed_access,
    build_saturate,
    build_stack_chain,
    build_vector_sum,
)
from repro.workloads.suite import SUITES, build_kernel


def _compiled(kernel, config=None, options=CompileOptions()):
    config = config or PatmosConfig()
    image, _ = compile_and_link(kernel.program, config, options)
    return image


class TestIpet:
    def _cfg(self, build):
        b = ProgramBuilder("p")
        f = b.function("main")
        build(f)
        program = b.build()
        return ControlFlowGraph.build(program.function("main"))

    def test_straight_line(self):
        cfg = self._cfg(lambda f: (f.li("r1", 1), f.halt()))
        result = solve_ipet(cfg, {label: 5 for label in cfg.function.block_labels()})
        assert result.wcet == 5 * len(cfg.function.blocks)

    def test_if_else_takes_longer_side(self):
        def build(f):
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("else_side", pred="p1")
            f.li("r2", 1)
            f.br("join")
            f.label("else_side")
            f.li("r3", 1)
            f.label("join")
            f.halt()
        cfg = self._cfg(build)
        costs = {label: 1 for label in cfg.function.block_labels()}
        costs["else_side"] = 50
        result = solve_ipet(cfg, costs)
        assert result.wcet >= 50
        assert result.block_counts["else_side"] == 1

    def test_loop_bound_respected(self):
        def build(f):
            f.li("r1", 10)
            f.label("loop")
            f.emit("subi", "r1", "r1", 1)
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("loop", pred="p1")
            f.loop_bound("loop", 10)
            f.halt()
        cfg = self._cfg(build)
        costs = {label: 1 for label in cfg.function.block_labels()}
        costs["loop"] = 7
        result = solve_ipet(cfg, costs)
        assert result.block_counts["loop"] == 10
        assert result.wcet == 10 * 7 + (len(cfg.function.blocks) - 1)

    def test_missing_loop_bound_rejected(self):
        def build(f):
            f.label("loop")
            f.emit("subi", "r1", "r1", 1)
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("loop", pred="p1")
            f.halt()
        cfg = self._cfg(build)
        with pytest.raises(WcetError):
            solve_ipet(cfg, {label: 1 for label in cfg.function.block_labels()})

    def test_explicit_bound_overrides(self):
        def build(f):
            f.label("loop")
            f.emit("subi", "r1", "r1", 1)
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("loop", pred="p1")
            f.halt()
        cfg = self._cfg(build)
        result = solve_ipet(cfg, {label: 1 for label in cfg.function.block_labels()},
                            loop_bounds={"loop": 4})
        assert result.block_counts["loop"] == 4

    def test_dag_longest_path_matches_ipet(self):
        def build(f):
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("other", pred="p1")
            f.li("r2", 1)
            f.br("join")
            f.label("other")
            f.li("r3", 1)
            f.label("join")
            f.halt()
        cfg = self._cfg(build)
        costs = {label: 3 for label in cfg.function.block_labels()}
        assert longest_path_dag(cfg, costs) == solve_ipet(cfg, costs).wcet


def _assert_optimal_flow(cfg, costs, loop_bounds=None, flow_constraints=None):
    """Check ``solve_ipet`` against the ILP oracle on one instance.

    The WCETs must be equal, and the structural solver's counts must be a
    feasible flow (conservation, one unit from entry to exit, every loop
    bound) whose cost is the WCET.
    """
    result = solve_ipet(cfg, costs, loop_bounds, flow_constraints)
    oracle = ipet._milp(cfg, costs, loop_bounds, flow_constraints)
    assert result.wcet == oracle.wcet
    edges = result.edge_counts
    assert edges.keys() == oracle.edge_counts.keys()
    assert all(isinstance(n, int) and n >= 0 for n in edges.values())
    assert edges[(ipet.SOURCE, cfg.entry)] == 1
    assert sum(n for (_src, dst), n in edges.items() if dst == ipet.SINK) == 1
    for label in cfg.reachable():
        inflow = sum(n for (_src, dst), n in edges.items() if dst == label)
        outflow = sum(n for (src, _dst), n in edges.items() if src == label)
        assert inflow == outflow == result.block_counts[label]
    bounds = dict(loop_bounds or {})
    for loop in cfg.natural_loops():
        bound = bounds.get(loop.header, loop.bound)
        into = [(edge, n) for edge, n in edges.items() if edge[1] == loop.header]
        back = sum(n for edge, n in into if edge in loop.back_edges)
        entries = sum(n for edge, n in into if edge not in loop.back_edges)
        assert back <= (bound - 1) * entries
    assert sum(costs.get(label, 0) * n
               for label, n in result.block_counts.items()) == result.wcet


def _random_looped_function(seed):
    """A random reducible CFG with bounded loops and random block costs.

    Loops nest up to three deep; bodies may ``continue`` to (add a back edge
    to) any enclosing header, ``break`` out of any enclosing loop and return,
    and may hold dead blocks that fall through into the rest of the body.
    The entry block is a loop header when the function starts with a loop,
    and bounds range from 1 to 4.
    """
    rng = random.Random(seed)
    b = ProgramBuilder(f"loops_{seed}")
    f = b.function("main")
    names = itertools.count()

    def statements(enclosing):
        for _ in range(rng.randrange(1, 4)):
            choice = rng.random()
            if choice < 0.3 and len(enclosing) < 3:
                loop(enclosing)
            elif choice < 0.5:
                other, join = f"other_{next(names)}", f"join_{next(names)}"
                f.br(other, pred="p1")
                f.emit("addi", "r2", "r2", 1)
                f.br(join)
                f.label(other)
                f.emit("addi", "r3", "r3", 1)
                f.label(join)
            elif choice < 0.7 and enclosing:
                f.br(rng.choice(rng.choice(enclosing)), pred="p2")
            elif choice < 0.8 and enclosing:
                stay = f"stay_{next(names)}"
                f.br(stay, pred="p3")
                f.ret()
                f.label(stay)
            elif choice < 0.88 and enclosing:
                dead, skip = f"dead_{next(names)}", f"skip_{next(names)}"
                f.br(skip)
                f.label(dead)
                f.emit("addi", "r5", "r5", 1)
                f.br(enclosing[-1][0], pred="p2")
                f.label(skip)
            else:
                f.emit("addi", "r4", "r4", 1)

    def loop(enclosing):
        header, exit_ = f"head_{next(names)}", f"exit_{next(names)}"
        f.label(header)
        statements(enclosing + [(header, exit_)])
        f.br(header, pred="p1")
        f.loop_bound(header, rng.randrange(1, 5))
        f.label(exit_)

    if rng.random() < 0.3:
        loop([])
    statements([])
    f.halt()
    function = b.build().function("main")
    costs = {label: rng.randrange(0, 40) for label in function.block_labels()}
    return ControlFlowGraph.build(function), costs


@pytest.mark.parametrize("seed", range(60))
def test_structural_ipet_matches_milp_on_looped_cfgs(seed):
    cfg, costs = _random_looped_function(seed)
    assert cfg.is_reducible()
    _assert_optimal_flow(cfg, costs)


def test_random_looped_cfgs_cover_the_hard_shapes():
    """The generator above reaches every shape the collapse must handle."""
    seen = set()
    for seed in range(60):
        cfg, _costs = _random_looped_function(seed)
        loops = cfg.natural_loops()
        if any(cfg.loop_nest_depth(loop.header) > 1 for loop in loops):
            seen.add("nested")
        if any(len(loop.back_edges) > 1 for loop in loops):
            seen.add("several back edges")
        if any(loop.header == cfg.entry for loop in loops):
            seen.add("entry header")
        if any(loop.bound == 1 for loop in loops):
            seen.add("bound 1")
        if any(src in loop.body and dst in cfg.exits and dst != cfg.exits[-1]
               for loop in loops if cfg.loop_nest_depth(loop.header) > 1
               for src, dst in cfg.edges()):
            seen.add("return from an inner loop")
        if any(loop.body - cfg.reachable() for loop in loops):
            seen.add("dead block in a loop")
    assert seen == {"nested", "several back edges", "entry header", "bound 1",
                    "return from an inner loop", "dead block in a loop"}


def test_structural_ipet_ignores_dead_blocks_in_a_loop_body():
    """A dead block falling through into a loop lies in its natural loop
    body but carries no flow."""
    b = ProgramBuilder("p")
    f = b.function("main")
    f.label("head")
    f.emit("addi", "r1", "r1", 1)
    f.br("mid")
    f.label("dead")
    f.emit("addi", "r2", "r2", 1)
    f.label("mid")
    f.emit("subi", "r1", "r1", 1)
    f.br("head", pred="p1")
    f.loop_bound("head", 4)
    f.label("exit")
    f.halt()
    cfg = ControlFlowGraph.build(b.build().function("main"))
    (loop,) = cfg.natural_loops()
    assert "dead" in loop.body and "dead" not in cfg.reachable()
    costs = {"head": 5, "dead": 100, "mid": 3, "exit": 1}
    _assert_optimal_flow(cfg, costs)
    assert solve_ipet(cfg, costs).wcet == 4 * (5 + 3) + 1


def test_structural_ipet_on_function_without_exit():
    """An endless loop: the last block is the exit and has a successor."""
    b = ProgramBuilder("p")
    f = b.function("main")
    f.label("spin")
    f.emit("addi", "r1", "r1", 1)
    f.label("tail")
    f.br("spin")
    f.loop_bound("spin", 6)
    cfg = ControlFlowGraph.build(b.build().function("main"))
    assert cfg.exits == ["tail"] and cfg.successors("tail") == ["spin"]
    _assert_optimal_flow(cfg, {"spin": 3, "tail": 2})


@pytest.mark.parametrize("variant", DEFAULT_VARIANTS, ids=lambda v: v.name)
def test_structural_ipet_matches_milp_on_suite_kernels(variant, monkeypatch):
    instances = []

    def recording(*args, **kwargs):
        instances.append((args, kwargs))
        return solve_ipet(*args, **kwargs)

    monkeypatch.setattr(analyzer, "solve_ipet", recording)
    options = WcetOptions(**dict(variant.wcet_overrides))
    for name in SUITES["all"]:
        image, _ = compile_and_link(build_kernel(name).program)
        analyze_wcet(image, options=options)
    assert len(instances) >= len(SUITES["all"])
    for args, kwargs in instances:
        _assert_optimal_flow(*args, **kwargs)


class TestCacheAnalyses:
    def test_method_cache_persistence_when_everything_fits(self, config):
        kernel = build_call_tree(num_functions=3, pad_instructions=8)
        image = _compiled(kernel, config)
        analysis = analyse_method_cache(image, config, mode="persistence")
        assert analysis.fits_all
        assert all(cost == 0 for cost in analysis.per_target_cost.values())
        assert analysis.one_off_cycles > 0

    def test_method_cache_always_miss_when_too_small(self):
        config = PatmosConfig(method_cache=MethodCacheConfig(size_bytes=512,
                                                             num_blocks=4))
        kernel = build_call_tree(num_functions=6, pad_instructions=40)
        image = _compiled(kernel, config)
        analysis = analyse_method_cache(image, config, mode="persistence")
        assert not analysis.fits_all
        assert any(cost > 0 for cost in analysis.per_target_cost.values())

    def test_static_cache_persistence_checks_conflicts(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        analysis = analyse_static_cache(image, config, mode="persistence")
        assert analysis.persistent
        assert analysis.per_read_cost == 0
        assert analysis.one_off_cycles > 0

    def test_unified_cache_analysis_is_pessimistic(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        unified = analyse_static_cache(image, config, unified=True)
        assert not unified.persistent
        assert unified.per_read_cost > 0

    def test_stack_cache_refined_beats_naive(self, config):
        kernel = build_stack_chain(depth=8, frame_words=40)
        image = _compiled(kernel, config)
        frames = {name: 42 for name in image.program.functions}
        frames["main"] = 2
        refined = analyse_stack_cache(image.program, config, frames,
                                      mode="refined")
        naive = analyse_stack_cache(image.program, config, frames, mode="naive")
        assert sum(refined.spill_words.values()) <= sum(naive.spill_words.values())
        # The first levels fit in the cache, so their sres never spills.
        assert refined.spill_words["level0"] == 0

    def test_stack_cache_rejects_recursion(self, config):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("main")
        f.halt()
        with pytest.raises(WcetError):
            analyse_stack_cache(b.build(), config, {"main": 2})


class TestBlockSummaries:
    def test_summary_counts_events(self, config):
        kernel = build_mixed_access(8)
        image = _compiled(kernel, config)
        summaries = summarise_function(image.program.function("main"))
        from repro.isa import MemType
        reads = {mem_type: 0 for mem_type in MemType}
        for summary in summaries.values():
            for mem_type in MemType:
                reads[mem_type] += summary.read_count(mem_type)
        assert reads[MemType.STATIC] >= 1
        assert reads[MemType.OBJECT] >= 1
        assert reads[MemType.STACK] >= 1
        assert reads[MemType.LOCAL] >= 1


def _wcet_fields(result):
    return (result.wcet_cycles, result.one_off_cycles, {
        name: (func.wcet_cycles, func.block_costs, func.ipet.block_counts,
               func.ipet.edge_counts)
        for name, func in result.per_function.items()})


class TestImageLayout:
    """The option-independent analysis work is done once per image."""

    KERNELS = ("large_function", "call_tree", "stack_chain")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shared_layout_matches_fresh_analyses(self, config, kernel):
        image = _compiled(build_kernel(kernel), config)
        schedule = TdmaSchedule(num_cores=2,
                                slot_cycles=config.memory.burst_cycles())
        interference = (dict(tdma=schedule, tdma_core_id=1),
                        dict(arbiter="round_robin", arbiter_cores=2))
        for variant, arbiter in itertools.product(DEFAULT_VARIANTS,
                                                  interference):
            options = WcetOptions(**dict(variant.wcet_overrides), **arbiter)
            fresh_image = _compiled(build_kernel(kernel), config)
            fresh = analyzer.WcetAnalyzer(fresh_image, config,
                                          options).analyze()
            shared = analyze_wcet(image, config, options=options)
            assert _wcet_fields(shared) == _wcet_fields(fresh), variant.name

    def test_suite_covers_merged_subfunctions(self, config):
        image = _compiled(build_kernel("large_function"), config)
        assert any(function.is_subfunction
                   for function in image.program.functions.values())

    def test_blocks_are_summarised_once(self, config, monkeypatch):
        calls = collections.Counter()
        real = analyzer.summarise_block

        def counting(function, block):
            calls[(function.name, block.label)] += 1
            return real(function, block)

        monkeypatch.setattr(analyzer, "summarise_block", counting)
        image = _compiled(build_kernel("large_function"), config)
        for variant in DEFAULT_VARIANTS:
            analyze_wcet(image, config,
                         options=WcetOptions(**dict(variant.wcet_overrides)))
        analysed = {(function.name, block.label)
                    for function in image.program.functions.values()
                    for block in function.blocks}
        assert set(calls) == analysed
        assert set(calls.values()) == {1}

    def test_pickled_image_drops_the_layout(self, config):
        image = _compiled(build_call_tree(num_functions=3), config)
        bound = analyze_wcet(image, config).wcet_cycles
        assert "wcet_layout" in image._caches
        clone = pickle.loads(pickle.dumps(image))
        assert clone._caches == {}
        assert analyze_wcet(clone, config).wcet_cycles == bound

    def test_unscheduled_block_raises_on_every_call(self, config):
        image = _compiled(build_vector_sum(16), config)
        image.program.function("main").blocks[-1].bundles = None
        for _ in range(2):
            with pytest.raises(WcetError, match="not scheduled"):
                analyze_wcet(image, config)

    def test_block_errors_keep_their_order(self, config):
        """Blocks are summarised as they are priced: an earlier block's
        callr error wins over a later block that is not scheduled."""
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 0x10000)
        f.emit("callr", "r1")
        f.label("tail")
        f.li("r2", 1)
        f.halt()
        image, _ = compile_and_link(b.build(), config)
        image.program.function("main").blocks[-1].bundles = None
        for _ in range(2):
            with pytest.raises(WcetError, match="indirect calls"):
                analyze_wcet(image, config)


KERNEL_BUILDERS = [
    ("vector_sum", build_vector_sum, {}),
    ("fir_filter", build_fir_filter, {}),
    ("matmul", build_matmul, {}),
    ("saturate", build_saturate, {}),
    ("linear_search", build_linear_search, {}),
    ("call_tree", build_call_tree, {}),
    ("stack_chain", build_stack_chain, {}),
    ("mixed_access", build_mixed_access, {}),
]


class TestWholeProgramBounds:
    @pytest.mark.parametrize("name,builder,kwargs", KERNEL_BUILDERS,
                             ids=[k[0] for k in KERNEL_BUILDERS])
    def test_bound_is_sound_and_reasonably_tight(self, config, name, builder,
                                                 kwargs):
        kernel = builder(**kwargs)
        image = _compiled(kernel, config)
        observed = CycleSimulator(image, strict=True).run()
        assert observed.output == kernel.expected_output
        result = analyze_wcet(image, config)
        assert result.wcet_cycles >= observed.cycles, name
        # The exposed-delay pipeline and analysable caches keep the bound
        # within a small factor of the observation for these kernels.
        assert result.tightness(observed.cycles) < 6.0, name

    def test_conventional_icache_analysis_is_more_pessimistic(self, config):
        # With a cache smaller than the program, the conventional-I$ analysis
        # has to assume every fetch misses, while the method-cache analysis
        # still only pays at call/return — the paper's analysability argument.
        kernel = build_call_tree(num_functions=4, iterations=4)
        small = config.with_(method_cache=MethodCacheConfig(size_bytes=512,
                                                            num_blocks=4))
        image = _compiled(kernel, small)
        method = analyze_wcet(image, small)
        conventional = analyze_wcet(
            image, small, options=WcetOptions(conventional_icache=True))
        assert conventional.wcet_cycles > method.wcet_cycles
        assert conventional.icache is not None
        assert not conventional.icache.fits_whole_program

    def test_unified_cache_bound_larger_than_split(self, config):
        kernel = build_mixed_access(16)
        image = _compiled(kernel, config)
        split = analyze_wcet(image, config)
        unified = analyze_wcet(image, config,
                               options=WcetOptions(unified_data_cache=True))
        assert unified.wcet_cycles > split.wcet_cycles

    def test_tdma_increases_bound(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        alone = analyze_wcet(image, config)
        shared = analyze_wcet(image, config, options=WcetOptions(
            tdma=TdmaSchedule(num_cores=4,
                              slot_cycles=config.memory.burst_cycles())))
        assert shared.wcet_cycles > alone.wcet_cycles

    def test_round_robin_interference_model(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        alone = analyze_wcet(image, config)
        two = analyze_wcet(image, config, options=WcetOptions(
            arbiter="round_robin", arbiter_cores=2))
        four = analyze_wcet(image, config, options=WcetOptions(
            arbiter="round_robin", arbiter_cores=4))
        # (N - 1) maximal transfers per access: grows with the core count.
        assert alone.wcet_cycles < two.wcet_cycles < four.wcet_cycles
        # The four-core round-robin bound beats the four-core TDMA bound
        # (period - 1 > 3 bursts), which is the paper's point: round-robin
        # *bounds* are not the problem, their co-runner dependence is.
        tdma = analyze_wcet(image, config, options=WcetOptions(
            tdma=TdmaSchedule(num_cores=4,
                              slot_cycles=config.memory.burst_cycles())))
        assert four.wcet_cycles <= tdma.wcet_cycles

    def test_priority_interference_model(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        alone = analyze_wcet(image, config)
        top = analyze_wcet(image, config, options=WcetOptions(
            arbiter="priority", arbiter_cores=4))
        assert alone.wcet_cycles < top.wcet_cycles
        with pytest.raises(WcetError, match="priority"):
            analyze_wcet(image, config, options=WcetOptions(
                arbiter="priority", arbiter_cores=4, priority_rank=1))

    def test_unknown_arbiter_model_rejected(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        with pytest.raises(WcetError, match="unknown arbiter"):
            analyze_wcet(image, config, options=WcetOptions(
                arbiter="lottery", arbiter_cores=2))

    def test_indirect_calls_rejected(self, config):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 0x10000)
        f.emit("callr", "r1")
        f.halt()
        image, _ = compile_and_link(b.build(), config)
        with pytest.raises(WcetError):
            analyze_wcet(image, config)

    def test_summary_and_per_function_breakdown(self, config):
        kernel = build_call_tree(num_functions=3)
        image = _compiled(kernel, config)
        result = analyze_wcet(image, config)
        assert "main" in result.per_function
        assert "work0" in result.per_function
        assert "main" in result.summary()

    def test_single_path_bound_equals_observation(self, config):
        # Single-path code over scratchpad data: the WCET bound and the
        # observation coincide apart from the one-off cache fills.
        kernel = build_linear_search(24, key_index=3)
        image = _compiled(kernel, config, CompileOptions(single_path=True))
        observed = CycleSimulator(image, strict=True).run()
        result = analyze_wcet(image, config)
        assert result.wcet_cycles >= observed.cycles
        assert result.tightness(observed.cycles) < 1.2
