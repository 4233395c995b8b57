"""Tests for the WCET-aware compiler passes."""

import hashlib
import random

import pytest

from repro import (
    CompileOptions,
    CycleSimulator,
    PatmosConfig,
    ProgramBuilder,
    compile_and_link,
    compile_program,
)
from repro.compiler import (
    BlockScheduler,
    build_dependence_graph,
    if_convert_function,
    schedule_program,
    single_path_function,
    split_program,
)
from repro.compiler.dependence import (
    Dependence,
    DependenceGraph,
    _ORDERED,
)
from repro.compiler.simplify import merge_straightline_blocks
from repro.compiler.stack_alloc import allocate_function, frame_size_words
from repro.config import MethodCacheConfig
from repro.errors import CompilerError
from repro.isa import Instruction, Opcode
from repro.isa.opcodes import result_delay_slots
from repro.program.basic_block import BasicBlock
from repro.workloads import (
    KERNEL_BUILDERS,
    build_call_tree,
    build_kernel,
    build_large_function,
    build_linear_search,
    build_saturate,
    build_stack_chain,
)


def _instr(mnemonic, *ops, pred=None):
    from repro.program.builder import _make_instruction, parse_guard
    from repro.isa.opcodes import opcode_from_mnemonic
    return _make_instruction(opcode_from_mnemonic(mnemonic), ops,
                             parse_guard(pred))


class TestDependenceGraph:
    def test_raw_distance_for_alu(self, config):
        instrs = [_instr("addi", "r1", "r0", 1), _instr("add", "r2", "r1", "r1")]
        graph = build_dependence_graph(instrs, config.pipeline)
        raw = [e for e in graph.edges if e.kind == "raw"]
        assert raw and raw[0].distance == 1

    def test_raw_distance_for_load(self, config):
        instrs = [_instr("lwc", "r1", "r2", 0), _instr("add", "r3", "r1", "r1")]
        graph = build_dependence_graph(instrs, config.pipeline)
        raw = [e for e in graph.edges if e.kind == "raw"]
        assert raw[0].distance == 1 + config.pipeline.load_delay_slots

    def test_raw_distance_for_mul(self, config):
        instrs = [_instr("mul", "r1", "r2"), _instr("mfs", "r3", "sl")]
        graph = build_dependence_graph(instrs, config.pipeline)
        raw = [e for e in graph.edges if e.kind == "raw"]
        assert raw[0].distance == 1 + config.pipeline.mul_delay_slots

    def test_war_allows_same_bundle(self, config):
        instrs = [_instr("add", "r3", "r1", "r2"), _instr("addi", "r1", "r0", 5)]
        graph = build_dependence_graph(instrs, config.pipeline)
        war = [e for e in graph.edges if e.kind == "war"]
        assert war and war[0].distance == 0

    def test_memory_operations_keep_order(self, config):
        instrs = [_instr("swc", "r1", 0, "r2"), _instr("lwc", "r3", "r1", 0)]
        graph = build_dependence_graph(instrs, config.pipeline)
        order = [e for e in graph.edges if e.kind == "order"]
        assert order and order[0].distance >= 1

    def test_wmem_defines_split_load_register(self, config):
        instrs = [_instr("lwm", "r1", "r2", 0), _instr("wmem"),
                  _instr("add", "r3", "r1", "r1")]
        graph = build_dependence_graph(instrs, config.pipeline)
        raw_from_wmem = [e for e in graph.edges
                         if e.kind == "raw" and e.src == 1 and e.dst == 2]
        assert raw_from_wmem

    def test_split_load_distance_hint(self, config):
        instrs = [_instr("lwm", "r1", "r2", 0), _instr("wmem")]
        graph = build_dependence_graph(instrs, config.pipeline,
                                       split_load_distance=14)
        order = [e for e in graph.edges if e.dst == 1]
        assert max(e.distance for e in order) == 14

    def test_critical_path_lengths(self, config):
        instrs = [_instr("lwc", "r1", "r2", 0), _instr("add", "r3", "r1", "r1"),
                  _instr("add", "r4", "r3", "r3")]
        graph = build_dependence_graph(instrs, config.pipeline)
        lengths = graph.critical_path_lengths()
        assert lengths[0] > lengths[1] > lengths[2] == 0


def _pairwise_graph(instructions, pipeline, split_load_distance=1):
    """Differential oracle: the dependence graph with an edge for every
    dependent pair of instructions, found by comparing all pairs."""
    graph = DependenceGraph(instructions=list(instructions))
    count = len(instructions)

    def add(src: int, dst: int, distance: int, kind: str) -> None:
        graph.add_edge(Dependence(src=src, dst=dst, distance=distance, kind=kind))

    # A decoupled main-memory load only commits its destination register when
    # the matching wmem executes, so for dependence purposes the wmem acts as
    # the defining instruction of that register.
    wmem_defs: dict[int, frozenset[int]] = {}
    pending_rd: frozenset[int] = frozenset()
    for index, instr in enumerate(instructions):
        if instr.info.is_decoupled_load and instr.rd is not None:
            pending_rd = frozenset((instr.rd,))
        elif instr.opcode is Opcode.WMEM:
            wmem_defs[index] = pending_rd
            pending_rd = frozenset()

    for later in range(count):
        instr_j = instructions[later]
        uses_j = instr_j.gpr_uses()
        defs_j = instr_j.gpr_defs()
        pred_uses_j = instr_j.pred_uses()
        pred_defs_j = instr_j.pred_defs()
        special_uses_j = instr_j.special_uses()
        special_defs_j = instr_j.special_defs()
        for earlier in range(later):
            instr_i = instructions[earlier]
            delay_i = result_delay_slots(instr_i.info, pipeline)
            defs_i = instr_i.gpr_defs() | wmem_defs.get(earlier, frozenset())
            uses_i = instr_i.gpr_uses()
            pred_defs_i = instr_i.pred_defs()
            pred_uses_i = instr_i.pred_uses()
            special_defs_i = instr_i.special_defs()
            special_uses_i = instr_i.special_uses()

            # True dependences (read after write): respect the exposed delay.
            if defs_i & uses_j or special_defs_i & special_uses_j:
                add(earlier, later, 1 + delay_i, "raw")
            if pred_defs_i & pred_uses_j:
                add(earlier, later, 1, "raw-pred")

            # Output dependences (write after write): the later write must
            # commit after the earlier one.
            if defs_i & defs_j or pred_defs_i & pred_defs_j \
                    or special_defs_i & special_defs_j:
                delay_j = result_delay_slots(instr_j.info, pipeline)
                add(earlier, later, max(1, 1 + delay_i - delay_j), "waw")

            # Anti dependences (write after read): same bundle is fine because
            # all operands are read before any write commits.
            if uses_i & defs_j or pred_uses_i & pred_defs_j \
                    or special_uses_i & special_defs_j:
                add(earlier, later, 0, "war")

    # Ordered side effects (memory accesses, stack control, waits, output)
    # keep program order; chaining consecutive ones is enough because the
    # constraint is transitive.
    previous_ordered: int | None = None
    for index, instr in enumerate(instructions):
        if instr.opcode not in _ORDERED:
            continue
        if previous_ordered is not None:
            distance = 1
            # A split main-memory load and its wmem must stay ordered; aiming
            # for `split_load_distance` bundles lets independent work hide
            # the memory latency (Section 3.3).
            if instructions[previous_ordered].info.is_decoupled_load \
                    and instr.opcode is Opcode.WMEM:
                distance = max(1, split_load_distance)
            add(previous_ordered, index, distance, "order")
        previous_ordered = index

    return graph


_REGS = ("r0", "r1", "r2", "r3", "r4", "r5")
_PREDS = ("p1", "p2", "p3")


def _random_block(seed):
    """A short block body drawing on few registers, so accesses collide."""
    rng = random.Random(seed)

    def reg():
        return rng.choice(_REGS)

    def guard():
        if rng.random() < 0.25:
            return rng.choice(("", "!")) + rng.choice(_PREDS)
        return None

    makers = (
        lambda: [_instr("add", reg(), reg(), reg(), pred=guard())],
        lambda: [_instr("addi", reg(), reg(), rng.randrange(64), pred=guard())],
        lambda: [_instr("addl", reg(), reg(), rng.randrange(1 << 20),
                        pred=guard())],
        lambda: [_instr(rng.choice(("lil", "lih")), reg(), rng.randrange(1 << 16))],
        lambda: [_instr(rng.choice(("mul", "mulu")), reg(), reg()),
                 _instr("mfs", reg(), rng.choice(("sl", "sh")))],
        lambda: [_instr("mts", rng.choice(("sl", "sh", "st", "ss", "srb",
                                           "sro")), reg())],
        lambda: [_instr("lwc", reg(), reg(), rng.randrange(8), pred=guard())],
        lambda: [_instr(rng.choice(("lwm", "lbum")), reg(), reg(),
                        rng.randrange(8)), _instr("wmem")],
        lambda: [_instr(rng.choice(("swc", "sws")), reg(), rng.randrange(8),
                        reg(), pred=guard())],
        lambda: [_instr(rng.choice(("sres", "sens", "sfree")),
                        rng.randrange(1, 5))],
        lambda: [_instr("lws", reg(), reg(), rng.randrange(8))],
        lambda: [_instr(rng.choice(("cmplt", "btest")), rng.choice(_PREDS),
                        reg(), reg(), pred=guard())],
        lambda: [_instr("cmpineq", rng.choice(_PREDS), reg(), rng.randrange(8))],
        lambda: [_instr("por", rng.choice(_PREDS), rng.choice(_PREDS),
                        rng.choice(_PREDS))],
        lambda: [_instr("pnot", rng.choice(_PREDS), rng.choice(_PREDS),
                        pred=guard())],
        lambda: [_instr("out", reg())],
    )
    instrs = []
    for _ in range(rng.randrange(1, 30)):
        if instrs and rng.random() < 0.1:
            # The same Instruction object may occur twice in one block.
            instrs.append(rng.choice(instrs))
        else:
            instrs.extend(rng.choice(makers)())
    # The wmem of a split load sometimes drifts away from its load.
    if rng.random() < 0.5:
        rng.shuffle(instrs)
    return instrs


def _random_terminator(seed):
    rng = random.Random(seed)
    return rng.choice((
        None,
        _instr("br", "loop", pred=rng.choice(_PREDS)),
        _instr("brcf", "far"),
        _instr("call", "callee"),
        _instr("callr", rng.choice(_REGS)),
        _instr("ret"),
        _instr("halt"),
    ))


def _longest_paths_from(graph, source):
    """Longest path distance from ``source`` to every later node, or None."""
    longest = [None] * len(graph.instructions)
    longest[source] = 0
    for index in range(source, len(longest)):
        if longest[index] is None:
            continue
        for edge in graph.successors(index):
            distance = longest[index] + edge.distance
            if longest[edge.dst] is None or distance > longest[edge.dst]:
                longest[edge.dst] = distance
    return longest


_ORACLE_SEEDS = range(240)

#: SHA-256 over the schedules of every random block with its terminator,
#: seed by seed, dual issue first and then single issue.
_RANDOM_SCHEDULES_DIGEST = (
    "c151afbf0e19954f84cc086546690d8bcd4b3bb20528eb30cb34b9e8bacf7a63")


def _random_block_with_terminator(seed):
    instrs = _random_block(seed)
    terminator = _random_terminator(seed)
    if terminator is not None:
        instrs.append(terminator)
    return instrs


def _random_schedule(scheduler, seed):
    block = BasicBlock(label="b", instrs=_random_block_with_terminator(seed))
    return [str(bundle) for bundle in scheduler.schedule_block(block)]


class TestDependenceOracle:
    """The table-driven builder against the pairwise oracle."""

    @pytest.fixture(scope="class")
    def graphs(self):
        pipeline = PatmosConfig().pipeline
        pairs = []
        for seed in _ORACLE_SEEDS:
            block = _random_block_with_terminator(seed)
            distance = random.Random(seed).choice((1, 14))
            pairs.append((
                build_dependence_graph(block, pipeline,
                                       split_load_distance=distance),
                _pairwise_graph(block, pipeline, split_load_distance=distance)))
        return pairs

    def test_blocks_cover_every_dependence_kind(self, graphs):
        kinds = {edge.kind for _, oracle in graphs for edge in oracle.edges}
        assert kinds == {"raw", "raw-pred", "waw", "war", "order"}

    def test_every_edge_is_an_oracle_edge(self, graphs):
        for graph, oracle in graphs:
            assert set(graph.edges) <= set(oracle.edges)
            assert len(set(graph.edges)) == len(graph.edges)

    def test_dropped_edges_are_implied_by_paths(self, graphs):
        for graph, oracle in graphs:
            for src in range(len(graph.instructions)):
                longest = _longest_paths_from(graph, src)
                for edge in oracle.successors(src):
                    assert longest[edge.dst] is not None, edge
                    assert longest[edge.dst] >= edge.distance, edge

    def test_critical_path_lengths_agree(self, graphs):
        for graph, oracle in graphs:
            assert graph.critical_path_lengths() == oracle.critical_path_lengths()

    @pytest.mark.parametrize("dual_issue", [True, False])
    def test_scheduler_output_is_identical(self, config, monkeypatch,
                                           dual_issue):
        import repro.compiler.scheduler as scheduler_module
        scheduler = BlockScheduler(config, dual_issue=dual_issue)
        fast = [_random_schedule(scheduler, seed) for seed in _ORACLE_SEEDS]
        monkeypatch.setattr(scheduler_module, "build_dependence_graph",
                            _pairwise_graph)
        assert [_random_schedule(scheduler, seed)
                for seed in _ORACLE_SEEDS] == fast

    def test_random_block_schedules_are_pinned(self, config):
        digest = hashlib.sha256()
        for dual_issue in (True, False):
            scheduler = BlockScheduler(config, dual_issue=dual_issue)
            for seed in _ORACLE_SEEDS:
                for line in _random_schedule(scheduler, seed):
                    digest.update(line.encode() + b"\n")
                digest.update(b"--\n")
        assert digest.hexdigest() == _RANDOM_SCHEDULES_DIGEST


#: SHA-256 over the sorted edges of every random block's dependence graph,
#: seed by seed, for split-load distances 1 and 14.
_RANDOM_EDGES_DIGEST = (
    "5a60b85d870d9452cb6f47351e6b4bcb4ecf4a423ac21a83d28f145970efac18")


class TestDependenceEdges:
    def test_random_block_edge_multisets_are_pinned(self):
        pipeline = PatmosConfig().pipeline
        digest = hashlib.sha256()
        for seed in _ORACLE_SEEDS:
            block = _random_block_with_terminator(seed)
            for distance in (1, 14):
                graph = build_dependence_graph(
                    block, pipeline, split_load_distance=distance)
                for edge in sorted(graph.edges):
                    digest.update(repr(tuple(edge)).encode() + b"\n")
                digest.update(b"--\n")
        assert digest.hexdigest() == _RANDOM_EDGES_DIGEST

    def test_edges_are_dependences(self):
        block = _random_block_with_terminator(3)
        graph = build_dependence_graph(block, PatmosConfig().pipeline)
        assert graph.edges and all(type(edge) is Dependence
                                   for edge in graph.edges)
        assert graph.in_degrees() == [len(graph.predecessors(index))
                                      for index in range(len(block))]


class TestScheduler:
    def _schedule(self, instrs, config, **kwargs):
        block = BasicBlock(label="b", instrs=list(instrs))
        return BlockScheduler(config, **kwargs).schedule_block(block)

    def test_independent_instructions_are_paired(self, config):
        bundles = self._schedule(
            [_instr("addi", "r1", "r0", 1), _instr("addi", "r2", "r0", 2)], config)
        assert len(bundles) == 1 and len(bundles[0]) == 2

    def test_dependent_instructions_are_serialised(self, config):
        bundles = self._schedule(
            [_instr("addi", "r1", "r0", 1), _instr("add", "r2", "r1", "r1")],
            config)
        assert len(bundles) == 2

    def test_single_issue_never_pairs(self, config):
        bundles = self._schedule(
            [_instr("addi", "r1", "r0", 1), _instr("addi", "r2", "r0", 2)],
            config, dual_issue=False)
        assert all(len(b) == 1 for b in bundles)

    def test_two_slot0_only_instructions_not_paired(self, config):
        bundles = self._schedule(
            [_instr("lwc", "r1", "r0", 0), _instr("lwc", "r2", "r0", 4)], config)
        assert len(bundles) >= 2

    def test_slot0_only_placed_first_in_bundle(self, config):
        bundles = self._schedule(
            [_instr("addi", "r1", "r0", 1), _instr("lwc", "r2", "r0", 0)], config)
        paired = [b for b in bundles if len(b) == 2]
        assert paired and paired[0].first.opcode is Opcode.LWC

    def test_branch_gets_exact_delay_slots(self, config):
        instrs = [_instr("addi", "r1", "r0", 1), _instr("br", "target")]
        bundles = self._schedule(instrs, config)
        branch_index = next(i for i, b in enumerate(bundles)
                            if b.first.opcode is Opcode.BR)
        assert len(bundles) - 1 - branch_index == config.pipeline.branch_delay_slots

    def test_call_gets_exact_delay_slots(self, config):
        instrs = [_instr("call", "callee")]
        bundles = self._schedule(instrs, config)
        assert len(bundles) == 1 + config.pipeline.call_delay_slots

    def test_load_delay_padded_at_block_end(self, config):
        bundles = self._schedule([_instr("lwc", "r1", "r0", 0)], config)
        # The load needs one exposed delay slot before the block boundary.
        assert len(bundles) == 2

    def test_terminator_waits_for_guard_producer(self, config):
        instrs = [_instr("cmpineq", "p1", "r1", 0), _instr("br", "loop", pred="p1")]
        bundles = self._schedule(instrs, config)
        cmp_index = next(i for i, b in enumerate(bundles)
                         if b.first.opcode is Opcode.CMPINEQ)
        br_index = next(i for i, b in enumerate(bundles)
                        if b.first.opcode is Opcode.BR)
        assert br_index > cmp_index

    def test_one_dependence_build_per_block(self, config, monkeypatch):
        import repro.compiler.scheduler as scheduler_module
        built = []

        def counting(instructions, *args, **kwargs):
            built.append(len(instructions))
            return build_dependence_graph(instructions, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "build_dependence_graph",
                            counting)
        body = [_instr("addi", "r1", "r0", 1), _instr("add", "r2", "r1", "r1")]
        blocks = {
            "body only": (body, 2),
            "body and terminator": (body + [_instr("br", "b")], 3),
            "terminator only": ([_instr("ret")], 1),
            "empty": ([], None),
        }
        for name, (instrs, expected) in blocks.items():
            built.clear()
            self._schedule(instrs, config)
            assert built == ([] if expected is None else [expected]), name

    def test_schedule_stats(self, config):
        kernel = build_saturate(8)
        program = kernel.program.copy()
        from repro.compiler import ScheduleStats
        stats = ScheduleStats()
        schedule_program(program, config, stats=stats)
        assert stats.blocks > 0
        assert stats.bundles >= stats.blocks
        assert 0.0 < stats.slot_utilisation <= 1.0

    @pytest.mark.parametrize("dual_issue", [True, False])
    def test_schedule_stats_count_the_bundles(self, config, dual_issue):
        from repro.compiler import ScheduleStats
        scheduler = BlockScheduler(config, dual_issue=dual_issue)
        stats = ScheduleStats()
        bundles = []
        for seed in range(40):
            block = BasicBlock(label="b",
                               instrs=_random_block_with_terminator(seed))
            bundles += scheduler.schedule_block(block, stats=stats)
        slots = [instr for bundle in bundles for instr in bundle]
        nops = sum(1 for instr in slots if instr.is_nop)
        assert (stats.blocks, stats.bundles, stats.instructions,
                stats.nops_inserted, stats.dual_issue_bundles) == (
            40, len(bundles), len(slots) - nops, nops,
            sum(1 for bundle in bundles if len(bundle) == 2))

    def test_split_terminator(self):
        body = [_instr("addi", "r1", "r0", 1), _instr("addi", "r2", "r0", 2)]
        branch = Instruction(Opcode.BR, target="b")
        block = BasicBlock(label="b", instrs=[body[0], branch, body[1]])
        assert block.split_terminator() == ([body[0], body[1]], branch)
        assert block.terminator() is branch
        assert block.body_instructions() == [body[0], body[1]]
        plain = BasicBlock(label="p", instrs=body)
        assert plain.split_terminator() == (body, None)
        assert plain.split_terminator()[0] is not plain.instrs


class TestIfConversion:
    def test_saturate_branches_removed(self):
        kernel = build_saturate(8)
        function = kernel.program.copy().function("main")
        blocks_before = len(function.blocks)
        stats = if_convert_function(function)
        assert stats.converted_triangles + stats.converted_diamonds >= 2
        assert len(function.blocks) < blocks_before
        # The loop collapses to a single self-loop block.
        loop = function.block("loop")
        assert loop.terminator().target == "loop"

    def test_semantics_preserved(self, config):
        kernel = build_saturate(16)
        baseline, _ = compile_and_link(kernel.program, config)
        converted, _ = compile_and_link(kernel.program, config,
                                        CompileOptions(if_convert=True))
        base_run = CycleSimulator(baseline, strict=True).run()
        conv_run = CycleSimulator(converted, strict=True).run()
        assert base_run.output == conv_run.output == kernel.expected_output

    def test_bubble_sort_swap_predicated(self, config):
        from repro.workloads import build_bubble_sort
        kernel = build_bubble_sort(6)
        image, result = compile_and_link(kernel.program, config,
                                         CompileOptions(if_convert=True))
        assert result.if_conversion.converted_triangles >= 1
        run = CycleSimulator(image, strict=True).run()
        assert run.output == kernel.expected_output

    def test_calls_are_not_converted(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.emit("cmpineq", "p1", "r1", 0)
        f.br("skip", pred="p1")
        f.call("helper")
        f.label("skip")
        f.halt()
        g = b.function("helper")
        g.ret()
        program = b.build()
        function = program.function("main")
        stats = if_convert_function(function)
        assert stats.converted_triangles == 0

    def test_merge_straightline_blocks(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 1)
        f.br("tail")
        f.label("tail")
        f.out("r1")
        f.halt()
        function = b.build().function("main")
        merges = merge_straightline_blocks(function)
        assert merges >= 1
        assert len(function.blocks) == 1


class TestSinglePath:
    def test_linear_search_time_independent_of_key(self, config):
        outputs = []
        cycles = {"baseline": [], "single_path": []}
        for key_index in (2, 15, 30):
            kernel = build_linear_search(32, key_index=key_index)
            base_image, _ = compile_and_link(kernel.program, config)
            sp_image, _ = compile_and_link(kernel.program, config,
                                           CompileOptions(single_path=True))
            base = CycleSimulator(base_image, strict=True).run()
            sp = CycleSimulator(sp_image, strict=True).run()
            assert base.output == kernel.expected_output
            assert sp.output == kernel.expected_output
            outputs.append(sp.output)
            cycles["baseline"].append(base.cycles)
            cycles["single_path"].append(sp.cycles)
        # Baseline execution time depends on the key position ...
        assert len(set(cycles["baseline"])) > 1
        # ... single-path execution time does not (the paper's E7 claim).
        assert len(set(cycles["single_path"])) == 1

    def test_single_path_requires_loop_bound(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 3)
        f.label("loop")
        f.emit("subi", "r1", "r1", 1)
        f.emit("cmpineq", "p1", "r1", 0)
        f.br("loop", pred="p1")
        f.halt()
        function = b.build().function("main")
        with pytest.raises(CompilerError):
            single_path_function(function)

    def test_saturate_single_path_preserves_results(self, config):
        kernel = build_saturate(16)
        image, _ = compile_and_link(kernel.program, config,
                                    CompileOptions(single_path=True))
        run = CycleSimulator(image, strict=True).run()
        assert run.output == kernel.expected_output


class TestStackAllocation:
    def test_frames_inserted_for_non_leaf(self):
        kernel = build_call_tree(num_functions=2, iterations=1)
        program = kernel.program.copy()
        main = program.function("main")
        allocate_function(main)
        opcodes = [i.opcode for i in main.instructions()]
        assert Opcode.SRES in opcodes
        assert Opcode.SENS in opcodes
        assert frame_size_words(main) == 2  # saved srb/sro only

    def test_leaf_without_frame_untouched(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 1)
        f.halt()
        function = b.build().function("main")
        allocate_function(function)
        assert all(i.opcode is not Opcode.SRES for i in function.instructions())

    def test_manual_stack_control_rejected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.frame(4)
        f.emit("sres", 4)
        f.halt()
        function = b.build().function("main")
        with pytest.raises(CompilerError):
            allocate_function(function)

    def test_stack_chain_runs_with_spills(self, config):
        kernel = build_stack_chain(depth=8, frame_words=40)
        image, _ = compile_and_link(kernel.program, config)
        sim = CycleSimulator(image, strict=True)
        run = sim.run()
        assert run.output == kernel.expected_output
        assert sim.stack_cache.total_spilled_words > 0
        assert sim.stack_cache.total_filled_words > 0


class TestFunctionSplitting:
    def test_oversized_function_is_split(self, config):
        kernel = build_large_function(blocks=48, instructions_per_block=24,
                                      iterations=1)
        result = compile_program(kernel.program, config)
        split_names = [name for name in result.program.functions
                       if name.startswith("big.part")]
        assert split_names, "expected sub-functions to be created"
        for name in split_names:
            func = result.program.function(name)
            assert func.is_subfunction and func.parent == "big"
            assert func.scheduled_size_bytes() <= config.method_cache.size_bytes

    def test_split_program_semantics_preserved(self, config):
        kernel = build_large_function(blocks=48, instructions_per_block=24,
                                      iterations=2)
        split_image, _ = compile_and_link(kernel.program, config)
        unsplit_image, _ = compile_and_link(
            kernel.program, config, CompileOptions(split_functions=False))
        split_run = CycleSimulator(split_image, strict=True).run()
        unsplit_run = CycleSimulator(unsplit_image, strict=True).run()
        assert split_run.output == unsplit_run.output == kernel.expected_output

    def test_small_functions_untouched(self, config):
        kernel = build_call_tree()
        program = compile_program(kernel.program, config).program
        assert all(not f.is_subfunction for f in program.functions.values())

    def test_split_respects_budget(self, config):
        kernel = build_large_function(blocks=48, instructions_per_block=24,
                                      iterations=1)
        program = kernel.program.copy()
        schedule_program(program, config)
        stats = split_program(program, config, max_bytes=1024)
        assert stats.functions_split == 1
        for sizes in stats.region_sizes.values():
            assert all(size <= 1024 for size in sizes)


class TestPassManager:
    def test_compile_program_leaves_input_unscheduled(self, config):
        kernel = build_saturate(8)
        result = compile_program(kernel.program, config)
        assert result.program.is_scheduled
        assert not kernel.program.is_scheduled

    def test_all_options_produce_correct_code(self, config):
        kernel = build_saturate(12)
        for options in (
            CompileOptions(),
            CompileOptions(dual_issue=False),
            CompileOptions(if_convert=True),
            CompileOptions(single_path=True),
            CompileOptions(hide_split_loads=False),
        ):
            image, _ = compile_and_link(kernel.program, config, options)
            run = CycleSimulator(image, strict=True).run()
            assert run.output == kernel.expected_output, options

    def test_small_method_cache_forces_splitting(self):
        config = PatmosConfig(method_cache=MethodCacheConfig(size_bytes=1024,
                                                             num_blocks=8))
        kernel = build_large_function(blocks=24, instructions_per_block=24,
                                      iterations=1)
        image, result = compile_and_link(kernel.program, config)
        assert result.split.functions_split == 1
        run = CycleSimulator(image, config=config, strict=True).run()
        assert run.output == kernel.expected_output


#: Compile variants of the golden schedule pin, in table column order.
_GOLDEN_VARIANTS = (
    CompileOptions(),
    CompileOptions(dual_issue=False),
    CompileOptions(if_convert=True),
    CompileOptions(single_path=True),
    CompileOptions(hide_split_loads=False),
)

#: Leading 16 hex digits of ``Image.content_hash()`` per kernel and variant;
#: ``None`` marks a variant the compiler rejects (an unsplittable block).
_GOLDEN_HASHES = {
    "vector_sum": ('5c384443bc06851a', '583d786fefa8801f', '5c384443bc06851a', '35fadbd0b634eb47', '5c384443bc06851a'),
    "dot_product": ('b7eee8beb0b748f2', '67168c320865336f', 'b7eee8beb0b748f2', '7054b2d5dcd7ae5d', 'b7eee8beb0b748f2'),
    "checksum": ('1d1a35c923f7646b', 'da0360b75ab0fb50', '1d1a35c923f7646b', 'd9f334c433d7c8d7', '1d1a35c923f7646b'),
    "fir_filter": ('bb80424771290ea6', 'b99cc7c497fb0e25', 'bb80424771290ea6', 'c4142fab19c3f645', 'bb80424771290ea6'),
    "matmul": ('129178cc021c58aa', '7e75dcb1a099e106', '129178cc021c58aa', '29d97fc9b730aaf5', '129178cc021c58aa'),
    "saturate": ('57a539b7910fd5f9', '3de48e26e4285cac', '6082528aa5701964', '83bf9b7c3090ff48', '57a539b7910fd5f9'),
    "linear_search": ('92688a1b84b48e6c', '7ff9efda470549a0', '92688a1b84b48e6c', '7450f5821fc85217', '92688a1b84b48e6c'),
    "bubble_sort": ('f8a2cce1a577c5ef', 'a0c7a47ab098ecc5', '95b02d45e0c36cfa', '2bb1aa7b45944425', 'f8a2cce1a577c5ef'),
    "call_tree": ('00d6db2736f3d898', '8146385bd08ae7d1', '00d6db2736f3d898', '00d6db2736f3d898', '00d6db2736f3d898'),
    "large_function": ('5b8f7c23802ec639', 'b2c615704a49635d', None, None, '5b8f7c23802ec639'),
    "stack_chain": ('eb0c2a98ba50e984', '4007a0cb65f21995', 'eb0c2a98ba50e984', 'eb0c2a98ba50e984', 'eb0c2a98ba50e984'),
    "stream_checksum": ('da15ffe11a131d50', 'c00229a3d5df13f9', 'da15ffe11a131d50', 'd88739756ab91556', '0e9204a6f5d14bb3'),
    "pointer_chase": ('5d004c07dd45af3e', '61ba28cf5c82ad07', '5d004c07dd45af3e', '5ea47d840abf280b', '600305a059a2e1fa'),
    "mixed_access": ('51e2c457347adf86', '8420c1e9da09f159', '51e2c457347adf86', '55edf5d3d9c8fe33', '51e2c457347adf86'),
    "control_update": ('8d24549f16c5e20a', '58ab5f92047cd059', '8d24549f16c5e20a', 'b0f6206080061fa9', '8d24549f16c5e20a'),
    "sensor_filter": ('2f4681de05ab6216', 'e4cf7f10c2b390d8', '2f4681de05ab6216', 'ef5d847892ffa07f', '2f4681de05ab6216'),
    "crc_step": ('dc2781685d89c238', '2cfe3e215be9b7c1', 'dc2781685d89c238', 'ed4b91d416e906dc', 'dc2781685d89c238'),
    "actuator_ramp": ('15dce0d2d91814d9', '7a568ab30b63f511', '73e3b84d549061fb', '76259cfe7742a2dc', '15dce0d2d91814d9'),
}


class TestGoldenSchedules:
    """Pins the compiled image of every suite kernel, so any change to the
    scheduler's output shows up here rather than in a simulator."""

    def test_table_covers_the_suite(self):
        assert set(_GOLDEN_HASHES) == set(KERNEL_BUILDERS)

    @pytest.mark.parametrize("name", sorted(_GOLDEN_HASHES))
    def test_images_are_unchanged(self, config, name):
        program = build_kernel(name).program
        for options, expected in zip(_GOLDEN_VARIANTS, _GOLDEN_HASHES[name]):
            if expected is None:
                with pytest.raises(CompilerError):
                    compile_and_link(program, config, options)
                continue
            image, _ = compile_and_link(program, config, options)
            assert image.content_hash()[:16] == expected, options
