"""Tests for the builder, CFG, call graph and linker."""

import random

import pytest

from repro.config import PatmosConfig
from repro.errors import CompilerError, IsaError, LinkError, WcetError
from repro.isa import Opcode
from repro.program import (
    CallGraph,
    ControlFlowGraph,
    DataSpace,
    Function,
    ProgramBuilder,
    link,
    parse_guard,
)
from repro.compiler import compile_program


def _branchy_function():
    b = ProgramBuilder("p")
    f = b.function("main")
    f.li("r1", 3)
    f.label("loop")
    f.emit("subi", "r1", "r1", 1)
    f.emit("cmpineq", "p1", "r1", 0)
    f.br("loop", pred="p1")
    f.loop_bound("loop", 3)
    f.halt()
    return b.build()


class TestBuilder:
    def test_blocks_split_at_labels_and_branches(self):
        program = _branchy_function()
        main = program.function("main")
        labels = main.block_labels()
        assert "loop" in labels
        assert labels[0].startswith(".L")  # auto-generated entry block
        loop_block = main.block("loop")
        assert loop_block.terminator().opcode is Opcode.BR

    def test_loop_bound_attached(self):
        program = _branchy_function()
        assert program.function("main").block("loop").loop_bound == 3

    def test_loop_bound_for_unknown_label_rejected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.halt()
        f.loop_bound("nowhere", 5)
        with pytest.raises(CompilerError):
            b.build()

    def test_duplicate_function_rejected(self):
        b = ProgramBuilder("p")
        b.function("main")
        with pytest.raises(CompilerError):
            b.function("main")

    def test_duplicate_data_rejected(self):
        b = ProgramBuilder("p")
        b.data("x", [1])
        with pytest.raises(CompilerError):
            b.data("x", [2])

    def test_unknown_call_target_rejected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("missing")
        f.halt()
        with pytest.raises(LinkError):
            b.build()

    def test_li_small_uses_lil(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 100)
        f.li("r2", 1 << 20)
        f.li("r3", "symbol")
        f.halt()
        b.data("symbol", [0])
        program = b.build()
        opcodes = [i.opcode for i in program.function("main").instructions()]
        assert opcodes[0] is Opcode.LIL
        assert opcodes[1] is Opcode.ADDL
        assert opcodes[2] is Opcode.ADDL

    def test_parse_guard(self):
        assert parse_guard(None).is_always
        assert parse_guard("p3").pred == 3
        assert parse_guard("!p2").negate
        with pytest.raises(IsaError):
            parse_guard("p9")

    def test_emit_operand_count_checked(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        with pytest.raises(IsaError):
            f.emit("add", "r1", "r2")


class TestControlFlowGraph:
    def test_simple_loop_cfg(self):
        program = _branchy_function()
        cfg = ControlFlowGraph.build(program.function("main"))
        loops = cfg.natural_loops()
        assert len(loops) == 1
        assert loops[0].header == "loop"
        assert loops[0].bound == 3
        assert cfg.is_reducible()

    def test_successors_of_conditional_branch(self):
        program = _branchy_function()
        cfg = ControlFlowGraph.build(program.function("main"))
        succs = cfg.successors("loop")
        assert "loop" in succs
        assert len(succs) == 2  # back edge and fall-through

    def test_nested_loops_detected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 3)
        f.label("outer")
        f.li("r2", 4)
        f.label("inner")
        f.emit("subi", "r2", "r2", 1)
        f.emit("cmpineq", "p1", "r2", 0)
        f.br("inner", pred="p1")
        f.loop_bound("inner", 4)
        f.emit("subi", "r1", "r1", 1)
        f.emit("cmpineq", "p2", "r1", 0)
        f.br("outer", pred="p2")
        f.loop_bound("outer", 3)
        f.halt()
        cfg = ControlFlowGraph.build(b.build().function("main"))
        headers = {loop.header for loop in cfg.natural_loops()}
        assert headers == {"outer", "inner"}
        assert cfg.loop_nest_depth("inner") == 2
        assert cfg.loop_nest_depth("outer") == 1

    def test_dominators(self):
        program = _branchy_function()
        main = program.function("main")
        cfg = ControlFlowGraph.build(main)
        entry = main.entry_block().label
        assert cfg.dominates(entry, "loop")
        assert not cfg.dominates("loop", entry)

    def test_branch_to_unknown_label_rejected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.br("nowhere")
        f.halt()
        program = b.build()
        with pytest.raises(WcetError):
            ControlFlowGraph.build(program.function("main"))


def _random_graph(seed):
    """A random digraph on ``n0..nk`` entered at ``n0``; parts of it may be
    unreachable or irreducible."""
    rng = random.Random(seed)
    labels = [f"n{i}" for i in range(rng.randrange(2, 12))]
    successors = {label: [] for label in labels}
    for label in labels:
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            succ = rng.choice(labels)
            if succ not in successors[label]:
                successors[label].append(succ)
    return successors


def _naive_dominators(successors, entry):
    """Dominator sets by the textbook set-intersection fixpoint."""
    reach, stack = {entry}, [entry]
    while stack:
        for succ in successors[stack.pop()]:
            if succ not in reach:
                reach.add(succ)
                stack.append(succ)
    dom = {label: set(reach) for label in reach}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in reach - {entry}:
            preds = [p for p in reach if label in successors[p]]
            new = {label} | set.intersection(*(dom[p] for p in preds))
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def _reducible_by_t1_t2(successors, entry, reach):
    """Reducibility by the T1/T2 transformations: the reachable graph must
    shrink to one node by deleting self loops and merging each non-entry
    node that has a single predecessor into it."""
    preds = {label: {p for p in reach if label in successors[p]}
             for label in reach}
    changed = True
    while changed:
        changed = False
        for label in list(preds):
            preds[label].discard(label)
            if label == entry or len(preds[label]) != 1:
                continue
            (into,) = preds.pop(label)
            for others in preds.values():
                if label in others:
                    others.discard(label)
                    others.add(into)
            changed = True
    return len(preds) == 1


@pytest.mark.parametrize("seed", range(80))
def test_dominators_match_naive_oracle(seed):
    successors = _random_graph(seed)
    cfg = ControlFlowGraph(Function("random"), successors, "n0", ["n0"])
    dom = _naive_dominators(successors, "n0")
    assert cfg.reachable() == dom.keys()
    assert set(cfg.reverse_postorder()) == dom.keys()
    assert cfg.reverse_postorder()[0] == "n0"
    assert cfg.dominators() == {
        label: next(d for d in strict if dom[d] == strict)
        for label in dom if label != "n0"
        for strict in [dom[label] - {label}]}
    for a in successors:
        for b in successors:
            expected = a in dom[b] if b in dom else a == b
            assert cfg.dominates(a, b) == expected, (a, b)
    assert cfg.back_edges() == [
        (tail, head) for tail in successors for head in successors[tail]
        if tail in dom and head in dom[tail]]
    reducible = _reducible_by_t1_t2(successors, "n0", dom.keys())
    assert cfg.is_reducible() == reducible
    if reducible:
        order = cfg.topological_order()
        assert sorted(order) == sorted(dom)
        position = {label: i for i, label in enumerate(order)}
        for tail in order:
            for head in successors[tail]:
                if (tail, head) not in cfg.back_edges():
                    assert position[tail] < position[head]
    else:
        with pytest.raises(WcetError, match="irreducible"):
            cfg.topological_order()


def test_random_graphs_cover_unreachable_and_irreducible_parts():
    unreachable = irreducible = 0
    for seed in range(80):
        successors = _random_graph(seed)
        reach = _naive_dominators(successors, "n0").keys()
        unreachable += len(reach) < len(successors)
        irreducible += not _reducible_by_t1_t2(successors, "n0", reach)
    assert unreachable >= 10 and irreducible >= 10


class TestCallGraph:
    def _call_chain(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("middle")
        f.halt()
        g = b.function("middle")
        g.call("leaf")
        g.ret()
        h = b.function("leaf")
        h.ret()
        return b.build()

    def test_callees_and_depth(self):
        cg = CallGraph.build(self._call_chain())
        assert cg.callees("main") == ["middle"]
        assert cg.callers("leaf") == ["middle"]
        assert not cg.is_recursive()
        assert cg.max_call_depth() == 3

    def test_call_paths(self):
        cg = CallGraph.build(self._call_chain())
        assert cg.call_paths() == [["main", "middle", "leaf"]]

    def test_recursion_detected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("main")
        f.halt()
        cg = CallGraph.build(b.build())
        assert cg.is_recursive()
        with pytest.raises(WcetError):
            cg.max_call_depth()

    def test_topological_order_callees_first(self):
        cg = CallGraph.build(self._call_chain())
        order = cg.topological_order(root="main")
        assert order.index("leaf") < order.index("middle") < order.index("main")

    def test_callees_in_first_call_order(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        for name in ("zeta", "alpha", "zeta", "mu", "alpha"):
            f.call(name)
        f.halt()
        for name in ("zeta", "alpha", "mu"):
            b.function(name).ret()
        program = b.build()
        assert program.functions["main"].callees() == ["zeta", "alpha", "mu"]
        cg = CallGraph.build(program)
        assert cg.callees("main") == ["zeta", "alpha", "mu"]
        assert cg.topological_order() == ["mu", "alpha", "zeta", "main"]


class TestLinker:
    def test_linking_requires_scheduling(self):
        program = _branchy_function()
        with pytest.raises(LinkError):
            link(program)

    def test_layout_and_symbols(self, config: PatmosConfig):
        b = ProgramBuilder("p")
        b.data("table", [1, 2, 3], space=DataSpace.CONST)
        b.data("buffer", [0, 0], space=DataSpace.DATA)
        b.data("heap_obj", [7], space=DataSpace.HEAP)
        b.data("local_buf", [0], space=DataSpace.LOCAL)
        f = b.function("main")
        f.li("r1", "table")
        f.halt()
        g = b.function("helper")
        g.ret()
        compiled = compile_program(b.build(), config).program
        image = link(compiled, config)

        mm = config.memory_map
        assert image.symbol("table") == mm.const_base
        assert image.symbol("buffer") == mm.data_base
        assert image.symbol("heap_obj") == mm.heap_base
        assert image.symbol("local_buf") == 0
        assert image.entry_addr == mm.code_base
        helper = image.function_record("helper")
        main = image.function_record("main")
        assert helper.entry_addr == main.entry_addr + main.size_bytes
        assert image.initial_memory[mm.const_base + 4] == 2
        assert image.initial_scratchpad[0] == 0

    def test_function_containing(self, config):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 1)
        f.halt()
        compiled = compile_program(b.build(), config).program
        image = link(compiled, config)
        record = image.function_containing(image.entry_addr + 4)
        assert record.name == "main"
        with pytest.raises(LinkError):
            image.function_containing(0x5)

    def test_symbolic_targets_resolved(self, config):
        b = ProgramBuilder("p")
        b.data("value", [42], space=DataSpace.CONST)
        f = b.function("main")
        f.li("r1", "value")
        f.call("helper")
        f.halt()
        g = b.function("helper")
        g.ret()
        compiled = compile_program(b.build(), config).program
        image = link(compiled, config)
        call_targets = [
            instr.target
            for bundle in image.bundles.values()
            for instr in bundle
            if instr.opcode is Opcode.CALL
        ]
        assert call_targets == [image.function_record("helper").entry_addr]

    def test_bundles_without_targets_are_shared(self, config):
        compiled = compile_program(_branchy_function(), config).program
        image = link(compiled, config)
        loop = image.block_record("main", "loop")
        addr = loop.addr
        shared = branches = 0
        for scheduled in compiled.function("main").block("loop").bundles:
            linked = image.bundles[addr]
            branch = [i for i in scheduled if i.opcode is Opcode.BR]
            if branch:
                branches += 1
                assert linked is not scheduled
                assert branch[0].target == "loop"
                assert [i.target for i in linked if i.opcode is Opcode.BR] \
                    == [loop.addr]
            else:
                shared += 1
                assert linked is scheduled
            addr += scheduled.size_bytes
        assert branches == 1 and shared >= 1

    def test_block_records(self, config):
        program = _branchy_function()
        compiled = compile_program(program, config).program
        image = link(compiled, config)
        record = image.block_record("main", "loop")
        assert image.block_at(record.addr) is record
        assert record.num_bundles >= 1
