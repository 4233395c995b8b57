"""Tests of the abstract-interpretation value analysis (repro.analysis)."""

import random

import pytest

from repro.analysis import (
    Interval,
    analyse_program,
    classify_accesses,
    lint_program,
    program_facts,
)
from repro.analysis.domain import INT_MAX, TOP
from repro.analysis.lint import has_errors
from repro.analysis.loopbounds import (
    STATUS_ADOPTED,
    STATUS_INFERRED_ONLY,
    STATUS_MATCH,
    STATUS_TIGHTER,
)
from repro.compiler.passes import CompileOptions, compile_and_link
from repro.errors import CompilerError, LoopBoundError, WcetError
from repro.isa.opcodes import Opcode
from repro.program import ControlFlowGraph
from repro.program.builder import ProgramBuilder
from repro.program.program import DataSpace
from repro.sim.cycle import CycleSimulator
from repro.wcet.analyzer import WcetOptions, analyze_wcet
from repro.wcet.ipet import longest_path_dag, solve_ipet
from repro.workloads.suite import build_kernel, resolve_kernels


# ---------------------------------------------------------------------------
# Interval domain basics
# ---------------------------------------------------------------------------


class TestIntervalDomain:
    def test_join_and_meet(self):
        a, b = Interval(0, 5), Interval(3, 9)
        assert a.join(b) == Interval(0, 9)
        assert a.meet(b) == Interval(3, 5)

    def test_widen_escapes_growing_bounds(self):
        old, new = Interval(0, 5), Interval(0, 6)
        widened = old.widen(new)
        assert widened.lo == 0
        assert widened.hi == INT_MAX

    def test_arithmetic_saturates_to_top_on_overflow(self):
        huge = Interval(INT_MAX - 1, INT_MAX)
        assert huge.add(Interval(2, 2)).is_top

    def test_top_absorbs(self):
        assert TOP.add(Interval(1, 1)).is_top
        assert Interval(1, 2).join(TOP).is_top


# ---------------------------------------------------------------------------
# Property test: transfer functions are sound w.r.t. the real simulator
# ---------------------------------------------------------------------------


def _random_program(seed: int) -> ProgramBuilder:
    """A random branchy straight-line program over r1..r7 with OUT probes."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"prop_{seed}")
    words = [rng.randrange(-100, 100) & 0xFFFF_FFFF for _ in range(4)]
    b.data("vals", words, space=DataSpace.CONST)
    f = b.function("main")
    f.li("r1", "vals")
    for reg in range(2, 6):
        f.li(f"r{reg}", rng.randrange(-64, 64))
    f.emit("lwc", "r6", "r1", 4 * rng.randrange(4))
    # A data-dependent diamond: the join state carries a genuine interval.
    f.emit("cmpilt", "p1", "r6", 0)
    f.br("neg", pred="p1")
    f.li("r7", rng.randrange(0, 50))
    f.br("join")
    f.label("neg")
    f.li("r7", rng.randrange(-50, -1))
    f.label("join")
    ops = ["add", "sub", "and", "or", "xor", "shl", "sra", "shadd"]
    for _ in range(12):
        f.emit(rng.choice(ops), f"r{rng.randrange(2, 8)}",
               f"r{rng.randrange(2, 8)}", f"r{rng.randrange(2, 8)}")
    for reg in range(2, 8):
        f.out(f"r{reg}")
    f.halt()
    return b


@pytest.mark.parametrize("seed", range(25))
def test_transfer_functions_contain_concrete_execution(seed):
    """Every concrete register value observed by OUT lies in its abstract
    value's interval — the soundness property of the whole transfer layer,
    checked against the real compiled program on the real simulator."""
    image, _ = compile_and_link(_random_program(seed).build())
    sim = CycleSimulator(image).run()
    facts = analyse_program(image.program)
    func_facts = facts.functions["main"]
    abstract = []
    for label in func_facts.cfg.topological_order():
        for instr, state in func_facts.fixpoint.block_states(label):
            if instr.opcode is Opcode.OUT:
                abstract.append(state.gpr(instr.rs1))
    assert len(abstract) == len(sim.output)
    for concrete, absval in zip(sim.output, abstract):
        if absval.base is not None or absval.offset.is_top:
            continue  # symbolic or unbounded: trivially contains
        assert absval.offset.lo <= concrete <= absval.offset.hi, (
            f"seed {seed}: concrete {concrete} outside "
            f"[{absval.offset.lo}, {absval.offset.hi}]")


# ---------------------------------------------------------------------------
# Property test: ILP solver agrees with the DAG longest path
# ---------------------------------------------------------------------------


def _random_dag_function(seed: int):
    """A random loop-free CFG: a chain of diamonds with random costs."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"dag_{seed}")
    f = b.function("main")
    f.li("r1", 1)
    diamonds = rng.randrange(1, 4)
    for d in range(diamonds):
        f.emit("cmpilt", "p1", "r1", rng.randrange(-5, 5))
        f.br(f"left_{d}", pred="p1")
        for _ in range(rng.randrange(1, 5)):
            f.emit("addi", "r2", "r2", 1)
        f.br(f"tail_{d}")
        f.label(f"left_{d}")
        for _ in range(rng.randrange(1, 5)):
            f.emit("addi", "r3", "r3", 1)
        f.label(f"tail_{d}")
        f.emit("addi", "r4", "r4", 1)
    f.halt()
    program = b.build()
    cfg = ControlFlowGraph.build(program.functions["main"])
    costs = {label: rng.randrange(1, 40) for label in
             program.functions["main"].block_labels()}
    return cfg, costs


@pytest.mark.parametrize("seed", range(15))
def test_solve_ipet_matches_longest_path_on_dags(seed):
    cfg, costs = _random_dag_function(seed)
    assert solve_ipet(cfg, costs).wcet == longest_path_dag(cfg, costs)


# ---------------------------------------------------------------------------
# Loop-bound inference and the audit rule
# ---------------------------------------------------------------------------


def _counted_loop(bound_annotation=None, *, start=0, limit=10, step=1):
    b = ProgramBuilder("loops")
    f = b.function("main")
    f.li("r1", start)
    f.li("r2", limit)
    f.label("loop")
    f.emit("addi", "r3", "r3", 1)
    f.emit("addi", "r1", "r1", step)
    f.emit("cmplt", "p1", "r1", "r2")
    f.br("loop", pred="p1")
    if bound_annotation is not None:
        f.loop_bound("loop", bound_annotation)
    f.out("r3")
    f.halt()
    return b.build()


def _facts_of(program):
    return analyse_program(program).functions["main"]


class TestLoopBoundInference:
    def test_infers_lt_loop_bound(self):
        facts = _facts_of(_counted_loop(start=0, limit=10, step=1))
        [audit] = facts.audits
        assert audit.inferred == 10
        assert audit.status == STATUS_INFERRED_ONLY
        assert audit.effective == 10

    def test_infers_with_larger_step(self):
        facts = _facts_of(_counted_loop(start=0, limit=10, step=3))
        [audit] = facts.audits
        assert audit.inferred == 4  # ceil(10/3)

    def test_matching_annotation_audits_as_match(self):
        facts = _facts_of(_counted_loop(bound_annotation=10))
        [audit] = facts.audits
        assert audit.status == STATUS_MATCH
        assert audit.effective == 10

    def test_loose_annotation_is_tightened(self):
        facts = _facts_of(_counted_loop(bound_annotation=50))
        [audit] = facts.audits
        assert audit.status == STATUS_ADOPTED
        assert audit.effective == 10

    def test_tight_annotation_is_flagged_not_adopted(self):
        facts = _facts_of(_counted_loop(bound_annotation=3))
        [audit] = facts.audits
        assert audit.status == STATUS_TIGHTER
        assert audit.effective == 3  # annotation kept, but flagged

    def test_suite_loops_all_infer_exactly(self):
        """Every loop of every workload kernel infers a bound equal to its
        annotation — the coverage claim behind the annotation-free gate."""
        for name in resolve_kernels(["all"]):
            kernel = build_kernel(name)
            for audit in analyse_program(kernel.program).loop_audits():
                assert audit.status == STATUS_MATCH, (
                    f"{name}/{audit.header}: {audit.status}")

    def test_analysis_bounds_suite_without_annotations(self):
        """Kernels stay analysable with every manual annotation deleted."""
        for name in resolve_kernels(["performance"]):
            kernel = build_kernel(name)
            for function in kernel.program.functions.values():
                for block in function.blocks:
                    block.loop_bound = None
            image, _ = compile_and_link(kernel.program)
            annotated = build_kernel(name)
            image_ref, _ = compile_and_link(annotated.program)
            stripped = analyze_wcet(image).wcet_cycles
            reference = analyze_wcet(image_ref).wcet_cycles
            assert stripped == reference

    def test_bare_ipet_still_requires_bounds(self):
        """Inference is wired through the analyzer only: bare solve_ipet on
        an unannotated loop must keep failing loudly."""
        program = _counted_loop()
        cfg = ControlFlowGraph.build(program.functions["main"])
        costs = {label: 1 for label in program.functions["main"].block_labels()}
        with pytest.raises(WcetError, match="no bound annotation"):
            solve_ipet(cfg, costs)


class TestIrreducibleControlFlow:
    """A two-entry cycle: ``main`` enters it at ``a`` or at ``b``."""

    def _program(self):
        b = ProgramBuilder("irreducible")
        f = b.function("main")
        f.li("r1", 3)
        f.li("r2", 0)
        f.emit("cmpineq", "p1", "r1", 0)
        f.br("b", pred="p1")
        f.label("a")
        f.emit("addi", "r2", "r2", 1)
        f.emit("cmpilt", "p2", "r2", 5)
        f.br("b", pred="p2")
        f.br("out")
        f.label("b")
        f.emit("subi", "r1", "r1", 1)
        f.emit("cmpineq", "p3", "r1", 0)
        f.br("a", pred="p3")
        f.label("out")
        f.halt()
        return b.build()

    def test_value_analysis_widens_instead_of_failing(self):
        program = self._program()
        facts = _facts_of(program)
        assert not facts.cfg.is_reducible()
        assert facts.cfg.natural_loops() == []
        assert set(facts.fixpoint.in_states) == facts.cfg.reachable()
        assert facts.inferred_bounds == {}
        # A run leaves the cycle with r2 == 2; r2 grows on every round
        # through ``a``, so only widening lets the fixpoint terminate.
        r2 = facts.fixpoint.in_states["out"].gpr(2).offset
        assert r2.lo <= 2 and (r2.is_top or r2.hi >= 5)

    def test_ipet_reports_the_unbounded_cycle(self):
        image, _ = compile_and_link(self._program())
        with pytest.raises(WcetError, match="irreducible"):
            analyze_wcet(image)


# ---------------------------------------------------------------------------
# Address analysis
# ---------------------------------------------------------------------------


def _table_load(opcode="lwc", offset=0):
    """A program that loads ``table + offset`` with ``opcode``."""
    b = ProgramBuilder("addr")
    b.data("table", [1, 2, 3, 4], space=DataSpace.CONST)
    f = b.function("main")
    f.li("r1", "table")
    f.emit(opcode, "r2", "r1", offset)
    f.out("r2")
    f.halt()
    return b.build()


class TestAddressAnalysis:
    def _load(self, program):
        facts = _facts_of(program)
        accesses = classify_accesses(facts.cfg, facts.fixpoint, program)
        [access] = [fact for fact in accesses if not fact.is_store]
        return access

    def test_access_resolves_symbol_and_bounds(self):
        access = self._load(_table_load())
        assert access.symbol == "table"
        assert access.region == "static"
        assert access.in_bounds is True

    def test_out_of_bounds_access_is_flagged(self):
        access = self._load(_table_load(offset=64))
        assert access.in_bounds is False


# ---------------------------------------------------------------------------
# Lint pass
# ---------------------------------------------------------------------------


class TestLint:
    def test_clean_program_has_no_findings(self):
        program = _counted_loop(bound_annotation=10)
        assert lint_program(program) == []

    def test_unbounded_loop_without_inference_is_an_error(self):
        b = ProgramBuilder("unbounded")
        b.data("src", [7], space=DataSpace.CONST)
        f = b.function("main")
        f.label("loop")
        f.emit("lwc", "r1", "r2", 0)  # data-dependent continue condition
        f.emit("cmpineq", "p1", "r1", 0)
        f.br("loop", pred="p1")
        f.halt()
        findings = lint_program(b.build())
        assert any(f.code == "unbounded-loop" and f.severity == "error"
                   for f in findings)
        assert has_errors(findings)

    def test_unreachable_block_is_flagged(self):
        b = ProgramBuilder("unreach")
        f = b.function("main")
        f.li("r1", 1)
        f.br("end")
        f.label("island")
        f.emit("addi", "r2", "r2", 1)
        f.br("end")
        f.label("end")
        f.halt()
        findings = lint_program(b.build())
        assert any(f.code == "unreachable-block" and f.block == "island"
                   for f in findings)

    def test_reserved_register_write_is_flagged(self):
        b = ProgramBuilder("reserved")
        f = b.function("main")
        f.li("r26", 1)  # single-path counter register
        f.halt()
        findings = lint_program(b.build())
        assert any(f.code == "reserved-register-write" for f in findings)

    def test_out_of_bounds_access_is_an_error(self):
        [finding] = lint_program(_table_load(offset=64))
        assert finding.code == "out-of-bounds-access"
        assert finding.severity == "error"
        assert "'table' at byte offset [64, 64]" in finding.message

    def test_region_mismatch_is_a_warning(self):
        [finding] = lint_program(_table_load("lwl"))  # scratchpad load
        assert finding.code == "region-mismatch"
        assert finding.severity == "warning"
        assert "resolves to 'table' in the static region" in finding.message
        assert not has_errors([finding])

    def test_strict_escalates_loose_annotations(self):
        program = _counted_loop(bound_annotation=3)  # tighter than provable
        findings = lint_program(program)
        assert any(f.code == "loose-annotation" for f in findings)
        assert not has_errors(findings)
        assert has_errors(findings, strict=True)

    def test_single_path_property_enforced_on_compiled_kernels(self):
        kernel = build_kernel("saturate")
        image, _ = compile_and_link(
            kernel.program, options=CompileOptions(single_path=True,
                                                   if_convert=False))
        findings = lint_program(image.program, single_path=True,
                                check_reserved=False)
        assert not any(f.code == "single-path-violation" for f in findings)

    def test_data_dependent_branch_violates_single_path(self):
        program = self._branchy_program()
        findings = lint_program(program, single_path=True,
                                check_reserved=False)
        assert any(f.code == "single-path-violation" for f in findings)

    @staticmethod
    def _branchy_program():
        b = ProgramBuilder("branchy")
        b.data("src", [3], space=DataSpace.CONST)
        f = b.function("main")
        f.li("r1", "src")
        f.emit("lwc", "r2", "r1", 0)
        f.emit("cmpilt", "p1", "r2", 0)
        f.br("neg", pred="p1")
        f.li("r3", 1)
        f.br("end")
        f.label("neg")
        f.li("r3", 2)
        f.label("end")
        f.out("r3")
        f.halt()
        return b.build()

    def test_full_suite_is_lint_clean(self):
        for name in resolve_kernels(["all"]):
            kernel = build_kernel(name)
            findings = lint_program(kernel.program)
            assert not has_errors(findings, strict=True), (
                f"{name}: {[str(f) for f in findings]}")


# ---------------------------------------------------------------------------
# Builder loop-bound error (structured)
# ---------------------------------------------------------------------------


class TestLoopBoundError:
    def test_unknown_label_raises_structured_error(self):
        b = ProgramBuilder("bad")
        f = b.function("main")
        f.li("r1", 1)
        f.loop_bound("no_such_label", 4)
        f.halt()
        with pytest.raises(LoopBoundError) as excinfo:
            b.build()
        assert excinfo.value.function == "main"
        assert excinfo.value.label == "no_such_label"
        assert isinstance(excinfo.value, CompilerError)

    def test_known_label_still_annotates(self):
        program = _counted_loop(bound_annotation=10)
        assert program.functions["main"].loop_bounds() == {"loop": 10}


# ---------------------------------------------------------------------------
# Analyzer integration
# ---------------------------------------------------------------------------


class TestAnalyzerIntegration:
    def test_analysis_toggle_in_options_dict(self):
        assert WcetOptions().to_dict()["analysis"] is True
        assert WcetOptions(analysis=False).to_dict()["analysis"] is False

    def test_analysis_never_loosens_suite_bounds(self):
        for name in resolve_kernels(["performance"]):
            kernel = build_kernel(name)
            image, _ = compile_and_link(kernel.program)
            on = analyze_wcet(image, options=WcetOptions(analysis=True))
            off = analyze_wcet(image, options=WcetOptions(analysis=False))
            assert on.wcet_cycles <= off.wcet_cycles
            assert on.loop_audits and not off.loop_audits

    def test_explicit_override_beats_inferred_bound(self):
        program = _counted_loop()
        image, _ = compile_and_link(program)
        inferred = analyze_wcet(image).wcet_cycles
        forced = analyze_wcet(image, options=WcetOptions(
            loop_bounds={("main", "loop"): 40})).wcet_cycles
        assert forced > inferred

    def test_facts_cache_is_shared_per_program(self):
        kernel = build_kernel("vector_sum")
        assert program_facts(kernel.program) is program_facts(kernel.program)
