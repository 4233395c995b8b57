"""Tests of the demand-driven whole-program facts (repro.analysis.facts).

A function's interval fixpoint runs at once only where a natural loop needs
it for bound inference; elsewhere it runs on first read, as do the clobber
summaries.  These tests pin that the lazy results equal eagerly computed
ones, that a loop-free program analysed for WCET runs no fixpoint, and that
cached facts neither keep their program alive nor change when an error is
raised.
"""

import dataclasses
import gc
import importlib.util
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.analysis import (
    analyse_function,
    analyse_program,
    classify_accesses,
    lint_program,
    may_write_summaries,
    program_facts,
)
from repro.analysis import facts as facts_module
from repro.analysis.facts import ProgramFacts
from repro.analysis.transfer import TOTAL_CLOBBER, ClobberSummary
from repro.compiler.passes import compile_and_link
from repro.errors import WcetError
from repro.isa.opcodes import Opcode
from repro.program import CallGraph, ControlFlowGraph
from repro.program import cfg as cfg_module
from repro.program.builder import ProgramBuilder
from repro.program.program import DataSpace
from repro.wcet.analyzer import WcetOptions, analyze_wcet
from repro.workloads import random_alu_kernel
from repro.workloads.kernels import build_call_tree, build_large_function
from repro.workloads.suite import SUITES, build_kernel

SEEDS = (3, 11, 29)
REPO = Path(__file__).resolve().parent.parent


def _seeded_programs():
    """(id, builder program) for the suite and seeded synthetic programs."""
    cases = [(name, build_kernel(name).program) for name in SUITES["all"]]
    for seed in SEEDS:
        cases.append((f"alu-{seed}",
                      random_alu_kernel(seed, length=24 + seed).program))
        cases.append((f"large-{seed}", build_large_function(
            blocks=6 + seed % 5, instructions_per_block=8,
            iterations=2 + seed % 3).program))
        cases.append((f"call_tree-{seed}", build_call_tree(
            num_functions=2 + seed % 5, iterations=3,
            pad_instructions=4 + seed % 7).program))
    return cases


CASES = _seeded_programs()


@pytest.fixture(scope="module", params=["builder", "linked"])
def programs(request):
    """Every case as built and as compiled and linked (split, scheduled)."""
    if request.param == "builder":
        return CASES
    return [(name, compile_and_link(program.copy())[0].program)
            for name, program in CASES]


def _may_writes_oracle(program):
    """The clobber summaries as the per-kind register sets define them."""
    graph = CallGraph.build(program)
    if graph.is_recursive():
        return dict.fromkeys(program.functions, TOTAL_CLOBBER)
    subfunctions = {}
    for func in program.functions.values():
        if func.is_subfunction and func.parent:
            subfunctions.setdefault(func.parent, []).append(func)
    summaries = {}
    for name in graph.topological_order():
        gprs, preds, total = set(), set(), False
        for part in [program.functions[name]] + subfunctions.get(name, []):
            for instr in part.instructions():
                gprs |= instr.gpr_defs()
                preds |= instr.pred_defs()
                total |= instr.opcode is Opcode.CALLR
        for callee in graph.callees(name):
            summary = summaries[callee]
            total |= summary.total
            gprs |= summary.gprs
            preds |= summary.preds
        summaries[name] = (TOTAL_CLOBBER if total else
                           ClobberSummary(frozenset(gprs), frozenset(preds)))
    for parent, subs in subfunctions.items():
        for sub in subs:
            summaries.setdefault(sub.name, summaries[parent])
    return summaries


def _eager_fixpoint(program, name):
    """The fixpoint of ``name`` computed directly, outside the facts."""
    cfg = ControlFlowGraph.build(
        program.merged_function(program.functions[name]))
    return analyse_function(cfg, may_write_summaries(program))


def _eager_facts(program):
    """Facts whose every fixpoint was computed before anything read it."""
    lazy = analyse_program(program)
    may_writes = may_write_summaries(program)
    return ProgramFacts(functions={
        name: dataclasses.replace(
            func, _fixpoint=analyse_function(func.cfg, may_writes))
        for name, func in lazy.functions.items()})


class TestLazyEqualsEager:
    def test_fixpoints_equal_a_direct_analysis(self, programs):
        for case, program in programs:
            facts = analyse_program(program)
            for name, func in facts.functions.items():
                lazy, eager = func.fixpoint, _eager_fixpoint(program, name)
                assert lazy.in_states == eager.in_states, (case, name)
                assert lazy.out_states == eager.out_states, (case, name)
                assert (lazy.loop_entry_states
                        == eager.loop_entry_states), (case, name)
                assert func.fixpoint is lazy  # memoised

    def test_may_writes_equal_the_per_kind_oracle(self, programs):
        for case, program in programs:
            assert (analyse_program(program).may_writes
                    == _may_writes_oracle(program)), case
            assert may_write_summaries(program) == _may_writes_oracle(
                program), case

    def test_lint_and_accesses_are_unchanged(self, programs):
        for case, program in programs:
            lazy, eager = analyse_program(program), _eager_facts(program)
            for name, func in lazy.functions.items():
                assert (classify_accesses(func.cfg, func.fixpoint, program)
                        == classify_accesses(
                            func.cfg, eager.functions[name].fixpoint,
                            program)), (case, name)
            assert (lint_program(program, facts=lazy, check_reserved=False)
                    == lint_program(program, facts=eager,
                                    check_reserved=False)), case

    def test_lint_findings_from_a_lazy_fixpoint(self):
        b = ProgramBuilder("accesses")
        b.data("table", [1, 2, 3, 4], space=DataSpace.CONST)
        f = b.function("main")
        f.li("r1", "table")
        f.emit("lwc", "r2", "r1", 64)  # one item past the end
        f.emit("lwl", "r3", "r1", 0)  # a static item through the local cache
        f.out("r2")
        f.halt()
        program = b.build()
        facts = analyse_program(program)
        assert facts.functions["main"]._fixpoint is None  # loop-free
        codes = sorted(finding.code for finding in lint_program(
            program, facts=facts))
        assert codes == ["out-of-bounds-access", "region-mismatch"]
        assert codes == sorted(finding.code for finding in lint_program(
            program, facts=_eager_facts(program)))


@pytest.fixture
def counters(monkeypatch):
    """Counts the fixpoints the facts run and the summaries they build."""
    counts = {"fixpoints": 0, "summaries": 0}

    def counting(key, inner):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(facts_module, "analyse_function", counting(
        "fixpoints", facts_module.analyse_function))
    monkeypatch.setattr(facts_module, "clobber_summaries", counting(
        "summaries", facts_module.clobber_summaries))
    return counts


def _synth_programs(seed):
    """The seeded programs of the benchmark's ``compile_synth`` workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return [kernel.program for kernel in module._generate_synth(seed)]


class TestWorkDone:
    def test_wcet_builds_one_cfg_per_function(self, monkeypatch):
        """The value analysis and the WCET layout share each merged CFG:
        one cold analysis of each of the 41 seed-7 ``compile_synth``
        programs builds one CFG per top-level function (198 when each built
        its own)."""
        images = [compile_and_link(program)[0]
                  for program in _synth_programs(7)]
        assert len(images) == 41
        builds = []
        build = ControlFlowGraph.build.__func__

        def counting(cls, function):
            builds.append(function.name)
            return build(cls, function)

        monkeypatch.setattr(ControlFlowGraph, "build", classmethod(counting))
        top_level = 0
        for image in images:
            analyze_wcet(image)
            facts = program_facts(image.program)
            for name, func in facts.functions.items():
                function = image.program.functions[name]
                assert cfg_module.merged_cfg(image.program,
                                             function) is func.cfg
            top_level += len(facts.functions)
        assert len(builds) == top_level == 99

    def test_loop_free_wcet_runs_no_fixpoint(self, counters):
        image, _ = compile_and_link(random_alu_kernel(5, length=48).program)
        result = analyze_wcet(image)
        assert counters == {"fixpoints": 0, "summaries": 0}
        assert result.loop_audits == []
        assert result.wcet_cycles == analyze_wcet(
            image, options=WcetOptions(analysis=False)).wcet_cycles
        # Reading the fixpoint runs it once, and only once.
        func = program_facts(image.program).functions["main"]
        assert func.fixpoint is func.fixpoint
        assert counters == {"fixpoints": 1, "summaries": 1}

    def test_call_tree_builds_its_summaries_once(self, counters):
        image, _ = compile_and_link(build_call_tree().program)
        facts = program_facts(image.program)
        looped = [name for name, func in facts.functions.items()
                  if func.cfg.natural_loops()]
        assert looped == ["main"]
        assert counters == {"fixpoints": 1, "summaries": 1}
        analyze_wcet(image)
        lint_program(image.program, check_reserved=False)
        assert facts.may_writes is facts.may_writes
        assert counters == {"fixpoints": len(facts.functions),
                            "summaries": 1}


def _call_program():
    b = ProgramBuilder("calls")
    f = b.function("main")
    f.call("leaf")
    f.halt()
    leaf = b.function("leaf")
    leaf.emit("addi", "r1", "r0", 1)
    leaf.ret()
    return b.build()


class TestLifetimeAndErrors:
    @pytest.mark.parametrize("make", [
        lambda: build_call_tree().program,
        lambda: random_alu_kernel(9).program,
    ], ids=["call_tree", "alu"])
    def test_cached_facts_keep_no_program_alive(self, make, monkeypatch):
        monkeypatch.setattr(facts_module, "_FACTS_CACHE", {})
        monkeypatch.setattr(cfg_module, "_MERGED_CFGS", {})
        gc.collect()
        gc.disable()
        try:
            program = make()
            ref = weakref.ref(program)
            facts = program_facts(program)
            assert facts_module._FACTS_CACHE
            for func in facts.functions.values():
                func.fixpoint
            facts.may_writes
            del program
            assert ref() is None
            assert facts_module._FACTS_CACHE == {}
            assert cfg_module._MERGED_CFGS == {}
        finally:
            gc.enable()

    def test_facts_outlive_their_program(self):
        program = random_alu_kernel(13).program
        expected = _eager_fixpoint(program, "main").out_states
        facts = analyse_program(program)
        del program
        gc.collect()
        assert facts.functions["main"].fixpoint.out_states == expected

    def test_unknown_callee_raises_the_same_error_everywhere(self):
        image, _ = compile_and_link(_call_program())
        del image.program.functions["leaf"]
        image._caches.clear()
        message = "main calls unknown function 'leaf'"
        with pytest.raises(WcetError, match=message):
            program_facts(image.program)
        with pytest.raises(WcetError, match=message):
            analyze_wcet(image)
        with pytest.raises(WcetError, match=message):
            lint_program(image.program, check_reserved=False)
        assert id(image.program) not in facts_module._FACTS_CACHE


_ORDER_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.compiler.passes import compile_and_link
from repro.wcet.analyzer import analyze_wcet
from repro.workloads.kernels import build_call_tree
image, _ = compile_and_link(build_call_tree().program)
print(list(analyze_wcet(image).per_function))
"""


def test_per_function_order_is_the_same_under_every_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    orders = set()
    for seed in range(1, 5):
        proc = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT, str(src)],
            capture_output=True, text=True, timeout=240,
            env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 0, proc.stderr
        orders.add(proc.stdout)
    assert len(orders) == 1, orders
