"""Tests for registers, opcodes, instructions and bundles."""

import copy
import dataclasses
import pickle
import random
from types import SimpleNamespace

import pytest

from repro.config import PipelineConfig
from repro.errors import IsaError
from repro.isa import (
    ALWAYS,
    Bundle,
    ControlKind,
    Format,
    Guard,
    Instruction,
    MemType,
    NOP,
    OPCODE_TABLE,
    Opcode,
    SpecialReg,
    control_delay_slots,
    opcode_from_mnemonic,
    parse_gpr,
    parse_pred,
    parse_special,
    result_delay_slots,
)
from repro.isa import instruction as instruction_module


class TestRegisters:
    def test_parse_gpr(self):
        assert parse_gpr("r0") == 0
        assert parse_gpr("R31") == 31
        assert parse_gpr(5) == 5

    def test_parse_gpr_rejects_bad_names(self):
        with pytest.raises(IsaError):
            parse_gpr("r32")
        with pytest.raises(IsaError):
            parse_gpr("x1")
        with pytest.raises(IsaError):
            parse_gpr("rx")

    def test_parse_pred(self):
        assert parse_pred("p0") == 0
        assert parse_pred("p7") == 7
        with pytest.raises(IsaError):
            parse_pred("p8")

    def test_parse_special(self):
        assert parse_special("st") is SpecialReg.ST
        assert parse_special(SpecialReg.SL) is SpecialReg.SL
        with pytest.raises(IsaError):
            parse_special("zz")


class TestOpcodeTable:
    def test_every_opcode_has_info(self):
        for opcode in Opcode:
            assert opcode in OPCODE_TABLE
            assert OPCODE_TABLE[opcode].mnemonic == opcode.value

    def test_mnemonic_lookup(self):
        assert opcode_from_mnemonic("add") is Opcode.ADD
        assert opcode_from_mnemonic("LWC") is Opcode.LWC
        with pytest.raises(IsaError):
            opcode_from_mnemonic("bogus")

    def test_typed_loads_cover_all_areas(self):
        load_types = {op.info.mem_type for op in Opcode if op.info.is_load}
        assert load_types == set(MemType)

    def test_typed_stores_cover_all_areas(self):
        store_types = {op.info.mem_type for op in Opcode if op.info.is_store}
        assert store_types == set(MemType)

    def test_memory_and_control_are_slot0_only(self):
        for opcode in Opcode:
            info = opcode.info
            if info.is_mem_access or info.is_control_flow or info.is_stack_control:
                assert info.slot0_only, opcode

    def test_main_memory_loads_are_decoupled(self):
        assert Opcode.LWM.info.is_decoupled_load
        assert not Opcode.LWC.info.is_decoupled_load

    def test_control_kinds(self):
        assert Opcode.BR.info.control is ControlKind.BRANCH
        assert Opcode.CALL.info.control is ControlKind.CALL
        assert Opcode.RET.info.control is ControlKind.RETURN
        assert Opcode.ADD.info.control is None

    def test_method_cache_users(self):
        assert Opcode.CALL.info.uses_method_cache
        assert Opcode.RET.info.uses_method_cache
        assert Opcode.BRCF.info.uses_method_cache
        assert not Opcode.BR.info.uses_method_cache

    def test_result_delays(self):
        pipeline = PipelineConfig()
        assert result_delay_slots(Opcode.ADD.info, pipeline) == 0
        assert result_delay_slots(Opcode.LWC.info, pipeline) == 1
        assert result_delay_slots(Opcode.MUL.info, pipeline) == 2
        assert result_delay_slots(Opcode.LWM.info, pipeline) == 0

    def test_control_delays(self):
        pipeline = PipelineConfig()
        assert control_delay_slots(Opcode.BR.info, pipeline) == 2
        assert control_delay_slots(Opcode.BRCF.info, pipeline) == 3
        assert control_delay_slots(Opcode.CALL.info, pipeline) == 3
        assert control_delay_slots(Opcode.RET.info, pipeline) == 3
        assert control_delay_slots(Opcode.ADD.info, pipeline) == 0


class TestGuard:
    def test_default_guard_is_always(self):
        assert ALWAYS.is_always
        assert not Guard(1, False).is_always
        assert not Guard(0, True).is_always

    def test_guard_rendering(self):
        assert str(Guard(3, False)) == "(p3)"
        assert str(Guard(3, True)) == "(!p3)"

    def test_guard_range_checked(self):
        with pytest.raises(IsaError):
            Guard(9, False)


class TestInstructionValidation:
    def test_alu_requires_operands(self):
        instr = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert instr.rd == 1
        with pytest.raises(IsaError):
            Instruction(Opcode.ADD, rd=1, rs1=2)  # missing rs2
        with pytest.raises(IsaError):
            Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3, imm=5)  # extra imm

    def test_load_requires_imm(self):
        Instruction(Opcode.LWC, rd=1, rs1=2, imm=4)
        with pytest.raises(IsaError):
            Instruction(Opcode.LWC, rd=1, rs1=2)

    def test_branch_requires_target(self):
        Instruction(Opcode.BR, target="loop")
        with pytest.raises(IsaError):
            Instruction(Opcode.BR)

    def test_special_move_requires_special(self):
        Instruction(Opcode.MTS, special=SpecialReg.ST, rs1=1)
        with pytest.raises(IsaError):
            Instruction(Opcode.MTS, rs1=1)

    def test_register_range_checked(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.ADD, rd=32, rs1=0, rs2=0)

    def test_defs_and_uses(self):
        instr = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
        assert instr.gpr_defs() == frozenset({3})
        assert instr.gpr_uses() == frozenset({1, 2})

    def test_r0_never_defined(self):
        instr = Instruction(Opcode.ADD, rd=0, rs1=1, rs2=2)
        assert instr.gpr_defs() == frozenset()

    def test_predicate_defs_uses(self):
        cmp = Instruction(Opcode.CMPLT, pd=2, rs1=1, rs2=3)
        assert cmp.pred_defs() == frozenset({2})
        guarded = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3,
                              guard=Guard(4, True))
        assert 4 in guarded.pred_uses()

    def test_mul_defines_specials(self):
        instr = Instruction(Opcode.MUL, rs1=1, rs2=2)
        assert instr.special_defs() == frozenset({SpecialReg.SL, SpecialReg.SH})

    def test_ret_uses_return_registers(self):
        instr = Instruction(Opcode.RET)
        assert instr.special_uses() == frozenset({SpecialReg.SRB, SpecialReg.SRO})

    def test_stack_load_uses_stack_top(self):
        instr = Instruction(Opcode.LWS, rd=1, rs1=0, imm=0)
        assert SpecialReg.ST in instr.special_uses()

    def test_lih_reads_its_destination(self):
        instr = Instruction(Opcode.LIH, rd=5, imm=0x1234)
        assert 5 in instr.gpr_uses()

    def test_rendering(self):
        instr = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=5, guard=Guard(1, True))
        assert str(instr) == "(!p1) addi r1 = r2, 5"
        store = Instruction(Opcode.SWC, rs1=3, rs2=4, imm=8)
        assert str(store) == "swc [r3 + 8] = r4"


_SL, _SH, _ST, _SS, _SRB, _SRO = (
    SpecialReg.SL, SpecialReg.SH, SpecialReg.ST, SpecialReg.SS,
    SpecialReg.SRB, SpecialReg.SRO)

#: (instruction, gpr_uses, gpr_defs, pred_uses, pred_defs, special_uses,
#: special_defs), with at least one instruction of every format.
_DEF_USE_TABLE = (
    (Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2), {1, 2}, {3}, (), (), (), ()),
    (Instruction(Opcode.SUB, rd=0, rs1=4, rs2=4), {4}, (), (), (), (), ()),
    (Instruction(Opcode.ADDI, rd=5, rs1=5, imm=1, guard=Guard(2, True)),
     {5}, {5}, {2}, (), (), ()),
    (Instruction(Opcode.ADDL, rd=6, rs1=7, imm=1 << 20), {7}, {6},
     (), (), (), ()),
    (Instruction(Opcode.LIL, rd=8, imm=1), (), {8}, (), (), (), ()),
    (Instruction(Opcode.LIH, rd=8, imm=1), {8}, {8}, (), (), (), ()),
    (Instruction(Opcode.MULU, rs1=1, rs2=2, guard=Guard(3)), {1, 2}, (),
     {3}, (), (), {_SL, _SH}),
    (Instruction(Opcode.CMPLT, pd=2, rs1=1, rs2=3), {1, 3}, (), (), {2},
     (), ()),
    (Instruction(Opcode.CMPIEQ, pd=0, rs1=1, imm=0), {1}, (), (), (), (), ()),
    (Instruction(Opcode.POR, pd=1, ps1=2, ps2=3, guard=Guard(4)), (), (),
     {2, 3, 4}, {1}, (), ()),
    (Instruction(Opcode.PNOT, pd=5, ps1=5), (), (), {5}, {5}, (), ()),
    (Instruction(Opcode.LWC, rd=1, rs1=2, imm=0), {2}, {1}, (), (), (), ()),
    (Instruction(Opcode.LBUS, rd=1, rs1=2, imm=0), {2}, {1}, (), (),
     {_ST}, ()),
    (Instruction(Opcode.LWM, rd=0, rs1=2, imm=0), {2}, (), (), (), (), ()),
    (Instruction(Opcode.SWS, rs1=1, rs2=2, imm=0, guard=Guard(1)), {1, 2},
     (), {1}, (), {_ST}, ()),
    (Instruction(Opcode.SBM, rs1=3, rs2=3, imm=0), {3}, (), (), (), (), ()),
    (Instruction(Opcode.SFREE, imm=2), (), (), (), (), {_ST, _SS},
     {_ST, _SS}),
    (Instruction(Opcode.BR, target="loop", guard=Guard(1)), (), (), {1}, (),
     (), ()),
    (Instruction(Opcode.BRCF, target="far"), (), (), (), (), (), ()),
    (Instruction(Opcode.CALL, target="callee"), (), (), (), (), (),
     {_SRB, _SRO}),
    (Instruction(Opcode.CALLR, rs1=9), {9}, (), (), (), (), {_SRB, _SRO}),
    (Instruction(Opcode.RET), (), (), (), (), {_SRB, _SRO}, ()),
    (Instruction(Opcode.MTS, special=SpecialReg.SRB, rs1=4), {4}, (), (),
     (), (), {_SRB}),
    (Instruction(Opcode.MFS, rd=4, special=SpecialReg.SL), (), {4}, (), (),
     {_SL}, ()),
    (Instruction(Opcode.WMEM), (), (), (), (), (), ()),
    (Instruction(Opcode.NOP), (), (), (), (), (), ()),
    (Instruction(Opcode.HALT, guard=Guard(0, True)), (), (), {0}, (), (), ()),
    (Instruction(Opcode.OUT, rs1=2), {2}, (), (), (), (), ()),
)


class TestDefUse:
    """Pins the def/use rules that the dependence builder reads."""

    def test_table_covers_every_format(self):
        formats = {row[0].info.fmt for row in _DEF_USE_TABLE}
        assert formats == set(Format)

    @pytest.mark.parametrize("row", _DEF_USE_TABLE,
                             ids=[str(row[0]) for row in _DEF_USE_TABLE])
    def test_sets(self, row):
        instr, *expected = row
        methods = ("gpr_uses", "gpr_defs", "pred_uses", "pred_defs",
                   "special_uses", "special_defs")
        actual = [getattr(instr, method)() for method in methods]
        assert actual == [frozenset(values) for values in expected]

    @pytest.mark.parametrize("row", _DEF_USE_TABLE,
                             ids=[str(row[0]) for row in _DEF_USE_TABLE])
    def test_reader_agrees_with_the_sets(self, row):
        instr = row[0]
        reads, pred_reads, writes, pred_writes = instr.def_use()
        assert set(reads) == instr.gpr_uses() | instr.special_uses()
        assert set(writes) == instr.gpr_defs() | instr.special_defs()
        assert set(pred_reads) == instr.pred_uses()
        assert set(pred_writes) == instr.pred_defs()


class TestBundle:
    def test_single_slot_bundle(self):
        bundle = Bundle(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
        assert bundle.size_bytes == 4
        assert bundle.second is None

    def test_dual_slot_bundle(self):
        bundle = Bundle(Instruction(Opcode.LWC, rd=1, rs1=2, imm=0),
                        Instruction(Opcode.ADD, rd=3, rs1=4, rs2=5))
        assert bundle.size_bytes == 8
        assert len(bundle) == 2

    def test_long_immediate_occupies_whole_bundle(self):
        bundle = Bundle(Instruction(Opcode.ADDL, rd=1, rs1=0, imm=0x12345678))
        assert bundle.size_bytes == 8
        with pytest.raises(IsaError):
            Bundle(Instruction(Opcode.ADDL, rd=1, rs1=0, imm=1), NOP)

    def test_slot0_only_rejected_in_second_slot(self):
        with pytest.raises(IsaError):
            Bundle(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3),
                   Instruction(Opcode.LWC, rd=4, rs1=5, imm=0))

    def test_too_many_slots_rejected(self):
        with pytest.raises(IsaError):
            Bundle(NOP, NOP, NOP)


#: Each derived OpInfo flag and its defining formula.
_FLAG_FORMULAS = {
    "is_load": lambda info: info.fmt is Format.LOAD,
    "is_store": lambda info: info.fmt is Format.STORE,
    "is_mem_access": lambda info: info.fmt in (Format.LOAD, Format.STORE),
    "is_control_flow": lambda info: info.control is not None,
    "is_stack_control": lambda info: info.fmt is Format.STACK,
    "writes_gpr": lambda info: info.fmt in (
        Format.ALU_R, Format.ALU_I, Format.ALU_L, Format.LI, Format.LOAD,
        Format.MFS),
    "writes_pred": lambda info: info.fmt in (
        Format.CMP_R, Format.CMP_I, Format.PRED),
    "uses_method_cache": lambda info: (
        info.control in (ControlKind.CALL, ControlKind.RETURN)
        or (info.control is ControlKind.BRANCH and info.mnemonic == "brcf")),
    "is_decoupled_load": lambda info: (info.fmt is Format.LOAD
                                       and info.mem_type is MemType.MAIN),
}


class TestOpInfoFlags:
    @pytest.mark.parametrize("flag", sorted(_FLAG_FORMULAS))
    def test_flag_equals_its_formula_for_every_opcode(self, flag):
        formula = _FLAG_FORMULAS[flag]
        for opcode in Opcode:
            assert getattr(opcode.info, flag) is formula(opcode.info), opcode

    def test_flags_are_not_fields(self):
        info = Opcode.LWM.info
        assert set(_FLAG_FORMULAS).isdisjoint(
            f.name for f in dataclasses.fields(info))
        assert "is_load" not in repr(info)
        assert info == dataclasses.replace(info)

    def test_opcode_info_is_a_plain_attribute(self):
        for opcode in Opcode:
            assert vars(opcode)["info"] is OPCODE_TABLE[opcode]


def _add(**changes):
    operands = {"rd": 1, "rs1": 2, "rs2": 3}
    operands.update(changes)
    return Instruction(Opcode.ADD, **operands)


#: (constructor, exact IsaError text): every message template of the
#: operand, immediate, special-register and target checks, and the order in
#: which the checks run.
_ISA_ERRORS = (
    (lambda: Instruction(Opcode.ADD, rd=1, rs1=2),
     "add: operand rs2 is required"),
    (lambda: Instruction(Opcode.ADD), "add: operand rd is required"),
    (lambda: _add(rd=32), "add: register index out of range for rd"),
    (lambda: _add(rs1=-1), "add: register index out of range for rs1"),
    (lambda: Instruction(Opcode.ADDI, rd=1, rs1=2, rs2=3, imm=4),
     "addi: operand rs2 is not allowed"),
    (lambda: _add(pd=1), "add: operand pd is not allowed"),
    (lambda: Instruction(Opcode.CMPEQ, pd=8, rs1=1, rs2=2),
     "cmpeq: predicate index out of range for pd"),
    (lambda: Instruction(Opcode.PAND, pd=1, ps1=2),
     "pand: operand ps2 is required"),
    (lambda: Instruction(Opcode.PAND, pd=1, ps1=9, ps2=1),
     "pand: predicate index out of range for ps1"),
    (lambda: Instruction(Opcode.PNOT, pd=1, ps1=2, ps2=3),
     "pnot: operand ps2 is not allowed"),
    (lambda: Instruction(Opcode.ADDI, rd=1, rs1=2),
     "addi: immediate operand is required"),
    (lambda: Instruction(Opcode.NOP, imm=1),
     "nop: immediate operand is not allowed"),
    (lambda: Instruction(Opcode.NOP, rd=1, imm=1),
     "nop: operand rd is not allowed"),
    (lambda: Instruction(Opcode.MTS, rs1=1),
     "mts: special register operand is required"),
    (lambda: Instruction(Opcode.MFS, rd=1, special="st"),
     "mfs: special register operand is required"),
    (lambda: _add(special=SpecialReg.ST), "add: special register not allowed"),
    (lambda: Instruction(Opcode.BR), "br: branch/call target is required"),
    (lambda: Instruction(Opcode.CALL, imm=4),
     "call: immediate operand is not allowed"),
    (lambda: _add(target="loop"), "add: target operand is not allowed"),
    (lambda: Instruction(Opcode.ADDL, rd=1, rs1=2, target=5),
     "addl: target operand is not allowed"),
    (lambda: Instruction(Opcode.LIL, rd=1), "lil: immediate operand is required"),
)

#: (constructor, exact IsaError text) of every bundle check.
_BUNDLE_ERRORS = (
    (lambda: Bundle(), "a bundle holds one or two instructions"),
    (lambda: Bundle(NOP, NOP, NOP), "a bundle holds one or two instructions"),
    (lambda: Bundle(NOP, "nop"), "bundle slots must be instructions"),
    (lambda: Bundle(["nop"]), "bundle slots must be instructions"),
    (lambda: Bundle(Instruction(Opcode.ADDL, rd=1, rs1=0, imm=1), NOP),
     "a long-immediate instruction occupies the whole bundle"),
    (lambda: Bundle(NOP, Instruction(Opcode.ADDL, rd=1, rs1=0, imm=1)),
     "long-immediate instructions must be in the first slot"),
    (lambda: Bundle(NOP, Instruction(Opcode.LWC, rd=4, rs1=5, imm=0)),
     "lwc may only be issued in the first slot"),
)


class TestValidationMessages:
    @pytest.mark.parametrize("build,message", _ISA_ERRORS + _BUNDLE_ERRORS,
                             ids=[m for _, m in _ISA_ERRORS + _BUNDLE_ERRORS])
    def test_exact_message(self, build, message):
        with pytest.raises(IsaError) as caught:
            build()
        assert str(caught.value) == message

    def test_symbolic_immediates_are_accepted(self):
        assert Instruction(Opcode.ADDL, rd=1, rs1=2, target="data").imm is None
        assert Instruction(Opcode.LIH, rd=1, imm=3, target="data").imm == 3
        assert Instruction(Opcode.BR, target=-8).target == -8

    def test_fast_check_accepts_only_what_the_checks_accept(self):
        """Construction agrees with the one-by-one checks on every operand
        combination drawn from a small domain of valid and invalid values."""
        rng = random.Random(26)
        values = (None, None, None, 0, 1, 7, 8, 31, 32, -1, True, 1.0,
                  SpecialReg.ST, "label")
        names = ("rd", "rs1", "rs2", "imm", "pd", "ps1", "ps2", "special",
                 "target")
        opcodes = list(Opcode)
        for _ in range(4000):
            opcode = rng.choice(opcodes)
            operands = {name: rng.choice(values) for name in names}
            try:
                instruction_module._check_operands(
                    SimpleNamespace(info=opcode.info, **operands),
                    instruction_module._OPERANDS[opcode.value])
                expected = None
            except (IsaError, TypeError) as exc:
                expected = (type(exc), str(exc))
            try:
                Instruction(opcode, **operands)
                actual = None
            except (IsaError, TypeError) as exc:
                actual = (type(exc), str(exc))
            assert actual == expected, (opcode, operands)


class TestInstructionInfo:
    def _instructions(self):
        return (Instruction(Opcode.LWM, rd=1, rs1=2, imm=4, notes=("n",)),
                Instruction(Opcode.BR, guard=Guard(3, True), target="loop"),
                NOP)

    @pytest.mark.parametrize("copy_of", [
        lambda i: dataclasses.replace(i),
        lambda i: dataclasses.replace(i, guard=Guard(1)),
        copy.copy,
        copy.deepcopy,
        lambda i: pickle.loads(pickle.dumps(i)),
    ], ids=["replace", "replace-guard", "copy", "deepcopy", "pickle"])
    def test_info_survives_copies(self, copy_of):
        for instr in self._instructions():
            twin = copy_of(instr)
            assert twin.info is twin.opcode.info
            assert twin.opcode is instr.opcode

    def test_info_is_not_state(self):
        instr = self._instructions()[0]
        assert "info" not in instr.__getstate__()
        assert "info=" not in repr(instr)
        assert "info" not in {f.name for f in dataclasses.fields(instr)}
        twin = pickle.loads(pickle.dumps(instr))
        assert twin == instr and hash(twin) == hash(instr)
        assert twin.notes == instr.notes
