"""Unit tests for the bytecode instruction set."""

import pytest

from repro.jvm.bytecode import (
    INVOKES,
    Instr,
    Op,
    TERMINATORS,
    block_leaders,
    branch_targets,
    validate_code,
)
from repro.jvm.classfile import ClassPool, JClass, JMethod
from repro.jvm.costmodel import BASE_COST, INTERP_COST, INTERP_DISPATCH
from repro.jvm.threaded import _FACTORY
from repro.lang import compile_program
from repro.sanitize.verify import _STACK_EFFECT


def test_instr_repr_without_arg():
    assert repr(Instr(Op.ADD)) == "ADD"


def test_instr_repr_with_arg():
    assert repr(Instr(Op.LOAD, 3)) == "LOAD 3"


def test_branch_targets_goto():
    assert branch_targets(Instr(Op.GOTO, 5), 0) == [5]


def test_branch_targets_if_has_fallthrough_and_target():
    assert branch_targets(Instr(Op.IFZ, ("<", 7)), 2) == [3, 7]


def test_branch_targets_return_empty():
    assert branch_targets(Instr(Op.RETURN), 4) == []


def test_branch_targets_straightline():
    assert branch_targets(Instr(Op.ADD), 1) == [2]


def test_validate_accepts_minimal_method():
    validate_code([Instr(Op.RETURN)])


def test_validate_rejects_empty():
    with pytest.raises(ValueError):
        validate_code([])


def test_validate_rejects_fallthrough_end():
    with pytest.raises(ValueError, match="falls off"):
        validate_code([Instr(Op.CONST, 1), Instr(Op.POP)])


def test_validate_rejects_out_of_range_target():
    with pytest.raises(ValueError, match="out of range"):
        validate_code([Instr(Op.GOTO, 9), Instr(Op.RETURN)])


def test_validate_rejects_bad_comparison():
    code = [Instr(Op.CONST, 1), Instr(Op.IFZ, ("===", 0)),
            Instr(Op.RETURN)]
    with pytest.raises(ValueError, match="bad comparison"):
        validate_code(code)


def test_validate_rejects_bad_cmp_comparison():
    # CMP carries its operator bare; link must reject it as it rejects
    # IFZ's, since no engine or host emitter re-checks it.
    code = [Instr(Op.CONST, 1), Instr(Op.CONST, 2), Instr(Op.CMP, "<>"),
            Instr(Op.RETVAL)]
    with pytest.raises(ValueError, match="bad comparison"):
        validate_code(code)
    method = JMethod("m", "C", 0, code, max_locals=0, static=True)
    cls = JClass("C")
    cls.add_method(method)
    pool = ClassPool()
    pool.define(cls)
    with pytest.raises(ValueError, match="bad comparison"):
        pool.link_all()


def test_validate_accepts_backward_branch():
    validate_code([
        Instr(Op.CONST, 1),
        Instr(Op.IFZ, ("==", 0)),
        Instr(Op.RETURN),
    ])


def test_opcode_groups_are_disjoint_where_expected():
    assert Op.INVOKEVIRTUAL in INVOKES
    assert Op.INVOKEHANDLE in INVOKES
    assert Op.RETVAL in TERMINATORS
    assert Op.IFZ not in TERMINATORS
    assert not INVOKES & TERMINATORS


def test_block_leaders_split_after_every_non_fallthrough_op():
    code = [
        Instr(Op.LOAD, 0),              # 0
        Instr(Op.IFZ, ("==", 4)),       # 1: both successors lead
        Instr(Op.GOTO, 3),              # 2: a jump to the next pc ends
        Instr(Op.RETURN),               # 3:   its block all the same
        Instr(Op.RETURN),               # 4
    ]
    assert block_leaders(code) == {0, 2, 3, 4}


# One JL program that reaches every construct the code generator has.
# The registered workloads alone do not: they contain 47 of the 50
# opcodes (no NEG, NOTIFY or OR).
_TOUR = """
interface Shape { def area(); }
class Cell implements Shape {
    static var made = 0;
    var v;
    def init(v) { this.v = v; Cell.made = Cell.made + 1; }
    def area() { return this.v; }
    synchronized def bump() { this.v = this.v + 1; }
    def pingPong() {
        synchronized (this) { notify(this); notifyAll(this); wait(this); }
        park();
        unpark(this);
    }
}
class Tour {
    static def run(n) {
        var c = new Cell(n);
        var s = cast(Shape, c);
        var arr = new int[n];
        arr[0] = -n * 2 / 3 % 5;
        var bits = (n << 2) >> 1 & 7 | 8 ^ ~n;
        var k = d2i(i2d(n) / 2.0);
        var add = fun (a, b) a + b;
        var total = add(len(arr), s.area() - k);
        if (!(c instanceof Shape) || n > 3 && n != 4) { total = total + 1; }
        for (var i = 0; i < n; i = i + 1) {
            if (i == 2) { continue; }
            if (i >= 5) { break; }
            total = total + arr[i];
        }
        while (total <= 0) { total = total + bits; }
        cas(c.v, n, n + 1);
        atomicAdd(c.v, atomicGet(c.v));
        c.bump();
        return total;
    }
    static def nothing() { Tour.run(1); return; }
}
"""


def test_codegen_emits_exactly_the_isa():
    """The op set is closed: every opcode is one the compiler can emit,
    so a dead opcode (or a construct that stops emitting one) fails."""
    program = compile_program(_TOUR, include_stdlib=False)
    emitted = {instr.op for jclass in program.classes
               for method in jclass.methods.values() if method.code
               for instr in method.code}
    assert emitted == set(Op)
    assert len(Op) == 50


def test_every_isa_table_covers_exactly_the_isa():
    assert set(_FACTORY) == set(Op)
    assert set(BASE_COST) == set(Op)
    assert INTERP_COST == {op: BASE_COST[op] + INTERP_DISPATCH for op in Op}
    assert set(_STACK_EFFECT) | INVOKES == set(Op)
    assert not set(_STACK_EFFECT) & INVOKES
