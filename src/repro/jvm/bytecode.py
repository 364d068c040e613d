"""Bytecode instruction set of the simulated JVM.

The ISA is a compact stack machine modelled on JVM bytecode, reduced to
the operations the Renaissance metrics and optimizations care about.
It is closed: every opcode is one :mod:`repro.lang.codegen` emits, and
this module and :mod:`repro.jvm.costmodel` are the only places that
declare op classes and per-op costs.
Each dynamic execution of an opcode is counted by the profiler, so the
paper's Table 2 metrics map directly onto opcodes:

============  =====================================================
metric        opcodes
============  =====================================================
synch         MONITORENTER (and synchronized-method entry)
wait          WAIT
notify        NOTIFY, NOTIFYALL
atomic        CAS, ATOMIC_GET, ATOMIC_ADD
park          PARK
object        NEW, INVOKEDYNAMIC (lambda object)
array         NEWARRAY
method        INVOKEVIRTUAL, INVOKEDYNAMIC, INVOKEHANDLE
idynamic      INVOKEDYNAMIC
============  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Op(enum.Enum):
    """Opcodes of the simulated JVM."""

    # Constants and locals.
    CONST = "const"          # arg: value (int/float/str/None)
    LOAD = "load"            # arg: local slot index
    STORE = "store"          # arg: local slot index

    # Operand-stack manipulation.
    POP = "pop"
    DUP = "dup"

    # Arithmetic and logic (operate on 2 stack values, except NEG/NOT).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"              # integer or float division depending on operands
    REM = "rem"
    NEG = "neg"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"              # logical not (0/1)
    I2D = "i2d"              # int -> double
    D2I = "d2i"              # double -> int (truncating)
    CMP = "cmp"              # arg: one of '==','!=','<','<=','>','>=' -> 0/1

    # Control flow.
    GOTO = "goto"            # arg: target pc
    IFZ = "ifz"              # arg: (cmp_op, target) pops one value, compares to 0/null
    RETURN = "return"        # return void
    RETVAL = "retval"        # return top of stack

    # Objects and fields.
    NEW = "new"              # arg: class name
    GETFIELD = "getfield"    # arg: field name
    PUTFIELD = "putfield"    # arg: field name; stack: obj, value
    GETSTATIC = "getstatic"  # arg: (class name, field name)
    PUTSTATIC = "putstatic"  # arg: (class name, field name)
    INSTANCEOF = "instanceof"  # arg: class name -> 0/1
    CHECKCAST = "checkcast"  # arg: class name

    # Arrays.
    NEWARRAY = "newarray"    # arg: elem kind ('int','double','ref'); stack: length
    ALOAD = "aload"          # stack: array, index
    ASTORE = "astore"        # stack: array, index, value
    ARRAYLEN = "arraylen"

    # Calls.  arg: (owner, name, argc) — argc excludes receiver.
    INVOKESTATIC = "invokestatic"
    INVOKESPECIAL = "invokespecial"      # constructors & private methods
    INVOKEVIRTUAL = "invokevirtual"
    INVOKEDYNAMIC = "invokedynamic"      # arg: (owner, lambda method, captured) — makes closure
    INVOKEHANDLE = "invokehandle"        # arg: argc; stack: handle, args...

    # Concurrency primitives (Table 2 of the paper).
    MONITORENTER = "monitorenter"        # stack: obj
    MONITOREXIT = "monitorexit"          # stack: obj
    CAS = "cas"              # arg: field name; stack: obj, expect, update -> 0/1
    ATOMIC_GET = "atomicget"             # arg: field name (volatile read); stack: obj
    ATOMIC_ADD = "atomicadd"             # arg: field name; stack: obj, delta -> old value
    PARK = "park"            # park current thread
    UNPARK = "unpark"        # stack: thread obj
    WAIT = "wait"            # stack: obj (monitor must be held)
    NOTIFY = "notify"        # stack: obj
    NOTIFYALL = "notifyall"  # stack: obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op.{self.name}"


@dataclass
class Instr:
    """One bytecode instruction: an opcode plus an optional operand."""

    op: Op
    arg: object = None
    line: int = 0

    def __repr__(self) -> str:
        if self.arg is None:
            return f"{self.op.name}"
        return f"{self.op.name} {self.arg!r}"


#: Ops that call: the frame stack changes, so every engine re-dispatches
#: after one and the host tiers end a block with it.
INVOKES = frozenset({
    Op.INVOKESTATIC, Op.INVOKESPECIAL, Op.INVOKEVIRTUAL,
    Op.INVOKEDYNAMIC, Op.INVOKEHANDLE,
})

#: Ops with no fallthrough successor (see :func:`branch_targets`).
TERMINATORS = frozenset({Op.GOTO, Op.RETURN, Op.RETVAL})

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def branch_targets(instr: Instr, pc: int) -> list[int]:
    """Successor pcs of ``instr`` at position ``pc`` (fallthrough included)."""
    if instr.op is Op.GOTO:
        return [instr.arg]
    if instr.op is Op.IFZ:
        return [pc + 1, instr.arg[1]]
    if instr.op in (Op.RETURN, Op.RETVAL):
        return []
    return [pc + 1]


def block_leaders(code: list[Instr]) -> set[int]:
    """Pcs that start a basic block of ``code``.

    Pc 0, every branch target, and the pc after every instruction that
    does more than fall through (a terminator or a conditional branch).
    """
    n = len(code)
    leaders = {0}
    for pc, instr in enumerate(code):
        targets = branch_targets(instr, pc)
        if instr.op in TERMINATORS or targets != [pc + 1]:
            if pc + 1 < n:
                leaders.add(pc + 1)
            leaders.update(targets)
    return leaders


def validate_code(code: list[Instr]) -> None:
    """Sanity-check branch targets, terminator placement and the
    comparison operators of CMP and IFZ.

    Raises ``ValueError`` on malformed code.  Link
    (:meth:`JMethod.validate`) runs it on every method, so no engine and
    neither host emitter re-checks a comparison operator.
    """
    n = len(code)
    if n == 0:
        raise ValueError("empty code")
    last = code[-1]
    if last.op not in TERMINATORS:
        raise ValueError(f"method falls off the end: last op {last.op.name}")
    for pc, instr in enumerate(code):
        for target in branch_targets(instr, pc):
            if not 0 <= target < n:
                raise ValueError(
                    f"pc {pc}: branch target {target} out of range [0,{n})"
                )
        if instr.op is Op.CMP or instr.op is Op.IFZ:
            cmp_op = instr.arg if instr.op is Op.CMP else instr.arg[0]
            if cmp_op not in CMP_OPS:
                raise ValueError(f"pc {pc}: bad comparison op {cmp_op!r}")
