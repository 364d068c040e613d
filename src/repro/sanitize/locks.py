"""Symbolic must-hold lock analysis.

An abstract interpretation over the shared dataflow engine tracking, at
every pc, *which* locks are definitely held — not just how many (that is
the verifier's job).  Values are abstracted to small symbols:

- ``("this", Class)`` — the receiver,
- ``("field", Class, name)`` — ``this.name`` (flattened, so the same
  field read twice is the same symbol),
- ``("static", Class, name)`` — a static field, e.g. the global
  ``STM.commitLock``,
- ``("param", "Class.method", slot)`` — an argument (fj-kmeans locks a
  parameter: ``synchronized (sumx) { ... }``),
- ``("const", value)`` — a constant,
- ``("?",)`` — anything else, including merge conflicts.

:func:`lock_facts` returns the per-method summary the lockset pass
(:mod:`repro.sanitize.lockset`) and the lock-order graph
(:mod:`repro.sanitize.lockorder`) both consume: every monitor
acquisition with the locks held at that point, and every field access
with the locks held around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jvm.bytecode import Op
from repro.sanitize.cfg import build_cfg
from repro.sanitize.dataflow import DataflowProblem, solve
from repro.sanitize.verify import stack_effect

UNKNOWN = ("?",)


@dataclass(frozen=True)
class Acquire:
    """One MONITORENTER: the lock taken and the locks already held."""

    pc: int
    line: int
    lock: tuple
    held: tuple          # symbols held just before this acquire


@dataclass(frozen=True)
class FieldAccess:
    """One GETFIELD/PUTFIELD/GETSTATIC/PUTSTATIC with its context."""

    pc: int
    line: int
    kind: str            # "read" | "write"
    target: tuple        # ("field", Class, name) | ("static", Class, name)
    held: tuple          # symbols held at the access


@dataclass(frozen=True)
class CallSite:
    """One invoke with the locks held around it (for lock ordering)."""

    pc: int
    line: int
    callee: tuple        # (owner or None, name)
    held: tuple


@dataclass
class LockFacts:
    """Per-method lock summary."""

    qualified: str
    owner: str
    acquires: list = field(default_factory=list)    # [Acquire]
    accesses: list = field(default_factory=list)    # [FieldAccess]
    calls: list = field(default_factory=list)       # [CallSite]
    atomic_fields: set = field(default_factory=set)  # targets touched by CAS etc.


def _join_sym(a: tuple, b: tuple) -> tuple:
    return a if a == b else UNKNOWN


def _join_seq(a: tuple, b: tuple) -> tuple:
    n = min(len(a), len(b))
    return tuple(_join_sym(x, y) for x, y in zip(a[:n], b[:n]))


def _join(a, b):
    return (_join_seq(a[0], b[0]), _join_seq(a[1], b[1]),
            _join_seq(a[2], b[2]))


def lock_facts(method) -> LockFacts:
    """Compute the :class:`LockFacts` summary of one method."""
    facts = LockFacts(method.qualified, method.owner)
    if method.code is None:
        return facts
    code = method.code
    cfg = build_cfg(code)
    owner = method.owner
    qualified = method.qualified

    # Entry state: receiver in slot 0 for instance methods, parameters
    # after it, remaining slots unknown.
    entry_locals = []
    slot = 0
    if not method.static:
        entry_locals.append(("this", owner))
        slot = 1
    for i in range(method.params):
        entry_locals.append(("param", qualified, slot + i))
    while len(entry_locals) < max(method.max_locals, method.nargs):
        entry_locals.append(UNKNOWN)
    boundary = ((), tuple(entry_locals), ())

    def transfer(fact, instr, pc):
        stack, locals_, held = fact
        op = instr.op
        if op is Op.CONST:
            return stack + (("const", instr.arg),), locals_, held
        if op is Op.LOAD:
            sym = locals_[instr.arg] if instr.arg < len(locals_) else UNKNOWN
            return stack + (sym,), locals_, held
        if op is Op.STORE:
            new_locals = list(locals_)
            while len(new_locals) <= instr.arg:
                new_locals.append(UNKNOWN)
            new_locals[instr.arg] = stack[-1] if stack else UNKNOWN
            return stack[:-1], tuple(new_locals), held
        if op is Op.DUP:
            top = stack[-1] if stack else UNKNOWN
            return stack + (top,), locals_, held
        if op is Op.GETFIELD:
            base = stack[-1] if stack else UNKNOWN
            if base[0] == "this":
                sym = ("field", base[1], instr.arg)
            else:
                sym = UNKNOWN
            return stack[:-1] + (sym,), locals_, held
        if op is Op.GETSTATIC:
            return stack + (("static",) + tuple(instr.arg),), locals_, held
        if op is Op.MONITORENTER:
            lock = stack[-1] if stack else UNKNOWN
            return stack[:-1], locals_, held + (lock,)
        if op is Op.MONITOREXIT:
            lock = stack[-1] if stack else UNKNOWN
            new_held = list(held)
            for i in range(len(new_held) - 1, -1, -1):
                if new_held[i] == lock:
                    del new_held[i]
                    break
            else:
                if new_held:
                    new_held.pop()
            return stack[:-1], locals_, tuple(new_held)
        pops, pushes = stack_effect(instr)
        new_stack = stack[:len(stack) - pops] if pops else stack
        if pushes:
            new_stack = new_stack + (UNKNOWN,) * pushes
        return new_stack, locals_, held

    result = solve(cfg, DataflowProblem("forward", boundary, _join, transfer))

    # Deterministic final sweep: collect acquires/accesses with their
    # stable (fixpoint) facts.
    for block in cfg.rpo():
        fact = result.in_facts[block.index]
        if fact is None:
            continue
        for pc in block.pcs():
            instr = code[pc]
            stack, locals_, held = fact
            op = instr.op
            if op is Op.MONITORENTER:
                lock = stack[-1] if stack else UNKNOWN
                facts.acquires.append(
                    Acquire(pc, instr.line, lock, held))
            elif op in (Op.GETFIELD, Op.PUTFIELD):
                depth = 1 if op is Op.GETFIELD else 2
                base = stack[-depth] if len(stack) >= depth else UNKNOWN
                if base[0] == "this":
                    target = ("field", base[1], instr.arg)
                    kind = "read" if op is Op.GETFIELD else "write"
                    facts.accesses.append(
                        FieldAccess(pc, instr.line, kind, target, held))
            elif op in (Op.GETSTATIC, Op.PUTSTATIC):
                target = ("static",) + tuple(instr.arg)
                kind = "read" if op is Op.GETSTATIC else "write"
                facts.accesses.append(
                    FieldAccess(pc, instr.line, kind, target, held))
            elif op in (Op.INVOKESTATIC, Op.INVOKESPECIAL,
                        Op.INVOKEVIRTUAL):
                facts.calls.append(CallSite(
                    pc, instr.line, (instr.arg[0], instr.arg[1]), held))
            elif op in (Op.CAS, Op.ATOMIC_GET, Op.ATOMIC_ADD):
                depth = {Op.CAS: 3, Op.ATOMIC_GET: 1, Op.ATOMIC_ADD: 2}[op]
                base = stack[-depth] if len(stack) >= depth else UNKNOWN
                if base[0] == "this":
                    facts.atomic_fields.add(("field", base[1], instr.arg))
                # Atomic fields are excluded from lockset reasoning even
                # when the receiver is unknown: the field *name* is
                # enough evidence of intentional lock-free access.
                facts.atomic_fields.add(("name", instr.arg))
            fact = transfer(fact, instr, pc)
    return facts


def sym_name(sym: tuple) -> str:
    """Human-readable form of a lock/field symbol."""
    if sym == UNKNOWN:
        return "?"
    kind = sym[0]
    if kind == "this":
        return f"this:{sym[1]}"
    if kind == "field":
        return f"{sym[1]}.{sym[2]}"
    if kind == "static":
        return f"{sym[1]}.{sym[2]}"
    if kind == "param":
        return f"{sym[1]}(arg{sym[2]})"
    if kind == "const":
        return repr(sym[1])
    return repr(sym)
