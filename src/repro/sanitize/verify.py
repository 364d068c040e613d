"""Structural bytecode verifier.

Six checks over one method's code, all phrased as dataflow problems on
the shared CFG:

- **stack balance** — the operand-stack depth at every pc must be
  merge-consistent and never underflow (errors),
- **stack-map consistency** — beyond depth, the *type kind* of each
  stack slot (num / str / ref / null) must agree across the paths into
  a merge point: a slot that is a number on one path and an object
  reference on another would make the merged value unusable by either
  consumer (warnings — the guest ISA is untyped, so kind conflicts are
  suspicious codegen, not hard faults),
- **monitor balance** — MONITORENTER/MONITOREXIT nesting must be
  merge-consistent, never negative, and zero at every return (errors;
  :func:`check_monitor_balance` is the cheap load-time subset wired into
  :meth:`repro.jvm.classfile.JMethod.validate`),
- **unreachable code** — blocks no path reaches (warnings: the guest
  codegen legitimately emits e.g. a ``return`` after an infinite loop),
- **unwind epilogue well-formedness** — this ISA has no exception
  tables; the codegen's implicit epilogue blocks (the monitor-unwind +
  return safety net appended to synchronized bodies) play the role of
  exception handlers.  Instead of skipping them silently the verifier
  checks they are shaped like unwind code: they must end in a return
  and must not drain more monitors than the method can ever hold
  (warnings — the reachability analogue of a dead/garbled handler),
- **use-before-def locals** — a LOAD from a slot not definitely assigned
  on every path from entry (errors; argument slots count as assigned).
"""

from __future__ import annotations

from repro.jvm.bytecode import Instr, Op
from repro.sanitize.cfg import build_cfg
from repro.sanitize.dataflow import DataflowProblem, solve
from repro.sanitize.reports import StaticIssue

#: (pops, pushes) per opcode.  Invoke/dynamic ops are handled separately
#: because their pop count depends on the instruction argument.
_STACK_EFFECT = {
    Op.CONST: (0, 1), Op.LOAD: (0, 1), Op.STORE: (1, 0),
    Op.POP: (1, 0), Op.DUP: (1, 2),
    Op.ADD: (2, 1), Op.SUB: (2, 1), Op.MUL: (2, 1), Op.DIV: (2, 1),
    Op.REM: (2, 1), Op.SHL: (2, 1), Op.SHR: (2, 1), Op.AND: (2, 1),
    Op.OR: (2, 1), Op.XOR: (2, 1), Op.CMP: (2, 1),
    Op.NEG: (1, 1), Op.NOT: (1, 1), Op.I2D: (1, 1), Op.D2I: (1, 1),
    Op.GOTO: (0, 0), Op.IFZ: (1, 0),
    Op.RETURN: (0, 0), Op.RETVAL: (1, 0),
    Op.NEW: (0, 1), Op.GETFIELD: (1, 1), Op.PUTFIELD: (2, 0),
    Op.GETSTATIC: (0, 1), Op.PUTSTATIC: (1, 0),
    Op.INSTANCEOF: (1, 1), Op.CHECKCAST: (1, 1),
    Op.NEWARRAY: (1, 1), Op.ALOAD: (2, 1), Op.ASTORE: (3, 0),
    Op.ARRAYLEN: (1, 1),
    Op.MONITORENTER: (1, 0), Op.MONITOREXIT: (1, 0),
    Op.CAS: (3, 1), Op.ATOMIC_GET: (1, 1), Op.ATOMIC_ADD: (2, 1),
    Op.PARK: (0, 0), Op.UNPARK: (1, 0),
    Op.WAIT: (1, 0), Op.NOTIFY: (1, 0), Op.NOTIFYALL: (1, 0),
}


def stack_effect(instr: Instr) -> tuple[int, int]:
    """``(pops, pushes)`` of one instruction.

    Every call pushes exactly one result (void methods push null — see
    the codegen), so the invoke family is ``(args[, receiver], 1)``.
    """
    op = instr.op
    if op is Op.INVOKESTATIC:
        return instr.arg[2], 1
    if op is Op.INVOKESPECIAL or op is Op.INVOKEVIRTUAL:
        return instr.arg[2] + 1, 1
    if op is Op.INVOKEDYNAMIC:
        return instr.arg[2], 1        # pops the captured values
    if op is Op.INVOKEHANDLE:
        return instr.arg + 1, 1       # handle + args
    return _STACK_EFFECT[op]


#: Merge-conflict sentinel for integer-depth facts.
_CONFLICT = -(10 ** 9)


def _depth_problem(effect, boundary=0):
    """Forward int-depth analysis; ``effect(instr) -> delta``."""

    def join(a, b):
        return a if a == b else _CONFLICT

    def transfer(fact, instr, pc):
        if fact == _CONFLICT:
            return fact
        return fact + effect(instr)

    return DataflowProblem("forward", boundary, join, transfer)


# ---------------------------------------------------------------- kinds
#: Merge sentinel for the stack-map lattice: depth mismatch or underflow
#: (both already reported as errors by the depth analysis).
_KIND_CONFLICT = "<conflict>"

#: Ops whose single pushed result is always numeric.
_NUM_RESULT = frozenset({
    Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.SHL, Op.SHR, Op.AND, Op.OR,
    Op.XOR, Op.CMP, Op.NEG, Op.NOT, Op.I2D, Op.D2I, Op.INSTANCEOF,
    Op.ARRAYLEN,
})

#: Ops whose pushed result is always an object reference.
_REF_RESULT = frozenset({Op.NEW, Op.NEWARRAY, Op.CHECKCAST})

#: Kind groups compatible at a merge: ``null`` flows into any reference
#: slot (``var x = null; ... x = new Box();`` is normal guest code).
_KIND_GROUP = {"num": "num", "str": "str", "ref": "ref", "null": "ref"}


def _result_kind(instr: Instr, popped: list) -> str:
    """Kind of the value ``instr`` pushes, given the kinds it popped."""
    op = instr.op
    if op is Op.CONST:
        value = instr.arg
        if value is None:
            return "null"
        if isinstance(value, str):
            return "str"
        return "num"
    if op is Op.ADD:
        # ADD doubles as string concatenation in the guest language.
        if "str" in popped:
            return "str"
        if all(kind == "num" for kind in popped):
            return "num"
        return "any"
    if op in _NUM_RESULT:
        return "num"
    if op in _REF_RESULT:
        return "ref"
    # LOAD/GETFIELD/ALOAD/invokes/atomics: statically unknown.
    return "any"


def _kind_transfer(fact, instr: Instr, pc: int):
    if fact == _KIND_CONFLICT:
        return fact
    stack = list(fact)
    pops, pushes = stack_effect(instr)
    if pops > len(stack):
        return _KIND_CONFLICT      # underflow — the depth pass errors
    if instr.op is Op.DUP:
        stack.append(stack[-1])
    else:
        popped = stack[len(stack) - pops:]
        del stack[len(stack) - pops:]
        stack.extend(_result_kind(instr, popped) for _ in range(pushes))
    return tuple(stack)


def _kind_join(a, b):
    if a == _KIND_CONFLICT or b == _KIND_CONFLICT or len(a) != len(b):
        return _KIND_CONFLICT
    return tuple(x if x == y else "any" for x, y in zip(a, b))


def check_monitor_balance(code: list[Instr], qualified: str = "?") -> None:
    """Raise :class:`~repro.errors.LinkError` on unbalanced monitors.

    Load-time subset of the full verifier: only methods that mention
    MONITORENTER/MONITOREXIT pay for a CFG.  Catching the imbalance here
    turns a confusing mid-run scheduler assertion ("exit of unowned
    monitor") into a link error naming the method.
    """
    if not any(i.op in (Op.MONITORENTER, Op.MONITOREXIT) for i in code):
        return
    from repro.errors import LinkError

    cfg = build_cfg(code)

    def effect(instr):
        if instr.op is Op.MONITORENTER:
            return 1
        if instr.op is Op.MONITOREXIT:
            return -1
        return 0

    result = solve(cfg, _depth_problem(effect))
    for block in cfg.rpo():
        depth = result.in_facts[block.index]
        if depth == _CONFLICT:
            raise LinkError(
                f"{qualified}: inconsistent monitor nesting at pc "
                f"{block.start} (paths disagree)")
        for pc in block.pcs():
            instr = cfg.code[pc]
            if instr.op is Op.MONITOREXIT and depth <= 0:
                raise LinkError(
                    f"{qualified}: MONITOREXIT at pc {pc} without a "
                    "matching MONITORENTER")
            depth += effect(instr)
            if instr.op in (Op.RETURN, Op.RETVAL) and depth != 0:
                raise LinkError(
                    f"{qualified}: return at pc {pc} with {depth} "
                    "monitor(s) still held")


def verify_method(method) -> list[StaticIssue]:
    """All structural issues of one :class:`~repro.jvm.classfile.JMethod`."""
    if method.code is None:
        return []
    code = method.code
    qualified = method.qualified
    cfg = build_cfg(code)
    issues: list[StaticIssue] = []

    def issue(severity, pc, message):
        line = code[pc].line if pc >= 0 else 0
        issues.append(StaticIssue(
            "verify", severity, qualified, pc, line, message))

    # ------------------------------------------------------------- stack
    result = solve(cfg, _depth_problem(
        lambda i: stack_effect(i)[1] - stack_effect(i)[0]))
    for block in cfg.rpo():
        depth = result.in_facts[block.index]
        if depth == _CONFLICT:
            issue("error", block.start,
                  "inconsistent stack depth at merge point")
            continue
        for pc in block.pcs():
            pops, pushes = stack_effect(code[pc])
            if depth < pops:
                issue("error", pc,
                      f"stack underflow: {code[pc].op.name} needs "
                      f"{pops}, depth is {depth}")
                break
            depth += pushes - pops

    # --------------------------------------------------------- stack map
    # Per-slot type-kind consistency at merge points.  The depth pass
    # above guarantees shape; this catches a slot that is e.g. a number
    # on one inbound path and an object reference on another — today
    # that was only visible when the depths *also* disagreed.
    kinds = solve(cfg, DataflowProblem(
        "forward", (), _kind_join, _kind_transfer, name="stackmap"))
    reachable_idx = {b.index for b in cfg.rpo()}
    for block in cfg.rpo():
        preds = [p for p in block.preds if p in reachable_idx]
        if len(preds) < 2:
            continue
        inbound = [kinds.out_facts[p] for p in preds]
        if any(fact is None or fact == _KIND_CONFLICT for fact in inbound):
            continue
        depths = {len(fact) for fact in inbound}
        if len(depths) != 1:
            continue               # depth mismatch already reported
        for slot in range(depths.pop()):
            groups = {_KIND_GROUP[fact[slot]] for fact in inbound
                      if fact[slot] != "any"}
            if len(groups) > 1:
                a, b = sorted(groups)
                issue("warning", block.start,
                      f"stack map mismatch at merge: slot {slot} is "
                      f"{a} on one path, {b} on another")

    # ----------------------------------------------------------- monitor
    monitor = solve(cfg, _depth_problem(
        lambda i: 1 if i.op is Op.MONITORENTER
        else (-1 if i.op is Op.MONITOREXIT else 0)))
    for block in cfg.rpo():
        depth = monitor.in_facts[block.index]
        if depth == _CONFLICT:
            issue("error", block.start,
                  "inconsistent monitor nesting at merge point")
            continue
        for pc in block.pcs():
            instr = code[pc]
            if instr.op is Op.MONITOREXIT and depth <= 0:
                issue("error", pc, "MONITOREXIT without matching "
                                   "MONITORENTER")
            if instr.op is Op.MONITORENTER:
                depth += 1
            elif instr.op is Op.MONITOREXIT:
                depth -= 1
            if instr.op in (Op.RETURN, Op.RETVAL) and depth != 0:
                issue("error", pc,
                      f"return with {depth} monitor(s) still held")

    # ------------------------------------------------------- unreachable
    # The codegen appends an implicit epilogue to every method (a final
    # RETURN, plus monitor unwinds for synchronized bodies) so code can
    # never fall off the end holding a lock; an unreachable block made
    # only of those ops is that safety net, not guest logic.  This ISA
    # has no exception tables, so those epilogues are its handlers —
    # rather than skipping them silently, check they are *shaped* like
    # unwind code: they must return, and must not drain more monitors
    # than the method can ever hold (the handler-reachability analogue).
    max_depth = 0
    for block in cfg.rpo():
        depth = monitor.in_facts[block.index]
        if depth is None or depth == _CONFLICT:
            continue
        for pc in block.pcs():
            if code[pc].op is Op.MONITORENTER:
                depth += 1
                max_depth = max(max_depth, depth)
            elif code[pc].op is Op.MONITOREXIT:
                depth -= 1
    reachable = {b.index for b in cfg.rpo()}
    epilogue = (Op.CONST, Op.LOAD, Op.MONITOREXIT, Op.RETURN, Op.RETVAL)
    for block in cfg.blocks:
        if block.index in reachable:
            continue
        if all(code[pc].op in epilogue for pc in block.pcs()):
            if code[block.end - 1].op not in (Op.RETURN, Op.RETVAL):
                issue("warning", block.start,
                      "unwind epilogue does not end in a return")
            drains = sum(1 for pc in block.pcs()
                         if code[pc].op is Op.MONITOREXIT)
            if drains > max_depth:
                issue("warning", block.start,
                      f"unwind epilogue drains {drains} monitor(s) but "
                      f"the method holds at most {max_depth}")
            continue
        issue("warning", block.start, "unreachable code")

    # -------------------------------------------------- use-before-def
    entry_defs = frozenset(range(method.nargs))
    all_slots = frozenset(range(max(method.max_locals, method.nargs)))

    def defs_transfer(fact, instr, pc):
        if instr.op is Op.STORE:
            return fact | {instr.arg}
        return fact

    defs = solve(cfg, DataflowProblem(
        "forward", entry_defs,
        lambda a, b: a & b, defs_transfer))
    for block in cfg.rpo():
        assigned = defs.in_facts[block.index]
        if assigned is None:
            assigned = all_slots
        for pc in block.pcs():
            instr = code[pc]
            if instr.op is Op.LOAD and instr.arg not in assigned:
                issue("error", pc,
                      f"local slot {instr.arg} read before any "
                      "assignment on some path")
            elif instr.op is Op.STORE:
                assigned = assigned | {instr.arg}

    issues.sort(key=lambda i: (i.pc, i.severity, i.message))
    return issues


def verify_program(program) -> list[StaticIssue]:
    """Verify every method of a compiled guest program.

    ``program`` is anything with a ``classes`` iterable of
    :class:`~repro.jvm.classfile.JClass` (a
    :class:`~repro.lang.compiler.Program` or a :class:`ClassPool`).
    """
    issues: list[StaticIssue] = []
    for cls in _classes_of(program):
        for name in sorted(cls.methods):
            issues.extend(verify_method(cls.methods[name]))
    return issues


def _classes_of(program):
    classes = getattr(program, "classes", program)
    if isinstance(classes, dict):
        classes = [classes[name] for name in sorted(classes)]
    else:
        classes = sorted(classes, key=lambda c: c.name)
    return classes
