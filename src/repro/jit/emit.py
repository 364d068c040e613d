"""Tier-1 superblock emitter: hot guest methods → flat Python closures.

The threaded tier-0 engine (:mod:`repro.jvm.threaded`) still pays one
Python call plus per-op counter/budget traffic for every bytecode.  This
module removes the remaining dispatch entirely: for a hot method it
emits one Python function per *superblock* — a straight-line region
starting at a block leader, extended through conditional fallthroughs
until a terminator, a bail-out opcode, or the region cap — and ``exec``s
the generated source once.  Inside a block there is no dispatch at all:
the operand stack lives in Python locals, and the per-instruction
bookkeeping of the reference interpreter is batched into the block's
exit points.

Byte-identity is the contract.  The reference interpreter executes, for
every instruction: ``budget > 0`` check, ``instructions += 1``, the op
(which may raise with the instruction counted but its cost uncharged),
then ``pc`` advance and ``budget``/``reference_cycles`` -= / += cost.
The emitted code preserves that exactly while touching the shared state
only at exits:

- the running budget comparison is folded to ``budget <= CUM_k`` per op,
  where ``CUM_k`` is the compile-time sum of the constant costs of the
  block's first ``k`` ops; dynamic costs (cache penalties, allocation
  words) decrement the local ``budget`` as they occur, keeping the
  comparison exact;
- every exit stores ``thread.budget = budget - CUM``, bumps
  ``counters.instructions``/``reference_cycles`` by compile-time
  constants (plus ``b0 - budget`` for the accumulated dynamic cycles),
  sets ``frame.pc`` to the exact bytecode index, and materializes the
  virtual operand stack back into ``frame.stack``;
- ops the reference can raise from (null/bounds/zero/cast checks,
  allocation pressure) flush *before* raising, with the faulting
  instruction counted but not charged — exactly the reference's state
  at the raise point;
- opcodes with scheduler/trace/profile side effects (invokes, monitors,
  atomics, park/wait/notify) are never emitted: the block ends before
  them and the tier-1 driver runs them on the threaded tier, which
  already carries the exact reference semantics (quickening, receiver
  profiles, contention accounting).

A block exits in one of three ways: a budget boundary landing mid-block
returns with ``frame.pc`` parked inside the region (the threaded
handler at that pc resumes it next slice); a guest exception or an
injected fault raises after the flush; a terminator, invoke or the
region's end hands control to the next pc.

Why bytecode and not the post-phase ``repro.jit`` graph IR: the guest
JIT's optimization phases change *simulated* costs and counters by
design (that is what they model).  A host tier must instead be
invisible — same counters, schedules, RaceReports, traces — so it
consumes the method bytecode directly and leaves the guest JIT to run
identically above it.
"""

from __future__ import annotations

import math

from repro.errors import (
    GuestArithmeticError,
    GuestBoundsError,
    GuestCastError,
    GuestNullPointerError,
)
from repro.jvm.bytecode import Op
from repro.jvm.cache import L1_LINES, WORDS_PER_LINE
from repro.jvm.costmodel import (
    BASE_COST,
    INTERP_DISPATCH,
    TIER1_COMPILE_BLOCK_COST,
    TIER1_COMPILE_SITE_COST,
)
from repro.jvm.interpreter import Frame, guest_str
from repro.jvm.threaded import _profile_receiver

#: Full per-op interpreter cost (base + dispatch), folded at emit time.
_COST = {op: cost + INTERP_DISPATCH for op, cost in BASE_COST.items()}

#: Opcodes a superblock never contains: they call into the scheduler
#: (contention re-execution, wake-ups), whose exact semantics the
#: threaded handlers already implement byte-identically.
BAIL_OPS = frozenset({
    Op.MONITORENTER, Op.MONITOREXIT,
    Op.PARK, Op.UNPARK, Op.WAIT, Op.NOTIFY, Op.NOTIFYALL,
})

#: Ops that end a superblock after executing (control leaves the region).
_TERMINATORS = frozenset({Op.GOTO, Op.RETURN, Op.RETVAL})

#: The invoke family is compiled too — a block ends *with* the invoke
#: (the callee frame runs next), inlining the argument transfer, the
#: monomorphic inline cache, and the receiver profile.
_INVOKE_OPS = frozenset({
    Op.INVOKESTATIC, Op.INVOKESPECIAL, Op.INVOKEVIRTUAL,
    Op.INVOKEINTERFACE, Op.INVOKEDYNAMIC, Op.INVOKEHANDLE,
})

#: Ops whose cycle cost has a run-time component (cache penalties,
#: allocation words); their presence makes the block track ``b0``.
_DYNAMIC_OPS = frozenset({
    Op.GETFIELD, Op.PUTFIELD, Op.ALOAD, Op.ASTORE, Op.NEW, Op.NEWARRAY,
    Op.CAS, Op.ATOMIC_GET, Op.ATOMIC_ADD,
})

#: Region cap: bounds generated-code size and exit-point fan-out; the
#: split point becomes a fresh leader so hot tails stay compiled.
MAX_BLOCK_OPS = 64

_BINOPS = {
    Op.SUB: "-", Op.MUL: "*", Op.SHL: "<<", Op.SHR: ">>",
    Op.AND: "&", Op.OR: "|", Op.XOR: "^",
}

_CMP_SYMS = frozenset({"==", "!=", "<", "<=", ">", ">="})


class Tier1Code:
    """A method's compiled superblocks plus the merged dispatch table."""

    __slots__ = ("method", "entries", "dispatch", "nblocks", "sites",
                 "compile_cycles", "source")

    def __init__(self, method, entries, nblocks, sites, source):
        self.method = method
        self.entries = entries        # pc -> block fn (None off-leaders)
        self.dispatch = None          # merged with threaded handlers
        self.nblocks = nblocks
        self.sites = sites            # instruction sites emitted
        self.compile_cycles = (sites * TIER1_COMPILE_SITE_COST
                               + nblocks * TIER1_COMPILE_BLOCK_COST)
        self.source = source          # generated module, for debugging


def _literal(value) -> str | None:
    """Source literal for a CONST argument, or None to bind a cell."""
    if value is None or value is True or value is False:
        return repr(value)
    t = type(value)
    if t is int or t is str:
        return repr(value)
    if t is float and math.isfinite(value):
        return repr(value)
    return None


_IDENT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _is_name(expr: str) -> bool:
    return bool(expr) and not expr[0].isdigit() and set(expr) <= _IDENT_OK


class _BlockEmitter:
    """Emits one superblock function's source."""

    def __init__(self, method, leader: int, ops, end_pc: int, kind: str,
                 cells: dict, consts: dict, jit_on: bool = True,
                 trace_cas: bool = False, fault_calls: bool = False) -> None:
        self.method = method
        self.leader = leader
        self.jit_on = jit_on          # VM has a guest JIT attached
        self.trace_cas = trace_cas    # recorder wants CAS-failure events
        self.fault_calls = fault_calls  # fault hook wants call events
        self.ops = ops                # [(pc, instr), ...] executable ops
        self.end_pc = end_pc
        self.kind = kind              # "term" | "bail" | "split"
        self.cells = cells            # shared (per-method) env cells
        self.consts = consts          # shared non-literal CONST bindings
        self.used = set()             # env names this block binds
        self.lines: list[str] = []
        self.v: list[str] = []        # virtual operand stack (exprs)
        self.ntmp = 0
        self.k = 0                    # ops emitted so far
        self.cum = 0                  # their constant cost sum
        self.has_dyn = any(i.op in _DYNAMIC_OPS for _, i in ops)
        # A branch back to this block's own leader (a hot loop whose
        # body is one superblock) is chained: the emitted function
        # loops in place instead of round-tripping through the driver,
        # with instruction/cycle accounting deferred into locals.
        self.self_loop = any(
            (i.op is Op.GOTO and i.arg == leader)
            or ((i.op is Op.IF or i.op is Op.IFZ) and i.arg[1] == leader)
            for _, i in ops)
        self._base = 1 if self.self_loop else 0

    # -- low-level helpers ---------------------------------------------
    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (1 + self._base + depth) + line)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"s{self.ntmp}"

    def pop(self) -> str:
        if self.v:
            return self.v.pop()
        t = self.tmp()
        self.emit(f"{t} = stack.pop()")
        return t

    def peek(self) -> str:
        if not self.v:
            t = self.tmp()
            self.emit(f"{t} = stack.pop()")
            self.v.append(t)
        return self.v[-1]

    def need(self, n: int) -> None:
        while len(self.v) < n:
            t = self.tmp()
            self.emit(f"{t} = stack.pop()")
            self.v.insert(0, t)

    def push_tmp(self, expr: str) -> str:
        t = self.tmp()
        self.emit(f"{t} = {expr}")
        self.v.append(t)
        return t

    def as_name(self, expr: str) -> str:
        """Expr as a bare identifier (for safe f-string interpolation)."""
        if _is_name(expr):
            return expr
        t = self.tmp()
        self.emit(f"{t} = {expr}")
        return t

    def cell(self, pc: int, factory) -> str:
        name = f"_k{pc}"
        if name not in self.cells:
            self.cells[name] = factory()
        self.used.add(name)
        return name

    # -- exit-point construction ---------------------------------------
    def flush_parts(self, *, pc: int | None, extra_cost: int = 0,
                    count_extra: int = 0, materialize: bool = True) -> list:
        """Statements restoring reference-identical shared state.

        ``extra_cost``/``count_extra`` fold the current op in (taken
        branches, returns charge it; pre-exit checks and raises count
        it without charging per the reference's raise-time state).
        """
        charged = self.cum + extra_cost
        counted = self.k + count_extra
        parts = [f"thread.budget = budget - {charged}" if charged
                 else "thread.budget = budget"]
        if pc is not None:
            parts.append(f"frame.pc = {pc}")
        if self.self_loop:
            # Completed loop passes live in ``_ai`` (instructions) and
            # in ``budget`` itself (their constant cost was subtracted
            # at each loop-around, so ``b0 - budget`` recovers constant
            # and dynamic cycles together).
            parts.append(f"_ct.instructions += _ai + {counted}"
                         if counted else "_ct.instructions += _ai")
            cyc = f"{charged} + (b0 - budget)" if charged \
                else "b0 - budget"
            parts.append(f"_ct.reference_cycles += {cyc}")
        else:
            if counted:
                parts.append(f"_ct.instructions += {counted}")
            if charged:
                cyc = f"{charged} + (b0 - budget)" if self.has_dyn \
                    else f"{charged}"
                parts.append(f"_ct.reference_cycles += {cyc}")
        if materialize and self.v:
            if len(self.v) == 1:
                parts.append(f"stack.append({self.v[0]})")
            else:
                parts.append(f"stack.extend(({', '.join(self.v)}))")
        return parts

    def budget_guard(self, pc: int) -> None:
        """``if budget <= CUM_k`` → OSR exit to the threaded tier."""
        parts = self.flush_parts(pc=pc)
        parts.append("_dp['budget'] = _dp['budget'] + 1")
        parts.append("return True")
        self.emit(f"if budget <= {self.cum}: " + "; ".join(parts))

    def raise_exit(self, pc: int, raise_stmt: str, depth: int = 1,
                   extra: tuple = ()) -> None:
        """Flush then raise: instruction counted, cost uncharged.

        The exception kills the guest thread exactly as in the
        reference engine; the dead frame's operand stack is not
        observable, so it is not materialized.  ``extra`` statements
        (e.g. the invoke family's ``method`` count, bumped before the
        reference's null check) are emitted after the flush.
        """
        for part in self.flush_parts(pc=pc, count_extra=1,
                                     materialize=False):
            self.emit(part, depth)
        for stmt in extra:
            self.emit(stmt, depth)
        self.emit("_dp['exception'] = _dp['exception'] + 1", depth)
        self.emit(raise_stmt, depth)

    def null_check(self, expr: str, pc: int, message: str) -> None:
        self.emit(f"if {expr} is None:")
        self.raise_exit(pc, f"raise _GNPE({message!r})")

    # -- per-op emission -----------------------------------------------
    def emit_op(self, pc: int, instr) -> bool:
        """Emit one op; returns False when the block ended (terminator
        or invoke) and emission must stop."""
        if self.k:
            self.budget_guard(pc)
        op = instr.op
        if op in _INVOKE_OPS:
            self.emit_invoke(pc, instr)
            return False
        c = _COST[op]

        if op is Op.CONST:
            lit = _literal(instr.arg)
            if lit is None:
                name = f"_v{pc}"
                self.consts[name] = instr.arg
                self.used.add(name)
                self.v.append(name)
            else:
                self.v.append(lit)
        elif op is Op.LOAD:
            self.push_tmp(f"locals_[{instr.arg}]")
        elif op is Op.STORE:
            self.emit(f"locals_[{instr.arg}] = {self.pop()}")
        elif op is Op.POP:
            if self.v:
                self.v.pop()
            else:
                self.emit("stack.pop()")
        elif op is Op.DUP:
            self.v.append(self.peek())
        elif op is Op.SWAP:
            self.need(2)
            self.v[-1], self.v[-2] = self.v[-2], self.v[-1]
        elif op is Op.ADD:
            rhs, lhs = self.pop(), self.pop()
            t = self.tmp()
            self.emit(f"if _type({lhs}) is str or _type({rhs}) is str:")
            self.emit(f"{t} = _gs({lhs}) + _gs({rhs})", 1)
            self.emit("else:")
            self.emit(f"{t} = {lhs} + {rhs}", 1)
            self.v.append(t)
        elif op in _BINOPS:
            rhs, lhs = self.pop(), self.pop()
            self.push_tmp(f"{lhs} {_BINOPS[op]} {rhs}")
        elif op is Op.DIV:
            rhs = self.as_name(self.pop())
            lhs = self.as_name(self.pop())
            self.emit(f"if {rhs} == 0:")
            self.raise_exit(pc, "raise _GAE('/ by zero')")
            t = self.tmp()
            q = self.tmp()
            # _truediv_int inlined: truncate toward zero.
            self.emit(f"if _isin({lhs}, _int) and _isin({rhs}, _int):")
            self.emit(f"{q} = _abs({lhs}) // _abs({rhs})", 1)
            self.emit(f"{t} = {q} if ({lhs} >= 0) == ({rhs} >= 0) "
                      f"else -{q}", 1)
            self.emit("else:")
            self.emit(f"{t} = {lhs} / {rhs}", 1)
            self.v.append(t)
        elif op is Op.REM:
            rhs = self.as_name(self.pop())
            lhs = self.as_name(self.pop())
            self.emit(f"if {rhs} == 0:")
            self.raise_exit(pc, "raise _GAE('% by zero')")
            t = self.tmp()
            q = self.tmp()
            # _rem_int inlined: sign follows the dividend.
            self.emit(f"if _isin({lhs}, _int) and _isin({rhs}, _int):")
            self.emit(f"{q} = _abs({lhs}) // _abs({rhs})", 1)
            self.emit(f"{t} = {lhs} - ({q} if ({lhs} >= 0) == ({rhs} >= 0) "
                      f"else -{q}) * {rhs}", 1)
            self.emit("else:")
            self.emit(f"{t} = {lhs} - {rhs} * _int({lhs} / {rhs})", 1)
            self.v.append(t)
        elif op is Op.NEG:
            self.push_tmp(f"-({self.pop()})")
        elif op is Op.NOT:
            self.push_tmp(f"0 if {self.pop()} else 1")
        elif op is Op.I2D:
            self.push_tmp(f"_float({self.pop()})")
        elif op is Op.D2I:
            self.push_tmp(f"_int({self.pop()})")
        elif op is Op.CMP:
            if instr.arg not in _CMP_SYMS:
                raise _EmitBail(f"bad cmp {instr.arg!r}")
            rhs, lhs = self.pop(), self.pop()
            self.push_tmp(f"1 if {lhs} {instr.arg} {rhs} else 0")
        elif op is Op.IF:
            cmp_op, target = instr.arg
            if cmp_op not in _CMP_SYMS:
                raise _EmitBail(f"bad cmp {cmp_op!r}")
            rhs, lhs = self.pop(), self.pop()
            self.emit(f"if {lhs} {cmp_op} {rhs}:")
            self.taken_branch(pc, target, c)
        elif op is Op.IFZ:
            cmp_op, target = instr.arg
            if cmp_op not in _CMP_SYMS:
                raise _EmitBail(f"bad cmp {cmp_op!r}")
            value = self.pop()
            if _is_name(value):
                t = self.tmp()
                self.emit(f"{t} = 0 if {value} is None else {value}")
            else:
                # CONST operand: fold the null-as-zero coercion now.
                t = "0" if value == "None" else value
            self.emit(f"if {t} {cmp_op} 0:")
            self.taken_branch(pc, target, c)
        elif op is Op.GOTO:
            target = instr.arg
            if target == self.leader and self.self_loop:
                self.loop_around(c, 0)
                return False
            if target <= pc:
                self.backedge()
            for part in self.flush_parts(pc=target, extra_cost=c,
                                         count_extra=1):
                self.emit(part)
            self.emit("return True")
            return False
        elif op is Op.RETVAL or op is Op.RETURN:
            value = self.pop() if op is Op.RETVAL else None
            # The dying frame's leftover operand stack is unobservable.
            for part in self.flush_parts(pc=None, extra_cost=c,
                                         count_extra=1, materialize=False):
                self.emit(part)
            self.emit("_fs = thread.frames")
            self.emit("_fs.pop()")
            if op is Op.RETVAL:
                self.emit("if _fs:")
                self.emit(f"_fs[-1].receive_result({value})", 1)
                self.emit("else:")
                self.emit(f"thread.result = {value}", 1)
            else:
                self.emit("if _fs:")
                self.emit("_fs[-1].receive_result(None)", 1)
            self.emit("return False")
            return False
        elif op is Op.GETFIELD:
            obj = self.as_name(self.pop())
            self.null_check(obj, pc, f"getfield {instr.arg}")
            slot = self.push_slot(obj, instr.arg)
            self.cache_charge(f"{obj}.addr + {slot}")
            self.push_tmp(f"{obj}.values[{slot}]")
        elif op is Op.PUTFIELD:
            value = self.pop()
            obj = self.as_name(self.pop())
            self.null_check(obj, pc, f"putfield {instr.arg}")
            slot = self.push_slot(obj, instr.arg)
            self.cache_charge(f"{obj}.addr + {slot}")
            self.emit(f"{obj}.values[{slot}] = {value}")
        elif op is Op.ALOAD:
            index = self.as_name(self.pop())
            arr = self.as_name(self.pop())
            self.null_check(arr, pc, "array load")
            data = self.bounds_check(arr, index, pc)
            self.cache_charge(f"{arr}.addr + {index}")
            self.push_tmp(f"{data}[{index}]")
        elif op is Op.ASTORE:
            value = self.pop()
            index = self.as_name(self.pop())
            arr = self.as_name(self.pop())
            self.null_check(arr, pc, "array store")
            data = self.bounds_check(arr, index, pc)
            self.cache_charge(f"{arr}.addr + {index}")
            self.emit(f"{data}[{index}] = {value}")
        elif op is Op.ARRAYLEN:
            arr = self.as_name(self.pop())
            self.null_check(arr, pc, "arraylength")
            self.push_tmp(f"_len({arr}.data)")
        elif op is Op.NEW:
            cell = self.cell(pc, lambda: [None, 0])
            jc = self.tmp()
            self.emit(f"{jc} = {cell}[0]")
            self.emit(f"if {jc} is None:")
            self.emit(f"{jc} = _vm.resolve_class({instr.arg!r})", 1)
            self.emit(f"{cell}[0] = {jc}", 1)
            self.emit(f"{cell}[1] = {jc}.instance_words "
                      f"if {jc}.instance_words > 0 else 0", 1)
            obj = self.alloc_call(pc, f"_heap.new_object({jc})")
            self.emit(f"budget -= {cell}[1]")
            self.cache_charge(f"{obj}.addr")
            self.v.append(obj)
        elif op is Op.NEWARRAY:
            length = self.as_name(self.pop())
            arr = self.alloc_call(
                pc, f"_heap.new_array({instr.arg!r}, {length})")
            self.emit(f"if {length} > 0: budget -= {length}")
            self.cache_charge(f"{arr}.addr")
            self.v.append(arr)
        elif op is Op.GETSTATIC:
            cls_name, field = instr.arg
            statics = self.statics_cell(pc, cls_name)
            self.push_tmp(f"{statics}[{field!r}]")
        elif op is Op.PUTSTATIC:
            cls_name, field = instr.arg
            statics = self.statics_cell(pc, cls_name)
            self.emit(f"{statics}[{field!r}] = {self.pop()}")
        elif op is Op.ATOMIC_GET:
            name = instr.arg
            obj = self.as_name(self.pop())
            self.null_check(obj, pc, f"atomicget {name}")
            self.emit("_ct.atomic += 1")
            slot = self.push_slot(obj, name)
            self.cache_charge(f"{obj}.addr + {slot}")
            self.push_tmp(f"{obj}.values[{slot}]")
        elif op is Op.ATOMIC_ADD:
            name = instr.arg
            delta = self.pop()
            obj = self.as_name(self.pop())
            self.null_check(obj, pc, f"atomicadd {name}")
            self.emit("_ct.atomic += 1")
            slot = self.push_slot(obj, name)
            self.cache_charge(f"{obj}.addr + {slot}")
            old = self.tmp()
            self.emit(f"{old} = {obj}.values[{slot}]")
            self.emit(f"{obj}.values[{slot}] = {old} + {delta}")
            self.v.append(old)
        elif op is Op.CAS:
            name = instr.arg
            update = self.pop()
            expect = self.pop()
            obj = self.as_name(self.pop())
            self.null_check(obj, pc, f"cas {name}")
            self.emit("_ct.atomic += 1")
            slot = self.push_slot(obj, name)
            self.cache_charge(f"{obj}.addr + {slot}")
            t = self.tmp()
            # References compare by identity (JObject has no __eq__),
            # numbers by value — matching the threaded CAS handler.
            self.emit(f"if {obj}.values[{slot}] == {expect}:")
            self.emit(f"{obj}.values[{slot}] = {update}", 1)
            self.emit(f"{t} = 1", 1)
            self.emit("else:")
            self.emit("_ct.cas_failures += 1", 1)
            if self.trace_cas:
                self.emit(f"_tcas.emit('cas', 'fail', thread.tid, "
                          f"({name!r},))", 1)
            self.emit(f"{t} = 0", 1)
            self.v.append(t)
        elif op is Op.INSTANCEOF:
            obj = self.as_name(self.pop())
            self.push_tmp(f"1 if {obj} is not None and "
                          f"{obj}.jclass.is_subtype_of({instr.arg!r}) "
                          f"else 0")
        elif op is Op.CHECKCAST:
            obj = self.as_name(self.peek())
            self.emit(f"if {obj} is not None and not "
                      f"{obj}.jclass.is_subtype_of({instr.arg!r}):")
            self.raise_exit(
                pc,
                f'raise _GCE(f"cannot cast {{{obj}.jclass.name}} '
                f'to {instr.arg}")')
        else:                                         # pragma: no cover
            raise _EmitBail(f"unhandled opcode {op}")

        self.k += 1
        self.cum += c
        return True

    # -- op building blocks --------------------------------------------
    def taken_branch(self, pc: int, target: int, cost: int) -> None:
        """Body of a taken IF/IFZ: charge, backedge, jump out."""
        if target == self.leader and self.self_loop:
            self.loop_around(cost, 1)
            return
        if target <= pc:
            self.backedge(1)
        for part in self.flush_parts(pc=target, extra_cost=cost,
                                     count_extra=1):
            self.emit(part, 1)
        self.emit("return True", 1)

    def loop_around(self, cost: int, depth: int) -> None:
        """Taken branch back to this block's own leader: loop in place.

        The iteration's constant cost folds into the local ``budget``
        and its instruction count into ``_ai`` — no shared-state writes
        until an exit flushes.  ``if budget > 0`` replays the driver's
        slice check; exhaustion parks the pc on the leader, exactly
        where the reference engine's slice would stop.
        """
        self.backedge(depth)
        self.emit(f"budget -= {self.cum + cost}", depth)
        self.emit(f"_ai += {self.k + 1}", depth)
        if self.v:
            if len(self.v) == 1:
                self.emit(f"stack.append({self.v[0]})", depth)
            else:
                self.emit(f"stack.extend(({', '.join(self.v)}))", depth)
        self.emit("if budget > 0: continue", depth)
        self.emit("thread.budget = budget", depth)
        self.emit(f"frame.pc = {self.leader}", depth)
        self.emit("_ct.instructions += _ai", depth)
        self.emit("_ct.reference_cycles += b0 - budget", depth)
        self.emit("return True", depth)

    def push_slot(self, obj: str, field) -> str:
        slot = self.tmp()
        self.emit(f"{slot} = {obj}.jclass.field_layout[{field!r}]")
        return slot

    def materialize(self) -> None:
        """Spill the virtual operand stack to the real one."""
        if not self.v:
            return
        if len(self.v) == 1:
            self.emit(f"stack.append({self.v[0]})")
        else:
            self.emit(f"stack.extend(({', '.join(self.v)}))")
        self.v.clear()

    def pop_args(self, n: int) -> tuple[str, list | None]:
        """Pop ``n`` call arguments.

        Returns ``(list_expr, elems)``: when all ``n`` values live on
        the virtual stack, ``elems`` are their exprs (in stack order)
        and ``list_expr`` builds the args list from them; otherwise
        everything is spilled and the real stack is sliced exactly as
        the threaded handlers do (``elems`` is None).
        """
        if n == 0:
            return "[]", []
        if len(self.v) >= n:
            elems = self.v[len(self.v) - n:]
            del self.v[len(self.v) - n:]
            return "[" + ", ".join(elems) + "]", elems
        self.materialize()
        t = self.tmp()
        self.emit(f"{t} = stack[_len(stack) - {n}:]")
        self.emit(f"del stack[_len(stack) - {n}:]")
        return t, None

    def emit_call(self, tgt: str, args: str) -> None:
        """``VM.call`` with its interpreted-frame fast path inlined.

        ``VM._fault_calls`` is fixed at VM construction, so when no
        fault hook wants call events the only dynamic cases are
        natives and abstract targets — both take the real ``VM.call``
        (natives charge ``thread.budget`` directly, which is why the
        caller flushes budget *before* this and charges the invoke
        cost *after* with a read-modify-write).  The common case —
        push an interpreter frame — runs without any host call,
        including ``Frame.__init__``, whose field stores are emitted
        directly.  The guest-JIT hand-off mirrors ``VM.call``
        statement for statement when a JIT is attached.
        """
        if self.fault_calls:
            self.emit(f"_vm.call(thread, {tgt}, {args})")
            return
        args = self.as_name(args)
        self.emit(f"if {tgt}.native or {tgt}.abstract:")
        self.emit(f"_vm.call(thread, {tgt}, {args})", 1)
        self.emit("else:")
        self.emit(f"{tgt}.invocation_count += 1", 1)
        depth = 1
        if self.jit_on:
            self.emit(f"if {tgt}.compiled is None:", 1)
            self.emit(f"_jit.on_invoke({tgt})", 2)
            code = self.tmp()
            self.emit(f"{code} = {tgt}.compiled", 1)
            self.emit(f"if {code} is not None:", 1)
            self.emit(
                f"thread.frames.append(_machine.new_frame({code}, {args}))",
                2)
            self.emit("else:", 1)
            depth = 2
        nf = self.tmp()
        self.emit(f"{nf} = _Frame.__new__(_Frame)", depth)
        self.emit(f"{nf}.method = {tgt}", depth)
        self.emit(f"{nf}.code = {tgt}.code", depth)
        self.emit(f"{nf}.locals = {args} + [None] * "
                  f"({tgt}.max_locals - _len({args}))", depth)
        self.emit(f"{nf}.stack = []", depth)
        self.emit(f"{nf}.pc = 0", depth)
        self.emit(f"thread.frames.append({nf})", depth)

    def emit_invoke(self, pc: int, instr) -> None:
        """One of the invoke family; the block ends at the call.

        Replicates the threaded handlers statement for statement:
        counts, argument transfer, null check, resolution (inline
        cache frozen at first execution, like quickening's generic →
        spec rewrite), receiver profile, ``frame.pc`` advance,
        ``VM.call``, then the invoke's own cost.  Batched bookkeeping
        is flushed *before* any step that can raise or observe shared
        state (resolution, the fault-injection hook and natives inside
        ``VM.call``), so an exception at any point leaves counters,
        budget and pc reference-identical.
        """
        op = instr.op
        cost = _COST[op]
        next_pc = pc + 1

        if op is Op.INVOKEDYNAMIC:
            owner, lambda_name, captured_count = instr.arg
            captured, _ = self.pop_args(captured_count)
            for part in self.flush_parts(pc=next_pc, count_extra=1):
                self.emit(part)
            self.emit("_ct.idynamic += 1")
            self.emit("_ct.method += 1")
            cell = self.cell(pc, lambda: [None])
            tgt = self.tmp()
            self.emit(f"{tgt} = {cell}[0]")
            self.emit(f"if {tgt} is None:")
            self.emit(f"{tgt} = _vm.resolve_static({owner!r}, "
                      f"{lambda_name!r})", 1)
            self.emit(f"{cell}[0] = {tgt}", 1)
            self.emit(f"stack.append(_vm.make_function({tgt}, {captured}))")
            self.emit(f"thread.budget -= {cost}")
            self.emit(f"_ct.reference_cycles += {cost}")
            self.emit("return False")
            return

        if op is Op.INVOKEHANDLE:
            argc = instr.arg
            args, _ = self.pop_args(argc)
            handle = self.as_name(self.pop())
            self.emit(f"if {handle} is None:")
            self.raise_exit(pc, "raise _GNPE('invoke on null function')",
                            extra=("_ct.method += 1",))
            for part in self.flush_parts(pc=pc, count_extra=1):
                self.emit(part)
            self.emit("_ct.method += 1")
            tgt, cap = self.tmp(), self.tmp()
            self.emit(f"{tgt}, {cap} = {handle}.meta")
            self.emit(f"frame.pc = {next_pc}")
            self.emit_call(tgt, f"_list({cap}) + {args}")
            self.emit(f"thread.budget -= {cost}")
            self.emit(f"_ct.reference_cycles += {cost}")
            self.emit("return False")
            return

        owner, name, argc = instr.arg
        if op is Op.INVOKESTATIC or op is Op.INVOKESPECIAL:
            args, _ = self.pop_args(
                argc if op is Op.INVOKESTATIC else argc + 1)
            for part in self.flush_parts(pc=pc, count_extra=1):
                self.emit(part)
            cell = self.cell(pc, lambda: [None])
            tgt = self.tmp()
            self.emit(f"{tgt} = {cell}[0]")
            self.emit(f"if {tgt} is None:")
            if op is Op.INVOKESTATIC:
                self.emit(f"{tgt} = _vm.resolve_static({owner!r}, "
                          f"{name!r})", 1)
            else:
                self.emit(f"{tgt} = _vm.resolve_class({owner!r})"
                          f".resolve_method({name!r})", 1)
            self.emit(f"{cell}[0] = {tgt}", 1)
            self.emit(f"frame.pc = {next_pc}")
            self.emit_call(tgt, args)
            self.emit(f"thread.budget -= {cost}")
            self.emit(f"_ct.reference_cycles += {cost}")
            self.emit("return False")
            return

        # INVOKEVIRTUAL / INVOKEINTERFACE: receiver-polymorphic.
        args, elems = self.pop_args(argc + 1)
        if elems is not None:
            elems[0] = self.as_name(elems[0])
            recv = elems[0]
            args = "[" + ", ".join(elems) + "]"
        else:
            recv = self.tmp()
            self.emit(f"{recv} = {args}[0]")
        message = f"invoke {name} on null"
        self.emit(f"if {recv} is None:")
        self.raise_exit(pc, f"raise _GNPE({message!r})",
                        extra=("_ct.method += 1",))
        for part in self.flush_parts(pc=pc, count_extra=1):
            self.emit(part)
        self.emit("_ct.method += 1")
        jc = self.tmp()
        self.emit(f"{jc} = {recv}.jclass")
        cell = self.cell(pc, lambda: [None, None, None])
        tgt = self.tmp()
        self.emit(f"if {jc} is {cell}[0]:")
        self.emit(f"{tgt} = {cell}[1]", 1)
        self.emit("else:")
        self.emit(f"{tgt} = {jc}.resolve_method({name!r})", 1)
        self.emit(f"if {cell}[0] is None:", 1)
        self.emit(f"{cell}[0] = {jc}", 2)
        self.emit(f"{cell}[1] = {tgt}", 2)
        # Receiver-type profile, fast path inlined: the per-pc types
        # set is cached in the site cell once _profile_receiver has
        # created it (call_profile and its sets are assigned exactly
        # once, so the cached identity is stable).
        ts = self.tmp()
        self.emit(f"{ts} = {cell}[2]")
        self.emit(f"if {ts} is None:")
        self.emit(f"_pr(_md, {pc}, {recv})", 1)
        self.emit(f"{cell}[2] = _md.call_profile[{pc}]", 1)
        self.emit(f"elif _len({ts}) < 4:")
        self.emit(f"{ts}.add({jc}.name)", 1)
        self.emit(f"frame.pc = {next_pc}")
        self.emit_call(tgt, args)
        self.emit(f"thread.budget -= {cost}")
        self.emit(f"_ct.reference_cycles += {cost}")
        self.emit("return False")
        return

    def bounds_check(self, arr: str, index: str, pc: int) -> str:
        data = self.tmp()
        self.emit(f"{data} = {arr}.data")
        self.emit(f"if not 0 <= {index} < _len({data}):")
        self.raise_exit(
            pc,
            f'raise _GBE(f"index {{{index}}} out of bounds '
            f'for length {{_len({data})}}")')
        return data

    def cache_charge(self, addr_expr: str) -> None:
        """Inline ``CacheModel.access``'s hit path (one list compare);
        only a miss pays the ``_cmiss`` call.  ``_l1c`` is this core's
        L1 tag row, bound once in the prologue."""
        t = self.tmp()
        self.emit(f"{t} = ({addr_expr}) // {WORDS_PER_LINE}")
        self.emit(f"if _l1c[{t} % {L1_LINES}] != {t}: "
                  f"budget -= _cmiss(core, {t})")

    def backedge(self, depth: int = 0) -> None:
        """``_md.backedge_count += 1`` plus the guest-JIT hotness hook.

        ``VM.on_backedge`` is a no-op without a guest JIT, so the call
        is specialized away at compile time (``jit=None`` is fixed at VM
        construction; the only mid-run change — sanitizer attach — drops
        all tier-1 code)."""
        self.emit("_md.backedge_count += 1", depth)
        if self.jit_on:
            self.emit("if _md.compiled is None: _vm.on_backedge(_md)",
                      depth)

    def alloc_call(self, pc: int, call: str) -> str:
        """Allocation guarded for heap pressure / injected faults: a
        raise inside the heap re-raises with prior ops flushed and the
        faulting instruction counted but uncharged."""
        result = self.tmp()
        self.emit("try:")
        self.emit(f"{result} = {call}", 1)
        self.emit("except Exception:")
        for part in self.flush_parts(pc=pc, count_extra=1,
                                     materialize=False):
            self.emit(part, 1)
        self.emit("_dp['fault'] = _dp['fault'] + 1", 1)
        self.emit("raise", 1)
        return result

    def statics_cell(self, pc: int, cls_name: str) -> str:
        cell = self.cell(pc, lambda: [None])
        statics = self.tmp()
        self.emit(f"{statics} = {cell}[0]")
        self.emit(f"if {statics} is None:")
        self.emit(f"{statics} = _vm.resolve_class({cls_name!r})"
                  f".static_values", 1)
        self.emit(f"{cell}[0] = {statics}", 1)
        return statics

    # -- whole-block assembly ------------------------------------------
    def render(self) -> tuple[str, str]:
        """Emit all ops + the end-of-region exit; return (name, source)."""
        for pc, instr in self.ops:
            if not self.emit_op(pc, instr):
                break
        else:
            # "bail"/"split": park the pc on the boundary op; the
            # dispatch loop runs its threaded handler next.
            for part in self.flush_parts(pc=self.end_pc):
                self.emit(part)
            self.emit("return True")
        name = f"_b{self.leader}"
        defaults = [
            "_ct=_ct", "_md=_md", "_vm=_vm", "_cm=_cm", "_heap=_heap",
            "_gs=_gs", "_l1=_l1", "_cmiss=_cmiss", "_GAE=_GAE",
            "_GNPE=_GNPE", "_GBE=_GBE", "_GCE=_GCE", "_dp=_dp",
            "_pr=_pr", "_tcas=_tcas", "_Frame=_Frame",
            "_machine=_machine", "_jit=_jit", "_type=type",
            "_len=len", "_float=float", "_int=int", "_isin=isinstance",
            "_abs=abs", "_list=list",
        ]
        defaults += [f"{n}={n}" for n in sorted(self.used)]
        header = (f"def {name}(thread, frame, stack, locals_, "
                  + ", ".join(defaults) + "):")
        prologue = ["    budget = thread.budget"]
        if self.has_dyn or self.self_loop:
            prologue.append("    b0 = budget")
        if self.has_dyn:
            prologue.append("    core = thread.core")
            prologue.append("    _l1c = _l1[core]")
        if self.self_loop:
            prologue.append("    _ai = 0")
            prologue.append("    while True:")
        return name, "\n".join([header] + prologue + self.lines)


class _EmitBail(Exception):
    """The emitter declines this method; the caller falls back."""


def _scan(code, leader: int, n: int):
    """Collect the superblock's executable ops starting at ``leader``.

    Returns ``(ops, end_pc, kind)``: ops run inside the block;
    ``end_pc`` is the bytecode the block stops *at* (exclusive for
    "bail"/"split", the terminator's own pc for "term").
    """
    ops = []
    pc = leader
    while pc < n and len(ops) < MAX_BLOCK_OPS:
        instr = code[pc]
        if instr.op in BAIL_OPS:
            return ops, pc, "bail"
        ops.append((pc, instr))
        if instr.op in _TERMINATORS or instr.op in _INVOKE_OPS:
            return ops, pc, "term"
        pc += 1
    return ops, pc, "split"


def _leaders(code, n: int) -> set[int]:
    out = {0}
    for pc, instr in enumerate(code):
        op = instr.op
        if op is Op.GOTO:
            out.add(instr.arg)
        elif op is Op.IF or op is Op.IFZ:
            out.add(instr.arg[1])
        elif op in BAIL_OPS or op in _INVOKE_OPS:
            out.add(pc + 1)       # resume point after the op completes
    return {pc for pc in out if pc < n}


def compile_method(engine, method):
    """Compile ``method`` to superblock closures for ``engine``.

    ``engine`` is the :class:`repro.jvm.tier1.Tier1Interpreter` that
    owns the compiled code (its stats receive the block exit counts).
    Returns a :class:`Tier1Code` or None when nothing is worth
    compiling.
    """
    code = method.code
    if code is None:
        return None
    n = len(code)
    if n == 0:
        return None
    vm = engine.vm
    env = {
        "_ct": vm.counters, "_md": method, "_vm": vm, "_cm": vm.cache,
        "_heap": vm.heap, "_gs": guest_str,
        "_l1": vm.cache.l1_tags, "_cmiss": vm.cache.miss,
        "_GAE": GuestArithmeticError,
        "_GNPE": GuestNullPointerError, "_GBE": GuestBoundsError,
        "_GCE": GuestCastError, "_dp": engine.stats.deopts,
        "_pr": _profile_receiver,
        "_tcas": (vm.trace if vm.trace is not None and vm.trace.cas_on
                  else None),
        "_Frame": Frame, "_machine": vm.machine, "_jit": vm.jit,
    }
    cells: dict = {}
    consts: dict = {}
    blocks: list[tuple[int, str]] = []        # (leader, fn name)
    sources: list[str] = []
    sites = 0

    pending = sorted(_leaders(code, n))
    seen = set(pending)
    try:
        while pending:
            leader = pending.pop(0)
            ops, end_pc, kind = _scan(code, leader, n)
            if kind == "split" and end_pc < n and end_pc not in seen:
                seen.add(end_pc)
                pending.append(end_pc)
            if not ops:
                continue          # leader sits on a bail op: threaded
            emitter = _BlockEmitter(
                method, leader, ops, end_pc, kind, cells, consts,
                jit_on=vm.jit is not None,
                trace_cas=vm.trace is not None and vm.trace.cas_on,
                fault_calls=vm._fault_calls)
            name, source = emitter.render()
            blocks.append((leader, name))
            sources.append(source)
            sites += emitter.k
    except _EmitBail:
        return None
    if not blocks:
        return None

    env.update(cells)
    env.update(consts)
    module = "\n\n".join(sources)
    exec(compile(module, f"<tier1 {method.qualified}>", "exec"), env)
    entries: list = [None] * n
    for leader, name in blocks:
        entries[leader] = env[name]
    return Tier1Code(method, entries, len(blocks), sites, module)
