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

Byte-identity against the reference interpreter is the contract, kept
by the exit protocol every host superblock shares with tier-2
(:class:`repro.jit.emit2._BlockWriter`): budget checks folded to
compile-time prefix sums, shared counters touched only by exits (one
``_x`` call each, :func:`repro.jit.emit2.block_exit`), and raises
exiting with the faulting instruction counted but not charged.
Tier-1 adds its operand stack, which lives in Python locals and is
spilled back into ``frame.stack`` at every resumable exit, and its
backedge counts.  Monitors and park/wait/notify are never emitted: the
block ends before them and the tier-1 driver runs them on the threaded
tier, which already carries the exact reference semantics.  An invoke
ends its block *with* the call, inlining the argument transfer, the
monomorphic inline cache and the receiver profile.

A block exits in one of three ways: a budget boundary landing mid-block
returns with ``frame.pc`` parked inside the region (the threaded
handler at that pc resumes it next slice); a guest exception or an
injected fault raises after its exit; a terminator, invoke or the
region's end hands control to the next pc.

Compilation never declines: every linked method compiles, since link
time (:func:`repro.jvm.bytecode.validate_code`) already rejected the
malformed comparisons no block could express, and an opcode with no
emitter arm raises ``VMError`` rather than falling back to threaded.

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
    VMError,
)
from repro.jit.emit2 import MAX_BLOCK_OPS, _BlockWriter, _is_name, block_exit
from repro.jvm.bytecode import INVOKES, TERMINATORS, Op
from repro.jvm.costmodel import (
    INTERP_COST,
    TIER1_COMPILE_BLOCK_COST,
    TIER1_COMPILE_SITE_COST,
)
from repro.jvm.interpreter import guest_str
from repro.jvm.threaded import _profile_receiver

#: Opcodes a superblock never contains: they call into the scheduler
#: (contention re-execution, wake-ups), whose exact semantics the
#: threaded handlers already implement byte-identically.
BAIL_OPS = frozenset({
    Op.MONITORENTER, Op.MONITOREXIT,
    Op.PARK, Op.UNPARK, Op.WAIT, Op.NOTIFY, Op.NOTIFYALL,
})

#: Ops whose cycle cost has a run-time component (cache penalties,
#: allocation words); their presence makes the block track ``b0``.
_DYNAMIC_OPS = frozenset({
    Op.GETFIELD, Op.PUTFIELD, Op.ALOAD, Op.ASTORE, Op.NEW, Op.NEWARRAY,
    Op.CAS, Op.ATOMIC_GET, Op.ATOMIC_ADD,
})

_BINOPS = {
    Op.SUB: "-", Op.MUL: "*", Op.SHL: "<<", Op.SHR: ">>",
    Op.AND: "&", Op.OR: "|", Op.XOR: "^",
}


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


class _BlockEmitter(_BlockWriter):
    """Emits one tier-1 superblock function's source.

    The exit protocol is :class:`~repro.jit.emit2._BlockWriter`'s; this
    class adds the bytecode op bodies over a virtual operand stack and
    fills the writer's two hooks: ``spill`` rebuilds that stack in
    ``frame.stack`` at a resumable exit, ``on_branch`` counts backedges.
    """

    PREFIX = "_b"
    PARAMS = "thread, frame, stack, locals_"

    def __init__(self, leader: int, ops, end_pc: int, env: dict) -> None:
        super().__init__(
            leader, ops, end_pc, env,
            has_dyn=any(i.op in _DYNAMIC_OPS for _, i in ops),
            self_loop=any(
                (i.op is Op.GOTO and i.arg == leader)
                or (i.op is Op.IFZ and i.arg[1] == leader)
                for _, i in ops))
        self.v: list[str] = []        # virtual operand stack (exprs)

    @staticmethod
    def const_cost(instr) -> int:
        return INTERP_COST[instr.op]

    # -- the writer's hooks --------------------------------------------
    def spill(self) -> list:
        if not self.v:
            return []
        if len(self.v) == 1:
            return [f"stack.append({self.v[0]})"]
        return [f"stack.extend(({', '.join(self.v)}))"]

    def on_branch(self, pc: int, target: int, depth: int) -> None:
        """A backward branch bumps ``_md.backedge_count`` and runs the
        guest-JIT hotness hook, as the threaded handler does."""
        if target > pc:
            return
        self.emit("_md.backedge_count += 1", depth)
        self.emit("_vm.on_backedge(_md)", depth)

    # -- virtual operand stack -----------------------------------------
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

    def push_tmp(self, expr: str) -> str:
        t = self.tmp()
        self.emit(f"{t} = {expr}")
        self.v.append(t)
        return t

    def materialize(self) -> None:
        """Spill the virtual operand stack to the real one."""
        for part in self.spill():
            self.emit(part)
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
        self.emit(f"{t} = stack[len(stack) - {n}:]")
        self.emit(f"del stack[len(stack) - {n}:]")
        return t, None

    # -- per-op emission -----------------------------------------------
    def emit_op(self, pc: int, instr) -> bool:
        """Emit one op; returns False when the block ended (terminator
        or invoke) and emission must stop."""
        op = instr.op
        if op in INVOKES:
            self.emit_invoke(pc, instr)
            return False
        c = INTERP_COST[op]

        if op is Op.CONST:
            lit = _literal(instr.arg)
            self.v.append(lit if lit is not None
                          else self.bind(f"_v{pc}", instr.arg))
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
        elif op is Op.ADD:
            rhs, lhs = self.pop(), self.pop()
            t = self.tmp()
            self.add(lhs, rhs, t)
            self.v.append(t)
        elif op in _BINOPS:
            rhs, lhs = self.pop(), self.pop()
            self.push_tmp(f"{lhs} {_BINOPS[op]} {rhs}")
        elif op is Op.DIV or op is Op.REM:
            rhs = self.as_name(self.pop())
            lhs = self.as_name(self.pop())
            self.v.append(self.divrem("div" if op is Op.DIV else "rem",
                                      lhs, rhs, None, pc))
        elif op is Op.NEG:
            self.push_tmp(f"-({self.pop()})")
        elif op is Op.NOT:
            self.push_tmp(f"0 if {self.pop()} else 1")
        elif op is Op.I2D:
            self.push_tmp(f"float({self.pop()})")
        elif op is Op.D2I:
            self.push_tmp(f"int({self.pop()})")
        elif op is Op.CMP:
            rhs, lhs = self.pop(), self.pop()
            self.push_tmp(f"1 if {lhs} {instr.arg} {rhs} else 0")
        elif op is Op.IFZ:
            cmp_op, target = instr.arg
            value = self.pop()
            if _is_name(value):
                t = self.tmp()
                self.emit(f"{t} = 0 if {value} is None else {value}")
            else:
                # CONST operand: fold the null-as-zero coercion now.
                t = "0" if value == "None" else value
            self.emit(f"if {t} {cmp_op} 0:")
            self.exit_to(pc, target, c, 1)
        elif op is Op.GOTO:
            self.exit_to(pc, instr.arg, c)
            return False
        elif op is Op.RETVAL or op is Op.RETURN:
            # The dying frame's leftover operand stack is unobservable.
            self.return_exit(self.pop() if op is Op.RETVAL else None, c)
            return False
        elif op is Op.GETFIELD:
            obj = self.as_name(self.pop())
            slot = self.field_slot(obj, instr.arg, pc, "getfield")
            self.push_tmp(f"{obj}.values[{slot}]")
        elif op is Op.PUTFIELD:
            value = self.pop()
            obj = self.as_name(self.pop())
            slot = self.field_slot(obj, instr.arg, pc, "putfield")
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
            self.push_tmp(f"len({arr}.data)")
        elif op is Op.NEW:
            cell = self.bind(f"_k{pc}", [None, 0])
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
            obj = self.as_name(self.pop())
            slot = self.field_slot(obj, instr.arg, pc, "atomicget",
                                   atomic=True)
            self.push_tmp(f"{obj}.values[{slot}]")
        elif op is Op.ATOMIC_ADD:
            delta = self.pop()
            obj = self.as_name(self.pop())
            slot = self.field_slot(obj, instr.arg, pc, "atomicadd",
                                   atomic=True)
            self.v.append(self.atomic_add(obj, slot, delta))
        elif op is Op.CAS:
            update = self.pop()
            expect = self.pop()
            obj = self.as_name(self.pop())
            slot = self.field_slot(obj, instr.arg, pc, "cas", atomic=True)
            t = self.tmp()
            self.cas(obj, slot, instr.arg, expect, update, t)
            self.v.append(t)
        elif op is Op.INSTANCEOF:
            obj = self.as_name(self.pop())
            self.push_tmp(f"1 if {obj} is not None and "
                          f"{obj}.jclass.is_subtype_of({instr.arg!r}) "
                          f"else 0")
        elif op is Op.CHECKCAST:
            self.checkcast(self.as_name(self.peek()), instr.arg, pc)
        else:
            raise VMError(f"tier-1: no emitter arm for opcode {op}")
        return True

    # -- op building blocks --------------------------------------------
    def emit_invoke(self, pc: int, instr) -> None:
        """One of the invoke family; the block ends at the call.

        Replicates the threaded handlers statement for statement:
        counts, argument transfer, null check, resolution (an inline
        cache cell filled at first execution, as in the threaded
        handler), receiver profile, ``frame.pc`` advance,
        ``VM.call``, then the invoke's own cost.  Batched bookkeeping
        is flushed *before* any step that can raise or observe shared
        state (resolution, the fault-injection hook and natives inside
        ``VM.call``), so an exception at any point leaves counters,
        budget and pc reference-identical.
        """
        op = instr.op
        cost = INTERP_COST[op]
        next_pc = pc + 1

        if op is Op.INVOKEDYNAMIC:
            owner, lambda_name, captured_count = instr.arg
            captured, _ = self.pop_args(captured_count)
            self.invoke_exit(next_pc)
            self.emit("_ct.idynamic += 1")
            self.emit("_ct.method += 1")
            cell = self.bind(f"_k{pc}", [None])
            tgt = self.tmp()
            self.emit(f"{tgt} = {cell}[0]")
            self.emit(f"if {tgt} is None:")
            self.emit(f"{tgt} = _vm.resolve_static({owner!r}, "
                      f"{lambda_name!r})", 1)
            self.emit(f"{cell}[0] = {tgt}", 1)
            self.emit(f"stack.append(_vm.make_function({tgt}, {captured}))")
            self.charge_after_call(cost)
            return

        if op is Op.INVOKEHANDLE:
            argc = instr.arg
            args, _ = self.pop_args(argc)
            handle = self.as_name(self.pop())
            # The reference counts the invoke before its null check.
            self.emit(f"if {handle} is None:")
            self.emit("_ct.method += 1", 1)
            self.raise_exit(pc, "raise _GNPE('invoke on null function')")
            self.invoke_exit(pc)
            self.emit("_ct.method += 1")
            tgt, cap = self.tmp(), self.tmp()
            self.emit(f"{tgt}, {cap} = {handle}.meta")
            self.call_then_charge(next_pc, tgt, f"list({cap}) + {args}",
                                  cost)
            return

        owner, name, argc = instr.arg
        if op is Op.INVOKESTATIC or op is Op.INVOKESPECIAL:
            args, _ = self.pop_args(
                argc if op is Op.INVOKESTATIC else argc + 1)
            self.invoke_exit(pc)
            cell = self.bind(f"_k{pc}", [None])
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
            self.call_then_charge(next_pc, tgt, args, cost)
            return

        # INVOKEVIRTUAL: receiver-polymorphic.
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
        self.emit("_ct.method += 1", 1)
        self.raise_exit(pc, f"raise _GNPE({message!r})")
        self.invoke_exit(pc)
        self.emit("_ct.method += 1")
        jc = self.tmp()
        self.emit(f"{jc} = {recv}.jclass")
        cell = self.bind(f"_k{pc}", [None, None, None])
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
        self.emit(f"elif len({ts}) < 4:")
        self.emit(f"{ts}.add({jc}.name)", 1)
        self.call_then_charge(next_pc, tgt, args, cost)

    def invoke_exit(self, pc: int) -> None:
        """Exit before an invoke: counted, uncharged, stack spilled."""
        self.emit(self.exit_call(pc, self.cum, self.k + 1))
        self.materialize()

    def call_then_charge(self, next_pc: int, tgt: str, args: str,
                         cost: int) -> None:
        """The call tail after :meth:`invoke_exit`, written outside
        ``_x``: advance the pc, call, then charge the invoke's cost with
        a read-modify-write (a native callee charged ``thread.budget``
        itself meanwhile)."""
        self.emit(f"frame.pc = {next_pc}")
        self.emit(f"_vm.call(thread, {tgt}, {args})")
        self.charge_after_call(cost)

    def charge_after_call(self, cost: int) -> None:
        self.emit(f"thread.budget -= {cost}")
        self.emit(f"_ct.reference_cycles += {cost}")
        self.emit("return False")

    def bounds_check(self, arr: str, index: str, pc: int) -> str:
        data = self.tmp()
        self.emit(f"{data} = {arr}.data")
        self.emit(f"if not 0 <= {index} < len({data}):")
        self.raise_exit(
            pc,
            f'raise _GBE(f"index {{{index}}} out of bounds '
            f'for length {{len({data})}}")')
        return data

    def statics_cell(self, pc: int, cls_name: str) -> str:
        cell = self.bind(f"_k{pc}", [None])
        statics = self.tmp()
        self.emit(f"{statics} = {cell}[0]")
        self.emit(f"if {statics} is None:")
        self.emit(f"{statics} = _vm.resolve_class({cls_name!r})"
                  f".static_values", 1)
        self.emit(f"{cell}[0] = {statics}", 1)
        return statics


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
        if instr.op in TERMINATORS or instr.op in INVOKES:
            return ops, pc, "term"
        pc += 1
    return ops, pc, "split"


def _leaders(code, n: int) -> set[int]:
    out = {0}
    for pc, instr in enumerate(code):
        op = instr.op
        if op is Op.GOTO:
            out.add(instr.arg)
        elif op is Op.IFZ:
            out.add(instr.arg[1])
        elif op in BAIL_OPS or op in INVOKES:
            out.add(pc + 1)       # resume point after the op completes
    return {pc for pc in out if pc < n}


def compile_method(engine, method):
    """Compile ``method`` to superblock closures for ``engine``.

    ``engine`` is the :class:`repro.jvm.tier1.Tier1Interpreter` that
    owns the compiled code (its stats receive the block exit counts).
    Every linked method compiles: link-time validation
    (:func:`repro.jvm.bytecode.validate_code`) already rejected what no
    emitter arm could express, and an opcode with no arm raises
    ``VMError``.
    """
    code = method.code
    n = len(code)
    vm = engine.vm
    env = {
        "_ct": vm.counters, "_md": method, "_vm": vm,
        "_heap": vm.heap, "_gs": guest_str,
        "_l1": vm.cache.l1_tags, "_cmiss": vm.cache.miss,
        "_GAE": GuestArithmeticError,
        "_GNPE": GuestNullPointerError, "_GBE": GuestBoundsError,
        "_GCE": GuestCastError,
        "_x": block_exit(vm.counters, engine.stats.deopts),
        "_pr": _profile_receiver,
        "_tcas": (vm.trace if vm.trace is not None and vm.trace.cas_on
                  else None),
    }
    blocks: list[tuple[int, str]] = []        # (leader, fn name)
    sources: list[str] = []
    sites = 0

    pending = sorted(_leaders(code, n))
    seen = set(pending)
    while pending:
        leader = pending.pop(0)
        ops, end_pc, kind = _scan(code, leader, n)
        if kind == "split" and end_pc < n and end_pc not in seen:
            seen.add(end_pc)
            pending.append(end_pc)
        if not ops:
            continue              # leader sits on a bail op: threaded
        emitter = _BlockEmitter(leader, ops, end_pc, env)
        name, source = emitter.render()
        blocks.append((leader, name))
        sources.append(source)
        sites += emitter.k

    module = "\n\n".join(sources)
    exec(compile(module, f"<tier1 {method.qualified}>", "exec"), env)
    entries: list = [None] * n
    for leader, name in blocks:
        entries[leader] = env[name]
    return Tier1Code(method, entries, len(blocks), sites, module)
