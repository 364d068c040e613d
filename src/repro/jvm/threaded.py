"""Threaded-code interpreter (tier 0, fast path).

A drop-in replacement for :class:`repro.jvm.interpreter.Interpreter`
that removes the per-instruction linear opcode scan.  At first execution
of a method (per VM), its bytecode is *translated* into a list of
per-opcode handler closures — one per pc — with operands, cycle costs
and VM services pre-bound, so dispatch is a single list index plus a
call.  On top of the translation, two classic interpreter techniques:

- **quickening**: generic handlers rewrite themselves into specialized
  forms after the first execution resolves their operands.  ``GETFIELD``
  and ``PUTFIELD`` install a monomorphic inline cache (receiver class →
  field slot) with a polymorphic dict-lookup fallback; the invoke family
  caches the resolved :class:`~repro.jvm.classfile.JMethod` (for virtual
  and interface calls, guarded on the receiver class); ``NEW`` and the
  static field ops bind their resolved class.
- **superinstructions**: statically detected hot opcode pairs
  (``CONST+ADD``, ``LOAD+GETFIELD``, ``CMP+IFZ``, …) fuse into one
  handler, halving dispatch cost on straight-line code.  The second pc
  of a fused pair keeps its standalone handler, so branches *into* the
  pair and budget-boundary resumption behave exactly like the reference
  engine.

Determinism contract
--------------------
Counters, cycle charges, cache-model accesses, sanitizer hooks,
scheduler interactions and exception messages are byte-identical with
the reference ``elif`` interpreter: every handler bumps
``counters.instructions`` per executed bytecode, charges
``BASE_COST[op] + INTERP_DISPATCH`` (plus cache penalties) *after* a
successful execution, and checks the thread budget between the two
halves of a fused pair — if the budget runs out mid-pair, the handler
parks the intermediate state on the operand stack and the next slice
resumes at the standalone handler of the second opcode, exactly where
the reference engine would be.  ``tests/test_threaded.py`` asserts
counter-snapshot and RaceReport equality across engines.

Translation cache
-----------------
Translations are cached per VM and per method.  :meth:`cache_info`
exposes hits/misses/hit-rate; :meth:`invalidate_all` drops every
translation (all quickened sites revert to generic on the next
execution) and counts the invalidations.  Attaching a race sanitizer or
a flight recorder drops all host code through
:meth:`~repro.runtime.vm.VM.drop_host_code`: handlers bind both at
translation time, so stale handlers must never survive an ``attach``.
"""

from __future__ import annotations

import operator

from repro.errors import (
    GuestArithmeticError,
    GuestCastError,
    GuestNullPointerError,
    VMError,
)
from repro.jvm.bytecode import Op
from repro.jvm.costmodel import BASE_COST, INTERP_DISPATCH, alloc_cost
from repro.jvm.interpreter import _rem_int, _truediv_int, guest_str

#: Interpreter cost per opcode, dispatch included (folded at translate
#: time so handlers never do the dict lookup).
_COST = {op: cost + INTERP_DISPATCH for op, cost in BASE_COST.items()}

#: Comparison operators as C-level callables (same semantics as the
#: reference engine's lambdas, minus the Python-frame call overhead).
_CMP_FN = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


class ThreadedCode:
    """One method's translation: handlers parallel to the bytecode."""

    __slots__ = ("method", "handlers", "quickened", "fused")

    def __init__(self, method, handlers: list, fused: int) -> None:
        self.method = method
        self.handlers = handlers
        self.quickened = 0      # specialized handlers installed so far
        self.fused = fused      # fused-pair handlers in the translation


class _Ctx:
    """Translation-time context bound into handler closures."""

    __slots__ = ("vm", "counters", "cachemodel", "sched", "heap", "san",
                 "trace_cas", "handlers", "tc", "engine")

    def __init__(self, engine: "ThreadedInterpreter") -> None:
        vm = engine.vm
        self.vm = vm
        self.counters = vm.counters
        self.cachemodel = vm.cache
        self.sched = vm.scheduler
        self.heap = vm.heap
        self.san = vm.sanitizer
        # Flight recorder, pre-gated on the category the handlers emit
        # (attaching one invalidates translations, like the sanitizer).
        tr = vm.trace
        self.trace_cas = tr if (tr is not None and tr.cas_on) else None
        self.handlers = None    # filled by _translate before factories run
        self.tc = None
        self.engine = engine


class ThreadedInterpreter:
    """Executes interpreted frames of one VM via threaded code."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self._cache: dict = {}          # JMethod -> ThreadedCode
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Translation cache.
    # ------------------------------------------------------------------
    def translation(self, method) -> ThreadedCode:
        tc = self._cache.get(method)
        if tc is None:
            self.misses += 1
            tc = self._translate(method)
            self._cache[method] = tc
        else:
            self.hits += 1
        return tc

    def cache_info(self) -> dict:
        """Hit/miss statistics of the per-method translation cache.

        An invalidated method's next execution is a miss — the hit-rate
        accounts for quickened bodies being thrown away.
        """
        total = self.hits + self.misses
        return {
            "size": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "invalidations": self.invalidations,
            "quickened": sum(tc.quickened for tc in self._cache.values()),
            "fused": sum(tc.fused for tc in self._cache.values()),
        }

    def invalidate_all(self) -> int:
        """Drop every translation; the next execution of each method
        re-translates and re-quickens against the current VM state."""
        n = len(self._cache)
        self.invalidations += n
        self._cache.clear()
        return n

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run_frame(self, thread, frame) -> None:
        """Run ``frame`` until budget exhaustion, block, call or return.

        Same contract as the reference engine: calls push a frame and
        return here; the VM executor loop re-dispatches on the new top
        frame.
        """
        self.execute(thread, frame, self.translation(frame.method).handlers)

    def execute(self, thread, frame, handlers) -> None:
        """Dispatch loop over a per-pc handler table.

        Also the tier-1 engine's OSR entry/exit point: after a deopt or
        a mid-block budget boundary, the tier-1 driver resumes the frame
        here at the exact bytecode index — ``frame.pc`` can land on any
        instruction, and every handler carries the full reference
        semantics, so re-entry anywhere is safe.
        """
        stack = frame.stack
        locals_ = frame.locals
        while thread.budget > 0:
            if not handlers[frame.pc](thread, frame, stack, locals_):
                return

    # ------------------------------------------------------------------
    # Translation.
    # ------------------------------------------------------------------
    def _translate(self, method) -> ThreadedCode:
        ctx = _Ctx(self)
        code = method.code
        n = len(code)
        handlers: list = [None] * n
        ctx.handlers = handlers
        tc = ThreadedCode(method, handlers, 0)
        ctx.tc = tc
        fused = 0
        for pc in range(n):
            instr = code[pc]
            if pc + 1 < n:
                fuser = _FUSERS.get((instr.op, code[pc + 1].op))
                if fuser is not None:
                    handlers[pc] = fuser(ctx, method, pc, instr, code[pc + 1])
                    fused += 1
                    continue
            handlers[pc] = _make_handler(ctx, method, pc, instr)
        tc.fused = fused
        return tc


def _make_handler(ctx, method, pc, instr):
    factory = _FACTORY.get(instr.op)
    if factory is None:
        raise VMError(f"unhandled opcode {instr.op}")
    return factory(ctx, method, pc, instr)


# ======================================================================
# Handler factories — one per opcode.  Every factory returns a closure
# ``handler(thread, frame, stack, locals_) -> bool`` (True: keep
# dispatching; False: return to the executor).  The closure's frame.pc
# equals its own pc on entry and is set to the successor before the
# budget charge, mirroring the reference engine's accounting order.
# ======================================================================

def _f_const(ctx, method, pc, instr):
    counters = ctx.counters
    value = instr.arg
    cost = _COST[Op.CONST]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        stack.append(value)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_load(ctx, method, pc, instr):
    counters = ctx.counters
    slot = instr.arg
    cost = _COST[Op.LOAD]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        stack.append(locals_[slot])
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_store(ctx, method, pc, instr):
    counters = ctx.counters
    slot = instr.arg
    cost = _COST[Op.STORE]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        locals_[slot] = stack.pop()
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_add(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.ADD]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        if type(lhs) is str or type(rhs) is str:
            stack.append(guest_str(lhs) + guest_str(rhs))
        else:
            stack.append(lhs + rhs)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _binop_factory(op, fn):
    def factory(ctx, method, pc, instr):
        counters = ctx.counters
        cost = _COST[op]
        next_pc = pc + 1

        def h(thread, frame, stack, locals_):
            counters.instructions += 1
            rhs = stack.pop()
            stack[-1] = fn(stack[-1], rhs)
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        return h
    return factory


def _unop_factory(op, fn):
    def factory(ctx, method, pc, instr):
        counters = ctx.counters
        cost = _COST[op]
        next_pc = pc + 1

        def h(thread, frame, stack, locals_):
            counters.instructions += 1
            stack[-1] = fn(stack[-1])
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        return h
    return factory


def _f_div(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.DIV]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        if rhs == 0:
            raise GuestArithmeticError("/ by zero")
        if isinstance(lhs, int) and isinstance(rhs, int):
            stack.append(_truediv_int(lhs, rhs))
        else:
            stack.append(lhs / rhs)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_rem(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.REM]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        if rhs == 0:
            raise GuestArithmeticError("% by zero")
        if isinstance(lhs, int) and isinstance(rhs, int):
            stack.append(_rem_int(lhs, rhs))
        else:
            stack.append(lhs - rhs * int(lhs / rhs))
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_cmp(ctx, method, pc, instr):
    counters = ctx.counters
    cmp_fn = _CMP_FN[instr.arg]
    cost = _COST[Op.CMP]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        stack.append(1 if cmp_fn(lhs, rhs) else 0)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_if(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    cmp_fn = _CMP_FN[instr.arg[0]]
    target = instr.arg[1]
    is_back = target <= pc
    cost = _COST[Op.IF]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        if cmp_fn(lhs, rhs):
            if is_back:
                method.backedge_count += 1
                vm.on_backedge(method)
            frame.pc = target
        else:
            frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_ifz(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    cmp_fn = _CMP_FN[instr.arg[0]]
    target = instr.arg[1]
    is_back = target <= pc
    cost = _COST[Op.IFZ]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        value = stack.pop()
        if value is None:
            value = 0
        if cmp_fn(value, 0):
            if is_back:
                method.backedge_count += 1
                vm.on_backedge(method)
            frame.pc = target
        else:
            frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_goto(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    target = instr.arg
    is_back = target <= pc
    cost = _COST[Op.GOTO]

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        if is_back:
            method.backedge_count += 1
            vm.on_backedge(method)
        frame.pc = target
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


# ----------------------------------------------------------------------
# Stack manipulation.
# ----------------------------------------------------------------------

def _f_dup(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.DUP]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        stack.append(stack[-1])
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_pop(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.POP]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        stack.pop()
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_swap(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.SWAP]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        stack[-1], stack[-2] = stack[-2], stack[-1]
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


# ----------------------------------------------------------------------
# Fields and statics (quickening: monomorphic inline caches).
# ----------------------------------------------------------------------

def _f_getfield(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    handlers = ctx.handlers
    tc = ctx.tc
    name = instr.arg
    cost0 = _COST[Op.GETFIELD]
    next_pc = pc + 1

    def make_spec(ic_class, ic_slot):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            obj = stack.pop()
            if obj is None:
                raise GuestNullPointerError(f"getfield {name}")
            jclass = obj.jclass
            slot = ic_slot if jclass is ic_class \
                else jclass.field_layout[name]
            cost = cost0 + cachemodel.access(thread.core, obj.addr + slot)
            if san is not None:
                san.field_read(thread, obj, name, frame)
            stack.append(obj.values[slot])
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError(f"getfield {name}")
        slot = obj.jclass.field_layout[name]
        if handlers[pc] is generic:     # quicken: install the inline cache
            handlers[pc] = make_spec(obj.jclass, slot)
            tc.quickened += 1
        cost = cost0 + cachemodel.access(thread.core, obj.addr + slot)
        if san is not None:
            san.field_read(thread, obj, name, frame)
        stack.append(obj.values[slot])
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return generic


def _f_putfield(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    handlers = ctx.handlers
    tc = ctx.tc
    name = instr.arg
    cost0 = _COST[Op.PUTFIELD]
    next_pc = pc + 1

    def make_spec(ic_class, ic_slot):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            value = stack.pop()
            obj = stack.pop()
            if obj is None:
                raise GuestNullPointerError(f"putfield {name}")
            jclass = obj.jclass
            slot = ic_slot if jclass is ic_class \
                else jclass.field_layout[name]
            cost = cost0 + cachemodel.access(thread.core, obj.addr + slot)
            if san is not None:
                san.field_write(thread, obj, name, frame)
            obj.values[slot] = value
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        value = stack.pop()
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError(f"putfield {name}")
        slot = obj.jclass.field_layout[name]
        if handlers[pc] is generic:
            handlers[pc] = make_spec(obj.jclass, slot)
            tc.quickened += 1
        cost = cost0 + cachemodel.access(thread.core, obj.addr + slot)
        if san is not None:
            san.field_write(thread, obj, name, frame)
        obj.values[slot] = value
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return generic


def _f_getstatic(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    san = ctx.san
    handlers = ctx.handlers
    tc = ctx.tc
    cls_name, fname = instr.arg
    cost = _COST[Op.GETSTATIC]
    next_pc = pc + 1

    def make_spec(static_values):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            if san is not None:
                san.static_read(thread, cls_name, fname, frame)
            stack.append(static_values[fname])
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        jclass = vm.resolve_class(cls_name)
        if handlers[pc] is generic:
            handlers[pc] = make_spec(jclass.static_values)
            tc.quickened += 1
        if san is not None:
            san.static_read(thread, cls_name, fname, frame)
        stack.append(jclass.static_values[fname])
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return generic


def _f_putstatic(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    san = ctx.san
    handlers = ctx.handlers
    tc = ctx.tc
    cls_name, fname = instr.arg
    cost = _COST[Op.PUTSTATIC]
    next_pc = pc + 1

    def make_spec(static_values):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            if san is not None:
                san.static_write(thread, cls_name, fname, frame)
            static_values[fname] = stack.pop()
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        jclass = vm.resolve_class(cls_name)
        if handlers[pc] is generic:
            handlers[pc] = make_spec(jclass.static_values)
            tc.quickened += 1
        if san is not None:
            san.static_write(thread, cls_name, fname, frame)
        jclass.static_values[fname] = stack.pop()
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return generic


# ----------------------------------------------------------------------
# Arrays.
# ----------------------------------------------------------------------

def _f_aload(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    cost0 = _COST[Op.ALOAD]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        index = stack.pop()
        arr = stack.pop()
        if arr is None:
            raise GuestNullPointerError("array load")
        cost = cost0 + cachemodel.access(thread.core, arr.addr + arr.check(index))
        if san is not None:
            san.array_read(thread, arr, index, frame)
        stack.append(arr.data[index])
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_astore(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    cost0 = _COST[Op.ASTORE]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        value = stack.pop()
        index = stack.pop()
        arr = stack.pop()
        if arr is None:
            raise GuestNullPointerError("array store")
        cost = cost0 + cachemodel.access(thread.core, arr.addr + arr.check(index))
        if san is not None:
            san.array_write(thread, arr, index, frame)
        arr.data[index] = value
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_arraylen(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.ARRAYLEN]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        arr = stack.pop()
        if arr is None:
            raise GuestNullPointerError("arraylength")
        stack.append(len(arr.data))
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_newarray(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    heap = ctx.heap
    kind = instr.arg
    cost0 = _COST[Op.NEWARRAY]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        length = stack.pop()
        cost = cost0 + alloc_cost(length)
        arr = heap.new_array(kind, length)
        cost += cachemodel.access(thread.core, arr.addr)
        stack.append(arr)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


# ----------------------------------------------------------------------
# Objects: allocation and type tests (NEW quickens its class resolution).
# ----------------------------------------------------------------------

def _f_new(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    heap = ctx.heap
    vm = ctx.vm
    handlers = ctx.handlers
    tc = ctx.tc
    cls_name = instr.arg
    cost0 = _COST[Op.NEW]
    next_pc = pc + 1

    def make_spec(jclass):
        spec_cost0 = cost0 + alloc_cost(jclass.instance_words)

        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            obj = heap.new_object(jclass)
            cost = spec_cost0 + cachemodel.access(thread.core, obj.addr)
            stack.append(obj)
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        jclass = vm.resolve_class(cls_name)
        if handlers[pc] is generic:
            handlers[pc] = make_spec(jclass)
            tc.quickened += 1
        cost = cost0 + alloc_cost(jclass.instance_words)
        obj = heap.new_object(jclass)
        cost += cachemodel.access(thread.core, obj.addr)
        stack.append(obj)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return generic


def _f_instanceof(ctx, method, pc, instr):
    counters = ctx.counters
    cls_name = instr.arg
    cost = _COST[Op.INSTANCEOF]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        obj = stack.pop()
        stack.append(
            1 if obj is not None and obj.jclass.is_subtype_of(cls_name)
            else 0)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_checkcast(ctx, method, pc, instr):
    counters = ctx.counters
    cls_name = instr.arg
    cost = _COST[Op.CHECKCAST]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        obj = stack[-1]
        if obj is not None and not obj.jclass.is_subtype_of(cls_name):
            raise GuestCastError(
                f"cannot cast {obj.jclass.name} to {cls_name}")
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


# ----------------------------------------------------------------------
# Calls and returns (quickening: resolved-callee caches).
# ----------------------------------------------------------------------

def _profile_receiver(method, pc, receiver):
    """Receiver-type profile: feeds speculative devirtualization."""
    profile = method.call_profile
    if profile is None:
        profile = method.call_profile = {}
    types = profile.get(pc)
    if types is None:
        profile[pc] = {receiver.jclass.name}
    elif len(types) < 4:
        types.add(receiver.jclass.name)


def _f_invokevirtual(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    handlers = ctx.handlers
    tc = ctx.tc
    op = instr.op
    owner, name, argc = instr.arg
    nargs = argc + 1
    cost = _COST[op]
    next_pc = pc + 1

    def make_spec(ic_class, ic_target):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            counters.method += 1
            args = stack[len(stack) - nargs:]
            del stack[len(stack) - nargs:]
            receiver = args[0]
            if receiver is None:
                raise GuestNullPointerError(f"invoke {name} on null")
            jclass = receiver.jclass
            target = ic_target if jclass is ic_class \
                else jclass.resolve_method(name)
            _profile_receiver(method, pc, receiver)
            frame.pc = next_pc
            vm.call(thread, target, args)
            thread.budget -= cost
            counters.reference_cycles += cost
            return False
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.method += 1
        args = stack[len(stack) - nargs:]
        del stack[len(stack) - nargs:]
        receiver = args[0]
        if receiver is None:
            raise GuestNullPointerError(f"invoke {name} on null")
        target = receiver.jclass.resolve_method(name)
        if handlers[pc] is generic:     # monomorphic inline cache
            handlers[pc] = make_spec(receiver.jclass, target)
            tc.quickened += 1
        _profile_receiver(method, pc, receiver)
        frame.pc = next_pc
        vm.call(thread, target, args)
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return generic


def _f_invokestatic(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    handlers = ctx.handlers
    tc = ctx.tc
    owner, name, argc = instr.arg
    cost = _COST[Op.INVOKESTATIC]
    next_pc = pc + 1

    def make_spec(target):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            args = stack[len(stack) - argc:]
            del stack[len(stack) - argc:]
            frame.pc = next_pc
            vm.call(thread, target, args)
            thread.budget -= cost
            counters.reference_cycles += cost
            return False
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        args = stack[len(stack) - argc:]
        del stack[len(stack) - argc:]
        target = vm.resolve_static(owner, name)
        if handlers[pc] is generic:
            handlers[pc] = make_spec(target)
            tc.quickened += 1
        frame.pc = next_pc
        vm.call(thread, target, args)
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return generic


def _f_invokespecial(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    handlers = ctx.handlers
    tc = ctx.tc
    owner, name, argc = instr.arg
    nargs = argc + 1
    cost = _COST[Op.INVOKESPECIAL]
    next_pc = pc + 1

    def make_spec(target):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            args = stack[len(stack) - nargs:]
            del stack[len(stack) - nargs:]
            frame.pc = next_pc
            vm.call(thread, target, args)
            thread.budget -= cost
            counters.reference_cycles += cost
            return False
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        args = stack[len(stack) - nargs:]
        del stack[len(stack) - nargs:]
        target = vm.resolve_class(owner).resolve_method(name)
        if handlers[pc] is generic:
            handlers[pc] = make_spec(target)
            tc.quickened += 1
        frame.pc = next_pc
        vm.call(thread, target, args)
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return generic


def _f_invokedynamic(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    handlers = ctx.handlers
    tc = ctx.tc
    owner, lambda_name, captured_count = instr.arg
    cost = _COST[Op.INVOKEDYNAMIC]
    next_pc = pc + 1

    def make_spec(target):
        def spec(thread, frame, stack, locals_):
            counters.instructions += 1
            counters.idynamic += 1
            counters.method += 1
            if captured_count:
                captured = stack[len(stack) - captured_count:]
                del stack[len(stack) - captured_count:]
            else:
                captured = []
            frame.pc = next_pc
            stack.append(vm.make_function(target, captured))
            thread.budget -= cost
            counters.reference_cycles += cost
            return False
        return spec

    def generic(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.idynamic += 1
        counters.method += 1
        if captured_count:
            captured = stack[len(stack) - captured_count:]
            del stack[len(stack) - captured_count:]
        else:
            captured = []
        frame.pc = next_pc
        target = vm.resolve_static(owner, lambda_name)
        if handlers[pc] is generic:
            handlers[pc] = make_spec(target)
            tc.quickened += 1
        stack.append(vm.make_function(target, captured))
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return generic


def _f_invokehandle(ctx, method, pc, instr):
    counters = ctx.counters
    vm = ctx.vm
    argc = instr.arg
    cost = _COST[Op.INVOKEHANDLE]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.method += 1
        args = stack[len(stack) - argc:]
        del stack[len(stack) - argc:]
        handle = stack.pop()
        if handle is None:
            raise GuestNullPointerError("invoke on null function")
        target, captured = handle.meta
        frame.pc = next_pc
        vm.call(thread, target, list(captured) + args)
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return h


def _f_retval(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.RETVAL]

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        value = stack.pop()
        thread.frames.pop()
        if thread.frames:
            thread.frames[-1].receive_result(value)
        else:
            thread.result = value
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return h


def _f_return(ctx, method, pc, instr):
    counters = ctx.counters
    cost = _COST[Op.RETURN]

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        # Void methods produce null: the uniform "every call pushes a
        # result" convention keeps the untyped codegen simple.
        thread.frames.pop()
        if thread.frames:
            thread.frames[-1].receive_result(None)
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return h


# ----------------------------------------------------------------------
# Concurrency primitives.
# ----------------------------------------------------------------------

def _f_monitorenter(ctx, method, pc, instr):
    counters = ctx.counters
    sched = ctx.sched
    cost = _COST[Op.MONITORENTER]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.synch += 1
        obj = stack[-1]
        if obj is None:
            raise GuestNullPointerError("monitorenter")
        if sched.monitor_enter(thread, obj):
            stack.pop()
            frame.pc = next_pc
            thread.budget -= cost
            counters.reference_cycles += cost
            return True
        counters.monitor_contended += 1
        # pc not advanced: re-execute on wake-up with ownership granted.
        thread.budget -= cost
        counters.reference_cycles += cost
        return False
    return h


def _f_monitorexit(ctx, method, pc, instr):
    counters = ctx.counters
    sched = ctx.sched
    cost = _COST[Op.MONITOREXIT]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError("monitorexit")
        sched.monitor_exit(thread, obj)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_cas(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    trace_cas = ctx.trace_cas
    name = instr.arg
    cost0 = _COST[Op.CAS]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        update = stack.pop()
        expect = stack.pop()
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError(f"cas {name}")
        counters.atomic += 1
        slot = obj.jclass.field_layout[name]
        cost = cost0 + cachemodel.access(thread.core, obj.addr + slot)
        # References compare by identity (JObject has no __eq__),
        # numbers by value — matching JVM CAS semantics.
        if obj.values[slot] == expect:
            if san is not None:
                san.atomic_field(thread, obj, name, frame, rmw=True)
            obj.values[slot] = update
            stack.append(1)
        else:
            if san is not None:
                san.atomic_field(thread, obj, name, frame, rmw=False)
            counters.cas_failures += 1
            if trace_cas is not None:
                trace_cas.emit("cas", "fail", thread.tid, (name,))
            stack.append(0)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_atomic_get(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    name = instr.arg
    cost0 = _COST[Op.ATOMIC_GET]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError(f"atomicget {name}")
        counters.atomic += 1
        slot = obj.jclass.field_layout[name]
        cost = cost0 + cachemodel.access(thread.core, obj.addr + slot)
        if san is not None:
            san.atomic_field(thread, obj, name, frame, rmw=False)
        stack.append(obj.values[slot])
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_atomic_add(ctx, method, pc, instr):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    name = instr.arg
    cost0 = _COST[Op.ATOMIC_ADD]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        delta = stack.pop()
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError(f"atomicadd {name}")
        counters.atomic += 1
        slot = obj.jclass.field_layout[name]
        cost = cost0 + cachemodel.access(thread.core, obj.addr + slot)
        if san is not None:
            san.atomic_field(thread, obj, name, frame, rmw=True)
        old = obj.values[slot]
        obj.values[slot] = old + delta
        stack.append(old)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_park(ctx, method, pc, instr):
    counters = ctx.counters
    sched = ctx.sched
    cost = _COST[Op.PARK]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.park += 1
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        if sched.park(thread):
            return False
        return True
    return h


def _f_unpark(ctx, method, pc, instr):
    counters = ctx.counters
    sched = ctx.sched
    vm = ctx.vm
    cost = _COST[Op.UNPARK]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.unpark += 1
        target_obj = stack.pop()
        target_thread = vm.guest_thread_of(target_obj)
        sched.unpark(target_thread, source=thread)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _f_wait(ctx, method, pc, instr):
    counters = ctx.counters
    sched = ctx.sched
    cost = _COST[Op.WAIT]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.wait += 1
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError("wait")
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        sched.monitor_wait(thread, obj)
        return False
    return h


def _f_notify(ctx, method, pc, instr):
    counters = ctx.counters
    sched = ctx.sched
    all_waiters = instr.op is Op.NOTIFYALL
    label = "notifyAll" if all_waiters else "notify"
    cost = _COST[instr.op]
    next_pc = pc + 1

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        counters.notify += 1
        obj = stack.pop()
        if obj is None:
            raise GuestNullPointerError(label)
        sched.monitor_notify(thread, obj, all_waiters=all_waiters)
        frame.pc = next_pc
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


# ======================================================================
# Superinstructions: fused handlers for statically detected hot pairs.
# Each fused handler executes both bytecodes in one dispatch but keeps
# the reference engine's accounting: instructions and cycles are bumped
# per sub-op, and the budget is checked between them — on exhaustion the
# intermediate state is materialized on the operand stack and frame.pc
# points at the second opcode, whose standalone handler resumes next
# slice.
# ======================================================================

def _fuse_const_add(ctx, method, pc, i1, i2):
    counters = ctx.counters
    k = i1.arg
    k_is_str = type(k) is str
    c1 = _COST[Op.CONST]
    c2 = _COST[Op.ADD]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(k)
            return True
        counters.instructions += 1
        lhs = stack[-1]
        if k_is_str or type(lhs) is str:
            stack[-1] = guest_str(lhs) + guest_str(k)
        else:
            stack[-1] = lhs + k
        frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


def _fuse_load_add(ctx, method, pc, i1, i2):
    counters = ctx.counters
    slot = i1.arg
    c1 = _COST[Op.LOAD]
    c2 = _COST[Op.ADD]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(locals_[slot])
            return True
        counters.instructions += 1
        rhs = locals_[slot]
        lhs = stack[-1]
        if type(lhs) is str or type(rhs) is str:
            stack[-1] = guest_str(lhs) + guest_str(rhs)
        else:
            stack[-1] = lhs + rhs
        frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


def _fuse_load_load(ctx, method, pc, i1, i2):
    counters = ctx.counters
    slot1 = i1.arg
    slot2 = i2.arg
    c = _COST[Op.LOAD]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        stack.append(locals_[slot1])
        frame.pc = pc1
        thread.budget -= c
        counters.reference_cycles += c
        if thread.budget <= 0:
            return True
        counters.instructions += 1
        stack.append(locals_[slot2])
        frame.pc = pc2
        thread.budget -= c
        counters.reference_cycles += c
        return True
    return h


def _fuse_load_const(ctx, method, pc, i1, i2):
    counters = ctx.counters
    slot = i1.arg
    k = i2.arg
    c1 = _COST[Op.LOAD]
    c2 = _COST[Op.CONST]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        stack.append(locals_[slot])
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            return True
        counters.instructions += 1
        stack.append(k)
        frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


def _fuse_const_store(ctx, method, pc, i1, i2):
    counters = ctx.counters
    k = i1.arg
    dst = i2.arg
    c1 = _COST[Op.CONST]
    c2 = _COST[Op.STORE]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(k)
            return True
        counters.instructions += 1
        locals_[dst] = k
        frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


def _fuse_load_store(ctx, method, pc, i1, i2):
    counters = ctx.counters
    src = i1.arg
    dst = i2.arg
    c1 = _COST[Op.LOAD]
    c2 = _COST[Op.STORE]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(locals_[src])
            return True
        counters.instructions += 1
        locals_[dst] = locals_[src]
        frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


def _fuse_add_store(ctx, method, pc, i1, i2):
    counters = ctx.counters
    dst = i2.arg
    c1 = _COST[Op.ADD]
    c2 = _COST[Op.STORE]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        if type(lhs) is str or type(rhs) is str:
            value = guest_str(lhs) + guest_str(rhs)
        else:
            value = lhs + rhs
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(value)
            return True
        counters.instructions += 1
        locals_[dst] = value
        frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


def _fuse_load_getfield(ctx, method, pc, i1, i2):
    counters = ctx.counters
    cachemodel = ctx.cachemodel
    san = ctx.san
    tc = ctx.tc
    slot1 = i1.arg
    name = i2.arg
    c1 = _COST[Op.LOAD]
    c2 = _COST[Op.GETFIELD]
    pc1 = pc + 1
    pc2 = pc + 2
    ic = [None, 0]      # inline cache: receiver class -> field slot

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(locals_[slot1])
            return True
        counters.instructions += 1
        obj = locals_[slot1]
        if obj is None:
            raise GuestNullPointerError(f"getfield {name}")
        jclass = obj.jclass
        if jclass is ic[0]:
            slot = ic[1]
        else:
            slot = jclass.field_layout[name]
            if ic[0] is None:       # quicken the embedded cache once
                ic[0] = jclass
                ic[1] = slot
                tc.quickened += 1
        cost = c2 + cachemodel.access(thread.core, obj.addr + slot)
        if san is not None:
            san.field_read(thread, obj, name, frame)
        stack.append(obj.values[slot])
        frame.pc = pc2
        thread.budget -= cost
        counters.reference_cycles += cost
        return True
    return h


def _fuse_cmp_branch(ctx, method, pc, i1, i2):
    counters = ctx.counters
    vm = ctx.vm
    cmp_fn = _CMP_FN[i1.arg]
    branch_fn = _CMP_FN[i2.arg[0]]
    target = i2.arg[1]
    is_back = target <= pc + 1
    c1 = _COST[Op.CMP]
    c2 = _COST[i2.op]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        flag = 1 if cmp_fn(lhs, rhs) else 0
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(flag)
            return True
        counters.instructions += 1
        if branch_fn(flag, 0):
            if is_back:
                method.backedge_count += 1
                vm.on_backedge(method)
            frame.pc = target
        else:
            frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


def _fuse_cmp_if(ctx, method, pc, i1, i2):
    """CMP feeding a two-operand IF: the IF compares the flag to a
    second stack value, so only the CMP half can be streamlined."""
    counters = ctx.counters
    vm = ctx.vm
    cmp_fn = _CMP_FN[i1.arg]
    branch_fn = _CMP_FN[i2.arg[0]]
    target = i2.arg[1]
    is_back = target <= pc + 1
    c1 = _COST[Op.CMP]
    c2 = _COST[Op.IF]
    pc1 = pc + 1
    pc2 = pc + 2

    def h(thread, frame, stack, locals_):
        counters.instructions += 1
        rhs = stack.pop()
        lhs = stack.pop()
        flag = 1 if cmp_fn(lhs, rhs) else 0
        frame.pc = pc1
        thread.budget -= c1
        counters.reference_cycles += c1
        if thread.budget <= 0:
            stack.append(flag)
            return True
        counters.instructions += 1
        if_lhs = stack.pop()
        if branch_fn(if_lhs, flag):
            if is_back:
                method.backedge_count += 1
                vm.on_backedge(method)
            frame.pc = target
        else:
            frame.pc = pc2
        thread.budget -= c2
        counters.reference_cycles += c2
        return True
    return h


_FUSERS = {
    (Op.CONST, Op.ADD): _fuse_const_add,
    (Op.LOAD, Op.ADD): _fuse_load_add,
    (Op.LOAD, Op.LOAD): _fuse_load_load,
    (Op.LOAD, Op.CONST): _fuse_load_const,
    (Op.CONST, Op.STORE): _fuse_const_store,
    (Op.LOAD, Op.STORE): _fuse_load_store,
    (Op.ADD, Op.STORE): _fuse_add_store,
    (Op.LOAD, Op.GETFIELD): _fuse_load_getfield,
    (Op.CMP, Op.IFZ): _fuse_cmp_branch,
    (Op.CMP, Op.IF): _fuse_cmp_if,
}


_FACTORY = {
    Op.CONST: _f_const,
    Op.LOAD: _f_load,
    Op.STORE: _f_store,
    Op.POP: _f_pop,
    Op.DUP: _f_dup,
    Op.SWAP: _f_swap,
    Op.ADD: _f_add,
    Op.SUB: _binop_factory(Op.SUB, operator.sub),
    Op.MUL: _binop_factory(Op.MUL, operator.mul),
    Op.DIV: _f_div,
    Op.REM: _f_rem,
    Op.NEG: _unop_factory(Op.NEG, operator.neg),
    Op.SHL: _binop_factory(Op.SHL, operator.lshift),
    Op.SHR: _binop_factory(Op.SHR, operator.rshift),
    Op.AND: _binop_factory(Op.AND, operator.and_),
    Op.OR: _binop_factory(Op.OR, operator.or_),
    Op.XOR: _binop_factory(Op.XOR, operator.xor),
    Op.NOT: _unop_factory(Op.NOT, lambda v: 0 if v else 1),
    Op.I2D: _unop_factory(Op.I2D, float),
    Op.D2I: _unop_factory(Op.D2I, int),
    Op.CMP: _f_cmp,
    Op.GOTO: _f_goto,
    Op.IF: _f_if,
    Op.IFZ: _f_ifz,
    Op.RETURN: _f_return,
    Op.RETVAL: _f_retval,
    Op.NEW: _f_new,
    Op.GETFIELD: _f_getfield,
    Op.PUTFIELD: _f_putfield,
    Op.GETSTATIC: _f_getstatic,
    Op.PUTSTATIC: _f_putstatic,
    Op.INSTANCEOF: _f_instanceof,
    Op.CHECKCAST: _f_checkcast,
    Op.NEWARRAY: _f_newarray,
    Op.ALOAD: _f_aload,
    Op.ASTORE: _f_astore,
    Op.ARRAYLEN: _f_arraylen,
    Op.INVOKESTATIC: _f_invokestatic,
    Op.INVOKESPECIAL: _f_invokespecial,
    Op.INVOKEVIRTUAL: _f_invokevirtual,
    Op.INVOKEINTERFACE: _f_invokevirtual,
    Op.INVOKEDYNAMIC: _f_invokedynamic,
    Op.INVOKEHANDLE: _f_invokehandle,
    Op.MONITORENTER: _f_monitorenter,
    Op.MONITOREXIT: _f_monitorexit,
    Op.CAS: _f_cas,
    Op.ATOMIC_GET: _f_atomic_get,
    Op.ATOMIC_ADD: _f_atomic_add,
    Op.PARK: _f_park,
    Op.UNPARK: _f_unpark,
    Op.WAIT: _f_wait,
    Op.NOTIFY: _f_notify,
    Op.NOTIFYALL: _f_notify,
}
