"""The bytecode interpreter (tier 0).

Executes guest bytecode one instruction at a time, charging the
interpreter cycle cost (:data:`repro.jvm.costmodel.INTERP_COST`) per
operation plus cache penalties.  All Table 2 counters are bumped here.

The interpreter cooperates with the scheduler through
``thread.budget``: the executor decrements it per instruction and
returns to the scheduler when it is exhausted, when the thread blocks,
or when the top of the frame stack becomes a compiled-code frame (which
:mod:`repro.jit.machine` executes instead).
"""

from __future__ import annotations

import operator

from repro.errors import (
    GuestArithmeticError,
    GuestCastError,
    GuestNullPointerError,
    VMError,
)
from repro.jvm.bytecode import INVOKES, Op
from repro.jvm.classfile import JMethod
from repro.jvm.costmodel import INTERP_COST, alloc_cost
from repro.jvm.heap import null_check


class Frame:
    """An interpreter activation record."""

    __slots__ = ("method", "code", "locals", "stack", "pc")

    def __init__(self, method: JMethod, args: list) -> None:
        self.method = method
        self.code = method.code
        self.locals = args + [None] * (method.max_locals - len(args))
        self.stack: list = []
        self.pc = 0

    def receive_result(self, value) -> None:
        self.stack.append(value)

    def __repr__(self) -> str:
        return f"<Frame {self.method.qualified} pc={self.pc}>"


def _truediv_int(a: int, b: int) -> int:
    """Java-style truncating integer division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _rem_int(a: int, b: int) -> int:
    """Java-style remainder: sign follows the dividend."""
    return a - _truediv_int(a, b) * b


def guest_str(value) -> str:
    """Java-style string conversion for the ``+`` concatenation operator."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return value
    return str(value)


_CMP = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class Interpreter:
    """Executes interpreted frames of one VM."""

    def __init__(self, vm) -> None:
        self.vm = vm

    # ------------------------------------------------------------------
    def run_frame(self, thread, frame: Frame) -> None:
        """Run ``frame`` until budget exhaustion, block, call or return.

        The caller (the VM executor loop) re-dispatches on the new top
        frame, so calls simply push a frame and return here.
        """
        vm = self.vm
        counters = vm.counters
        cache = vm.cache
        sched = vm.scheduler
        code = frame.code
        stack = frame.stack
        locals_ = frame.locals
        costs = INTERP_COST
        core = thread.core
        san = vm.sanitizer
        tr = vm.trace
        trace_cas = tr if (tr is not None and tr.cas_on) else None

        while thread.budget > 0:
            instr = code[frame.pc]
            op = instr.op
            cost = costs[op]
            counters.instructions += 1

            if op is Op.LOAD:
                stack.append(locals_[instr.arg])
            elif op is Op.ADD:
                rhs = stack.pop()
                lhs = stack.pop()
                if type(lhs) is str or type(rhs) is str:
                    stack.append(guest_str(lhs) + guest_str(rhs))
                else:
                    stack.append(lhs + rhs)
            elif op is Op.CONST:
                stack.append(instr.arg)
            elif op is Op.STORE:
                locals_[instr.arg] = stack.pop()
            elif op is Op.IFZ:
                cmp_op, target = instr.arg
                value = stack.pop()
                if value is None:
                    value = 0
                if _CMP[cmp_op](value, 0):
                    if target <= frame.pc:
                        frame.method.backedge_count += 1
                        vm.on_backedge(frame.method)
                    frame.pc = target
                    thread.budget -= cost
                    counters.reference_cycles += cost
                    continue
            elif op is Op.GOTO:
                target = instr.arg
                if target <= frame.pc:
                    frame.method.backedge_count += 1
                    vm.on_backedge(frame.method)
                frame.pc = target
                thread.budget -= cost
                counters.reference_cycles += cost
                continue
            elif op is Op.SUB:
                rhs = stack.pop()
                stack[-1] = stack[-1] - rhs
            elif op is Op.MUL:
                rhs = stack.pop()
                stack[-1] = stack[-1] * rhs
            elif op is Op.DIV:
                rhs = stack.pop()
                lhs = stack.pop()
                if isinstance(lhs, int) and isinstance(rhs, int):
                    if rhs == 0:
                        raise GuestArithmeticError("/ by zero")
                    stack.append(_truediv_int(lhs, rhs))
                else:
                    if rhs == 0:
                        raise GuestArithmeticError("/ by zero")
                    stack.append(lhs / rhs)
            elif op is Op.REM:
                rhs = stack.pop()
                lhs = stack.pop()
                if rhs == 0:
                    raise GuestArithmeticError("% by zero")
                if isinstance(lhs, int) and isinstance(rhs, int):
                    stack.append(_rem_int(lhs, rhs))
                else:
                    stack.append(lhs - rhs * int(lhs / rhs))
            elif op is Op.CMP:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(1 if _CMP[instr.arg](lhs, rhs) else 0)
            elif op is Op.GETFIELD:
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError(f"getfield {instr.arg}")
                cost += cache.access(core, obj.addr + obj.jclass.field_layout[instr.arg])
                if san is not None:
                    san.field_read(thread, obj, instr.arg, frame)
                stack.append(obj.values[obj.jclass.field_layout[instr.arg]])
            elif op is Op.PUTFIELD:
                value = stack.pop()
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError(f"putfield {instr.arg}")
                cost += cache.access(core, obj.addr + obj.jclass.field_layout[instr.arg])
                if san is not None:
                    san.field_write(thread, obj, instr.arg, frame)
                obj.values[obj.jclass.field_layout[instr.arg]] = value
            elif op is Op.ALOAD:
                index = stack.pop()
                arr = stack.pop()
                if arr is None:
                    raise GuestNullPointerError("array load")
                cost += cache.access(core, arr.addr + arr.check(index))
                if san is not None:
                    san.array_read(thread, arr, index, frame)
                stack.append(arr.data[index])
            elif op is Op.ASTORE:
                value = stack.pop()
                index = stack.pop()
                arr = stack.pop()
                if arr is None:
                    raise GuestNullPointerError("array store")
                cost += cache.access(core, arr.addr + arr.check(index))
                if san is not None:
                    san.array_write(thread, arr, index, frame)
                arr.data[index] = value
            elif op is Op.ARRAYLEN:
                arr = stack.pop()
                if arr is None:
                    raise GuestNullPointerError("arraylength")
                stack.append(len(arr.data))
            elif op is Op.NEW:
                jclass = vm.resolve_class(instr.arg)
                cost += alloc_cost(jclass.instance_words)
                obj = vm.heap.new_object(jclass)
                cost += cache.access(core, obj.addr)
                stack.append(obj)
            elif op is Op.NEWARRAY:
                length = stack.pop()
                cost += alloc_cost(length)
                arr = vm.heap.new_array(instr.arg, length)
                cost += cache.access(core, arr.addr)
                stack.append(arr)
            elif op in INVOKES:
                self._do_invoke(thread, frame, instr, op)
                thread.budget -= cost
                counters.reference_cycles += cost
                return  # frame stack may have changed; re-dispatch
            elif op is Op.RETVAL:
                value = stack.pop()
                thread.frames.pop()
                if thread.frames:
                    thread.frames[-1].receive_result(value)
                else:
                    thread.result = value
                thread.budget -= cost
                counters.reference_cycles += cost
                return
            elif op is Op.RETURN:
                # Void methods produce null: the uniform "every call pushes
                # a result" convention keeps the untyped codegen simple.
                thread.frames.pop()
                if thread.frames:
                    thread.frames[-1].receive_result(None)
                thread.budget -= cost
                counters.reference_cycles += cost
                return
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.POP:
                stack.pop()
            elif op is Op.NEG:
                stack[-1] = -stack[-1]
            elif op is Op.NOT:
                stack[-1] = 0 if stack[-1] else 1
            elif op is Op.SHL:
                rhs = stack.pop()
                stack[-1] = stack[-1] << rhs
            elif op is Op.SHR:
                rhs = stack.pop()
                stack[-1] = stack[-1] >> rhs
            elif op is Op.AND:
                rhs = stack.pop()
                stack[-1] = stack[-1] & rhs
            elif op is Op.OR:
                rhs = stack.pop()
                stack[-1] = stack[-1] | rhs
            elif op is Op.XOR:
                rhs = stack.pop()
                stack[-1] = stack[-1] ^ rhs
            elif op is Op.I2D:
                stack[-1] = float(stack[-1])
            elif op is Op.D2I:
                stack[-1] = int(stack[-1])
            elif op is Op.INSTANCEOF:
                obj = stack.pop()
                stack.append(
                    1 if obj is not None and obj.jclass.is_subtype_of(instr.arg) else 0
                )
            elif op is Op.CHECKCAST:
                obj = stack[-1]
                if obj is not None and not obj.jclass.is_subtype_of(instr.arg):
                    raise GuestCastError(
                        f"cannot cast {obj.jclass.name} to {instr.arg}"
                    )
            elif op is Op.GETSTATIC:
                cls_name, field = instr.arg
                jclass = vm.resolve_class(cls_name)
                if san is not None:
                    san.static_read(thread, cls_name, field, frame)
                stack.append(jclass.static_values[field])
            elif op is Op.PUTSTATIC:
                cls_name, field = instr.arg
                jclass = vm.resolve_class(cls_name)
                if san is not None:
                    san.static_write(thread, cls_name, field, frame)
                jclass.static_values[field] = stack.pop()
            elif op is Op.MONITORENTER:
                counters.synch += 1
                obj = stack[-1]
                if obj is None:
                    raise GuestNullPointerError("monitorenter")
                if sched.monitor_enter(thread, obj):
                    stack.pop()
                else:
                    counters.monitor_contended += 1
                    # pc not advanced: re-execute on wake-up with ownership
                    # granted (recursion bumps 0 -> 1).
                    thread.budget -= cost
                    counters.reference_cycles += cost
                    return
            elif op is Op.MONITOREXIT:
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError("monitorexit")
                sched.monitor_exit(thread, obj)
            elif op is Op.CAS:
                update = stack.pop()
                expect = stack.pop()
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError(f"cas {instr.arg}")
                counters.atomic += 1
                slot = obj.jclass.field_layout[instr.arg]
                cost += cache.access(core, obj.addr + slot)
                # References compare by identity (JObject has no __eq__),
                # numbers by value — matching JVM CAS semantics.
                if obj.values[slot] == expect:
                    if san is not None:
                        san.atomic_field(thread, obj, instr.arg, frame,
                                         rmw=True)
                    obj.values[slot] = update
                    stack.append(1)
                else:
                    if san is not None:
                        san.atomic_field(thread, obj, instr.arg, frame,
                                         rmw=False)
                    counters.cas_failures += 1
                    if trace_cas is not None:
                        trace_cas.emit("cas", "fail", thread.tid,
                                       (instr.arg,))
                    stack.append(0)
            elif op is Op.ATOMIC_GET:
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError(f"atomicget {instr.arg}")
                counters.atomic += 1
                slot = obj.jclass.field_layout[instr.arg]
                cost += cache.access(core, obj.addr + slot)
                if san is not None:
                    san.atomic_field(thread, obj, instr.arg, frame,
                                     rmw=False)
                stack.append(obj.values[slot])
            elif op is Op.ATOMIC_ADD:
                delta = stack.pop()
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError(f"atomicadd {instr.arg}")
                counters.atomic += 1
                slot = obj.jclass.field_layout[instr.arg]
                cost += cache.access(core, obj.addr + slot)
                if san is not None:
                    san.atomic_field(thread, obj, instr.arg, frame,
                                     rmw=True)
                old = obj.values[slot]
                obj.values[slot] = old + delta
                stack.append(old)
            elif op is Op.PARK:
                counters.park += 1
                frame.pc += 1
                thread.budget -= cost
                counters.reference_cycles += cost
                if sched.park(thread):
                    return
                continue
            elif op is Op.UNPARK:
                counters.unpark += 1
                target_obj = stack.pop()
                target_thread = vm.guest_thread_of(target_obj)
                sched.unpark(target_thread, source=thread)
            elif op is Op.WAIT:
                counters.wait += 1
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError("wait")
                frame.pc += 1
                thread.budget -= cost
                counters.reference_cycles += cost
                sched.monitor_wait(thread, obj)
                return
            elif op is Op.NOTIFY:
                counters.notify += 1
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError("notify")
                sched.monitor_notify(thread, obj, all_waiters=False)
            elif op is Op.NOTIFYALL:
                counters.notify += 1
                obj = stack.pop()
                if obj is None:
                    raise GuestNullPointerError("notifyAll")
                sched.monitor_notify(thread, obj, all_waiters=True)
            else:
                raise VMError(f"unhandled opcode {op}")

            frame.pc += 1
            thread.budget -= cost
            counters.reference_cycles += cost

    # ------------------------------------------------------------------
    def _do_invoke(self, thread, frame: Frame, instr, op) -> None:
        """Handle the invoke opcodes (:data:`INVOKES`).

        Pops arguments, advances the pc past the call site, then either
        runs a native, pushes an interpreter frame, or pushes a
        compiled-code frame (the VM decides in :meth:`VM.call`).
        """
        vm = self.vm
        counters = vm.counters
        stack = frame.stack

        if op is Op.INVOKEDYNAMIC:
            owner, lambda_name, captured_count = instr.arg
            counters.idynamic += 1
            counters.method += 1
            captured = stack[len(stack) - captured_count:] if captured_count else []
            del stack[len(stack) - captured_count:]
            frame.pc += 1
            target = vm.resolve_static(owner, lambda_name)
            stack.append(vm.make_function(target, captured))
            return

        if op is Op.INVOKEHANDLE:
            argc = instr.arg
            counters.method += 1
            args = stack[len(stack) - argc:]
            del stack[len(stack) - argc:]
            handle = stack.pop()
            if handle is None:
                raise GuestNullPointerError("invoke on null function")
            target, captured = handle.meta
            frame.pc += 1
            vm.call(thread, target, list(captured) + args)
            return

        owner, name, argc = instr.arg
        nargs = argc if op is Op.INVOKESTATIC else argc + 1
        args = stack[len(stack) - nargs:]
        del stack[len(stack) - nargs:]

        if op is Op.INVOKESTATIC:
            method = vm.resolve_static(owner, name)
        elif op is Op.INVOKESPECIAL:
            method = vm.resolve_class(owner).resolve_method(name)
        else:
            counters.method += 1
            receiver = args[0]
            if receiver is None:
                raise GuestNullPointerError(f"invoke {name} on null")
            method = receiver.jclass.resolve_method(name)
            # Receiver-type profile: feeds speculative devirtualization.
            profile = frame.method.call_profile
            if profile is None:
                profile = frame.method.call_profile = {}
            types = profile.get(frame.pc)
            if types is None:
                profile[frame.pc] = {receiver.jclass.name}
            elif len(types) < 4:
                types.add(receiver.jclass.name)

        frame.pc += 1
        vm.call(thread, method, args)

