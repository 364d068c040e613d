"""Deoptimization: compiled frame → interpreter frame(s).

When a (speculative) guard fails, execution transfers from compiled code
back to the interpreter:

1. the failing speculation is recorded on the method and its compiled
   code is invalidated (the next compilation will not re-speculate —
   paper Section 5.5's "not doing this transformation again"),
2. the deopt metadata's framestate chain is evaluated against the
   register file, rebuilding one interpreter frame per *virtual* frame
   (inlined callees become real frames, callers resume after their
   invoke bytecode),
3. scalar-replaced objects referenced by the states are rematerialized
   from their :class:`~repro.jit.ir.VirtualObjectState` recipes.
"""

from __future__ import annotations

from repro.errors import VMError
from repro.jit.lowering import UNWRITTEN
from repro.jvm.costmodel import DEOPT_COST
from repro.jvm.interpreter import Frame

__all__ = ["deoptimize"]

def deoptimize(vm, thread, machine_frame, speculation_id, meta_index) -> None:
    counters = vm.counters
    counters.deopts += 1
    vm.charge(thread, DEOPT_COST)

    code = machine_frame.code
    method = code.method
    if speculation_id is not None:
        method.disabled_speculations.add(speculation_id)
    method.compiled = None
    # Recompile soon, without the failed speculation.
    method.invocation_count = 0
    # Tier-2 host closures specialize the invalidated machine code;
    # drop them with it (the interpretive Machine has no drop_code).
    drop_code = getattr(vm.machine, "drop_code", None)
    if drop_code is not None:
        drop_code(method)
    if vm.jit is not None:
        vm.jit.on_deopt(method)
    tr = vm.trace
    if tr is not None and tr.jit_on:
        tr.emit("jit", "deopt", thread.tid, (method.qualified,))

    if meta_index is None:
        raise VMError(
            f"guard without deopt metadata failed in {method.qualified}")
    chain = code.deopt_meta[meta_index]

    regs = machine_frame.regs
    materialized: dict[int, object] = {}

    def resolve(ref):
        tag, payload = ref
        if tag == "c":
            return payload
        if tag == "r":
            value = regs[payload]
            if value is UNWRITTEN:
                raise VMError(
                    f"deopt in {method.qualified}: register {payload} "
                    "not live")
            return value
        if tag == "v":
            return rematerialize(payload)
        raise VMError(f"bad deopt value tag {tag}")

    def rematerialize(vo_index: int):
        obj = materialized.get(vo_index)
        if obj is not None:
            return obj
        class_name, field_values = code.virtual_objects[vo_index]
        obj = vm.heap.new_object(vm.resolve_class(class_name))
        materialized[vo_index] = obj
        for field, ref in field_values:
            obj.put(field, resolve(ref))
        return obj

    # chain[0] is the innermost state; callers follow.
    frames: list[Frame] = []
    for depth, (state_method, bc_pc, local_refs, stack_refs, drop) \
            in enumerate(chain):
        frame = Frame.__new__(Frame)
        frame.method = state_method
        frame.code = state_method.code
        locals_ = [resolve(ref) for ref in local_refs]
        locals_ += [None] * (state_method.max_locals - len(locals_))
        frame.locals = locals_
        stack = [resolve(ref) for ref in stack_refs]
        if depth == 0:
            # Innermost frame: re-execute the guarded bytecode.
            frame.pc = bc_pc
            frame.stack = stack
        else:
            # A caller frame resumes after its invoke; the callee's
            # arguments are dropped and the return value arrives through
            # the normal return path.
            inner_drop = chain[depth - 1][4]
            if inner_drop:
                del stack[len(stack) - inner_drop:]
            frame.stack = stack
            frame.pc = bc_pc + 1
        frames.append(frame)

    # Replace the machine frame with the virtual frames, outermost first.
    if thread.frames[-1] is not machine_frame:
        raise VMError("deopt of a frame that is not on top")
    thread.frames.pop()
    for frame in reversed(frames):
        thread.frames.append(frame)
