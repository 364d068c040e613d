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


class Tier1Deopt(Exception):
    """Host-level control transfer: a tier-1 superblock bails out.

    Raised by :func:`tier1_deopt` from inside an emitted superblock
    (see :mod:`repro.jit.emit`) after the block has flushed its batched
    counters and reconstructed ``frame.stack``/``frame.pc`` at the
    exact bytecode index.  The tier-1 driver catches it and resumes the
    frame on the threaded tier-0 engine.  Unlike :func:`deoptimize`
    (the *guest* JIT's deopt), this is a simulator-internal transition:
    it must not touch :class:`~repro.jvm.counters.Counters`, charge
    simulated cycles, or emit trace events — the reference interpreter
    has no notion of host tiers, and byte-identity is the contract.
    """

    def __init__(self, method, pc: int, reason: str) -> None:
        super().__init__(f"tier1 deopt {method.qualified}@{pc}: {reason}")
        self.method = method
        self.pc = pc
        self.reason = reason


def tier1_deopt(engine, method, frame, pc: int, reason: str = "forced"):
    """Deopt a tier-1 compiled method back to the threaded engine.

    The emitted superblock has already flushed batched accounting and
    materialized the operand stack, so ``frame`` is byte-identical to
    what the reference interpreter would hold immediately before
    executing bytecode ``pc``.  This helper records the deopt on the
    engine's host-side stats, invalidates the method's tier-1 code
    (the next promotion recompiles without the failed guard), and
    raises :class:`Tier1Deopt` to unwind into the threaded dispatch
    loop.  Never returns.
    """
    deopts = engine.stats.deopts
    deopts[reason] = deopts.get(reason, 0) + 1
    engine.drop_code(method)
    raise Tier1Deopt(method, pc, reason)


class Tier2Deopt(Exception):
    """Host-level control transfer: a tier-2 superblock bails out.

    The tier-2 analogue of :class:`Tier1Deopt`: raised by
    :func:`tier2_deopt` from inside a closure emitted by
    :mod:`repro.jit.emit2` after the block has flushed its batched
    counters and parked ``frame.pc`` at the exact machine-code index.
    The tier-2 driver catches it and resumes the *same*
    :class:`~repro.jit.machine.MachineFrame` on the interpretive
    :class:`~repro.jit.machine.Machine`, which re-executes the trapped
    instruction identically — the transition is invisible to the guest.
    Real guard failures do NOT use this path: they go through
    :func:`deoptimize` below, exactly as the interpretive machine does.
    """

    def __init__(self, method, pc: int, reason: str) -> None:
        super().__init__(f"tier2 deopt {method.qualified}@{pc}: {reason}")
        self.method = method
        self.pc = pc
        self.reason = reason


def tier2_deopt(engine, code, frame, pc: int, reason: str = "forced"):
    """Deopt tier-2 host code back to the interpretive machine.

    The emitted block has already flushed batched accounting and parked
    ``frame.pc`` on the trapped machine instruction, so ``frame`` is
    byte-identical to the interpretive machine's state immediately
    before executing that instruction.  Records the deopt on the
    engine's host-side stats, invalidates the method's tier-2 closures
    (the next promotion recompiles without the trap), and raises
    :class:`Tier2Deopt` to unwind into the tier-2 dispatch loop.
    Never returns.
    """
    deopts = engine.stats.deopts
    deopts[reason] = deopts.get(reason, 0) + 1
    engine.drop_code(code.method)
    raise Tier2Deopt(code.method, pc, reason)


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
