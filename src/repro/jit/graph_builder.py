"""Bytecode → IR graph construction with SSA and framestates.

The builder abstract-interprets the operand stack over the bytecode CFG,
creating φ-nodes at merge points.  It also:

- turns each ``IFZ`` into a ``branch`` terminator on a ``cmpz`` node,
- emits explicit **guard nodes** for the null and bounds checks implied
  by JVM semantics (giving speculative guard motion something to hoist),
- captures a :class:`~repro.jit.ir.FrameState` (bytecode pc + locals +
  stack, *before* the operation) at every guard, so a failing guard
  deoptimizes by re-executing the guarded operation in the interpreter.

Blocks are reducible by construction (the JL codegen emits structured
control flow only).
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.jvm.bytecode import Instr, Op, block_leaders, branch_targets
from repro.jit.ir import Block, FrameState, Graph, GuardInfo, Node

_ARITH = {
    Op.ADD: "add", Op.SUB: "sub", Op.MUL: "mul", Op.DIV: "div",
    Op.REM: "rem", Op.SHL: "shl", Op.SHR: "shr", Op.AND: "and",
    Op.OR: "or", Op.XOR: "xor",
}

_UNARY = {Op.NEG: "neg", Op.NOT: "not", Op.I2D: "i2d", Op.D2I: "d2i"}

_SYNC_SIMPLE = {
    Op.PARK: "park", Op.UNPARK: "unpark", Op.WAIT: "wait",
    Op.NOTIFY: "notify", Op.NOTIFYALL: "notifyall",
}


def build_graph(method, pool) -> Graph:
    """Build the IR graph of ``method``; ``pool`` resolves call targets."""
    return _Builder(method, pool).build()


class _Builder:
    def __init__(self, method, pool) -> None:
        if method.code is None:
            raise CompileError(f"cannot build graph for {method.qualified}")
        self.method = method
        self.pool = pool
        self.code: list[Instr] = method.code
        self.graph = Graph(method)

    # ------------------------------------------------------------------
    def build(self) -> Graph:
        leaders = block_leaders(self.code)
        block_at = {pc: self.graph.new_block() for pc in leaders}
        for pc, block in block_at.items():
            block.bc_pc = pc
        spans = self._spans(sorted(leaders))
        static_preds = self._static_preds(spans)

        entry = self.graph.new_block()
        entry.bc_pc = 0
        self.graph.entry = entry
        self.graph.params = [Node("param", value=i)
                             for i in range(self.method.nargs)]
        entry.terminator = ("jump", block_at[0])

        # Pass 1: process blocks in bytecode order (equivalent to RPO for
        # the structured CFGs our codegen emits), recording out-states.
        out_states: dict[int, tuple] = {}
        merge_phis: dict[int, tuple] = {}     # block id -> (loc_phis, stk_phis)
        first_state: dict[int, tuple] = {}
        order = sorted(spans)
        processed: set[int] = set()

        for start in order:
            block = block_at[start]
            preds = static_preds[start]
            n_preds = len(preds) + (1 if start == 0 else 0)
            if n_preds == 0 and start != 0:
                continue  # unreachable (e.g. code after while(true))
            if start == 0:
                init_locals = list(self.graph.params)
                init_locals += [None] * (self.method.max_locals - len(init_locals))
                if n_preds > 1:
                    state = self._make_merge(block, (tuple(init_locals), ()),
                                             merge_phis)
                    first_state[block.id] = (tuple(init_locals), ())
                else:
                    state = (tuple(init_locals), ())
            else:
                ready = [p for p in preds if p in processed]
                if not ready:
                    continue  # unreachable via forward flow
                base = out_states[(ready[0], start)]
                if n_preds > 1:
                    state = self._make_merge(block, base, merge_phis)
                    first_state[block.id] = base
                else:
                    state = base
            block.entry_state = FrameState(start, state[0], state[1],
                                           method=self.method)
            self._process_block(block, start, spans[start], state,
                                block_at, out_states)
            processed.add(start)

        # Wire predecessor lists for reachable blocks, in the same order
        # recompute_preds() would produce ([entry] + bytecode order), so
        # later phases can recompute without invalidating φ alignment.
        self.graph.blocks = [entry] + [block_at[s] for s in order
                                       if s in processed]
        for block in self.graph.blocks:
            block.preds = []
        for block in self.graph.blocks:
            for succ in block.successors:
                succ.preds.append(block)

        # Pass 2: fill φ inputs from predecessor out-states.
        for start in order:
            if start not in processed:
                continue
            block = block_at[start]
            if block.id not in merge_phis:
                continue
            loc_phis, stk_phis = merge_phis[block.id]
            for pred in block.preds:
                if pred is entry:
                    init_locals = list(self.graph.params)
                    init_locals += [None] * (self.method.max_locals
                                             - len(init_locals))
                    pred_state = (tuple(init_locals), ())
                else:
                    pred_state = out_states[(pred.bc_pc, start)]
                locals_in, stack_in = pred_state
                if len(stack_in) != len(stk_phis):
                    raise CompileError(
                        f"{self.method.qualified}: inconsistent stack depth "
                        f"at merge bc={start}")
                for slot, phi in enumerate(loc_phis):
                    value = locals_in[slot]
                    phi.inputs.append(value if value is not None
                                      else self._null_const(block))
                for i, phi in enumerate(stk_phis):
                    phi.inputs.append(stack_in[i])

        # Verify φ arity, then clean trivial φ-nodes.
        self.graph.recompute_preds()
        _remove_trivial_phis(self.graph)
        return self.graph

    def _null_const(self, block: Block) -> Node:
        const = Node("const", value=None)
        const.block = block
        return const

    def _make_merge(self, block: Block, base_state: tuple, merge_phis) -> tuple:
        locals_in, stack_in = base_state
        loc_phis = []
        for _ in locals_in:
            phi = Node("phi")
            block.add_phi(phi)
            loc_phis.append(phi)
        stk_phis = []
        for _ in stack_in:
            phi = Node("phi")
            block.add_phi(phi)
            stk_phis.append(phi)
        merge_phis[block.id] = (loc_phis, stk_phis)
        return (tuple(loc_phis), tuple(stk_phis))

    # ------------------------------------------------------------------
    def _spans(self, sorted_leaders: list[int]) -> dict[int, int]:
        spans = {}
        for i, start in enumerate(sorted_leaders):
            end = (sorted_leaders[i + 1] if i + 1 < len(sorted_leaders)
                   else len(self.code))
            spans[start] = end
        return spans

    def _static_preds(self, spans) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {start: [] for start in spans}
        for start, end in spans.items():
            for t in branch_targets(self.code[end - 1], end - 1):
                if t in preds:
                    preds[t].append(start)
        return preds

    # ------------------------------------------------------------------
    def _process_block(self, block: Block, start: int, end: int,
                       state: tuple, block_at, out_states) -> None:
        locals_: list = list(state[0])
        stack: list = list(state[1])
        method = self.method

        def emit(op: str, inputs=None, value=None, extra=None) -> Node:
            return block.append(Node(op, inputs, value, extra))

        def framestate(pc: int) -> FrameState:
            return FrameState(pc, tuple(locals_), tuple(stack), method=method)

        def guard(kind: str, test: str, inputs, pc: int,
                  class_name: str | None = None) -> Node:
            info = GuardInfo(kind=kind, test=test, class_name=class_name,
                             state=framestate(pc))
            return emit("guard", inputs, extra=info)

        def null_guard(obj: Node, pc: int) -> None:
            # `this` and fresh allocations are provably non-null.
            if obj.op in ("new", "newarray", "invokedynamic"):
                return
            if obj.op == "param" and obj.value == 0 and not method.static:
                return
            guard("NullCheckException", "nonnull", [obj], pc)

        pc = start
        while pc < end:
            instr = self.code[pc]
            op = instr.op

            if op is Op.CONST:
                stack.append(emit("const", value=instr.arg))
            elif op is Op.LOAD:
                value = locals_[instr.arg]
                if value is None:
                    raise CompileError(
                        f"{method.qualified}: load of undefined slot "
                        f"{instr.arg} at pc {pc}")
                stack.append(value)
            elif op is Op.STORE:
                locals_[instr.arg] = stack.pop()
            elif op is Op.POP:
                stack.pop()
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op in _ARITH:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(emit(_ARITH[op], [lhs, rhs]))
            elif op in _UNARY:
                stack.append(emit(_UNARY[op], [stack.pop()]))
            elif op is Op.CMP:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(emit("cmp", [lhs, rhs], extra=instr.arg))
            elif op is Op.IFZ:
                cmp_op, target = instr.arg
                value = stack.pop()
                cond = emit("cmpz", [value], extra=cmp_op)
                block.terminator = ("branch", cond, block_at[target],
                                    block_at[pc + 1])
                out_states[(start, target)] = (tuple(locals_), tuple(stack))
                out_states[(start, pc + 1)] = (tuple(locals_), tuple(stack))
                return
            elif op is Op.GOTO:
                block.terminator = ("jump", block_at[instr.arg])
                out_states[(start, instr.arg)] = (tuple(locals_), tuple(stack))
                return
            elif op is Op.RETURN:
                block.terminator = ("return", None)
                return
            elif op is Op.RETVAL:
                block.terminator = ("return", stack.pop())
                return
            elif op is Op.NEW:
                stack.append(emit("new", value=instr.arg))
            elif op is Op.NEWARRAY:
                length = stack.pop()
                stack.append(emit("newarray", [length], value=instr.arg))
            elif op is Op.GETFIELD:
                obj = stack.pop()
                stack.append(obj)          # keep in state for the guard
                null_guard(obj, pc)
                stack.pop()
                stack.append(emit("getfield", [obj], value=instr.arg))
            elif op is Op.PUTFIELD:
                value = stack.pop()
                obj = stack.pop()
                stack.extend([obj, value])
                null_guard(obj, pc)
                stack.pop()
                stack.pop()
                emit("putfield", [obj, value], value=instr.arg)
            elif op is Op.GETSTATIC:
                stack.append(emit("getstatic", value=instr.arg))
            elif op is Op.PUTSTATIC:
                emit("putstatic", [stack.pop()], value=instr.arg)
            elif op is Op.ALOAD:
                idx = stack.pop()
                arr = stack.pop()
                stack.extend([arr, idx])
                null_guard(arr, pc)
                guard("BoundsCheckException", "bounds", [idx, arr], pc)
                stack.pop()
                stack.pop()
                stack.append(emit("aload", [arr, idx]))
            elif op is Op.ASTORE:
                value = stack.pop()
                idx = stack.pop()
                arr = stack.pop()
                stack.extend([arr, idx, value])
                null_guard(arr, pc)
                guard("BoundsCheckException", "bounds", [idx, arr], pc)
                stack.pop()
                stack.pop()
                stack.pop()
                emit("astore", [arr, idx, value])
            elif op is Op.ARRAYLEN:
                arr = stack.pop()
                stack.append(arr)
                null_guard(arr, pc)
                stack.pop()
                stack.append(emit("arraylen", [arr]))
            elif op is Op.INSTANCEOF:
                stack.append(emit("instanceof", [stack.pop()],
                                  value=instr.arg))
            elif op is Op.CHECKCAST:
                obj = stack.pop()
                stack.append(emit("checkcast", [obj], value=instr.arg))
            elif op is Op.INVOKESTATIC or op is Op.INVOKESPECIAL:
                owner, name, argc = instr.arg
                target = self.pool.get(owner).resolve_method(name)
                args = stack[len(stack) - argc - (0 if target.static else 1):]
                state = framestate(pc)
                del stack[len(stack) - len(args):]
                kind = ("invokestatic" if op is Op.INVOKESTATIC
                        else "invokespecial")
                node = emit(kind, args, extra=target)
                node.value = state     # callsite framestate for deopt/inline
                stack.append(node)
            elif op is Op.INVOKEVIRTUAL:
                owner, name, argc = instr.arg
                nargs = argc + 1
                args = stack[len(stack) - nargs:]
                state = framestate(pc)
                null_guard(args[0], pc)
                del stack[len(stack) - nargs:]
                node = emit("invokevirtual", args, extra=(name, pc, method))
                node.value = state
                stack.append(node)
            elif op is Op.INVOKEDYNAMIC:
                owner, lambda_name, captured = instr.arg
                target = self.pool.get(owner).resolve_method(lambda_name)
                caps: list = []
                if captured:
                    caps = stack[len(stack) - captured:]
                    del stack[len(stack) - captured:]
                stack.append(emit("invokedynamic", caps, extra=target))
            elif op is Op.INVOKEHANDLE:
                argc = instr.arg
                args = stack[len(stack) - argc:]
                state_stack_backup = framestate(pc)
                del stack[len(stack) - argc:]
                fn = stack.pop()
                node = emit("invokehandle", [fn] + args,
                            extra=("invoke", pc, method))
                node.value = state_stack_backup
                stack.append(node)
            elif op is Op.MONITORENTER:
                obj = stack.pop()
                stack.append(obj)
                null_guard(obj, pc)
                stack.pop()
                emit("monitorenter", [obj])
            elif op is Op.MONITOREXIT:
                emit("monitorexit", [stack.pop()])
            elif op is Op.CAS:
                update = stack.pop()
                expect = stack.pop()
                obj = stack.pop()
                stack.extend([obj, expect, update])
                null_guard(obj, pc)
                stack.pop()
                stack.pop()
                stack.pop()
                stack.append(emit("cas", [obj, expect, update],
                                  value=instr.arg))
            elif op is Op.ATOMIC_GET:
                obj = stack.pop()
                stack.append(obj)
                null_guard(obj, pc)
                stack.pop()
                stack.append(emit("atomicget", [obj], value=instr.arg))
            elif op is Op.ATOMIC_ADD:
                delta = stack.pop()
                obj = stack.pop()
                stack.extend([obj, delta])
                null_guard(obj, pc)
                stack.pop()
                stack.pop()
                stack.append(emit("atomicadd", [obj, delta], value=instr.arg))
            elif op in _SYNC_SIMPLE:
                kind = _SYNC_SIMPLE[op]
                if op is Op.PARK:
                    emit("park")
                else:
                    emit(kind, [stack.pop()])
            else:
                raise CompileError(f"graph builder: unhandled opcode {op}")
            pc += 1

        # Fell through to the next block.
        block.terminator = ("jump", block_at[end])
        out_states[(start, end)] = (tuple(locals_), tuple(stack))


def _remove_trivial_phis(graph: Graph) -> None:
    """Remove φ-nodes whose inputs are all the same value (or the φ)."""
    changed = True
    while changed:
        changed = False
        for block in graph.blocks:
            for phi in list(block.phis):
                distinct = {i for i in phi.inputs if i is not phi}
                if len(distinct) == 1:
                    replacement = distinct.pop()
                    block.phis.remove(phi)
                    graph.replace_all_uses(phi, replacement)
                    changed = True
