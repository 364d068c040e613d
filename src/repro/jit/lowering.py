"""IR lowering: graph → linear register-based compiled code.

Registers are numbered densely per method: parameters first, then every
other value (deopt-state references included) in order of first use, so
a method's code does not depend on what was compiled before it.
Constants are placed in a register-file template each frame copies;
φ-nodes become parallel-copy "phimove" instructions on the incoming
edges (critical edges are split first).  Guards carry an index into the
code's deoptimization-metadata table; each entry is a processed
framestate chain ready for :mod:`repro.jit.deopt` to evaluate against
the register file.

Cost model: each machine instruction carries its cycle cost, taken from
:mod:`repro.jvm.costmodel` and scaled by the block's ``vector_factor``
(loop vectorization) or the loop header's ``unroll_factor`` (classic
unrolling) — this is where optimizations turn into measured cycles.
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.jvm.bytecode import Op
from repro.jvm.costmodel import (
    BASE_COST,
    DIRECT_CALL_COST,
    GUARD_COST,
    alloc_cost,
)
from repro.jit.ir import (
    FrameState,
    Graph,
    Node,
    VirtualObjectState,
)

_SIMPLE_COST = {
    "add": BASE_COST[Op.ADD], "sub": BASE_COST[Op.SUB],
    "mul": BASE_COST[Op.MUL], "div": BASE_COST[Op.DIV],
    "rem": BASE_COST[Op.REM], "neg": BASE_COST[Op.NEG],
    "not": BASE_COST[Op.NOT], "shl": BASE_COST[Op.SHL],
    "shr": BASE_COST[Op.SHR], "and": BASE_COST[Op.AND],
    "or": BASE_COST[Op.OR], "xor": BASE_COST[Op.XOR],
    "i2d": BASE_COST[Op.I2D], "d2i": BASE_COST[Op.D2I],
    "cmp": BASE_COST[Op.CMP], "cmpz": BASE_COST[Op.CMP],
    "getfield": BASE_COST[Op.GETFIELD], "putfield": BASE_COST[Op.PUTFIELD],
    "getstatic": BASE_COST[Op.GETSTATIC],
    "putstatic": BASE_COST[Op.PUTSTATIC],
    "aload": 2, "astore": 2,       # bounds checks are explicit guards now
    "arraylen": BASE_COST[Op.ARRAYLEN],
    "instanceof": BASE_COST[Op.INSTANCEOF],
    "checkcast": BASE_COST[Op.CHECKCAST],
    "monitorenter": BASE_COST[Op.MONITORENTER],
    "monitorexit": BASE_COST[Op.MONITOREXIT],
    "monitorexit_if_held": 1,
    "cas": BASE_COST[Op.CAS],
    "atomicget": BASE_COST[Op.ATOMIC_GET],
    "atomicadd": BASE_COST[Op.ATOMIC_ADD],
    "park": BASE_COST[Op.PARK], "unpark": BASE_COST[Op.UNPARK],
    "wait": BASE_COST[Op.WAIT], "notify": BASE_COST[Op.NOTIFY],
    "notifyall": BASE_COST[Op.NOTIFYALL],
    "invokedynamic": BASE_COST[Op.INVOKEDYNAMIC],
    "invokehandle": BASE_COST[Op.INVOKEHANDLE],
    "invokevirtual": BASE_COST[Op.INVOKEVIRTUAL],
    "invokestatic": BASE_COST[Op.INVOKESTATIC],
    "invokespecial": BASE_COST[Op.INVOKESPECIAL],
    "invokedirect": DIRECT_CALL_COST,
}


#: Register-file slot no instruction has written yet (never a guest
#: value, unlike ``None``): deopt reports a recipe that reads one.
UNWRITTEN = object()


class CompiledCode:
    """Executable result of a compilation."""

    __slots__ = ("method", "instrs", "consts", "regfile", "deopt_meta",
                 "virtual_objects", "nargs")

    def __init__(self, method, instrs, consts, nregs, deopt_meta,
                 virtual_objects) -> None:
        self.method = method
        self.instrs = instrs
        self.consts = consts            # list of (reg, value)
        # A new frame's registers: parameters first, constants placed.
        self.regfile = [UNWRITTEN] * nregs
        for reg, value in consts:
            self.regfile[reg] = value
        self.deopt_meta = deopt_meta    # list of processed state chains
        self.virtual_objects = virtual_objects
        self.nargs = method.nargs

    @property
    def size_bytes(self) -> int:
        """Simulated machine-code size (Figure 7)."""
        return len(self.instrs) * 16

    def __repr__(self) -> str:
        return f"<CompiledCode {self.method.qualified} {len(self.instrs)} ops>"


def lower(graph: Graph, config, pool) -> CompiledCode:
    return _Lowerer(graph, config, pool).lower()


class _Lowerer:
    def __init__(self, graph: Graph, config, pool) -> None:
        self.graph = graph
        self.config = config
        self.pool = pool
        self.instrs: list = []
        self.regs: dict[int, int] = {}          # node id -> register
        self.consts: dict[int, object] = {}     # register -> value
        self.deopt_meta: list = []
        self.virtual_objects: list = []
        self._vo_index: dict[int, int] = {}
        for param in graph.params:
            self.reg(param)

    # ------------------------------------------------------------------
    def reg(self, node: Node) -> int:
        reg = self.regs.get(node.id)
        if reg is None:
            reg = self.regs[node.id] = len(self.regs)
            if node.op == "const":
                self.consts[reg] = node.value
        return reg

    def lower(self) -> CompiledCode:
        graph = self.graph
        self._split_critical_edges()
        order = graph.reachable_blocks()
        block_index: dict[int, int] = {}

        # First pass: emit with symbolic block targets; fix up after.
        for block in order:
            block_index[block.id] = len(self.instrs)
            scale = self._cost_scale(block)
            for node in block.nodes:
                self._emit_node(node, scale)
            self._emit_terminator(block, scale)

        # Patch block targets.
        for i, instr in enumerate(self.instrs):
            kind = instr[0]
            if kind == "jump":
                self.instrs[i] = ("jump", instr[1], block_index[instr[2]])
            elif kind == "branch":
                self.instrs[i] = ("branch", instr[1], instr[2],
                                  block_index[instr[3]],
                                  block_index[instr[4]])

        return CompiledCode(graph.method, self.instrs,
                            list(self.consts.items()), len(self.regs),
                            self.deopt_meta, self.virtual_objects)

    # ------------------------------------------------------------------
    def _cost_scale(self, block) -> int:
        factor = block.vector_factor
        factor = max(factor, getattr(block, "unroll_factor", 1))
        return factor

    def _scaled(self, cost: int, scale: int) -> int:
        return max(1, cost // scale) if scale > 1 else cost

    def _split_critical_edges(self) -> None:
        graph = self.graph
        for block in list(graph.blocks):
            t = block.terminator
            if t is None or t[0] != "branch":
                continue
            for succ in (t[2], t[3]):
                if succ.phis:
                    edge = graph.new_block()
                    edge.bc_pc = succ.bc_pc
                    edge.terminator = ("jump", succ)
                    block.replace_successor(succ, edge)
                    for i, pred in enumerate(succ.preds):
                        if pred is block:
                            succ.preds[i] = edge
                            break
                    edge.preds = [block]

    # ------------------------------------------------------------------
    def _emit(self, *instr) -> None:
        self.instrs.append(instr)

    def _emit_node(self, node: Node, scale: int) -> None:
        op = node.op
        r = self.reg
        if op == "const":
            self.reg(node)
            return
        if op in ("add", "sub", "mul", "div", "rem", "shl", "shr",
                  "and", "or", "xor"):
            self._emit(op, self._scaled(_SIMPLE_COST[op], scale),
                       r(node), r(node.inputs[0]), r(node.inputs[1]))
        elif op in ("neg", "not", "i2d", "d2i"):
            self._emit(op, self._scaled(_SIMPLE_COST[op], scale),
                       r(node), r(node.inputs[0]))
        elif op == "cmp":
            self._emit("cmp", self._scaled(1, scale), r(node), node.extra,
                       r(node.inputs[0]), r(node.inputs[1]))
        elif op == "cmpz":
            self._emit("cmpz", self._scaled(1, scale), r(node), node.extra,
                       r(node.inputs[0]))
        elif op == "new":
            jclass = self.pool.get(node.value)
            cost = BASE_COST[Op.NEW] + alloc_cost(jclass.instance_words)
            self._emit("new", cost, r(node), jclass)
        elif op == "newarray":
            self._emit("newarray", BASE_COST[Op.NEWARRAY], r(node),
                       node.value, r(node.inputs[0]))
        elif op == "getfield":
            self._emit("getfield", self._scaled(_SIMPLE_COST[op], scale),
                       r(node), r(node.inputs[0]), node.value)
        elif op == "putfield":
            self._emit("putfield", self._scaled(_SIMPLE_COST[op], scale),
                       r(node.inputs[0]), node.value, r(node.inputs[1]))
        elif op == "getstatic":
            cls_name, field = node.value
            self._emit("getstatic", _SIMPLE_COST[op], r(node),
                       self.pool.get(cls_name), field)
        elif op == "putstatic":
            cls_name, field = node.value
            self._emit("putstatic", _SIMPLE_COST[op],
                       self.pool.get(cls_name), field, r(node.inputs[0]))
        elif op == "aload":
            self._emit("aload", self._scaled(2, scale), r(node),
                       r(node.inputs[0]), r(node.inputs[1]))
        elif op == "astore":
            self._emit("astore", self._scaled(2, scale),
                       r(node.inputs[0]), r(node.inputs[1]),
                       r(node.inputs[2]))
        elif op == "arraylen":
            self._emit("arraylen", 1, r(node), r(node.inputs[0]))
        elif op == "instanceof":
            self._emit("instanceof", _SIMPLE_COST[op], r(node),
                       r(node.inputs[0]), node.value)
        elif op == "checkcast":
            self._emit("checkcast", _SIMPLE_COST[op], r(node),
                       r(node.inputs[0]), node.value)
        elif op == "guard":
            info = node.extra
            label = ("Speculative " + info.kind if info.speculative
                     else info.kind)
            meta = self._process_state(info.state)
            operands = tuple(r(i) for i in node.inputs)
            self._emit("guard", GUARD_COST, label, info.test, operands,
                       info.class_name, info.speculation_id, meta)
        elif op == "invokestatic" or op == "invokespecial":
            self._emit("callstatic", _SIMPLE_COST[op], r(node), node.extra,
                       tuple(r(i) for i in node.inputs))
        elif op == "invokedirect":
            self._emit("callstatic", DIRECT_CALL_COST, r(node), node.extra,
                       tuple(r(i) for i in node.inputs))
        elif op == "invokevirtual":
            name = node.extra[0]
            self._emit("callvirtual", _SIMPLE_COST[op], r(node), name,
                       tuple(r(i) for i in node.inputs))
        elif op == "invokedynamic":
            self._emit("indy", _SIMPLE_COST[op], r(node), node.extra,
                       tuple(r(i) for i in node.inputs))
        elif op == "invokehandle":
            self._emit("callhandle", _SIMPLE_COST[op], r(node),
                       r(node.inputs[0]),
                       tuple(r(i) for i in node.inputs[1:]))
        elif op in ("monitorenter", "monitorexit", "monitorexit_if_held"):
            coarsen = node.extra if isinstance(node.extra, tuple) \
                and node.extra and node.extra[0] == "coarsen" else None
            self._emit(op, _SIMPLE_COST[op], r(node.inputs[0]), coarsen)
        elif op == "cas":
            self._emit("cas", _SIMPLE_COST[op], r(node), r(node.inputs[0]),
                       node.value, r(node.inputs[1]), r(node.inputs[2]))
        elif op == "atomicget":
            self._emit("atomicget", _SIMPLE_COST[op], r(node),
                       r(node.inputs[0]), node.value)
        elif op == "atomicadd":
            self._emit("atomicadd", _SIMPLE_COST[op], r(node),
                       r(node.inputs[0]), node.value, r(node.inputs[1]))
        elif op == "park":
            self._emit("park", _SIMPLE_COST[op])
        elif op in ("unpark", "wait", "notify", "notifyall"):
            self._emit(op, _SIMPLE_COST[op], r(node.inputs[0]))
        elif op == "phi":
            raise CompileError("phi found in node list (not in block.phis)")
        else:
            raise CompileError(f"lowering: unhandled IR op {op}")

    def _emit_terminator(self, block, scale: int) -> None:
        t = block.terminator
        if t is None:
            raise CompileError(
                f"{self.graph.method.qualified}: block {block} without "
                "terminator")
        if t[0] == "jump":
            self._emit_phi_moves(block, t[1])
            self._emit("jump", self._scaled(1, scale), t[1].id)
        elif t[0] == "branch":
            # Critical edges were split: a branch target has no φ-nodes.
            self._emit("branch", self._scaled(1, scale), self.reg(t[1]),
                       t[2].id, t[3].id)
        elif t[0] == "return":
            value = self.reg(t[1]) if t[1] is not None else None
            self._emit("ret", 2, value)
        else:
            raise CompileError(f"unknown terminator {t[0]}")

    def _emit_phi_moves(self, pred, succ) -> None:
        if not succ.phis:
            return
        try:
            index = succ.preds.index(pred)
        except ValueError:
            raise CompileError(
                f"{self.graph.method.qualified}: {pred} jumps to {succ} "
                "but is not among its predecessors") from None
        pairs = []
        for phi in succ.phis:
            src = phi.inputs[index]
            pairs.append((self.reg(src), self.reg(phi)))
        self._emit("phimove", max(1, len(pairs)), tuple(pairs))

    # ------------------------------------------------------------------
    def _process_state(self, state: FrameState | None):
        if state is None:
            return None
        chain = []
        current = state
        while current is not None:
            chain.append((
                current.method,
                current.bc_pc,
                tuple(self._state_value(v) for v in current.locals),
                tuple(self._state_value(v) for v in current.stack),
                current.drop,
            ))
            current = current.caller
        meta_index = len(self.deopt_meta)
        self.deopt_meta.append(tuple(chain))
        return meta_index

    def _state_value(self, value):
        if value is None:
            return ("c", None)
        if isinstance(value, VirtualObjectState):
            key = id(value)
            index = self._vo_index.get(key)
            if index is None:
                # Fields first: a nested recipe takes its own index
                # before this one is appended.
                fields = tuple((f, self._state_value(v))
                               for f, v in value.field_values)
                index = self._vo_index[key] = len(self.virtual_objects)
                self.virtual_objects.append((value.class_name, fields))
            return ("v", index)
        if value.op == "const":
            return ("c", value.value)
        return ("r", self.reg(value))
