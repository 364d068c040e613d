"""The JIT's intermediate representation.

A conventional CFG-of-basic-blocks IR in SSA form (in the spirit of
Graal's IR after scheduling): every :class:`Node` produces at most one
value, blocks hold an ordered node list plus φ-nodes, and terminators
are stored on the block.  Guards are first-class nodes carrying a
:class:`FrameState` (bytecode pc + locals + stack as IR values), which is
what makes speculative optimizations deoptimizable, as in the paper's
Section 5.5.

Node ``op`` vocabulary:

- values: ``param const phi``
- arithmetic: ``add sub mul div rem neg not shl shr and or xor i2d d2i cmp``
  (``cmp`` carries the comparison operator in ``extra``)
- memory: ``new newarray getfield putfield getstatic putstatic aload
  astore arraylen``
- calls: ``invokestatic invokespecial invokevirtual invokedirect
  invokedynamic invokehandle`` (``invokedirect`` is a devirtualized
  instance call; ``extra`` holds the JMethod or method name)
- types: ``instanceof checkcast``
- concurrency: ``monitorenter monitorexit monitorexit_if_held cas
  atomicget atomicadd park unpark wait notify notifyall``
- guards: ``guard`` (``extra`` = :class:`GuardInfo`)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import CompileError

# Ops with no side effects and no dependence on mutable state: freely
# reorderable, CSE-able, and dead if unused.
PURE_OPS = frozenset({
    "param", "const", "add", "sub", "mul", "neg", "not", "shl", "shr",
    "and", "or", "xor", "i2d", "d2i", "cmp", "cmpz", "instanceof",
})

# div/rem can trap (guest fault) — not dead-code-removable, not hoistable
# past control flow, but have no memory effect.
TRAPPING_OPS = frozenset({"div", "rem", "checkcast"})

# Reads of mutable memory: no side effect, but not CSE-able across effects.
READ_OPS = frozenset({"getfield", "getstatic", "aload", "arraylen"})

# Everything here must stay in order and is never removed by DCE.
EFFECT_OPS = frozenset({
    "new", "newarray", "putfield", "putstatic", "astore",
    "invokestatic", "invokespecial", "invokevirtual", "invokedirect",
    "invokedynamic", "invokehandle",
    "monitorenter", "monitorexit", "monitorexit_if_held",
    "cas", "atomicget", "atomicadd",
    "park", "unpark", "wait", "notify", "notifyall",
    "guard",
})

# Allocation ops (safe to re-execute on deopt, removable if unused —
# subject to escape analysis, not plain DCE).
ALLOC_OPS = frozenset({"new", "newarray"})


@dataclass
class FrameState:
    """Bytecode-level state for deoptimization.

    ``locals``/``stack`` hold IR value nodes (or
    :class:`VirtualObjectState` entries after escape analysis).  Deopt
    builds an interpreter frame for ``method`` at ``bc_pc`` from them.

    After inlining, states of inlined code carry a ``caller`` chain: the
    caller resumes *after* its invoke bytecode with ``drop`` argument
    slots removed from its captured stack and the callee's return value
    pushed by the normal return path — exactly the JVM's virtual-frame
    deoptimization.
    """

    bc_pc: int
    locals: tuple
    stack: tuple = ()
    method: object = None
    caller: "FrameState | None" = None
    drop: int = 0               # stack slots the call consumed at the site

    def values(self):
        state = self
        while state is not None:
            for v in state.locals:
                if v is not None:
                    yield v
            for v in state.stack:
                if v is not None:
                    yield v
            state = state.caller

    def with_caller(self, caller: "FrameState", drop: int) -> "FrameState":
        """Re-root this state chain under ``caller`` (used by inlining)."""
        if self.caller is None:
            return FrameState(self.bc_pc, self.locals, self.stack,
                              self.method, caller, drop)
        return FrameState(self.bc_pc, self.locals, self.stack, self.method,
                          self.caller.with_caller(caller, drop), self.drop)


@dataclass
class VirtualObjectState:
    """Rematerialization recipe for a scalar-replaced object."""

    class_name: str
    field_values: tuple     # (field name, Node) pairs in layout order


@dataclass
class GuardInfo:
    """Payload of a ``guard`` node.

    ``kind`` is the exception label counted by the Section 5.5 table
    ("NullCheckException", "BoundsCheckException", "UnreachedCode");
    ``speculative`` marks guards introduced/hoisted speculatively;
    ``speculation_id`` identifies what to disable after a deopt.
    ``test`` names the runtime check: ``nonnull``, ``bounds`` (idx, arr),
    ``bounds_range`` (lo, hi, arr), ``type`` (obj; class in ``class_name``).
    """

    kind: str
    test: str
    speculative: bool = False
    speculation_id: object = None
    class_name: str | None = None
    state: FrameState | None = None


class Node:
    """One IR operation."""

    _ids = itertools.count(1)

    __slots__ = ("id", "op", "inputs", "value", "extra", "block")

    def __init__(self, op: str, inputs: list["Node"] | None = None,
                 value: object = None, extra: object = None) -> None:
        self.id = next(Node._ids)
        self.op = op
        self.inputs: list[Node] = list(inputs or [])
        self.value = value       # constants: the value; invokes: arg count
        self.extra = extra       # op-specific payload
        self.block: Block | None = None

    def replace_input(self, old: "Node", new: "Node") -> None:
        for i, node in enumerate(self.inputs):
            if node is old:
                self.inputs[i] = new

    def __repr__(self) -> str:
        ins = ",".join(f"n{i.id}" for i in self.inputs)
        tail = f" {self.value!r}" if self.value is not None else ""
        return f"n{self.id}:{self.op}({ins}){tail}"


class Block:
    """A basic block: φ-nodes, an ordered node list, and a terminator.

    Terminators: ``("jump", target)``, ``("branch", cond, if_true,
    if_false)``, ``("return", value_or_None)``.
    """

    _ids = itertools.count(1)

    def __init__(self) -> None:
        self.id = next(Block._ids)
        self.phis: list[Node] = []
        self.nodes: list[Node] = []
        self.preds: list[Block] = []
        self.terminator: tuple | None = None
        self.bc_pc = 0              # bytecode pc of the block start
        self.entry_state: FrameState | None = None
        self.vector_factor = 1      # >1 after loop vectorization

    def append(self, node: Node) -> Node:
        node.block = self
        self.nodes.append(node)
        return node

    def add_phi(self, phi: Node) -> Node:
        phi.block = self
        self.phis.append(phi)
        return phi

    @property
    def successors(self) -> list["Block"]:
        t = self.terminator
        if t is None:
            return []
        if t[0] == "jump":
            return [t[1]]
        if t[0] == "branch":
            return [t[2], t[3]]
        return []

    def replace_successor(self, old: "Block", new: "Block") -> None:
        t = self.terminator
        if t is None:
            return
        if t[0] == "jump" and t[1] is old:
            self.terminator = ("jump", new)
        elif t[0] == "branch":
            kind, cond, tb, fb = t
            self.terminator = (kind, cond,
                               new if tb is old else tb,
                               new if fb is old else fb)

    def __repr__(self) -> str:
        return f"B{self.id}"


class Graph:
    """The IR of one method."""

    def __init__(self, method) -> None:
        self.method = method
        self.entry: Block | None = None
        self.blocks: list[Block] = []
        self.params: list[Node] = []

    def new_block(self) -> Block:
        block = Block()
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    # Traversals.
    # ------------------------------------------------------------------
    def reachable_blocks(self) -> list[Block]:
        """Blocks reachable from entry, in reverse post-order."""
        seen: set[int] = set()
        order: list[Block] = []

        def visit(block: Block) -> None:
            stack = [(block, iter(block.successors))]
            seen.add(block.id)
            while stack:
                current, succs = stack[-1]
                advanced = False
                for nxt in succs:
                    if nxt.id not in seen:
                        seen.add(nxt.id)
                        stack.append((nxt, iter(nxt.successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order

    def recompute_preds(self) -> None:
        """Rebuild predecessor lists, dropping unreachable blocks.

        φ inputs are remapped to the new predecessor order; inputs from
        predecessors that disappeared are dropped, and φ-nodes that
        become single-input are replaced by that input.
        """
        reachable = self.reachable_blocks()
        old_preds = {b.id: list(b.preds) for b in reachable}
        for block in reachable:
            block.preds = []
        for block in reachable:
            for succ in block.successors:
                succ.preds.append(block)
        self.blocks = reachable
        for block in self.blocks:
            if not block.phis:
                continue
            olds = old_preds[block.id]
            if [p.id for p in olds] == [p.id for p in block.preds]:
                continue
            # Map each new pred to its position in the old pred list.
            # A pred may legitimately appear several times (a branch with
            # both targets equal); consume occurrences left to right.
            remap: list[int] = []
            used: set[int] = set()
            for pred in block.preds:
                for i, old in enumerate(olds):
                    if old is pred and i not in used:
                        used.add(i)
                        remap.append(i)
                        break
                else:
                    raise CompileError(
                        f"{self.method.qualified}: new predecessor {pred} "
                        f"of {block} has no φ input; phases adding edges "
                        "to merge blocks must extend φ-nodes themselves")
            for phi in list(block.phis):
                phi.inputs = [phi.inputs[i] for i in remap]
        # Collapse φ-nodes that lost all but one input.
        for block in self.blocks:
            for phi in list(block.phis):
                if len(phi.inputs) != len(block.preds):
                    raise CompileError(
                        f"{self.method.qualified}: phi {phi} has "
                        f"{len(phi.inputs)} inputs, block {block} has "
                        f"{len(block.preds)} preds")
                distinct = {i for i in phi.inputs if i is not phi}
                if len(distinct) == 1:
                    block.phis.remove(phi)
                    self.replace_all_uses(phi, distinct.pop())
        if self.entry not in self.blocks:
            raise CompileError("entry block unreachable")

    def node_count(self) -> int:
        return sum(len(b.phis) + len(b.nodes) for b in self.blocks)

    # ------------------------------------------------------------------
    # Use replacement.
    # ------------------------------------------------------------------
    def replace_all_uses(self, old: Node, new: Node) -> None:
        """Replace every use of ``old`` (inputs, φ, terminators,
        framestates, guard payloads) with ``new``."""
        for block in self.blocks:
            for node in itertools.chain(block.phis, block.nodes):
                node.replace_input(old, new)
                if node.op == "guard":
                    info: GuardInfo = node.extra
                    if info.state is not None:
                        info.state = _replace_in_state(info.state, old, new)
                elif isinstance(node.value, FrameState):
                    node.value = _replace_in_state(node.value, old, new)
            t = block.terminator
            if t is not None and t[0] == "branch" and t[1] is old:
                block.terminator = ("branch", new, t[2], t[3])
            elif t is not None and t[0] == "return" and t[1] is old:
                block.terminator = ("return", new)
            if block.entry_state is not None:
                block.entry_state = _replace_in_state(block.entry_state, old, new)

    def framestate_values(self) -> set[int]:
        """Ids of nodes referenced by any live framestate (kept by DCE)."""
        live: set[int] = set()
        for block in self.blocks:
            for node in block.nodes:
                if node.op == "guard" and node.extra.state is not None:
                    for v in node.extra.state.values():
                        _collect_state_value(v, live)
        return live

    def __repr__(self) -> str:
        return f"<Graph {self.method.qualified} {len(self.blocks)} blocks>"


def _collect_state_value(value, live: set[int]) -> None:
    if isinstance(value, Node):
        live.add(value.id)
    elif isinstance(value, VirtualObjectState):
        for _, node in value.field_values:
            _collect_state_value(node, live)


def _mentions(values, node: Node) -> bool:
    """Does any of ``values`` — or a recipe nested in one — reference
    ``node``?"""
    for v in values:
        if v is node:
            return True
        if isinstance(v, VirtualObjectState) and _mentions(
                [x for _, x in v.field_values], node):
            return True
    return False


def _replace_in_state(state: FrameState, old: Node, new: Node) -> FrameState:
    """``state`` with ``new`` substituted for ``old`` throughout — the
    caller chain and recipes nested at any depth included.  A state or
    recipe that does not mention ``old`` is returned itself, not a copy:
    nearly every state of a graph is untouched by any one replacement."""
    def sub(v):
        if v is old:
            return new
        if isinstance(v, VirtualObjectState) and _mentions((v,), old):
            return VirtualObjectState(
                v.class_name,
                tuple((n, sub(x)) for n, x in v.field_values))
        return v

    caller = (_replace_in_state(state.caller, old, new)
              if state.caller is not None else None)
    if (caller is state.caller and not _mentions(state.locals, old)
            and not _mentions(state.stack, old)):
        return state
    return FrameState(state.bc_pc,
                      tuple(sub(v) for v in state.locals),
                      tuple(sub(v) for v in state.stack),
                      state.method, caller, state.drop)


def format_graph(graph: Graph) -> str:
    """Human-readable dump, used in tests and debugging."""
    lines = [f"graph {graph.method.qualified}"]
    for block in graph.blocks:
        preds = ",".join(str(p) for p in block.preds)
        lines.append(f"  {block} (preds: {preds}) bc={block.bc_pc}")
        for phi in block.phis:
            lines.append(f"    {phi}")
        for node in block.nodes:
            lines.append(f"    {node}")
        lines.append(f"    -> {block.terminator}")
    return "\n".join(lines)
