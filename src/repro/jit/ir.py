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
        """The non-empty slots of every frame in the caller chain: Nodes
        and :class:`VirtualObjectState` recipes."""
        state = self
        while state is not None:
            for v in state.locals:
                if v is not None:
                    yield v
            for v in state.stack:
                if v is not None:
                    yield v
            state = state.caller

    def nodes(self):
        """Every Node the chain references, inside recipes nested at any
        depth included: what a deopt at this state reads."""
        return _nodes_in(self.values())

    def substitute(self, mapping: dict) -> "FrameState":
        """This state with ``mapping[n]`` in place of every key ``n``, along
        the caller chain and inside recipes nested at any depth.  A value
        may be a Node or a :class:`VirtualObjectState`.

        A state or recipe that mentions no key is returned itself, not a
        copy: nearly every state of a graph is untouched by any one
        substitution.  A recipe that occurs twice in the chain comes back
        as one object, so deopt still rebuilds one guest object."""
        return self._substitute(mapping, {})

    def _substitute(self, mapping: dict, memo: dict) -> "FrameState":
        caller = self.caller
        if caller is not None:
            caller = caller._substitute(mapping, memo)
        locals_ = _substitute_values(self.locals, mapping, memo)
        stack = _substitute_values(self.stack, mapping, memo)
        if caller is self.caller and locals_ is self.locals \
                and stack is self.stack:
            return self
        return FrameState(self.bc_pc, locals_, stack, self.method, caller,
                          self.drop)

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
    field_values: tuple     # (field name, Node or nested recipe) pairs

    def _substitute(self, mapping: dict, memo: dict) -> "VirtualObjectState":
        done = memo.get(id(self))
        if done is None:
            values = tuple(v for _, v in self.field_values)
            new = _substitute_values(values, mapping, memo)
            done = memo[id(self)] = self if new is values else \
                VirtualObjectState(self.class_name, tuple(
                    (name, v) for (name, _), v in zip(self.field_values, new)))
        return done


def _nodes_in(values):
    for v in values:
        if type(v) is VirtualObjectState:
            yield from _nodes_in(x for _, x in v.field_values)
        else:
            yield v


def _substitute_values(values: tuple, mapping: dict, memo: dict):
    """``values`` with the substitution applied, or ``values`` itself
    when nothing in it changes."""
    out = None
    for i, v in enumerate(values):
        new = (v._substitute(mapping, memo)
               if type(v) is VirtualObjectState else mapping.get(v, v))
        if new is not v:
            if out is None:
                out = list(values)
            out[i] = new
    return values if out is None else tuple(out)


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
    # Deopt states and use replacement.
    # ------------------------------------------------------------------
    def map_states(self, fn, blocks=None) -> None:
        """Store ``fn(state, node)`` into every deopt-state slot of the
        graph, or of ``blocks`` only: a block's ``entry_state`` (``node``
        is None), a guard's ``GuardInfo.state`` and a call site's
        FrameState in ``node.value``.  The only code that knows where a
        graph keeps its states."""
        for block in self.blocks if blocks is None else blocks:
            if block.entry_state is not None:
                block.entry_state = fn(block.entry_state, None)
            for node in block.nodes:
                if node.op == "guard":
                    info = node.extra
                    if info.state is not None:
                        info.state = fn(info.state, node)
                elif type(node.value) is FrameState:
                    node.value = fn(node.value, node)

    def states(self) -> list[FrameState]:
        """Every deopt state of the graph, in :meth:`map_states` order."""
        found: list[FrameState] = []

        def keep(state, _node):
            found.append(state)
            return state

        self.map_states(keep)
        return found

    def replace_all_uses(self, old: Node, new: Node) -> None:
        """Replace every use of ``old`` (inputs, φ, terminators, deopt
        states) with ``new``."""
        for block in self.blocks:
            for node in itertools.chain(block.phis, block.nodes):
                node.replace_input(old, new)
            t = block.terminator
            if t is not None and t[0] == "branch" and t[1] is old:
                block.terminator = ("branch", new, t[2], t[3])
            elif t is not None and t[0] == "return" and t[1] is old:
                block.terminator = ("return", new)
        mapping = {old: new}
        self.map_states(lambda state, _node: state.substitute(mapping))

    def __repr__(self) -> str:
        return f"<Graph {self.method.qualified} {len(self.blocks)} blocks>"
