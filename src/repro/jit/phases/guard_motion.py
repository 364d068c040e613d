"""Speculative Guard Motion (GM) — paper Section 5.5.

Hoists guards out of loops even when the control flow inside the loop
does not always reach them:

- a null-check guard on a loop-invariant reference moves to the loop
  preheader (one execution instead of one per iteration),
- bounds-check guards indexed by an induction variable are rewritten to
  loop-invariant *range* checks on the induction bounds, hoisted to the
  preheader — which is what later allows loop vectorization (Section 5.6).

Hoisted guards become ``speculative``: if one fails, the deoptimization
handler disables the speculation for the method and the next compilation
keeps the guards inside the loop (the paper's "not doing this
transformation again if a deoptimization already happened").
"""

from __future__ import annotations

from repro.jit.ir import FrameState, Graph, GuardInfo, Node
from repro.jit.loops import Loop, ensure_preheader, find_loops


def run(graph: Graph, config, stats) -> None:
    processed = 0
    loops = find_loops(graph)
    for loop in loops:
        processed += _hoist_loop(graph, loop)
    stats.phase("guard-motion", graph.node_count() * 2 + processed * 6)


# ----------------------------------------------------------------------
def _loop_invariant(node: Node, loop: Loop) -> bool:
    """A value is invariant if it is defined outside the loop."""
    if node.op in ("const", "param"):
        return True
    return node.block is not None and node.block.id not in loop.blocks


def find_inductions(loop: Loop) -> dict[int, tuple[Node, Node, int]]:
    """Induction φ-nodes of the loop header.

    Returns ``phi.id -> (phi, init, step)`` for φ of shape
    ``phi(init, phi + step)`` with positive constant step and loop-
    invariant init (preds must be [preheader, backedges...], which
    :func:`ensure_preheader` establishes).
    """
    out: dict[int, tuple[Node, Node, int]] = {}
    header = loop.header
    for phi in header.phis:
        if len(phi.inputs) < 2:
            continue
        init = phi.inputs[0]
        if not _loop_invariant(init, loop):
            continue
        step: int | None = None
        ok = True
        for back in phi.inputs[1:]:
            if back.op == "add" and back.inputs[0] is phi \
                    and back.inputs[1].op == "const" \
                    and isinstance(back.inputs[1].value, int) \
                    and back.inputs[1].value > 0:
                s = back.inputs[1].value
                if step is None or step == s:
                    step = s
                    continue
            ok = False
            break
        if ok and step is not None:
            out[phi.id] = (phi, init, step)
    return out


def loop_limit(loop: Loop, inductions) -> tuple[Node, Node] | None:
    """Find ``(phi, limit)`` such that ``phi < limit`` holds in the body.

    Matches the canonical shape the front-end emits: the header ends in
    ``branch(cmpz(cmp(phi, limit, "<"), "=="), exit, body)``.
    """
    term = loop.header.terminator
    if term is None or term[0] != "branch":
        return None
    cond, if_true, if_false = term[1], term[2], term[3]
    if cond.op != "cmpz" or cond.extra != "==":
        return None
    cmp = cond.inputs[0]
    if cmp.op != "cmp" or cmp.extra != "<":
        return None
    phi, limit = cmp.inputs
    if phi.id not in inductions:
        return None
    if not _loop_invariant(limit, loop):
        return None
    # cmpz(x, "==") is true when the comparison is FALSE: the true edge
    # must leave the loop and the false edge stay inside.
    if if_true.id in loop.blocks or if_false.id not in loop.blocks:
        return None
    return phi, limit


def _preheader_state(loop: Loop) -> FrameState | None:
    """The deopt anchor for hoisted guards: the header entry state with
    loop φ values replaced by their preheader inputs."""
    state = loop.header.entry_state
    if state is None:
        return None
    return state.substitute({phi: phi.inputs[0] for phi in loop.header.phis
                             if phi.inputs})


def _hoist_loop(graph: Graph, loop: Loop) -> int:
    method = graph.method
    pre = ensure_preheader(graph, loop)
    anchor = _preheader_state(loop)
    if anchor is None:
        return 0
    spec_id = (method.qualified, "gm", loop.header.bc_pc)
    if spec_id in method.disabled_speculations:
        return 0

    inductions = find_inductions(loop)
    limit_info = loop_limit(loop, inductions)
    hoisted = 0
    hoisted_null: set[int] = set()      # ids of refs already null-checked
    hoisted_range: set[tuple] = set()   # (arr id, phi id, offset)

    def pre_append(node: Node) -> None:
        node.block = pre
        pre.nodes.append(node)

    for bid in list(loop.blocks):
        block = loop._block_map.get(bid)
        if block is None or block not in graph.blocks:
            continue
        for node in list(block.nodes):
            if node.op != "guard":
                continue
            info: GuardInfo = node.extra
            if info.test == "nonnull":
                ref = node.inputs[0]
                if not _loop_invariant(ref, loop):
                    continue
                block.nodes.remove(node)
                if ref.id in hoisted_null:
                    continue
                hoisted_null.add(ref.id)
                node.extra = GuardInfo(
                    kind=info.kind, test="nonnull", speculative=True,
                    speculation_id=spec_id, state=anchor)
                pre_append(node)
                hoisted += 1
            elif info.test == "bounds" and limit_info is not None:
                idx, arr = node.inputs
                if not _loop_invariant(arr, loop):
                    continue
                phi, limit = limit_info
                # idx must be the induction variable, optionally plus a
                # loop-invariant offset (constant or invariant value, in
                # either operand position).
                offset = None
                if idx is phi:
                    offset = "zero"
                elif idx.op == "add":
                    a, b = idx.inputs
                    if a is phi and _loop_invariant(b, loop):
                        offset = b
                    elif b is phi and _loop_invariant(a, loop):
                        offset = a
                if offset is None:
                    continue
                block.nodes.remove(node)
                key = (arr.id, phi.id,
                       offset if offset == "zero" else offset.id)
                if key in hoisted_range:
                    continue
                hoisted_range.add(key)
                _, init, _step = inductions[phi.id]
                lo: Node = init
                hi: Node = limit
                if offset != "zero":
                    lo = Node("add", [init, offset])
                    hi = Node("add", [limit, offset])
                    pre_append(lo)
                    pre_append(hi)
                info2 = GuardInfo(
                    kind="BoundsCheckException", test="bounds_range",
                    speculative=True, speculation_id=spec_id, state=anchor)
                pre_append(Node("guard", [lo, hi, arr], extra=info2))
                hoisted += 1
    return hoisted
