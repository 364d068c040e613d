"""Atomic-Operation Coalescing (AC) — paper Section 5.3.

Two consecutive CAS retry loops on the same field (the shape
``java.util.Random.nextDouble`` exposes after inlining ``next()`` twice)
fuse into one: the second loop's read is replaced by the first loop's
computed value, the second loop's pure update function is folded into the
first loop's body, and the single remaining CAS publishes
``f2(f1(v))`` — valid because threads are never guaranteed to observe the
intermediate value (Java Memory Model argument in the paper).

Recognized retry-loop shape (what the front-end + cleanup produce)::

    B:  v  = atomicget(o.f)
        nv = <pure nodes over v>
        c  = cas(o.f, v, nv)
        branch(cmpz(c, "=="), B, exit)     # retry while the CAS failed
"""

from __future__ import annotations

from repro.jit.ir import Graph, Node, PURE_OPS


def run(graph: Graph, config, stats) -> None:
    processed = graph.node_count()
    fused = 0
    changed = True
    while changed:
        changed = False
        loops = _find_retry_loops(graph)
        for first in loops:
            second = _following_retry_loop(graph, first, loops)
            if second is None:
                continue
            if _fuse(graph, first, second):
                fused += 1
                changed = True
                break
    stats.phase("atomic-coalesce", processed + fused * 25)


# ----------------------------------------------------------------------
class _RetryLoop:
    __slots__ = ("block", "read", "cas", "field", "obj", "exit")

    def __init__(self, block, read, cas, exit_block) -> None:
        self.block = block
        self.read = read
        self.cas = cas
        self.field = cas.value
        self.obj = cas.inputs[0]
        self.exit = exit_block


def _find_retry_loops(graph: Graph) -> list[_RetryLoop]:
    out = []
    for block in graph.blocks:
        loop = _match_retry_loop(block)
        if loop is not None:
            out.append(loop)
    return out


def _match_retry_loop(block) -> _RetryLoop | None:
    t = block.terminator
    if t is None or t[0] != "branch":
        return None
    cond, if_true, if_false = t[1], t[2], t[3]
    if cond.op != "cmpz" or cond.extra != "==":
        return None
    if if_true is not block:            # retry edge must target the block
        return None
    cas = cond.inputs[0]
    if cas.op != "cas" or cas.block is not block:
        return None
    read = None
    for node in block.nodes:
        if node is cas:
            continue
        if node.op == "atomicget":
            if read is not None:
                return None
            read = node
        elif node.op == "guard" and node.extra.test == "nonnull":
            continue
        elif node.op in PURE_OPS or node.op == "cmpz":
            continue
        else:
            return None
    if read is None:
        return None
    if read.value != cas.value or read.inputs[0] is not cas.inputs[0]:
        return None
    if cas.inputs[1] is not read:       # expect must be the read value
        return None
    return _RetryLoop(block, read, cas, if_false)


def _following_retry_loop(graph: Graph, first: _RetryLoop,
                          loops: list[_RetryLoop]) -> _RetryLoop | None:
    """The next retry loop on the same location, reachable from
    ``first.exit`` through pure single-in/single-out blocks."""
    by_block = {lp.block.id: lp for lp in loops}
    current = first.exit
    for _ in range(4):
        candidate = by_block.get(current.id)
        if candidate is not None and candidate is not first:
            if candidate.obj is first.obj and candidate.field == first.field:
                # The hop blocks (and first.exit itself) must be pure.
                return candidate
            return None
        if current.phis or len(current.preds) != 1:
            return None
        if any(n.op not in PURE_OPS for n in current.nodes):
            return None
        t = current.terminator
        if t is None or t[0] != "jump":
            return None
        current = t[1]
    return None


def _fuse(graph: Graph, first: _RetryLoop, second: _RetryLoop) -> bool:
    b1, b2 = first.block, second.block
    # The second CAS result must feed only its own retry branch, and the
    # second loop's φ-nodes (loop-carried locals kept alive by
    # framestates) must have no uses outside their block — the block is
    # deleted by the fusion.
    b2_dead = {second.cas.id} | {phi.id for phi in b2.phis}
    for block in graph.blocks:
        for node in block.nodes:
            if block is b2:
                continue
            if any(i.id in b2_dead for i in node.inputs):
                return False
        for phi in block.phis:
            if block is b2:
                continue
            if any(i.id in b2_dead for i in phi.inputs):
                return False
        t = block.terminator
        if t is None:
            continue
        if t[0] in ("branch", "return") and isinstance(t[1], Node) \
                and t[1].id in b2_dead and block is not b2:
            return False
    moved = [n for n in b2.nodes
             if n is not second.cas and n is not second.read
             and n.op != "guard" and second.cas not in n.inputs]
    b2_phi_ids = {phi.id for phi in b2.phis}
    for node in moved:
        if any(i.id in b2_phi_ids for i in node.inputs):
            return False        # body depends on a loop-carried value

    # Rewire the second read to the first loop's computed value f1(v).
    nv1 = first.cas.inputs[2]
    graph.replace_uses({second.read: nv1})

    # Fused order: read; f1; f2; cas(v, f2(f1(v))). Move the second
    # loop's pure body into the first block, before its CAS. The second
    # loop's null guards duplicate the first loop's (same object/field)
    # and are dropped with the block.
    cas1_index = b1.nodes.index(first.cas)
    for node in moved:
        node.block = b1
    b1.nodes[cas1_index:cas1_index] = moved

    # The fused CAS publishes f2(f1(v)) and still expects the first read.
    first.cas.inputs[2] = second.cas.inputs[2]
    b2.nodes = []
    b2.phis = []
    b2.terminator = ("jump", second.exit)
    graph.recompute_preds()
    return True
