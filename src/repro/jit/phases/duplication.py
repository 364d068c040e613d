"""Dominance-Based Duplication Simulation (DS) — paper Section 5.7.

DBDS duplicates code after control-flow merges when simulation shows the
duplicate becomes simplifiable — the canonical example being a repeated
``instanceof`` check, which after duplication is dominated by the first
check and folds away.

The phase has three cooperating parts:

1. **global value numbering** unifies equivalent pure nodes (the two
   ``x instanceof C`` nodes become one value),
2. **merge duplication**: a merge block that immediately re-tests a
   value a dominating branch already decided is split per-predecessor;
   each duplicate's branch then folds to the side its path implies —
   the paper's "second check becomes dominated by the first check",
3. **dominated-branch elimination** for the non-merge case (straight
   dominance, no duplication needed).

DBDS is simulation-heavy; its compile-time accounting is the largest of
all phases, matching Table 16 (~20%).
"""

from __future__ import annotations

from repro.jit.ir import Graph, Node, PURE_OPS
from repro.jit.loops import compute_dominators, dominates
from repro.jit.phases.common import value_key


def run(graph: Graph, config, stats) -> None:
    processed = graph.node_count() * 6
    changed = True
    rounds = 0
    while changed and rounds < 4:
        changed = _gvn(graph)
        folded = _dominated_branches(graph)
        duplicated = _duplicate_merges(graph)
        processed += (folded + duplicated) * 50 + graph.node_count() * 4
        changed |= bool(folded) or bool(duplicated)
        rounds += 1
    stats.phase("duplication", processed)


# ----------------------------------------------------------------------
def _gvn(graph: Graph) -> bool:
    """Dominance-aware global value numbering of pure nodes."""
    idom = compute_dominators(graph)
    table: dict = {}
    pending: dict = {}
    for block in graph.reachable_blocks():
        for node in list(block.nodes):
            if node.op not in PURE_OPS or node.op in ("param", "const"):
                continue
            key = value_key(node, pending)
            if key is None:
                continue
            existing = table.get(key)
            if existing is not None and existing.block is not None \
                    and existing is not node \
                    and dominates(idom, existing.block, block):
                block.nodes.remove(node)
                pending[node] = existing
            else:
                table[key] = node
    graph.replace_uses(pending)
    return bool(pending)


def _foldable_condition(cond: Node) -> bool:
    """Conditions over immutable values: safe to reuse across effects."""
    if cond.op == "instanceof":
        return True
    if cond.op in ("cmp", "cmpz"):
        return all(i.op in PURE_OPS for i in cond.inputs)
    return False


def _decides(dom_block, cond) -> tuple | None:
    dt = dom_block.terminator
    if dt is not None and dt[0] == "branch" and dt[1] is cond \
            and dt[2] is not dt[3]:
        return dt[2], dt[3]
    return None


def _edge_only(succ, dom_block) -> bool:
    """True if ``succ`` is reachable only via the deciding branch's
    edge from ``dom_block`` — being there then proves the condition's
    side.  Multi-predecessor successors (e.g. the merge a bare-if skips
    to) are reached from both sides and prove nothing."""
    return len(succ.preds) == 1 and succ.preds[0] is dom_block


def _dominated_branches(graph: Graph) -> int:
    """Fold a branch strictly dominated by another branch on the same
    condition (single-predecessor chains; merges are handled by
    duplication)."""
    folded = 0
    changed = True
    while changed:
        changed = False
        idom = compute_dominators(graph)
        for block in graph.blocks:
            t = block.terminator
            if t is None or t[0] != "branch" or t[1].op == "const":
                continue
            cond = t[1]
            if not _foldable_condition(cond):
                continue
            dom = idom.get(block.id)
            seen = 0
            while dom is not None and seen < 64:
                if dom is not block:
                    sides = _decides(dom, cond)
                    if sides is not None:
                        true_succ, false_succ = sides
                        # Dominance by a successor only implies the
                        # condition if that successor is reachable
                        # solely through the deciding edge.  A bare-if
                        # merge is its branch's own skip target, so it
                        # dominates everything downstream while being
                        # reached from BOTH sides — folding on it would
                        # pick one side for all paths.
                        if true_succ is not block \
                                and _edge_only(true_succ, dom) \
                                and dominates(idom, true_succ, block):
                            block.terminator = ("jump", t[2])
                            folded += 1
                            changed = True
                            break
                        if false_succ is not block \
                                and _edge_only(false_succ, dom) \
                                and dominates(idom, false_succ, block):
                            block.terminator = ("jump", t[3])
                            folded += 1
                            changed = True
                            break
                parent = idom.get(dom.id)
                if parent is dom:
                    break
                dom = parent
                seen += 1
        if changed:
            graph.recompute_preds()
    return folded


def _duplicate_merges(graph: Graph) -> int:
    """Split an empty merge block that re-tests a decided condition.

    For each predecessor classified as coming from the deciding branch's
    true (false) side, route it directly to the corresponding target —
    this *is* tail duplication for an empty merge: the duplicated content
    is just the (folded) branch.
    """
    duplicated = 0
    changed = True
    while changed:
        changed = False
        idom = compute_dominators(graph)
        for block in list(graph.blocks):
            if block.nodes or block.phis or len(block.preds) < 2:
                continue
            t = block.terminator
            if t is None or t[0] != "branch" or t[1].op == "const":
                continue
            cond = t[1]
            if not _foldable_condition(cond):
                continue
            # Find the deciding dominator.
            sides = None
            dom = idom.get(block.id)
            seen = 0
            while dom is not None and seen < 64:
                if dom is not block:
                    sides = _decides(dom, cond)
                    if sides is not None:
                        break
                parent = idom.get(dom.id)
                if parent is dom:
                    break
                dom = parent
                seen += 1
            if sides is None:
                continue
            true_succ, false_succ = sides
            routed = 0
            for pred in list(block.preds):
                side = _classify(idom, dom, pred, block,
                                 true_succ, false_succ)
                if side is None:
                    continue
                target = t[2] if side == "true" else t[3]
                if target.phis:
                    continue        # would need new φ inputs; skip
                pred.replace_successor(block, target)
                routed += 1
            if routed:
                duplicated += routed
                graph.recompute_preds()
                changed = True
                break
    return duplicated


def _classify(idom, dom, pred, merge, true_succ, false_succ) -> str | None:
    """Which side of the deciding branch does ``pred`` lie on?

    Only successors reachable solely through their deciding edge
    (:func:`_edge_only`) prove a side — same soundness rule as
    :func:`_dominated_branches`."""
    if _edge_only(true_succ, dom) and (
            pred is true_succ or (true_succ is not merge
                                  and dominates(idom, true_succ, pred))):
        return "true"
    if _edge_only(false_succ, dom) and (
            pred is false_succ or (false_succ is not merge
                                   and dominates(idom, false_succ, pred))):
        return "false"
    return None
