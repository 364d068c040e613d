"""Canonicalization: constant folding, branch folding, block-local CSE,
and framestate-aware dead code elimination.

Runs between the named optimizations (Graal's "canonicalizer" role).
Like Graal, values referenced by framestates are kept alive — deoptimizing
correctly is worth more than the last dead store.
"""

from __future__ import annotations

from repro.jit.ir import Graph, Node, PURE_OPS, READ_OPS, resolve
from repro.jit.phases.common import exact_type, used_ids, value_key
from repro.jvm.interpreter import _CMP, _rem_int, _truediv_int, guest_str


def run(graph: Graph, config, stats) -> None:
    processed = 0
    for _ in range(8):
        changed = fold_constants(graph)
        changed |= fold_branches(graph)
        changed |= merge_blocks(graph)
        changed |= cse(graph)
        processed += graph.node_count()
        if not changed:
            break
    eliminate_redundant_guards(graph)
    dce(graph)
    processed += graph.node_count()
    stats.phase("canonicalize", processed * 2)


# ----------------------------------------------------------------------
def _eval_binary(op: str, a, b):
    if op == "add":
        if type(a) is str or type(b) is str:
            return guest_str(a) + guest_str(b)
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            return _NO_FOLD
        if isinstance(a, int) and isinstance(b, int):
            return _truediv_int(a, b)
        return a / b
    if op == "rem":
        if b == 0:
            return _NO_FOLD
        if isinstance(a, int) and isinstance(b, int):
            return _rem_int(a, b)
        return a - b * int(a / b)
    if op == "shl":
        return a << b
    if op == "shr":
        return a >> b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    return _NO_FOLD


_NO_FOLD = object()

_BINARY_OPS = frozenset({
    "add", "sub", "mul", "div", "rem", "shl", "shr", "and", "or", "xor",
})


def fold_constants(graph: Graph) -> bool:
    pending: dict = {}
    for block in graph.blocks:
        for node in list(block.nodes):
            folded = _NO_FOLD
            ins = [resolve(pending, i) for i in node.inputs]
            if node.op in _BINARY_OPS and all(i.op == "const" for i in ins):
                folded = _eval_binary(node.op, ins[0].value, ins[1].value)
            elif node.op == "cmp" and all(i.op == "const" for i in ins):
                folded = 1 if _CMP[node.extra](ins[0].value, ins[1].value) else 0
            elif node.op == "cmpz" and ins[0].op == "const":
                value = ins[0].value
                if value is None:
                    value = 0
                folded = 1 if _CMP[node.extra](value, 0) else 0
            elif node.op == "neg" and ins[0].op == "const":
                folded = -ins[0].value
            elif node.op == "not" and ins[0].op == "const":
                folded = 0 if ins[0].value else 1
            elif node.op == "i2d" and ins[0].op == "const":
                folded = float(ins[0].value)
            elif node.op == "d2i" and ins[0].op == "const":
                folded = int(ins[0].value)
            elif node.op == "instanceof":
                tname = exact_type(ins[0])
                if tname is not None:
                    # Exact type known: fold to a constant. We lack the
                    # class pool here, so only the trivially-equal case
                    # and Object fold; subtype facts fold in inlining.
                    if tname == node.value or node.value == "Object":
                        folded = 1
            if folded is not _NO_FOLD:
                block.nodes.remove(node)
                pending[node] = Node("const", value=folded)
    graph.replace_uses(pending)
    return bool(pending)


def fold_branches(graph: Graph) -> bool:
    changed = False
    for block in graph.blocks:
        t = block.terminator
        if t is None or t[0] != "branch":
            continue
        cond = t[1]
        if cond.op == "const":
            target = t[2] if cond.value else t[3]
            block.terminator = ("jump", target)
            changed = True
    if changed:
        graph.recompute_preds()
    return changed


def cse(graph: Graph) -> bool:
    """Block-local common-subexpression elimination over pure nodes."""
    pending: dict = {}
    for block in graph.blocks:
        seen: dict = {}
        for node in list(block.nodes):
            if node.op not in PURE_OPS or node.op == "param":
                continue
            key = value_key(node, pending)
            if key is None:
                continue
            existing = seen.get(key)
            if existing is None:
                seen[key] = node
            else:
                block.nodes.remove(node)
                pending[node] = existing
    graph.replace_uses(pending)
    return bool(pending)


def merge_blocks(graph: Graph) -> bool:
    """Straighten the CFG.

    Two rewrites: (a) append block B into its unique predecessor A when A
    just jumps to B and B has no other predecessors; (b) skip an empty
    single-predecessor block that only jumps onward.
    """
    changed = False
    for block in list(graph.blocks):
        t = block.terminator
        if t is None or t[0] != "jump":
            continue
        succ = t[1]
        if succ is block or succ is graph.entry:
            continue
        if len(succ.preds) == 1 and succ.preds[0] is block and not succ.phis:
            # (a) concatenate succ into block.
            for node in succ.nodes:
                node.block = block
            block.nodes.extend(succ.nodes)
            succ.nodes = []
            if succ.entry_state is not None and block.entry_state is None:
                block.entry_state = succ.entry_state
            block.terminator = succ.terminator
            succ.terminator = None
            # succ's successors now have `block` as the pred on that edge:
            # swap identities in place so φ alignment survives.
            if block.terminator is not None:
                for after in block.successors:
                    for i, pred in enumerate(after.preds):
                        if pred is succ:
                            after.preds[i] = block
            changed = True
    if changed:
        graph.recompute_preds()
    # (b) thread through empty forwarding blocks.
    threaded = False
    for block in list(graph.blocks):
        if block.nodes or block.phis or block is graph.entry:
            continue
        t = block.terminator
        if t is None or t[0] != "jump" or t[1] is block:
            continue
        target = t[1]
        if len(block.preds) != 1:
            continue
        if target.phis:
            # The φ input slot keyed by `block` must now be keyed by its
            # pred; swap identity in place to keep alignment.
            pred = block.preds[0]
            if pred in target.preds:
                continue    # would create a duplicate edge; leave it
            for i, p in enumerate(target.preds):
                if p is block:
                    target.preds[i] = pred
            pred.replace_successor(block, target)
            graph.blocks.remove(block)
            threaded = True
        else:
            pred = block.preds[0]
            pred.replace_successor(block, target)
            graph.blocks.remove(block)
            threaded = True
    if threaded:
        graph.recompute_preds()
    return changed or threaded


def eliminate_redundant_guards(graph: Graph) -> None:
    """Conditional elimination: drop a guard that repeats an identical,
    dominating guard (same test on the same values).

    The dominating guard already deoptimized on failure, so the repeat
    always passes.  This is Graal's guard/condition elimination; it is
    what clears the duplicate call-site null/type checks between two
    inlined calls on the same receiver.
    """
    from repro.jit.loops import compute_dominators, dominates

    idom = compute_dominators(graph)
    seen: dict[tuple, list] = {}
    for block in graph.reachable_blocks():
        for node in list(block.nodes):
            if node.op != "guard":
                continue
            info = node.extra
            key = (info.test, tuple(i.id for i in node.inputs),
                   info.class_name)
            earlier = seen.get(key)
            if earlier is not None:
                dom_block = earlier
                if dom_block is block or dominates(idom, dom_block, block):
                    block.nodes.remove(node)
                    continue
            seen[key] = block


def dce(graph: Graph) -> None:
    """Remove unused pure and read nodes (framestate values stay alive)."""
    removable = PURE_OPS | READ_OPS
    for _ in range(6):
        used = used_ids(graph)
        removed = False
        for block in graph.blocks:
            keep_nodes = []
            for node in block.nodes:
                if node.op in removable and node.id not in used:
                    removed = True
                else:
                    keep_nodes.append(node)
            block.nodes = keep_nodes
            keep_phis = []
            for phi in block.phis:
                if phi.id not in used:
                    removed = True
                else:
                    keep_phis.append(phi)
            block.phis = keep_phis
        if not removed:
            break
