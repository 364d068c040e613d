"""Call inlining and devirtualization.

The substrate most paper optimizations stand on: Section 5 notes that
"minimal examples ... appear in the compiler after transformations such
as inlining".  Virtual calls devirtualize three ways:

1. **exact receiver type** (fresh allocation / closure): direct, no guard;
2. **monomorphic interpreter type profile**: speculative — a type guard
   is emitted whose failure deoptimizes and disables the speculation;
3. otherwise the call stays virtual.

Inlined framestates are re-rooted under the call-site state so that a
deopt inside inlined code materializes the full virtual frame stack.
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.jit.graph_builder import build_graph
from repro.jit.ir import FrameState, Graph, GuardInfo, Node, resolve
from repro.jit.phases.common import const_node, exact_type, insert_before

_INLINEABLE = ("invokestatic", "invokespecial", "invokedirect")

#: Callees at or below this node count always inline (accessors).
TRIVIAL_SIZE = 12


def run(graph: Graph, config, pool, stats) -> None:
    processed = 0
    for _ in range(config.inline_depth + 2):
        if graph.node_count() > config.inline_graph_budget:
            break
        changed = devirtualize(graph, pool)
        changed |= _inline_round(graph, config, pool)
        processed += graph.node_count()
        if not changed:
            break
    stats.phase("inline", processed * 3)


# ----------------------------------------------------------------------
def devirtualize(graph: Graph, pool) -> bool:
    """Convert invokevirtual nodes to direct calls where possible."""
    changed = False
    for block in graph.blocks:
        for node in list(block.nodes):
            if node.op != "invokevirtual":
                continue
            name, pc, src_method = node.extra
            receiver = node.inputs[0]
            tname = exact_type(receiver)
            if tname is not None:
                node.op = "invokedirect"
                node.extra = pool.get(tname).resolve_method(name)
                changed = True
                continue
            profile = src_method.call_profile
            types = profile.get(pc) if profile else None
            if types is not None and len(types) == 1:
                cls_name = next(iter(types))
                spec_id = (src_method.qualified, pc, "devirt")
                if spec_id in graph.method.disabled_speculations:
                    continue
                target = pool.get(cls_name).resolve_method(name)
                info = GuardInfo(kind="UnreachedCode", test="type",
                                 speculative=True, speculation_id=spec_id,
                                 class_name=cls_name, state=node.value)
                insert_before(block, node, Node("guard", [receiver],
                                                extra=info))
                node.op = "invokedirect"
                node.extra = target
                changed = True
    return changed


# ----------------------------------------------------------------------
def _inline_round(graph: Graph, config, pool) -> bool:
    """Inline at most one call per block.  Each call's result replaces
    its uses in one caller walk at the end of the round; until then,
    later calls read their arguments through ``results``."""
    depth_of = getattr(graph, "_inline_depth", None)
    if depth_of is None:
        depth_of = graph._inline_depth = {}
    results: dict = {}
    changed = False
    for block in list(graph.blocks):
        for node in list(block.nodes):
            if node.op not in _INLINEABLE:
                continue
            target = node.extra
            if target.native or target.abstract or target.code is None:
                continue
            depth, chain = depth_of.get(node.id, (0, ()))
            if depth >= config.inline_depth:
                continue
            if target.qualified in chain or target is graph.method:
                continue
            # Cheap pre-screen before building the callee graph.
            if len(target.code) > config.inline_callee_budget * 2:
                continue
            callee_graph = build_graph(target, pool)
            size = callee_graph.node_count()
            if size > TRIVIAL_SIZE:
                if size > config.inline_callee_budget:
                    continue
                if graph.node_count() + size > config.inline_graph_budget:
                    continue
            new_nodes = inline_call(graph, block, node, callee_graph,
                                    results)
            new_chain = chain + (target.qualified,)
            for inlined in new_nodes:
                depth_of[inlined.id] = (depth + 1, new_chain)
            changed = True
            break       # the block was split; go on with the next one
    if changed:
        graph.replace_uses(results)
        graph.recompute_preds()
    return changed


def inline_call(graph: Graph, block, invoke: Node, callee: Graph,
                results: dict) -> list[Node]:
    """Splice ``callee``'s graph in place of ``invoke``.

    The invoke's arguments are read through ``results``, and its own
    result is added there: the caller applies ``results`` with one
    :meth:`Graph.replace_uses` and then recomputes predecessors.
    Returns the list of newly added nodes (for inline-depth accounting).
    """
    args = [resolve(results, arg) for arg in invoke.inputs]
    if len(args) != len(callee.params):
        raise CompileError(
            f"inline {callee.method.qualified}: arity mismatch "
            f"{len(args)} vs {len(callee.params)}")
    callee.replace_uses(dict(zip(callee.params, args)))

    # Re-root framestates under the call-site state.
    site_state = invoke.value
    if isinstance(site_state, FrameState):
        drop = len(args)
        callee.map_states(
            lambda state, _node: state.with_caller(site_state, drop))

    # Split the caller block at the invoke.
    index = block.nodes.index(invoke)
    cont = graph.new_block()
    cont.bc_pc = block.bc_pc
    cont.nodes = block.nodes[index + 1:]
    for moved in cont.nodes:
        moved.block = cont
    cont.terminator = block.terminator
    block.nodes = block.nodes[:index]
    block.terminator = ("jump", callee.entry)
    # The successors' φ inputs were keyed by `block`; the edge now comes
    # from `cont` — swap identities in place to keep alignment.
    for succ in cont.successors:
        for i, pred in enumerate(succ.preds):
            if pred is block:
                succ.preds[i] = cont

    # Rewire callee returns into the continuation.
    returning = [(cblock, cblock.terminator[1]) for cblock in callee.blocks
                 if cblock.terminator is not None
                 and cblock.terminator[0] == "return"]
    for cblock, _ in returning:
        cblock.terminator = ("jump", cont)
    if returning:
        values = [v if v is not None else const_node(None)
                  for _, v in returning]
        if len(values) == 1:
            result = values[0]
        else:
            result = Node("phi", values)
            cont.add_phi(result)
        cont.preds = [cblock for cblock, _ in returning]
        results[invoke] = result

    graph.blocks.extend(callee.blocks)
    graph.blocks.append(cont)
    return [n for cblock in callee.blocks
            for n in list(cblock.phis) + list(cblock.nodes)]

