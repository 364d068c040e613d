"""(Partial) Escape Analysis with scalar replacement — paper Section 5.1.

Objects allocated and consumed without escaping are scalar-replaced:
their field reads/writes fold to SSA values, their allocation disappears,
and monitor operations on them are elided.  With ``config.pea_partial``
(Graal), an object whose *last* uses escape is materialized immediately
before the first escaping use, with plain field writes carrying its
accumulated state — the paper's "initialization can be performed with
potentially cheaper regular writes".

**EAWA** (the paper's new optimization) extends the analysis to atomic
operations: a CAS on a not-yet-escaped object folds to a comparison the
compiler can usually decide statically (the expected value is the same
SSA node that was stored), so the CAS disappears entirely.  With EAWA
off, an atomic operation is treated like an escape — the object must be
materialized before it, exactly Graal's old behaviour.

Framestate references to a virtualized object are replaced by
:class:`~repro.jit.ir.VirtualObjectState` recipes so deoptimization can
rematerialize it.
"""

from __future__ import annotations

import itertools

from repro.jit.ir import Graph, Node, VirtualObjectState
from repro.jit.phases.common import const_node, used_ids


def run(graph: Graph, config, stats, pool=None) -> None:
    processed = 0
    atomics_ok = config.enabled("EAWA")
    for block in list(graph.blocks):
        for node in list(block.nodes):
            processed += 1
            if node.op == "new":
                processed += _try_virtualize(graph, block, node,
                                             atomics_ok, config.pea_partial,
                                             pool)
    _remove_unused_closures(graph)
    stats.phase("escape-analysis", processed * 3)


def _remove_unused_closures(graph: Graph) -> None:
    """Drop invokedynamic allocations whose closure is never used (the
    handle was devirtualized by MHS and nothing else reads it)."""
    used = used_ids(graph)
    for block in graph.blocks:
        block.nodes = [n for n in block.nodes
                       if not (n.op == "invokedynamic" and n.id not in used)]


# ----------------------------------------------------------------------
_ESCAPING = frozenset({
    "invokestatic", "invokespecial", "invokevirtual", "invokedirect",
    "invokehandle", "invokedynamic", "putstatic", "astore", "return",
})


def _try_virtualize(graph: Graph, block, alloc: Node, atomics_ok: bool,
                    partial: bool, pool=None) -> int:
    """Attempt scalar replacement of ``alloc``; returns nodes touched."""
    uses_elsewhere = False
    for other in graph.blocks:
        if other is block:
            continue
        for node in itertools.chain(other.phis, other.nodes):
            if alloc in node.inputs:
                uses_elsewhere = True
        t = other.terminator
        if t is not None and t[0] in ("branch", "return") and t[1] is alloc:
            uses_elsewhere = True
    t = block.terminator
    if t is not None and t[0] in ("branch", "return") and t[1] is alloc:
        uses_elsewhere = True
    for phi in block.phis:
        if alloc in phi.inputs:
            uses_elsewhere = True

    # Walk the allocation's block. Track virtual field state; stop at the
    # first escaping use (materialize there if partial EA is allowed).
    fields: dict[str, Node] = {}
    # Nodes of the block passed before the first escape -> the fields
    # written by then: the recipe a deopt state there must carry.
    written_at: dict[Node, tuple] = {}
    removed: list[Node] = []
    # Folded use -> its value.  A stored value is looked up here first:
    # a folded read is deleted, but what it read outlives the walk in
    # ``fields`` (materialization writes it, later reads fold to it).
    replacements: dict[Node, Node] = {}
    inserts: list[tuple[int, Node]] = []
    materialize_at: int | None = None
    start = block.nodes.index(alloc)
    nodes = block.nodes
    index = start + 1
    ok = True
    while index < len(nodes):
        node = nodes[index]
        if alloc not in node.inputs:
            written_at[node] = tuple(fields.items())
            index += 1
            continue
        op = node.op
        if op == "getfield" and node.inputs[0] is alloc:
            value = fields.get(node.value)
            replacements[node] = (value if value is not None
                                  else const_node(_default_for(node)))
            removed.append(node)
        elif op == "putfield" and node.inputs[0] is alloc:
            if node.inputs[1] is alloc:
                ok = False          # self-reference: bail out entirely
                break
            fields[node.value] = replacements.get(node.inputs[1],
                                                  node.inputs[1])
            removed.append(node)
        elif op == "guard" and node.extra.test == "nonnull" \
                and node.inputs[0] is alloc:
            removed.append(node)    # fresh allocations are never null
        elif op == "atomicget" and node.inputs[0] is alloc and atomics_ok:
            value = fields.get(node.value)
            replacements[node] = value if value is not None else const_node(0)
            removed.append(node)
        elif op == "cas" and node.inputs[0] is alloc and atomics_ok:
            expect, update = (replacements.get(n, n)
                              for n in node.inputs[1:3])
            current = fields.get(node.value, None)
            if update is alloc:
                ok = False
                break
            if _same_value(current, expect):
                fields[node.value] = update
                replacements[node] = const_node(1)
                removed.append(node)
            elif _definitely_different(current, expect):
                replacements[node] = const_node(0)
                removed.append(node)
            else:
                ok = False          # undecidable CAS on virtual object
                break
        elif op == "atomicadd" and node.inputs[0] is alloc and atomics_ok:
            current = fields.get(node.value) or const_node(0)
            delta = replacements.get(node.inputs[1], node.inputs[1])
            total = Node("add", [current, delta])
            inserts.append((index, total))
            fields[node.value] = total
            replacements[node] = current
            removed.append(node)
        elif op in ("monitorenter", "monitorexit") and node.inputs[0] is alloc:
            # Lock elision is only sound if the object never escapes.
            if uses_elsewhere or partial is False:
                materialize_at = index
                break
            later_escape = _has_escaping_use(nodes, index, alloc, atomics_ok)
            if later_escape:
                materialize_at = index
                break
            removed.append(node)
        elif op == "instanceof" and node.inputs[0] is alloc:
            # The exact allocated type decides the check — but only with
            # the class pool can subtyping be answered; without it, the
            # object must stay materialized for the runtime check.
            if pool is None:
                materialize_at = index
                break
            is_subtype = pool.get(alloc.value).is_subtype_of(node.value)
            replacements[node] = const_node(1 if is_subtype else 0)
            removed.append(node)
        else:
            # Escaping or unanalyzable use (call argument, store into
            # another object, atomic op with EAWA off, ...).
            materialize_at = index
            break
        index += 1

    if ok and materialize_at is None and uses_elsewhere:
        materialize_at = len(nodes)     # materialize at block end
    virtual = ok and materialize_at is None

    # A deopt state before the first escape rebuilds the object from the
    # fields written by then: any later materialization has not run yet.
    # Once the allocation is gone, every other state gets the final
    # fields; otherwise they keep naming the (re)materialized object.
    final = tuple(fields.items()) if virtual else None

    def to_recipe(state, node):
        written = written_at.get(node, final)
        if written is None:
            return state
        return state.substitute(
            {alloc: VirtualObjectState(alloc.value, written)})

    graph.map_states(to_recipe, None if virtual else [block])
    if not ok:
        return index - start
    if materialize_at is not None:
        if not partial:
            return index - start        # full EA only: give up on escapes
        _materialize(graph, block, alloc, fields, removed, replacements,
                     inserts, materialize_at)
        return index - start

    # Fully virtual: delete the allocation and all folded uses.
    _apply(graph, block, removed, replacements, inserts)
    block.nodes.remove(alloc)
    return index - start


# ----------------------------------------------------------------------
def _materialize(graph, block, alloc, fields, removed, replacements,
                 inserts, position) -> None:
    """Emit a fresh allocation + plain writes before the first remaining
    (escaping) use of ``alloc`` in the block."""
    _apply(graph, block, removed, replacements, inserts)
    new_alloc = Node("new", value=alloc.value)
    writes = [Node("putfield", [new_alloc, v], value=f)
              for f, v in fields.items()]
    block.nodes.remove(alloc)
    anchor_index = len(block.nodes)
    for i, node in enumerate(block.nodes):
        if alloc in node.inputs:
            anchor_index = i
            break
    new_alloc.block = block
    block.nodes.insert(anchor_index, new_alloc)
    for offset, write in enumerate(writes):
        write.block = block
        block.nodes.insert(anchor_index + 1 + offset, write)
    graph.replace_all_uses(alloc, new_alloc)


def _apply(graph, block, removed, replacements, inserts) -> None:
    for node, replacement in replacements.items():
        graph.replace_all_uses(node, replacement)
    for index, node in sorted(inserts, key=lambda p: p[0], reverse=True):
        node.block = block
        block.nodes.insert(index, node)
    for node in removed:
        if node in block.nodes:
            block.nodes.remove(node)


def _has_escaping_use(nodes, from_index, alloc, atomics_ok) -> bool:
    for node in nodes[from_index + 1:]:
        if alloc not in node.inputs:
            continue
        if node.op in _ESCAPING:
            return True
        if not atomics_ok and node.op in ("cas", "atomicget", "atomicadd"):
            return True
    return False


def _default_for(getfield: Node) -> object:
    return 0


def _same_value(current: Node | None, expect: Node) -> bool:
    if current is None:
        return expect.op == "const" and expect.value in (0, None)
    if current is expect:
        return True
    return (current.op == "const" and expect.op == "const"
            and current.value == expect.value)


def _definitely_different(current: Node | None, expect: Node) -> bool:
    if current is None:
        return expect.op == "const" and expect.value not in (0, None)
    return (current.op == "const" and expect.op == "const"
            and current.value != expect.value)
