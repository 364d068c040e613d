"""Shared helpers for optimization phases."""

from __future__ import annotations

from repro.jit.ir import Block, Graph, Node


def exact_type(node: Node) -> str | None:
    """Exact dynamic class of ``node``'s value, if statically known.

    Fresh allocations have an exact type; closures are ``Function``;
    φ-nodes propagate when all inputs agree.
    """
    seen: set[int] = set()

    def walk(n: Node) -> str | None:
        if n.id in seen:
            return None
        seen.add(n.id)
        if n.op == "new":
            return n.value
        if n.op == "invokedynamic":
            return "Function"
        if n.op == "checkcast":
            return walk(n.inputs[0])
        if n.op == "phi":
            types = {walk(i) for i in n.inputs if i is not n}
            if len(types) == 1:
                return types.pop()
            return None
        return None

    return walk(node)


def insert_before(block: Block, anchor: Node, new_node: Node) -> Node:
    """Insert ``new_node`` into ``block`` immediately before ``anchor``."""
    index = block.nodes.index(anchor)
    new_node.block = block
    block.nodes.insert(index, new_node)
    return new_node


def const_node(value) -> Node:
    """A constant node (constants need no block: lowering inlines them)."""
    return Node("const", value=value)


def state_uses(graph: Graph) -> set[int]:
    """Node ids referenced by any framestate in the graph (guards, call
    sites, and block entry states)."""
    from repro.jit.ir import FrameState, _collect_state_value

    live: set[int] = set()
    for block in graph.blocks:
        if block.entry_state is not None:
            for v in block.entry_state.values():
                _collect_state_value(v, live)
        for node in block.nodes:
            if node.op == "guard" and node.extra.state is not None:
                for v in node.extra.state.values():
                    _collect_state_value(v, live)
            elif isinstance(node.value, FrameState):
                for v in node.value.values():
                    _collect_state_value(v, live)
    return live
