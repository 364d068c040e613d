"""Shared helpers for optimization phases."""

from __future__ import annotations

import itertools

from repro.jit.ir import Block, Graph, Node, resolve


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


def value_key(node: Node, pending: dict):
    """``node``'s value number with its inputs read through ``pending``
    (replacements not yet applied), or None when it is unhashable.
    ``type(value)`` is part of the key: 0 == 0.0 in Python, but const 0
    and const 0.0 are different guest values."""
    key = (node.op, tuple(resolve(pending, i).id for i in node.inputs),
           type(node.value).__name__, node.value, node.extra)
    try:
        hash(key)
    except TypeError:
        return None
    return key


def used_ids(graph: Graph) -> set[int]:
    """Ids of the nodes something still reads: an input (a φ reading
    itself does not count), a branch condition, a return value, or a
    deopt state."""
    used = {node.id for state in graph.states() for node in state.nodes()}
    for block in graph.blocks:
        for node in itertools.chain(block.phis, block.nodes):
            for inp in node.inputs:
                if inp is not node:
                    used.add(inp.id)
        t = block.terminator
        if t is not None and t[0] in ("branch", "return") \
                and t[1] is not None:
            used.add(t[1].id)
    return used
