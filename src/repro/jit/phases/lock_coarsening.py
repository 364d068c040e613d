"""Loop-Wide Lock Coarsening (LLC) — paper Section 5.2.

A loop that acquires and releases the same loop-invariant monitor every
iteration (the ``java.util.Vector``-in-a-loop pattern) is transformed to
hold the lock across chunks of ``C = 32`` iterations: the monitorenter /
monitorexit pair is marked *coarsened*, and every loop exit edge gets a
``monitorexit_if_held`` so the lock is always released when the loop
ends.  At runtime the compiled-code executor skips the release (and the
matching re-acquire) until ``C`` iterations have passed — the tiling of
the paper's transformed snippet, with the same fairness consequences.

Unlike C2's coarsening (full unroll of statically-counted loops only),
this applies to any loop, as the paper describes.
"""

from __future__ import annotations

import itertools

from repro.jit.ir import Graph, Node
from repro.jit.loops import Loop, find_loops


def run(graph: Graph, config, stats) -> None:
    processed = 0
    coarsened = 0
    # Sites are numbered per graph: a frame's held-lock table is keyed
    # by site, and the compiled code must not depend on earlier compiles.
    sites = itertools.count(1)
    for loop in find_loops(graph):
        processed += len(loop.blocks) * 3
        coarsened += _try_coarsen(graph, loop, config.lock_coarsen_chunk,
                                  sites)
    stats.phase("lock-coarsen", graph.node_count() + processed
                + coarsened * 30)


def _try_coarsen(graph: Graph, loop: Loop, chunk: int,
                 sites) -> int:
    blocks = [loop._block_map[b] for b in loop.blocks
              if loop._block_map.get(b) in graph.blocks]
    by_lock: dict[int, list] = {}
    for block in blocks:
        for node in block.nodes:
            if node.op in ("monitorenter", "monitorexit"):
                by_lock.setdefault(node.inputs[0].id, []).append(node)
            elif node.op in ("wait", "notify", "notifyall", "park"):
                return 0   # guarded blocks inside: keep locking exact
    coarsened = 0
    pending_releases: list[tuple[Node, tuple]] = []
    for ops in by_lock.values():
        # Exactly one enter/exit pair per lock, lock loop-invariant.
        enters = [n for n in ops if n.op == "monitorenter"]
        exits = [n for n in ops if n.op == "monitorexit"]
        if len(enters) != 1 or len(exits) != 1:
            continue
        lock = enters[0].inputs[0]
        if lock.block is not None and lock.block.id in loop.blocks:
            continue
        site = next(sites)
        tag = ("coarsen", site, chunk)
        enters[0].extra = tag
        exits[0].extra = tag
        pending_releases.append((lock, tag))
        coarsened += 1
    if pending_releases:
        # Release every held lock on every edge that leaves the loop.
        for from_block, to_block in loop.exits():
            if from_block not in graph.blocks:
                continue
            releases = [Node("monitorexit_if_held", [lock], extra=tag)
                        for lock, tag in pending_releases]
            _insert_on_edge(graph, from_block, to_block, releases)
    return coarsened


def _insert_on_edge(graph: Graph, from_block, to_block,
                    nodes: list[Node]) -> None:
    """Split the CFG edge with a block containing ``nodes``."""
    edge = graph.new_block()
    edge.bc_pc = to_block.bc_pc
    for node in nodes:
        node.block = edge
    edge.nodes.extend(nodes)
    edge.terminator = ("jump", to_block)
    from_block.replace_successor(to_block, edge)
    # Keep φ alignment in to_block: swap the pred identity in place.
    for i, pred in enumerate(to_block.preds):
        if pred is from_block:
            to_block.preds[i] = edge
            break
    edge.preds = [from_block]
