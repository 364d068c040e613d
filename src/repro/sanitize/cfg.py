"""Control-flow graphs over simulated-JVM bytecode.

A :class:`CFG` partitions an :class:`~repro.jvm.bytecode.Instr` list
into basic blocks at :func:`repro.jvm.bytecode.block_leaders` (the rule
the JIT's graph builder uses too) and records the successor/predecessor
edges implied by :func:`repro.jvm.bytecode.branch_targets`.  The graph is the
substrate for the dataflow engine (:mod:`repro.sanitize.dataflow`) and
for the static passes; :func:`dominators` provides the classic iterative
dominator sets used by loop/locking analyses.

Unreachable blocks are kept in :attr:`CFG.blocks` (the verifier reports
them) but excluded from :meth:`CFG.rpo` and from dataflow solving.
"""

from __future__ import annotations

from repro.jvm.bytecode import Instr, block_leaders, branch_targets


class BasicBlock:
    """A maximal straight-line pc range ``[start, end)``."""

    __slots__ = ("index", "start", "end", "succs", "preds")

    def __init__(self, index: int, start: int, end: int) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.succs: list[int] = []     # successor block indices
        self.preds: list[int] = []     # predecessor block indices

    def pcs(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:
        return (f"<B{self.index} [{self.start},{self.end}) "
                f"-> {self.succs}>")


class CFG:
    """Basic blocks plus edges for one method's bytecode."""

    def __init__(self, code: list[Instr], blocks: list[BasicBlock],
                 entry: int) -> None:
        self.code = code
        self.blocks = blocks
        self.entry = entry
        self._block_of_pc: dict[int, int] = {}
        for block in blocks:
            for pc in block.pcs():
                self._block_of_pc[pc] = block.index

    def block_of(self, pc: int) -> BasicBlock:
        return self.blocks[self._block_of_pc[pc]]

    def reachable(self) -> list[BasicBlock]:
        """Blocks reachable from the entry, in discovery order."""
        seen = {self.entry}
        order = [self.entry]
        stack = [self.entry]
        while stack:
            for succ in self.blocks[stack.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
                    stack.append(succ)
        return [self.blocks[i] for i in sorted(order)]

    def rpo(self) -> list[BasicBlock]:
        """Reachable blocks in reverse postorder (forward-dataflow order)."""
        seen: set[int] = set()
        post: list[int] = []

        def visit(index: int) -> None:
            stack = [(index, iter(self.blocks[index].succs))]
            seen.add(index)
            while stack:
                node, succs = stack[-1]
                advanced = False
                for succ in succs:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    post.append(node)
                    stack.pop()

        visit(self.entry)
        return [self.blocks[i] for i in reversed(post)]

    def __repr__(self) -> str:
        return f"<CFG {len(self.blocks)} blocks, entry B{self.entry}>"


def build_cfg(code: list[Instr]) -> CFG:
    """Partition ``code`` into basic blocks and wire the edges."""
    n = len(code)
    if n == 0:
        raise ValueError("cannot build a CFG for empty code")
    ordered = sorted(block_leaders(code))
    blocks: list[BasicBlock] = []
    for i, start in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else n
        blocks.append(BasicBlock(i, start, end))
    index_of = {b.start: b.index for b in blocks}
    for block in blocks:
        last_pc = block.end - 1
        for target in branch_targets(code[last_pc], last_pc):
            succ = index_of[target]
            block.succs.append(succ)
            blocks[succ].preds.append(block.index)
    return CFG(code, blocks, index_of[0])


def dominators(cfg: CFG) -> dict[int, frozenset[int]]:
    """Dominator sets per reachable block (iterative fixpoint).

    ``dominators(cfg)[b]`` contains every block index that dominates
    ``b`` (including ``b`` itself).  Unreachable blocks are absent.
    """
    order = cfg.rpo()
    reachable = {b.index for b in order}
    every = frozenset(reachable)
    doms: dict[int, frozenset[int]] = {
        b.index: every for b in order}
    doms[cfg.entry] = frozenset({cfg.entry})
    changed = True
    while changed:
        changed = False
        for block in order:
            if block.index == cfg.entry:
                continue
            preds = [p for p in block.preds if p in reachable]
            new = every
            for pred in preds:
                new = new & doms[pred]
            new = new | {block.index}
            if new != doms[block.index]:
                doms[block.index] = new
                changed = True
    return doms
