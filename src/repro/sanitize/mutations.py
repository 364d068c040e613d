"""Mutation corpus: deliberately broken IR and superblock artifacts.

The verifier's own test harness.  Each mutator takes a freshly built,
*correct* compilation of the corpus program and breaks exactly one
invariant — a dropped operand, a cleared terminator, a monitorexit
deleted, a tampered budget flush — at a chosen pipeline phase (via
``run_pipeline``'s ``mutate`` hook) or on the emitted tier-1 and tier-2
code.  A healthy verifier detects every variant and attributes it to
the phase whose checkpoint observed it; a verifier that misses one has
a hole exactly where a real phase bug could hide.

``run_corpus()`` executes every variant and returns one
:class:`MutationResult` per mutation; the ``repro.sanitize --mutations``
CLI and the tier-2 ``make verify-ir`` target both drive it.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass

from repro.jit.ir import FrameState, Node, Block

__all__ = ["MutationResult", "run_corpus", "IR_MUTATIONS", "EMIT_MUTATIONS",
           "CORPUS_SOURCE", "DRIVER_SOURCE"]


#: Guest program every variant compiles: a bounds-guarded reduction loop
#: (guards, φ-nodes), a synchronized region (monitors), a recursive call
#: that survives inlining (callsite framestates), and a scalar-replaced
#: allocation (escape analysis material) kept live across a bounds guard
#: so a rematerialization recipe lands in that guard's framestate.
CORPUS_SOURCE = """
class Box { var v; }
class T {
    static def rec(x) {
        if (x < 1) { return 0; }
        return T.rec(x - 1) + x;
    }
    static def m(a, n, lock) {
        var i = 0;
        var s = 0;
        while (i < n) {
            s = s + a[i];
            i = i + 1;
        }
        synchronized (lock) {
            s = s + T.rec(n);
        }
        var b = new Box();
        b.v = s;
        s = s + a[0];
        return s + b.v;
    }
}
"""

#: The corpus plus an entry point: run hot under a guest JIT, ``T.m`` is
#: inlined into ``Main.main``, whose machine code tier-2 emits.
DRIVER_SOURCE = CORPUS_SOURCE + """
class Lock { }
class Main {
    static def main() {
        var a = new int[4];
        var i = 0;
        while (i < 4) { a[i] = i + 1; i = i + 1; }
        return T.m(a, 4, new Lock());
    }
}
"""


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one corpus variant."""

    name: str         # mutator name
    layer: str        # "ir" (pipeline checkpoint) or "emit" (superblock)
    phase: str        # phase the break is planted after (emit: the tier)
    detected: bool    # did the verifier flag it at all?
    attributed: bool  # ...and blame the right phase?
    message: str      # the verifier's first finding (or why not)

    def format(self) -> str:
        mark = "DETECTED" if self.detected and self.attributed else (
            "MISATTRIBUTED" if self.detected else "MISSED")
        return f"{mark:13s} {self.layer}:{self.name} @ {self.phase}"


class CannotApply(Exception):
    """The corpus program lost the structure this mutator targets —
    a corpus bug, not a verifier finding."""


# ----------------------------------------------------------------------
# IR-level mutators.  Each receives the graph right after its phase ran
# and must break exactly one invariant.
# ----------------------------------------------------------------------
def _find(graph, pred, what):
    for block in graph.blocks:
        for index, node in enumerate(block.nodes):
            if pred(node):
                return block, index, node
    raise CannotApply(f"corpus program has no {what}")


_BINARY = {"add", "sub", "mul", "div", "cmp", "and", "or", "xor"}
_INVOKES = {"invokestatic", "invokespecial", "invokevirtual",
            "invokedirect", "invokehandle"}


def _drop_binary_operand(graph):
    _, _, node = _find(graph, lambda n: n.op in _BINARY
                       and len(n.inputs) == 2, "binary node")
    node.inputs.pop()


def _drop_callsite_state(graph):
    _, _, node = _find(graph, lambda n: n.op in _INVOKES
                       and isinstance(n.value, FrameState),
                       "stateful invoke")
    node.value = None


def _clear_terminator(graph):
    graph.blocks[-1].terminator = None


def _drop_phi_input(graph):
    for block in graph.blocks:
        if block.phis and len(block.preds) >= 2:
            block.phis[0].inputs.pop()
            return
    raise CannotApply("corpus program has no merge-point phi")


def _stale_block_backref(graph):
    if len(graph.blocks) < 2:
        raise CannotApply("corpus graph has a single block")
    _, _, node = _find(graph, lambda n: True, "node")
    node.block = graph.blocks[-1] if node.block is not graph.blocks[-1] \
        else graph.blocks[0]


def _double_schedule(graph):
    block, _, node = _find(graph, lambda n: True, "node")
    other = next((b for b in graph.blocks if b is not block), None)
    if other is None:
        raise CannotApply("corpus graph has a single block")
    other.nodes.append(node)


def _drop_guard_state(graph):
    _, _, node = _find(graph, lambda n: n.op == "guard", "guard")
    node.extra.state = None


def _add_guard_operand(graph):
    _, _, node = _find(graph, lambda n: n.op == "guard" and n.inputs,
                       "guard with operands")
    node.inputs.append(node.inputs[0])


def _sink_def_past_use(graph):
    for block in graph.blocks:
        nodes = block.nodes
        for j, use in enumerate(nodes):
            for i in range(j):
                node = nodes[i]
                if node in use.inputs and node.op not in ("const", "param"):
                    del nodes[i]
                    nodes.append(node)
                    return
    raise CannotApply("corpus program has no same-block def/use pair")


def _drop_monitorexit(graph):
    block, index, _ = _find(graph, lambda n: n.op == "monitorexit",
                            "monitorexit")
    del block.nodes[index]


def _dangle_operand(graph):
    _, _, node = _find(graph, lambda n: len(n.inputs) >= 1
                       and n.op != "phi", "node with operands")
    orphan = Node("add", [Node("const", value=1), Node("const", value=1)])
    node.inputs[0] = orphan


def _vos_field_from_future(graph):
    """Point a rematerialization-recipe field at a ``new`` scheduled
    *after* the guard that carries the recipe — the shape of a real
    partial-escape-analysis bug (a later materialization rewriting an
    earlier guard's recipe) that the verifier must reject."""
    from repro.jit.ir import VirtualObjectState

    for block in graph.blocks:
        for node in block.nodes:
            if node.op != "guard" or node.extra.state is None:
                continue
            for value in node.extra.state.values():
                if isinstance(value, VirtualObjectState) \
                        and value.field_values:
                    future = Node("new", value=value.class_name)
                    future.block = block
                    block.nodes.append(future)
                    name, _ = value.field_values[0]
                    value.field_values = \
                        ((name, future),) + value.field_values[1:]
                    return
    raise CannotApply("corpus program has no guard carrying a "
                      "virtual-object recipe")


def _branch_to_foreign_block(graph):
    for block in graph.blocks:
        t = block.terminator
        if t is not None and t[0] == "branch":
            block.terminator = ("branch", t[1], Block(), t[3])
            return
    raise CannotApply("corpus program has no branch")


#: name -> (phase planted after, mutator).  One checkpoint each; the
#: verifier must attribute the break to exactly that phase.
IR_MUTATIONS = {
    "binary-operand-dropped": ("parse", _drop_binary_operand),
    "callsite-state-dropped": ("inlining", _drop_callsite_state),
    "terminator-cleared": ("cleanup", _clear_terminator),
    "phi-input-dropped": ("method-handle", _drop_phi_input),
    "stale-block-backref": ("escape-analysis", _stale_block_backref),
    "recipe-field-from-future": ("escape-analysis", _vos_field_from_future),
    "node-doubly-scheduled": ("duplication", _double_schedule),
    "guard-state-dropped": ("guard-motion", _drop_guard_state),
    "guard-operand-added": ("vectorize", _add_guard_operand),
    "def-sunk-past-use": ("unroll", _sink_def_past_use),
    "monitorexit-dropped": ("lock-coarsen", _drop_monitorexit),
    "dangling-operand": ("atomic-coalesce", _dangle_operand),
    "branch-target-foreign": ("schedule", _branch_to_foreign_block),
}


# ----------------------------------------------------------------------
# Emit-level mutators: tamper with a correct Tier1Code or Tier2Code;
# blockverify must notice the artifact no longer matches the independent
# ground truth.
# ----------------------------------------------------------------------
def _shift_entry(code):
    entries = list(code.entries)
    for pc, fn in enumerate(entries):
        if fn is not None and pc + 1 < len(entries) \
                and entries[pc + 1] is None:
            entries[pc + 1] = fn
            entries[pc] = None
            code.entries = entries
            return
    raise CannotApply("no shiftable superblock entry")


def _tamper_sites(code):
    code.sites += 3


def _tamper_nblocks(code):
    code.nblocks += 1


def _tamper_cycles(code):
    code.compile_cycles += 7


def _tamper_source(pattern, what, change=lambda value: value + 1):
    """``change`` the first ``what`` constant in the generated text:
    tier-1's one module, or the first tier-2 block that has one."""
    rx = re.compile(pattern)

    def mutate(code):
        texts = code.source
        for key in ([None] if isinstance(texts, str) else sorted(texts)):
            text = texts if key is None else texts[key]
            match = rx.search(text)
            if match is None:
                continue
            text = (text[:match.start()] + match.group(1)
                    + str(change(int(match.group(2)))) + text[match.end():])
            code.source = text if key is None else {**texts, key: text}
            return
        raise CannotApply(f"emitted source has no {what}")
    return mutate


#: An exit call up to its constant charged, counted, pc and reason.
_EXIT = r"_x\(thread, frame, budget, \w+, \w+, "

EMIT_MUTATIONS = {
    "entry-shifted-off-leader": _shift_entry,
    "sites-total-tampered": _tamper_sites,
    "nblocks-total-tampered": _tamper_nblocks,
    "compile-cycles-tampered": _tamper_cycles,
    "budget-flush-tampered": _tamper_source(
        rf"({_EXIT})(\d+)", "exit charge"),
    "instruction-count-tampered": _tamper_source(
        rf"({_EXIT}\d+, )(\d+)", "exit instruction count"),
    # A budget exit parked one pc early: still a resumable index.
    "exit-pc-tampered": _tamper_source(
        rf"({_EXIT}\d+, \d+, )(\d+)(?=, 'budget'\))", "budget exit",
        lambda pc: pc - 1),
    "budget-guard-zeroed": _tamper_source(
        r"(if budget <= )([1-9]\d*)", "nonzero budget guard",
        lambda k: 0),
}


# ----------------------------------------------------------------------
# Harness.
# ----------------------------------------------------------------------
def _build_graph():
    from repro.jit.graph_builder import build_graph
    from repro.jvm.classfile import ClassPool
    from repro.lang import compile_program

    program = compile_program(CORPUS_SOURCE)
    pool = ClassPool()
    for cls in program.classes:
        pool.define(cls)
    pool.link_all()
    return build_graph(pool.get("T").resolve_method("m"), pool), pool


def _run_ir_variant(name: str, phase: str, mutator) -> MutationResult:
    from repro.jit.jit import CompileStats
    from repro.jit.pipeline import graal_config, run_pipeline
    from repro.sanitize.irverify import IRVerifyError

    graph, pool = _build_graph()
    try:
        run_pipeline(graph, graal_config(), pool, CompileStats(),
                     verify=True, mutate={phase: mutator})
    except IRVerifyError as exc:
        return MutationResult(name, "ir", phase, True, exc.phase == phase,
                              exc.issues[0].message if exc.issues
                              else str(exc))
    return MutationResult(name, "ir", phase, False, False,
                          "verified clean — mutation not detected")


def _compile_tier1():
    """A correct Tier1Code for the corpus method, straight off the
    emitter (no VM run needed: the emitter is a pure function of the
    bytecode)."""
    from repro.jit.emit import compile_method
    from repro.runtime.vm import VM

    from repro.lang import compile_program

    vm = VM(jit=None, engine="tier1")
    vm.load(compile_program(CORPUS_SOURCE))
    method = vm.pool.get("T").resolve_method("m")
    return compile_method(vm.interpreter, method), method


def _compile_tier2():
    """A correct Tier2Code for the corpus driver: tier-2 emits blocks as
    frames reach them, so the driver runs hot until its machine code has
    blocks."""
    from repro.jit.pipeline import graal_config
    from repro.lang import compile_program
    from repro.runtime.vm import VM

    vm = VM(jit=graal_config(compile_threshold=1), engine="tier2")
    vm.load(compile_program(DRIVER_SOURCE))
    for _ in range(5):
        vm.invoke("Main.main")
    t2 = vm.machine._memo.get(vm.resolve_static("Main", "main").compiled)
    if t2 is None or not t2.nblocks:
        raise CannotApply("tier-2 emitted no blocks for the corpus driver")
    return t2


def _verify_emitted(tier: str):
    """``(artifact, verify)`` for a fresh, correct compile of ``tier``."""
    from repro.sanitize.blockverify import verify_tier1_code, verify_tier2_code

    if tier == "tier-1":
        code, method = _compile_tier1()
        return code, lambda c: verify_tier1_code(c, method)
    return _compile_tier2(), verify_tier2_code


def _run_emit_variant(name: str, mutator, tier: str) -> MutationResult:
    code, verify = _verify_emitted(tier)
    baseline = verify(code)
    if baseline:
        return MutationResult(name, "emit", tier, False, False,
                              f"corpus artifact not clean: "
                              f"{baseline[0].message}")
    tampered = copy.copy(code)
    tampered.entries = list(code.entries)
    mutator(tampered)
    issues = verify(tampered)
    if issues:
        return MutationResult(name, "emit", tier, True, True,
                              issues[0].message)
    return MutationResult(name, "emit", tier, False, False,
                          "verified clean — mutation not detected")


def run_corpus(*, ir: bool = True, emit: bool = True) -> list[MutationResult]:
    """Run every corpus variant; returns one result per mutation."""
    results: list[MutationResult] = []
    if ir:
        for name, (phase, mutator) in IR_MUTATIONS.items():
            results.append(_run_ir_variant(name, phase, mutator))
    if emit:
        for tier in ("tier-1", "tier-2"):
            for name, mutator in EMIT_MUTATIONS.items():
                results.append(_run_emit_variant(name, mutator, tier))
    return results
