"""Unit tests for the IR, graph builder, and loop analysis."""

from types import SimpleNamespace

from repro.jvm.bytecode import Instr, Op
from repro.jvm.classfile import ClassPool, JClass, JMethod
from repro.jit.graph_builder import build_graph
from repro.jit.ir import FrameState, Graph, Node, VirtualObjectState
from repro.jit.loops import compute_dominators, dominates, find_loops
from repro.lang import compile_program


def build_from_source(src, cls, method):
    program = compile_program(src, include_stdlib=False)
    pool = ClassPool()
    for c in program.classes:
        pool.define(c)
    pool.link_all()
    return build_graph(pool.get(cls).resolve_method(method), pool), pool


def test_straightline_method_single_block():
    graph, _ = build_from_source(
        "class T { static def m(a, b) { return a * b + 1; } }", "T", "m")
    body_blocks = [b for b in graph.blocks if b is not graph.entry]
    assert len(body_blocks) == 1
    ops = [n.op for n in body_blocks[0].nodes]
    assert "mul" in ops and "add" in ops
    assert body_blocks[0].terminator[0] == "return"


def test_if_produces_branch_and_merge_phi():
    graph, _ = build_from_source("""
    class T { static def m(a) {
        var x = 1;
        if (a > 0) { x = 2; } else { x = 3; }
        return x;
    } }""", "T", "m")
    phis = [p for b in graph.blocks for p in b.phis]
    assert len(phis) == 1
    assert len(phis[0].inputs) == 2
    branches = [b for b in graph.blocks
                if b.terminator and b.terminator[0] == "branch"]
    assert len(branches) == 1


def test_loop_produces_header_phi_and_back_edge():
    graph, _ = build_from_source("""
    class T { static def m(n) {
        var s = 0;
        var i = 0;
        while (i < n) { s = s + i; i = i + 1; }
        return s;
    } }""", "T", "m")
    loops = find_loops(graph)
    assert len(loops) == 1
    assert len(loops[0].header.phis) >= 2    # s and i


def test_guards_emitted_for_array_access():
    graph, _ = build_from_source("""
    class T { static def m(a, i) { return a[i]; } }""", "T", "m")
    guards = [n for b in graph.blocks for n in b.nodes if n.op == "guard"]
    kinds = {g.extra.kind for g in guards}
    assert "NullCheckException" in kinds
    assert "BoundsCheckException" in kinds
    for g in guards:
        assert g.extra.state is not None
        assert g.extra.state.method.name == "m"


def test_no_null_guard_on_this():
    graph, _ = build_from_source("""
    class T { var f; def init() { this.f = 0; } def m() { return this.f; } }
    """, "T", "m")
    guards = [n for b in graph.blocks for n in b.nodes if n.op == "guard"]
    assert guards == []


def test_invoke_carries_callsite_framestate():
    graph, _ = build_from_source("""
    class T {
        static def callee(x) { return x; }
        static def m(a) { return T.callee(a + 1); }
    }""", "T", "m")
    invokes = [n for b in graph.blocks for n in b.nodes
               if n.op == "invokestatic"]
    assert len(invokes) == 1
    state = invokes[0].value
    assert isinstance(state, FrameState)
    assert len(state.stack) == 1          # the argument, pre-pop


def test_unreachable_code_dropped():
    graph, _ = build_from_source("""
    class T { static def m() {
        while (true) {
            if (1 == 2) { break; }
        }
        return 9;
    } }""", "T", "m")
    # builds without error; the trailing return block may be unreachable
    assert graph.entry in graph.blocks


def test_replace_uses_updates_framestates():
    graph, _ = build_from_source(
        "class T { static def m(a, i) { return a[i]; } }", "T", "m")
    guard = next(n for b in graph.blocks for n in b.nodes
                 if n.op == "guard" and n.extra.test == "bounds")
    old = guard.inputs[0]
    new = Node("const", value=0)
    graph.replace_uses({old: new})
    assert old not in guard.inputs or guard.inputs[0] is new
    assert all(v is not old for v in guard.extra.state.values())


def test_replace_uses_reaches_nested_recipes_and_keeps_untouched_states():
    # A two-deep rematerialization recipe (Outer -> Inner -> node), the
    # shape escape analysis nests: the replaced node must not survive
    # inside the inner recipe, and a state that never mentioned it must
    # come back as the very same object (not a rebuilt copy).
    graph, _ = build_from_source(
        "class T { static def m(a, i) { return a[i]; } }", "T", "m")
    guards = [n for b in graph.blocks for n in b.nodes if n.op == "guard"]
    touched, untouched = guards[0], guards[1]
    old, new, other = (Node("const", value=k) for k in (1, 2, 3))
    inner = VirtualObjectState("Inner", (("v", old), ("w", other)))
    outer = VirtualObjectState("Outer", (("inner", inner), ("k", other)))
    bystander = VirtualObjectState("Inner", (("v", other),))
    caller = FrameState(5, (other, bystander), (), method="caller")
    touched.extra.state = FrameState(9, (outer, bystander), (other,),
                                     method="callee", caller=caller, drop=1)
    untouched.extra.state = kept = FrameState(
        3, (other, bystander), (), method="callee", caller=caller)

    graph.replace_uses({old: new})

    state = touched.extra.state
    live = {n.id for n in state.nodes()}
    assert old.id not in live and new.id in live
    got_outer = state.locals[0]
    assert got_outer.field_values[0][1].field_values == (
        ("v", new), ("w", other))
    assert got_outer.field_values[1] == ("k", other)
    # Identity is preserved wherever nothing changed.
    assert state.locals[1] is bystander
    assert state.caller is caller and state.drop == 1
    assert untouched.extra.state is kept
    assert inner.field_values[0][1] is old      # originals not mutated

    # Three deep (Top -> Outer -> Inner -> node), with the inner recipe
    # shared by two slots: the node goes at every depth and the shared
    # recipe stays one object, so deopt rebuilds one guest object.
    top = VirtualObjectState("Top", (("o", outer),))
    touched.extra.state = FrameState(9, (top, inner), (), method="callee",
                                     caller=caller)
    graph.replace_uses({old: new})
    state = touched.extra.state
    assert old not in set(state.nodes()) and new in set(state.nodes())
    got_top, got_inner = state.locals
    assert got_top.field_values[0][1].field_values[0][1] is got_inner
    assert got_inner.field_values == (("v", new), ("w", other))
    assert state.caller is caller


def _uses(graph):
    """Every value the graph reads: inputs, terminators, deopt states."""
    found = [i for b in graph.blocks for n in b.phis + b.nodes
             for i in n.inputs]
    found += [b.terminator[1] for b in graph.blocks
              if b.terminator[0] in ("branch", "return")]
    return found + [n for state in graph.states() for n in state.nodes()]


def test_replace_uses_resolves_chains():
    # a -> b and b -> c in one mapping: every use of a and of b ends at
    # c, in inputs, the return terminator and a nested recipe alike.
    graph, _ = build_from_source(
        "class T { static def m(a, i) { return a[i]; } }", "T", "m")
    load = next(n for b in graph.blocks for n in b.nodes if n.op == "aload")
    index = graph.params[1]
    guard = next(n for b in graph.blocks for n in b.nodes
                 if n.op == "guard" and n.extra.test == "bounds")
    inner = VirtualObjectState("Inner", (("v", load), ("w", index)))
    outer = VirtualObjectState("Outer", (("inner", inner),))
    guard.extra.state = FrameState(9, (outer,), (load,), method="callee")
    const = Node("const", value=7)

    graph.replace_uses({load: index, index: const})

    uses = _uses(graph)
    assert load not in uses and index not in uses and const in uses
    ret = next(b.terminator for b in graph.blocks
               if b.terminator[0] == "return")
    assert ret[1] is const
    got = guard.extra.state.locals[0].field_values[0][1]
    assert got.field_values == (("v", const), ("w", const))


def test_cse_applies_a_pass_in_one_walk(monkeypatch):
    # One value and three duplicates of it in one block: the pass
    # collects three replacements and walks the deopt states once.
    from repro.jit.phases.cleanup import cse

    graph, _ = build_from_source("""
    class T { static def m(a) { return a * a + a * a + a * a + a * a; } }
    """, "T", "m")
    muls = [n for b in graph.blocks for n in b.nodes if n.op == "mul"]
    assert len(muls) == 4
    walks = []
    map_states = Graph.map_states

    def counting(self, fn, blocks=None):
        walks.append(self)
        return map_states(self, fn, blocks)

    monkeypatch.setattr(Graph, "map_states", counting)
    assert cse(graph)
    assert len(walks) == 1
    assert [n for b in graph.blocks for n in b.nodes if n.op == "mul"] \
        == muls[:1]
    assert not set(muls[1:]) & set(_uses(graph))


def test_recompute_preds_removes_phis_made_trivial_by_a_later_collapse():
    # Merge block M holds p = φ(x, q) and then q = φ(x, x).  Collapsing q
    # leaves p = φ(x, x), trivial in turn: a single sweep in block order
    # would keep p; the fixed point removes it too.
    graph = Graph(SimpleNamespace(qualified="T.m"))
    entry, left, right, merge = (graph.new_block() for _ in range(4))
    graph.entry = entry
    x = Node("param")
    entry.append(x)
    graph.params = [x]
    entry.terminator = ("branch", x, left, right)
    left.terminator = right.terminator = ("jump", merge)
    for pred, succ in ((entry, left), (entry, right), (left, merge),
                       (right, merge)):
        succ.preds.append(pred)
    q = Node("phi", [x, x])
    p = merge.add_phi(Node("phi", [x, q]))
    merge.add_phi(q)
    merge.terminator = ("return", p)

    graph.recompute_preds()

    assert merge.phis == []
    assert merge.terminator == ("return", x)


def test_dominators_of_diamond():
    graph, _ = build_from_source("""
    class T { static def m(a) {
        var x = 0;
        if (a > 0) { x = 1; } else { x = 2; }
        return x;
    } }""", "T", "m")
    idom = compute_dominators(graph)
    blocks = graph.reachable_blocks()
    entry = graph.entry
    for block in blocks:
        assert dominates(idom, entry, block)
    merge = next(b for b in blocks if b.phis)
    arms = [b for b in blocks if merge in b.successors]
    for arm in arms:
        assert not dominates(idom, arm, merge) or len(arms) == 1


def test_nested_loops_detected_with_correct_membership():
    graph, _ = build_from_source("""
    class T { static def m(n) {
        var acc = 0;
        var i = 0;
        while (i < n) {
            var j = 0;
            while (j < n) { acc = acc + 1; j = j + 1; }
            i = i + 1;
        }
        return acc;
    } }""", "T", "m")
    loops = find_loops(graph)
    assert len(loops) == 2
    outer, inner = loops[0], loops[1]   # sorted by size desc
    assert len(outer.blocks) > len(inner.blocks)
    assert inner.header.id in outer.blocks


def test_framestate_with_caller_chain():
    inner = FrameState(3, (None,), (), method="inner")
    outer = FrameState(7, (None,), ("x",), method="outer")
    rooted = inner.with_caller(outer, drop=2)
    assert rooted.caller is outer
    assert rooted.drop == 2
    deeper = rooted.with_caller(FrameState(9, (), (), method="top"), drop=1)
    assert deeper.caller.caller.method == "top"
    assert deeper.caller.drop == 1
    assert deeper.drop == 2
