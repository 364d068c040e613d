"""Unit tests for IR lowering and compiled-code structure."""

from repro.jvm.classfile import ClassPool
from repro.jit.graph_builder import build_graph
from repro.jit.jit import CompileStats
from repro.jit.lowering import lower
from repro.jit.pipeline import graal_config, run_pipeline
from repro.lang import compile_program


def compile_method(src, cls="T", method="m", config=None):
    program = compile_program(src, include_stdlib=False)
    pool = ClassPool()
    for c in program.classes:
        pool.define(c)
    pool.link_all()
    config = config or graal_config()
    graph = build_graph(pool.get(cls).resolve_method(method), pool)
    run_pipeline(graph, config, pool, CompileStats())
    return lower(graph, config, pool), pool


def kinds(code):
    return [ins[0] for ins in code.instrs]


def test_lowered_code_has_costs_and_terminator():
    code, _ = compile_method(
        "class T { static def m(a, b) { return a * b + a; } }")
    assert all(isinstance(ins[1], int) and ins[1] >= 1
               for ins in code.instrs)
    assert kinds(code)[-1] == "ret" or "ret" in kinds(code)
    assert code.size_bytes == len(code.instrs) * 16
    assert code.nargs == 2


def test_constants_materialized_at_entry():
    code, _ = compile_method(
        "class T { static def m() { return 41 + 1; } }")
    # Folded to a single constant, loaded via the consts table.
    assert any(v == 42 for _, v in code.consts)


def test_branch_targets_resolved_to_indices():
    code, _ = compile_method("""
    class T { static def m(a) {
        if (a > 0) { return 1; }
        return 2;
    } }""")
    for ins in code.instrs:
        if ins[0] == "branch":
            assert isinstance(ins[3], int) and isinstance(ins[4], int)
            assert 0 <= ins[3] < len(code.instrs)
            assert 0 <= ins[4] < len(code.instrs)


def test_phi_moves_emitted_on_loop_back_edge():
    code, _ = compile_method("""
    class T { static def m(n) {
        var s = 0;
        var i = 0;
        while (i < n) { s = s + i; i = i + 1; }
        return s;
    } }""")
    assert "phimove" in kinds(code)


def test_vectorized_loop_costs_are_scaled():
    src = """
    class T { static def m(a, b, n) {
        var i = 0;
        while (i < n) { b[i] = a[i] * 2; i = i + 1; }
        return n;
    } }"""
    fast, _ = compile_method(src)
    slow, _ = compile_method(src, config=graal_config().without("LV"))
    fast_body = sum(ins[1] for ins in fast.instrs
                    if ins[0] in ("aload", "astore", "mul"))
    slow_body = sum(ins[1] for ins in slow.instrs
                    if ins[0] in ("aload", "astore", "mul"))
    assert fast_body < slow_body


def test_guard_instructions_carry_deopt_metadata():
    code, _ = compile_method(
        "class T { static def m(a, i) { return a[i]; } }")
    guards = [ins for ins in code.instrs if ins[0] == "guard"]
    assert guards
    for ins in guards:
        meta_index = ins[7]
        assert meta_index is not None
        chain = code.deopt_meta[meta_index]
        assert chain[0][0].name == "m"       # innermost method
        assert isinstance(chain[0][1], int)  # bc pc


def test_inlined_guard_metadata_has_caller_chain():
    code, _ = compile_method("""
    class T {
        static def read(a, i) { return a[i]; }
        static def m(a) { return T.read(a, 3); }
    }""")
    guards = [ins for ins in code.instrs if ins[0] == "guard"]
    assert guards
    chains = [code.deopt_meta[ins[7]] for ins in guards]
    assert any(len(chain) == 2 for chain in chains)
    two = next(chain for chain in chains if len(chain) == 2)
    assert two[0][0].name == "read"
    assert two[1][0].name == "m"


def test_coarsened_monitor_ops_tagged():
    code, _ = compile_method("""
    class T { static def m(lock, n) {
        var s = 0;
        var i = 0;
        while (i < n) {
            synchronized (lock) { s = s + 1; }
            i = i + 1;
        }
        return s;
    } }""")
    enters = [ins for ins in code.instrs if ins[0] == "monitorenter"]
    assert enters and enters[0][3] is not None
    assert enters[0][3][0] == "coarsen"
    assert "monitorexit_if_held" in kinds(code)


def test_compile_digest_does_not_depend_on_earlier_compiles():
    # tests/exact_compile.py compares compiled code across trees by
    # digest.  Unrelated compiles in between advance the process-wide
    # Node ids; the digest of the same method must not move with them.
    from repro.jit.ir import Node
    from tests.exact_compile import _dump, digests

    src = """
    class T {
        static def m(a, i) {
            if (i > 0) { return T.m(a, i - 1) + a[i]; }
            return 0;
        }
        static def other(n) {
            var s = 0;
            var i = 0;
            while (i < n) { s = s + i * i; i = i + 1; }
            return s;
        }
    }"""
    fresh, _ = compile_method(src)
    first_id = next(Node._ids)
    compile_method(src, method="other")
    again, _ = compile_method(src)
    assert next(Node._ids) > first_id + 1
    assert fresh.deopt_meta and "callstatic" in kinds(fresh)
    assert digests(fresh) == digests(again)
    assert "0x" not in _dump((fresh.instrs, fresh.consts, fresh.deopt_meta))
    assert digests(fresh) != digests(compile_method(src, method="other")[0])
