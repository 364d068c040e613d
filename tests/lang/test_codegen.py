"""Unit tests for the guest-language code generation."""

import pytest

from repro.errors import CompileError
from repro.jvm.bytecode import Op
from repro.lang import compile_program
from tests.util import run_guest


def compile_only(src):
    return compile_program(src, include_stdlib=False)


def code_of(program, cls, method):
    return program.by_name[cls].methods[method].code


def test_unknown_variable_rejected():
    with pytest.raises(CompileError, match="unknown variable"):
        compile_only("class T { def m() { return nope; } }")


def test_assignment_to_undeclared_rejected():
    with pytest.raises(CompileError, match="undeclared"):
        compile_only("class T { def m() { x = 1; } }")


def test_duplicate_variable_in_same_scope_rejected():
    with pytest.raises(CompileError, match="duplicate"):
        compile_only("class T { def m() { var x = 1; var x = 2; } }")


def test_block_scoping_allows_redeclaration_in_sibling_blocks():
    result, _ = run_guest("""
    class Main {
        static def main() {
            var acc = 0;
            var i = 0;
            while (i < 2) { var t = 10; acc = acc + t; i = i + 1; }
            i = 0;
            while (i < 2) { var t = 100; acc = acc + t; i = i + 1; }
            return acc;
        }
    }
    """)
    assert result == 220


def test_this_in_static_context_rejected():
    with pytest.raises(CompileError, match="static"):
        compile_only("class T { static def m() { return this; } }")


def test_unknown_class_in_new_rejected():
    with pytest.raises(CompileError, match="unknown class"):
        compile_only("class T { def m() { return new Ghost(); } }")


def test_break_outside_loop_rejected():
    with pytest.raises(CompileError, match="break outside"):
        compile_only("class T { def m() { break; } }")


def test_static_synchronized_rejected():
    with pytest.raises(CompileError, match="static synchronized"):
        compile_only(
            "class T { static synchronized def m() { return 1; } }")


def test_duplicate_classes_rejected():
    with pytest.raises(CompileError, match="duplicate class"):
        compile_program("class A { }", "class A { }",
                        include_stdlib=False)


def test_builtin_shadowing_rejected():
    with pytest.raises(CompileError, match="shadow"):
        compile_only("class Math { }")


def test_cas_requires_field_target():
    with pytest.raises(CompileError, match="cas target"):
        compile_only("class T { def m(x) { return cas(x, 1, 2); } }")


def test_builtin_arity_checked():
    with pytest.raises(CompileError, match="expects"):
        compile_only("class T { def m() { return len(); } }")


def test_synchronized_method_wraps_body_in_monitors():
    program = compile_only(
        "class T { synchronized def m() { return 1; } }")
    ops = [i.op for i in code_of(program, "T", "m")]
    assert Op.MONITORENTER in ops
    assert Op.MONITOREXIT in ops
    assert ops.index(Op.MONITORENTER) < ops.index(Op.MONITOREXIT)


def test_default_constructor_synthesized():
    program = compile_only("class T { var x; }")
    assert "init" in program.by_name["T"].methods


def test_lambda_lifted_to_static_method():
    program = compile_only("""
    class T {
        def m() {
            var d = 3;
            return fun (x) x + d;
        }
    }
    """)
    lifted = program.by_name["T"].methods["lambda$0"]
    assert lifted.static
    assert lifted.params == 2       # captured d + declared x


def test_lambda_capture_order_is_first_use():
    program = compile_only("""
    class T {
        def m(a, b) {
            return fun () b * 10 + a;
        }
    }
    """)
    code = code_of(program, "T", "m")
    indy = [i for i in code if i.op == Op.INVOKEDYNAMIC]
    assert len(indy) == 1
    assert indy[0].arg[2] == 2      # two captures


def test_ck_metadata_recorded():
    program = compile_only("""
    class Helper { def init() { } def work() { return 1; } }
    class T {
        var f;
        def init() { this.f = 0; }
        def m() {
            var h = new Helper();
            this.f = h.work();
            return this.f;
        }
    }
    """)
    method = program.by_name["T"].methods["m"]
    assert ("Helper", "init") in method.called
    assert (None, "work") in method.called
    assert ("T", "f") in method.accessed_fields
    assert "Helper" in program.by_name["T"].referenced


def test_interface_method_is_abstract():
    program = compile_only("interface I { def f(); }")
    assert program.by_name["I"].methods["f"].abstract


def test_nested_synchronized_break_unwinds_inner_monitor_only():
    result, _ = run_guest("""
    class Main {
        static def main() {
            var outerLock = new Object();
            var innerLock = new Object();
            var acc = 0;
            synchronized (outerLock) {
                var i = 0;
                while (i < 5) {
                    synchronized (innerLock) {
                        if (i == 3) { break; }
                        acc = acc + i;
                    }
                    i = i + 1;
                }
                // both monitors must be free again:
                synchronized (innerLock) { acc = acc + 100; }
            }
            synchronized (outerLock) { acc = acc + 1000; }
            return acc;
        }
    }
    """)
    assert result == 0 + 1 + 2 + 100 + 1000


def test_stdlib_compiles_and_links():
    program = compile_program()
    names = {cls.name for cls in program.classes}
    assert {"Thread", "Random", "ArrayList", "HashMap", "Promise",
            "ThreadPool", "Stream", "STM", "Vector"} <= names


# ----------------------------------------------------------------------
# One compiled stdlib per process, fresh classes per Program.
# ----------------------------------------------------------------------
def _codegen_view(cls):
    """Everything codegen decides about ``cls``."""
    return (cls.name, cls.super_name, cls.interfaces, cls.is_interface,
            cls.referenced,
            [(f.name, f.static, f.volatile) for f in cls.fields.values()],
            [(m.name, m.params, m.code, m.max_locals, m.static, m.native,
              m.synchronized, m.abstract, m.accessed_fields, m.called,
              m.source_lines) for m in cls.methods.values()])


def _stdlib_names():
    return {cls.name for cls in compile_program().classes}


def test_shared_stdlib_equals_a_joint_compile_for_every_benchmark():
    from repro.lang.stdlib import STDLIB_SOURCES
    from repro.suites.registry import all_benchmarks

    for source in {b.source: b for b in all_benchmarks()}:
        joint = compile_program(*STDLIB_SOURCES, source,
                                include_stdlib=False)
        program = compile_program(source)
        assert [_codegen_view(c) for c in program.classes] == \
            [_codegen_view(c) for c in joint.classes]


_STM_MAIN = """
class Main {
    static def main() {
        var ref = new STMRef(0);
        var i = 0;
        while (i < 20) {
            STM.atomic(fun (txn) { return txn.write(ref, txn.read(ref) + 1); });
            i = i + 1;
        }
        return STM.commits.get() * 100 + ref.value;
    }
}
"""


def test_programs_share_stdlib_bytecode_but_not_its_classes():
    from repro.jit.pipeline import graal_config
    from repro.runtime import VM

    stdlib = _stdlib_names()
    first, second = compile_program(_STM_MAIN), compile_program(_STM_MAIN)
    assert [c.name for c in first.classes] == [c.name for c in second.classes]
    for a, b in zip(first.classes, second.classes):
        assert a is not b
        assert (a.referenced is b.referenced) == (a.name in stdlib)
        for name, method in a.methods.items():
            other = b.methods[name]
            assert method is not other
            if method.code is not None:
                assert (method.code is other.code) == (a.name in stdlib)
            if a.name in stdlib:
                assert method.called is other.called
                assert method.accessed_fields is other.accessed_fields

    def run(program):
        vm = VM(jit=graal_config(compile_threshold=3))
        vm.load(program)
        return vm.invoke("Main.main")

    assert run(first) == 20 * 100 + 20
    ran = [m for c in first.classes if c.name in stdlib
           for m in c.methods.values()]
    assert any(m.compiled is not None for m in ran)
    assert any(m.invocation_count > 0 for m in ran)
    assert first.by_name["STM"].static_values["commits"] != 0
    for cls in second.classes:
        assert all(v == 0 for v in cls.static_values.values())
        for method in cls.methods.values():
            assert method.invocation_count == 0 and method.compiled is None
            assert method.call_profile is None
        assert not cls.linked and not cls.loaded
    assert run(second) == 20 * 100 + 20


def test_user_class_named_like_a_stdlib_class_is_rejected():
    with pytest.raises(CompileError, match="duplicate class"):
        compile_program("class ArrayList { }")


def test_programs_do_not_each_keep_a_compiled_stdlib():
    import gc
    import tracemalloc

    from repro.lang import codegen
    from repro.lang.stdlib import STDLIB_SOURCES
    from repro.suites.registry import all_benchmarks

    sources = list({b.source: b for b in all_benchmarks()})[:10]
    compile_program(sources[0])             # first-use caches

    def held_in_codegen(build):
        only = [tracemalloc.Filter(True, codegen.__file__)]
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces(only)
        kept = build()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only)
        del kept
        return sum(t.size for t in after.traces) - \
            sum(t.size for t in before.traces)

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        one_copy = held_in_codegen(lambda: compile_program(
            *STDLIB_SOURCES, include_stdlib=False))
        ten = held_in_codegen(
            lambda: [compile_program(s) for s in sources])
    finally:
        if started:
            tracemalloc.stop()
    # Each program keeps its own code and its own stdlib class and
    # method objects (about a twelfth of a stdlib compile); ten private
    # stdlib compiles would hold over ten copies.
    assert ten < 2.5 * one_copy, (ten, one_copy)
