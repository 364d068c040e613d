"""Compiled-code execution, tiering, and deoptimization tests."""

import pytest

from repro.jit.pipeline import graal_config
from tests.util import run_all_tiers, run_guest


def test_all_tiers_agree_on_arithmetic_kernel():
    run_all_tiers("""
    class Main {
        static def main() {
            var acc = 0;
            var i = 0;
            while (i < 200) {
                acc = (acc * 31 + i * i - i / 3) % 1000003;
                i = i + 1;
            }
            return acc;
        }
    }""")


def test_all_tiers_agree_on_collections_and_strings():
    run_all_tiers("""
    class Main {
        static def main() {
            var m = new HashMap();
            var i = 0;
            while (i < 60) {
                m.put("k" + (i % 17), i);
                i = i + 1;
            }
            var acc = 0;
            var keys = m.keys();
            i = 0;
            while (i < keys.size()) {
                acc = acc + m.get(keys.get(i));
                i = i + 1;
            }
            return acc * 100 + m.size();
        }
    }""")


def test_all_tiers_agree_on_lambdas_and_streams():
    run_all_tiers("""
    class Main {
        static def main() {
            var s = Stream.range(0, 40);
            return s.map(fun (x) x * 3)
                    .filter(fun (x) x % 2 == 0)
                    .reduce(0, fun (a, b) a + b);
        }
    }""")


def test_all_tiers_agree_on_concurrency():
    run_all_tiers("""
    class Main {
        static def main() {
            var counter = new AtomicLong(0);
            var latch = new CountDownLatch(3);
            var w = 0;
            while (w < 3) {
                var t = new Thread(fun () {
                    var i = 0;
                    while (i < 50) {
                        counter.incrementAndGet();
                        i = i + 1;
                    }
                    latch.countDown();
                });
                t.start();
                w = w + 1;
            }
            latch.await();
            return counter.get();
        }
    }""", repeat=4)


def test_compiled_code_is_faster_than_interpreter():
    src = """
    class Main {
        static def main() {
            var acc = 0;
            var i = 0;
            while (i < 400) { acc = acc + i * i; i = i + 1; }
            return acc;
        }
    }"""
    _, interp_vm = run_guest(src)
    _, jit_vm = run_guest(src, jit=graal_config(compile_threshold=2),
                          repeat=8)
    interp_cycles = interp_vm.counters.reference_cycles
    # compare one JIT'd invocation against the single interpreted one
    before = jit_vm.timing_snapshot()
    jit_vm.invoke("Main.main")
    jit_cycles = jit_vm.interval_stats(before)["work"]
    assert jit_cycles < interp_cycles / 2


def test_hot_method_gets_compiled_and_cached():
    src = """
    class Main {
        static def hot(x) { return x * 2 + 1; }
        static def main() {
            var acc = 0;
            var i = 0;
            while (i < 100) { acc = acc + Main.hot(i); i = i + 1; }
            return acc;
        }
    }"""
    _, vm = run_guest(src, jit=graal_config(compile_threshold=5), repeat=3)
    names = [c.method.qualified for c in vm.jit.compiled_methods]
    assert "Main.main" in names or "Main.hot" in names
    assert vm.jit.stats.compilations >= 1
    assert vm.jit.code_size_bytes() > 0


def test_deopt_on_failed_type_speculation():
    # Phase 1 trains the profile monomorphically; phase 2 passes a new
    # receiver type, failing the speculative type guard.
    src = """
    class A { def init() { } def tag() { return 1; } }
    class B { def init() { } def tag() { return 2; } }
    class Main {
        static def poke(x) { return x.tag(); }
        static def train() {
            var acc = 0;
            var i = 0;
            var a = new A();
            while (i < 50) { acc = acc + Main.poke(a); i = i + 1; }
            return acc;
        }
        static def surprise() {
            var b = new B();
            return Main.poke(b);
        }
    }"""
    from repro.lang import compile_program
    from repro.runtime import VM

    vm = VM(jit=graal_config(compile_threshold=4))
    vm.load(compile_program(src))
    for _ in range(3):
        assert vm.invoke("Main.train") == 50
    assert any(c.method.qualified == "Main.poke"
               for c in vm.jit.compiled_methods)
    assert vm.invoke("Main.surprise") == 2      # deopt, correct answer
    assert vm.counters.deopts >= 1
    # The speculation is disabled: retraining must not deopt again.
    deopts = vm.counters.deopts
    for _ in range(3):
        vm.invoke("Main.train")
        vm.invoke("Main.surprise")
    assert vm.counters.deopts == deopts


def test_deopt_on_failed_hoisted_bounds_guard():
    # The loop limit exceeds the array length only in the second phase;
    # GM hoists a speculative range guard that must then deopt and
    # produce the guest bounds fault, not a wrong answer.
    src = """
    class Main {
        static def sum(a, n) {
            var s = 0;
            var i = 0;
            while (i < n) { s = s + a[i]; i = i + 1; }
            return s;
        }
        static def ok() {
            var a = new int[10];
            var i = 0;
            while (i < 10) { a[i] = i; i = i + 1; }
            return Main.sum(a, 10);
        }
        static def overflow() {
            var a = new int[10];
            return Main.sum(a, 11);
        }
    }"""
    import pytest

    from repro.errors import GuestBoundsError
    from repro.lang import compile_program
    from repro.runtime import VM

    vm = VM(jit=graal_config(compile_threshold=3))
    vm.load(compile_program(src))
    for _ in range(6):
        assert vm.invoke("Main.ok") == 45
    # Main.ok compiles (inlining Main.sum); the overflow entry then
    # drives the separately-compiled sum into its hoisted range guard.
    assert vm.jit.stats.compilations >= 1
    with pytest.raises(GuestBoundsError):
        vm.invoke("Main.overflow")
    assert vm.counters.deopts >= 1
    # Still correct afterwards.
    assert vm.invoke("Main.ok") == 45


def test_deopt_rematerializes_virtual_objects():
    # A scalar-replaced object is referenced by the framestate of a
    # hoisted guard; failing the guard must rebuild it for the
    # interpreter.
    src = """
    class Box { var v; def init(v) { this.v = v; } }
    class Main {
        static def work(a, n) {
            var box = new Box(7);
            var s = 0;
            var i = 0;
            while (i < n) { s = s + a[i]; i = i + 1; }
            return s + box.v;
        }
        static def ok() {
            var a = new int[8];
            return Main.work(a, 8);
        }
        static def boom() {
            var a = new int[8];
            return Main.work(a, 9);
        }
    }"""
    import pytest

    from repro.errors import GuestBoundsError
    from repro.lang import compile_program
    from repro.runtime import VM

    vm = VM(jit=graal_config(compile_threshold=3))
    vm.load(compile_program(src))
    for _ in range(6):
        assert vm.invoke("Main.ok") == 7
    with pytest.raises(GuestBoundsError):
        vm.invoke("Main.boom")
    assert vm.invoke("Main.ok") == 7


def test_compile_bailout_falls_back_to_interpreter(monkeypatch):
    from repro.errors import CompileError
    from repro.jit import jit as jit_mod
    from repro.lang import compile_program
    from repro.runtime import VM

    def broken_pipeline(graph, config, pool, stats, **_options):
        raise CompileError("injected failure")

    monkeypatch.setattr(jit_mod, "run_pipeline", broken_pipeline)
    vm = VM(jit=graal_config(compile_threshold=2))
    vm.load(compile_program("""
    class Main { static def main() { return 9; } }"""))
    for _ in range(10):
        assert vm.invoke("Main.main") == 9
    assert vm.jit.stats.failures >= 1
    assert vm.jit.compiled_methods == []



#: Drives ``Main.step(s, i)`` with a monomorphic receiver, then (``flip``
#: = 1) with a subclass receiver that fails the devirtualization guard.
_FLIP_DRIVER = """
    class S { def init() { } def k() { return 1; } }
    class T extends S { def init() { } def k() { return 2; } }
    class Main {
        %s
        static def run(flip) {
            var acc = 0;
            var i = 0;
            while (i < 12) {
                var s = new S();
                if (flip == 1 && i >= 8) { s = new T(); }
                acc = acc * 7 + Main.step(s, i);
                i = i + 1;
            }
            return acc;
        }
    }"""


def _assert_deopt_matches_interpreter(source: str,
                                      min_deopts: int = 1) -> None:
    """Every engine, JIT-compiling with the IR verifier on (and
    deoptimizing when the receiver flips), returns what ``jit=None``
    does."""
    from repro.lang import compile_program
    from repro.runtime import VM

    program = compile_program(source)
    want = []
    for flip in (0, 1, 0):
        vm = VM(jit=None)
        vm.load(program)
        want.append(vm.invoke("Main.run", [flip]))
    for engine in ("reference", "threaded", "tier2"):
        vm = VM(engine=engine, jit=graal_config(compile_threshold=3),
                verify_ir=True)
        vm.load(program)
        got = [vm.invoke("Main.run", [flip]) for flip in (0, 1, 0)]
        assert got == want, engine
        assert vm.counters.deopts >= min_deopts, engine


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_deopt_rebuilds_chains_of_scalar_replaced_objects(k):
    # k objects, each stored in a field of the previous one, live across
    # the devirtualized ``s.k()``: escape analysis scalar-replaces the
    # whole chain, so the guard's state holds a recipe nested k deep and
    # deopt must rebuild every object of it.
    allocs = "\n".join(f"var o{i} = new Node({i}0 + x);"
                       + (f" o{i - 1}.next = o{i};" if i > 1 else "")
                       for i in range(1, k + 1))
    _assert_deopt_matches_interpreter(
        "class Node { var next; var v; def init(v) { this.v = v; } }"
        + _FLIP_DRIVER % f"""static def step(s, x) {{
            {allocs}
            var r = s.k();
            return r * 1000 + o1{".next" * (k - 1)}.v;
        }}""")


def test_deopt_rebuilds_one_object_seen_by_caller_and_inlined_callee():
    # The guard sits in the inlined ``bump``, whose frame and its
    # caller's both hold the scalar-replaced box: deopt must rebuild one
    # object, or the caller reads a box the callee never wrote.
    _assert_deopt_matches_interpreter(
        "class Box { var v; def init(v) { this.v = v; } }"
        + _FLIP_DRIVER % """
        static def bump(b, s) { var r = s.k(); b.v = b.v + r; return r; }
        static def step(s, x) {
            var b = new Box(x);
            var r = Main.bump(b, s);
            return b.v * 10 + r;
        }""")


@pytest.mark.parametrize("copies, total", [
    ("a.q = a.p;", "a.p + a.q"),
    ("a.q = a.p; a.r = a.q;", "a.p + a.q + a.r"),
])
def test_partial_escape_analysis_stores_folded_field_reads(copies, total):
    # ``a.q = a.p`` folds the read of ``p`` and stores it into ``q``; the
    # branch makes ``a`` live in a later block, so partial EA
    # materializes it at the end of its block.  The materializing writes
    # must store what the folded read produced, not the deleted read.
    _assert_deopt_matches_interpreter(
        "class Box { var p; var q; var r; def init(v) { this.p = v; } }"
        + f"""
    class Main {{
        static def f(x) {{
            var a = new Box(x);
            {copies}
            if (x > 100) {{ x = x + 1; }}
            return {total} + x;
        }}
        static def run(flip) {{
            var acc = 0;
            var i = 0;
            while (i < 200) {{ acc = acc + Main.f(i); i = i + 1; }}
            return acc;
        }}
    }}""", min_deopts=0)
