"""Golden equivalence: tier-2 host-compiled machine code vs the ladder.

The tier-2 engine (repro.jit.machine.Tier2Machine + repro.jit.emit2,
on top of the tier-1 bytecode engine) host-compiles the guest JIT's
optimized CompiledCode into flat Python closures at region leaders; a
frame parked anywhere else resumes on the interpretive Machine up to
the next leader, and a guest guard failure inside a block
rematerializes frames through FrameState/VirtualObjectState recipes.
Its contract is the tier-1 contract one tier up: *byte-identical
observable behavior* — results, counters, simulated clock, stdout,
traces, RaceReports — under any quantum, seed, JIT config, budget exit
at any guarded machine pc, injected fault, and across serial vs sharded
sweeps.  These tests pin that contract plus the promotion, resume,
deopt and invalidation mechanics.
"""

from __future__ import annotations

import functools

import pytest

from repro.faults import FaultPlan, ResilientRunner, run_suite
from repro.harness.core import GuestBenchmark, Runner
from repro.jit.pipeline import graal_config
from repro.runtime import VM
from repro.sanitize.plugin import build_report
from repro.suites.registry import get_benchmark
from tests import util
from tests.fixtures import FIXTURES

#: Registry slice for jitted four-way equivalence: one string workload,
#: one fork-join, and both benchmarks added alongside this engine
#: (par-mnemonics is the DS-soundness regression workload).
JIT_SLICE = ("scrabble", "fj-kmeans", "par-mnemonics", "scala-kmeans")

assert_equivalent = functools.partial(
    util.assert_equivalent, engines=("threaded", "tier1", "tier2"),
    jit="graal")

#: Two-method workload sized so the *guest* JIT compiles ``step``
#: (invocation threshold 32) inside a single benchmark invocation; the
#: remaining calls then run as machine frames, which tier-2 promotes the
#: first time one runs, so one invocation tiers all the way up.
HOT_SRC = """
class Bench {
    static def run(n) {
        var acc = 0;
        var i = 0;
        while (i < n) { acc = acc + Bench.step(i); i = i + 1; }
        return acc;
    }
    static def step(i) { return i * 2 + 1; }
}
"""

#: Loop-heavy inner method: each call burns ~5 * n cycles, so a tiny
#: scheduler quantum parks the machine frame mid-loop, and parked
#: frames resume interpreted up to the loop header.
SPIN_SRC = """
class Bench {
    static def run(n) {
        var acc = 0;
        var j = 0;
        while (j < 40) { acc = acc + Bench.spin(n); j = j + 1; }
        return acc;
    }
    static def spin(n) {
        var s = 0;
        var i = 0;
        while (i < n) { s = s + i; i = i + 1; }
        return s;
    }
}
"""


#: ``step`` with a branch arm no call ever takes (``i > n`` is false for
#: every ``i < n``): the guest JIT still lowers both arms, but no frame
#: arrives at the cold arm's leader, so tier-2 must never compile it.
ARM_SRC = """
class Bench {
    static def run(n) {
        var acc = 0;
        var i = 0;
        while (i < n) { acc = acc + Bench.step(i, n); i = i + 1; }
        return acc;
    }
    static def step(i, n) {
        if (i > n) { return i * 3 + 7; }
        return i * 2 + 1;
    }
}
"""


#: ``step`` CASes a field of an object that never escapes: with EAWA
#: (escape analysis with atomics) the guest JIT folds the CAS and
#: scalar-replaces the object, without it every call allocates and
#: CASes, so the two configs' counters differ.
CAS_SRC = """
class Box { var s; def init() { this.s = 0; } }
class Bench {
    static def run(n) {
        var acc = 0;
        var i = 0;
        while (i < n) { acc = acc + Bench.step(i); i = i + 1; }
        return acc;
    }
    static def step(i) {
        var b = new Box();
        var ok = cas(b.s, 0, i);
        return b.s * 2 + ok;
    }
}
"""


def hot_bench(name: str, n: int = 80) -> GuestBenchmark:
    return GuestBenchmark(name=name, suite="tests", source=HOT_SRC,
                          args=(n,), expected=n * n, warmup=1, measure=1)


def spin_bench(name: str, n: int = 300) -> GuestBenchmark:
    return GuestBenchmark(name=name, suite="tests", source=SPIN_SRC,
                          args=(n,), expected=40 * (n * (n - 1) // 2),
                          warmup=1, measure=1)


#: Quanta for the budget-exit fuzz: slices short enough to end inside
#: ``spin``'s loop block, varied enough that each of its budget guards
#: fires under at least one of them (the last first fires at 34).
BUDGET_QUANTA = range(3, 48)


# ----------------------------------------------------------------------
# Four-way observable equivalence.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", FIXTURES, ids=lambda b: b.name)
def test_fixtures_equivalent_interpreted(bench):
    # jit=None means no machine frames: tier-2 must degrade to exactly
    # tier-1 behaviour.
    assert_equivalent(bench, jit=None, invocations=2)


@pytest.mark.parametrize("name", JIT_SLICE)
def test_registry_equivalent_jitted(name):
    # The full ladder: threaded -> tier-1 superblocks -> guest JIT
    # compile -> interpretive machine -> tier-2 closures, all inside
    # three invocations.  Profiles, compile points and machine-frame
    # scheduling must be identical no matter which host tier executes.
    assert_equivalent(get_benchmark(name), jit="graal", invocations=3)


def test_hot_bench_equivalent_jitted():
    assert_equivalent(hot_bench("hot4way"), invocations=3)


@pytest.mark.parametrize("quantum", (37, 127, 1001))
def test_budget_boundary_equivalence(quantum):
    # Tiny quanta exhaust the slice budget *inside* emitted tier-2
    # blocks: the folded budget guard must park frame.pc on the exact
    # machine instruction with reference-identical counters, and the
    # next slice must resume there on the interpretive Machine.
    assert_equivalent(spin_bench("budget"), quantum=quantum,
                      invocations=2)


def test_seed_sweep_equivalence_jitted():
    for seed in (1, 42, 1_000_003):
        assert_equivalent(get_benchmark("philosophers"), seed=seed,
                          cores=4, invocations=2)


def test_trace_recordings_equivalent():
    # The flight recorder is part of the byte-identity contract one
    # tier up: emitted tier-2 blocks bind the recorder at compile time
    # and must emit the same events in the same order.
    ref = util.reference(get_benchmark("philosophers"), jit="graal",
                         trace=True, invocations=2)
    for engine in ("tier1", "tier2"):
        got, _ = util.observe(get_benchmark("philosophers"), engine,
                              jit="graal", trace=True, invocations=2)
        assert ref["events"] == got["events"]
        assert ref["counters"] == got["counters"]


# ----------------------------------------------------------------------
# Promotion, interpreted resumes and the tier ladder.
# ----------------------------------------------------------------------
def test_tier2_engine_selected_and_promotes():
    from repro.jit.machine import Tier2Machine
    from repro.jvm.tier1 import Tier1Interpreter
    from repro.runtime.vm import TIER_LADDERS

    assert TIER_LADDERS["tier2"] == ("threaded", "tier1", "tier2")
    bench = hot_bench("promote2")
    vm = VM(engine="tier2", jit="graal")
    # Bytecode frames run exactly as under engine="tier1".
    assert type(vm.interpreter) is Tier1Interpreter
    assert isinstance(vm.machine, Tier2Machine)
    assert vm.jit.machine is vm.machine
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    snap = vm.machine.stats.snapshot()
    assert snap["promotions"] > 0
    assert snap["compiled_blocks"] > 0
    assert snap["compiled_sites"] > 0
    assert vm.resolve_static("Bench", "step").compiled in vm.machine._memo
    # Bytecode-side tier-1 promotion still happens underneath.
    assert vm.interpreter.stats.promotions > 0


def test_interpreted_tier2_reports_zero_metrics():
    from repro.jit.machine import Tier2Stats
    from repro.metrics.profiler import TIER2_METRIC_NAMES, MetricsPlugin

    plugin = MetricsPlugin()
    runner = Runner(hot_bench("idle2"), jit=None, engine="tier2",
                    plugins=(plugin,))
    result = runner.run()
    assert runner.last_vm.machine is None
    assert result.tier2 == Tier2Stats().snapshot()
    assert all(plugin.raw[name] == 0 for name in TIER2_METRIC_NAMES)


def tier2_codes(vm):
    return list(vm.machine._memo.values())


def assert_leader_entries_only(vm):
    for t2 in tier2_codes(vm):
        filled = {pc for pc, fn in enumerate(t2.entries) if fn is not None}
        assert filled <= t2.leaders, (t2.method.qualified,
                                      filled - t2.leaders)


def test_osr_entries_at_loop_header(monkeypatch):
    # A tiny quantum parks the hot spin loop mid-region.  Entries exist
    # at region leaders only: the next slice runs the parked frame on
    # the interpretive Machine up to the loop header, and osr_entries
    # counts exactly those interpreted resumes.
    from repro.jit.machine import Machine

    resumes = []
    run_frame = Machine.run_frame

    def recording(self, thread, frame, instrs=None):
        if instrs is not None:
            resumes.append((frame.code, frame.pc))
        run_frame(self, thread, frame, instrs)

    bench = spin_bench("osr")
    monkeypatch.setattr(Machine, "run_frame", recording)
    got, vm = util.observe(bench, "tier2", jit="graal", quantum=200,
                           invocations=2)
    monkeypatch.undo()
    stats = vm.machine.stats
    assert stats.promotions > 0
    assert stats.osr_entries == len(resumes) > 0
    assert all(pc not in vm.machine._memo[code].leaders
               for code, pc in resumes)
    assert_leader_entries_only(vm)
    assert stats.compile_seconds > 0.0
    assert got == util.reference(bench, jit="graal", quantum=200,
                                 invocations=2)


#: ``mix`` is one straight line of 80 machine ops: its entry region is
#: cut at the 64-op cap, and the continuation is a leader of its own.
LONG_SRC = """
class Bench {
    static def run(n) {
        var acc = 0;
        var i = 0;
        while (i < n) { acc = acc + Bench.mix(i, acc % 7); i = i + 1; }
        return acc;
    }
    static def mix(a, b) {
        BODY
        return a;
    }
}
""".replace("BODY", "\n        ".join(f"a = (a ^ {k}) + b;"
                                      for k in range(1, 41)))


def test_cap_split_continuation_is_a_compiled_leader():
    from repro.jit.emit2 import MAX_BLOCK_OPS, _scan2

    bench = GuestBenchmark(name="capsplit2", suite="tests",
                           source=LONG_SRC, args=(60,))
    got, vm = util.observe(bench, "tier2", jit="graal", invocations=2)
    t2 =vm.machine._memo[vm.resolve_static("Bench", "mix").compiled]
    ops, split, kind = _scan2(t2.code.instrs, 0)
    assert (len(ops), kind) == (MAX_BLOCK_OPS, "split")
    # The split exit parks the frame on the continuation, which is a
    # leader: the driver enters a block emitted there.
    assert split in t2.leaders
    assert t2.entries[split] is not None
    assert_leader_entries_only(vm)
    assert got == util.reference(bench, jit="graal", invocations=2)


#: ``outer`` calls ``inner``; with inlining off both stay separate
#: compiled methods, so the call and the return cross machine frames.
CALL_SRC = """
class Bench {
    static def run(n) {
        var acc = 0;
        var i = 0;
        while (i < n) { acc = acc + Bench.outer(i); i = i + 1; }
        return acc;
    }
    static def outer(i) { return Bench.inner(i) * 2 + 1; }
    static def inner(i) { return i + 3; }
}
"""


@pytest.mark.parametrize("quantum", (37, 200, 5000))
def test_compiled_calls_and_returns_stay_in_the_driver(quantum):
    # Tier2Machine.run_frame keeps driving when a block hands off to
    # another machine frame: a slice that enters compiled ``outer``
    # runs its call into compiled ``inner`` and both returns in one
    # run_frame call from VM._execute_slice.
    from repro.jit.emit2 import Tier2Code

    jit = graal_config(inline_depth=0)
    bench = GuestBenchmark(name="calls2", suite="tests", source=CALL_SRC,
                           args=(80,), expected=2 * 3160 + 7 * 80,
                           warmup=1, measure=1)
    got, vm = util.observe(bench, "tier2", jit=jit, quantum=quantum,
                           invocations=2)
    memo = vm.machine._memo
    for name in ("outer", "inner"):
        code = vm.resolve_static("Bench", name).compiled
        assert isinstance(memo[code], Tier2Code)
    if quantum == 5000:
        entered = []
        run_frame = vm.machine.run_frame

        def counting(thread, frame):
            entered.append(frame.code.method.name)
            run_frame(thread, frame)

        vm.machine.run_frame = counting
        assert vm.invoke("Bench.outer", [4]) == 15
        assert entered == ["outer"]
    assert got == util.reference(bench, jit=jit, quantum=quantum,
                                 invocations=2)


def test_never_entered_region_is_never_compiled():
    # Promotion emits nothing; a block is emitted when a frame first
    # arrives at its pc.  The arm no call takes stays an empty entry.
    n = 80
    bench = GuestBenchmark(name="coldarm", suite="tests", source=ARM_SRC,
                           args=(n,), expected=n * n, warmup=1, measure=1)
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    assert vm.invoke(bench.entry, list(bench.args)) == bench.expected
    step = vm.machine._memo[vm.resolve_static("Bench", "step").compiled]
    branch = next(i for i in step.code.instrs if i[0] == "branch")
    arms = {branch[3], branch[4]}
    assert arms <= step.leaders
    assert step.entries[0] is not None
    assert sorted(step.entries[pc] is None for pc in arms) == [False, True]
    codes = tier2_codes(vm)
    emitted = sum(fn is not None for t2 in codes for fn in t2.entries)
    stats = vm.machine.stats
    assert stats.blocks == emitted == sum(t2.nblocks for t2 in codes)
    assert emitted < sum(len(t2.leaders) for t2 in codes)
    assert stats.sites == sum(t2.sites for t2 in codes)
    assert stats.compile_cycles == sum(t2.compile_cycles for t2 in codes)


def test_generated_block_source_is_pinned():
    # The text extend_tier2 generates for a (code, pc) is the
    # verifier's input and must not drift with *when* a block is
    # emitted: SHA-256 of Bench.step's blocks at pc 0 (a leader, emitted
    # on first entry) and pc 1 (mid-region, emitted on request).
    # Registers are numbered per method, so no process state is reset.
    import hashlib

    from repro.jit.emit2 import extend_tier2

    bench = hot_bench("pinned2")
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    t2 = vm.machine._memo[vm.resolve_static("Bench", "step").compiled]
    assert sorted(t2.source) == [0]
    extend_tier2(t2, 1)
    assert {pc: hashlib.sha256(text.encode()).hexdigest()
            for pc, text in t2.source.items()} == {
        0: "3c00437f7ed59043778454e5b5d4bc22"
           "7c6c3a763938a473db324d0d4cfcaa78",
        1: "fb0e01dd530e3adfc3de17f787833bbe"
           "0b247297eb0db10be96050499a8c256f",
    }


def test_block_source_does_not_depend_on_the_vm():
    # A block's text is a function of its (code, pc) alone: the CAS
    # failure tests ``_tcas`` at run time, and calls go through
    # ``VM.call``, which consults the fault plan.  With every method
    # compiled, no inlining and no EAWA, the CAS fixture's blocks hold
    # calls and a CAS; every leader is emitted.
    from repro.jit.emit2 import extend_tier2

    jit = graal_config(compile_threshold=1, inline_depth=0).without("EAWA")
    bench = GuestBenchmark(name="invariant2", suite="tests", source=CAS_SRC,
                           args=(80,), expected=80 * 80, warmup=1,
                           measure=1)

    def sources(**config):
        vm = VM(engine="tier2", jit=jit, **config)
        vm.load(bench.compile())
        for _ in range(2):
            assert vm.invoke(bench.entry, list(bench.args)) == 80 * 80
        out = {}
        for t2 in tier2_codes(vm):
            for pc in sorted(t2.leaders):
                if t2.entries[pc] is None:
                    extend_tier2(t2, pc)
            for pc, text in t2.source.items():
                out[t2.method.qualified, pc] = text
        return out

    plain = sources()
    assert any("_tcas.emit" in text for text in plain.values())
    assert any("_vm.call" in text for text in plain.values())
    assert sources(trace=True) == plain
    assert sources(faults=FaultPlan.single(
        "guest-exception", site="Nowhere.never", at=1)) == plain
    for text in plain.values():
        util.assert_vm_free(text)


#: ``hammer`` locks a loop-invariant object every iteration, so lock
#: coarsening tags its monitor pair with a site number.
LOCK_LOOP_SRC = """
class Box { var n; def init() { this.n = 0; } }
class Bench {
    static def run(n) {
        var lock = new Box();
        var i = 0;
        while (i < n) { Bench.hammer(lock, 20); i = i + 1; }
        return lock.n;
    }
    static def hammer(lock, k) {
        var i = 0;
        while (i < k) {
            synchronized (lock) { lock.n = lock.n + 1; }
            i = i + 1;
        }
        return k;
    }
}
"""


def test_compiled_code_does_not_depend_on_earlier_compiles():
    # Registers and coarsening sites are numbered per method, so the
    # same method compiles to the same machine code and the same tier-2
    # text whatever the process compiled before it.
    from repro.jit.emit2 import extend_tier2
    from repro.lang import compile_program

    def compile_hammer():
        vm = VM(engine="tier2", jit="graal")
        vm.load(compile_program(LOCK_LOOP_SRC))
        assert vm.invoke("Bench.run", [40]) == 800
        code = vm.resolve_static("Bench", "hammer").compiled
        t2 = vm.machine._memo[code]
        for pc in (0, 1):
            if t2.entries[pc] is None:
                extend_tier2(t2, pc)
        assert any(i[0] == "monitorenter" and i[3] for i in code.instrs)
        return code.instrs, {pc: t2.source[pc] for pc in (0, 1)}

    before = compile_hammer()
    # An unrelated program that also coarsens a lock.
    other = VM(jit="graal")
    other.load(compile_program(LOCK_LOOP_SRC.replace("Bench", "Other")))
    other.invoke("Other.run", [40])
    assert before == compile_hammer()


#: The scheduler's machine kinds, listed here rather than imported so
#: that the test pins the emitter's bail set instead of restating it.
SCHEDULER_KINDS = frozenset({
    "monitorenter", "monitorexit", "monitorexit_if_held",
    "park", "unpark", "wait", "notify", "notifyall",
})


def test_tier2_blocks_never_contain_scheduler_ops():
    # The bail rule both host tiers share: a block stops before every
    # scheduler op, which runs on the engine below (for tier-2 the
    # interpretive Machine over ``stops``), and compiled code takes
    # over again at the leader after it.
    from tests.jit.test_machine_ops import PARK_UNPARK_SRC, WAIT_NOTIFY_SRC

    runs = (("lockloop2", LOCK_LOOP_SRC, "Bench.run", (40,)),
            ("waitnotify2", WAIT_NOTIFY_SRC, "Main.main", ()),
            ("parkunpark2", PARK_UNPARK_SRC, "Main.main", ()))
    knobs = dict(jit=graal_config(compile_threshold=2), quantum=200,
                 invocations=3)
    seen = set()
    for name, source, entry, args in runs:
        bench = GuestBenchmark(name=name, suite="tests", source=source,
                               entry=entry, args=args)
        got, vm = util.observe(bench, "tier2", **knobs)
        assert got == util.reference(bench, **knobs)
        for t2 in tier2_codes(vm):
            instrs = t2.code.instrs
            sched = {pc for pc, instr in enumerate(instrs)
                     if instr[0] in SCHEDULER_KINDS}
            seen.update(instrs[pc][0] for pc in sched)
            assert not sched & t2.leaders
            for leader, sites, _, end_pc, kind, _ in t2.blocks:
                span = range(leader, end_pc + (kind == "term"))
                assert len(span) == sites
                assert not sched.intersection(span), (leader, kind)
            for pc in sched:
                assert t2.stops[pc] is instrs[pc]
                if pc + 1 < len(instrs) and pc + 1 not in sched:
                    assert pc + 1 in t2.leaders
    assert seen == SCHEDULER_KINDS


# ----------------------------------------------------------------------
# Closure: tier-2 admits every CompiledCode, so every machine kind and
# guard test the guest JIT can produce must have an emitter arm.
# ----------------------------------------------------------------------
def _pinned(test, var: str, namespace: dict) -> set:
    """The string values an ``if`` test compares ``var`` against:
    ``var == "x"``, ``var in ("x", ...)``, ``var in TABLE`` and ``or``s
    of those."""
    import ast

    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return set().union(*(_pinned(v, var, namespace)
                             for v in test.values))
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name) and test.left.id == var):
        return set()
    (rhs,) = test.comparators
    if isinstance(test.ops[0], ast.Eq) and isinstance(rhs, ast.Constant):
        return {rhs.value}
    if isinstance(test.ops[0], ast.In):
        if isinstance(rhs, ast.Name):
            return set(namespace[rhs.id])
        if isinstance(rhs, ast.Tuple):
            return {elt.value for elt in rhs.elts}
    return set()


def _arms(func, var: str) -> set:
    """Every value ``func``'s ``if``/``elif`` chains give an arm to."""
    import ast
    import inspect
    import textwrap

    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return set().union(*(_pinned(node.test, var, func.__globals__)
                         for node in ast.walk(tree)
                         if isinstance(node, ast.If)))


def _lowered_kinds() -> set:
    """Every machine kind a ``_emit`` call in lowering can produce: its
    literal first argument, or the values the enclosing ``if op ...``
    arm pins ``op`` to."""
    import ast
    import inspect

    from repro.jit import lowering

    kinds: set = set()

    def visit(node, pinned: set) -> None:
        if isinstance(node, ast.If):
            arm = _pinned(node.test, "op", vars(lowering))
            for child in node.body:
                visit(child, arm or pinned)
            for child in node.orelse:
                visit(child, pinned)
            return
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_emit"):
            first = node.args[0]
            if isinstance(first, ast.Constant):
                kinds.add(first.value)
            else:
                assert isinstance(first, ast.Name) and first.id == "op"
                assert pinned, ast.unparse(node)
                kinds.update(pinned)
        for child in ast.iter_child_nodes(node):
            visit(child, pinned)

    visit(ast.parse(inspect.getsource(lowering)), set())
    return kinds


def _created_guard_tests() -> set:
    """Every ``GuardInfo.test`` the guest JIT creates: ``test=`` literals,
    and the literals passed to a local helper that forwards its own
    ``test`` parameter."""
    import ast
    import pathlib

    import repro.jit

    tests: set = set()
    for path in sorted(pathlib.Path(repro.jit.__file__).parent
                       .rglob("*.py")):
        tree = ast.parse(path.read_text())
        helpers = {}                  # helper name -> test param index
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = [a.arg for a in fn.args.args]
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "GuardInfo"):
                    continue
                (value,) = [kw.value for kw in call.keywords
                            if kw.arg == "test"]
                if isinstance(value, ast.Constant):
                    tests.add(value.value)
                elif isinstance(value, ast.Name) and value.id in params:
                    helpers[fn.name] = params.index(value.id)
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in helpers):
                arg = call.args[helpers[call.func.id]]
                assert isinstance(arg, ast.Constant), ast.unparse(call)
                tests.add(arg.value)
    return tests


def _one_op_block(instr):
    from repro.jit.emit2 import _Block2Emitter

    return _Block2Emitter(0, [(0, instr)], 1, {})


def test_every_lowered_machine_kind_has_an_emitter_arm():
    from repro.errors import VMError
    from repro.jit.emit2 import BAIL_KINDS, _Block2Emitter
    from repro.jit.machine import Machine

    lowered = _lowered_kinds()
    assert len(lowered) == 47
    emitted = _arms(_Block2Emitter.emit_op, "kind")
    assert lowered - BAIL_KINDS <= emitted, lowered - BAIL_KINDS - emitted
    assert not emitted & BAIL_KINDS
    assert lowered <= _arms(Machine.run_frame, "kind")
    with pytest.raises(VMError, match="no emitter arm"):
        _one_op_block(("bogus", 1)).render()


def test_every_created_guard_test_emits():
    from repro.errors import VMError
    from repro.jit.emit2 import _Block2Emitter
    from repro.jit.machine import Machine

    created = _created_guard_tests()
    assert created == {"nonnull", "bounds", "bounds_range", "type"}
    assert created <= _arms(_Block2Emitter.emit_op, "test")
    assert created <= _arms(Machine.run_frame, "test")
    for test in created:
        guard = ("guard", 1, "NullCheckException", test, (0, 1, 2), "C",
                 None, None)
        _, source = _one_op_block(guard).render()
        compile(source, f"<guard {test}>", "exec")
    with pytest.raises(VMError, match="unknown guard test"):
        _one_op_block(("guard", 1, "X", "bogus", (0,), None, None,
                       None)).render()


@pytest.mark.parametrize("emitter", ("repro.jvm.tier1.compile_method",
                                     "repro.jit.emit2.compile_tier2"))
def test_emitter_errors_propagate(monkeypatch, emitter):
    # Neither host tier falls back when its emitter fails: a hot
    # program under engine="tier2" raises instead of running slower.
    def broken(*args, **kwargs):
        raise RuntimeError("emitter bug")

    monkeypatch.setattr(emitter, broken)
    bench = hot_bench("loud")
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    with pytest.raises(RuntimeError, match="emitter bug"):
        vm.invoke(bench.entry, list(bench.args))


def test_isa_tour_blocks_write_exit_state_only_through_the_exit_function():
    # Closure: every exit of every block tier-2 emits for the ISA tour
    # (each leader of each method it compiled) is one ``_x`` call.
    from repro.jit.emit2 import extend_tier2
    from repro.lang import compile_program
    from tests.jvm.test_bytecode import _TOUR

    vm = VM(engine="tier2", jit=graal_config(compile_threshold=1))
    vm.load(compile_program(_TOUR))
    for _ in range(4):
        vm.invoke("Tour.run", [6])
    blocks = 0
    for t2 in vm.machine._memo.values():
        for pc in sorted(t2.leaders):
            if t2.entries[pc] is None:
                extend_tier2(t2, pc)
        for pc, source in t2.source.items():
            assert util.exit_state_writes(source) == [], (t2.method, pc)
        blocks += t2.nblocks
    assert blocks >= 30


# ----------------------------------------------------------------------
# Block exits: the exit function, the budget exit and the guest deopt.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("args, want", [
    # A budget guard in a block with no b0 and no self-loop.
    ((100, 100, 0, 12, 2, 7, "budget"), (88, 7, 2, 12, "budget")),
    # A raise after 20 dynamic cycles: b0 != budget.
    ((80, 100, 0, 6, 2, 3, "exception"), (74, 3, 2, 26, "exception")),
    # A return: no pc, no reason.
    ((50, 50, 0, 9, 3, None, None), (41, 99, 3, 9, None)),
    # Self-loop exhaustion: 30 completed ops, nothing constant.
    ((-4, 60, 30, 0, 0, 5, None), (-4, 5, 30, 64, None)),
    # A taken branch out of a self-loop, with a guard-deopt reason.
    ((10, 70, 14, 8, 3, 12, "guard"), (2, 12, 17, 68, "guard")),
])
def test_block_exit_leaves_exact_engine_state(args, want):
    from types import SimpleNamespace

    from repro.jit.emit2 import block_exit
    from repro.jvm.counters import Counters

    counters = Counters()
    counters.instructions, counters.reference_cycles = 1000, 5000
    exits = {"budget": 0, "exception": 0, "fault": 0, "guard": 0}
    thread, frame = SimpleNamespace(budget=None), SimpleNamespace(pc=99)
    _x = block_exit(counters, exits)
    # ``reason`` defaults to None: an exit that counts none omits it.
    assert _x(thread, frame, *(args if args[-1] else args[:-1])) is True
    budget, pc, instructions, cycles, reason = want
    assert (thread.budget, frame.pc) == (budget, pc)
    assert counters.instructions == 1000 + instructions
    assert counters.reference_cycles == 5000 + cycles
    assert type(counters.reference_cycles) is int
    assert exits == {k: int(k == reason) for k in exits}


def test_budget_exit_at_every_guarded_pc_is_byte_identical():
    # Fuzz the block exits real runs take: sweep the scheduler quantum
    # until the budget guard has parked ``spin``'s machine frame at
    # every pc its blocks guard.  The block flushes batched accounting
    # there, and the next slice resumes interpreted up to the next
    # leader, so no entry is ever filled anywhere else.  Every run must
    # equal the reference run at the same quantum.
    bench = spin_bench("budgetfuzz2", 30)
    parked, guarded = set(), set()
    for quantum in BUDGET_QUANTA:
        got, vm = util.observe(
            bench, "tier2", jit="graal", quantum=quantum, invocations=2,
            setup=lambda vm: util.record_budget_exits(vm.machine, parked))
        # Read before the reference run: VMs loading one program share
        # its methods, and load() resets ``compiled``.
        assert_leader_entries_only(vm)
        t2 = vm.machine._memo[vm.resolve_static("Bench", "spin").compiled]
        guarded |= util.budget_guarded_pcs(*t2.source.values())
        ref = util.reference(bench, jit="graal", quantum=quantum,
                             invocations=2)
        assert got == ref, f"budget exits diverge at quantum {quantum}"
    assert guarded
    assert {pc for name, pc in parked if name == "Bench.spin"} == guarded


def test_nested_recipe_rematerialization_through_guard_deopt():
    # A scalar-replaced object graph (Outer holding Inner) referenced
    # only by deopt recipes: failing the bounds guard inside an emitted
    # tier-2 block must take the guest deopt path and rebuild the
    # nested virtuals for the interpreter, identically to the
    # reference engine.
    src = """
    class Inner { var v; def init(v) { this.v = v; } }
    class Outer { var inner; def init(i) { this.inner = i; } }
    class Main {
        static def work(a, i) {
            var o = new Outer(new Inner(7));
            return a[i] + o.inner.v;
        }
        static def drive(i) {
            var a = new int[8];
            return Main.work(a, i);
        }
    }"""
    from repro.errors import GuestBoundsError
    from repro.lang import compile_program

    def run(engine):
        vm = VM(engine=engine, jit=graal_config(compile_threshold=3))
        vm.load(compile_program(src))
        values = [vm.invoke("Main.drive", [3]) for _ in range(6)]
        virtuals = vm.resolve_static("Main", "drive").compiled.virtual_objects
        with pytest.raises(GuestBoundsError):
            vm.invoke("Main.drive", [9])
        values.append(vm.invoke("Main.drive", [3]))
        return values, virtuals, vm.counters.snapshot(), vm

    ref_values, ref_virtuals, ref_counters, _ = run("reference")
    t2_values, t2_virtuals, t2_counters, vm = run("tier2")
    assert ref_values == t2_values == [7] * 7
    assert ref_counters == t2_counters
    # Escape analysis scalar-replaced the Outer->Inner pair and the
    # compile carried *nested* rematerialization recipes: an Outer
    # whose field value is itself a virtual-object reference.
    assert any(cls == "Outer" and any(v[0] == "v" for _, v in fields)
               for cls, fields in t2_virtuals)
    assert ref_virtuals == t2_virtuals
    assert vm.machine.stats.promotions > 0
    # The guard failed *inside* emitted tier-2 code (host-side
    # bookkeeping), replaying the recipes on the guest deopt path.
    assert vm.machine.stats.deopts["guard"] >= 1


# ----------------------------------------------------------------------
# Faults, sanitizer, verify_ir.
# ----------------------------------------------------------------------
def test_injected_fault_deopts_cleanly():
    # Fault site 75 lands in the second invocation, well after the
    # guest JIT compiled `step` and tier-2 promoted it: the fault must
    # unwind from emitted code with the reference-identical report.
    plan = FaultPlan.single("guest-exception", site="Bench.step", at=75,
                            seed=7, message="boom")
    bench = hot_bench("faultdeopt2")
    ref = ResilientRunner(bench, jit="graal", faults=plan,
                          engine="reference").run()
    t2 = ResilientRunner(bench, jit="graal", faults=plan,
                         engine="tier2").run()
    assert not ref.ok and not t2.ok
    assert ref.failure.to_json() == t2.failure.to_json()


def checked_report_json(bench, engine):
    vm = VM(engine=engine, jit=None, sanitize=True, schedule_seed=0)
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    return build_report(vm.sanitizer, vm, bench.name).to_json()


@pytest.mark.parametrize("bench", FIXTURES, ids=lambda b: b.name)
def test_race_reports_equivalent(bench):
    ref = checked_report_json(bench, "reference")
    assert checked_report_json(bench, "tier2") == ref


def test_sanitizer_attach_drops_tier2_code_and_promotion():
    from repro.sanitize.hb import RaceSanitizer

    bench = hot_bench("sanattach2")
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    engine, machine = vm.interpreter, vm.machine
    assert tier2_codes(vm)
    promotions = machine.stats.promotions, engine.stats.promotions
    assert promotions[0] > 0

    # Emitted closures carry no access hooks; attaching a sanitizer
    # must drop tier-1 AND tier-2 artifacts, disable promotion, and
    # detach the machine entirely (checked runs are interpreter-only).
    RaceSanitizer().attach(vm)
    assert not engine._dispatch and not machine._memo
    assert vm.machine is None
    assert vm.invoke(bench.entry, list(bench.args)) == bench.expected
    assert (machine.stats.promotions, engine.stats.promotions) == promotions
    assert not engine._dispatch and not machine._memo


@pytest.mark.parametrize("attach", ("sanitizer", "recorder"))
def test_attach_drops_all_host_code(attach):
    # Host code binds the sanitizer and the flight recorder when it is
    # compiled: attaching either to a VM that already ran hot code must
    # leave no tier-1 table and no tier-2 closure behind, and the runs
    # after it must match the reference engine's.
    from repro.sanitize.hb import RaceSanitizer
    from repro.trace.recorder import FlightRecorder

    bench = hot_bench("attach2")

    def run(engine):
        vm = VM(engine=engine, jit="graal")
        vm.load(bench.compile())
        results = [vm.invoke(bench.entry, list(bench.args))]
        interp, machine = vm.interpreter, vm.machine
        if engine == "tier2":
            assert interp._dispatch and tier2_codes(vm)
        (RaceSanitizer() if attach == "sanitizer" else
         FlightRecorder()).attach(vm)
        if engine == "tier2":
            assert not interp._dispatch and not machine._memo
        results += [vm.invoke(bench.entry, list(bench.args))
                    for _ in range(2)]
        events = vm.trace.event_list() if vm.trace is not None else None
        return results, vm.counters.snapshot(), vm.scheduler.clock, events

    assert run("tier2") == run("reference")


def test_verify_ir_validates_tier2_entry_tables():
    # verify_ir re-derives every emitted block's (leader, sites, cum,
    # end_pc) ground truth independently (repro.sanitize.blockverify);
    # a sound compile passes and counts its blocks.
    bench = hot_bench("verify2")
    vm = VM(engine="tier2", jit="graal", verify_ir=True)
    vm.load(bench.compile())
    assert vm.invoke(bench.entry, list(bench.args)) == bench.expected
    assert vm.machine.stats.promotions > 0
    assert vm.irverify_stats.get("blocks", 0) > 0
    assert vm.irverify_stats.get("issues", 0) == 0


def test_verify_ir_verifies_every_block_at_emission():
    # Every block is verified the moment it is emitted (a tiny quantum
    # forces interpreted resumes between them), and the lazily grown
    # tables verify clean as a whole afterwards.
    from repro.sanitize.blockverify import verify_tier2_code

    bench = spin_bench("verifyosr2")
    vm = VM(engine="tier2", jit="graal", quantum=200, verify_ir=True)
    vm.load(bench.compile())
    for _ in range(2):
        assert vm.invoke(bench.entry, list(bench.args)) == bench.expected
    stats = vm.machine.stats
    assert stats.osr_entries > 0
    # The counter is shared with the tier-1 promotions underneath.
    assert stats.blocks > 0
    assert vm.irverify_stats["blocks"] == (
        stats.blocks + vm.interpreter.stats.blocks)
    assert vm.irverify_stats.get("issues", 0) == 0
    assert all(verify_tier2_code(t2) == [] for t2 in tier2_codes(vm))


def test_verifier_rejects_a_block_at_a_non_leader_pc():
    # Pc 1 of ``step`` is mid-region.  A block emitted there is
    # otherwise well-formed, so the leader rule is the one issue.
    from repro.jit.emit2 import extend_tier2
    from repro.sanitize.blockverify import verify_tier2_code

    bench = hot_bench("nonleader2")
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    t2 = vm.machine._memo[vm.resolve_static("Bench", "step").compiled]
    assert verify_tier2_code(t2) == []
    assert 1 not in t2.leaders
    extend_tier2(t2, 1)
    issues = verify_tier2_code(t2)
    assert [(i.pc, "not a region leader" in i.message)
            for i in issues] == [(1, True)]


def test_verify_ir_rejects_block_tampered_after_emission(monkeypatch):
    import re

    import repro.jit.emit2 as emit2
    from repro.sanitize.blockverify import BlockVerifyError

    real = emit2.extend_tier2

    def tampering(t2, pc):
        out = real(t2, pc)
        t2.source[pc], hits = re.subn(
            r"(_x\(thread, frame, budget, \w+, \w+, )(\d+)",
            lambda m: f"{m[1]}{int(m[2]) + 1000}",
            t2.source[pc], count=1)
        assert hits == 1
        return out

    monkeypatch.setattr(emit2, "extend_tier2", tampering)
    bench = hot_bench("tamper2")
    vm = VM(engine="tier2", jit="graal", verify_ir=True)
    vm.load(bench.compile())
    with pytest.raises(BlockVerifyError) as caught:
        vm.invoke(bench.entry, list(bench.args))
    assert caught.value.tier == "tier-2"
    assert "budget flush" in str(caught.value)


# ----------------------------------------------------------------------
# Where compiled code lives.
# ----------------------------------------------------------------------
def test_tier2_code_follows_jit_config():
    # Tier-2 closures compile the *optimized* output of one JitConfig:
    # under a config without EAWA the tier-2 engine must observe
    # exactly what the reference engine observes under that same
    # config, never what the full pipeline would produce.
    bench = GuestBenchmark(name="cas2", suite="tests", source=CAS_SRC,
                           args=(80,), expected=80 * 80, warmup=1,
                           measure=1)
    full, noea = graal_config(), graal_config().without("EAWA")
    for config in (full, noea):
        assert_equivalent(bench, engines=("tier2",), jit=config,
                          invocations=2)
    assert util.reference(bench, jit=full, invocations=2)["counters"] != \
        util.reference(bench, jit=noea, invocations=2)["counters"]


def test_cache_info_parity_with_tier1_shape():
    bench = hot_bench("cacheinfo2")
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    # One shape for every bytecode engine: the translation cache's.
    info = vm.interpreter.cache_info()
    assert set(info) == set(VM(engine="tier1").interpreter.cache_info())
    # Tier-2 code lives in one table, the machine's memo.
    assert len(tier2_codes(vm)) == vm.machine.stats.promotions > 0
    # jit=None: no machine frames, so no machine and no tier-2 code.
    idle = VM(engine="tier2", jit=None)
    idle.load(bench.compile())
    idle.invoke(bench.entry, list(bench.args))
    assert idle.machine is None


# ----------------------------------------------------------------------
# Harness, metrics, sweeps.
# ----------------------------------------------------------------------
def test_runner_attaches_tier2_snapshot():
    result = Runner(hot_bench("harness3"), jit="graal",
                    engine="tier2").run()
    assert result.tier2 is not None
    assert result.tier2["promotions"] > 0
    assert result.tier1 is not None        # the tier below still runs
    threaded = Runner(hot_bench("harness4"), jit="graal").run()
    assert threaded.tier2 is None


def test_metrics_plugin_exports_tier2_counters():
    from repro.metrics.profiler import TIER2_METRIC_NAMES, MetricsPlugin

    plugin = MetricsPlugin()
    Runner(hot_bench("metrics3"), jit="graal", engine="tier2",
           plugins=(plugin,)).run()
    assert plugin.raw["tier2_promotions"] > 0
    assert plugin.raw["tier2_compiled_blocks"] > 0
    plugin2 = MetricsPlugin()
    Runner(hot_bench("metrics4"), jit="graal", plugins=(plugin2,)).run()
    assert all(plugin2.raw[name] == 0 for name in TIER2_METRIC_NAMES)


def test_tier_snapshot_and_metric_keys_are_pinned():
    # What an engine="tier2" run reports about its host tiers, in the
    # RunResult snapshots, the --report roll-up and the metrics export.
    from repro.metrics.profiler import (
        TIER1_METRIC_NAMES,
        TIER2_METRIC_NAMES,
        MetricsPlugin,
    )

    plugin = MetricsPlugin()
    suite = run_suite((hot_bench("keys2"),), jit="graal", warmup=1,
                      measure=1, engine="tier2", plugins=(plugin,))
    tier1, tier2 = suite.results[0].tier1, suite.results[0].tier2
    snap = {"promotions", "compiled_blocks", "compiled_sites",
            "compile_cycles", "deopts"}
    assert set(tier1) == snap
    assert set(tier2) == snap | {"osr_entries", "compile_seconds"}
    reasons = {"budget", "exception", "fault"}
    assert set(tier1["deopts"]) == reasons
    assert set(tier2["deopts"]) == reasons | {"guard"}
    report = suite.to_report_dict()
    assert list(report["tier1"]) == [
        "promotions", "compiled_blocks", "compile_cycles", "deopts"]
    assert list(report["tier2"]) == [
        "promotions", "compiled_blocks", "osr_entries", "compile_cycles",
        "compile_seconds", "deopts"]
    flat = {name: value for name, value in plugin.raw.items()
            if name.startswith("tier")}
    assert set(flat) == set(TIER1_METRIC_NAMES + TIER2_METRIC_NAMES)
    for tier, snapshot in (("tier1", tier1), ("tier2", tier2)):
        assert flat[f"{tier}_promotions"] == snapshot["promotions"] > 0
        assert flat[f"{tier}_compiled_blocks"] == snapshot["compiled_blocks"]
        assert flat[f"{tier}_compile_cycles"] == snapshot["compile_cycles"]
        assert flat[f"{tier}_deopts"] == sum(snapshot["deopts"].values())
    assert flat["tier2_osr_entries"] == tier2["osr_entries"]


def test_durable_fingerprint_records_tier_ladder():
    from repro.harness.config import SweepConfig

    tier2 = SweepConfig(engine="tier2").fingerprint(None, ())
    tier1 = SweepConfig(engine="tier1").fingerprint(None, ())
    default = SweepConfig().fingerprint(None, ())
    assert tier2["tier_ladder"] == ["threaded", "tier1", "tier2"]
    assert tier1["tier_ladder"] == ["threaded", "tier1"]
    assert default["tier_ladder"] == ["threaded"]
    assert len({repr(f) for f in (tier2, tier1, default)}) == 3


def test_sharded_tier2_sweep_matches_serial():
    benches = (hot_bench("shard2-a", 60), hot_bench("shard2-b", 90))
    kwargs = dict(jit="graal", warmup=1, measure=1, engine="tier2")
    serial = run_suite(benches, **kwargs)
    sharded = run_suite(benches, jobs=2, **kwargs)
    assert [r.fingerprint() for r in serial.results] == \
        [r.fingerprint() for r in sharded.results]
    # The tier ladder's byte-identity contract: a unit fingerprints the
    # same under every engine.
    tier1 = run_suite(benches, jit="graal", warmup=1, measure=1,
                      engine="tier1")
    assert [r.fingerprint() for r in serial.results] == \
        [r.fingerprint() for r in tier1.results]


def test_finished_sweep_units_release_host_code_but_stay_readable():
    # The in-process sweep drops each finished unit's host code (its
    # footprint is one unit's closures, not every unit's); what the
    # ledger and the analysis modules read afterwards must survive.
    benches = (hot_bench("release2-a", 60), spin_bench("release2-b", 120))
    kwargs = dict(jit="graal", warmup=1, measure=1, engine="tier2")
    suite = run_suite(benches, **kwargs)
    assert suite.tier2_summary()["compiled_blocks"] > 0
    for bench, result in zip(benches, suite.results):
        vm = result.vm
        assert vm.counters.instructions > 0
        assert vm.jit.stats.compilations > 0
        assert vm.jit.code_size_bytes() > 0
        assert vm.jit.hot_method_count() > 0
        info = vm.interpreter.cache_info()
        assert info["hits"] > 0 and info["misses"] > 0
        assert info["size"] == 0
        assert not vm.interpreter._dispatch
        assert not vm.machine._memo
        assert result.tier2["compiled_blocks"] == vm.machine.stats.blocks
        alone = run_suite((bench,), **kwargs).results[0]
        assert alone.fingerprint() == result.fingerprint()
