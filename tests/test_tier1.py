"""Golden equivalence: tier-1 superblock engine vs reference/threaded.

The tier-1 engine (repro.jvm.tier1 + repro.jit.emit) compiles hot guest
methods into Python superblock closures with batched counter/cost
accounting.  Its contract is the same as the threaded engine's, one
tier up: *byte-identical observable behavior* — results, counter
snapshots, simulated clock, stdout, trace recordings, RaceReports —
under any quantum, seed, JIT config, budget exit at any guarded pc,
injected fault, and across serial vs sharded sweeps.  These tests pin
that contract plus the promotion and invalidation mechanics.
"""

from __future__ import annotations

import functools

import pytest

from repro.faults import FaultPlan, run_resilient, run_suite
from repro.harness.config import SweepConfig
from repro.harness.core import GuestBenchmark, Runner
from repro.runtime import VM
from repro.sanitize.plugin import build_report
from repro.suites.registry import get_benchmark
from tests import util
from tests.fixtures import (
    FIXTURES,
    RACE_BENCHMARK,
)

#: Registry slice for engine-equivalence sweeps: one representative per
#: concurrency archetype (strings, locks, fork-join, functional alloc).
EQUIV_SLICE = ("scrabble", "philosophers", "fj-kmeans", "streams-mnemonics")

#: tests/test_threaded.py pins the threaded engine against the same
#: reference runs (same benchmarks and knobs), so only tier1 is new here.
assert_equivalent = functools.partial(util.assert_equivalent,
                                      engines=("tier1",))

#: Small two-method workload: ``step`` is called once per loop
#: iteration, so it crosses the promotion threshold (16) inside a
#: single invocation and is the natural budget-exit fuzz target.
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


def hot_bench(name: str, n: int = 40) -> GuestBenchmark:
    return GuestBenchmark(name=name, suite="tests", source=HOT_SRC,
                          args=(n,), expected=n * n, warmup=1, measure=1)


#: Quanta for the budget-exit fuzz: slices short enough to end inside
#: ``step``'s superblock, varied enough that each of its budget guards
#: fires under at least one of them (the last first fires at 27).
BUDGET_QUANTA = range(3, 64)


# ----------------------------------------------------------------------
# Three-way observable equivalence.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", FIXTURES, ids=lambda b: b.name)
def test_fixtures_equivalent_interpreted(bench):
    assert_equivalent(bench, invocations=2)


@pytest.mark.parametrize("name", EQUIV_SLICE)
def test_registry_equivalent_interpreted(name):
    assert_equivalent(get_benchmark(name), invocations=2)


@pytest.mark.parametrize("quantum", (37, 127, 1001))
def test_budget_boundary_equivalence(quantum):
    # Tiny quanta exhaust the slice budget *inside* superblocks: the
    # folded per-block guard must OSR out with counters, budget and pc
    # reference-identical, and resume mid-block on threaded handlers.
    assert_equivalent(get_benchmark("philosophers"), quantum=quantum,
                      cores=2, seed=7, invocations=2)


def test_seed_sweep_equivalence():
    for seed in (1, 42, 1_000_003):
        assert_equivalent(RACE_BENCHMARK, seed=seed, cores=4,
                          invocations=2)


def test_trace_recordings_equivalent():
    # The flight recorder is part of the byte-identity contract: the
    # emitted blocks bind the recorder at compile time and must emit
    # the same events in the same order.
    ref = util.reference(get_benchmark("philosophers"), trace=True,
                         invocations=2)
    for engine in ("threaded", "tier1"):
        got, _ = util.observe(get_benchmark("philosophers"), engine,
                              trace=True, invocations=2)
        assert ref["events"] == got["events"]
        assert ref["counters"] == got["counters"]


# ----------------------------------------------------------------------
# Sanitizer interaction.
# ----------------------------------------------------------------------
def checked_report_json(bench, engine):
    vm = VM(engine=engine, jit=None, sanitize=True, schedule_seed=0)
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    return build_report(vm.sanitizer, vm, bench.name).to_json()


@pytest.mark.parametrize("bench", FIXTURES, ids=lambda b: b.name)
def test_race_reports_equivalent(bench):
    ref = checked_report_json(bench, "reference")
    assert checked_report_json(bench, "tier1") == ref


def test_sanitizer_attach_drops_tier1_code_and_promotion():
    from repro.sanitize.hb import RaceSanitizer

    bench = hot_bench("sanattach")
    vm = VM(engine="tier1", jit=None)
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    engine = vm.interpreter
    assert engine.stats.promotions > 0
    assert engine._dispatch

    # Emitted blocks carry no access hooks; attaching a sanitizer must
    # drop them all and disable further promotion.
    RaceSanitizer().attach(vm)
    assert not engine._dispatch
    promotions = engine.stats.promotions
    assert vm.invoke(bench.entry, list(bench.args)) == bench.expected
    assert engine.stats.promotions == promotions
    assert not engine._dispatch


# ----------------------------------------------------------------------
# Promotion and budget-exit mechanics.
# ----------------------------------------------------------------------
def test_tier1_engine_selected_and_promotes():
    from repro.jvm.tier1 import TIER1_THRESHOLD, Tier1Interpreter

    bench = hot_bench("promote")
    vm = VM(engine="tier1", jit=None)
    assert isinstance(vm.interpreter, Tier1Interpreter)
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    step = vm.resolve_static("Bench", "step")
    assert step.invocation_count >= TIER1_THRESHOLD
    assert step in vm.interpreter._dispatch
    snap = vm.interpreter.stats.snapshot()
    assert snap["promotions"] > 0
    assert snap["compiled_blocks"] > 0
    assert snap["compiled_sites"] > 0


def test_budget_exit_at_every_guarded_pc_is_byte_identical():
    # Fuzz the block exits real runs take: sweep the scheduler quantum
    # until the budget guard has parked ``step``'s frame at every pc its
    # superblock guards.  The block flushes batched accounting and
    # rebuilds the operand stack there, and the threaded handler at that
    # pc resumes the frame next slice.  Every run must equal the
    # reference run at the same quantum.
    from repro.jit.emit import compile_method

    bench = hot_bench("budgetfuzz")
    parked = set()
    for quantum in BUDGET_QUANTA:
        got, vm = util.observe(
            bench, "tier1", quantum=quantum, invocations=2,
            setup=lambda vm: util.record_budget_exits(vm.interpreter, parked))
        ref = util.reference(bench, quantum=quantum, invocations=2)
        assert got == ref, f"budget exits diverge at quantum {quantum}"
    step = vm.resolve_static("Bench", "step")
    guarded = util.budget_guarded_pcs(
        compile_method(vm.interpreter, step).source)
    assert guarded
    assert {pc for name, pc in parked if name == "Bench.step"} == guarded


def test_generated_block_source_is_pinned():
    # The text compile_method generates is the verifier's input and
    # shares its exit protocol with tier-2's emitter: SHA-256 of
    # Bench.step's module (one block, pc 0) pins it against drift.
    import hashlib

    from repro.jit.emit import compile_method

    bench = hot_bench("pinned1")
    vm = VM(engine="tier1", jit=None)
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    code = compile_method(vm.interpreter, vm.resolve_static("Bench", "step"))
    assert hashlib.sha256(code.source.encode()).hexdigest() == (
        "a982015e356eb32dc8cb7225a1134d9260ab746013d77a2304e84ad18d2d7ee0")


def test_block_source_does_not_depend_on_the_vm():
    # A block's text is a function of its method's bytecode alone: the
    # guest JIT, the recorder and the fault plan are read at run time
    # (``VM.call``, ``VM.on_backedge``, ``_tcas``), never at emission.
    from repro.jit.emit import compile_method

    bench = hot_bench("invariant1")

    def sources(**config):
        vm = VM(engine="tier1", **config)
        vm.load(bench.compile())
        return [compile_method(vm.interpreter,
                               vm.resolve_static("Bench", name)).source
                for name in ("run", "step")]

    plain = sources(jit=None)
    assert sources(jit="graal") == plain
    assert sources(jit=None, trace=True, faults=FaultPlan.single(
        "guest-exception", site="Nowhere.never", at=1)) == plain
    for source in plain:
        util.assert_vm_free(source)


def test_every_non_bail_opcode_has_an_emitter_arm():
    # Closure: tier-1 compiles every linked method, so every opcode a
    # block may hold needs an arm.  One sample of each from the ISA tour
    # renders as a one-op block whose source compiles; an opcode with
    # no arm (the bail ops never reach emit_op) raises VMError.
    from repro.errors import VMError
    from repro.jit.emit import BAIL_OPS, _BlockEmitter
    from repro.jvm.bytecode import Instr, Op
    from repro.lang import compile_program
    from tests.jvm.test_bytecode import _TOUR

    def one_op_block(pc, instr):
        return _BlockEmitter(pc, [(pc, instr)], pc + 1, {})

    program = compile_program(_TOUR, include_stdlib=False)
    samples = {}
    for jclass in program.classes:
        for method in jclass.methods.values():
            for pc, instr in enumerate(method.code or ()):
                samples.setdefault(instr.op, (pc, instr))
    assert set(samples) == set(Op)
    for op in set(Op) - BAIL_OPS:
        _, source = one_op_block(*samples[op]).render()
        compile(source, f"<tier1 {op.name}>", "exec")
    for op in BAIL_OPS:
        with pytest.raises(VMError, match="no emitter arm"):
            one_op_block(0, Instr(op)).render()


def test_isa_tour_blocks_write_exit_state_only_through_the_exit_function():
    # Closure: every exit of every block tier-1 emits for the ISA tour
    # is one ``_x`` call.  The invoke tail is the one exception: its pc
    # advance and post-call charge stay inline.
    from repro.jit.emit import compile_method
    from repro.jvm.bytecode import INVOKES
    from repro.jvm.costmodel import INTERP_COST
    from repro.lang import compile_program
    from tests.jvm.test_bytecode import _TOUR

    vm = VM(engine="tier1", jit=None)
    vm.load(compile_program(_TOUR))
    compiled = 0
    for name in ("Tour", "Cell"):
        for method in vm.pool.get(name).methods.values():
            if not method.code:
                continue
            code = compile_method(vm.interpreter, method)
            compiled += code.nblocks
            tail = {f"frame.pc = {pc + 1}"
                    for pc, i in enumerate(method.code) if i.op in INVOKES}
            tail |= {f"_ct.reference_cycles += {INTERP_COST[op]}"
                     for op in INVOKES}
            assert set(util.exit_state_writes(code.source)) <= tail, \
                method.qualified
    assert compiled >= 30


# ----------------------------------------------------------------------
# Faults and resilience.
# ----------------------------------------------------------------------
def test_injected_fault_deopts_cleanly():
    # A fault raised inside VM.call from compiled code must unwind with
    # the same observable failure the reference engine produces.
    plan = FaultPlan.single("guest-exception", site="Bench.step", at=30,
                            seed=7, message="boom")
    bench = hot_bench("faultdeopt")
    ref = run_resilient(bench, SweepConfig(jit=None, engine="reference"), plan)
    t1 = run_resilient(bench, SweepConfig(jit=None, engine="tier1"), plan)
    assert not ref.ok and not t1.ok
    assert ref.failure.to_json() == t1.failure.to_json()


def test_resilient_retry_on_tier1_matches_threaded():
    plan = FaultPlan(seed=5, heap_limit_words=120_000)
    bench = hot_bench("retry")
    thr = run_resilient(bench, SweepConfig(jit=None, engine="threaded"), plan)
    t1 = run_resilient(bench, SweepConfig(jit=None, engine="tier1"), plan)
    assert (thr.ok, thr.retries) == (t1.ok, t1.retries)
    if thr.ok:
        assert [it.result for it in thr.result.iterations] == \
            [it.result for it in t1.result.iterations]


# ----------------------------------------------------------------------
# Where compiled code lives.
# ----------------------------------------------------------------------
def test_cache_info_parity_with_threaded_shape():
    bench = hot_bench("cacheinfo")
    vm = VM(engine="tier1", jit=None)
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    # cache_info is the threaded translation cache's, shape unchanged;
    # tier-1 code lives in one table, the dispatch memo.
    info = vm.interpreter.cache_info()
    assert set(info) == set(VM(engine="threaded").interpreter.cache_info())
    assert info["size"] > 0
    engine = vm.interpreter
    assert len(engine._dispatch) == engine.stats.promotions > 0
    # Re-entry is served from the memo: nothing is promoted twice.
    vm.invoke(bench.entry, list(bench.args))
    assert len(engine._dispatch) == engine.stats.promotions


# ----------------------------------------------------------------------
# Harness, metrics, sweeps.
# ----------------------------------------------------------------------
def test_runner_attaches_tier1_snapshot():
    result = Runner(hot_bench("harness"), jit=None, engine="tier1").run()
    assert result.tier1 is not None
    assert result.tier1["promotions"] > 0
    threaded = Runner(hot_bench("harness2"), jit=None).run()
    assert threaded.tier1 is None


def test_metrics_plugin_exports_tier1_counters():
    from repro.metrics.profiler import TIER1_METRIC_NAMES, MetricsPlugin

    plugin = MetricsPlugin()
    Runner(hot_bench("metrics"), jit=None, engine="tier1",
           plugins=(plugin,)).run()
    assert plugin.raw["tier1_promotions"] > 0
    assert plugin.raw["tier1_compiled_blocks"] > 0
    plugin2 = MetricsPlugin()
    Runner(hot_bench("metrics2"), jit=None, plugins=(plugin2,)).run()
    assert all(plugin2.raw[name] == 0 for name in TIER1_METRIC_NAMES)


def test_durable_fingerprint_records_engine():
    tier1 = SweepConfig(engine="tier1").fingerprint(None, ())
    default = SweepConfig().fingerprint(None, ())
    assert tier1["engine"] == "tier1"
    assert default["engine"] == "threaded"
    assert tier1 != default


def test_sharded_tier1_sweep_matches_serial():
    benches = (hot_bench("shard-a", 30), hot_bench("shard-b", 50))
    kwargs = dict(jit=None, warmup=1, measure=1, engine="tier1")
    serial = run_suite(benches, **kwargs)
    sharded = run_suite(benches, jobs=2, **kwargs)
    assert [r.fingerprint() for r in serial.results] == \
        [r.fingerprint() for r in sharded.results]
    threaded = run_suite(benches, jit=None, warmup=1, measure=1)
    assert [r.fingerprint() for r in serial.results] == \
        [r.fingerprint() for r in threaded.results]
