"""Golden equivalence: tier-2 host-compiled machine code vs the ladder.

The tier-2 engine (repro.jit.machine.Tier2Machine + repro.jit.emit2,
on top of the tier-1 bytecode engine) host-compiles the guest JIT's
optimized CompiledCode into flat Python closures, with OSR entries at
any parked machine pc and a two-path deopt chain (guest guard failures
rematerialize frames through FrameState/VirtualObjectState recipes;
host traps resume the interpretive machine at the exact machine pc).  Its contract is the
tier-1 contract one tier up: *byte-identical observable behavior* —
results, counters, simulated clock, stdout, traces, RaceReports —
under any quantum, seed, JIT config, forced trap at any machine index,
injected fault, and across serial vs sharded sweeps.  These tests pin
that contract plus the promotion/OSR/deopt/invalidation mechanics.
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
from tests.fixtures import (
    GUARDED_BENCHMARK,
    LOCK_CYCLE_BENCHMARK,
    RACE_BENCHMARK,
)

#: Registry slice for jitted four-way equivalence: one string workload,
#: one fork-join, and both benchmarks added alongside this engine
#: (par-mnemonics is the DS-soundness regression workload).
JIT_SLICE = ("scrabble", "fj-kmeans", "par-mnemonics", "scala-kmeans")

FIXTURES = (RACE_BENCHMARK, GUARDED_BENCHMARK, LOCK_CYCLE_BENCHMARK)

assert_equivalent = functools.partial(
    util.assert_equivalent, engines=("threaded", "tier1", "tier2"),
    jit="graal")

#: Two-method workload sized so the *guest* JIT compiles ``step``
#: (invocation threshold 32) inside a single benchmark invocation; the
#: remaining calls then run as machine frames and cross the tier-2
#: slice-entry threshold (2), so one invocation tiers all the way up.
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
#: scheduler quantum parks the machine frame mid-loop — the promotion
#: then happens at pc != 0 (on-stack replacement) and lazily extended
#: entry blocks get exercised.
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
    # lazily grown entry table must resume there next slice.
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
# Promotion, OSR and the tier ladder.
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
    assert any(name.endswith("Bench.step") for name in snap["methods"])
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


def test_osr_entries_at_loop_header():
    # A tiny quantum parks the hot spin loop mid-method; the promotion
    # then lands at pc != 0 and/or the entry table grows at the parked
    # pc — both are on-stack replacement and must be observable.
    bench = spin_bench("osr")
    vm = VM(engine="tier2", jit="graal", quantum=200)
    vm.load(bench.compile())
    for _ in range(2):
        assert vm.invoke(bench.entry, list(bench.args)) == bench.expected
    stats = vm.machine.stats
    assert stats.promotions > 0
    assert stats.osr_entries > 0
    # Blocks entered at their static leaders are not OSR: the count is
    # a strict subset of what was emitted.
    assert stats.osr_entries < stats.blocks
    assert stats.compile_seconds > 0.0


def tier2_codes(vm):
    from repro.jit.emit2 import Tier2Code

    return [t2 for t2 in vm.machine._memo.values()
            if isinstance(t2, Tier2Code)]


def test_never_entered_region_is_never_compiled():
    # Promotion only validates; a block is emitted when a frame first
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
    record = stats.methods["Bench.step"]
    assert (record["blocks"], record["sites"]) == (step.nblocks, step.sites)
    assert stats.compile_cycles == sum(t2.compile_cycles for t2 in codes)


def test_generated_block_source_is_pinned(monkeypatch):
    # The text extend_tier2 generates for a (code, pc, deopt_at) is the
    # verifier's input and must not drift with *when* a block is
    # emitted: SHA-256 of Bench.step's blocks at pc 0 (a leader, emitted
    # on first entry) and pc 1 (mid-region, emitted on request), as
    # computed before emission moved out of compile_tier2.
    import hashlib
    import itertools

    from repro.jit.emit2 import extend_tier2
    from repro.jit.ir import Node

    # Machine registers are numbered by the process-wide IR node
    # counter: restart it so the CompiledCode is the fresh-process one.
    monkeypatch.setattr(Node, "_ids", itertools.count(1))
    bench = hot_bench("pinned2")
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    t2 = vm.machine._memo[vm.resolve_static("Bench", "step").compiled]
    assert sorted(t2.source) == [0]
    extend_tier2(t2, 1)
    assert {pc: hashlib.sha256(text.encode()).hexdigest()
            for pc, text in t2.source.items()} == {
        0: "481dfe8d9c6c311c127f61cc94e7f2e2"
           "9f5d39896850cb1ae67c5fc516dd5d5f",
        1: "a1db09bf3952769642ecb3acd36d1af1"
           "d317bb32258dfa7eedd4325a70069f63",
    }


# ----------------------------------------------------------------------
# The deopt chain.
# ----------------------------------------------------------------------
def test_forced_deopt_at_every_machine_pc_is_byte_identical():
    # Fuzz the host side of the deopt chain: plant a one-shot trap
    # before *every* machine-code index of the hot method.  Each
    # trapped run must stay byte-identical to the reference — the
    # emitted block flushes batched accounting, parks frame.pc on the
    # trapped instruction, and the interpretive machine resumes there.
    bench = hot_bench("deoptfuzz2")
    ref = util.reference(bench, jit="graal", invocations=2)
    probe = VM(engine="tier2", jit="graal")
    probe.load(bench.compile())
    probe.invoke(bench.entry, list(bench.args))
    npcs = len(probe.resolve_static("Bench", "step").compiled.instrs)
    assert npcs > 0
    fired = 0
    for pc in range(npcs):
        vm = VM(engine="tier2", jit="graal")
        vm.load(bench.compile())
        results = [vm.invoke(bench.entry, list(bench.args))]
        target = vm.resolve_static("Bench", "step")
        vm.machine.force_deopt(target, pc)
        results.append(vm.invoke(bench.entry, list(bench.args)))
        got = {
            "results": results,
            "counters": vm.counters.snapshot(),
            "clock": vm.scheduler.clock,
            "stdout": tuple(vm.stdout),
        }
        assert ref == got, f"tier-2 trap at machine pc {pc} diverged"
        fired += vm.machine.stats.deopts["forced"]
    assert fired > 0       # the traps actually triggered somewhere


def test_forced_deopt_invalidates_then_recompiles_clean():
    bench = hot_bench("deoptcycle2")
    vm = VM(engine="tier2", jit="graal")
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    machine = vm.machine
    method = vm.resolve_static("Bench", "step")
    assert method.compiled in machine._memo
    promotions = machine.stats.promotions
    machine.force_deopt(method, 0)
    assert method.compiled not in machine._memo
    vm.invoke(bench.entry, list(bench.args))
    assert machine.stats.deopts["forced"] >= 1
    # Trap fired -> closures dropped -> repromoted clean.
    vm.invoke(bench.entry, list(bench.args))
    assert machine.stats.promotions > promotions
    assert machine._memo[method.compiled].deopt_at is None


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
    # Leaders and OSR extensions alike are verified the moment they are
    # emitted (a tiny quantum forces mid-region entries), and the
    # lazily grown tables verify clean as a whole afterwards.
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


def test_verify_ir_rejects_block_tampered_after_emission(monkeypatch):
    import re

    import repro.jit.emit2 as emit2
    from repro.sanitize.blockverify import BlockVerifyError

    real = emit2.extend_tier2

    def tampering(t2, pc):
        out = real(t2, pc)
        t2.source[pc], hits = re.subn(
            r"thread\.budget = budget - (\d+)",
            lambda m: f"thread.budget = budget - {int(m[1]) + 1000}",
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
            "compile_cycles", "deopts", "methods"}
    assert set(tier1) == snap
    assert set(tier2) == snap | {"osr_entries", "compile_seconds"}
    reasons = {"budget", "exception", "fault", "forced"}
    assert set(tier1["deopts"]) == reasons
    assert set(tier2["deopts"]) == reasons | {"guard"}
    for record in (*tier1["methods"].values(), *tier2["methods"].values()):
        assert set(record) == {"promotions", "blocks", "sites",
                               "compile_cycles"}
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
