"""Tests for the benchmark harness, plugins and JMH frontend."""

import dataclasses

import pytest

from repro.harness import GuestBenchmark, Runner, run_jmh
from repro.harness.core import ValidationError
from repro.harness.plugins import HarnessPlugin, IterationLogPlugin

SIMPLE = GuestBenchmark(
    name="tiny",
    suite="tests",
    source="""
    class Bench {
        static def run(n) {
            var acc = 0;
            var i = 0;
            while (i < n) { acc = acc + i; i = i + 1; }
            return acc;
        }
    }""",
    args=(20,),
    expected=190,
    warmup=2,
    measure=3,
)


def test_runner_collects_iterations_and_counters():
    result = Runner(SIMPLE, jit=None).run()
    assert result.benchmark == "tiny"
    assert result.config == "interpreter"
    assert len(result.iterations) == 3
    assert all(it.result == 190 for it in result.iterations)
    assert result.mean_wall > 0
    assert result.counters["reference_cycles"] > 0
    assert 0.0 < result.cpu <= 1.0


def test_runner_validates_expected_result():
    bad = dataclasses.replace(SIMPLE, expected=1)
    with pytest.raises(ValidationError):
        Runner(bad, jit=None).run()


def test_runner_config_names():
    assert Runner(SIMPLE, jit="graal").run(warmup=0, measure=1).config \
        == "graal"
    from repro.jit.pipeline import graal_config
    cfg = graal_config().without("GM")
    assert Runner(SIMPLE, jit=cfg).run(warmup=0, measure=1).config \
        == "graal-no-GM"


def test_plugin_hooks_fire_in_order():
    events = []

    class Probe(HarnessPlugin):
        def before_run(self, vm, benchmark):
            events.append("before_run")

        def before_iteration(self, vm, benchmark, index, warmup):
            events.append(f"bi{index}{'w' if warmup else 'm'}")

        def after_iteration(self, vm, benchmark, index, warmup, stats):
            events.append(f"ai{index}{'w' if warmup else 'm'}")
            assert stats["wall"] >= 0

        def after_run(self, vm, benchmark, result):
            events.append("after_run")

    Runner(SIMPLE, jit=None, plugins=(Probe(),)).run(warmup=1, measure=1)
    assert events == ["before_run", "bi0w", "ai0w", "bi0m", "ai0m",
                      "after_run"]


def test_iteration_log_plugin():
    log = IterationLogPlugin()
    Runner(SIMPLE, jit=None, plugins=(log,)).run(warmup=1, measure=2)
    assert [(i, w) for i, w, _ in log.log] == [(0, True), (0, False),
                                               (1, False)]


def test_jmh_forks_use_distinct_seeds_and_aggregate():
    result = run_jmh(SIMPLE, jit=None, forks=3, warmup=1, measure=2)
    assert result.forks == 3
    assert len(result.fork_means) == 3
    assert len(result.walls) == 6
    assert result.score > 0
    lo, hi = result.ci()
    assert lo <= result.score <= hi
    assert "tiny" in result.format()


def test_benchmark_definitions_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SIMPLE.name = "other"


def test_sweep_and_service_imports_stay_light():
    # scipy/numpy cost ~1.3 s and ~80 MB per process; a sweep, a worker
    # or the service never calls the three statistics that need them.
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys; import repro.faults.resilience, "
            "repro.suites.registry, repro.serve.scheduler, "
            "repro.harness.__main__; "
            "print([m for m in ('scipy', 'numpy') if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
    # The in-process sweep path never loads asyncio: only a sweep that
    # runs on workers imports the scheduler.
    code = ("import sys; import repro.faults.resilience, repro.harness; "
            "print('asyncio' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_cli_defaults_are_the_sweep_config_defaults(monkeypatch):
    import repro.faults.resilience as resilience
    from repro.harness import SweepConfig
    from repro.harness.__main__ import main

    seen = {}

    def fake_run_suite(workload, **kwargs):
        seen.update(kwargs)
        return resilience.SuiteResult("renaissance", "graal")

    monkeypatch.setattr(resilience, "run_suite", fake_run_suite)
    assert main(["renaissance:philosophers"]) == 0
    default = SweepConfig()
    assert {k: seen[k] for k in ("jit", "engine", "cores", "schedule_seed")} \
        == {"jit": default.jit, "engine": default.engine,
            "cores": default.cores, "schedule_seed": default.schedule_seed}


def test_runner_sanitize_takes_only_declarative_values():
    from repro.sanitize import SanitizerConfig, SanitizerPlugin

    for spec in (True, SanitizerConfig()):
        runner = Runner(SIMPLE, sanitize=spec)
        assert runner.jit is None and runner.sanitize_plugin is not None
    with pytest.raises(TypeError, match="SanitizerConfig"):
        Runner(SIMPLE, sanitize=SanitizerPlugin())


# ----------------------------------------------------------------------
# A finished sweep unit's VM is retired: its numbers stay, its guest
# state goes.
# ----------------------------------------------------------------------
GUEST_STATE = GuestBenchmark(
    name="guest-state",
    suite="tests",
    source="""
    class Bench {
        static var table = null;
        static def fill(a, n) {
            var i = 0;
            while (i < n) { a[i] = i * 2; i = i + 1; }
            return a;
        }
        static def run(n) {
            Bench.table = new int[n];
            var t = new Thread(fun () { park(); });
            t.daemon = true;
            t.start();
            synchronized (Bench.table) { Bench.fill(Bench.table, n); }
            return Bench.table[n - 1];
        }
    }""",
    args=(3000,),
    expected=5998,
    warmup=1,
    measure=1,
)


def _readers(result) -> dict:
    """Everything the ledger and the analysis modules read off a
    finished unit."""
    vm = result.vm
    stats = vm.jit.stats
    return {
        "counters": vm.counters.snapshot(),
        "jit": (stats.compilations, stats.failures, stats.recompilations,
                dict(stats.phase_cycles), vm.jit.code_size_bytes(),
                vm.jit.hot_method_count()),
        "cache_info": vm.interpreter.cache_info(),
        "loaded": sorted(c.name for c in vm.pool.loaded_classes()),
        "tiers": (result.tier1, result.tier2),
    }


def test_retired_sweep_units_read_as_before_retire():
    from repro.faults.resilience import run_resilient, run_suite
    from repro.harness.config import SweepConfig

    kwargs = dict(jit="graal", engine="tier2", schedule_seed=3)
    swept = run_suite((GUEST_STATE,), **kwargs).results[0]
    alone = run_resilient(GUEST_STATE, SweepConfig(**kwargs)).result
    alone.vm.drop_host_code()
    before = _readers(alone)
    assert before["jit"][4] > 0 and before["tiers"][1] is not None
    alone.vm.retire()
    assert _readers(alone) == before
    assert _readers(swept) == before
    assert swept.fingerprint() == alone.fingerprint()


def test_retired_vm_holds_no_guest_state_and_runs_nothing():
    from repro.errors import VMError
    from repro.faults.resilience import run_suite

    vm = run_suite((GUEST_STATE,), jit="graal").results[0].vm
    assert vm.counters.instructions > 0 and vm.jit.hot_method_count() > 0
    assert vm.jit.code_size_bytes() > 0 and vm.jit.compiled_methods == []
    program = GUEST_STATE.compile()
    for cls in program.classes:
        assert all(v == 0 for v in cls.static_values.values())
        assert all(m.compiled is None and m.call_profile is None
                   for m in cls.methods.values())
    assert not vm.scheduler.threads and not vm.scheduler.runnable
    assert not vm.scheduler._monitors and not vm.scheduler.live_nondaemon
    assert not vm.cache.llc_tags and not vm.cache.l1_tags
    with pytest.raises(VMError, match="retired"):
        vm.invoke("Bench.run", [10])


def test_each_retired_unit_fingerprints_as_when_run_alone():
    from repro.faults.resilience import run_suite
    from repro.suites.registry import get_benchmark

    benches = (GUEST_STATE, SIMPLE, get_benchmark("philosophers"))
    kwargs = dict(jit="graal", warmup=0, measure=1, schedule_seed=1)
    suite = run_suite(benches, repeat=2, **kwargs)
    assert [r.benchmark for r in suite.results] == \
        [b.name for b in benches] * 2
    for bench, result in zip(benches * 2, suite.results):
        alone = run_suite((bench,), **kwargs).results[0]
        assert alone.fingerprint() == result.fingerprint()


#: Its one static holds a 400 000-element array: about 3.2 MB of host
#: list, which a sweep must not keep after the unit finishes.
BIG_STATIC = GuestBenchmark(
    name="big-static",
    suite="tests",
    source="""
    class Bench {
        static var table = null;
        static def run(n) {
            Bench.table = new int[n];
            return n;
        }
    }""",
    args=(400_000,),
    expected=400_000,
    warmup=0,
    measure=1,
)


def test_a_sweep_does_not_keep_a_finished_units_guest_heap():
    import gc
    import tracemalloc

    from repro.faults.resilience import run_suite

    kwargs = dict(jit=None, warmup=0, measure=1)
    run_suite((SIMPLE,), **kwargs)          # imports and first-use caches
    BIG_STATIC.compile()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        suite = run_suite((BIG_STATIC,), **kwargs)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert suite.results[0].vm.counters.array == 1
    array_bytes = 400_000 * 8
    assert held < array_bytes / 2, f"{held} bytes still traced"
