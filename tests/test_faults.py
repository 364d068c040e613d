"""Tests for deterministic fault injection and harness resilience
(repro.faults): fault determinism, the cycle watchdog, deadlock thread
dumps, quarantine and continue-on-error suite sweeps."""

import json

import pytest

import repro.faults.resilience as resilience
from repro.errors import (
    DeadlockError,
    GuestOutOfMemoryError,
    ReproError,
    WatchdogTimeout,
)
from repro.faults import (
    FailureReport,
    FaultPlan,
    FaultSpec,
    Quarantine,
    run_resilient,
    run_suite,
)
from repro.harness.config import SweepConfig
from repro.harness.core import (
    GuestBenchmark,
    Runner,
    ValidationError,
    compile_cache_info,
)
from repro.harness.plugins import FaultLogPlugin

COUNT_SRC = """
class Bench {
    static def run(n) {
        var acc = 0;
        var i = 0;
        while (i < n) { acc = acc + Bench.step(i); i = i + 1; }
        return acc;
    }
    static def step(i) { return i; }
}"""

ALLOC_SRC = """
class Bench {
    static def run(n) {
        var i = 0;
        var acc = 0;
        while (i < n) {
            var arr = new int[16];
            arr[0] = i;
            acc = acc + arr[0];
            i = i + 1;
        }
        return acc;
    }
}"""

LOOP_SRC = """
class Bench {
    static def run(n) {
        var i = 0;
        while (0 == 0) { i = i + 1; }
        return i;
    }
}"""

DEADLOCK_SRC = """
class Bench {
    static var a;
    static var b;
    static def left(k) {
        synchronized (Bench.a) {
            Bench.spin(200);
            synchronized (Bench.b) { return 1; }
        }
    }
    static def right(k) {
        synchronized (Bench.b) {
            Bench.spin(200);
            synchronized (Bench.a) { return 2; }
        }
    }
    static def spin(n) {
        var i = 0;
        while (i < n) { i = i + 1; }
        return i;
    }
    static def run(n) {
        Bench.a = new Object();
        Bench.b = new Object();
        var latch = new CountDownLatch(2);
        var t1 = new Thread(fun () { Bench.left(n); latch.countDown(); });
        var t2 = new Thread(fun () { Bench.right(n); latch.countDown(); });
        t1.start();
        t2.start();
        latch.await();
        return 0;
    }
}"""


def bench(name, source=COUNT_SRC, **overrides):
    defaults = dict(name=name, suite="tests", source=source, args=(20,),
                    expected=190, warmup=1, measure=2)
    defaults.update(overrides)
    return GuestBenchmark(**defaults)


# ----------------------------------------------------------------------
# Fault determinism.
# ----------------------------------------------------------------------
def test_same_seed_and_plan_give_byte_identical_reports():
    plan = FaultPlan.single("guest-exception", site="Bench.step", at=5,
                            seed=7, message="boom")
    b = bench("det")
    first = run_resilient(b, SweepConfig(jit=None), plan)
    second = run_resilient(b, SweepConfig(jit=None), plan)
    assert not first.ok and not second.ok
    assert first.failure.to_json() == second.failure.to_json()
    assert first.failure.to_json().encode() == second.failure.to_json().encode()


def test_fault_fires_at_nth_matching_call_site():
    plan = FaultPlan.single("guest-exception", site="Bench.step", at=5)
    out = run_resilient(bench("nth"), SweepConfig(jit=None), plan)
    (event,) = out.failure.fault_trace
    assert event["kind"] == "guest-exception"
    assert event["site"] == "Bench.step"
    assert event["occurrence"] == 5
    assert out.failure.error_type == "InjectedFault"
    assert out.failure.phase == "warmup"          # dies on iteration 0
    assert out.failure.iteration == 0


def test_injected_oom_at_call_site():
    plan = FaultPlan.single("oom", site="Bench.step", at=3, message="pressure")
    b = bench("oomsite")
    with pytest.raises(GuestOutOfMemoryError, match="occurrence 3"):
        Runner(b, jit=None, faults=plan).run()


def test_heap_limit_oom_is_deterministic():
    plan = FaultPlan(seed=3, heap_limit_words=200)
    b = bench("heap", source=ALLOC_SRC, args=(50,), expected=1225,
              warmup=1, measure=1)
    first = run_resilient(b, SweepConfig(jit=None), plan)
    second = run_resilient(b, SweepConfig(jit=None), plan)
    assert first.failure.error_type == "GuestOutOfMemoryError"
    assert "heap limit exceeded" in first.failure.message
    assert first.failure.to_json() == second.failure.to_json()


def test_thread_kill_surfaces_thread_killed_error():
    plan = FaultPlan.single("thread-kill", site="kill*", at=2)
    b = bench("kill", source=ALLOC_SRC, args=(50,), expected=1225)
    out = run_resilient(b, SweepConfig(jit=None), plan)
    assert out.failure.error_type == "ThreadKilledError"
    assert [e["kind"] for e in out.failure.fault_trace] == ["thread-kill"]


def test_delay_and_jitter_do_not_break_results():
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("delay", site="Bench.step", at=1, count=2, cycles=50000),
        FaultSpec("sched-jitter", at=3, count=10),
    ))
    out = run_resilient(bench("slow"), SweepConfig(jit=None), plan)
    assert out.ok
    assert all(it.result == 190 for it in out.result.iterations)


def test_delay_charges_cycles():
    base = Runner(bench("base"), jit=None).run(warmup=0, measure=1)
    plan = FaultPlan.single("delay", site="Bench.step", at=1, cycles=500000)
    slowed = Runner(bench("base"), jit=None, faults=plan).run(
        warmup=0, measure=1)
    assert slowed.mean_wall > base.mean_wall


def test_plan_roundtrips_through_dict():
    plan = FaultPlan(seed=9, specs=(
        FaultSpec("oom", site="A.b", at=4, message="x"),
        FaultSpec("sched-jitter", at=5, count=3),
    ), heap_limit_words=1000)
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_randomized_plan_is_seed_deterministic():
    assert FaultPlan.randomized(123) == FaultPlan.randomized(123)
    assert FaultPlan.randomized(123) != FaultPlan.randomized(124)


def test_bad_fault_specs_rejected():
    with pytest.raises(ReproError, match="unknown fault kind"):
        FaultSpec("frobnicate")
    with pytest.raises(ReproError, match="'at' must be >= 1"):
        FaultSpec("oom", at=0)


# ----------------------------------------------------------------------
# Watchdog.
# ----------------------------------------------------------------------
def test_watchdog_aborts_runaway_guest_loop():
    b = bench("looper", source=LOOP_SRC, args=(1,), expected=None,
              warmup=0, measure=1)
    with pytest.raises(WatchdogTimeout) as info:
        Runner(b, jit=None, iteration_budget=100_000).run()
    assert info.value.clock >= 100_000
    dump = info.value.thread_dump
    looping = [t for t in dump["threads"] if t["state"] == "runnable"]
    assert looping and looping[0]["top_frame"] == "Bench.run"


def test_watchdog_failure_report_carries_seed_and_dump():
    b = bench("looper2", source=LOOP_SRC, args=(1,), expected=None,
              warmup=0, measure=1)
    out = run_resilient(b, SweepConfig(jit=None, iteration_budget=100_000,
                                       schedule_seed=17))
    assert out.failure.error_type == "WatchdogTimeout"
    assert out.failure.schedule_seed == 17
    assert out.failure.thread_dump is not None
    assert "reproduce" in out.failure.format()


def test_watchdog_budget_is_per_iteration_not_cumulative():
    # Three iterations of a benchmark whose total work exceeds one
    # budget must still pass: the watchdog rearms every iteration.
    b = bench("steady", args=(300,), expected=44850, warmup=1, measure=2)
    per_iter = Runner(b, jit=None).run(warmup=0, measure=1).mean_wall
    budget = int(per_iter * 2)
    result = Runner(b, jit=None, iteration_budget=budget).run()
    assert len(result.iterations) == 2


# ----------------------------------------------------------------------
# Deadlock diagnostics.
# ----------------------------------------------------------------------
def test_deadlock_thread_dump_contents():
    b = bench("deadlocker", source=DEADLOCK_SRC, args=(1,), expected=0,
              warmup=0, measure=1)
    with pytest.raises(DeadlockError) as info:
        Runner(b, jit=None).run()
    dump = info.value.thread_dump
    assert dump is not None
    blocked = [t for t in dump["threads"] if t["state"] == "blocked"]
    assert len(blocked) == 2
    for t in blocked:
        assert t["holds"], "each deadlocked thread holds one lock"
        assert t["blocked_on"] is not None
        assert t["blocked_on_owner"] is not None
    # The owner cycle names both guest threads (tid-qualified).
    cycle = dump["deadlock_cycle"]
    assert cycle is not None
    assert cycle[0] == cycle[-1]              # closed cycle
    assert len(set(cycle)) == 2
    assert "lock cycle" in str(info.value)


def test_deadlock_report_is_replayable():
    b = bench("deadlocker2", source=DEADLOCK_SRC, args=(1,), expected=0,
              warmup=0, measure=1)
    first = run_resilient(b, SweepConfig(jit=None))
    second = run_resilient(b, SweepConfig(jit=None))
    assert first.failure.error_type == "DeadlockError"
    assert first.failure.to_json() == second.failure.to_json()


# ----------------------------------------------------------------------
# Retry-with-reseed policy.
# ----------------------------------------------------------------------
class _FlakyRunner:
    """Stub Runner failing the first N attempts (class-level counter)."""

    failures_left = 0
    seeds_seen = []

    def __init__(self, benchmark, *, schedule_seed=0, **kwargs):
        self.benchmark = benchmark
        self.schedule_seed = schedule_seed
        self.last_vm = None
        self.last_injector = None
        self.sanitize_plugin = None

    def run(self, warmup=None, measure=None):
        _FlakyRunner.seeds_seen.append(self.schedule_seed)
        if _FlakyRunner.failures_left > 0:
            _FlakyRunner.failures_left -= 1
            raise ValidationError("flaky interleaving",
                                  benchmark=self.benchmark.name,
                                  config="interpreter", iteration=0)
        from repro.harness.core import RunResult
        return RunResult(self.benchmark.name, "interpreter")


@pytest.fixture
def flaky_runner(monkeypatch):
    monkeypatch.setattr(resilience, "Runner", _FlakyRunner)
    _FlakyRunner.failures_left = 0
    _FlakyRunner.seeds_seen = []
    return _FlakyRunner


def test_nondeterministic_benchmark_retries_with_new_seeds(flaky_runner):
    flaky_runner.failures_left = 2
    b = bench("flaky", deterministic=False)
    out = run_resilient(b, SweepConfig(jit=None, schedule_seed=3,
                                       max_retries=2))
    assert out.ok
    assert out.retries == 2
    assert flaky_runner.seeds_seen == [3, 3 + 1_000_003, 3 + 2 * 1_000_003]


def test_retries_are_bounded(flaky_runner):
    flaky_runner.failures_left = 10
    b = bench("hopeless", deterministic=False)
    out = run_resilient(b, SweepConfig(jit=None, max_retries=2))
    assert not out.ok
    assert out.failure.retries == 2
    assert len(flaky_runner.seeds_seen) == 3


def test_deterministic_benchmark_never_retries(flaky_runner):
    flaky_runner.failures_left = 1
    out = run_resilient(bench("det2"), SweepConfig(jit=None, max_retries=5))
    assert not out.ok
    assert flaky_runner.seeds_seen == [0]


def test_injected_faults_never_retry():
    plan = FaultPlan.single("guest-exception", site="Bench.step", at=5)
    b = bench("injected", deterministic=False)
    out = run_resilient(b, SweepConfig(jit=None, max_retries=5), plan)
    assert not out.ok
    assert out.failure.retries == 0


# ----------------------------------------------------------------------
# Suite sweeps: continue_on_error + quarantine.
# ----------------------------------------------------------------------
def _trio():
    return [
        bench("sweep-a"),
        bench("sweep-b", source=COUNT_SRC.replace("step", "stepb")),
        bench("sweep-c"),
    ]


def test_suite_sweep_survives_poisoned_benchmark():
    plan = FaultPlan.single("oom", site="*.stepb", at=3, seed=11)
    sweep = run_suite(_trio(), jit=None, faults={"sweep-b": plan})
    assert sweep.completed == 2
    assert [f.benchmark for f in sweep.failures] == ["sweep-b"]
    assert "sweep-b" in sweep.quarantine
    assert "1 failed" in sweep.format()


def test_suite_sweep_quarantine_skips_on_repeat():
    plan = FaultPlan.single("oom", site="*.stepb", at=3)
    sweep = run_suite(_trio(), jit=None, faults={"sweep-b": plan}, repeat=2)
    # First sweep fails sweep-b; second sweep skips it.
    assert sweep.completed == 4
    assert len(sweep.failures) == 1
    assert sweep.skipped == ["sweep-b"]


def test_suite_sweep_shared_quarantine_across_calls():
    plan = FaultPlan.single("oom", site="*.stepb", at=3)
    q = Quarantine()
    run_suite(_trio(), jit=None, faults={"sweep-b": plan}, quarantine=q)
    again = run_suite(_trio(), jit=None, faults={"sweep-b": plan},
                      quarantine=q)
    assert again.skipped == ["sweep-b"]
    assert not again.failures


def test_suite_sweep_continue_on_error_false_raises():
    plan = FaultPlan.single("oom", site="*.stepb", at=3)
    with pytest.raises(ReproError, match="aborted on sweep-b"):
        run_suite(_trio(), jit=None, faults={"sweep-b": plan},
                  continue_on_error=False)


def test_on_fault_plugin_hook_fires():
    log = FaultLogPlugin()
    plan = FaultPlan.single("guest-exception", site="Bench.step", at=2)
    run_suite([bench("hooked")], jit=None, faults=plan, plugins=(log,))
    assert len(log.reports) == 1
    assert log.reports[0].benchmark == "hooked"


def test_renaissance_sweep_with_one_poisoned_benchmark():
    """Acceptance: a full 24-benchmark Renaissance sweep with one
    poisoned workload completes the remaining 23 and quarantines
    exactly one failure, with a replayable report."""
    plan = FaultPlan.single("guest-exception", site="*", at=50, seed=99,
                            message="poison")
    sweep = run_suite("renaissance", jit=None, warmup=0, measure=1,
                      faults={"page-rank": plan})
    assert sweep.completed == 23
    assert len(sweep.failures) == 1
    assert len(sweep.quarantine) == 1
    report = sweep.failures[0]
    assert report.benchmark == "page-rank"
    assert report.fault_seed == 99
    # The embedded plan replays to the byte-identical report.
    replay = run_resilient(
        __import__("repro.suites.registry", fromlist=["get_benchmark"])
        .get_benchmark("page-rank"),
        SweepConfig(jit=None, schedule_seed=report.schedule_seed,
                    warmup=0, measure=1),
        FaultPlan.from_dict(report.fault_plan))
    assert replay.failure.to_json() == report.to_json()


# ----------------------------------------------------------------------
# FailureReport mechanics.
# ----------------------------------------------------------------------
def test_failure_report_json_roundtrip():
    plan = FaultPlan.single("guest-exception", site="Bench.step", at=5)
    out = run_resilient(bench("round"), SweepConfig(jit=None), plan)
    text = out.failure.to_json()
    parsed = FailureReport.from_json(text)
    assert parsed.to_json() == text
    json.loads(text)                          # valid JSON


def test_failure_report_format_mentions_fault_and_seeds():
    plan = FaultPlan.single("oom", site="Bench.step", at=3, seed=21)
    out = run_resilient(bench("fmt"), SweepConfig(jit=None, schedule_seed=5),
                        plan)
    text = out.failure.format()
    assert "oom" in text
    assert "schedule=5" in text
    assert "fault=21" in text
    assert "reproduce:" in text


def test_reproduce_hint_replays_the_identical_failure():
    b = bench("hint")
    plan = FaultPlan.single("oom", site="Bench.step", at=3, seed=21)
    out = run_resilient(b, SweepConfig(jit=None, schedule_seed=5), plan)
    replay = eval(out.failure.reproduce_hint(), {
        "run_resilient": run_resilient, "get_benchmark": lambda name: b,
        "SweepConfig": SweepConfig, "FaultPlan": FaultPlan})
    assert replay.failure.to_json() == out.failure.to_json()


# ----------------------------------------------------------------------
# Satellites: registry duplicate rejection, harness error context,
# compile-cache bounds.
# ----------------------------------------------------------------------
def test_registry_rejects_duplicate_names(monkeypatch):
    import repro.suites.dacapo as dacapo
    from repro.suites.registry import benchmarks_of

    dup = bench("twin")
    monkeypatch.setattr(dacapo, "benchmarks", lambda: [dup, dup])
    benchmarks_of.cache_clear()
    try:
        with pytest.raises(ReproError, match="duplicate benchmark name"):
            benchmarks_of("dacapo")
    finally:
        monkeypatch.undo()
        benchmarks_of.cache_clear()


def test_get_benchmark_with_suite_disambiguates():
    from repro.suites.registry import get_benchmark

    assert get_benchmark("sunflow", suite="dacapo").suite == "dacapo"
    assert get_benchmark("sunflow", suite="specjvm").suite == "specjvm"
    with pytest.raises(ReproError, match="in suite 'renaissance'"):
        get_benchmark("sunflow", suite="renaissance")


def test_validation_error_includes_config_and_iteration():
    bad = bench("badval", expected=1, warmup=0, measure=3)
    with pytest.raises(ValidationError) as info:
        Runner(bad, jit=None).run()
    exc = info.value
    assert exc.benchmark == "badval"
    assert exc.config == "interpreter"
    assert exc.iteration == 0
    assert not exc.warmup
    assert "[interpreter]" in str(exc)
    assert "iteration 0" in str(exc)


def test_compile_cache_is_bounded():
    from repro.harness.core import _COMPILE_CACHE_MAX, _compiled

    before = compile_cache_info()
    assert before["maxsize"] == _COMPILE_CACHE_MAX
    for i in range(5):
        _compiled(COUNT_SRC.replace("step", f"cachecase{i}"))
    info = compile_cache_info()
    assert info["size"] <= info["maxsize"]
    # Re-requesting a cached source returns the same object (hit).
    one = _compiled(COUNT_SRC.replace("step", "cachecase0"))
    assert one is _compiled(COUNT_SRC.replace("step", "cachecase0"))


# ----------------------------------------------------------------------
# Chaos (tier-2): full-suite sweep under a randomized-but-logged seed.
# Excluded from tier-1 by `-m "not chaos"` in pyproject; run via
# `make chaos` (optionally CHAOS_SEED=<n> make chaos to replay).
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_chaos_sweep_completes_under_random_faults():
    import os

    seed = int(os.environ.get("CHAOS_SEED", "0") or 0)
    if not seed:
        seed = int.from_bytes(os.urandom(4), "big")
    print(f"\n[chaos] CHAOS_SEED={seed}  (export CHAOS_SEED={seed} to replay)")
    benches = __import__(
        "repro.suites.registry", fromlist=["benchmarks_of"]
    ).benchmarks_of("renaissance")
    plans = {
        b.name: FaultPlan.randomized(seed + i, sites=("*",))
        for i, b in enumerate(benches)
    }
    sweep = run_suite("renaissance", jit=None, warmup=0, measure=1,
                      faults=plans, max_retries=1)
    # Chaos may fail any subset, but the sweep itself must survive and
    # account for every benchmark exactly once.
    assert sweep.completed + len(sweep.failures) == len(benches)
    for report in sweep.failures:
        assert report.fault_plan is not None
        assert report.to_json()              # serializable
    print(f"[chaos] completed={sweep.completed} "
          f"failures={[f.benchmark for f in sweep.failures]}")
