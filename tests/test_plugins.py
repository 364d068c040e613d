"""The harness plugin protocol (paper Section 2.2).

Pins down the hook contract plugins rely on:

- ordering — ``before_run`` once after load, then
  ``before_iteration``/``after_iteration`` pairs (warmup first, flagged
  as such), then ``after_run`` once,
- ``on_fault`` — fired by the resilience layer only for failures that
  survive every retry; a reseeded retry that recovers produces a clean
  result and **no** fault callback,
- the :class:`~repro.harness.plugins.MergeablePlugin` shard protocol
  (snapshot on the worker, absorb in serial order on the parent).
"""

from __future__ import annotations

import dataclasses

from repro.faults.resilience import RESEED_STRIDE, run_resilient, run_suite
from repro.harness.config import SweepConfig
from repro.harness.core import GuestBenchmark, Runner
from repro.harness.plugins import (
    FaultLogPlugin,
    HarnessPlugin,
    MergeablePlugin,
)
from repro.metrics.profiler import MetricsPlugin
from repro.suites.registry import get_benchmark
from tests.fixtures import GUARDED_BENCHMARK


class OrderPlugin(HarnessPlugin):
    """Logs every hook invocation with its phase flags."""

    def __init__(self) -> None:
        self.calls: list = []

    def before_run(self, vm, benchmark) -> None:
        self.calls.append(("before_run", benchmark.name))

    def after_run(self, vm, benchmark, result) -> None:
        self.calls.append(("after_run", benchmark.name))

    def before_iteration(self, vm, benchmark, index, warmup) -> None:
        self.calls.append(("before_iteration", index, warmup))

    def after_iteration(self, vm, benchmark, index, warmup, stats) -> None:
        assert stats["wall"] >= 0
        self.calls.append(("after_iteration", index, warmup))


FAILING_BENCHMARK = GuestBenchmark(
    name="fixture-always-fails",
    suite="fixtures",
    source="""
class Bench {
    static def run() { return 1; }
}
""",
    entry="Bench.run",
    expected=2,              # always wrong -> ValidationError
    warmup=0,
    measure=1,
)


def test_hook_ordering_and_warmup_flags():
    plugin = OrderPlugin()
    Runner(GUARDED_BENCHMARK, jit=None,
           plugins=(plugin,)).run(warmup=2, measure=2)
    expected = [("before_run", GUARDED_BENCHMARK.name)]
    for i in range(2):
        expected += [("before_iteration", i, True),
                     ("after_iteration", i, True)]
    for i in range(2):
        expected += [("before_iteration", i, False),
                     ("after_iteration", i, False)]
    expected.append(("after_run", GUARDED_BENCHMARK.name))
    assert plugin.calls == expected


def test_on_fault_fires_for_unrecovered_failures():
    log = FaultLogPlugin()
    outcome = run_resilient(FAILING_BENCHMARK, SweepConfig(), None, (log,))
    assert not outcome.ok
    assert [r.benchmark for r in log.reports] == [FAILING_BENCHMARK.name]
    assert log.reports[0].error_type == "ValidationError"


#: Three threads mixing their id into a shared unsynchronized field on
#: one core: with more runnable threads than cores the scheduler's
#: seeded run-queue rotation picks the interleaving, so the checksum is
#: a function of the schedule seed — the raw material for testing
#: retry-with-reseed.
ORDER_SOURCE = r"""
class Box { var value; }
class Bench {
    static def run(n) {
        var b = new Box();
        b.value = 1;
        var latch = new CountDownLatch(3);
        var mk = fun (id) {
            return fun () {
                var i = 0;
                while (i < n) {
                    b.value = b.value * 3 + id;   // order-sensitive mix
                    i = i + 1;
                }
                latch.countDown();
            };
        };
        var t1 = new Thread(mk(1));
        var t2 = new Thread(mk(2));
        var t3 = new Thread(mk(3));
        t1.start(); t2.start(); t3.start();
        latch.await();
        return b.value % 1000000007;
    }
}
"""

ORDER_BENCHMARK = GuestBenchmark(
    name="fixture-schedule-checksum",
    suite="fixtures",
    source=ORDER_SOURCE,
    description="Checksum that depends on the thread interleaving",
    args=(2000,),
    expected=None,
    warmup=0,
    measure=1,
    deterministic=False,
)


def _order_value(seed: int) -> int:
    runner = Runner(ORDER_BENCHMARK, jit=None, cores=1, schedule_seed=seed)
    result = runner.run(warmup=0, measure=1)
    return result.iterations[-1].result


def test_on_fault_silent_when_retry_recovers():
    # Find a base seed whose checksum differs from its retry seed's:
    # expecting the *retry* value makes attempt 0 fail with a
    # ValidationError and the reseeded attempt 1 succeed.
    stride = RESEED_STRIDE
    for base_seed in range(8):
        first = _order_value(base_seed)
        second = _order_value(base_seed + stride)
        if first != second:
            break
    else:
        raise AssertionError("fixture produced seed-independent checksums")
    bench = dataclasses.replace(ORDER_BENCHMARK, expected=second)
    log = FaultLogPlugin()
    outcome = run_resilient(
        bench, SweepConfig(cores=1, schedule_seed=base_seed), None, (log,))
    assert outcome.ok
    assert outcome.retries == 1
    assert log.reports == []


def test_trace_plugin_keeps_failed_recording():
    from repro.trace import TracePlugin

    plugin = TracePlugin()
    outcome = run_resilient(FAILING_BENCHMARK, SweepConfig(), None, (plugin,))
    assert not outcome.ok
    assert plugin.last is not None
    assert plugin.last["failed"] == "ValidationError"


# ----------------------------------------------------------------------
# MergeablePlugin sharding.
# ----------------------------------------------------------------------
def test_plain_plugin_forces_serial_path():
    plugin = OrderPlugin()
    suite = run_suite([GUARDED_BENCHMARK], jobs=4, warmup=0, measure=1,
                      plugins=(plugin,))
    assert suite.completed == 1
    # Serial fallback keeps the VM on the result (workers strip it).
    assert suite.results[0].vm is not None
    assert plugin.calls                # hooks ran in-process


def test_mergeable_metrics_plugin_shards():
    benches = [get_benchmark(n) for n in ("scrabble", "philosophers")]

    def sweep(jobs):
        plugin = MetricsPlugin()
        run_suite(benches, jobs=jobs, warmup=1, measure=1,
                  plugins=(plugin,))
        return plugin

    serial = sweep(None)
    sharded = sweep(2)
    assert isinstance(serial, MergeablePlugin)
    assert [name for name, _ in sharded.per_run] == \
        [b.name for b in benches]
    assert sharded.per_run == serial.per_run
    assert sharded.raw == serial.raw
    assert sharded.reference_cycles == serial.reference_cycles


def test_metrics_plugin_resets_between_runs():
    plugin = MetricsPlugin()
    suite = run_suite([get_benchmark("scrabble"), GUARDED_BENCHMARK],
                      warmup=1, measure=1, plugins=(plugin,))
    assert suite.completed == 2
    metrics = dict(plugin.per_run)
    # Were the steady snapshot carried across VMs, the second
    # benchmark's counts would absorb the first one's whole run: the
    # sweep's metrics must match a standalone profiling run exactly
    # (everything is simulated, so equality is exact).
    alone = MetricsPlugin()
    Runner(GUARDED_BENCHMARK, jit="graal",
           plugins=(alone,)).run(warmup=1, measure=1)
    assert metrics[GUARDED_BENCHMARK.name] == alone.raw
    assert plugin.raw == metrics[GUARDED_BENCHMARK.name]
