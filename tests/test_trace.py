"""The flight recorder (repro.trace) and its exporters.

The recorder's contract is determinism: for a fixed schedule seed the
event stream is a pure function of the program, so

- the reference and threaded tier-0 engines produce **byte-identical**
  recordings (events, timestamps, and profiler samples),
- a sharded suite sweep (``jobs=N``) merges back to the serial
  recording list, byte for byte.

Byte-identity is asserted on ``json.dumps(..., sort_keys=True)`` of the
plain-dict recording — the same serialization the exporters consume.
"""

from __future__ import annotations

import json

from repro.faults.resilience import run_suite
from repro.harness.core import GuestBenchmark, Runner
from repro.runtime import VM
from repro.suites.registry import get_benchmark
from repro.trace import (
    CATEGORIES,
    TraceConfig,
    TracePlugin,
    chrome_trace,
    collapsed_output,
    summary,
    validate_chrome_trace,
)
from repro.trace.__main__ import main as trace_main

#: Two CAS-looping incrementers on one AtomicLong.  The spin between
#: the read and the CAS widens the window past a scheduler quantum, so
#: the loops genuinely contend and ``cas.fail`` events are guaranteed.
CAS_SOURCE = r"""
class Bench {
    static def run(n) {
        var c = new AtomicLong(0);
        var latch = new CountDownLatch(2);
        var body = fun () {
            var i = 0;
            while (i < n) {
                var old = c.get();
                var j = 0;
                while (j < 400) { j = j + 1; }   // widen the CAS window
                if (c.compareAndSet(old, old + 1)) {
                    i = i + 1;
                }
            }
            latch.countDown();
        };
        var t1 = new Thread(body);
        var t2 = new Thread(body);
        t1.start();
        t2.start();
        latch.await();
        return c.get();
    }
}
"""

CAS_BENCHMARK = GuestBenchmark(
    name="fixture-cas",
    suite="fixtures",
    source=CAS_SOURCE,
    description="Two threads CAS-loop one AtomicLong",
    args=(40,),
    expected=80,
    warmup=0,
    measure=1,
)


def record(bench, engine, *, jit=None, seed=7, config=True, repeat=1):
    """Run ``bench`` once on ``engine`` with a recorder; return the VM."""
    vm = VM(jit=jit, engine=engine, schedule_seed=seed, trace=config)
    vm.load(bench.compile())
    for i in range(repeat):
        vm.invoke(bench.entry, list(bench.args), name=f"{bench.name}-it{i}")
    return vm


def dumps(recording) -> str:
    return json.dumps(recording, sort_keys=True)


def counts(recording) -> dict:
    out: dict = {}
    for _seq, _ts, cat, name, _tid, _args in recording["events"]:
        key = f"{cat}.{name}"
        out[key] = out.get(key, 0) + 1
    return out


# ----------------------------------------------------------------------
# Determinism: engines and shards.
# ----------------------------------------------------------------------
def test_engines_byte_identical_streams():
    bench = get_benchmark("philosophers")
    ref = record(bench, "reference").trace.recording(benchmark=bench.name)
    thr = record(bench, "threaded").trace.recording(benchmark=bench.name)
    assert ref["emitted"] > 0
    assert ref["samples"]["samples"] > 0
    assert dumps(ref) == dumps(thr)


def test_cas_failures_identical_across_engines():
    ref_vm = record(CAS_BENCHMARK, "reference")
    thr_vm = record(CAS_BENCHMARK, "threaded")
    ref = ref_vm.trace.recording(benchmark="fixture-cas")
    thr = thr_vm.trace.recording(benchmark="fixture-cas")
    assert dumps(ref) == dumps(thr)
    # Every counted CAS failure surfaces as a cas.fail event.
    assert ref_vm.counters.cas_failures > 0
    assert counts(ref)["cas.fail"] == ref_vm.counters.cas_failures
    # Under the guest JIT the host tiers' blocks run the CAS loop too;
    # their cas.fail line tests the recorder at run time.
    vms = {engine: record(CAS_BENCHMARK, engine, jit="graal", repeat=8)
           for engine in ("reference", "threaded", "tier1", "tier2")}
    streams = {engine: dumps(vm.trace.recording(benchmark="fixture-cas"))
               for engine, vm in vms.items()}
    assert [engine for engine, stream in streams.items()
            if stream != streams["reference"]] == []
    jitted = vms["reference"]
    assert counts(jitted.trace.recording(benchmark="fixture-cas"))[
        "cas.fail"] == jitted.counters.cas_failures > 0
    # A tier-2 block is emitted when a frame first enters it.
    assert any("_tcas.emit" in text
               for t2 in vms["tier2"].machine._memo.values()
               for text in t2.source.values())


def test_jit_compiles_and_machine_cas_recorded():
    vm = record(CAS_BENCHMARK, "threaded", jit="graal", repeat=8)
    recording = vm.trace.recording(benchmark="fixture-cas")
    event_counts = counts(recording)
    assert event_counts.get("jit.compile", 0) > 0
    # Compiled CAS loops keep emitting failures through the machine.
    assert event_counts["cas.fail"] == vm.counters.cas_failures


def test_sharded_sweep_recordings_match_serial():
    benches = [get_benchmark(n)
               for n in ("scrabble", "philosophers", "fj-kmeans")]
    config = TraceConfig(sample_interval=20_000)

    def sweep(jobs):
        plugin = TracePlugin(config)
        suite = run_suite(benches, jobs=jobs, warmup=1, measure=1,
                          plugins=(plugin,))
        return plugin, suite

    serial_plugin, serial = sweep(None)
    shard_plugin, sharded = sweep(4)
    assert serial.completed == sharded.completed == len(benches)
    assert dumps(serial_plugin.recordings) == dumps(shard_plugin.recordings)
    # The summary digest rides on every RunResult, shards included.
    assert all(r.trace is not None for r in sharded.results)


# ----------------------------------------------------------------------
# Recorder mechanics.
# ----------------------------------------------------------------------
def test_ring_buffer_bounds_memory_and_counts_drops():
    config = TraceConfig(capacity=16, sample_interval=0)
    vm = record(get_benchmark("philosophers"), "threaded", config=config)
    recorder = vm.trace
    assert recorder.emitted > 16
    assert len(recorder.event_list()) == 16
    assert recorder.dropped == recorder.emitted - 16
    assert vm.counters.trace_dropped == recorder.dropped
    assert vm.counters.trace_events == recorder.emitted
    # The live window is the *newest* events, in order.
    seqs = [e[0] for e in recorder.event_list()]
    assert seqs == list(range(recorder.emitted - 16, recorder.emitted))


def test_category_gating():
    bench = get_benchmark("philosophers")
    monitor_only = record(
        bench, "threaded",
        config=TraceConfig(categories=("monitor",), sample_interval=0))
    cats = {e[2] for e in monitor_only.trace.event_list()}
    assert cats == {"monitor"}
    nothing = record(
        bench, "threaded",
        config=TraceConfig(categories=(), sample_interval=0))
    assert nothing.trace.emitted == 0
    # The sampler is orthogonal to event categories.
    sampler_only = record(
        bench, "threaded",
        config=TraceConfig(categories=(), sample_interval=10_000))
    assert sampler_only.trace.emitted == 0
    assert sampler_only.counters.trace_samples > 0


def test_untraced_vm_costs_nothing_and_counts_nothing():
    vm = record(get_benchmark("scrabble"), "threaded", config=None)
    assert vm.trace is None
    assert vm.scheduler.trace is None
    assert vm.heap.trace is None
    assert vm.counters.trace_events == 0
    assert vm.counters.trace_samples == 0


def test_metrics_plugin_exports_trace_counters():
    from repro.metrics.profiler import MetricsPlugin

    metrics = MetricsPlugin()
    trace = TracePlugin()
    Runner(get_benchmark("philosophers"), jit=None,
           plugins=(trace, metrics)).run(warmup=1, measure=1)
    assert metrics.raw["trace_events"] > 0
    assert metrics.raw["trace_samples"] > 0
    assert metrics.raw["trace_dropped"] >= 0


# ----------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------
def test_chrome_trace_schema_and_contention_spans():
    bench = get_benchmark("philosophers")
    recording = record(bench, "threaded").trace.recording(
        benchmark=bench.name)
    doc = chrome_trace(recording)
    assert validate_chrome_trace(doc) == []
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert phases == {"M", "X", "i"}
    # Philosophers contend: some X span must be a monitor interval.
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert any(e["name"].startswith("contended") for e in spans)
    digest = summary(recording)
    assert digest["hot_monitors"]
    assert digest["hot_monitors"][0]["blocked_cycles"] > 0
    assert digest["top_methods"]


def test_validate_chrome_trace_rejects_malformed():
    assert validate_chrome_trace({"nope": 1})
    bad = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1}]}
    assert any("bad phase" in p for p in validate_chrome_trace(bad))


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "artifacts"
    rc = trace_main(["renaissance:philosophers", "--out", str(out),
                     "--warmup", "1", "--measure", "1"])
    assert rc == 0
    trace_path = out / "philosophers.trace.json"
    collapsed_path = out / "philosophers.collapsed.txt"
    summary_path = out / "philosophers.summary.json"
    assert trace_path.exists() and collapsed_path.exists() \
        and summary_path.exists()
    assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
    # At least one collapsed stack reaches a real guest frame.
    lines = collapsed_path.read_text().splitlines()
    assert any("." in line.rsplit(" ", 1)[0].split(";", 1)[-1]
               for line in lines)
    digest = json.loads(summary_path.read_text())
    assert digest["events"]["emitted"] > 0


def test_cli_category_selection(tmp_path):
    out = tmp_path / "monitor-only"
    rc = trace_main(["philosophers", "--out", str(out),
                     "--categories", "monitor,thread",
                     "--warmup", "0", "--measure", "1"])
    assert rc == 0
    doc = json.loads((out / "philosophers.trace.json").read_text())
    cats = {e.get("cat") for e in doc["traceEvents"]
            if e["ph"] != "M"}
    assert cats <= {"monitor", "thread"}


def test_cli_unknown_benchmark_errors(tmp_path):
    assert trace_main(["no-such-benchmark", "--out", str(tmp_path)]) == 2


def test_collapsed_output_round_trips_sampler(tmp_path):
    bench = get_benchmark("philosophers")
    recording = record(bench, "threaded").trace.recording(
        benchmark=bench.name)
    text = collapsed_output(recording)
    assert text
    for line in text.splitlines():
        stack, _, count = line.rpartition(" ")
        assert stack and int(count) > 0


# ----------------------------------------------------------------------
# Zero-cycle interval guards (regression: no ZeroDivisionError on a VM
# that has not executed anything yet).
# ----------------------------------------------------------------------
def test_zero_cycle_intervals_are_guarded():
    vm = VM(jit=None)
    assert vm.scheduler.clock == 0
    assert vm.scheduler.cpu_utilization() == 0.0
    stats = vm.interval_stats(vm.timing_snapshot())
    assert stats["wall"] == 0
    assert stats["cpu"] == 0.0


def test_trace_config_rejects_unknown_categories():
    import pytest

    from repro.errors import VMError

    with pytest.raises(VMError, match="unknown trace categories"):
        TraceConfig(categories=("monitor", "bogus"))
    with pytest.raises(VMError, match="capacity"):
        TraceConfig(capacity=0)
    assert set(TraceConfig().categories) == set(CATEGORIES)
