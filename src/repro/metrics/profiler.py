"""Metric collection (paper Section 3.3).

The paper collects Table 2's metrics with DiSL bytecode instrumentation
(full coverage, separate runs from the hardware counters).  The
reproduction's analogue: run the benchmark on the *interpreter* (full
bytecode coverage, like instrumented runs) and read the VM counters,
which the substrate bumps on every executed primitive.  ``cpu`` and
``cachemiss`` come from the scheduler and the cache simulator — the
stand-ins for ``top`` and ``perf``.
"""

from __future__ import annotations

from repro.harness.core import GuestBenchmark, Runner
from repro.harness.plugins import MergeablePlugin

#: Table 2 metric names, in the paper's order.
METRIC_NAMES = (
    "synch", "wait", "notify", "atomic", "park",
    "cpu", "cachemiss", "object", "array", "method", "idynamic",
)

#: Observability counters (repro.trace): flight-recorder events emitted
#: and dropped plus profiler samples taken during the steady state.
#: All zero unless a recorder is attached.
TRACE_METRIC_NAMES = ("trace_events", "trace_dropped", "trace_samples")

#: Host tier-1 engine counters (repro.jvm.tier1): method promotions,
#: emitted superblocks, deopts by any reason, and simulated compile
#: cycles, read from ``RunResult.tier1``.  All zero unless the run used
#: ``engine="tier1"`` or ``"tier2"``.  These are host-side bookkeeping,
#: not guest counters — they never participate in the byte-identity
#: contract.
TIER1_METRIC_NAMES = ("tier1_promotions", "tier1_compiled_blocks",
                      "tier1_deopts", "tier1_compile_cycles")

#: Host tier-2 engine counters (repro.jit.machine.Tier2Machine):
#: machine-code promotions to host closures, emitted superblocks,
#: interpreted resumes (frames parked at a non-leader pc, run on the
#: interpretive Machine up to the next leader; key ``osr_entries``),
#: deopts by any reason, and simulated
#: compile cycles, read from ``RunResult.tier2``.  All zero unless the
#: run used ``engine="tier2"`` with a JIT attached.  Host-side
#: bookkeeping like the tier-1 set — never part of the byte-identity
#: contract.
TIER2_METRIC_NAMES = ("tier2_promotions", "tier2_compiled_blocks",
                      "tier2_osr_entries", "tier2_deopts",
                      "tier2_compile_cycles")

#: Compiler-verification counters (repro.sanitize.irverify /
#: blockverify): IR graphs verified, per-phase re-checks, superblocks
#: validated, and issues raised.  All zero unless the run used
#: ``verify_ir=True``.  Host-side bookkeeping, like the tier-1
#: counters — never part of the byte-identity contract.
IRVERIFY_METRIC_NAMES = ("irverify_graphs", "irverify_phase_checks",
                         "irverify_blocks", "irverify_issues")

#: Benchmark-as-a-service counters (repro.serve): job/unit lifecycle,
#: store dedup effectiveness, HTTP traffic, and supervision events.
#: Service-side bookkeeping — exported as Prometheus-style counters by
#: ``GET /metrics`` and never part of the byte-identity contract.
SERVE_METRIC_NAMES = (
    "serve_jobs_submitted", "serve_jobs_completed", "serve_jobs_failed",
    "serve_jobs_cancelled", "serve_jobs_recovered",
    "serve_units_total", "serve_units_cached", "serve_units_deduped",
    "serve_units_executed", "serve_units_failed", "serve_units_skipped",
    "serve_http_requests", "serve_http_errors", "serve_events_streamed",
    "serve_workers_respawned",
)

#: Sanitizer counters exported from checked runs (repro.sanitize), for
#: Table-7-style per-benchmark tables.  ``mean_lockset`` is derived:
#: average number of monitors held at each acquisition.
SANITIZER_METRIC_NAMES = (
    "race_checks", "races_found", "vc_promotions", "hb_edges",
    "lock_acquires", "mean_lockset",
)


class MetricsPlugin(MergeablePlugin):
    """Harness plugin capturing steady-state Table 2 metrics.

    Over a suite sweep the plugin keeps the metrics of the most recent
    run in ``raw``/``reference_cycles`` and a ``(benchmark, raw)``
    history in ``per_run``.  It implements the
    :class:`~repro.harness.plugins.MergeablePlugin` protocol, so a
    ``jobs=N`` sharded sweep reassembles the same history a serial
    sweep would.
    """

    def __init__(self) -> None:
        self.raw: dict | None = None
        self.reference_cycles = 0
        self.per_run: list[tuple[str, dict]] = []
        self._steady_snapshot = None
        self._timing = None
        self._pending: list[tuple[str, dict, int]] = []

    def before_run(self, vm, benchmark) -> None:
        # Fresh VM per run: drop snapshots of the previous benchmark.
        self._steady_snapshot = None
        self._timing = None

    def before_iteration(self, vm, benchmark, index, warmup) -> None:
        if not warmup and self._steady_snapshot is None:
            self._steady_snapshot = vm.counters.snapshot()
            self._timing = vm.timing_snapshot()

    def after_run(self, vm, benchmark, result) -> None:
        delta = vm.counters.diff(self._steady_snapshot or {})
        interval = vm.interval_stats(self._timing or vm.timing_snapshot())
        self.raw = {name: delta.get(name, 0) for name in METRIC_NAMES
                    if name != "cpu"}
        self.raw["cpu"] = interval["cpu"] * 100.0
        for name in TRACE_METRIC_NAMES:
            self.raw[name] = delta.get(name, 0)
        # tierN_<field> is the run's tierN snapshot field (deopts summed
        # over reasons); zero when the engine has no such tier.
        for tier, names in (("tier1", TIER1_METRIC_NAMES),
                            ("tier2", TIER2_METRIC_NAMES)):
            snap = getattr(result, tier) or {}
            for name in names:
                value = snap.get(name[len(tier) + 1:], 0)
                self.raw[name] = sum(value.values()) \
                    if isinstance(value, dict) else value
        irverify = getattr(vm, "irverify_stats", None) or {}
        for name in IRVERIFY_METRIC_NAMES:
            self.raw[name] = irverify.get(name[len("irverify_"):], 0)
        self.reference_cycles = delta.get("reference_cycles", 0)
        self.per_run.append((benchmark.name, dict(self.raw)))
        self._pending.append(
            (benchmark.name, dict(self.raw), self.reference_cycles))

    # -- MergeablePlugin protocol --------------------------------------
    def snapshot_run(self):
        pending, self._pending = self._pending, []
        return pending

    def absorb_run(self, payload) -> None:
        for name, raw, reference_cycles in payload:
            self.raw = dict(raw)
            self.reference_cycles = reference_cycles
            self.per_run.append((name, dict(raw)))


def collect_metrics(benchmark: GuestBenchmark, *, cores: int = 8,
                    warmup: int | None = None,
                    measure: int | None = None) -> tuple[dict, int]:
    """Profile ``benchmark`` on the interpreter (a "profiling run").

    Returns ``(raw_metrics, reference_cycles)`` — raw dynamic counts per
    Table 2 plus CPU utilization in percent, and the steady-state
    reference cycles used for normalization.
    """
    plugin = MetricsPlugin()
    runner = Runner(benchmark, jit=None, cores=cores, plugins=(plugin,))
    runner.run(warmup=1 if warmup is None else warmup, measure=measure)
    return plugin.raw, plugin.reference_cycles


def collect_checked_metrics(benchmark: GuestBenchmark, *, cores: int = 8,
                            schedule_seed: int = 0,
                            warmup: int | None = None,
                            measure: int | None = None) -> tuple[dict, int]:
    """Profile ``benchmark`` in checked mode (sanitizer attached).

    Returns ``(raw_sanitizer_metrics, reference_cycles)``: the
    :data:`SANITIZER_METRIC_NAMES` counts of the whole run plus the
    steady-state reference cycles for normalization.
    """
    plugin = MetricsPlugin()
    runner = Runner(benchmark, jit=None, cores=cores,
                    schedule_seed=schedule_seed, plugins=(plugin,),
                    sanitize=True)
    runner.run(warmup=1 if warmup is None else warmup, measure=measure)
    counters = runner.last_vm.counters
    raw = {name: getattr(counters, name)
           for name in SANITIZER_METRIC_NAMES if name != "mean_lockset"}
    raw["mean_lockset"] = (
        counters.lockset_entries / counters.lock_acquires
        if counters.lock_acquires else 0.0)
    return raw, plugin.reference_cycles
