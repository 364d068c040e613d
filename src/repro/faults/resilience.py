"""Harness resilience: survive and diagnose benchmark failures.

:func:`run_resilient` runs one unit — a benchmark under a
:class:`~repro.harness.config.SweepConfig` — on a
:class:`repro.harness.core.Runner` with

- a per-iteration cycle budget (the scheduler watchdog turns runaway
  guest loops into :class:`~repro.errors.WatchdogTimeout`),
- bounded retry-with-reseed for ``deterministic=False`` benchmarks whose
  failure is plausibly an unlucky interleaving (never for injected
  faults — the same plan would refire them), and
- a :class:`~repro.faults.report.FailureReport` instead of a raised
  exception, so callers decide whether a failure is fatal.

:func:`run_suite` runs a whole suite with per-benchmark isolation: one
sick workload is quarantined and reported while the remaining ones keep
running (``continue_on_error=True``, the default).
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass, field

from repro.errors import (
    DeadlockError,
    GuestRuntimeError,
    ReproError,
    SweepInterrupted,
    WatchdogTimeout,
)
from repro.faults.plan import FaultPlan
from repro.faults.report import FailureReport
from repro.harness.config import SweepConfig, plans_of, resolve_suite
from repro.harness.core import GuestBenchmark, Runner, RunResult, \
    ValidationError
from repro.harness.plugins import MergeablePlugin

#: Errors a different schedule seed can plausibly dodge.
_RETRYABLE = (ValidationError, DeadlockError, WatchdogTimeout)

#: Fault-trace kinds that abort the guest (a retry would just refire).
_DESTRUCTIVE_KINDS = frozenset({"oom", "guest-exception", "thread-kill"})


@dataclass
class ResilientResult:
    """Outcome of one resilient run: a result XOR a failure report."""

    benchmark: str
    config: str
    result: RunResult | None = None
    failure: FailureReport | None = None
    retries: int = 0
    race_report: object = None      # RaceReport of a checked run

    @property
    def ok(self) -> bool:
        return self.failure is None


#: Schedule-seed distance between retry attempts: attempt ``k`` runs
#: under ``config.schedule_seed + k * RESEED_STRIDE``.
RESEED_STRIDE = 1_000_003


def run_resilient(bench: GuestBenchmark, config: SweepConfig = SweepConfig(),
                  plan: FaultPlan | None = None,
                  plugins: tuple = ()) -> ResilientResult:
    """Run one unit under ``config``, reporting failures instead of
    dying on them.

    The only place a :class:`SweepConfig` becomes :class:`Runner`
    arguments: every sweep path (the in-process loop, the durable
    workers, the service) runs its units through here.
    """
    plugins = tuple(plugins)
    attempt = 0
    while True:
        seed = config.schedule_seed + attempt * RESEED_STRIDE
        runner = Runner(
            bench, jit=config.jit, cores=config.cores, schedule_seed=seed,
            plugins=plugins, faults=plan,
            iteration_budget=config.iteration_budget,
            sanitize=config.sanitize, engine=config.engine,
            verify_ir=config.verify_ir)
        try:
            result = runner.run(warmup=config.warmup, measure=config.measure)
        except ReproError as exc:
            if _should_retry(exc, runner, bench, attempt, config.max_retries):
                attempt += 1
                continue
            report = _report(exc, runner, bench, plan, seed,
                             config.config_name, attempt)
            for plugin in plugins:
                on_fault = getattr(plugin, "on_fault", None)
                if on_fault is not None:
                    on_fault(runner.last_vm, bench, report)
            return ResilientResult(bench.name, config.config_name,
                                   failure=report, retries=attempt)
        plugin = runner.sanitize_plugin
        return ResilientResult(
            bench.name, config.config_name, result=result, retries=attempt,
            race_report=plugin.report if plugin is not None else None)


def _should_retry(exc: ReproError, runner: Runner, bench: GuestBenchmark,
                  attempt: int, max_retries: int) -> bool:
    if attempt >= max_retries:
        return False
    # Only nondeterministic benchmarks may legitimately fail under
    # one interleaving and pass under another (the paper: "it is not
    # possible to achieve full determinism in concurrent
    # benchmarks").
    if bench.deterministic:
        return False
    if not isinstance(exc, _RETRYABLE):
        return False
    # Never retry a failure the fault plan caused on purpose.
    if getattr(exc, "injected", False):
        return False
    injector = runner.last_injector
    if injector is not None and any(
            e.kind in _DESTRUCTIVE_KINDS for e in injector.trace):
        return False
    return True


def _report(exc: ReproError, runner: Runner, bench: GuestBenchmark,
            plan: FaultPlan | None, seed: int, config: str,
            retries: int) -> FailureReport:
    injector = runner.last_injector
    vm = runner.last_vm
    thread_dump = getattr(exc, "thread_dump", None)
    if thread_dump is None and vm is not None \
            and isinstance(exc, GuestRuntimeError):
        thread_dump = vm.scheduler.thread_dump()
    warmup_flag = getattr(exc, "warmup", None)
    iteration = getattr(exc, "iteration", None)
    if warmup_flag is None and iteration is None:
        phase = "load"
    else:
        phase = "warmup" if warmup_flag else "measure"
    return FailureReport(
        benchmark=bench.name,
        config=config,
        error_type=type(exc).__name__,
        message=str(exc),
        phase=phase,
        iteration=iteration,
        schedule_seed=seed,
        fault_seed=plan.seed if plan is not None else None,
        fault_plan=plan.to_dict() if plan is not None else None,
        fault_trace=injector.trace_dicts() if injector is not None else (),
        thread_dump=thread_dump,
        clock=vm.scheduler.clock if vm is not None else 0,
        retries=retries,
    )


# ----------------------------------------------------------------------
# Suite sweeps.
# ----------------------------------------------------------------------
class Quarantine:
    """Benchmarks pulled out of rotation after a failure.

    A quarantine can be shared across repeated sweeps (or separate
    :func:`run_suite` calls): once a benchmark fails, later sweeps skip
    it instead of re-triggering the same failure.
    """

    def __init__(self) -> None:
        self._reports: dict[str, FailureReport] = {}

    def add(self, report: FailureReport) -> None:
        self._reports.setdefault(report.benchmark, report)

    def __contains__(self, name: str) -> bool:
        return name in self._reports

    def __len__(self) -> int:
        return len(self._reports)

    @property
    def reports(self) -> dict[str, FailureReport]:
        return dict(self._reports)


@dataclass
class SuiteResult:
    """Outcome of one (possibly repeated) suite sweep."""

    suite: str
    config: str
    results: list[RunResult] = field(default_factory=list)
    failures: list[FailureReport] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)   # quarantine skips
    quarantine: Quarantine = field(default_factory=Quarantine)
    race_reports: list = field(default_factory=list)   # checked runs only
    #: Durability counters (units, executed, served_from_store,
    #: respawns, ...) of a sweep that kept its ``durable_dir``; None
    #: otherwise.
    durable: dict | None = None

    @property
    def racy(self) -> list:
        """Race reports that actually found something."""
        return [r for r in self.race_reports if not r.clean]

    @property
    def completed(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.skipped

    @property
    def respawns(self) -> int:
        """Shard respawns the durable supervisor had to perform."""
        return (self.durable or {}).get("respawns", 0)

    def format(self) -> str:
        lines = [
            f"suite {self.suite} [{self.config}]: "
            f"{self.completed} completed, {len(self.failures)} failed, "
            f"{len(self.skipped)} skipped (quarantined)"
        ]
        lines.extend(r.format() for r in self.failures)
        return "\n".join(lines)

    def summary_line(self) -> str:
        """One-line roll-up for CLI failure output."""
        parts = [f"{self.completed} completed",
                 f"{len(self.failures)} failed",
                 f"{len(self.skipped)} quarantine-skipped"]
        if self.respawns:
            parts.append(f"{self.respawns} shard respawns")
        line = f"suite {self.suite} [{self.config}]: " + ", ".join(parts)
        if self.failures:
            first = self.failures[0]
            line += (f" — first failure: {first.benchmark} "
                     f"{first.error_type}: {first.message}")
        return line

    def to_report_dict(self) -> dict:
        """JSON-ready report (stable ordering; see CLI ``--report``)."""
        return {
            "schema": "harness-report/1",
            "suite": self.suite,
            "config": self.config,
            "completed": self.completed,
            "failures": [f.to_dict() for f in self.failures],
            "skipped": list(self.skipped),
            "races": len(self.racy),
            "durable": dict(self.durable) if self.durable else None,
            "tier1": self.tier1_summary(),
            "tier2": self.tier2_summary(),
        }

    def tier1_summary(self) -> dict | None:
        """Aggregate host tier-1 stats across results; None off-tier."""
        return self._tier_summary(
            "tier1", ("promotions", "compiled_blocks", "compile_cycles"))

    def tier2_summary(self) -> dict | None:
        """Aggregate host tier-2 stats across results; None off-tier.

        Zero-activity snapshots (``engine="tier2"`` with ``jit=None``
        never promotes anything) still count as on-tier: the summary
        reports zeros rather than None so a sweep that *ran* tier-2
        is distinguishable from one that couldn't."""
        out = self._tier_summary(
            "tier2", ("promotions", "compiled_blocks", "osr_entries",
                      "compile_cycles", "compile_seconds"))
        if out is not None:
            out["compile_seconds"] = round(out["compile_seconds"], 6)
        return out

    def _tier_summary(self, tier: str, fields: tuple) -> dict | None:
        """Sums of ``fields`` plus per-reason deopt totals over the
        results' ``tier`` snapshots."""
        snaps = [getattr(r, tier) for r in self.results
                 if getattr(r, tier) is not None]
        if not snaps:
            return None
        out = {name: sum(s[name] for s in snaps) for name in fields}
        deopts: dict[str, int] = {}
        for snap in snaps:
            for reason, count in snap["deopts"].items():
                deopts[reason] = deopts.get(reason, 0) + count
        out["deopts"] = deopts
        return out


def run_suite(suite="renaissance", *, jit=SweepConfig.jit,
              cores: int = SweepConfig.cores, schedule_seed: int = 0,
              warmup: int | None = None, measure: int | None = None,
              continue_on_error: bool = True, faults=None,
              iteration_budget: int | None = SweepConfig.iteration_budget,
              max_retries: int = SweepConfig.max_retries, repeat: int = 1,
              quarantine: Quarantine | None = None,
              plugins: tuple = (), sanitize=None,
              jobs: int | None = None,
              durable_dir=None, resume: bool = False,
              durable_policy=None, engine: str = SweepConfig.engine,
              verify_ir: bool = False) -> SuiteResult:
    """Run every benchmark of ``suite``, surviving individual failures.

    ``suite`` is a registry suite name or an iterable of
    :class:`GuestBenchmark`.  ``faults`` is a :class:`FaultPlan` applied
    to every benchmark, or a ``{benchmark_name: FaultPlan}`` mapping to
    poison selected workloads.  With ``continue_on_error`` (default) a
    failing benchmark is quarantined and reported in the returned
    :class:`SuiteResult`; otherwise the original exception propagates.
    ``sanitize`` (``True`` or a SanitizerConfig) runs every benchmark in
    checked mode and collects one RaceReport per completed run in
    ``SuiteResult.race_reports``.  ``jobs`` > 1 runs the units on that
    many supervised worker processes (a crashed or hung worker is killed
    and respawned, its unit retried) with a byte-identical merged
    result; ``None``/1 runs serially in-process, as does a sweep whose
    plugins cannot cross a process boundary.
    ``durable_dir`` keeps the controller's journal and content-addressed
    result store (:mod:`repro.harness.durable`) so ``resume=True``
    continues a killed sweep byte-identically; it always runs on
    workers (``max(1, jobs)``).  Without it a ``jobs=N`` sweep runs the
    same controller over a throwaway directory.
    """
    config = SweepConfig(
        jit=jit, cores=cores, schedule_seed=schedule_seed, warmup=warmup,
        measure=measure, iteration_budget=iteration_budget,
        max_retries=max_retries, sanitize=sanitize, engine=engine,
        verify_ir=verify_ir)
    plugins = tuple(plugins)
    sharded = jobs is not None and jobs > 1 \
        and all(isinstance(p, MergeablePlugin) for p in plugins)
    if durable_dir is not None or sharded:
        from repro.harness.durable import DurableSweep

        try:
            with contextlib.ExitStack() as stack:
                out = DurableSweep(
                    suite, config, resume=resume, jobs=jobs,
                    dir=durable_dir if durable_dir is not None
                    else stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="repro-sweep-")),
                    policy=durable_policy,
                    continue_on_error=continue_on_error, faults=faults,
                    repeat=repeat, quarantine=quarantine,
                    plugins=plugins).run()
        except SweepInterrupted as exc:
            if durable_dir is not None:
                raise
            # The throwaway directory is gone: no resume hint.
            raise SweepInterrupted(
                f"sweep interrupted after {exc.stats['executed']} of "
                f"{exc.stats['units']} units; nothing to resume "
                f"(it ran without durable_dir)", stats=exc.stats) from None
        if durable_dir is None:
            out.durable = None          # nothing left to resume or inspect
        return out

    # The in-process reference path: what the equivalence tests diff the
    # supervised paths against, and the only one that keeps RunResult.vm.
    # Each finished unit's VM is retired (VM.retire: host code, guest
    # state and the per-run state on its classes go), so a sweep holds
    # one unit's code and guest heap, not every unit's; counters, vm.jit
    # and cache hit/miss totals stay readable.  A stopgap until results
    # are plain values.
    benches, suite_name = resolve_suite(suite)
    plan_of = plans_of(faults, benches)
    out = SuiteResult(
        suite_name, config.config_name,
        quarantine=quarantine if quarantine is not None else Quarantine())
    for _ in range(repeat):
        for bench in benches:
            if bench.name in out.quarantine:
                out.skipped.append(bench.name)
                continue
            outcome = run_resilient(bench, config, plan_of[bench.name],
                                    plugins)
            if outcome.ok:
                out.results.append(outcome.result)
                outcome.result.vm.retire()
                if outcome.race_report is not None:
                    out.race_reports.append(outcome.race_report)
            else:
                out.failures.append(outcome.failure)
                out.quarantine.add(outcome.failure)
                if not continue_on_error:
                    raise ReproError(
                        f"suite {suite_name} aborted on "
                        f"{bench.name}: {outcome.failure.message}")
    return out
