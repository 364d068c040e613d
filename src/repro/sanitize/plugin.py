"""Harness integration of the race sanitizer.

:class:`SanitizerPlugin` attaches a :class:`~repro.sanitize.hb.RaceSanitizer`
to the VM of a :class:`~repro.harness.core.Runner` and turns what it saw
into a :class:`~repro.sanitize.reports.RaceReport` after the run.
:func:`run_checked` is the one-call convenience: run a benchmark in
checked mode and get ``(report, result)`` back.

Checked runs execute on the interpreter (the sanitizer's ``attach``
disables the JIT): the paper's own metric profiling runs are likewise
instrumented non-optimized runs, and only the interpreter sees every
field/array/atomic access.
"""

from __future__ import annotations

from repro.harness.plugins import HarnessPlugin
from repro.sanitize.hb import RaceSanitizer, SanitizerConfig
from repro.sanitize.reports import RaceReport


class SanitizerPlugin(HarnessPlugin):
    """Attach a fresh race sanitizer to every run of a Runner."""

    def __init__(self, config: SanitizerConfig | None = None) -> None:
        self.config = config if isinstance(config, SanitizerConfig) \
            else None
        self.sanitizer: RaceSanitizer | None = None
        self.report: RaceReport | None = None
        self.reports: list[RaceReport] = []

    def before_run(self, vm, benchmark) -> None:
        self.sanitizer = RaceSanitizer(self.config)
        self.sanitizer.attach(vm)

    def after_run(self, vm, benchmark, result) -> None:
        self.report = build_report(self.sanitizer, vm, benchmark.name)
        self.reports.append(self.report)
        result.counters["race_checks"] = vm.counters.race_checks
        result.counters["races_found"] = vm.counters.races_found


def build_report(sanitizer: RaceSanitizer, vm,
                 benchmark: str) -> RaceReport:
    counters = vm.counters
    return RaceReport(
        benchmark=benchmark,
        config="checked",
        schedule_seed=vm.scheduler.seed,
        cores=vm.scheduler.cores,
        races=sanitizer.race_dicts(),
        counts={
            "race_checks": counters.race_checks,
            "races_found": counters.races_found,
            "vc_promotions": counters.vc_promotions,
            "hb_edges": counters.hb_edges,
            "lock_acquires": counters.lock_acquires,
            "lockset_entries": counters.lockset_entries,
        },
        suppressed=sanitizer.suppressed,
        truncated=sanitizer.truncated,
    )


def run_checked(benchmark, *, cores: int = 8, schedule_seed: int = 0,
                config: SanitizerConfig | None = None,
                warmup: int | None = None, measure: int | None = None,
                static: bool = True):
    """Run one benchmark in checked mode.

    Returns ``(report, result)``.  With ``static`` (default) the static
    passes run over the compiled program first and their findings are
    embedded in ``report.static_issues``.
    """
    from repro.harness.core import Runner

    runner = Runner(benchmark, cores=cores, schedule_seed=schedule_seed,
                    sanitize=config or True)
    result = runner.run(warmup=warmup, measure=measure)
    report = runner.sanitize_plugin.report
    if static:
        report.static_issues = [
            issue.to_dict() for issue in static_issues(benchmark)]
    return report, result


def static_issues(benchmark) -> list:
    """All static findings (verify + lockset + lockorder) of a benchmark."""
    from repro.sanitize.lockorder import build_lock_order
    from repro.sanitize.lockset import lockset_issues
    from repro.sanitize.verify import verify_program

    program = benchmark.compile()
    issues = list(verify_program(program))
    issues.extend(lockset_issues(program))
    issues.extend(build_lock_order(program).issues())
    return issues
