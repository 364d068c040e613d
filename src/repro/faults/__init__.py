"""Deterministic fault injection and harness resilience.

The subsystem has four layers (see DESIGN.md, "Resilience & fault
injection"):

- :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  the seeded, serializable description of what to break;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, which executes
  a plan inside one VM through call-site / allocation / scheduler hooks;
- :mod:`repro.faults.report` — :class:`FailureReport`, the structured,
  byte-identical-when-replayed failure record;
- :mod:`repro.faults.resilience` — :class:`ResilientRunner`,
  :class:`Quarantine` and :func:`run_suite`, which keep a suite sweep
  alive when individual workloads die.

Quick start::

    from repro.faults import FaultPlan, ResilientRunner, run_suite
    from repro.suites.registry import get_benchmark

    plan = FaultPlan.single("oom", site="Bench.run", at=2, seed=42)
    outcome = ResilientRunner(get_benchmark("scrabble"), faults=plan).run()
    print(outcome.failure.format())        # includes the seed to replay

    sweep = run_suite("renaissance", faults={"scrabble": plan})
    assert sweep.completed == 20 and len(sweep.failures) == 1
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import KINDS, FaultEvent, FaultPlan, FaultSpec
from repro.faults.report import FailureReport
from repro.faults.resilience import (
    Quarantine,
    ResilientResult,
    ResilientRunner,
    SuiteResult,
    run_suite,
)
from repro.harness.config import DEFAULT_ITERATION_BUDGET

__all__ = [
    "KINDS", "FaultEvent", "FaultPlan", "FaultSpec", "FaultInjector",
    "FailureReport", "DEFAULT_ITERATION_BUDGET", "Quarantine",
    "ResilientResult", "ResilientRunner", "SuiteResult", "run_suite",
]
