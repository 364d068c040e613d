"""Deterministic fault injection and harness resilience.

The subsystem has four layers (see DESIGN.md, "Resilience & fault
injection"):

- :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  the seeded, serializable description of what to break;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, which executes
  a plan inside one VM through call-site / allocation / scheduler hooks;
- :mod:`repro.faults.report` — :class:`FailureReport`, the structured,
  byte-identical-when-replayed failure record;
- :mod:`repro.faults.resilience` — :func:`run_resilient` (one unit),
  :class:`Quarantine` and :func:`run_suite`, which keep a suite sweep
  alive when individual workloads die.

Quick start::

    from repro.faults import FaultPlan, run_resilient, run_suite
    from repro.harness import SweepConfig
    from repro.suites.registry import get_benchmark

    plan = FaultPlan.single("oom", site="Scrabble.*", at=3, seed=42)
    outcome = run_resilient(get_benchmark("scrabble"), SweepConfig(), plan)
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
    SuiteResult,
    run_resilient,
    run_suite,
)
from repro.harness.config import DEFAULT_ITERATION_BUDGET

__all__ = [
    "KINDS", "FaultEvent", "FaultPlan", "FaultSpec", "FaultInjector",
    "FailureReport", "DEFAULT_ITERATION_BUDGET", "Quarantine",
    "ResilientResult", "SuiteResult", "run_resilient", "run_suite",
]
