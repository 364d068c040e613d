"""Static and dynamic correctness tooling for guest programs.

The Renaissance paper positions the suite as a testbed for dynamic
analyses and race detectors (Section 6: "a good platform for evaluating
... concurrency bug detection tools").  This package supplies that
tooling layer for the reproduction:

Static layer (no execution required)
    - :mod:`repro.sanitize.cfg` — control-flow graphs, reverse postorder
      and dominators over :class:`repro.jvm.bytecode.Instr` lists,
    - :mod:`repro.sanitize.dataflow` — a reusable worklist dataflow
      engine (forward and backward),
    - :mod:`repro.sanitize.verify` — a structural bytecode verifier
      (stack-depth balance, MONITORENTER/MONITOREXIT balance,
      unreachable code, use-before-def locals),
    - :mod:`repro.sanitize.locks` — symbolic abstract interpretation
      computing the must-hold lockset at every pc,
    - :mod:`repro.sanitize.lockset` — fields accessed both under and
      outside a monitor (inconsistent-locking warnings),
    - :mod:`repro.sanitize.lockorder` — a static lock-order graph whose
      cycles predict deadlocks, cross-checkable against the scheduler's
      dynamic wait-for cycle.

Compiler verification layer (static, over JIT artifacts)
    - :mod:`repro.sanitize.irverify` — SSA IR well-formedness verifier
      run after every pipeline phase (``run_pipeline(verify=True)``,
      ``VM(verify_ir=True)``); violations raise :class:`IRVerifyError`
      attributed to the offending phase,
    - :mod:`repro.sanitize.blockverify` — tier-1 and tier-2 superblock
      validation: entry-table legitimacy, cost/instruction accounting
      against the cost model (one walker for both tiers),
      flush-before-raise completeness,
    - :mod:`repro.sanitize.mutations` — the corpus of deliberately
      broken compiles proving both verifiers actually detect breakage
      (``python -m repro.sanitize --mutations``, ``make verify-ir``).

Dynamic layer (checked execution)
    - :mod:`repro.sanitize.hb` — a FastTrack-style happens-before race
      sanitizer: vector clocks on threads/monitors, epochs on heap
      fields, hooked into the interpreter and the scheduler.  Same seed
      in, byte-identical :class:`~repro.sanitize.reports.RaceReport` out.
    - :mod:`repro.sanitize.plugin` — harness integration
      (:class:`SanitizerPlugin`, :func:`run_checked`); see also
      ``run_suite(sanitize=...)`` in :mod:`repro.faults.resilience`.

Quick start::

    from repro.sanitize import run_checked
    from repro.suites.registry import get_benchmark

    report, result = run_checked(get_benchmark("philosophers"))
    assert report.clean, report.format()
"""

from repro.sanitize.blockverify import BlockVerifyError, verify_tier1_code
from repro.sanitize.cfg import CFG, BasicBlock, build_cfg, dominators
from repro.sanitize.dataflow import DataflowProblem, DataflowResult, solve
from repro.sanitize.hb import RaceSanitizer, SanitizerConfig
from repro.sanitize.irverify import IRVerifyError, verify_graph
from repro.sanitize.mutations import MutationResult, run_corpus
from repro.sanitize.lockorder import LockOrderGraph, build_lock_order, cross_check
from repro.sanitize.lockset import lockset_issues
from repro.sanitize.locks import lock_facts
from repro.sanitize.plugin import SanitizerPlugin, run_checked
from repro.sanitize.reports import RaceReport, StaticIssue
from repro.sanitize.verify import (
    check_monitor_balance,
    stack_effect,
    verify_method,
    verify_program,
)

__all__ = [
    "BlockVerifyError", "verify_tier1_code",
    "IRVerifyError", "verify_graph",
    "MutationResult", "run_corpus",
    "CFG", "BasicBlock", "build_cfg", "dominators",
    "DataflowProblem", "DataflowResult", "solve",
    "RaceSanitizer", "SanitizerConfig",
    "LockOrderGraph", "build_lock_order", "cross_check",
    "lockset_issues", "lock_facts",
    "SanitizerPlugin", "run_checked",
    "RaceReport", "StaticIssue",
    "check_monitor_balance", "stack_effect",
    "verify_method", "verify_program",
]
