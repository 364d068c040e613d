"""The benchmark harness (paper Section 2.2).

- :mod:`repro.harness.core` — the :class:`GuestBenchmark` definition and
  the warmup/steady-state :class:`Runner`,
- :mod:`repro.harness.plugins` — the measurement-plugin interface the
  paper's metric collection uses,
- :mod:`repro.harness.jmh` — a JMH-style frontend (forks × iterations
  with summary statistics),
- :mod:`repro.harness.stats` — Welch's t-test, winsorization, geometric
  means and confidence intervals,
- :mod:`repro.harness.config` — :class:`SweepConfig`, the one object
  that owns a sweep's run parameters and its store identity,
- :mod:`repro.harness.durable` — the sweep controller: journaled stage
  lifecycle, content-addressed result store, checkpoint/resume (with
  :mod:`repro.harness.journal` and :mod:`repro.harness.store`
  underneath), running its units through the service's worker pool on
- :mod:`repro.harness.workers` — the supervised unit worker every
  durable or ``jobs=N`` sweep and the service run on.
"""

from repro.harness.core import (
    GuestBenchmark,
    IterationResult,
    Runner,
    RunResult,
    ValidationError,
    config_name,
)
from repro.harness.plugins import (
    FaultLogPlugin,
    HarnessPlugin,
    MergeablePlugin,
)
from repro.harness.jmh import JmhResult, run_jmh
from repro.harness.config import SweepConfig
from repro.harness.durable import DurablePolicy

__all__ = [
    "GuestBenchmark", "IterationResult", "Runner", "RunResult",
    "ValidationError", "config_name",
    "HarnessPlugin", "FaultLogPlugin", "MergeablePlugin",
    "JmhResult", "run_jmh",
    "SweepConfig", "DurablePolicy",
]
