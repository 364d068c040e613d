"""Benchmark-as-a-service: the one unit scheduler plus a stdlib-only
HTTP API over the durable sweeps' journal/store directory.

``python -m repro.serve --dir DIR`` runs the service:

- ``POST /jobs`` accepts a :class:`~repro.serve.spec.SweepSpec`
  (benchmarks × repetitions × engine/config), which expands to the
  *same* content-addressed :class:`~repro.harness.durable.SweepUnit`
  digests a ``run_suite(durable_dir=...)`` call mints, so cache hits
  flow both ways between the CLI and the service,
- the :class:`~repro.serve.scheduler.Scheduler` — the one that also runs
  every durable sweep, as one job — admits units against the store,
  dedups in-flight digests across jobs, chains rounds, orders the ready
  queue by priority and fairness, and runs misses on the supervised
  fork-worker pool (:mod:`repro.serve.pool`),
- ``GET /jobs/{id}/events`` streams each unit's lifecycle as NDJSON;
  ``GET /results/{digest}`` serves stored outcome bytes; ``GET
  /metrics`` exports Prometheus-style ``serve_*`` counters,
- SIGTERM drains gracefully: in-flight units finish and persist, and
  jobs left open in ``serve.wal`` are resubmitted on the next start.

The event loop is the store's single writer (the service holds the
directory's :class:`~repro.harness.store.StoreLock`).
"""

from repro.serve.api import Service
from repro.serve.client import ServeClient
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import Job, Scheduler
from repro.serve.spec import SweepSpec

__all__ = [
    "Job", "Scheduler", "ServeClient", "ServeMetrics", "Service",
    "SweepSpec",
]
