"""Measurement-plugin interface (paper Section 2.2).

"The harness also provides an interface for custom measurement plugins,
which can latch onto benchmark execution events" — plugins receive the
VM around runs and iterations.  The metrics profiler
(:class:`repro.metrics.profiler.MetricsPlugin`) is the main client, as in
the paper.
"""

from __future__ import annotations


class HarnessPlugin:
    """Base class; override any subset of the hooks."""

    def before_run(self, vm, benchmark) -> None:
        """Called once, after program load, before warmup."""

    def after_run(self, vm, benchmark, result) -> None:
        """Called once, after the last measured iteration."""

    def before_iteration(self, vm, benchmark, index: int,
                         warmup: bool) -> None:
        """Called before each iteration (warmup included)."""

    def after_iteration(self, vm, benchmark, index: int, warmup: bool,
                        stats: dict) -> None:
        """Called after each iteration with its wall/work/cpu stats."""

    def on_fault(self, vm, benchmark, report) -> None:
        """Called by the resilience layer when a run fails for good.

        ``report`` is a :class:`repro.faults.FailureReport`; ``vm`` is
        the VM of the failing attempt (may be mid-iteration).  Not
        called for failures that a reseeded retry recovered from.
        """


class MergeablePlugin(HarnessPlugin):
    """A plugin that survives ``jobs=N`` and durable sweeps.

    The sweep controller (:mod:`repro.harness.durable`) runs every unit
    in a forked worker, on the worker's copies of the caller's plugin
    instances, which observe that unit's run through the normal hooks.  After every benchmark
    run the executor calls :meth:`snapshot_run`; the controller replays
    the payloads into the *caller's* instance via :meth:`absorb_run` in
    serial sweep order (round-major, registry order), so it ends up
    byte-identical to a serial sweep's.  Each unit's payloads are also
    *persisted* into the content-addressed result store alongside the
    RunResult, so after a crash ``--resume`` absorbs the payloads of
    already-completed units straight from disk — trace recordings and
    metrics histories survive the crash and merge byte-identically.

    Contract: :meth:`snapshot_run` returns a picklable payload covering
    exactly the runs since the previous snapshot (and resets that
    per-run state); :meth:`absorb_run` folds one payload in, and the
    fold must depend only on payload order — never on which worker
    produced it (nor on whether it took a detour through the store).
    Plugins that cannot express their state this way stay plain
    :class:`HarnessPlugin`\\ s, force the serial path, and are rejected
    by durable sweeps.
    """

    def snapshot_run(self):
        """Worker side: serializable state of the just-finished run."""
        return None

    def absorb_run(self, payload) -> None:
        """Parent side: fold one shard payload in, in serial order."""


class FaultLogPlugin(HarnessPlugin):
    """Collects every FailureReport the resilience layer produces."""

    def __init__(self) -> None:
        self.reports: list = []

    def on_fault(self, vm, benchmark, report) -> None:
        self.reports.append(report)


class IterationLogPlugin(HarnessPlugin):
    """Example plugin: records (index, warmup, wall) tuples."""

    def __init__(self) -> None:
        self.log: list[tuple[int, bool, int]] = []

    def after_iteration(self, vm, benchmark, index, warmup, stats) -> None:
        self.log.append((index, warmup, stats["wall"]))
