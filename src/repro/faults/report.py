"""Structured failure reports.

A :class:`FailureReport` captures everything needed to *reproduce* a
benchmark failure: the fault kind, the iteration it struck, the thread
dump at the point of failure, the fault trace, and — crucially — the
seeds.  Feeding ``schedule_seed`` and the embedded plan back into
:func:`~repro.faults.run_resilient` replays the identical failure,
and :meth:`to_json` is canonical (sorted keys, fixed separators) so two
replays of the same ``(seed, plan)`` compare byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class FailureReport:
    """One benchmark failure, fully described and replayable."""

    benchmark: str
    config: str
    error_type: str               # exception class name
    message: str
    phase: str = "measure"        # "load" | "warmup" | "measure"
    iteration: int | None = None  # index within the phase, when known
    schedule_seed: int = 0
    fault_seed: int | None = None  # plan seed (None = no plan active)
    fault_plan: dict | None = None
    fault_trace: tuple = ()       # tuple of FaultEvent dicts
    thread_dump: dict | None = None
    clock: int = 0                # simulated clock at failure
    retries: int = 0              # reseeded retries attempted before giving up
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "config": self.config,
            "error_type": self.error_type,
            "message": self.message,
            "phase": self.phase,
            "iteration": self.iteration,
            "schedule_seed": self.schedule_seed,
            "fault_seed": self.fault_seed,
            "fault_plan": self.fault_plan,
            "fault_trace": list(self.fault_trace),
            "thread_dump": self.thread_dump,
            "clock": self.clock,
            "retries": self.retries,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        """Canonical serialization: byte-identical for identical runs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> FailureReport:
        data = json.loads(text)
        data["fault_trace"] = tuple(data.get("fault_trace") or ())
        data["extra"] = data.get("extra") or {}
        return cls(**data)

    # ------------------------------------------------------------------
    def reproduce_hint(self) -> str:
        """A copy-pasteable recipe for replaying this failure."""
        plan = ""
        if self.fault_plan is not None:
            plan = f", FaultPlan.from_dict({self.fault_plan!r})"
        jit = None if self.config == "interpreter" else self.config
        return (
            f"run_resilient(get_benchmark({self.benchmark!r}), "
            f"SweepConfig(jit={jit!r}, schedule_seed={self.schedule_seed})"
            f"{plan})"
        )

    def format(self) -> str:
        lines = [
            f"FAILURE {self.benchmark} [{self.config}] "
            f"{self.error_type}: {self.message}",
            f"  phase={self.phase} iteration={self.iteration} "
            f"clock={self.clock} retries={self.retries}",
            f"  seeds: schedule={self.schedule_seed} fault={self.fault_seed}",
        ]
        for event in self.fault_trace:
            lines.append(
                f"  fault: {event['kind']} @ {event['site']} "
                f"(occurrence {event['occurrence']}, clock {event['clock']})")
        if self.thread_dump:
            cycle = self.thread_dump.get("deadlock_cycle")
            if cycle:
                lines.append("  lock cycle: " + " -> ".join(cycle))
            for t in self.thread_dump.get("threads", ()):
                holds = ",".join(t["holds"]) or "-"
                lines.append(
                    f"  thread {t['tid']} {t['name']!r} {t['state']}"
                    f" top={t['top_frame']} holds={holds}"
                    + (f" blocked_on={t['blocked_on']}"
                       f" owner={t['blocked_on_owner']}"
                       if t["blocked_on"] else ""))
        lines.append("  reproduce: " + self.reproduce_hint())
        return "\n".join(lines)
