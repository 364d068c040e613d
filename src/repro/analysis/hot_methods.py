"""Per-method hot-method profile (the Section 5.4 scrabble table).

Attributes simulated cycles to the method whose frame is executing —
the reproduction of the Oracle Developer Studio per-method profile the
paper uses to show where method-handle simplification saves time.

The profiler wraps the reference interpreter's and the interpretive
Machine's frame executors for the duration of the run (a context-managed
hook, restored afterwards).  Only ``engine="reference"`` runs every frame
on those two, so that is the engine the profile runs on: the host tiers
of the other engines would leave their frames unattributed.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import repro.jit.machine as _machine_mod
import repro.jvm.interpreter as _interp_mod
from repro.harness.core import Runner
from repro.harness.plugins import HarnessPlugin
from repro.jit.pipeline import graal_config


@contextmanager
def method_profiler(profile: Counter):
    """Attribute reference cycles to the executing frame's method."""
    orig_machine = _machine_mod.Machine.run_frame
    orig_interp = _interp_mod.Interpreter.run_frame

    def machine_run(self, thread, frame):
        before = self.vm.counters.reference_cycles
        orig_machine(self, thread, frame)
        profile[frame.code.method.qualified] += \
            self.vm.counters.reference_cycles - before

    def interp_run(self, thread, frame):
        before = self.vm.counters.reference_cycles
        orig_interp(self, thread, frame)
        profile[frame.method.qualified] += \
            self.vm.counters.reference_cycles - before

    _machine_mod.Machine.run_frame = machine_run
    _interp_mod.Interpreter.run_frame = interp_run
    try:
        yield profile
    finally:
        _machine_mod.Machine.run_frame = orig_machine
        _interp_mod.Interpreter.run_frame = orig_interp


class _SteadyStateReset(HarnessPlugin):
    def __init__(self, profile: Counter) -> None:
        self.profile = profile

    def before_iteration(self, vm, benchmark, index, warmup) -> None:
        if not warmup and index == 0:
            self.profile.clear()


def hot_methods(benchmark, *, with_mhs: bool = True, warmup: int = 5,
                measure: int = 2, top: int = 8) -> list[tuple[str, int]]:
    """Top methods by steady-state cycles, with or without MHS."""
    config = graal_config() if with_mhs else graal_config().without("MHS")
    profile: Counter = Counter()
    with method_profiler(profile):
        runner = Runner(benchmark, jit=config, engine="reference",
                        plugins=(_SteadyStateReset(profile),))
        runner.run(warmup=warmup, measure=measure)
    return profile.most_common(top)


def mhs_method_table(benchmark, **kwargs) -> dict:
    """The Section 5.4 with/without comparison, plus totals."""
    with_rows = dict(hot_methods(benchmark, with_mhs=True, **kwargs))
    without_rows = dict(hot_methods(benchmark, with_mhs=False, **kwargs))
    names = sorted(set(with_rows) | set(without_rows),
                   key=lambda n: -(without_rows.get(n, 0)))
    return {
        "methods": [(n, with_rows.get(n, 0), without_rows.get(n, 0))
                    for n in names],
        "total_with": sum(with_rows.values()),
        "total_without": sum(without_rows.values()),
    }


def format_method_table(table: dict) -> str:
    lines = [f"{'with':>14s} {'without':>14s}  compilation unit"]
    lines.append(f"{table['total_with']:>14,} {table['total_without']:>14,}"
                 "  <Total>")
    for name, with_cycles, without_cycles in table["methods"]:
        lines.append(f"{with_cycles:>14,} {without_cycles:>14,}  {name}")
    return "\n".join(lines)
