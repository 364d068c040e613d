"""The one object that owns a sweep's run parameters.

:func:`repro.faults.resilience.run_suite` builds a :class:`SweepConfig`
on entry and every layer below — the in-process loop, the durable
controller, the unit workers — receives that one object; the service's
:class:`~repro.serve.spec.SweepSpec` builds the same one from JSON.
Each default is written here once; the identity a result is stored
under (:meth:`SweepConfig.fingerprint`) is computed here and nowhere
else, and :func:`repro.faults.resilience.run_resilient` is the one
place its fields become :class:`~repro.harness.core.Runner` arguments.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from repro.harness.core import config_name
from repro.jit.pipeline import config_digest
from repro.runtime.vm import TIER_LADDERS

#: Default per-iteration cycle budget: generous (every suite workload
#: finishes an iteration well under this), yet finite, so nothing hangs.
DEFAULT_ITERATION_BUDGET = 200_000_000


@dataclass(frozen=True)
class SweepConfig:
    """The identity-bearing parameters every unit of a sweep runs under."""

    jit: object = "graal"
    cores: int = 8
    schedule_seed: int = 0
    warmup: int | None = None
    measure: int | None = None
    iteration_budget: int | None = DEFAULT_ITERATION_BUDGET
    max_retries: int = 2
    sanitize: object = None
    engine: str = "threaded"
    verify_ir: bool = False

    @property
    def compiler(self):
        """The ``jit`` spec that actually runs: checked runs force the
        interpreter."""
        return None if self.sanitize else self.jit

    @property
    def config_name(self) -> str:
        return config_name(self.compiler)

    def fingerprint(self, faults, plugins: tuple) -> dict:
        """The run parameters a unit's outcome depends on.

        Plugins are part of the identity: an attached flight recorder or
        metrics profiler changes the VM's counters, so units recorded under
        one plugin stack must not be served to a resume with another (the
        stack is fingerprinted by class; reconfiguring the *same* plugin
        class differently is on the caller).  Normalized through a JSON
        round-trip so the in-memory fingerprint compares equal to one
        replayed from the journal (tuples -> lists).
        """
        if self.sanitize is None or self.sanitize is False:
            sanitize = None
        else:                           # dataclass repr is deterministic
            sanitize = "default" if self.sanitize is True \
                else repr(self.sanitize)
        if isinstance(faults, Mapping):
            faults = {name: (plan.to_dict() if plan is not None else None)
                      for name, plan in sorted(faults.items())}
        elif faults is not None:
            faults = faults.to_dict()
        fingerprint = {
            "plugins": [f"{type(p).__module__}.{type(p).__qualname__}"
                        for p in plugins],
            "schema": "repro-sweep/1",
            "config": self.config_name,
            "cores": self.cores,
            "schedule_seed": self.schedule_seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "iteration_budget": self.iteration_budget,
            "max_retries": self.max_retries,
            "sanitize": sanitize,
            "faults": faults,
            # The host engine is part of the unit identity on purpose: even
            # though engines are byte-identical, serving a tier1-run unit to
            # a reference resume would silently mask an identity bug.
            # ``verify_ir`` is deliberately NOT part of the identity: the
            # verifier either raises or changes nothing, so a verified unit
            # is byte-identical to an unverified one and may serve a resume
            # either way.
            "engine": self.engine,
            # The engine's full promotion ladder rides along so a journal
            # written before a tier was added (or with a different ladder
            # for the same engine name) never serves units to a resume that
            # would now run under different tiering.
            "tier_ladder": list(TIER_LADDERS.get(self.engine, ())),
        }
        if not isinstance(self.compiler, (str, type(None))):
            # A JitConfig object: its *contents* are the identity — an
            # ablated config still calls itself "graal".  Named and
            # interpreter specs keep their pre-existing bytes, so stores
            # written before this key existed keep hitting.
            fingerprint["compiler"] = config_digest(self.compiler)
        return json.loads(json.dumps(fingerprint, sort_keys=True))


def resolve_suite(suite) -> tuple:
    """Suite name or iterable of benchmarks -> (benchmarks, name)."""
    if isinstance(suite, str):
        from repro.suites.registry import benchmarks_of
        return benchmarks_of(suite), suite
    benches = tuple(suite)
    return benches, (benches[0].suite if benches else "custom")


def plans_of(faults, benches) -> dict:
    """``faults`` (one FaultPlan for all, or a per-name mapping) per
    benchmark."""
    if isinstance(faults, Mapping):
        return {b.name: faults.get(b.name) for b in benches}
    return {b.name: faults for b in benches}
