"""Sweep specifications: the service's job-submission payload.

A :class:`SweepSpec` is the JSON body of ``POST /jobs`` — the
benchmarks × repetitions × engine/config matrix one job covers.  Its
run parameters are a JSON rendering of the
:class:`~repro.harness.config.SweepConfig` that
:func:`repro.faults.resilience.run_suite` builds, because the service's
whole value proposition rests on an identity: a spec expands to exactly
the :class:`~repro.harness.durable.SweepUnit` digests a
``run_suite(durable_dir=...)`` call with the same parameters would
produce, so the content-addressed store is shared between the one-shot
CLI and the long-running service — a unit computed by either is a cache
hit for both, forever.

Faults and plugins are intentionally *not* part of the spec: fault
plans poison results on purpose (nothing a cache should serve twice by
accident) and plugin instances don't cross an HTTP boundary.  Both
default to the empty fingerprint the plain harness uses, which is what
keeps the digests aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import ServeError
from repro.harness.config import SweepConfig
from repro.harness.durable import SweepUnit, sweep_units
from repro.harness.store import canonical_digest
from repro.runtime.vm import TIER_LADDERS

#: Most units one job may expand to: the service expands a spec on its
#: event loop, so the cap bounds what one ``POST /jobs`` can cost.
MAX_UNITS = 10_000


@dataclass(frozen=True)
class SweepSpec:
    """One job: a benchmark subset run under one configuration."""

    suite: str = "renaissance"
    #: Benchmark subset (names within ``suite``); None = the whole suite.
    benchmarks: tuple | None = None
    repeat: int = 1
    jit: str | None = SweepConfig.jit
    engine: str = SweepConfig.engine
    cores: int = SweepConfig.cores
    schedule_seed: int = 0
    warmup: int | None = None
    measure: int | None = None
    sanitize: bool = False
    verify_ir: bool = False
    #: Scheduling knobs (not part of the unit identity): lower
    #: ``priority`` runs sooner; ``max_concurrency`` caps how many of
    #: this job's units may run at once (None = no per-job cap).
    priority: int = 0
    max_concurrency: int | None = None

    # ------------------------------------------------------------------
    # Wire format.
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, doc) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ServeError(f"sweep spec must be a JSON object, "
                             f"got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ServeError(
                f"unknown sweep spec field(s) {unknown}; "
                f"known: {sorted(known)}")
        doc = dict(doc)
        if doc.get("benchmarks") is not None:
            benches = doc["benchmarks"]
            if isinstance(benches, str):
                benches = [n.strip() for n in benches.split(",") if n.strip()]
            elif not (isinstance(benches, list)
                      and all(isinstance(n, str) for n in benches)):
                raise ServeError(f"benchmarks must be null, a string or a "
                                 f"list of strings, got {benches!r}")
            doc["benchmarks"] = tuple(benches)
        if doc.get("jit") in ("none", "None"):
            doc["jit"] = None
        spec = cls(**doc)
        spec.validate()
        return spec

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "benchmarks": list(self.benchmarks)
            if self.benchmarks is not None else None,
            "repeat": self.repeat,
            "jit": self.jit,
            "engine": self.engine,
            "cores": self.cores,
            "schedule_seed": self.schedule_seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "sanitize": self.sanitize,
            "verify_ir": self.verify_ir,
            "priority": self.priority,
            "max_concurrency": self.max_concurrency,
        }

    def digest(self) -> str:
        """Content address of the spec itself (job dedup/display)."""
        return canonical_digest(self.to_dict())

    # ------------------------------------------------------------------
    # Validation and expansion.
    # ------------------------------------------------------------------
    def validate(self) -> None:
        from repro.suites.registry import SUITES

        for name in ("suite", "engine", "jit"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ServeError(f"{name} must be a string or null, "
                                 f"got {value!r}")
        for name in ("sanitize", "verify_ir"):
            if not isinstance(getattr(self, name), bool):
                raise ServeError(f"{name} must be a bool, "
                                 f"got {getattr(self, name)!r}")
        if self.suite not in SUITES:
            raise ServeError(f"unknown suite {self.suite!r}; have {SUITES}")
        if self.engine not in TIER_LADDERS:
            raise ServeError(f"unknown engine {self.engine!r}; "
                             f"have {tuple(TIER_LADDERS)}")
        if self.jit not in ("graal", "c2", None):
            raise ServeError(f"unknown jit {self.jit!r}; "
                             "have 'graal', 'c2' or null")
        if not isinstance(self.repeat, int) or self.repeat < 1:
            raise ServeError(f"repeat must be a positive int, "
                             f"got {self.repeat!r}")
        for name in ("cores", "schedule_seed", "priority"):
            if not isinstance(getattr(self, name), int):
                raise ServeError(f"{name} must be an int, "
                                 f"got {getattr(self, name)!r}")
        for name in ("warmup", "measure", "max_concurrency"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int)
                                      or value < 0):
                raise ServeError(f"{name} must be a non-negative int "
                                 f"or null, got {value!r}")
        if self.cores < 1:
            raise ServeError(f"cores must be >= 1, got {self.cores}")
        if self.max_concurrency == 0:
            raise ServeError("max_concurrency must be >= 1 or null")
        units = self.repeat * len(self.resolve())   # unknown names raise
        if units > MAX_UNITS:
            raise ServeError(f"spec expands to {units} units; a job may "
                             f"have at most {MAX_UNITS}")

    def resolve(self) -> tuple:
        """The GuestBenchmark list this spec covers, in sweep order."""
        from repro.suites.registry import benchmarks_of, get_benchmark

        if self.benchmarks is None:
            return benchmarks_of(self.suite)
        try:
            return tuple(get_benchmark(name, suite=self.suite)
                         for name in self.benchmarks)
        except Exception as exc:
            raise ServeError(str(exc)) from exc

    def config(self) -> SweepConfig:
        """The config :func:`run_suite` would build from the same
        parameters; what the spec does not carry (iteration budget,
        retry count) takes :class:`SweepConfig`'s own default."""
        return SweepConfig(
            jit=self.jit, cores=self.cores,
            schedule_seed=self.schedule_seed,
            warmup=self.warmup, measure=self.measure,
            sanitize=True if self.sanitize else None,
            engine=self.engine, verify_ir=self.verify_ir)

    def fingerprint(self) -> dict:
        return self.config().fingerprint(None, ())

    def expand(self) -> list[SweepUnit]:
        """Every schedulable unit of this job, serial sweep order — the
        same cells with the same digests ``DurableSweep`` would build."""
        return sweep_units(self.resolve(), self.repeat, self.fingerprint())
