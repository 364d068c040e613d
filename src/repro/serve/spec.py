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
from repro.harness.durable import SweepUnit, unit_digest
from repro.harness.store import canonical_digest
from repro.runtime.vm import TIER_LADDERS


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

        if self.suite not in SUITES:
            raise ServeError(f"unknown suite {self.suite!r}; have {SUITES}")
        if self.engine not in TIER_LADDERS:
            raise ServeError(f"unknown engine {self.engine!r}; "
                             f"have {tuple(TIER_LADDERS)}")
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
        if self.max_concurrency == 0:
            raise ServeError("max_concurrency must be >= 1 or null")
        self.resolve()                # unknown benchmark names raise here

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
        """Every schedulable unit of this job, serial sweep order
        (round-major, benchmark order within a round) — the same cells
        with the same digests ``DurableSweep`` would build."""
        benches = self.resolve()
        fingerprint = self.fingerprint()
        return [
            SweepUnit(idx, rnd, bench,
                      unit_digest(bench, rnd, fingerprint))
            for rnd in range(self.repeat)
            for idx, bench in enumerate(benches)
        ]
