"""Benchmark registry: lookup by name or by suite."""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ReproError

SUITES = ("renaissance", "dacapo", "scalabench", "specjvm")


@lru_cache(maxsize=1)
def all_benchmarks() -> tuple:
    """Every benchmark of every suite, suite order then table order."""
    out = []
    for suite in SUITES:
        out.extend(benchmarks_of(suite))
    return tuple(out)


@lru_cache(maxsize=8)
def benchmarks_of(suite: str) -> tuple:
    if suite == "renaissance":
        from repro.suites.renaissance import benchmarks
    elif suite == "dacapo":
        from repro.suites.dacapo import benchmarks
    elif suite == "scalabench":
        from repro.suites.scalabench import benchmarks
    elif suite == "specjvm":
        from repro.suites.specjvm import benchmarks
    else:
        raise ReproError(f"unknown suite {suite!r}; have {SUITES}")
    out = tuple(benchmarks())
    # Duplicate names within one suite would silently shadow each other
    # in get_benchmark() and in suite sweeps; reject them loudly.
    # (Cross-suite duplicates are legitimate: "sunflow" exists in both
    # DaCapo and SPECjvm2008, as in the real suites.)
    seen: dict[str, int] = {}
    for i, bench in enumerate(out):
        if bench.name in seen:
            raise ReproError(
                f"duplicate benchmark name {bench.name!r} in suite "
                f"{suite!r} (positions {seen[bench.name]} and {i}); "
                "benchmark names must be unique within a suite")
        seen[bench.name] = i
    return out


def get_benchmark(name: str, suite: str | None = None):
    """Look up a benchmark by name (optionally within one suite).

    Without ``suite``, the first match in suite order wins — pass
    ``suite=`` to disambiguate cross-suite duplicates like "sunflow".
    """
    pool = all_benchmarks() if suite is None else benchmarks_of(suite)
    for bench in pool:
        if bench.name == name:
            return bench
    where = f" in suite {suite!r}" if suite is not None else ""
    raise ReproError(f"unknown benchmark {name!r}{where}")


def run_suite(suite="renaissance", **kwargs):
    """Resilient full-suite sweep; see :func:`repro.faults.run_suite`.

    Re-exported here so suite-level callers need only the registry:
    ``run_suite("renaissance", continue_on_error=True)`` completes the
    healthy workloads and returns a SuiteResult with one FailureReport
    per quarantined benchmark.  ``jobs=N`` runs the units on N supervised
    worker processes with a byte-identical merged result.
    """
    from repro.faults.resilience import run_suite as _run_suite

    return _run_suite(suite, **kwargs)
