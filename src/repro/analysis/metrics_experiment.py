"""Metric collection + PCA experiment (Table 7, Figures 1/2/3/4, Table 3).

Profiles every benchmark on the interpreter (the reproduction of the
paper's instrumented profiling runs), normalizes by reference cycles
(Section 3.2), and runs the Section 4 PCA over the standardized matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics import (
    METRIC_NAMES,
    collect_metrics,
    normalize_metrics,
    run_pca,
)


@dataclass
class MetricsRow:
    benchmark: str
    suite: str
    raw: dict
    normalized: dict
    reference_cycles: int


def profile_benchmarks(benchmarks, *, warmup: int = 1,
                       measure: int | None = None) -> list[MetricsRow]:
    """Table 7: raw + normalized metrics for each benchmark."""
    rows = []
    for bench in benchmarks:
        raw, cycles = collect_metrics(bench, warmup=warmup, measure=measure)
        rows.append(MetricsRow(
            benchmark=bench.name,
            suite=bench.suite,
            raw=raw,
            normalized=normalize_metrics(raw, cycles),
            reference_cycles=cycles,
        ))
    return rows


def metric_series(rows: list[MetricsRow], metric: str) -> list[tuple]:
    """One Figure 2/3/4 bar series: (benchmark, suite, normalized rate)."""
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    return [(r.benchmark, r.suite, r.normalized[metric]) for r in rows]


def pca_experiment(rows: list[MetricsRow]):
    """Figure 1 / Table 3: PCA over the normalized metric matrix."""
    return run_pca([r.normalized for r in rows],
                   [r.benchmark for r in rows],
                   [r.suite for r in rows])


def suite_spread(pca_result, pc: int) -> dict[str, float]:
    """Per-suite score spread (max - min) along one PC — the Figure 1
    "wide distribution along PC2" observation as a number."""
    out = {}
    for suite in sorted(set(pca_result.suites)):
        scores = pca_result.suite_scores(suite, pc)
        out[suite] = (max(scores) - min(scores)) if scores else 0.0
    return out


def format_table7(rows: list[MetricsRow]) -> str:
    header = f"{'benchmark':24s} {'suite':12s} " + " ".join(
        f"{m:>10s}" for m in METRIC_NAMES)
    lines = [header]
    for r in rows:
        cells = []
        for m in METRIC_NAMES:
            value = r.raw[m]
            cells.append(f"{value:10.2f}" if m == "cpu" else f"{value:10d}")
        lines.append(f"{r.benchmark:24s} {r.suite:12s} " + " ".join(cells))
    return "\n".join(lines)


def format_loadings(pca_result, components: int = 4) -> str:
    """Table 3: loadings per PC, sorted by |loading|."""
    table = pca_result.loading_table(components)
    lines = []
    for pc, column in enumerate(table, start=1):
        lines.append(f"PC{pc}:")
        for name, loading in column:
            lines.append(f"  {name:10s} {loading:+.2f}")
    lines.append(f"variance in first {components} PCs: "
                 f"{pca_result.variance_fraction(components) * 100:.0f}%")
    return "\n".join(lines)
