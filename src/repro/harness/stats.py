"""Statistics used by the evaluation (paper Section 6 methodology).

Welch's t-test decides significance of optimization impacts at
α = 0.01; winsorized filtering removes outliers from Figure 5's inputs;
geometric means summarize the CK and code-size tables.
"""

from __future__ import annotations

import math


def winsorize(values: list[float], fraction: float = 0.1) -> list[float]:
    """Clamp the lowest/highest ``fraction`` of values to the remaining
    extremes (the paper's outlier filtering for Figure 5)."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    k = int(n * fraction)
    lo = ordered[k]
    hi = ordered[n - 1 - k]
    return [min(max(v, lo), hi) for v in values]


def welch_t_test(a: list[float], b: list[float]) -> float:
    """p-value of Welch's two-sided t-test; 1.0 when underpowered."""
    if len(a) < 2 or len(b) < 2:
        return 1.0
    if _all_equal(a) and _all_equal(b):
        return 0.0 if a[0] != b[0] else 1.0
    # Imported on use: scipy costs ~1.3 s and ~80 MB, which a sweep
    # (it never calls this) would otherwise pay in every process.
    from scipy import stats as _scipy_stats
    result = _scipy_stats.ttest_ind(a, b, equal_var=False)
    p = float(result.pvalue)
    return 1.0 if math.isnan(p) else p


def _all_equal(values: list[float]) -> bool:
    return all(v == values[0] for v in values)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def geomean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def stdev(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def confidence_interval(values: list[float], level: float = 0.99
                        ) -> tuple[float, float]:
    """Two-sided t-distribution CI of the mean (Figure 6's 99% bars)."""
    if len(values) < 2:
        m = mean(values)
        return (m, m)
    m = mean(values)
    se = stdev(values) / math.sqrt(len(values))
    if se == 0.0:
        return (m, m)
    from scipy import stats as _scipy_stats
    t = _scipy_stats.t.ppf(0.5 + level / 2, len(values) - 1)
    return (m - t * se, m + t * se)


def relative_impact(disabled_walls: list[float],
                    baseline_walls: list[float]) -> float:
    """The paper's impact measure: relative change in execution time when
    an optimization is disabled (positive = the optimization helps)."""
    base = mean(baseline_walls)
    if base == 0:
        return 0.0
    return (mean(disabled_walls) - base) / base
