"""Principal component analysis (paper Section 4.2).

Metrics are standardized to zero mean / unit variance per column, then
PCA (via SVD) produces loadings (Table 3) and per-benchmark scores
(Figures 1 and 8).  Signs of components are canonicalized so the largest
loading of each PC is positive, making results stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.profiler import METRIC_NAMES


@dataclass
class PcaResult:
    benchmarks: list[str]
    suites: list[str]
    metric_names: list[str]
    loadings: np.ndarray        # (K metrics, K components)
    scores: np.ndarray          # (N benchmarks, K components)
    explained_variance: np.ndarray

    def loading_table(self, components: int = 4) -> list[list[tuple[str, float]]]:
        """Per-PC metric loadings sorted by |value| desc (Table 3)."""
        table = []
        for pc in range(components):
            column = [(self.metric_names[i], float(self.loadings[i, pc]))
                      for i in range(len(self.metric_names))]
            column.sort(key=lambda item: abs(item[1]), reverse=True)
            table.append(column)
        return table

    def variance_fraction(self, components: int = 4) -> float:
        total = float(self.explained_variance.sum())
        if total == 0:
            return 0.0
        return float(self.explained_variance[:components].sum()) / total

    def suite_scores(self, suite: str, pc: int) -> list[float]:
        return [float(self.scores[i, pc])
                for i, s in enumerate(self.suites) if s == suite]


def run_pca(rows: list[dict], benchmarks: list[str],
            suites: list[str]) -> PcaResult:
    """``rows[i]`` maps metric name -> normalized value for benchmark i."""
    import numpy as np                  # on use: see harness/stats.py

    names = list(METRIC_NAMES)
    x = np.array([[row.get(name, 0.0) for name in names] for row in rows],
                 dtype=float)
    if x.shape[0] < 3:
        raise ValueError("PCA needs at least 3 benchmarks")
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=0)
    std[std == 0.0] = 1.0       # constant metric: contributes nothing
    y = (x - mean) / std

    # SVD-based PCA: y = U S Vt; loadings are V, scores are Y V.
    _u, s, vt = np.linalg.svd(y, full_matrices=False)
    loadings = vt.T
    # Canonical signs: largest-|loading| entry of each PC positive.
    for pc in range(loadings.shape[1]):
        anchor = int(np.argmax(np.abs(loadings[:, pc])))
        if loadings[anchor, pc] < 0:
            loadings[:, pc] = -loadings[:, pc]
    scores = y @ loadings
    explained = (s ** 2) / max(1, (y.shape[0] - 1))
    return PcaResult(list(benchmarks), list(suites), names,
                     loadings, scores, explained)
