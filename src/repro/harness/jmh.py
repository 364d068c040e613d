"""JMH-style frontend: forks × iterations with summary statistics.

The paper's harness "allows running the benchmarks with JMH as a
frontend to avoid common measurement pitfalls".  A fork here is a fresh
VM with a distinct schedule seed — the deterministic analogue of a fresh
JVM process — so fork-to-fork variance reflects scheduling
non-determinism, feeding the significance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.core import GuestBenchmark, Runner, config_name
from repro.harness.stats import confidence_interval, mean, stdev


@dataclass
class JmhResult:
    benchmark: str
    config: str
    forks: int
    walls: list[float] = field(default_factory=list)   # per-iteration walls
    fork_means: list[float] = field(default_factory=list)

    @property
    def score(self) -> float:
        return mean(self.fork_means)

    @property
    def error(self) -> float:
        return stdev(self.fork_means)

    def ci(self, level: float = 0.99) -> tuple[float, float]:
        return confidence_interval(self.fork_means, level)

    def format(self) -> str:
        lo, hi = self.ci()
        return (f"{self.benchmark:24s} {self.config:14s} "
                f"{self.score:12.0f} ± {self.error:10.0f} cycles/op "
                f"[{lo:.0f}, {hi:.0f}]")


def run_jmh(benchmark: GuestBenchmark, *, jit="graal", forks: int = 3,
            warmup: int | None = None, measure: int | None = None,
            cores: int = 8, plugins: tuple = ()) -> JmhResult:
    """Run ``benchmark`` in ``forks`` fresh VMs and aggregate."""
    out = JmhResult(benchmark.name, config_name(jit), forks)
    for fork in range(forks):
        runner = Runner(benchmark, jit=jit, cores=cores,
                        schedule_seed=fork * 7919, plugins=plugins)
        result = runner.run(warmup=warmup, measure=measure)
        out.walls.extend(result.walls)
        out.fork_means.append(result.mean_wall)
    return out
