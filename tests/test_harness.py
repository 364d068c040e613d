"""Tests for the benchmark harness, plugins and JMH frontend."""

import dataclasses

import pytest

from repro.harness import GuestBenchmark, Runner, run_jmh
from repro.harness.core import ValidationError
from repro.harness.plugins import HarnessPlugin, IterationLogPlugin

SIMPLE = GuestBenchmark(
    name="tiny",
    suite="tests",
    source="""
    class Bench {
        static def run(n) {
            var acc = 0;
            var i = 0;
            while (i < n) { acc = acc + i; i = i + 1; }
            return acc;
        }
    }""",
    args=(20,),
    expected=190,
    warmup=2,
    measure=3,
)


def test_runner_collects_iterations_and_counters():
    result = Runner(SIMPLE, jit=None).run()
    assert result.benchmark == "tiny"
    assert result.config == "interpreter"
    assert len(result.iterations) == 3
    assert all(it.result == 190 for it in result.iterations)
    assert result.mean_wall > 0
    assert result.counters["reference_cycles"] > 0
    assert 0.0 < result.cpu <= 1.0


def test_runner_validates_expected_result():
    bad = dataclasses.replace(SIMPLE, expected=1)
    with pytest.raises(ValidationError):
        Runner(bad, jit=None).run()


def test_runner_config_names():
    assert Runner(SIMPLE, jit="graal").run(warmup=0, measure=1).config \
        == "graal"
    from repro.jit.pipeline import graal_config
    cfg = graal_config().without("GM")
    assert Runner(SIMPLE, jit=cfg).run(warmup=0, measure=1).config \
        == "graal-no-GM"


def test_plugin_hooks_fire_in_order():
    events = []

    class Probe(HarnessPlugin):
        def before_run(self, vm, benchmark):
            events.append("before_run")

        def before_iteration(self, vm, benchmark, index, warmup):
            events.append(f"bi{index}{'w' if warmup else 'm'}")

        def after_iteration(self, vm, benchmark, index, warmup, stats):
            events.append(f"ai{index}{'w' if warmup else 'm'}")
            assert stats["wall"] >= 0

        def after_run(self, vm, benchmark, result):
            events.append("after_run")

    Runner(SIMPLE, jit=None, plugins=(Probe(),)).run(warmup=1, measure=1)
    assert events == ["before_run", "bi0w", "ai0w", "bi0m", "ai0m",
                      "after_run"]


def test_iteration_log_plugin():
    log = IterationLogPlugin()
    Runner(SIMPLE, jit=None, plugins=(log,)).run(warmup=1, measure=2)
    assert [(i, w) for i, w, _ in log.log] == [(0, True), (0, False),
                                               (1, False)]


def test_jmh_forks_use_distinct_seeds_and_aggregate():
    result = run_jmh(SIMPLE, jit=None, forks=3, warmup=1, measure=2)
    assert result.forks == 3
    assert len(result.fork_means) == 3
    assert len(result.walls) == 6
    assert result.score > 0
    lo, hi = result.ci()
    assert lo <= result.score <= hi
    assert "tiny" in result.format()


def test_benchmark_definitions_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SIMPLE.name = "other"


def test_sweep_and_service_imports_stay_light():
    # scipy/numpy cost ~1.3 s and ~80 MB per process; a sweep, a worker
    # or the service never calls the three statistics that need them.
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys; import repro.faults.resilience, "
            "repro.suites.registry, repro.serve.scheduler, "
            "repro.harness.__main__; "
            "print([m for m in ('scipy', 'numpy') if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_cli_defaults_are_the_sweep_config_defaults(monkeypatch):
    import repro.faults.resilience as resilience
    from repro.harness import SweepConfig
    from repro.harness.__main__ import main

    seen = {}

    def fake_run_suite(workload, **kwargs):
        seen.update(kwargs)
        return resilience.SuiteResult("renaissance", "graal")

    monkeypatch.setattr(resilience, "run_suite", fake_run_suite)
    assert main(["renaissance:philosophers"]) == 0
    default = SweepConfig()
    assert {k: seen[k] for k in ("jit", "engine", "cores", "schedule_seed")} \
        == {"jit": default.jit, "engine": default.engine,
            "cores": default.cores, "schedule_seed": default.schedule_seed}


def test_runner_sanitize_takes_only_declarative_values():
    from repro.sanitize import SanitizerConfig, SanitizerPlugin

    for spec in (True, SanitizerConfig()):
        runner = Runner(SIMPLE, sanitize=spec)
        assert runner.jit is None and runner.sanitize_plugin is not None
    with pytest.raises(TypeError, match="SanitizerConfig"):
        Runner(SIMPLE, sanitize=SanitizerPlugin())
