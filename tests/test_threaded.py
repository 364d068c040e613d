"""Golden equivalence: threaded-code engine vs the reference interpreter.

The threaded engine (repro.jvm.threaded) replaces the reference ``elif``
dispatcher as the default tier 0.  Its contract is *byte-identical
observable behavior*: same results, same counter snapshots, same
simulated clock, same stdout, same sanitizer race reports — under any
quantum, core count, seed, and JIT configuration.  These tests pin that
contract across the sanitizer fixtures and a representative registry
slice, plus the quickening/translation-cache mechanics.
"""

from __future__ import annotations

import functools

import pytest

from repro.errors import VMError
from repro.runtime import VM
from repro.sanitize.plugin import build_report
from repro.suites.registry import get_benchmark
from tests import util
from tests.fixtures import (
    GUARDED_BENCHMARK,
    LOCK_CYCLE_BENCHMARK,
    RACE_BENCHMARK,
)

#: Registry slice for engine-equivalence sweeps: one representative per
#: concurrency archetype (strings, locks, fork-join, functional alloc).
EQUIV_SLICE = ("scrabble", "philosophers", "fj-kmeans", "streams-mnemonics")

FIXTURES = (RACE_BENCHMARK, GUARDED_BENCHMARK, LOCK_CYCLE_BENCHMARK)

assert_equivalent = functools.partial(util.assert_equivalent,
                                      engines=("threaded",))


# ----------------------------------------------------------------------
# Counter-snapshot equivalence.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", FIXTURES, ids=lambda b: b.name)
def test_fixtures_equivalent_interpreted(bench):
    assert_equivalent(bench, invocations=2)


@pytest.mark.parametrize("name", EQUIV_SLICE)
def test_registry_equivalent_interpreted(name):
    assert_equivalent(get_benchmark(name), invocations=2)


@pytest.mark.parametrize("name", ("philosophers", "streams-mnemonics"))
def test_registry_equivalent_jitted(name):
    # Repeated invocations tier hot methods up; the engines must agree
    # on every profile-driven JIT decision (same invocation counts,
    # same backedge counts, same call profiles).  scrabble and
    # fj-kmeans run the same check, threaded included, in
    # tests/test_tier2.py::test_registry_equivalent_jitted.
    assert_equivalent(get_benchmark(name), jit="graal", invocations=3)


@pytest.mark.parametrize("quantum", (37, 127, 1001))
def test_budget_boundary_equivalence(quantum):
    # Tiny quanta force slice exhaustion *inside* fused superinstruction
    # pairs: the fused handler must park the intermediate value on the
    # stack and resume at the second opcode's standalone handler, or the
    # interleaving (and every counter after it) diverges.
    assert_equivalent(get_benchmark("philosophers"), quantum=quantum,
                      cores=2, seed=7, invocations=2)


def test_seed_sweep_equivalence():
    for seed in (1, 42, 1_000_003):
        assert_equivalent(RACE_BENCHMARK, seed=seed, cores=4,
                          invocations=2)


# ----------------------------------------------------------------------
# Sanitizer RaceReport equivalence.
# ----------------------------------------------------------------------
def checked_report_json(bench, engine):
    vm = VM(engine=engine, jit=None, sanitize=True, schedule_seed=0)
    vm.load(bench.compile())
    vm.invoke(bench.entry, list(bench.args))
    return build_report(vm.sanitizer, vm, bench.name).to_json()


@pytest.mark.parametrize("bench", FIXTURES, ids=lambda b: b.name)
def test_race_reports_equivalent(bench):
    ref = checked_report_json(bench, "reference")
    thr = checked_report_json(bench, "threaded")
    assert ref == thr


def test_race_fixture_still_detected_on_threaded_engine():
    vm = VM(engine="threaded", jit=None, sanitize=True)
    vm.load(RACE_BENCHMARK.compile())
    vm.invoke(RACE_BENCHMARK.entry, list(RACE_BENCHMARK.args))
    report = build_report(vm.sanitizer, vm, RACE_BENCHMARK.name)
    assert not report.clean
    assert any(r["variable"].endswith("value") for r in report.races)


# ----------------------------------------------------------------------
# Engine selection.
# ----------------------------------------------------------------------
def test_default_engine_is_threaded():
    from repro.jvm.threaded import ThreadedInterpreter

    assert isinstance(VM().interpreter, ThreadedInterpreter)


def test_reference_engine_still_selectable():
    from repro.jvm.interpreter import Interpreter

    assert isinstance(VM(engine="reference").interpreter, Interpreter)


def test_bad_engine_spec_rejected():
    with pytest.raises(VMError):
        VM(engine="turbo")


# ----------------------------------------------------------------------
# Translation cache, quickening and invalidation.
# ----------------------------------------------------------------------
def make_loaded_vm(bench=None, **kwargs):
    bench = bench if bench is not None else GUARDED_BENCHMARK
    vm = VM(engine="threaded", jit=None, **kwargs)
    vm.load(bench.compile())
    return vm, bench


def test_translation_cache_hits_on_reexecution():
    vm, bench = make_loaded_vm()
    vm.invoke(bench.entry, list(bench.args))
    info1 = vm.interpreter.cache_info()
    assert info1["misses"] > 0 and info1["size"] > 0
    vm.invoke(bench.entry, list(bench.args))
    info2 = vm.interpreter.cache_info()
    # Second run re-enters the same methods: all cache hits, no new
    # translations.
    assert info2["misses"] == info1["misses"]
    assert info2["hits"] > info1["hits"]
    assert 0.0 < info2["hit_rate"] <= 1.0


def test_quickening_and_fusion_happen():
    vm, bench = make_loaded_vm(get_benchmark("scrabble"))
    vm.invoke(bench.entry, list(bench.args))
    info = vm.interpreter.cache_info()
    # Field accesses and invokes quicken; straight-line pairs fuse.
    assert info["quickened"] > 0
    assert info["fused"] > 0


def test_drop_host_code_mid_run_is_invisible():
    # Dropping every translation (and, up the ladder, every compiled
    # block) between invocations only costs re-translation: results,
    # counters and clock equal those of a VM that kept its code.
    bench = get_benchmark("philosophers")
    for engine in ("threaded", "tier1", "tier2"):
        vm = VM(engine=engine, jit="graal")
        vm.load(bench.compile())
        results = [vm.invoke(bench.entry, list(bench.args))]
        for _ in range(2):
            before = vm.interpreter.cache_info()
            vm.drop_host_code()
            info = vm.interpreter.cache_info()
            assert info["size"] == 0
            assert info["invalidations"] == \
                before["invalidations"] + before["size"]
            results.append(vm.invoke(bench.entry, list(bench.args)))
            assert vm.interpreter.cache_info()["misses"] > info["misses"]
        assert {"results": results, "counters": vm.counters.snapshot(),
                "clock": vm.scheduler.clock,
                "stdout": tuple(vm.stdout)} == \
            util.reference(bench, jit="graal", invocations=3), engine


def test_sanitizer_attach_invalidates_translations():
    from repro.sanitize.hb import RaceSanitizer

    vm, bench = make_loaded_vm(RACE_BENCHMARK)
    vm.invoke(bench.entry, list(bench.args))
    assert vm.interpreter.cache_info()["size"] > 0

    # Handlers translated without a sanitizer have no access hooks
    # bound; attaching one must drop every stale translation...
    RaceSanitizer().attach(vm)
    assert vm.interpreter.cache_info()["size"] == 0

    # ...so the re-translated handlers actually feed the sanitizer.
    vm.invoke(bench.entry, list(bench.args))
    assert vm.counters.race_checks > 0
    assert vm.counters.races_found > 0


def test_compile_cache_reports_hit_rate():
    from repro.harness.core import (
        clear_compile_cache,
        compile_cache_info,
    )

    clear_compile_cache()
    info = compile_cache_info()
    assert info["hits"] == info["misses"] == 0
    assert info["hit_rate"] == 0.0
    GUARDED_BENCHMARK.compile()
    GUARDED_BENCHMARK.compile()
    GUARDED_BENCHMARK.compile()
    info = compile_cache_info()
    assert info["misses"] == 1
    assert info["hits"] == 2
    assert info["hit_rate"] == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# Host wall-clock surfaced in results.
# ----------------------------------------------------------------------
def test_runner_surfaces_host_seconds():
    from repro.harness.core import Runner

    result = Runner(GUARDED_BENCHMARK, jit=None).run(warmup=1, measure=2)
    assert len(result.iterations) == 2
    assert all(it.host_seconds > 0.0 for it in result.iterations)
    assert result.host_seconds == pytest.approx(
        sum(it.host_seconds for it in result.iterations))
