"""Shared helpers for the test suite."""

from __future__ import annotations

from functools import lru_cache

from repro.lang import compile_program
from repro.runtime import VM


@lru_cache(maxsize=512)
def _compiled(source: str):
    return compile_program(source)


def run_guest(source: str, entry: str = "Main.main", args: tuple = (),
              jit=None, *, cores: int = 8, seed: int = 0,
              repeat: int = 1):
    """Compile and run guest ``source``; returns (result, vm).

    ``repeat`` re-invokes the entry point (useful to let the JIT warm
    up); the result of the last invocation is returned.
    """
    vm = VM(jit=jit, cores=cores, schedule_seed=seed)
    vm.load(_compiled(source))
    result = None
    for _ in range(repeat):
        result = vm.invoke(entry, list(args))
    return result, vm


def run_all_tiers(source: str, entry: str = "Main.main", args: tuple = (),
                  repeat: int = 6):
    """Run under interpreter, Graal and C2; assert identical results."""
    from repro.jit.pipeline import c2_config, graal_config

    interp, _ = run_guest(source, entry, args, jit=None)
    graal, gvm = run_guest(source, entry, args,
                           jit=graal_config(compile_threshold=3),
                           repeat=repeat)
    c2, _ = run_guest(source, entry, args,
                      jit=c2_config(compile_threshold=3), repeat=repeat)
    assert interp == graal == c2, (interp, graal, c2)
    return interp, gvm


# ----------------------------------------------------------------------
# The engine-equivalence oracle (tests/test_threaded.py, test_tier1.py,
# test_tier2.py): every host engine must observe exactly what the
# reference interpreter does.
# ----------------------------------------------------------------------
def observe(bench, engine, *, jit=None, quantum=5000, cores=8, seed=0,
            invocations=1, trace=None):
    """Everything an engine run can observably produce, and its VM."""
    vm = VM(engine=engine, jit=jit, quantum=quantum, cores=cores,
            schedule_seed=seed, trace=trace)
    vm.load(bench.compile())
    results = [vm.invoke(bench.entry, list(bench.args))
               for _ in range(invocations)]
    out = {
        "results": results,
        "counters": vm.counters.snapshot(),
        "clock": vm.scheduler.clock,
        "stdout": tuple(vm.stdout),
    }
    if trace is not None:
        out["events"] = tuple(vm.trace.event_list())
    return out, vm


_REFERENCE: dict = {}


def reference(bench, **kwargs) -> dict:
    """``observe(bench, "reference", **kwargs)``, computed once per
    session: the oracle depends only on the program and the run knobs,
    and several engine test files compare against the same runs."""
    key = (bench.source, bench.entry, bench.args,
           repr(sorted(kwargs.items())))
    if key not in _REFERENCE:
        _REFERENCE[key], _ = observe(bench, "reference", **kwargs)
    return _REFERENCE[key]


def assert_equivalent(bench, engines, **kwargs) -> None:
    """Each of ``engines`` observes exactly what the reference does."""
    ref = reference(bench, **kwargs)
    for engine in engines:
        got, _ = observe(bench, engine, **kwargs)
        assert ref == got, (engine, {
            k: (ref[k], got[k]) for k in ref if ref[k] != got[k]})
