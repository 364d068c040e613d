"""Shared helpers for the test suite."""

from __future__ import annotations

import ast
import re
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
            invocations=1, trace=None, setup=None):
    """Everything an engine run can observably produce, and its VM.

    ``setup`` is called with the fresh VM before the program loads."""
    vm = VM(engine=engine, jit=jit, quantum=quantum, cores=cores,
            schedule_seed=seed, trace=trace)
    if setup is not None:
        setup(vm)
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


# ----------------------------------------------------------------------
# The budget-exit fuzz (tests/test_tier1.py, test_tier2.py): sweeping the
# scheduler quantum makes a host tier's production budget exit park a
# frame at every pc its emitted blocks guard.
# ----------------------------------------------------------------------
#: One emitted budget guard, written on one line by both emitters:
#: ``if budget <= K: [spill; ]return _x(thread, frame, budget, b0, ai,
#: charged, counted, P, 'budget')``.
_BUDGET_GUARD = re.compile(
    r"^ *if budget <= \d+: .*?\breturn _x\((?:\w+, ){7}(\d+), 'budget'\)$",
    re.MULTILINE)


#: What only the exit function ``_x`` may write in a generated block,
#: and the statement kind that would write it.
_EXIT_STATE = {"thread.budget": ast.Assign, "frame.pc": ast.Assign,
               "_ct.instructions": ast.AugAssign,
               "_ct.reference_cycles": ast.AugAssign}


def exit_state_writes(source: str) -> list[str]:
    """Statements of generated ``source`` that write exit state outside
    ``_x`` (``thread.budget =``, ``frame.pc =``, ``_ct.instructions +=``,
    ``_ct.reference_cycles +=``), and any use of ``_dp``, the exit-count
    table blocks no longer bind."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "_dp":
            found.append("_dp")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            target = node.target if isinstance(node, ast.AugAssign) \
                else node.targets[0]
            if _EXIT_STATE.get(ast.unparse(target)) is type(node):
                found.append(ast.unparse(node))
    return found


def assert_vm_free(source: str) -> None:
    """Generated block ``source`` carries nothing of the VM it was
    emitted for: no block binds a default argument (the method env is
    its globals), and none inlines ``VM.call``'s frame push."""
    for fn in ast.parse(source).body:
        assert not fn.args.defaults and not fn.args.kw_defaults, fn.name
    for word in ("invocation_count", "new_frame", "_Frame"):
        assert word not in source, word


def budget_guarded_pcs(*sources: str) -> set[int]:
    """The pcs the budget guards in generated block ``sources`` park at."""
    return {int(pc) for source in sources
            for pc in _BUDGET_GUARD.findall(source)}


def record_budget_exits(engine, parked: set) -> None:
    """Add ``(method, pc)`` to ``parked`` whenever a block run by
    ``engine`` (a Tier1Interpreter or Tier2Machine) leaves through its
    budget guard: ``run_frame`` then returns with the parked frame on
    top."""
    run_frame = engine.run_frame
    exits = engine.stats.deopts

    def recording(thread, frame) -> None:
        before = exits["budget"]
        run_frame(thread, frame)
        if exits["budget"] != before:
            top = thread.frames[-1]
            method = getattr(top, "method", None) or top.code.method
            parked.add((method.qualified, top.pc))

    engine.run_frame = recording
