"""Where the traced run attaches to ``repro`` and what it reads there.

``src/`` is measured from outside only: :func:`install` wraps a fixed
manifest of public entry points, each patched where its name is *bound*
(a ``from x import f`` caller keeps its own reference, so the wrapper
must replace that one), and :class:`IterationSpans` rides the harness's
plugin hooks.  Nothing per-instruction or per-slice is wrapped
(``Machine.run``, handlers): tier residency needs tracing inside the
program and is a later issue.

Layer = ``repro.*`` module name.  ``*_calls`` is a span count and
``*_s`` a sum of span self times, except ``lang.compile_s``,
``jit.compile_s`` and ``harness.unit_s_*``, which are whole-call
durations (their parts are the other metrics of the same layer).
"""

from __future__ import annotations

import importlib
import statistics

from repro.harness.plugins import HarnessPlugin

import spans as spanlib

JIT_PHASES = {          # metric suffix -> module of repro.jit.phases
    "inlining": "inlining", "cleanup": "cleanup",
    "method-handle": "method_handle", "escape-analysis": "escape_analysis",
    "duplication": "duplication", "guard-motion": "guard_motion",
    "lock-coarsening": "lock_coarsening",
    "atomic-coalescing": "atomic_coalescing", "unrolling": "unrolling",
    "vectorization": "vectorization",
}


def _benchmark_name(runner, *args, **kwargs):
    return runner.benchmark.name


def _digest(store, digest, *args, **kwargs):
    return digest


#: (span name, module, attribute path, unit_of).  One span name may be
#: bound in several modules (``decode_outcome``).
WRAP_POINTS = (
    ("lang.compile", "repro.harness.core", "compile_program", None),
    ("lang.parse", "repro.lang.codegen", "parse", None),
    ("lang.tokenize", "repro.lang.parser", "tokenize", None),
    ("runtime.load", "repro.runtime.vm", "VM.load", None),
    ("jit.compile", "repro.jit.jit", "JitCompiler.compile", None),
    ("jit.build_graph", "repro.jit.jit", "build_graph", None),
    ("jit.lower", "repro.jit.jit", "lower", None),
    *((f"jit.phase.{phase}", f"repro.jit.phases.{module}", "run", None)
      for phase, module in JIT_PHASES.items()),
    ("jit.emit.compile_method", "repro.jvm.tier1", "compile_method", None),
    ("jit.emit2.compile_tier2", "repro.jit.emit2", "compile_tier2", None),
    ("jit.emit2.extend_tier2", "repro.jit.emit2", "extend_tier2", None),
    ("harness.unit", "repro.harness.core", "Runner.run", _benchmark_name),
    ("harness.journal.append", "repro.harness.journal", "Journal.append",
     None),
    ("harness.journal.replay", "repro.harness.journal", "Journal.replay",
     None),
    ("harness.store.put", "repro.harness.store", "ResultStore.put", _digest),
    ("harness.store.get", "repro.harness.store", "ResultStore.get", _digest),
    ("harness.store.encode", "repro.serve.pool", "encode_outcome", None),
    ("harness.store.decode", "repro.serve.pool", "decode_outcome", None),
    ("harness.store.decode", "repro.serve.scheduler", "decode_outcome",
     None),
    ("harness.store.decode", "repro.serve.client", "decode_outcome", None),
)

_FRONT = ("lang.compile", "lang.parse", "lang.tokenize", "runtime.load",
          "jit.compile", "jit.build_graph", "jit.lower", "harness.unit")
_EMIT = ("jit.emit.compile_method", "jit.emit2.compile_tier2",
         "jit.emit2.extend_tier2")

#: Span names a workload must record at least once / must never record.
#: A rename in ``src/`` then fails the traced run instead of making a
#: layer look free.
MUST_CALL = {
    "cold-sweep": _FRONT,
    "ladder-sweep": _FRONT + _EMIT,
    "short-registry": _FRONT,
    "served-jobs": ("harness.store.put", "harness.store.get",
                    "harness.store.decode", "harness.journal.append",
                    "harness.journal.replay"),
}
MUST_NOT_CALL = {"cold-sweep": _EMIT, "short-registry": _EMIT}


def install(rec: spanlib.Recorder, patch=setattr) -> None:
    """Wrap every manifest entry; an entry that no longer resolves is an
    error, never a silently missing layer.  ``patch`` lets a test pass
    ``monkeypatch.setattr`` so the wrappers are undone afterwards."""
    for name, module_name, path, unit_of in WRAP_POINTS:
        try:
            owner = importlib.import_module(module_name)
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            target = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            raise RuntimeError(
                f"wrap point {module_name}:{path} ({name}) does not "
                f"resolve: {exc}") from exc
        patch(owner, attr, rec.wrap(name, target, unit_of))


def check_calls(workload: str, totals: dict) -> None:
    silent = [n for n in MUST_CALL[workload] if totals[n].calls == 0]
    if silent:
        raise RuntimeError(
            f"{workload}: no span recorded for {silent}; the wrap-point "
            f"manifest no longer matches src/")
    loud = [n for n in MUST_NOT_CALL.get(workload, ())
            if totals[n].calls]
    if loud:
        raise RuntimeError(
            f"{workload}: {loud} ran, but this workload must bypass the "
            f"host emitters (did the default engine change? then the "
            f"benchmark's predictions need their own PR)")


class IterationSpans(HarnessPlugin):
    """One span per iteration: first / other warmup / measured."""

    def __init__(self, rec: spanlib.Recorder) -> None:
        self.rec = rec
        self._open = None

    def before_iteration(self, vm, benchmark, index, warmup) -> None:
        kind = "steady" if not warmup else "first" if index == 0 \
            else "warmup"
        self._open = self.rec.begin(f"jvm.iteration.{kind}")

    def after_iteration(self, vm, benchmark, index, warmup, stats) -> None:
        self.rec.end(self._open)


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def span_metrics(workload: str, spans) -> dict:
    """Per-layer metrics that come from spans alone (any workload),
    once the guard has passed."""
    totals = spanlib.totals(spans)
    check_calls(workload, totals)
    out = {
        "lang.compile_s": totals["lang.compile"].inclusive_s,
        "lang.compile_calls": totals["lang.compile"].calls,
        "lang.tokenize_s": totals["lang.tokenize"].self_s,
        "lang.tokenize_calls": totals["lang.tokenize"].calls,
        "lang.parse_s": totals["lang.parse"].self_s,
        "lang.parse_calls": totals["lang.parse"].calls,
        "lang.codegen_s": totals["lang.compile"].self_s,
        "runtime.load_s": totals["runtime.load"].self_s,
        "runtime.load_calls": totals["runtime.load"].calls,
        "jvm.first_iter_s": totals["jvm.iteration.first"].self_s,
        "jvm.warmup_exec_s": totals["jvm.iteration.first"].self_s
        + totals["jvm.iteration.warmup"].self_s,
        "jvm.steady_exec_s": totals["jvm.iteration.steady"].self_s,
        "jit.compile_s": totals["jit.compile"].inclusive_s,
        "jit.compile_calls": totals["jit.compile"].calls,
        "jit.build_graph_s": totals["jit.build_graph"].self_s,
        "jit.build_graph_calls": totals["jit.build_graph"].calls,
        "jit.lower_s": totals["jit.lower"].self_s,
        "jit.phase_calls": sum(
            totals[f"jit.phase.{p}"].calls for p in JIT_PHASES),
    }
    for phase in JIT_PHASES:
        out[f"jit.phase.{phase}_s"] = totals[f"jit.phase.{phase}"].self_s
    for name in _EMIT:
        out[f"{name}_s"] = totals[name].self_s
        out[f"{name}_calls"] = totals[name].calls
    for name in ("journal.append", "store.put", "store.get"):
        out[f"harness.{name}_s"] = totals[f"harness.{name}"].self_s
        out[f"harness.{name}_calls"] = totals[f"harness.{name}"].calls
    for name in ("journal.replay", "store.encode", "store.decode"):
        out[f"harness.{name}_s"] = totals[f"harness.{name}"].self_s
    return out


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def sweep_metrics(spans, root, results, compile_cache: dict) -> dict:
    """Per-layer metrics of an in-process sweep: the unit spans plus the
    counters the finished VMs and ``RunResult.tier1/tier2`` carry.  The
    sweep span's only children are the serial ``Runner.run`` spans, so
    what they leave uncovered is the time no named layer accounts for."""
    units = [s.duration for s in spans if s.name == "harness.unit"]
    overhead = root.duration - sum(units)
    out = {
        "harness.unit_s_p50": statistics.median(units),
        "harness.unit_s_max": max(units),
        "harness.overhead_s": overhead,
        "bench.span_coverage": 1.0 - overhead / root.duration,
        "lang.cache_hit_rate": compile_cache["hit_rate"],
        "jvm.instructions": sum(
            r.vm.counters.instructions for r in results),
        "jit.compile_failures": sum(
            r.vm.jit.stats.failures for r in results),
        "jit.code_size_bytes": sum(
            r.vm.jit.code_size_bytes() for r in results),
        "jit.hot_methods": sum(
            r.vm.jit.hot_method_count() for r in results),
    }
    caches = [r.vm.interpreter.cache_info() for r in results]
    out["jvm.translate_hit_rate"] = _rate(
        sum(c["hits"] for c in caches), sum(c["misses"] for c in caches))
    for tier, fields in (("tier1", ("promotions",)),
                         ("tier2", ("promotions", "osr_entries",
                                    "compiled_blocks"))):
        snaps = [getattr(r, tier) for r in results
                 if getattr(r, tier) is not None]
        for field in fields:
            out[f"jvm.{tier}.{field}"] = sum(s[field] for s in snaps)
        out[f"jvm.{tier}.deopts"] = sum(
            sum(s["deopts"].values()) for s in snaps)
        code = [c[tier] for c in caches if tier in c]
        out[f"jvm.{tier}.code_cache_hit_rate"] = _rate(
            sum(c["hits"] for c in code), sum(c["misses"] for c in code))
    return out
