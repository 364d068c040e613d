"""JIT pipeline configurations ("Graal" and "C2") and phase ordering.

The seven paper optimizations are individually toggleable, which is how
the Figure 5 / Tables 12–15 selective-disable experiments run:

====  =========================================  ======= ==
code  optimization                               section new
====  =========================================  ======= ==
EAWA  Escape Analysis with Atomic Operations     5.1     yes
LLC   Loop-Wide Lock Coarsening                  5.2     yes
AC    Atomic-Operation Coalescing                5.3     yes
MHS   Method-Handle Simplification               5.4     yes
GM    Speculative Guard Motion                   5.5     no
LV    Loop Vectorization                         5.6     no
DS    Dominance-Based Duplication Simulation     5.7     no
====  =========================================  ======= ==
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

#: Optimization codes, in the column order of Tables 12–15.
OPT_NAMES = {
    "AC": "Atomic-Operation Coalescing",
    "DS": "Dominance-Based Duplication Simulation",
    "EAWA": "Escape Analysis with Atomic Operations",
    "GM": "Speculative Guard Motion",
    "LV": "Loop Vectorization",
    "LLC": "Loop-Wide Lock Coarsening",
    "MHS": "Method-Handle Simplification",
}

OPT_CODES = tuple(sorted(OPT_NAMES))


@dataclass(frozen=True)
class JitConfig:
    """One compiler configuration.

    ``flags`` holds the seven paper optimizations.  The remaining knobs
    describe the surrounding compiler: inlining budgets, the escape
    analysis flavour (C2 has full EA, Graal has *partial* EA), and loop
    unrolling aggressiveness (C2's classic strength).
    """

    name: str = "graal"
    flags: dict = field(default_factory=dict)
    inline_callee_budget: int = 90       # max callee IR nodes to inline
    inline_graph_budget: int = 1600      # stop inlining past this size
    inline_depth: int = 6
    pea_partial: bool = True             # Graal: partial EA; C2: full only
    unroll_factor: int = 2               # loop-overhead reduction factor
    lock_coarsen_chunk: int = 32         # the paper's C = 32
    compile_threshold: int = 32          # invocations before tier-up
    backedge_threshold: int = 6000

    def enabled(self, code: str) -> bool:
        return bool(self.flags.get(code, False))

    def without(self, code: str) -> "JitConfig":
        """Copy with one optimization disabled (the Figure 5 method)."""
        flags = dict(self.flags)
        flags[code] = False
        return replace(self, name=f"{self.name}-no-{code}", flags=flags)


def graal_config(**overrides) -> JitConfig:
    """The full Graal-like pipeline: all seven optimizations on."""
    flags = {code: True for code in OPT_CODES}
    flags.update(overrides.pop("flags", {}))
    return JitConfig(name="graal", flags=flags, **overrides)


def config_digest(config: JitConfig) -> str:
    """Stable short digest of a compiler configuration.

    The durable store key's ``compiler`` field
    (:meth:`repro.harness.config.SweepConfig.fingerprint`): two configs
    that could compile a method differently must never share stored
    results, even when both call themselves ``"graal"``.  Covers every
    :class:`JitConfig` field, flags in sorted order, so equal configs
    digest equally regardless of construction order.
    """
    payload = asdict(config)
    payload["flags"] = {k: bool(v)
                        for k, v in sorted(payload["flags"].items())}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def c2_config(**overrides) -> JitConfig:
    """The classic second-tier baseline.

    C2 gets guard motion (loop predication), vectorization (superword)
    and aggressive loop unrolling, but not the four new optimizations,
    not DBDS, and only *full* (non-partial) escape analysis.  Its
    inlining budgets are smaller, matching the paper's observation that
    Graal's inlining is the larger lever on abstraction-heavy code.
    """
    flags = {code: False for code in OPT_CODES}
    flags["GM"] = True
    flags["LV"] = True
    flags.update(overrides.pop("flags", {}))
    return JitConfig(
        name="c2",
        flags=flags,
        inline_callee_budget=40,
        inline_graph_budget=700,
        inline_depth=4,
        pea_partial=False,
        unroll_factor=4,
        **overrides,
    )


#: Checkpoint labels of the verified pipeline, in execution order.
#: Repeated entries (``cleanup`` runs between several phases) share a
#: label: a broken invariant is attributed to the phase that just ran.
PHASE_LABELS = (
    "parse", "inlining", "cleanup", "method-handle", "escape-analysis",
    "duplication", "guard-motion", "vectorize", "unroll", "lock-coarsen",
    "atomic-coalesce", "schedule",
)


def run_pipeline(graph, config: JitConfig, pool, stats, *,
                 verify: bool = False, mutate: dict | None = None,
                 verify_stats: dict | None = None) -> None:
    """Run the optimization phases over ``graph`` in canonical order.

    ``stats`` is a :class:`repro.jit.jit.CompileStats`; every phase
    reports the number of nodes it processed, which feeds the simulated
    compile-time accounting (Table 16).

    With ``verify=True`` (the ``verify_between_phases`` mode) the IR
    verifier (:mod:`repro.sanitize.irverify`) re-checks the whole graph
    after parse and after every phase; the first violation raises
    :class:`repro.sanitize.irverify.IRVerifyError` carrying the label of
    the phase that just ran.  ``mutate`` maps a phase label to a
    callable ``fn(graph)`` applied right after that phase's first run —
    the hook the mutation corpus uses to seed deliberate miscompiles.
    ``verify_stats`` (when given) accumulates ``phase_checks`` /
    ``issues`` counters.
    """
    from repro.jit.phases import (
        atomic_coalescing,
        cleanup,
        duplication,
        escape_analysis,
        guard_motion,
        inlining,
        lock_coarsening,
        method_handle,
        unrolling,
        vectorization,
    )

    mutate = dict(mutate) if mutate else None

    def checkpoint(phase: str) -> None:
        if mutate is not None:
            fn = mutate.pop(phase, None)
            if fn is not None:
                fn(graph)
        if not verify:
            return
        from repro.sanitize.irverify import IRVerifyError, verify_graph

        issues = verify_graph(graph, phase=phase)
        if verify_stats is not None:
            verify_stats["phase_checks"] = \
                verify_stats.get("phase_checks", 0) + 1
            verify_stats["issues"] = \
                verify_stats.get("issues", 0) + len(issues)
        if any(i.severity == "error" for i in issues):
            raise IRVerifyError(graph.method.qualified, phase, issues)

    stats.phase("parse", graph.node_count() * 3)
    checkpoint("parse")
    inlining.run(graph, config, pool, stats)
    checkpoint("inlining")
    cleanup.run(graph, config, stats)
    checkpoint("cleanup")
    if config.enabled("MHS"):
        changed = method_handle.run(graph, config, stats)
        checkpoint("method-handle")
        if changed:
            inlining.run(graph, config, pool, stats)
            checkpoint("inlining")
            cleanup.run(graph, config, stats)
            checkpoint("cleanup")
    escape_analysis.run(graph, config, stats, pool)
    checkpoint("escape-analysis")
    if config.enabled("DS"):
        duplication.run(graph, config, stats)
        checkpoint("duplication")
        cleanup.run(graph, config, stats)
        checkpoint("cleanup")
    if config.enabled("GM"):
        guard_motion.run(graph, config, stats)
        checkpoint("guard-motion")
    if config.enabled("LV"):
        vectorization.run(graph, config, stats)
        checkpoint("vectorize")
    unrolling.run(graph, config, stats)
    checkpoint("unroll")
    if config.enabled("LLC"):
        lock_coarsening.run(graph, config, stats)
        checkpoint("lock-coarsen")
    if config.enabled("AC"):
        atomic_coalescing.run(graph, config, stats)
        checkpoint("atomic-coalesce")
    cleanup.run(graph, config, stats)
    checkpoint("cleanup")
    stats.phase("schedule", graph.node_count() * 4)
    checkpoint("schedule")
