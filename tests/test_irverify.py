"""Tests for the compiler-verification layer: the IR well-formedness
verifier and per-phase pipeline checkpoints (repro.sanitize.irverify),
superblock validation (repro.sanitize.blockverify), the mutation corpus,
and the VM/harness/CLI/metrics wiring around them."""

import copy
import json

import pytest

from repro.jit.jit import CompileStats
from repro.jit.pipeline import PHASE_LABELS, graal_config, run_pipeline
from repro.jit.ir import FrameState, Node, VirtualObjectState
from repro.lang import compile_program
from repro.runtime import VM
from repro.sanitize import (
    IRVerifyError,
    run_corpus,
    verify_graph,
    verify_tier1_code,
)
from repro.sanitize.blockverify import verify_tier2_code
from repro.sanitize.mutations import (
    DRIVER_SOURCE,
    EMIT_MUTATIONS,
    IR_MUTATIONS,
    _build_graph,
    _compile_tier1,
    _compile_tier2,
)
from tests.fixtures import GUARDED_BENCHMARK


# ----------------------------------------------------------------------
# Mutation corpus: the verifier's own test.
# ----------------------------------------------------------------------

def test_corpus_every_variant_detected_and_attributed():
    results = run_corpus()
    assert len(results) >= 10                   # the ISSUE 8 floor
    escaped = [r.format() for r in results
               if not (r.detected and r.attributed)]
    assert escaped == []


def test_corpus_covers_both_layers():
    assert len(IR_MUTATIONS) >= 10
    results = run_corpus()
    assert {r.layer for r in results} == {"ir", "emit"}
    # Every emit mutant runs against each host tier's artifact.
    for tier in ("tier-1", "tier-2"):
        assert len([r for r in results
                    if r.layer == "emit" and r.phase == tier]) >= 8


# ----------------------------------------------------------------------
# Per-phase invariant checking through run_pipeline(verify=True).
# ----------------------------------------------------------------------

def test_clean_pipeline_verifies_at_every_checkpoint():
    graph, pool = _build_graph()
    stats = {}
    run_pipeline(graph, graal_config(), pool, CompileStats(),
                 verify=True, verify_stats=stats)
    assert stats["phase_checks"] >= len(PHASE_LABELS)
    assert stats["issues"] == 0
    assert verify_graph(graph, phase="schedule") == []


def test_broken_invariant_attributed_to_injecting_phase():
    def drop_operand(graph):
        for block in graph.blocks:
            for node in block.nodes:
                if node.op == "add" and len(node.inputs) == 2:
                    node.inputs.pop()
                    return
        raise AssertionError("corpus graph lost its add nodes")

    graph, pool = _build_graph()
    with pytest.raises(IRVerifyError) as exc:
        run_pipeline(graph, graal_config(), pool, CompileStats(),
                     verify=True, mutate={"guard-motion": drop_operand})
    assert exc.value.phase == "guard-motion"
    assert any(i.severity == "error" for i in exc.value.issues)


# ----------------------------------------------------------------------
# Rematerialization recipes (the escape-analysis regression).
# ----------------------------------------------------------------------

def test_virtualize_state_nests_recipes():
    # When the scalar-replaced object is itself a field of another
    # scalar-replaced object, the substitution must nest the recipe
    # instead of leaving a raw node a later materialization would
    # rewrite to a not-yet-executed new — at any depth.
    inner = Node("new", value="Inner")
    seven = Node("const", value=7)
    recipe = VirtualObjectState("Inner", (("v", seven),))
    outer = VirtualObjectState("Outer", (("f", inner),))
    top = VirtualObjectState("Top", (("g", outer),))
    state = FrameState(0, (outer, inner, top), ())
    out = state.substitute({inner: recipe})
    rewritten_outer, direct, rewritten_top = out.locals
    assert isinstance(direct, VirtualObjectState)
    nested = dict(rewritten_outer.field_values)["f"]
    assert isinstance(nested, VirtualObjectState)
    assert nested.class_name == "Inner"
    assert dict(nested.field_values)["v"] is seven
    # Three deep: Top -> Outer -> Inner is rewritten too, and the outer
    # recipe it shares with local 0 stays the same object.
    assert dict(rewritten_top.field_values)["g"] is rewritten_outer
    assert inner not in set(out.nodes())
    # A state that never mentioned the node comes back as itself.
    untouched = FrameState(1, (seven,), ())
    assert untouched.substitute({inner: recipe}) is untouched


def test_verifier_rejects_recipe_field_defined_after_guard():
    # The exact shape of the partial-EA bug the verifier caught on the
    # full-suite sweep: a recipe field pointing at a new scheduled
    # after the guard in the same block.
    graph, pool = _build_graph()
    mutator = IR_MUTATIONS["recipe-field-from-future"][1]
    with pytest.raises(IRVerifyError) as exc:
        run_pipeline(graph, graal_config(), pool, CompileStats(),
                     verify=True, mutate={"escape-analysis": mutator})
    assert exc.value.phase == "escape-analysis"
    assert any("does not dominate" in i.message for i in exc.value.issues)


# ----------------------------------------------------------------------
# VM integration: verify_ir=True re-checks every compile, transparently.
# ----------------------------------------------------------------------

def _hot_vm(verify_ir):
    vm = VM(jit=graal_config(compile_threshold=1), verify_ir=verify_ir)
    vm.load(compile_program(DRIVER_SOURCE))
    results = [vm.invoke("Main.main") for _ in range(5)]
    return vm, results


def test_vm_verify_ir_counts_and_preserves_semantics():
    checked, checked_results = _hot_vm(True)
    plain, plain_results = _hot_vm(False)
    assert checked.irverify_stats["graphs"] > 0
    assert checked.irverify_stats["phase_checks"] > 0
    assert checked.irverify_stats["issues"] == 0
    assert plain.irverify_stats["graphs"] == 0
    # Verification is observability only: same results, same simulated
    # counters, byte for byte.
    assert checked_results == plain_results
    assert checked.counters.snapshot() == plain.counters.snapshot()


# ----------------------------------------------------------------------
# Superblock validation (both host tiers' emit layer).
# ----------------------------------------------------------------------

def test_clean_tier1_artifact_verifies():
    code, method = _compile_tier1()
    assert verify_tier1_code(code, method) == []


def test_tampered_tier1_artifact_flagged():
    code, method = _compile_tier1()
    tampered = copy.copy(code)
    tampered.entries = list(code.entries)
    tampered.sites += 3
    issues = verify_tier1_code(tampered, method)
    assert issues and all(i.pass_name == "blockverify" for i in issues)


def test_clean_tier2_artifact_verifies_and_tampered_is_flagged():
    t2 = _compile_tier2()
    assert verify_tier2_code(t2) == []
    tampered = copy.copy(t2)
    tampered.sites += 3
    issues = verify_tier2_code(tampered)
    assert issues and all(i.pass_name == "blockverify" for i in issues)


# ----------------------------------------------------------------------
# Harness integration.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["reference", "threaded", "tier1"])
def test_run_suite_verify_ir_smoke(engine):
    from repro.faults.resilience import run_suite

    suite = run_suite([GUARDED_BENCHMARK], verify_ir=True, engine=engine,
                      warmup=0, measure=1)
    result = suite.results[0]
    assert result.iterations[-1].result == 400    # fixture contract


def test_metrics_plugin_exports_irverify_counters():
    from repro.harness.core import Runner
    from repro.metrics.profiler import IRVERIFY_METRIC_NAMES, MetricsPlugin

    plugin = MetricsPlugin()
    runner = Runner(GUARDED_BENCHMARK, jit=graal_config(compile_threshold=1),
                    verify_ir=True, plugins=[plugin])
    runner.run(warmup=0, measure=1)
    for name in IRVERIFY_METRIC_NAMES:
        assert name in plugin.raw
    assert plugin.raw["irverify_issues"] == 0


# ----------------------------------------------------------------------
# CLI: python -m repro.sanitize.
# ----------------------------------------------------------------------

def test_cli_mutations_exit_zero_and_json(capsys):
    from repro.sanitize.__main__ import main

    assert main(["--mutations", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 10
    assert all(row["detected"] and row["attributed"] for row in payload)


def test_cli_baseline_gates_on_new_issues(tmp_path, capsys):
    from repro.sanitize.__main__ import main

    empty = tmp_path / "empty.json"
    empty.write_text('{"issues": []}\n', encoding="utf-8")
    # The stdlib lockset advisories are not in the empty baseline: the
    # sweep must fail, and name them as NEW.
    code = main(["--bench", "philosophers", "--no-dynamic",
                 "--baseline", str(empty)])
    out = capsys.readouterr().out
    assert code == 1
    assert "NEW" in out
    # Accepting the current issues turns the same sweep green.
    accepted = tmp_path / "accepted.json"
    assert main(["--bench", "philosophers", "--no-dynamic",
                 "--write-baseline", str(accepted)]) == 0
    capsys.readouterr()
    assert main(["--bench", "philosophers", "--no-dynamic",
                 "--baseline", str(accepted)]) == 0


def test_cli_strict_gates_on_warnings(capsys):
    from repro.sanitize.__main__ import main

    assert main(["--bench", "philosophers", "--no-dynamic"]) == 0
    capsys.readouterr()
    assert main(["--bench", "philosophers", "--no-dynamic",
                 "--strict"]) == 1
