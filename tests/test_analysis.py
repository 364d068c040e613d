"""Tests for the analysis drivers (quick configurations)."""

import dataclasses

from repro.analysis.ck_experiment import (
    ck_table,
    loaded_class_counts,
    suite_summary,
)
from repro.analysis.code_size import code_size_table, suite_geomeans
from repro.analysis.compile_time import compile_time_shares
from repro.analysis.compiler_compare import compare, summarize as cc_summarize
from repro.analysis.guard_counts import guard_table
from repro.analysis import hot_methods as hm
from repro.analysis.hot_methods import mhs_method_table
from repro.analysis.impact import (
    format_table,
    impact_table,
    measure_impact,
    summarize,
)
from repro.suites.registry import get_benchmark


def small(name, warmup=3, measure=1):
    return dataclasses.replace(get_benchmark(name), warmup=warmup,
                               measure=measure)


def test_measure_impact_detects_gm_on_log_regression():
    bench = small("log-regression", warmup=4, measure=2)
    [cell] = measure_impact(bench, ["GM"], forks=3)
    assert cell.impact > 0.05
    assert cell.significant


def test_impact_table_and_summary_shapes():
    bench = small("streams-mnemonics", warmup=4, measure=2)
    table = impact_table([bench], ["DS", "AC"], forks=2)
    assert set(table) == {"streams-mnemonics"}
    assert len(table["streams-mnemonics"]) == 2
    text = format_table(table, ["DS", "AC"])
    assert "streams-mnemonics" in text
    summary = summarize(table)
    assert "per_opt_max" in summary


def test_compiler_compare_row():
    row = compare(small("scimark.lu.small", warmup=4, measure=2), forks=2)
    assert row.suite == "specjvm"
    assert row.speedup > 0
    assert row.verdict in ("graal", "c2", "tie")
    summary = cc_summarize([row])
    assert summary["graal_wins"] + summary["c2_wins"] + summary["ties"] == 1


def test_ck_table_and_loaded_classes():
    rows = ck_table([get_benchmark("dotty"), get_benchmark("scrabble")])
    assert all(r.metrics["classes"] > 0 for r in rows)
    summary = suite_summary(rows)
    assert summary["sum"]["WMC"]["max"] >= summary["sum"]["WMC"]["min"]
    counts = loaded_class_counts(rows)
    assert counts["sum_all"] >= counts["sum_unique"]


def test_code_size_rows_and_geomeans():
    rows = code_size_table([small("scrabble", warmup=5, measure=1)],
                           warmup=5, measure=1)
    assert rows[0].hot_methods > 0
    assert rows[0].code_bytes > 0
    means = suite_geomeans(rows)
    assert means["renaissance"]["geomean_hot_methods"] > 0


def test_compile_time_shares_ds_is_most_expensive_new_opt():
    shares = compile_time_shares([small("streams-mnemonics", warmup=5)],
                                 warmup=5)
    assert abs(sum(shares.values())) <= 1.0
    assert shares["DS"] > shares["AC"]     # Table 16's ordering


def test_guard_table_shows_speculative_shift():
    table = guard_table(small("log-regression"), warmup=4, measure=1)
    assert table["total_without"] > table["total_with"]
    assert table["reduction"] > 0.3
    # GM introduces speculative *bounds* guards; speculative type guards
    # from devirtualization exist in both configurations.
    assert "Speculative BoundsCheckException" in table["with"]
    assert "Speculative BoundsCheckException" not in table["without"]


def test_hot_method_profile_attributes_every_measured_cycle(monkeypatch):
    # Every frame must run on one of the two wrapped executors, or its
    # cycles go to no method: the attributed total equals the VM's own
    # reference-cycle count over the measured span.
    seen = {}
    reset = hm._SteadyStateReset.before_iteration

    def spy(self, vm, benchmark, index, warmup):
        reset(self, vm, benchmark, index, warmup)
        if not warmup and index == 0:
            seen["vm"], seen["start"] = vm, vm.counters.reference_cycles

    monkeypatch.setattr(hm._SteadyStateReset, "before_iteration", spy)
    rows = hm.hot_methods(small("scrabble", warmup=1), warmup=1, measure=1,
                          top=None)
    spent = seen["vm"].counters.reference_cycles - seen["start"]
    assert spent > 0
    assert sum(cycles for _, cycles in rows) == spent


def test_hot_method_table_for_scrabble():
    table = mhs_method_table(small("scrabble"), warmup=4, measure=1, top=6)
    assert table["total_with"] > 0
    assert table["total_with"] <= table["total_without"]
    assert table["methods"]
