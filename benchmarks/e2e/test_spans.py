"""Span arithmetic and the wrap-point manifest.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_spans.py -q
"""

import json
import threading

import pytest

import layers
import spans as spanlib


class Clock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_covered_merges_overlaps_and_clips():
    assert spanlib.covered(0, 10, []) == 0
    assert spanlib.covered(0, 10, [(1, 3), (5, 6)]) == 3
    assert spanlib.covered(0, 10, [(1, 5), (2, 3)]) == 4        # nested
    assert spanlib.covered(0, 10, [(1, 5), (4, 8)]) == 7        # overlap
    assert spanlib.covered(2, 6, [(0, 3), (5, 9)]) == 2         # clipped
    assert spanlib.covered(0, 10, [(4, 8), (1, 5)]) == 7        # unsorted


def test_self_time_with_nested_children():
    clock = Clock()
    rec = spanlib.Recorder(clock)
    root = rec.begin("root", unit="u")
    clock.now = 1
    child = rec.begin("child")
    clock.now = 2
    grandchild = rec.begin("grandchild")
    clock.now = 5
    rec.end(grandchild)
    clock.now = 7
    rec.end(child)
    clock.now = 10
    rec.end(root)

    assert (child.parent, grandchild.parent) == (root.id, child.id)
    assert child.unit == grandchild.unit == "u"      # inherited
    own = spanlib.self_times(rec.spans)
    assert own == {root.id: 4, child.id: 3, grandchild.id: 3}
    assert sum(own.values()) == root.duration
    totals = spanlib.totals(rec.spans)
    assert totals["child"].inclusive_s == 6 and totals["child"].calls == 1


def test_self_time_with_overlapping_children():
    """Children from two threads overlap; the parent is charged for the
    part of its interval no child covers, once."""
    S = spanlib.Span
    spans = [S(0, "job", 0, 10, None, None, 1),
             S(1, "worker", 1, 6, 0, None, 2),
             S(2, "worker", 4, 9, 0, None, 3)]
    own = spanlib.self_times(spans)
    assert own[0] == 2 and own[1] == own[2] == 5


def test_end_closes_spans_an_exception_left_open():
    clock = Clock()
    rec = spanlib.Recorder(clock)

    def boom():
        rec.begin("orphan")         # its end is skipped by the raise
        raise ValueError

    with pytest.raises(ValueError):
        rec.wrap("outer", boom)()
    assert [s.end for s in rec.spans] == [0.0, 0.0]
    after = rec.begin("after")
    assert after.parent is None     # the stack unwound fully
    with pytest.raises(RuntimeError):
        rec.end(rec.spans[0])


def test_threads_keep_their_own_stacks():
    rec = spanlib.Recorder()
    main = rec.begin("main")
    seen = []
    worker = threading.Thread(
        target=lambda: seen.append(rec.wrap("other", lambda: None)()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    rec.end(main)
    other = next(s for s in rec.spans if s.name == "other")
    assert other.parent is None and other.tid != main.tid


def test_chrome_trace_round_trip(tmp_path):
    clock = Clock()
    rec = spanlib.Recorder(clock)
    span = rec.begin("lang.parse", unit="scrabble")
    clock.now = 0.25
    rec.end(span)
    path = tmp_path / "trace.json"
    spanlib.write_chrome_trace(rec.spans, str(path))
    event, = json.loads(path.read_text())["traceEvents"]
    assert (event["ph"], event["cat"], event["dur"]) == ("X", "lang", 250000)
    assert event["args"] == {"id": 0, "parent": None, "unit": "scrabble"}


def test_manifest_entry_that_does_not_resolve_fails(monkeypatch):
    monkeypatch.setattr(layers, "WRAP_POINTS", (
        ("lang.parse", "repro.lang.codegen", "parse_renamed", None),))
    with pytest.raises(RuntimeError, match="does not resolve"):
        layers.install(spanlib.Recorder(), patch=monkeypatch.setattr)


def test_traced_mini_sweep_is_accounted_for(monkeypatch):
    """Two cheap units through run_suite with every wrap point live:
    the named layers cover >= 95 % of the sweep, and the guard holds
    (front end recorded, host emitters silent on the default engine)."""
    from repro.faults.resilience import run_suite
    from repro.harness.core import clear_compile_cache
    from repro.suites.registry import get_benchmark

    rec = spanlib.Recorder()
    layers.install(rec, patch=monkeypatch.setattr)
    clear_compile_cache()
    benches = [get_benchmark(n) for n in ("finagle-chirper", "reactors")]
    root = rec.begin("bench.sweep")
    suite = run_suite(benches, plugins=(layers.IterationSpans(rec),))
    rec.end(root)
    assert suite.ok

    own = spanlib.self_times(rec.spans)
    assert sum(own.values()) == pytest.approx(root.duration)
    assert 1.0 - own[root.id] / root.duration >= 0.95
    totals = spanlib.totals(rec.spans)
    layers.check_calls("cold-sweep", totals)
    with pytest.raises(RuntimeError, match="no span recorded"):
        layers.check_calls("ladder-sweep", totals)
    units = {s.unit for s in rec.spans if s.name.startswith("jvm.iteration")}
    assert units == {"finagle-chirper", "reactors"}
    iterations = sum(b.warmup + b.measure for b in benches)
    assert sum(totals[f"jvm.iteration.{k}"].calls
               for k in ("first", "warmup", "steady")) == iterations
