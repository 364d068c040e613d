"""Durable sweeps: journal, store, crash/resume, supervision.

The contract under test: a durable sweep — serial or ``jobs=N``,
interrupted by anything up to ``kill -9`` of the whole process group —
resumes from its journal+store and produces a merged SuiteResult
(results, counters, metrics histories, trace recordings, failures,
quarantine skips) **byte-identical** to an uninterrupted run, with
already-completed units served from the content-addressed store.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ReproError, SweepInterrupted
from repro.faults.resilience import Quarantine, run_suite
from repro.harness.core import GuestBenchmark
from repro.harness.durable import DurablePolicy
from repro.harness.journal import Journal
from repro.harness.plugins import MergeablePlugin
from repro.harness.store import ResultStore
from repro.metrics.profiler import MetricsPlugin
from repro.suites.registry import get_benchmark
from repro.trace import TracePlugin

SLICE = ("scrabble", "philosophers")
WIDE_SLICE = ("scrabble", "philosophers", "fj-kmeans", "streams-mnemonics")

FAILING_BENCHMARK = GuestBenchmark(
    name="fixture-fails",
    suite="fixtures",
    source="""
class Bench {
    static def run() { return 1; }
}
""",
    entry="Bench.run",
    expected=2,          # always wrong -> ValidationError every round
    warmup=0,
    measure=1,
)

TINY_BENCHMARK = GuestBenchmark(
    name="fixture-tiny",
    suite="fixtures",
    source="""
class Bench {
    static def run() { return 41 + 1; }
}
""",
    entry="Bench.run",
    expected=42,
    warmup=0,
    measure=1,
)


def workload(names=SLICE):
    return [get_benchmark(n) for n in names]


def fingerprints(suite):
    return [r.fingerprint() for r in suite.results]


def suite_key(suite):
    return {
        "results": fingerprints(suite),
        "failures": [(f.benchmark, f.error_type, f.message, f.phase)
                     for f in suite.failures],
        "skipped": list(suite.skipped),
        "config": suite.config,
    }


# ----------------------------------------------------------------------
# Journal.
# ----------------------------------------------------------------------
def test_journal_roundtrip(tmp_path):
    path = tmp_path / "journal.wal"
    with Journal(path) as journal:
        journal.append("sweep-begin", suite="s", fingerprint={"a": 1})
        journal.append("unit-done", digest="d1", outcome="result")
    replay = Journal(path).replay()
    assert [r["kind"] for r in replay.records] == ["sweep-begin",
                                                   "unit-done"]
    assert [r["seq"] for r in replay.records] == [0, 1]
    assert replay.corrupt == []
    # Appending after reopen continues the sequence.
    with Journal(path) as journal:
        journal.append("sweep-end")
    assert Journal(path).replay().records[-1]["seq"] == 2


def test_journal_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "journal.wal"
    with Journal(path) as journal:
        journal.append("a")
        journal.append("b")
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])       # kill -9 mid-append
    replay = Journal(path).replay()
    assert [r["kind"] for r in replay.records] == ["a"]
    assert len(replay.corrupt) == 1
    assert replay.corrupt[0][1] == "truncated tail"


def test_journal_skips_bitflipped_entry(tmp_path):
    path = tmp_path / "journal.wal"
    with Journal(path) as journal:
        for kind in ("a", "b", "c"):
            journal.append(kind)
    lines = path.read_text().splitlines(keepends=True)
    corrupted = lines[1].replace('"kind":"b"', '"kind":"X"')
    path.write_text(lines[0] + corrupted + lines[2])
    replay = Journal(path).replay()
    # The flipped entry fails its CRC and is skipped; its neighbors
    # (including the record *after* it) survive.
    assert [r["kind"] for r in replay.records] == ["a", "c"]
    assert [lineno for lineno, _ in replay.corrupt] == [2]
    assert replay.next_seq == 3


# ----------------------------------------------------------------------
# Store.
# ----------------------------------------------------------------------
def test_store_roundtrip_and_corruption(tmp_path):
    store = ResultStore(tmp_path)
    digest = "ab" + "0" * 62
    store.put(digest, b"payload-bytes")
    assert store.get(digest) == b"payload-bytes"
    assert digest in store
    assert len(store) == 1
    # Flip one payload byte: the checksum catches it, the object is
    # treated as absent (and removed) so the unit simply re-runs.
    path = store._path(digest)
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    assert store.get(digest) is None
    assert store.corrupt == [(digest, "payload checksum mismatch")]
    assert not os.path.exists(path)
    assert store.get("cd" + "0" * 62) is None      # plain miss


# ----------------------------------------------------------------------
# Serial durable sweeps.
# ----------------------------------------------------------------------
def test_serial_durable_matches_plain_and_resumes(tmp_path):
    benches = workload()
    plain = run_suite(benches, warmup=0, measure=1)
    durable = run_suite(
        benches, durable_dir=tmp_path / "sweep", warmup=0, measure=1)
    assert suite_key(plain) == suite_key(durable)
    assert durable.durable["executed"] == len(benches)
    assert durable.durable["served_from_store"] == 0
    # Second run over the same directory: everything is cached.
    resumed = run_suite(
        benches, durable_dir=tmp_path / "sweep", resume=True, warmup=0,
        measure=1)
    assert suite_key(plain) == suite_key(resumed)
    assert resumed.durable["executed"] == 0
    assert resumed.durable["served_from_store"] == len(benches)


def test_durable_sweep_runs_inside_an_event_loop(tmp_path):
    # The pool's event loop runs on a helper thread, so a sweep started
    # from a coroutine does not nest asyncio.run.
    import asyncio

    benches = [get_benchmark("philosophers")]
    plain = run_suite(benches, jit=None, warmup=0, measure=1)

    async def main():
        return run_suite(benches, jit=None, warmup=0, measure=1,
                         durable_dir=tmp_path / "sweep")

    durable = asyncio.run(main())
    assert suite_key(durable) == suite_key(plain)
    assert durable.durable["executed"] == 1


def test_durable_dir_requires_resume_flag(tmp_path):
    from repro.errors import DurableSweepError

    run_suite([TINY_BENCHMARK], durable_dir=tmp_path / "sweep")
    with pytest.raises(DurableSweepError, match="resume"):
        run_suite([TINY_BENCHMARK], durable_dir=tmp_path / "sweep")


def test_resume_rejects_mismatched_spec(tmp_path):
    from repro.errors import DurableSweepError

    run_suite([TINY_BENCHMARK], durable_dir=tmp_path / "sweep")
    with pytest.raises(DurableSweepError, match="mismatch"):
        run_suite([TINY_BENCHMARK], durable_dir=tmp_path / "sweep",
                  resume=True, schedule_seed=7)


def test_store_key_covers_compiler_config_contents(tmp_path):
    # An ablated JitConfig still calls itself "graal"; what it computed
    # must never be served to a plain jit="graal" sweep.
    from repro.errors import DurableSweepError
    from repro.jit.pipeline import graal_config

    benches = workload(("philosophers",))
    sweep_dir = tmp_path / "sweep"
    ablated = graal_config(inline_depth=0, unroll_factor=1,
                           flags={"EAWA": False, "LLC": False})
    truth = run_suite(benches, jit="graal", warmup=2, measure=1)
    first = run_suite(benches, durable_dir=sweep_dir, jit=ablated,
                      warmup=2, measure=1)
    assert first.config == truth.config == "graal"
    assert fingerprints(first) != fingerprints(truth)
    with pytest.raises(DurableSweepError, match="mismatch"):
        run_suite(benches, durable_dir=sweep_dir, resume=True,
                  jit="graal", warmup=2, measure=1)
    # Without the journal's own check (a store shared between sweeps,
    # as the service keeps one) the unit digests still differ.
    os.remove(sweep_dir / "journal.wal")
    second = run_suite(benches, durable_dir=sweep_dir, resume=True,
                       jit="graal", warmup=2, measure=1)
    assert second.durable["served_from_store"] == 0
    assert fingerprints(second) == fingerprints(truth)


def test_interrupted_serial_sweep_resumes_byte_identical(tmp_path):
    benches = workload()
    plain = run_suite(benches, warmup=0, measure=1)
    with pytest.raises(SweepInterrupted):
        run_suite(
            benches, durable_dir=tmp_path / "sweep", warmup=0, measure=1,
            durable_policy=DurablePolicy(abort_after_units=1))
    replay = Journal(tmp_path / "sweep" / "journal.wal").replay()
    kinds = [r["kind"] for r in replay.records]
    assert "drain-begin" in kinds and "sweep-interrupt" in kinds
    resumed = run_suite(
        benches, durable_dir=tmp_path / "sweep", resume=True, warmup=0,
        measure=1)
    assert suite_key(plain) == suite_key(resumed)
    assert resumed.durable["served_from_store"] == 1
    assert resumed.durable["executed"] == len(benches) - 1


def test_corrupt_store_entry_reruns_unit(tmp_path):
    benches = workload()
    plain = run_suite(benches, warmup=0, measure=1)
    run_suite(benches, durable_dir=tmp_path / "sweep", warmup=0, measure=1)
    store = ResultStore(tmp_path / "sweep")
    objects = []
    for fan in os.listdir(store.objects):
        for name in os.listdir(os.path.join(store.objects, fan)):
            objects.append(os.path.join(store.objects, fan, name))
    blob = bytearray(open(objects[0], "rb").read())
    blob[-3] ^= 0x40                 # bit rot inside the payload
    open(objects[0], "wb").write(bytes(blob))
    resumed = run_suite(
        benches, durable_dir=tmp_path / "sweep", resume=True, warmup=0,
        measure=1)
    assert suite_key(plain) == suite_key(resumed)
    assert resumed.durable["executed"] == 1        # the corrupt one re-ran
    assert resumed.durable["served_from_store"] == len(benches) - 1
    assert resumed.durable["corrupt_store_entries"] == 1


def test_corrupt_journal_is_not_fatal_on_resume(tmp_path):
    benches = workload()
    plain = run_suite(benches, warmup=0, measure=1)
    run_suite(benches, durable_dir=tmp_path / "sweep", warmup=0, measure=1)
    journal_path = tmp_path / "sweep" / "journal.wal"
    raw = journal_path.read_bytes()
    journal_path.write_bytes(raw[: len(raw) // 2])   # torn mid-file
    resumed = run_suite(
        benches, durable_dir=tmp_path / "sweep", resume=True, warmup=0,
        measure=1)
    assert suite_key(plain) == suite_key(resumed)
    # Completeness comes from the store, not the (damaged) journal.
    assert resumed.durable["served_from_store"] == len(benches)


def test_failed_unit_is_recorded_quarantined_never_fatal(tmp_path):
    benches = [TINY_BENCHMARK, FAILING_BENCHMARK]
    plain = run_suite(benches, warmup=0, measure=1, repeat=2)
    durable = run_suite(
        benches, durable_dir=tmp_path / "sweep", warmup=0, measure=1, repeat=2)
    assert suite_key(plain) == suite_key(durable)
    assert [f.benchmark for f in durable.failures] == ["fixture-fails"]
    assert durable.skipped == ["fixture-fails"]
    assert "fixture-fails" in durable.quarantine
    # Resume serves the failure from the store too — it never re-runs.
    resumed = run_suite(
        benches, durable_dir=tmp_path / "sweep", resume=True, warmup=0,
        measure=1, repeat=2)
    assert suite_key(plain) == suite_key(resumed)
    assert resumed.durable["executed"] == 0


def test_prepopulated_quarantine_skips_without_dispatch(tmp_path):
    quarantine = Quarantine()
    first = run_suite(
        [TINY_BENCHMARK, FAILING_BENCHMARK], durable_dir=tmp_path / "a",
        warmup=0, measure=1, quarantine=quarantine)
    assert len(first.failures) == 1
    second = run_suite(
        [TINY_BENCHMARK, FAILING_BENCHMARK], durable_dir=tmp_path / "b",
        warmup=0, measure=1, quarantine=quarantine)
    assert second.failures == []
    assert second.skipped == ["fixture-fails"]
    assert second.durable["units"] == 2
    assert second.durable["executed"] == 1         # only the healthy one


class BoomPlugin(MergeablePlugin):
    """Raises a host (non-ReproError) exception inside the run stage."""

    def after_run(self, vm, benchmark, result) -> None:
        raise RuntimeError("boom-worker")


def test_stage_infra_failure_becomes_failure_report(tmp_path):
    policy = DurablePolicy(max_stage_retries=1, backoff_base=0.001)
    suite = run_suite(
        [TINY_BENCHMARK], durable_dir=tmp_path / "sweep", warmup=0, measure=1,
        plugins=(BoomPlugin(),), durable_policy=policy)
    assert [f.error_type for f in suite.failures] == ["RuntimeError"]
    report = suite.failures[0]
    assert report.phase == "stage:run"
    assert "boom-worker" in report.extra["traceback"]
    assert suite.durable["stage_retries"] >= 1


def test_serial_stage_deadline_times_out(tmp_path):
    policy = DurablePolicy(stage_deadlines={"run": 0.0},
                           max_stage_retries=0)
    suite = run_suite(
        [TINY_BENCHMARK], durable_dir=tmp_path / "sweep", warmup=0, measure=1,
        durable_policy=policy)
    assert [f.error_type for f in suite.failures] == ["StageTimeout"]
    assert suite.failures[0].phase == "stage:run"


class PidPlugin(MergeablePlugin):
    """Records the pid of the process each unit ran in."""

    def __init__(self) -> None:
        self.pids: list[int] = []

    def snapshot_run(self):
        return os.getpid()

    def absorb_run(self, payload) -> None:
        self.pids.append(payload)


@pytest.fixture
def appended(monkeypatch):
    """Every journal record appended, compacted away later or not."""
    records = []
    append = Journal.append

    def recording(self, kind, **fields):
        records.append(kind)
        return append(self, kind, **fields)

    monkeypatch.setattr(Journal, "append", recording)
    return records


def test_default_jobs_durable_sweep_runs_units_in_a_worker(tmp_path,
                                                           appended):
    plugin = PidPlugin()
    suite = run_suite([TINY_BENCHMARK, FAILING_BENCHMARK],
                      durable_dir=tmp_path / "sweep", warmup=0, measure=1,
                      plugins=(plugin,))
    assert len(plugin.pids) == 2 and os.getpid() not in plugin.pids
    assert appended.count("shard-spawn") == 1
    assert suite.durable["executed"] == 2


def test_resuming_stored_sweep_spawns_no_worker(tmp_path, appended):
    benches = [TINY_BENCHMARK, FAILING_BENCHMARK]
    run_suite(benches, durable_dir=tmp_path / "sweep", jobs=2, warmup=0,
              measure=1)
    assert "shard-spawn" in appended
    appended.clear()
    resumed = run_suite(benches, durable_dir=tmp_path / "sweep",
                        resume=True, jobs=2, warmup=0, measure=1)
    assert resumed.durable["served_from_store"] == 2
    assert "shard-spawn" not in appended
    assert "unit-begin" not in appended


def test_store_error_is_raised_and_sweep_stays_resumable(tmp_path,
                                                         monkeypatch):
    import errno

    put = ResultStore.put
    calls = []

    def full_once(self, digest, payload):
        calls.append(digest)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return put(self, digest, payload)

    benches = [TINY_BENCHMARK, FAILING_BENCHMARK]
    plain = run_suite(benches, warmup=0, measure=1)
    monkeypatch.setattr(ResultStore, "put", full_once)
    with pytest.raises(OSError, match="No space left"):
        run_suite(benches, durable_dir=tmp_path / "sweep", warmup=0,
                  measure=1)
    resumed = run_suite(benches, durable_dir=tmp_path / "sweep",
                        resume=True, warmup=0, measure=1)
    assert suite_key(plain) == suite_key(resumed)
    assert resumed.durable["executed"] >= 1


def test_plain_plugin_rejected(tmp_path):
    from repro.errors import DurableSweepError
    from repro.harness.plugins import IterationLogPlugin

    with pytest.raises(DurableSweepError, match="MergeablePlugin"):
        run_suite([TINY_BENCHMARK], durable_dir=tmp_path / "sweep",
                  plugins=(IterationLogPlugin(),))


# ----------------------------------------------------------------------
# Parallel (jobs=N) durable sweeps and supervision.
# ----------------------------------------------------------------------
def test_parallel_durable_matches_serial_with_plugins(tmp_path):
    benches = workload(WIDE_SLICE) + [FAILING_BENCHMARK]
    mp_serial, tp_serial = MetricsPlugin(), TracePlugin()
    plain = run_suite(benches, warmup=0, measure=1,
                      plugins=(mp_serial, tp_serial))
    mp_durable, tp_durable = MetricsPlugin(), TracePlugin()
    durable = run_suite(
        benches, durable_dir=tmp_path / "sweep", jobs=3, warmup=0, measure=1,
        plugins=(mp_durable, tp_durable))
    assert suite_key(plain) == suite_key(durable)
    assert mp_serial.per_run == mp_durable.per_run
    assert tp_serial.recordings == tp_durable.recordings


def test_worker_sigkill_respawns_and_result_is_identical(tmp_path):
    benches = workload(WIDE_SLICE)
    plain = run_suite(benches, warmup=0, measure=1, repeat=2)
    sweep_dir = tmp_path / "sweep"
    outcome = {}

    def controller():
        outcome["suite"] = run_suite(
            benches, durable_dir=sweep_dir, jobs=2, warmup=0, measure=1,
            repeat=2,
            durable_policy=DurablePolicy(max_unit_attempts=4))

    thread = threading.Thread(target=controller)
    thread.start()
    pid = None
    deadline = time.time() + 30
    journal_path = sweep_dir / "journal.wal"
    while pid is None and time.time() < deadline:
        if journal_path.exists():
            for record in Journal(journal_path).replay().records:
                if record["kind"] == "shard-spawn":
                    pid = record["pid"]
                    break
        time.sleep(0.02)
    assert pid is not None, "no shard-spawn journaled within 30s"
    os.kill(pid, signal.SIGKILL)
    thread.join(timeout=180)
    assert not thread.is_alive()
    suite = outcome["suite"]
    assert suite_key(plain) == suite_key(suite)
    assert suite.durable["respawns"] >= 1
    assert suite.respawns >= 1
    kinds = [r["kind"] for r in Journal(journal_path).replay().records]
    assert "shard-exit" in kinds and "shard-respawn" in kinds


def test_worker_traceback_surfaces_in_parallel_run():
    # The uniform contract of every supervised path: a host exception
    # inside a unit is a quarantining FailureReport carrying the
    # child's traceback, never a dead sweep.
    suite = run_suite([TINY_BENCHMARK, FAILING_BENCHMARK], jobs=2,
                      warmup=0, measure=1, plugins=(BoomPlugin(),),
                      durable_policy=DurablePolicy(backoff_base=0.001))
    assert suite.durable is None         # throwaway directory
    boom = {f.benchmark: f for f in suite.failures}["fixture-tiny"]
    assert boom.error_type == "RuntimeError"
    assert boom.phase == "stage:run"
    assert "boom-worker" in boom.extra["traceback"]
    assert "after_run" in boom.extra["traceback"]   # the child's frame
    assert "fixture-tiny" in suite.quarantine
    # continue_on_error=False raises only after the merge.
    with pytest.raises(ReproError, match="aborted on fixture-tiny"):
        run_suite([TINY_BENCHMARK], jobs=2, warmup=0, measure=1,
                  plugins=(BoomPlugin(),), continue_on_error=False,
                  durable_policy=DurablePolicy(backoff_base=0.001))


def test_jobs_sweep_survives_worker_sigkill():
    # run_suite(jobs=N) without a durable_dir runs on the same
    # supervised workers: kill one mid-sweep and the result still
    # equals the serial sweep's.
    import multiprocessing

    benches = workload(WIDE_SLICE)
    plain = run_suite(benches, warmup=0, measure=1, repeat=2)
    before = set(multiprocessing.active_children())
    outcome = {}

    def controller():
        outcome["suite"] = run_suite(
            benches, jobs=2, warmup=0, measure=1, repeat=2,
            durable_policy=DurablePolicy(max_unit_attempts=4))

    thread = threading.Thread(target=controller)
    thread.start()
    victim = None
    deadline = time.time() + 30
    while victim is None and time.time() < deadline:
        spawned = set(multiprocessing.active_children()) - before
        victim = next(iter(spawned), None)
        time.sleep(0.02)
    assert victim is not None, "no worker spawned within 30s"
    os.kill(victim.pid, signal.SIGKILL)
    thread.join(timeout=180)
    assert not thread.is_alive()
    assert suite_key(plain) == suite_key(outcome["suite"])


def test_interrupted_throwaway_sweep_offers_no_resume(tmp_path,
                                                      monkeypatch):
    # A jobs=N sweep without durable_dir journals into a temporary
    # directory that is deleted on the way out: its interruption must
    # not point at it.
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(SweepInterrupted) as caught:
        run_suite([TINY_BENCHMARK, FAILING_BENCHMARK], jobs=2, warmup=0,
                  measure=1, durable_policy=DurablePolicy(
                      abort_after_units=1))
    assert "--resume" not in str(caught.value)
    assert "nothing to resume" in str(caught.value)
    assert caught.value.stats["interrupted"] is True
    assert caught.value.stats["executed"] >= 1
    assert not list(tmp_path.glob("repro-sweep-*"))


# ----------------------------------------------------------------------
# The acceptance scenario: kill -9 a jobs=4 sweep, --resume, compare.
# ----------------------------------------------------------------------
def _store_object_count(sweep_dir) -> int:
    objects = os.path.join(sweep_dir, "objects")
    if not os.path.isdir(objects):
        return 0
    return sum(
        1 for fan in os.listdir(objects)
        for name in os.listdir(os.path.join(objects, fan))
        if not name.endswith(".tmp"))


def test_kill9_jobs4_sweep_resumes_byte_identical(tmp_path):
    sweep_dir = str(tmp_path / "sweep")
    spec = "renaissance:" + ",".join(WIDE_SLICE)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep + env.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-m", "repro.harness", spec,
           "--jobs", "4", "--warmup", "0", "--measure", "1",
           "--repeat", "2", "--metrics", "--trace",
           "--durable", sweep_dir]
    # New session so SIGKILLing the group takes controller AND workers
    # down at once — the real crash scenario.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.time() + 120
    while _store_object_count(sweep_dir) < 2 and time.time() < deadline:
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:       # sweep finished before the kill
        pass
    proc.wait()
    completed_before_resume = _store_object_count(sweep_dir)
    assert completed_before_resume >= 2

    benches = workload(WIDE_SLICE)
    mp_plain, tp_plain = MetricsPlugin(), TracePlugin()
    plain = run_suite(benches, warmup=0, measure=1, repeat=2,
                      plugins=(mp_plain, tp_plain))
    mp_res, tp_res = MetricsPlugin(), TracePlugin()
    resumed = run_suite(
        benches, durable_dir=sweep_dir, resume=True, jobs=4, warmup=0,
        measure=1, repeat=2, plugins=(mp_res, tp_res))

    # Byte-identical merged RunResults, metrics, and trace digests.
    assert suite_key(plain) == suite_key(resumed)
    assert mp_plain.per_run == mp_res.per_run
    assert tp_plain.recordings == tp_res.recordings
    assert [r.trace for r in plain.results] == \
        [r.trace for r in resumed.results]
    # Completed units were served from the store, not re-run.
    assert resumed.durable["served_from_store"] >= 2
    assert (resumed.durable["served_from_store"]
            + resumed.durable["executed"]) == resumed.durable["units"]


# ----------------------------------------------------------------------
# CLI exit codes and --report.
# ----------------------------------------------------------------------
def test_exit_code_ladder():
    from repro.faults.report import FailureReport
    from repro.faults.resilience import SuiteResult
    from repro.harness.__main__ import (
        EXIT_FAILURES,
        EXIT_OK,
        EXIT_QUARANTINED,
        EXIT_RESPAWNED,
        exit_code,
    )

    clean = SuiteResult("s", "graal")
    assert exit_code(clean) == EXIT_OK
    respawned = SuiteResult("s", "graal", durable={"respawns": 2})
    assert exit_code(respawned) == EXIT_RESPAWNED
    quarantined = SuiteResult("s", "graal", skipped=["b"],
                              durable={"respawns": 2})
    assert exit_code(quarantined) == EXIT_QUARANTINED
    report = FailureReport(benchmark="b", config="graal",
                           error_type="ValidationError", message="nope")
    failed = SuiteResult("s", "graal", failures=[report], skipped=["b"])
    assert exit_code(failed) == EXIT_FAILURES
    assert "nope" in failed.summary_line()
    # FailureReport.to_json is canonical and stable.
    assert report.to_json() == FailureReport.from_json(
        report.to_json()).to_json()


def test_cli_durable_run_report_and_resume(tmp_path, capsys):
    from repro.harness.__main__ import EXIT_OK, main

    sweep_dir = str(tmp_path / "sweep")
    report_path = str(tmp_path / "report.json")
    argv = ["renaissance:philosophers", "--warmup", "0", "--measure", "1",
            "--durable", sweep_dir, "--report", report_path]
    assert main(argv) == EXIT_OK
    doc = json.loads(open(report_path).read())
    assert doc["schema"] == "harness-report/1"
    assert doc["completed"] == 1
    assert doc["exit_code"] == EXIT_OK
    assert doc["durable"]["executed"] == 1
    # --resume on the same directory serves the unit from the store.
    argv = ["renaissance:philosophers", "--warmup", "0", "--measure", "1",
            "--resume", sweep_dir, "--report", report_path]
    assert main(argv) == EXIT_OK
    doc = json.loads(open(report_path).read())
    assert doc["durable"]["served_from_store"] == 1
    assert doc["durable"]["executed"] == 0
    out = capsys.readouterr().out
    assert "served from store" in out


def test_cli_failure_exit_code_and_summary(tmp_path, capsys):
    # A spec subset that cannot fail doesn't exercise the ladder, so
    # drive main() against a quarantined store-backed rerun instead:
    # the failing fixture is not registry-addressable, so use the API
    # for the sweep and the CLI report writer for the artifacts.
    from repro.harness.__main__ import EXIT_FAILURES, exit_code, write_report

    suite = run_suite([TINY_BENCHMARK, FAILING_BENCHMARK],
                      warmup=0, measure=1)
    code = exit_code(suite)
    assert code == EXIT_FAILURES
    report_path = str(tmp_path / "report.json")
    write_report(suite, report_path, code)
    doc = json.loads(open(report_path).read())
    assert doc["exit_code"] == EXIT_FAILURES
    assert doc["failures"][0]["benchmark"] == "fixture-fails"
    assert doc["failures"][0]["error_type"] == "ValidationError"


# ----------------------------------------------------------------------
# Tier-2 (make durable): heavier supervision scenarios.
# ----------------------------------------------------------------------
class HangPlugin(MergeablePlugin):
    """Deterministically hangs the run stage of one benchmark."""

    def __init__(self, victim: str, seconds: float = 30.0) -> None:
        self.victim = victim
        self.seconds = seconds

    def before_run(self, vm, benchmark) -> None:
        if benchmark.name == self.victim:
            time.sleep(self.seconds)


@pytest.mark.durable
def test_hung_worker_killed_and_unit_failed(tmp_path):
    benches = [TINY_BENCHMARK, get_benchmark("philosophers")]
    policy = DurablePolicy(
        stage_deadlines={"run": 1.0}, max_unit_attempts=1,
        heartbeat_interval=0.1)
    suite = run_suite(
        benches, durable_dir=tmp_path / "sweep", jobs=2, warmup=0, measure=1,
        plugins=(HangPlugin("fixture-tiny"),), durable_policy=policy)
    assert [f.benchmark for f in suite.failures] == ["fixture-tiny"]
    assert suite.failures[0].error_type == "StageTimeout"
    assert suite.durable["respawns"] >= 1
    # The healthy benchmark still completed.
    assert [r.benchmark for r in suite.results] == ["philosophers"]


@pytest.mark.durable
def test_sigterm_drains_and_exits_resumable(tmp_path):
    sweep_dir = str(tmp_path / "sweep")
    spec = "renaissance:" + ",".join(WIDE_SLICE)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep + env.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-m", "repro.harness", spec,
           "--jobs", "2", "--warmup", "0", "--measure", "1",
           "--repeat", "2", "--durable", sweep_dir]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.time() + 120
    while _store_object_count(sweep_dir) < 1 and time.time() < deadline:
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=120)
    if code == 4:                    # EXIT_INTERRUPTED: drained mid-sweep
        replay = Journal(os.path.join(sweep_dir, "journal.wal")).replay()
        kinds = [r["kind"] for r in replay.records]
        assert "drain-begin" in kinds and "sweep-interrupt" in kinds
    else:                            # sweep won the race and finished
        assert code == 0
    plain = run_suite(workload(WIDE_SLICE), warmup=0, measure=1, repeat=2)
    resumed = run_suite(
        workload(WIDE_SLICE), durable_dir=sweep_dir, resume=True, jobs=2,
        warmup=0, measure=1, repeat=2)
    assert suite_key(plain) == suite_key(resumed)

# ----------------------------------------------------------------------
# Journal compaction (clean completion) and store maintenance.
# ----------------------------------------------------------------------
def test_journal_compacts_after_clean_completion(tmp_path):
    sweep_dir = str(tmp_path / "sweep")
    benches = [TINY_BENCHMARK, get_benchmark("philosophers")]
    clean = run_suite(benches, warmup=0, measure=1, repeat=2,
                      durable_dir=sweep_dir)
    replay = Journal(os.path.join(sweep_dir, "journal.wal")).replay()
    kinds = [r["kind"] for r in replay.records]
    # Stage and unit-begin chatter is compacted away; what remains is
    # the minimal replayable summary plus the compaction marker.
    assert "stage" not in kinds and "unit-begin" not in kinds
    assert kinds[0] == "sweep-begin"
    assert kinds[-2:] == ["sweep-end", "journal-compact"]
    assert kinds.count("unit-done") == 4
    assert [r["seq"] for r in replay.records] == list(range(len(kinds)))
    # The compacted journal still resumes byte-identically, all units
    # served from the store.
    resumed = run_suite(benches, warmup=0, measure=1, repeat=2,
                        durable_dir=sweep_dir, resume=True)
    assert suite_key(clean) == suite_key(resumed)
    assert resumed.durable["executed"] == 0
    assert resumed.durable["served_from_store"] == 4


def test_journal_compaction_skipped_on_interrupt(tmp_path):
    sweep_dir = str(tmp_path / "sweep")
    policy = DurablePolicy(abort_after_units=1)
    with pytest.raises(SweepInterrupted):
        run_suite([TINY_BENCHMARK, FAILING_BENCHMARK],
                  durable_dir=sweep_dir, warmup=0, measure=1,
                  durable_policy=policy)
    kinds = [r["kind"] for r in
             Journal(os.path.join(sweep_dir, "journal.wal")).replay()
             .records]
    # Interrupted sweeps keep their full journal (no sweep-end yet).
    assert "journal-compact" not in kinds
    assert "sweep-interrupt" in kinds


def test_store_lock_excludes_second_writer(tmp_path):
    from repro.errors import StoreLockedError
    from repro.harness.store import StoreLock

    held = StoreLock(tmp_path).acquire(owner="first writer")
    try:
        with pytest.raises(StoreLockedError, match="first writer"):
            StoreLock(tmp_path).acquire(owner="second writer")
        # A durable sweep on the locked directory fails fast too.
        with pytest.raises(StoreLockedError):
            run_suite([TINY_BENCHMARK], warmup=0, measure=1,
                      durable_dir=str(tmp_path))
    finally:
        held.release()
    # Released (or dead-process) locks are re-acquirable.
    StoreLock(tmp_path).acquire(owner="third writer").release()


def test_store_ls_and_gc_cli(tmp_path, capsys):
    from repro.harness.__main__ import EXIT_FAILURES, EXIT_OK, main

    sweep_dir = str(tmp_path / "sweep")
    run_suite(workload(("philosophers",)), warmup=0, measure=1,
              durable_dir=sweep_dir)
    store = ResultStore(sweep_dir)
    good = _store_object_count(sweep_dir)
    # Plant a corrupt object, an unreferenced object, and an orphan tmp.
    corrupt_digest = "ab" * 32
    store.put(corrupt_digest, b"payload")
    path = os.path.join(sweep_dir, "objects", "ab", corrupt_digest)
    with open(path, "r+b") as fh:
        fh.write(b"XX")
    unref_digest = "cd" * 32
    store.put(unref_digest, b"payload")
    orphan = os.path.join(sweep_dir, "objects", "ef", "deadbeef.tmp")
    os.makedirs(os.path.dirname(orphan), exist_ok=True)
    open(orphan, "wb").write(b"partial")

    assert main(["--store-ls", sweep_dir]) == EXIT_FAILURES
    out = capsys.readouterr().out
    assert "BAD" in out and "unreferenced" in out

    assert main(["--store-gc", sweep_dir]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pruned 1 corrupt + 1 unreferenced + 1 temp" in out
    assert _store_object_count(sweep_dir) == good
    # The journal-referenced unit survived and still serves a resume.
    resumed = run_suite(workload(("philosophers",)), warmup=0,
                        measure=1, durable_dir=sweep_dir, resume=True)
    assert resumed.durable["served_from_store"] == 1
    assert main(["--store-ls", sweep_dir]) == EXIT_OK
