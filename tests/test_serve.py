"""Benchmark-as-a-service: scheduler, HTTP API, cache identity.

The contract under test: the service's unit digests and RunResult
fingerprints are **byte-identical** to a serial
``run_suite(durable_dir=...)`` with the same parameters, so the
content-addressed store is shared between the CLI and the service —
resubmitting a spec (or overlapping one) never re-executes a unit, and
a SIGTERM'd service resumes its unfinished jobs from the journal.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.errors import ServeError
from repro.faults.resilience import run_suite
from repro.harness.config import SweepConfig
from repro.harness.durable import DurableSweep
from repro.harness.journal import Journal
from repro.serve.client import ServeClient
from repro.serve.spec import SweepSpec
from repro.serve.testing import ServiceThread
from repro.suites.registry import get_benchmark

SLICE = ("scrabble", "philosophers")

SPEC = {"benchmarks": list(SLICE), "jit": "none",
        "warmup": 1, "measure": 1}

#: Every NDJSON event must carry these fields.
EVENT_REQUIRED = ("schema", "job", "seq", "t", "kind")

EVENT_KINDS = {
    "job-queued", "job-recovered", "unit-cached", "unit-deduped",
    "unit-begin", "stage", "unit-done", "unit-failed", "unit-skipped",
    "job-done", "job-cancelled",
}


def workload(names=SLICE):
    return [get_benchmark(n) for n in names]


# ----------------------------------------------------------------------
# Spec expansion: the digest identity everything else rests on.
# ----------------------------------------------------------------------
def test_spec_expands_to_durable_sweep_digests(tmp_path):
    spec = SweepSpec(benchmarks=SLICE, jit=None, warmup=1, measure=1,
                     repeat=2)
    sweep = DurableSweep(workload(),
                         SweepConfig(jit=None, warmup=1, measure=1),
                         dir=str(tmp_path), repeat=2)
    assert spec.fingerprint() == sweep.fingerprint
    assert sorted(u.digest for u in spec.expand()) == \
        sorted(u.digest for u in sweep.units.values())
    # Scheduling knobs are not part of the unit identity.
    reprioritized = SweepSpec(benchmarks=SLICE, jit=None, warmup=1,
                              measure=1, repeat=2, priority=-5,
                              max_concurrency=1)
    assert [u.digest for u in reprioritized.expand()] == \
        [u.digest for u in spec.expand()]
    # Stores written before SweepConfig existed keep hitting: this
    # digest was computed by the kwargs-forwarding code it replaced.
    pinned = SweepSpec(benchmarks=("scrabble",), jit="graal")
    assert [u.digest for u in pinned.expand()] == [
        "2fae3290d72764c31a30741780df307b"
        "0119dafb08632ac20285cd198e78a9a9"]


def test_spec_validation():
    SweepSpec.from_dict(dict(SPEC))                 # valid baseline
    for bad in (
        ["not", "a", "dict"],
        {"suite": "nope"},
        {"benchmarks": ["no-such-benchmark"]},
        {"engine": "tier99"},
        {"repeat": 0},
        {"warmup": -1},
        {"max_concurrency": 0},
        {"mystery_field": 1},
    ):
        with pytest.raises(ServeError):
            SweepSpec.from_dict(bad)
    # "none" normalizes to the interpreter config, like the CLI.
    assert SweepSpec.from_dict({"jit": "none"}).jit is None
    # A spec may not expand to more units than one job may hold.
    with pytest.raises(ServeError, match="at most"):
        SweepSpec.from_dict({"repeat": 10**6})
    # Wire round-trip is lossless.
    spec = SweepSpec.from_dict(dict(SPEC))
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    assert spec.digest() == SweepSpec.from_dict(spec.to_dict()).digest()


#: Bodies that are JSON objects but not runnable specs: wrong types
#: (which used to escape validation as a 500), values every unit would
#: fail on, and a job too large to expand.
UNRUNNABLE_SPECS = (
    {"benchmarks": 5},
    {"benchmarks": ["scrabble", 7]},
    {"engine": ["x"]},
    {"suite": {"a": 1}},
    {"jit": 3},
    {"sanitize": "yes"},
    {"verify_ir": 1},
    {"cores": 0},
    {"jit": "bogus"},
    {"repeat": 1_000_000_000},
)


def test_unrunnable_specs_are_refused_with_400(tmp_path):
    with ServiceThread(str(tmp_path)) as svc:
        client = svc.client()
        for bad in UNRUNNABLE_SPECS:
            with pytest.raises(ServeError, match="-> 400"):
                client.submit(bad)
        assert client.jobs() == []
    records = Journal(str(tmp_path / "serve.wal")).replay().records
    assert not [r for r in records if r["kind"] == "job-submit"]


def test_journaled_spec_that_no_longer_validates_is_cancelled(tmp_path):
    # A job-submit journaled before its spec became unrunnable (cores 0
    # was once accepted) must not stop the service from starting.
    spec = dict(SweepSpec(benchmarks=SLICE, jit=None).to_dict(), cores=0)
    wal = str(tmp_path / "serve.wal")
    with Journal(wal) as journal:
        journal.append("job-submit", job="job-000001", spec=spec,
                       digests=[])
    for _ in range(2):
        with ServiceThread(str(tmp_path)) as svc:
            assert svc.client().jobs() == []
    cancels = Journal(wal).replay().of_kind("job-cancel")
    assert [c["job"] for c in cancels] == ["job-000001"]
    assert "cores must be >= 1" in cancels[0]["error"]


# ----------------------------------------------------------------------
# End-to-end service acceptance.
# ----------------------------------------------------------------------
def test_service_end_to_end_matches_run_suite(tmp_path):
    # Serial durable reference run in its own directory.
    plain = run_suite(workload(), jit=None, warmup=1, measure=1,
                      durable_dir=str(tmp_path / "cli"))
    plain_fps = sorted(r.fingerprint() for r in plain.results)

    with ServiceThread(str(tmp_path / "svc")) as svc:
        client = svc.client()
        job = client.submit(dict(SPEC))
        assert job["state"] in ("queued", "running")
        assert job["total_units"] == len(SLICE)

        events = []
        for event in client.events(job["id"]):      # live NDJSON tail
            events.append(event)
            if event["kind"] == "job-done":
                break
        for event in events:
            for field in EVENT_REQUIRED:
                assert field in event, event
            assert event["schema"] == "serve-event/1"
            assert event["job"] == job["id"]
            assert event["kind"] in EVENT_KINDS
        assert [e["seq"] for e in events] == list(range(len(events)))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "job-queued" and kinds[-1] == "job-done"
        assert kinds.count("unit-done") == len(SLICE)
        assert "stage" in kinds                     # lifecycle streamed

        # Results fetched by digest decode to RunResults whose
        # fingerprints are byte-identical to the serial CLI sweep's.
        done = [e for e in events if e["kind"] == "unit-done"]
        fetched = [client.result(e["digest"]) for e in done]
        assert all(o["kind"] == "result" for o in fetched)
        assert sorted(o["result"].fingerprint() for o in fetched) == \
            plain_fps
        assert sorted(e["fingerprint"] for e in done) == plain_fps

        before = client.metrics()
        assert before["serve_units_executed"] == len(SLICE)
        assert before["serve_jobs_completed"] == 1

        # Resubmitting the identical spec is served entirely from the
        # store: zero new executions.
        job2 = client.submit(dict(SPEC))
        final2 = client.wait(job2["id"], timeout=30)
        assert final2["state"] == "done"
        assert final2["units"]["cached"] == len(SLICE)
        after = client.metrics()
        assert after["serve_units_executed"] == len(SLICE)  # unchanged
        assert after["serve_units_cached"] == len(SLICE)

        # Status endpoints agree.
        assert client.job(job["id"])["state"] == "done"
        assert {j["id"] for j in client.jobs()} == \
            {job["id"], job2["id"]}
    assert svc.unfinished == []


def test_overlapping_jobs_share_one_execution(tmp_path):
    with ServiceThread(str(tmp_path), workers=1) as svc:
        client = svc.client()
        # Two jobs overlapping on "philosophers", submitted back to
        # back against a single worker: the overlap must execute once,
        # the second job joining in flight or hitting the store.
        a = client.submit({"benchmarks": ["philosophers", "scrabble"],
                           "jit": "none", "warmup": 1, "measure": 1})
        b = client.submit({"benchmarks": ["philosophers", "fj-kmeans"],
                           "jit": "none", "warmup": 1, "measure": 1})
        final_a = client.wait(a["id"], timeout=120)
        final_b = client.wait(b["id"], timeout=120)
        assert final_a["state"] == "done"
        assert final_b["state"] == "done"
        m = client.metrics()
        # 3 distinct digests across 4 requested units.
        assert m["serve_units_total"] == 4
        assert m["serve_units_executed"] == 3
        assert m["serve_units_cached"] + m["serve_units_deduped"] == 1
        # Both jobs saw the same outcome for the shared digest.
        done_a = {e["digest"]: e.get("fingerprint")
                  for e in client.events(a["id"])
                  if e["kind"] == "unit-done"}
        done_b = {e["digest"]: e.get("fingerprint")
                  for e in client.events(b["id"])
                  if e["kind"] in ("unit-done", "unit-cached")}
        shared = set(done_a) & set(done_b)
        assert len(shared) == 1 or m["serve_units_cached"] == 1


def test_round_chaining_orders_repetitions(tmp_path):
    # repeat=2 chains: round 1 becomes schedulable only after round 0
    # resolves (the one rule durable sweeps run under too).
    with ServiceThread(str(tmp_path), workers=1) as svc:
        client = svc.client()
        job = client.submit({"benchmarks": ["philosophers"],
                             "jit": "none", "warmup": 1, "measure": 1,
                             "repeat": 2})
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        events = list(client.events(job["id"]))
        begins = [e for e in events if e["kind"] == "unit-begin"]
        dones = [e for e in events if e["kind"] == "unit-done"]
        # Round 1 begins only after round 0 is done.
        assert [e["round"] for e in begins] == [0, 1]
        round0_done = next(i for i, e in enumerate(events)
                           if e["kind"] == "unit-done"
                           and e["round"] == 0)
        round1_begin = next(i for i, e in enumerate(events)
                            if e["kind"] == "unit-begin"
                            and e["round"] == 1)
        assert round0_done < round1_begin
        assert [e["round"] for e in dones] == [0, 1]


def test_cancellation_drops_queued_units(tmp_path):
    with ServiceThread(str(tmp_path), workers=1) as svc:
        client = svc.client()
        job = client.submit({
            "benchmarks": ["scrabble", "philosophers", "fj-kmeans",
                           "streams-mnemonics"],
            "jit": "none", "warmup": 1, "measure": 1})
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"
        counts = final["units"]
        # At most the in-flight unit ran; the rest were dropped.
        assert counts["skipped"] >= 2
        m = client.metrics()
        assert m["serve_jobs_cancelled"] == 1
        assert m["serve_units_executed"] <= 2


def test_cancellation_stops_the_round_chain(tmp_path):
    # Cancelled while round 0 is on a worker: round 0 finishes into the
    # store, rounds 1 and 2 are never scheduled and stay skipped.
    with ServiceThread(str(tmp_path), workers=1) as svc:
        client = svc.client()
        job = client.submit({"benchmarks": ["philosophers"], "jit": "none",
                             "warmup": 1, "measure": 1, "repeat": 3})
        for event in client.events(job["id"]):
            if event["kind"] == "unit-begin":
                assert client.cancel(job["id"])["state"] == "cancelled"
                break
        deadline = time.time() + 60
        while time.time() < deadline:
            m = client.metrics()
            if m["serve_units_executed"] >= 1 \
                    and m["serve_units_ready"] == 0 \
                    and m["serve_units_inflight"] == 0:
                break
            time.sleep(0.05)
        final = client.job(job["id"])
        assert final["state"] == "cancelled"
        assert final["units"]["done"] == 1
        assert final["units"]["skipped"] == 2
        assert client.metrics()["serve_units_executed"] == 1


def test_unit_task_error_ends_its_jobs_and_frees_the_digest(
        tmp_path, monkeypatch):
    # The store's disk is full once: the job waiting on the unit ends
    # with the error, and a resubmit runs the unit again.
    import errno

    from repro.harness.store import ResultStore

    put = ResultStore.put
    calls = []

    def full_once(self, digest, payload):
        calls.append(digest)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return put(self, digest, payload)

    monkeypatch.setattr(ResultStore, "put", full_once)
    spec = {"benchmarks": ["scrabble"], "jit": "none", "warmup": 1,
            "measure": 1}
    with ServiceThread(str(tmp_path), workers=1) as svc:
        client = svc.client(timeout=10)
        first = client.wait(client.submit(spec)["id"], timeout=30)
        assert first["state"] == "error"
        assert "OSError" in first["error"]
        assert "No space left" in first["error"]
        kinds = [e["kind"] for e in client.events(first["id"])]
        assert kinds[-1] == "job-error"
        second = client.wait(client.submit(spec)["id"], timeout=30)
        assert second["state"] == "done"
        assert second["units"]["done"] == 1
        assert len(calls) == 2
        assert client.metrics()["serve_jobs_failed"] == 1
    assert svc.unfinished == []


def test_wait_honours_its_own_deadline(tmp_path, monkeypatch):
    # A job whose unit never finishes goes silent after job-queued;
    # wait() must give up at its own deadline, not at the socket
    # timeout.
    import asyncio

    from repro.harness.durable import DurablePolicy
    from repro.serve.pool import WorkerPool

    async def never(self, unit, config, on_stage=None, plan=None):
        await asyncio.Event().wait()

    monkeypatch.setattr(WorkerPool, "run_unit", never)
    with ServiceThread(str(tmp_path), workers=1,
                       policy=DurablePolicy(drain_timeout=0.2)) as svc:
        client = svc.client(timeout=10)
        job = client.submit({"benchmarks": ["scrabble"], "jit": "none"})
        started = time.monotonic()
        with pytest.raises(ServeError, match="timed out"):
            client.wait(job["id"], timeout=0.5)
        assert time.monotonic() - started < 5
        assert client.job(job["id"])["state"] == "running"


def _raw_status(port: int, request: bytes) -> int:
    """Status code the service answers a hand-written request with."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def test_killed_worker_unit_retried_on_respawn(tmp_path):
    plain = run_suite(workload(("scrabble",)), jit=None, warmup=1,
                      measure=1)
    with ServiceThread(str(tmp_path), workers=1) as svc:
        client = svc.client()
        job = client.submit({"benchmarks": ["scrabble"], "jit": "none",
                             "warmup": 1, "measure": 1})
        for event in client.events(job["id"]):
            if event["kind"] == "unit-begin":
                (worker,) = svc.service.scheduler.pool._workers.values()
                os.kill(worker.pid, signal.SIGKILL)
            if event["kind"] == "unit-done":
                assert event["fingerprint"] == \
                    plain.results[0].fingerprint()
        assert client.job(job["id"])["units"]["done"] == 1
        assert client.metrics()["serve_workers_respawned"] >= 1


def test_http_error_handling(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.serve.api.READ_TIMEOUT", 0.3)
    with ServiceThread(str(tmp_path)) as svc:
        client = svc.client()
        # A client that connects and sends nothing is timed out, a
        # negative length and an over-long header line are refused.
        assert _raw_status(svc.port, b"") == 408
        assert _raw_status(
            svc.port, b"POST /jobs HTTP/1.1\r\n"
                      b"Content-Length: -5\r\n\r\n") == 400
        assert _raw_status(
            svc.port, b"GET /healthz HTTP/1.1\r\nX-Pad: "
                      + b"a" * 9000 + b"\r\n\r\n") == 400
        with pytest.raises(ServeError, match="not JSON"):
            client._json("POST", "/jobs", b"{nope")
        with pytest.raises(ServeError, match="unknown sweep spec"):
            client.submit({"mystery": 1})
        with pytest.raises(ServeError, match="unknown job"):
            client.job("job-999999")
        with pytest.raises(ServeError, match="404"):
            client.result("ff" * 32)
        with pytest.raises(ServeError, match="no route"):
            client._json("GET", "/nope")
        # Health and metrics endpoints respond.
        assert client._json("GET", "/healthz") == {"ok": True}
        text = client.metrics_text()
        assert "# TYPE repro_serve_jobs_submitted counter" in text
        assert "repro_serve_http_errors" in text
        m = client.metrics()
        assert m["serve_http_errors"] >= 7


def test_result_route_treats_non_digests_as_absent(tmp_path):
    # ``..victim`` joined under ``objects/`` names a file beside the
    # object directory; its bytes fail the checksum, which used to
    # unlink it.
    (tmp_path / "objects").mkdir()
    victim = tmp_path / "..victim"
    victim.write_bytes(b"not a store object")
    with ServiceThread(str(tmp_path)) as svc:
        assert _raw_status(
            svc.port, b"GET /results/..victim HTTP/1.1\r\n\r\n") == 404
        for digest in ("..victim", "AB" * 32, "ab" * 31):
            with pytest.raises(ServeError, match="404"):
                svc.client().result(digest)
    assert victim.read_bytes() == b"not a store object"


# ----------------------------------------------------------------------
# Tier-2 (make serve): SIGTERM drain + journal-backed recovery.
# ----------------------------------------------------------------------
def _start_service(sweep_dir, env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--dir", sweep_dir,
         "--port", "0", "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on http://([\d.]+):(\d+)", line)
    assert match, f"no listen line, got {line!r}"
    return proc, ServeClient(match.group(1), int(match.group(2)))


@pytest.mark.serve
def test_sigterm_drain_and_restart_recovery(tmp_path):
    sweep_dir = str(tmp_path / "svc")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep + env.get("PYTHONPATH", ""))

    proc, client = _start_service(sweep_dir, env)
    spec = {"benchmarks": ["scrabble", "philosophers", "fj-kmeans",
                           "streams-mnemonics"],
            "jit": "none", "warmup": 1, "measure": 1, "repeat": 2}
    job = client.submit(spec)
    jid = job["id"]
    # Let at least one unit land in the store, then SIGTERM mid-job.
    deadline = time.time() + 120
    while time.time() < deadline:
        if client.metrics()["serve_units_executed"] >= 1:
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=120)
    executed_before = _count_store_objects(sweep_dir)

    if code == 0:
        # Tiny race: the job finished before the signal landed —
        # restart still must serve everything from the store.
        expected_remaining = 0
    else:
        assert code == 4                            # drained, unfinished
        assert executed_before >= 1

    # Restart on the same directory: the journaled job is recovered
    # and completed, previously-finished units served from the store.
    proc2, client2 = _start_service(sweep_dir, env)
    try:
        deadline = time.time() + 240
        while time.time() < deadline:
            jobs = {j["id"]: j for j in client2.jobs()}
            if code == 0:
                break                               # nothing to recover
            if jid in jobs and jobs[jid]["state"] == "done":
                break
            time.sleep(0.2)
        m = client2.metrics()
        if code != 0:
            assert m["serve_jobs_recovered"] == 1
            jobs = {j["id"]: j for j in client2.jobs()}
            assert jobs[jid]["state"] == "done"
            assert jobs[jid]["units"]["failed"] == 0
            # Units persisted before the drain were not re-executed.
            assert m["serve_units_cached"] >= executed_before
        # Either way the store now holds the full sweep, and an
        # identical resubmission is pure cache.
        job2 = client2.submit(spec)
        final2 = client2.wait(job2["id"], timeout=60)
        assert final2["state"] == "done"
        assert final2["units"]["cached"] == 8
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=60)


def _count_store_objects(sweep_dir) -> int:
    objects = os.path.join(sweep_dir, "objects")
    if not os.path.isdir(objects):
        return 0
    return sum(
        1 for fan in os.listdir(objects)
        for name in os.listdir(os.path.join(objects, fan))
        if not name.endswith(".tmp"))
