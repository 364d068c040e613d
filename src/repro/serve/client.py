"""Blocking client for the benchmark service (tests and examples).

Wraps :mod:`http.client` — same stdlib-only constraint as the server.
Each call opens a fresh connection (the server closes after every
response anyway).  :meth:`ServeClient.events` is a generator over the
NDJSON stream; :meth:`ServeClient.result` fetches stored outcome bytes
and decodes them back into the ``{"kind": "result"|"failure", ...}``
dict the durable sweeps persist, so ``result["result"].fingerprint()``
can be compared byte-for-byte against a local ``run_suite``.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.errors import ServeError
from repro.harness.store import decode_outcome


class ServeClient:
    def __init__(self, host: str, port: int,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        return conn, conn.getresponse()

    def _json(self, method: str, path: str,
              body: bytes | None = None) -> dict:
        conn, resp = self._request(method, path, body)
        try:
            doc = json.loads(resp.read().decode("utf-8"))
        finally:
            conn.close()
        if resp.status >= 400:
            raise ServeError(
                f"{method} {path} -> {resp.status}: "
                f"{doc.get('error', doc)}")
        return doc

    # ------------------------------------------------------------------
    def submit(self, spec: dict) -> dict:
        """POST /jobs; returns the job status document."""
        return self._json("POST", "/jobs",
                          json.dumps(spec).encode("utf-8"))

    def job(self, jid: str) -> dict:
        return self._json("GET", f"/jobs/{jid}")

    def jobs(self) -> list[dict]:
        return self._json("GET", "/jobs")["jobs"]

    def cancel(self, jid: str) -> dict:
        return self._json("POST", f"/jobs/{jid}/cancel")

    def events(self, jid: str):
        """Yield the job's NDJSON events live, backlog first.  The
        generator ends when the server closes the stream (job done)."""
        return self._events(jid, None)

    def _events(self, jid: str, deadline: float | None):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{jid}/events")
            sock = conn.sock        # the response reads from it after
            resp = conn.getresponse()   # the connection lets go of it
            if resp.status >= 400:
                doc = json.loads(resp.read().decode("utf-8"))
                raise ServeError(f"events {jid} -> {resp.status}: "
                                 f"{doc.get('error', doc)}")
            while True:
                if deadline is not None:    # a read that outlives it times out
                    sock.settimeout(max(deadline - time.monotonic(), 1e-3))
                try:
                    line = resp.readline()
                except TimeoutError:
                    raise ServeError(f"timed out waiting for {jid}") \
                        from None
                if not line:
                    return
                yield json.loads(line)
        finally:
            conn.close()

    def wait(self, jid: str, timeout: float = 120.0) -> dict:
        """Follow the event stream to its end (the server ends it once
        the job is terminal), then return the final status document;
        :class:`ServeError` once ``timeout`` seconds have passed, whether
        or not events arrive."""
        for _ in self._events(jid, time.monotonic() + timeout):
            pass
        return self.job(jid)

    def result(self, digest: str) -> dict:
        """GET /results/{digest}, decoded to the stored outcome dict."""
        conn, resp = self._request("GET", f"/results/{digest}")
        try:
            payload = resp.read()
        finally:
            conn.close()
        if resp.status >= 400:
            raise ServeError(f"result {digest} -> {resp.status}")
        return decode_outcome(payload)

    def metrics_text(self) -> str:
        conn, resp = self._request("GET", "/metrics")
        try:
            return resp.read().decode("utf-8")
        finally:
            conn.close()

    def metrics(self) -> dict:
        """Parsed /metrics: name -> value (counters and gauges)."""
        values: dict[str, float] = {}
        for line in self.metrics_text().splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.partition(" ")
            values[name.removeprefix("repro_")] = float(value)
        return values
