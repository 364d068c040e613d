"""Stdlib-only HTTP/1.1 API over the scheduler.

Deliberately small: ``asyncio.start_server`` plus a hand-rolled
request parser (request line, headers, ``Content-Length`` body) —
enough protocol for ``http.client`` and ``curl``, no framework.  Every
response closes the connection (``Connection: close``), which is also
what lets the NDJSON event stream run without chunked encoding: the
stream simply ends when the job does.

Routes::

    POST /jobs                submit a SweepSpec (JSON body) -> 202 job
    GET  /jobs                all jobs, newest first
    GET  /jobs/{id}           one job's status document
    GET  /jobs/{id}/events    NDJSON stage-lifecycle stream (live tail)
    POST /jobs/{id}/cancel    drop the job's queued units
    GET  /results/{digest}    stored outcome bytes (pickle; decode with
                              repro.harness.store.decode_outcome)
    GET  /metrics             Prometheus-style serve_* counters
    GET  /healthz             liveness probe

:class:`Service` composes the scheduler with this API and owns the
listening socket and the SIGTERM drain.
"""

from __future__ import annotations

import asyncio
import json
import signal

from repro.errors import ServeError
from repro.harness.durable import DurablePolicy
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import Scheduler
from repro.serve.spec import SweepSpec

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 503: "Service Unavailable"}

#: Request caps: longer lines/bodies are rejected, not buffered.
MAX_LINE = 8192
MAX_BODY = 1 << 20
#: Seconds a client gets to deliver its whole request (line, headers,
#: body); a silent connection must not hold a handler task forever.
READ_TIMEOUT = 10.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _headers(status: int, content_type: str,
             length: int | None) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class Service:
    """The benchmark service: scheduler + HTTP endpoint + drain."""

    def __init__(self, dir: str, *, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 2,
                 policy: DurablePolicy | None = None) -> None:
        self.metrics = ServeMetrics()
        self.scheduler = Scheduler(dir, workers=workers, policy=policy,
                                   metrics=self.metrics)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self.unfinished: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.scheduler.start()
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port, limit=MAX_LINE)
        except Exception:
            await self.scheduler.drain()
            raise
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> list[str]:
        """Block until :meth:`shutdown` (or a signal handler) fires,
        then drain.  Returns the unfinished job ids."""
        await self._shutdown.wait()
        return await self.stop()

    def shutdown(self) -> None:
        """Signal-handler-safe shutdown trigger."""
        self._shutdown.set()

    async def stop(self) -> list[str]:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            self.unfinished = await self.scheduler.drain()
            for task in list(self._conn_tasks):     # idle keep-alives,
                task.cancel()                       # abandoned streams
        return self.unfinished

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass                    # non-main thread or platform

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.metrics.inc("serve_http_requests")
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT)
            except asyncio.TimeoutError:
                raise _HttpError(
                    408, f"no complete request within {READ_TIMEOUT}s") \
                    from None
            await self._route(method, path, body, writer)
        except _HttpError as exc:
            self.metrics.inc("serve_http_errors")
            await self._send_json(writer, exc.status,
                                  {"error": str(exc)})
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass                        # client went away mid-exchange
        except Exception as exc:        # pragma: no cover - last resort
            self.metrics.inc("serve_http_errors")
            try:
                await self._send_json(writer, 500, {"error": repr(exc)})
            except Exception:
                pass
        finally:
            try:
                # A worker forked while this request was open holds a
                # copy of its socket, so close() alone would not end an
                # event stream: half-close says so explicitly.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass                    # shutdown cancels idle handlers

    async def _read_line(self, reader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:              # overran the reader's MAX_LINE
            raise _HttpError(
                400, f"line exceeds {MAX_LINE} bytes") from None

    async def _read_request(self, reader):
        request_line = await self._read_line(reader)
        if not request_line:
            raise _HttpError(400, "bad request line")
        try:
            method, path, _version = request_line.decode(
                "ascii").strip().split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        length = 0
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
        if not 0 <= length <= MAX_BODY:
            raise _HttpError(
                400, f"Content-Length must be within 0..{MAX_BODY}")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _send(self, writer, status: int, content_type: str,
                    payload: bytes) -> None:
        writer.write(_headers(status, content_type, len(payload)))
        writer.write(payload)
        await writer.drain()

    async def _send_json(self, writer, status: int, doc) -> None:
        payload = (json.dumps(doc, sort_keys=True) + "\n").encode()
        await self._send(writer, status, "application/json", payload)

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    async def _route(self, method, path, body, writer) -> None:
        path = path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if path == "/jobs" and method == "POST":
            return await self._post_job(body, writer)
        if path == "/jobs" and method == "GET":
            jobs = sorted(self.scheduler.jobs.values(),
                          key=lambda j: j.seq, reverse=True)
            return await self._send_json(
                writer, 200, {"jobs": [j.to_dict() for j in jobs]})
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            job = self._job(parts[1])
            return await self._send_json(writer, 200, job.to_dict())
        if len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "events" and method == "GET":
            return await self._stream_events(self._job(parts[1]), writer)
        if len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "cancel" and method == "POST":
            job = self.scheduler.cancel(self._job(parts[1]).id)
            return await self._send_json(writer, 200, job.to_dict())
        if len(parts) == 2 and parts[0] == "results" and method == "GET":
            payload = self.scheduler.store.get(parts[1])
            if payload is None:
                raise _HttpError(404, f"no result {parts[1]!r} in store")
            return await self._send(writer, 200,
                                    "application/octet-stream", payload)
        if path == "/metrics" and method == "GET":
            text = self.metrics.render(self.scheduler.gauges())
            return await self._send(writer, 200,
                                    "text/plain; version=0.0.4",
                                    text.encode())
        if path == "/healthz" and method == "GET":
            return await self._send_json(writer, 200, {"ok": True})
        if parts and parts[0] in ("jobs", "results") \
                and method not in ("GET", "POST"):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {method} {path}")

    def _job(self, jid):
        try:
            return self.scheduler.get_job(jid)
        except ServeError as exc:
            raise _HttpError(404, str(exc)) from None

    async def _post_job(self, body, writer) -> None:
        if self.scheduler._draining:
            raise _HttpError(503, "service is draining")
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not JSON: {exc}") from None
        try:
            spec = SweepSpec.from_dict(doc)
            job = self.scheduler.submit(spec)
        except ServeError as exc:
            raise _HttpError(400, str(exc)) from None
        await self._send_json(writer, 202, job.to_dict())

    async def _stream_events(self, job, writer) -> None:
        writer.write(_headers(200, "application/x-ndjson", None))
        await writer.drain()
        queue = job.subscribe()
        while True:
            event = await queue.get()
            if event is None:           # end of stream: job is terminal
                break
            writer.write(
                (json.dumps(event, sort_keys=True) + "\n").encode())
            await writer.drain()
            self.metrics.inc("serve_events_streamed")
