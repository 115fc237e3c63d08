"""Stdlib-only asyncio HTTP/1.1 front end of the fleet service.

No web framework — the repo is numpy-only — so this module implements
the minimum honest subset of HTTP/1.1 the control plane needs: request
line + headers + ``Content-Length`` bodies, keep-alive connections,
JSON in and JSON out.  Three design points carry the subsystem:

* **single writer** — the fleet engine is synchronous and admits one
  mutation at a time, so :class:`ServiceApp` owns it behind one worker
  task fed by an :class:`asyncio.Queue`.  Handlers stay non-blocking
  (they ``await`` a future), requests are applied in arrival order, and
  the engine never sees concurrency — which is what makes decisions
  byte-equal to driving the library directly;
* **observable by construction** — every dispatch bumps a per-route
  request counter and feeds a micro-unit latency histogram in the
  process :func:`~repro.telemetry.metrics` registry, which is exactly
  what ``GET /metrics`` snapshots back out;
* **graceful exit** — :func:`serve` installs SIGTERM/SIGINT handlers;
  shutdown stops accepting, drains the worker queue, and writes a final
  checkpoint through the atomic :meth:`~repro.service.gateway.
  FleetGateway.checkpoint` path before the event loop exits.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Awaitable, Callable

from repro.service.gateway import (
    CausalityError,
    FleetGateway,
    ServiceOverloadError,
    UnknownUserError,
)
from repro.service.schemas import SchemaError
from repro.stream.online_netmaster import CheckpointError
from repro.telemetry import metrics

logger = logging.getLogger("repro.service")

#: Latency histogram bucket bounds (seconds): request handling is
#: sub-millisecond to tens of ms, far below the seconds-flavoured
#: telemetry defaults.  Sums still accumulate in exact micro-units.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
)

#: Default cap on request bodies (413 past it).
DEFAULT_MAX_BODY_BYTES = 8 << 20

#: Reason phrases for every status the service emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that maps to a non-200 response.

    ``code`` is the machine-readable error tag clients branch on;
    ``close`` forces the connection shut after the response (used when
    the request stream cannot be trusted further, e.g. an unread
    oversized body).
    """

    def __init__(
        self, status: int, code: str, message: str, *, close: bool = False
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.close = close

    def doc(self) -> dict:
        """The JSON error body."""
        return {"error": {"code": self.code, "message": self.message}}


@dataclass(slots=True)
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as JSON; 400 on anything malformed."""
        if not self.body:
            raise HttpError(400, "bad-json", "request body is empty, expected JSON")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, "bad-json", f"request body is not JSON: {exc}")

    def json_optional(self) -> object | None:
        """The body parsed as JSON, or ``None`` when there is no body."""
        if not self.body:
            return None
        return self.json()

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, ValueError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(
            400, "bad-request-line", f"malformed request line: {line!r}", close=True
        )
    method, target = parts[0].upper(), parts[1]
    path, _, query = target.partition("?")
    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except ValueError as exc:
            raise HttpError(400, "bad-header", f"oversized header line: {exc}",
                            close=True)
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1", "replace").partition(":")
        if not sep:
            raise HttpError(400, "bad-header", f"malformed header: {raw!r}", close=True)
        name = name.strip().lower()
        # Duplicate Content-Length headers are a request-smuggling vector
        # (last-wins here could disagree with a proxy's first-wins), so
        # they are rejected outright rather than reconciled.
        if name == "content-length" and name in headers:
            raise HttpError(
                400, "bad-header", "duplicate Content-Length header", close=True
            )
        headers[name] = value.strip()
        if len(headers) > 128:
            raise HttpError(400, "bad-header", "too many headers", close=True)
    if "transfer-encoding" in headers:
        # This parser only speaks Content-Length bodies.  Treating a
        # chunked body as zero-length would desync the keep-alive stream
        # (the payload would parse as pipelined requests), so refuse it.
        raise HttpError(
            400,
            "bad-header",
            "Transfer-Encoding is not supported; send a Content-Length body",
            close=True,
        )
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise HttpError(
            400, "bad-header", f"invalid Content-Length: {raw_length!r}", close=True
        )
    if length < 0:
        raise HttpError(
            400, "bad-header", f"invalid Content-Length: {raw_length!r}", close=True
        )
    if length > max_body_bytes:
        # The body is never read — the connection cannot be reused.
        raise HttpError(
            413,
            "body-too-large",
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte cap",
            close=True,
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
    return HttpRequest(method=method, path=path, query=query, headers=headers,
                       body=body)


def render_response(status: int, doc: object, *, close: bool) -> bytes:
    """One full HTTP/1.1 response as bytes."""
    payload = (json.dumps(doc) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


class ServiceApp:
    """The running service: gateway + single-writer queue + listener."""

    def __init__(
        self,
        gateway: FleetGateway | None = None,
        *,
        checkpoint_path: str | Path | None = None,
        checkpoint_dir: str | Path | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        self.gateway = gateway or FleetGateway()
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        #: The only directory client-supplied checkpoint/restore paths
        #: may land in (resolved-prefix checked); ``None`` disables
        #: client paths entirely — they are a filesystem write/probe
        #: primitive for anyone who can reach the port otherwise.
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.max_body_bytes = max_body_bytes
        # Imported here, not at module top: routes needs HttpError from
        # this module, so the dependency must point routes -> http only.
        from repro.service import routes as routes_mod

        self.router = routes_mod.build_router()
        self.stopping = False
        self.stop_event: asyncio.Event | None = None
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the listener and start the single-writer worker task."""
        self.stop_event = asyncio.Event()
        self._queue = asyncio.Queue()
        self._worker = asyncio.create_task(self._worker_loop(), name="fleet-writer")
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        logger.info("service listening on %s:%d", *self.address)
        return self.address

    def request_stop(self) -> None:
        """Ask :func:`serve` to exit (signal handlers land here)."""
        if self.stop_event is not None:
            self.stop_event.set()

    async def shutdown(self, *, reason: str = "stop") -> None:
        """Stop accepting, drop connections, drain the queue, checkpoint."""
        if self.stopping:
            return
        self.stopping = True
        logger.info("service shutting down (%s)", reason)
        if self._server is not None:
            self._server.close()
        # Close every live connection BEFORE awaiting wait_closed():
        # since Python 3.12.1 wait_closed() blocks until all connection
        # handlers return, and an idle keep-alive handler sits in
        # readline() until its transport dies — waiting first would
        # deadlock shutdown and lose the final checkpoint.  Closing the
        # transport EOFs the reader; mutations already enqueued by
        # in-flight handlers still apply via the queue drain below.
        for writer in list(self._writers):
            writer.close()
        if self._queue is not None:
            await self._queue.join()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:
                # Never let a straggling handler hold the checkpoint hostage.
                logger.warning("connection handlers did not exit within 5s")
        if self.checkpoint_path is not None:
            written = self.gateway.checkpoint(self.checkpoint_path)
            logger.info(
                "final checkpoint written to %s (%d users, %d events)",
                written,
                *(lambda s: (s["users"], s["events"]))(self.gateway.stats()),
            )
        metrics().inc("service.shutdowns")

    @property
    def queue_depth(self) -> int:
        """Mutations waiting for the single writer."""
        return self._queue.qsize() if self._queue is not None else 0

    # ------------------------------------------------------------------
    # the single writer
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            fn, future = await self._queue.get()
            try:
                if not future.cancelled():
                    future.set_result(fn(self.gateway))
            except Exception as exc:  # handed back to the waiting handler
                if not future.cancelled():
                    future.set_exception(exc)
            finally:
                self._queue.task_done()

    def call(self, fn: Callable[[FleetGateway], object]) -> Awaitable[object]:
        """Run ``fn(gateway)`` on the single-writer task, in queue order."""
        assert self._queue is not None, "ServiceApp.start() was never awaited"
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((fn, future))
        return future

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.max_body_bytes
                    )
                except HttpError as exc:
                    metrics().inc("service.requests")
                    metrics().inc(f"service.status.{exc.status}")
                    await self._write(writer, exc.status, exc.doc(), close=True)
                    return
                if request is None:
                    return
                status, doc, close = await self._dispatch(request)
                close = close or request.wants_close or self.stopping
                try:
                    await self._write(writer, status, doc, close=close)
                except (ConnectionError, RuntimeError):
                    return
                if close:
                    return
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _write(
        self, writer: asyncio.StreamWriter, status: int, doc: object, *, close: bool
    ) -> None:
        writer.write(render_response(status, doc, close=close))
        await writer.drain()

    async def _dispatch(self, request: HttpRequest) -> tuple[int, object, bool]:
        """Route one request; returns ``(status, body_doc, close)``."""
        registry = metrics()
        registry.inc("service.requests")
        start = time.perf_counter()
        route = None
        try:
            route, params = self.router.match(request.method, request.path)
            status, doc = await route.handler(self, request, **params)
            return status, doc, False
        except HttpError as exc:
            return exc.status, exc.doc(), exc.close
        except SchemaError as exc:
            return 400, HttpError(400, "bad-request", str(exc)).doc(), False
        except UnknownUserError as exc:
            return 404, HttpError(404, "unknown-user", str(exc)).doc(), False
        except CausalityError as exc:
            return 409, HttpError(409, "causality", str(exc)).doc(), False
        except ServiceOverloadError as exc:
            return 429, HttpError(429, "overloaded", str(exc)).doc(), False
        except CheckpointError as exc:
            return 409, HttpError(409, "bad-checkpoint", str(exc)).doc(), False
        except Exception:
            logger.exception(
                "unhandled error serving %s %s", request.method, request.path
            )
            return 500, HttpError(500, "internal", "internal server error").doc(), True
        finally:
            elapsed = time.perf_counter() - start
            name = route.name if route is not None else "unrouted"
            registry.inc(f"service.req.{name}")
            registry.observe(f"service.latency_s.{name}", elapsed, LATENCY_BUCKETS)


@dataclass
class ServeOptions:
    """Knobs of a :func:`serve` run (the CLI maps straight onto this)."""

    host: str = "127.0.0.1"
    port: int = 8341
    checkpoint_path: str | Path | None = None
    checkpoint_dir: str | Path | None = None
    restore_path: str | Path | None = None
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    config: object | None = None  # FleetConfig
    #: Called with the bound (host, port) once the listener is up.
    on_ready: Callable[[tuple[str, int]], None] | None = field(default=None)


async def serve(options: ServeOptions | None = None) -> ServiceApp:
    """Run the service until SIGTERM/SIGINT (or a programmatic stop).

    The final act of a signal-driven exit is an atomic checkpoint
    through :meth:`FleetGateway.checkpoint` (when a checkpoint path is
    configured), so a restarted server resumes byte-identically.
    Returns the (stopped) app, mainly for tests.
    """
    options = options or ServeOptions()
    gateway = FleetGateway(options.config)
    if options.restore_path is not None:
        gateway.restore(options.restore_path)
        logger.info("state restored from %s", options.restore_path)
    app = ServiceApp(
        gateway,
        checkpoint_path=options.checkpoint_path,
        checkpoint_dir=options.checkpoint_dir,
        max_body_bytes=options.max_body_bytes,
    )
    await app.start(options.host, options.port)
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, app.request_stop)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # non-unix loops
            pass
    if options.on_ready is not None:
        options.on_ready(app.address)
    try:
        assert app.stop_event is not None
        await app.stop_event.wait()
        await app.shutdown(reason="signal")
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return app
