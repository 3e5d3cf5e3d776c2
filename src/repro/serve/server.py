"""The threaded HTTP/JSON session server.

`repro.serve`'s front door: a stdlib ``ThreadingHTTPServer`` (one
thread per connection, HTTP/1.1 keep-alive) exposing the session
manager over a REST-ish surface:

====== =============================== =======================================
Method Path                            Meaning
====== =============================== =======================================
PUT    ``/sessions/{name}``            create from ``{"spec", "backend",
                                       "options", "checkpoint_every",
                                       "reference_radius"}``
GET    ``/sessions``                   list sessions (resident + spooled)
GET    ``/sessions/{name}``            one session's info record
DELETE ``/sessions/{name}``            drop session + spool file
POST   ``/sessions/{name}/extend``     batched ingest (JSON points or the
                                       binary ``application/octet-stream``
                                       fast path)
POST   ``/sessions/{name}/delete``     batched deletion (dynamic backends)
GET    ``/sessions/{name}/solve``      offline solve on the coreset
                                       (``?method=greedy3``)
POST   ``/sessions/{name}/save``       explicit checkpoint to the spool
GET    ``/metrics``                    Prometheus text exposition
GET    ``/healthz``                    liveness (200 once the process is up)
GET    ``/readyz``                     readiness (503 while starting up or
                                       shutting down)
====== =============================== =======================================

Errors are ``{"error": {"code", "message"}}`` with the status from the
:class:`~repro.serve.wire.WireError` taxonomy.  Observability: every
request lands in ``repro_serve_http_requests_total``; session
operations also record per-backend latency histograms
(``repro_serve_request_seconds``) and throughput counters
(``repro_serve_points_total``, ``repro_serve_solves_total``) alongside
the manager's lifecycle metrics (see :mod:`repro.serve.manager`).
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .manager import SessionManager
from .metrics import DEFAULT_BUCKETS, MetricsRegistry
from .wire import (
    MAX_BODY_BYTES,
    SPOOL_BODY_BYTES,
    WireError,
    decode_points,
    error_body,
    parse_create_payload,
    parse_json_body,
    spool_binary_points,
    validate_session_name,
)

__all__ = ["ServeConfig", "ReproServer", "main"]


@dataclass
class ServeConfig:
    """Server construction knobs (CLI flags map 1:1 onto these).

    Parameters
    ----------
    host:
        Bind address.
    port:
        Bind port; ``0`` asks the OS for an ephemeral port (read it back
        from :attr:`ReproServer.port` or the ready file).
    spool_dir:
        Session snapshot directory — the durability unit shared across
        restarts.  ``None`` creates a temporary one (no durability
        across processes).
    max_resident:
        Resident-session cap for the LRU eviction policy.
    checkpoint_every:
        Default per-session checkpoint cadence in points (``None``
        disables periodic checkpoints).
    ready_file:
        Path for the JSON ready file (``{"host", "port", "pid", "url"}``)
        written once the server is serving — how a parent process finds
        an ephemeral port.  ``None`` writes ``<spool_dir>/server.json``.
    """

    host: str = "127.0.0.1"
    port: int = 8137
    spool_dir: "str | None" = None
    max_resident: int = 64
    checkpoint_every: "int | None" = 4096
    ready_file: "str | None" = None
    _resolved_spool: str = field(default="", repr=False)

    def __post_init__(self):
        if self.spool_dir is None:
            self.spool_dir = tempfile.mkdtemp(prefix="repro-serve-spool-")
        self._resolved_spool = str(self.spool_dir)
        if self.ready_file is None:
            self.ready_file = os.path.join(self.spool_dir, "server.json")


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to the application."""

    daemon_threads = True
    app: "ReproServer"


_ROUTES = (
    ("GET", re.compile(r"^/healthz$"), "healthz"),
    ("GET", re.compile(r"^/readyz$"), "readyz"),
    ("GET", re.compile(r"^/metrics$"), "metrics"),
    ("GET", re.compile(r"^/sessions$"), "list"),
    ("PUT", re.compile(r"^/sessions/(?P<name>[^/]+)$"), "create"),
    ("GET", re.compile(r"^/sessions/(?P<name>[^/]+)$"), "info"),
    ("DELETE", re.compile(r"^/sessions/(?P<name>[^/]+)$"), "drop"),
    ("POST", re.compile(r"^/sessions/(?P<name>[^/]+)/extend$"), "extend"),
    ("POST", re.compile(r"^/sessions/(?P<name>[^/]+)/delete$"), "delete"),
    ("GET", re.compile(r"^/sessions/(?P<name>[^/]+)/solve$"), "solve"),
    ("POST", re.compile(r"^/sessions/(?P<name>[^/]+)/save$"), "save"),
)

#: Per-process ids for concurrently spooled extend bodies (one
#: handler thread per connection under ThreadingHTTPServer).
_SPOOL_IDS = itertools.count()

#: A valid ``Content-Length`` value (ASCII digits, optional whitespace).
_DECIMAL = re.compile(r"\s*[0-9]+\s*")

#: Route templates for the request counter's ``route`` label.
_TEMPLATES = {
    "healthz": "/healthz", "readyz": "/readyz", "metrics": "/metrics",
    "list": "/sessions", "create": "/sessions/{name}",
    "info": "/sessions/{name}", "drop": "/sessions/{name}",
    "extend": "/sessions/{name}/extend", "delete": "/sessions/{name}/delete",
    "solve": "/sessions/{name}/solve", "save": "/sessions/{name}/save",
}


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP request into the session manager."""

    protocol_version = "HTTP/1.1"
    #: header and body go out in two sends; with Nagle on, the second
    #: waits for the client's delayed ACK of the first (~40 ms) on a
    #: reused keep-alive connection
    disable_nagle_algorithm = True
    #: seconds any one socket read may wait, the same for every
    #: connection: a client that stalls mid-headers, mid-body or idle on
    #: a keep-alive connection releases its worker thread after this
    #: long (a stalled body is answered with a 408 first)
    timeout = 30
    server: _HTTPServer
    #: the validated ``Content-Length`` of the current request
    _length = 0

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Suppress per-request stderr logging (metrics cover it)."""

    def _parse_framing(self) -> int:
        """The request body length, validated: at most one
        ``Content-Length`` header holding a non-negative decimal integer,
        and no ``Transfer-Encoding`` (no chunked bodies).  Anything else
        is a 400, and the connection closes: where the body ends is
        unknown, so the stream cannot be resynchronized."""
        values = self.headers.get_all("Content-Length") or []
        problem = None
        if self.headers.get("Transfer-Encoding") is not None:
            problem = "Transfer-Encoding is not supported; send Content-Length"
        elif len(values) > 1:
            problem = "duplicate Content-Length headers"
        elif values and not _DECIMAL.fullmatch(values[0]):
            problem = ("Content-Length must be a non-negative integer, "
                       f"got {values[0]!r}")
        if problem is not None:
            self._body_read = True  # never read an unframed body
            self.close_connection = True
            raise WireError(400, "bad-framing", problem)
        return int(values[0]) if values else 0

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self._drain_body()  # keep-alive safety: never leave body bytes unread
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc) -> None:
        self._send(status, json.dumps(doc).encode())

    def _read_body(self) -> bytes:
        self._body_read = True
        length = self._length
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # too big to drain; drop the conn
            raise WireError(413, "body-too-large",
                            f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b""

    def _drain_body(self) -> None:
        """Discard an unread request body so keep-alive framing survives.

        A handler that errors out before touching the body (bad session
        name, unknown route, ...) would otherwise leave the payload in
        the socket, where it corrupts the next request on the
        connection.
        """
        if getattr(self, "_body_read", False):
            return
        self._body_read = True
        length = self._length
        if 0 < length <= MAX_BODY_BYTES:
            try:
                self.rfile.read(length)
            except TimeoutError:
                self.close_connection = True  # stalled; the stream is lost
        elif length > MAX_BODY_BYTES:
            self.close_connection = True

    def _dispatch(self, method: str) -> None:
        app = self.server.app
        self._body_read = False  # per-request state (keep-alive reuse)
        self._length = 0
        split = urlsplit(self.path)
        op, match = None, None
        for m, pattern, name in _ROUTES:
            found = pattern.match(split.path)
            if found:
                match = found
                if m == method:
                    op = name
                    break
        status = 500
        t0 = time.perf_counter()
        try:
            self._length = self._parse_framing()
            if op is None:
                if match is not None:
                    raise WireError(405, "method-not-allowed",
                                    f"{method} is not valid for "
                                    f"{split.path!r}")
                raise WireError(404, "unknown-route",
                                f"no route for {split.path!r}")
            handler = getattr(self, "_op_" + op)
            kwargs = match.groupdict() if match is not None else {}
            status = handler(query=parse_qs(split.query), **kwargs)
        except WireError as exc:
            status = exc.status
            self._send(exc.status, error_body(exc.code, exc.message))
        except TimeoutError:
            # the body stalled past ``timeout``: how much of it arrived
            # is unknown, so answer and close the connection
            status = 408
            self._body_read = True
            self.close_connection = True
            self._send(408, error_body(
                "request-timeout",
                f"request body not received within {self.timeout} s"))
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            return  # client went away mid-response; nothing to send
        except Exception as exc:  # pragma: no cover - defensive 500
            status = 500
            self._send(500, error_body("internal",
                                       f"{type(exc).__name__}: {exc}"))
        finally:
            app.observe_request(method, _TEMPLATES.get(op or "", "*"),
                                status, op, time.perf_counter() - t0)

    def do_GET(self):
        """Dispatch a GET request."""
        self._dispatch("GET")

    def do_PUT(self):
        """Dispatch a PUT request."""
        self._dispatch("PUT")

    def do_POST(self):
        """Dispatch a POST request."""
        self._dispatch("POST")

    def do_DELETE(self):
        """Dispatch a DELETE request."""
        self._dispatch("DELETE")

    # -- probe / observability routes --------------------------------------

    def _op_healthz(self, query) -> int:
        self._send(200, b"ok\n", content_type="text/plain")
        return 200

    def _op_readyz(self, query) -> int:
        app = self.server.app
        if app.ready:
            self._send(200, b"ready\n", content_type="text/plain")
            return 200
        self._send(503, b"not ready\n", content_type="text/plain")
        return 503

    def _op_metrics(self, query) -> int:
        body = self.server.app.render_metrics().encode()
        self._send(200, body,
                   content_type="text/plain; version=0.0.4; charset=utf-8")
        return 200

    # -- session routes ----------------------------------------------------

    def _op_list(self, query) -> int:
        app = self.server.app
        self._send_json(200, {"sessions": app.manager.list_sessions()})
        return 200

    def _op_create(self, query, name: str) -> int:
        app = self.server.app
        name = validate_session_name(name)
        doc = parse_json_body(self._read_body())
        spec, backend, options, serve_opts = parse_create_payload(doc)
        info = app.manager.create(
            name, spec, backend, options,
            checkpoint_every=serve_opts.get("checkpoint_every"),
            reference_radius=serve_opts.get("reference_radius"),
        )
        app.observe_op("create", backend)
        self._send_json(201, info)
        return 201

    def _op_info(self, query, name: str) -> int:
        app = self.server.app
        self._send_json(200, app.manager.info(validate_session_name(name)))
        return 200

    def _op_drop(self, query, name: str) -> int:
        app = self.server.app
        app.manager.drop(validate_session_name(name))
        self._send_json(200, {"deleted": name})
        return 200

    def _timed_op(self, op: str, name: str, fn) -> dict:
        """Run one manager op under the per-backend latency histogram."""
        app = self.server.app
        t0 = time.perf_counter()
        out = fn()
        backend = out.get("backend") or app.manager.info(name)["backend"]
        app.observe_op(op, backend, seconds=time.perf_counter() - t0,
                       points=out.get("applied", 0))
        return out

    def _op_extend(self, query, name: str) -> int:
        app = self.server.app
        name = validate_session_name(name)
        ctype = (self.headers.get("Content-Type") or "")
        if (ctype.split(";")[0].strip() == "application/octet-stream"
                and self._length >= SPOOL_BODY_BYTES):
            return self._extend_spooled(name, self._length)
        pts = decode_points(
            self._read_body(), ctype, self.headers.get("X-Repro-Shape"),
        )
        out = self._timed_op("extend", name,
                             lambda: app.manager.extend(name, pts))
        self._send_json(200, out)
        return 200

    def _extend_spooled(self, name: str, length: int) -> int:
        """Oversized binary extends stream through a disk spool.

        Bodies at or above :data:`~repro.serve.wire.SPOOL_BODY_BYTES`
        never materialize on the heap: they are read in row-aligned
        slices into an atomic :class:`~repro.store.PointStore` under the
        spool directory and handed to the manager as a memory-mapped
        :class:`~repro.store.StoreSource` (the session's chunked extend
        path ingests it chunk by chunk).  The body caps are unchanged —
        this only moves where the bytes sit while they are validated.
        """
        app = self.server.app
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # too big to drain; drop the conn
            self._body_read = True
            raise WireError(413, "body-too-large",
                            f"request body exceeds {MAX_BODY_BYTES} bytes")
        # spool_binary_points either consumes the body fully (success or
        # validation error) or the connection is already dead, so framing
        # is safe to mark handled up front.
        self._body_read = True
        path = os.path.join(
            app.config.spool_dir,
            f".extend-{os.getpid()}-{next(_SPOOL_IDS)}.store")
        try:
            src = spool_binary_points(
                self.rfile, length, self.headers.get("X-Repro-Shape"), path)
            out = self._timed_op("extend", name,
                                 lambda: app.manager.extend(name, src))
        finally:
            shutil.rmtree(path, ignore_errors=True)
        self._send_json(200, out)
        return 200

    def _op_delete(self, query, name: str) -> int:
        app = self.server.app
        name = validate_session_name(name)
        pts = decode_points(
            self._read_body(), self.headers.get("Content-Type", ""),
            self.headers.get("X-Repro-Shape"),
        )
        out = self._timed_op("delete", name,
                             lambda: app.manager.delete_points(name, pts))
        self._send_json(200, out)
        return 200

    def _op_solve(self, query, name: str) -> int:
        app = self.server.app
        name = validate_session_name(name)
        method = (query.get("method") or ["greedy3"])[0]
        out = self._timed_op(
            "solve", name, lambda: app.manager.solve(name, method=method))
        app.counter_solves.labels(backend=out["backend"]).inc()
        if out.get("greedy_stats"):
            app.observe_greedy(out["backend"], out["greedy_stats"])
        self._send_json(200, out)
        return 200

    def _op_save(self, query, name: str) -> int:
        app = self.server.app
        name = validate_session_name(name)
        out = self._timed_op("save", name, lambda: app.manager.save(name))
        self._send_json(200, out)
        return 200


class ReproServer:
    """The embeddable server object: manager + metrics + HTTP front end.

    Lifecycle::

        server = ReproServer(ServeConfig(port=0))
        server.start()              # recover spool, bind, serve in a thread
        ...                         # talk to http://host:{server.port}
        server.stop()               # drain, checkpoint every session

    ``start()``/``stop()`` are what the tests and the README embed;
    :func:`main` wraps them with signal handling for the CLI.
    """

    def __init__(self, config: "ServeConfig | None" = None):
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.manager = SessionManager(
            self.config.spool_dir,
            max_resident=self.config.max_resident,
            checkpoint_every=self.config.checkpoint_every,
            registry=self.registry,
        )
        self._httpd: "_HTTPServer | None" = None
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()
        self._started = threading.Event()
        self.recovered: "list[str]" = []
        self.skipped: "list[str]" = []
        reg = self.registry
        self.counter_requests = reg.counter(
            "repro_serve_http_requests_total",
            "HTTP requests by method, route template and status code.",
            ("method", "route", "code"))
        self.counter_points = reg.counter(
            "repro_serve_points_total",
            "Point updates applied, by operation and backend.",
            ("op", "backend"))
        self.counter_solves = reg.counter(
            "repro_serve_solves_total",
            "Solve calls served, by backend.", ("backend",))
        self.hist_latency = reg.histogram(
            "repro_serve_request_seconds",
            "Session-operation latency by operation and backend.",
            ("op", "backend"), buckets=DEFAULT_BUCKETS)
        self.hist_solve = reg.histogram(
            "repro_serve_solve_seconds",
            "Solve latency by coreset backend.",
            ("backend",), buckets=DEFAULT_BUCKETS)
        self.counter_grid_levels = reg.counter(
            "repro_serve_greedy_grid_levels_total",
            "Per-guess grids built by pruned radius searches.",
            ("backend",))
        self.gauge_up = reg.gauge(
            "repro_serve_ready",
            "1 when the server is accepting traffic, else 0.")
        self.gauge_up.set(0)

    # -- metrics hooks -----------------------------------------------------

    def observe_request(self, method: str, route: str, status: int,
                        op: "str | None", seconds: float) -> None:
        """Record one finished HTTP request."""
        self.counter_requests.labels(
            method=method, route=route, code=str(status)).inc()

    def observe_op(self, op: str, backend: str, seconds: "float | None" = None,
                   points: int = 0) -> None:
        """Record one session operation (latency + point throughput;
        solves additionally land in the solve-latency histogram)."""
        if seconds is not None:
            self.hist_latency.labels(op=op, backend=backend).observe(seconds)
            if op == "solve":
                self.hist_solve.labels(backend=backend).observe(seconds)
        if points:
            self.counter_points.labels(op=op, backend=backend).inc(points)

    def observe_greedy(self, backend: str, greedy_stats: dict) -> None:
        """Record a pruned radius search's per-guess grid builds."""
        v = int(greedy_stats.get("grid_builds", 0) or 0)
        if v:
            self.counter_grid_levels.labels(backend=backend).inc(v)

    def render_metrics(self) -> str:
        """The current scrape body."""
        return self.registry.render()

    # -- lifecycle ---------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether ``/readyz`` should succeed right now."""
        return self._ready.is_set()

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Recover the spool, bind, and serve in a daemon thread."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        self.recovered, self.skipped = self.manager.recover()
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), _Handler)
        self._httpd.app = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True)
        self._thread.start()
        self._write_ready_file()
        self._ready.set()
        self._started.set()
        self.gauge_up.set(1)
        return self

    def _write_ready_file(self) -> None:
        doc = {"host": self.config.host, "port": self.port,
               "pid": os.getpid(), "url": self.url,
               "recovered": self.recovered}
        tmp = f"{self.config.ready_file}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, self.config.ready_file)

    def stop(self) -> None:
        """Graceful shutdown: unready, drain, checkpoint every session."""
        self._ready.clear()
        self.gauge_up.set(0)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.manager.close()

    def __enter__(self) -> "ReproServer":
        """Context-manager start."""
        return self.start()

    def __exit__(self, *exc) -> None:
        """Context-manager stop."""
        self.stop()


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: ``python -m repro.serve``.

    Serves until SIGTERM/SIGINT, then shuts down gracefully
    (checkpointing every session to the spool).  A SIGKILL instead
    exercises the recovery path: restart with the same ``--spool-dir``
    and every session comes back as of its last checkpoint.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve k-center sessions over HTTP/JSON "
                    "(multi-tenant, snapshot-backed).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8137,
                        help="bind port (0 = ephemeral; read the ready file)")
    parser.add_argument("--spool-dir", default=None,
                        help="session snapshot directory (the durability "
                             "unit; default: a fresh temp dir)")
    parser.add_argument("--max-resident", type=int, default=64,
                        help="LRU cap on in-memory sessions")
    parser.add_argument("--checkpoint-every", type=int, default=4096,
                        help="per-session checkpoint cadence in points "
                             "(0 disables periodic checkpoints)")
    parser.add_argument("--ready-file", default=None,
                        help="where to write the JSON ready file "
                             "(default: <spool-dir>/server.json)")
    args = parser.parse_args(argv)

    config = ServeConfig(
        host=args.host, port=args.port, spool_dir=args.spool_dir,
        max_resident=args.max_resident,
        checkpoint_every=args.checkpoint_every or None,
        ready_file=args.ready_file,
    )
    server = ReproServer(config)
    stop = threading.Event()

    def _handle(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    server.start()
    if server.recovered:
        print(f"recovered {len(server.recovered)} session(s) from "
              f"{config.spool_dir}: {', '.join(server.recovered)}")
    for msg in server.skipped:
        print(f"skipped spool file: {msg}", file=sys.stderr)
    print(f"serving on {server.url} (spool: {config.spool_dir})",
          flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        print("shutting down: checkpointing sessions...", flush=True)
        server.stop()
    return 0
