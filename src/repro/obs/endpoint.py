"""A stdlib-only background HTTP endpoint serving the metrics registry.

The serving roadmap turns the library into a long-lived process; a
long-lived process needs a scrape target.  :class:`MetricsEndpoint`
runs a ``ThreadingHTTPServer`` on a daemon thread and serves

* ``GET /metrics`` — the registry in Prometheus text format
  (:func:`repro.obs.exporter.render_prometheus`); ``?window=1`` swaps
  the quantile summaries for delta-since-last-scrape windows,
* ``GET /healthz`` — a small JSON liveness document (status, uptime,
  pid), the probe a supervisor points at.

Everything else is a JSON 404.  Subclasses mount more paths by
overriding :meth:`MetricsEndpoint._route` (and extend the health
document through :meth:`MetricsEndpoint._health`); the recommendation
service's front, :class:`repro.serving.service.ServiceEndpoint`, is
one.  ``port=0`` binds an ephemeral port (read it back from
:attr:`port` — the tests' idiom); the handler reads the registry
through its consistent ``snapshot()``, so scrapes during a training
sweep are never torn.

Usage::

    from repro.obs.endpoint import MetricsEndpoint

    with MetricsEndpoint(port=9100) as ep:      # starts on enter
        ...                                     # train / serve
    # or explicitly: ep = MetricsEndpoint(); ep.start(); ... ep.stop()

The CLI exposes the same thing as ``repro-als serve-metrics`` and via
``--metrics-port`` on long-running commands.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.exporter import render_prometheus
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["PROMETHEUS_CONTENT_TYPE", "MetricsEndpoint"]

#: Content type of the text exposition format, version pinned as the
#: format spec requires.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsEndpoint:
    """Background ``/metrics`` + ``/healthz`` server over one registry."""

    #: Paths listed in a 404 body.
    endpoints: tuple[str, ...] = ("/metrics", "/healthz")
    #: Path :meth:`url` points at by default.
    default_path = "/metrics"
    thread_name = "repro-metrics-endpoint"

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry or get_registry()
        self.host = host
        self._requested_port = int(port)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    def url(self, path: str | None = None) -> str:
        return f"http://{self.host}:{self.port}{path or self.default_path}"

    def start(self) -> "MetricsEndpoint":
        if self._server is not None:
            return self
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                endpoint._handle(self)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # request logs do not belong on the process's stderr

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None
        self._started_at = None

    def __enter__(self) -> "MetricsEndpoint":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(request.path)
        path = parsed.path
        params = parse_qs(parsed.query)
        if path == "/metrics":
            windowed = params.get("window", ["0"])[0] in ("1", "true", "yes")
            source = (
                self.registry.window_snapshot() if windowed else self.registry
            )
            body = render_prometheus(source).encode("utf-8")
            self._respond(request, 200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/healthz":
            self._respond_json(request, 200, self._health())
        elif not self._route(request, path, params):
            self._respond_json(request, 404, {
                "status": "not found", "path": path,
                "endpoints": list(self.endpoints),
            })

    def _health(self) -> dict:
        """The ``/healthz`` document."""
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": round(uptime, 3),
        }

    def _route(
        self, request: BaseHTTPRequestHandler, path: str, params: dict
    ) -> bool:
        """Answer a path beyond ``/metrics`` and ``/healthz``; False = 404."""
        return False

    @staticmethod
    def _respond(
        request: BaseHTTPRequestHandler, code: int, ctype: str, body: bytes
    ) -> None:
        request.send_response(code)
        request.send_header("Content-Type", ctype)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)

    def _respond_json(
        self, request: BaseHTTPRequestHandler, code: int, payload: dict
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._respond(request, code, "application/json; charset=utf-8", body)
