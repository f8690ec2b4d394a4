"""A stdlib-only metrics endpoint for the service tier.

No aiohttp, no third-party web framework: a
:class:`http.server.ThreadingHTTPServer` running in a daemon thread
serves the service's Prometheus text exposition.  Three routes:

- ``GET /metrics``  — ``Service.render_metrics()`` (Prometheus 0.0.4 text)
- ``GET /healthz``  — load-aware health from ``Service.health()``:
  ``ok`` (200) nominal, ``degraded`` (200) serving at a brownout level
  or with open group breakers, ``overloaded`` (503) shedding, and
  ``closed`` (503) once stopped
- ``GET /stats``    — the raw ``Service.stats()`` snapshot as JSON

Usage::

    server = serve_metrics(service, port=0)   # port=0: pick a free port
    ...                                        # scrape http://host:server.port/metrics
    server.close()

``http.server`` (and the ``email`` and ``http.client`` modules it pulls
in) is imported when a server starts, not with :mod:`repro.service`.
"""

from __future__ import annotations

import json
import threading

__all__ = ["MetricsServer", "serve_metrics"]

_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _make_handler(service):
    from http.server import BaseHTTPRequestHandler

    class _Handler(BaseHTTPRequestHandler):
        def log_message(self, *args) -> None:  # silence per-request stderr
            pass

        def _send(self, status: int, body: str, content_type: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                self._send(200, service.render_metrics(), _CONTENT_TYPE)
            elif path == "/healthz":
                health = getattr(service, "health", None)
                if health is not None:
                    state = health()
                    self._send(
                        state.get("http", 200),
                        state.get("status", "ok") + "\n",
                        "text/plain; charset=utf-8",
                    )
                elif getattr(service, "_closed", True):
                    self._send(503, "closed\n", "text/plain; charset=utf-8")
                else:
                    self._send(200, "ok\n", "text/plain; charset=utf-8")
            elif path == "/stats":
                body = json.dumps(service.stats(), default=_jsonable, indent=2)
                self._send(200, body + "\n", "application/json; charset=utf-8")
            else:
                self._send(404, "not found\n", "text/plain; charset=utf-8")

    return _Handler


def _jsonable(value):
    """JSON fallback for numpy scalars/arrays inside stats snapshots."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return str(value)


class MetricsServer:
    """A running metrics endpoint; close it when the scrape target retires."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        from http.server import ThreadingHTTPServer

        self._httpd = ThreadingHTTPServer((host, port), _make_handler(service))
        self._httpd.daemon_threads = True
        self.host = host
        #: The bound port (useful with ``port=0``: the OS picks a free one).
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_metrics(service, host: str = "127.0.0.1", port: int = 0) -> MetricsServer:
    """Expose ``service``'s metrics over HTTP; returns the running server."""
    return MetricsServer(service, host=host, port=port)
