"""A live Prometheus scrape endpoint over the active metrics registry.

``repro obs serve`` (and the ``--serve`` flag on ``simulate`` and
``chaos``) starts a :class:`MetricsServer`: a stdlib
``ThreadingHTTPServer`` on a daemon thread that answers ``GET /metrics``
with the text exposition of a :class:`~repro.obs.metrics.MetricsRegistry`
— so an operator (or the CI smoke job's ``urllib`` one-liner) can scrape
latency histograms and counters *while* a long simulate or chaos run is
still in flight, instead of waiting for the final ``--metrics`` file.

The server resolves its registry at request time: either the one pinned
at construction, or whatever registry is currently installed via
:func:`repro.obs.metrics.collecting`.  No third-party dependencies, no
background work between requests, and a scrape holds the registry lock
only while it copies one :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`,
so every exposition it serves is consistent even while the run observes.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import MetricsRegistry

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serve ``GET /metrics`` for a registry on a daemon thread.

    Parameters
    ----------
    registry:
        The registry to expose.  When None, each request reads the
        registry active at that moment (``metrics.active_registry()``),
        which is what the CLI ``--serve`` flag wants: the endpoint
        outlives no run and always shows the live collectors.
    host / port:
        Bind address; port 0 picks an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    def _render(self) -> str:
        registry = self.registry
        if registry is None:
            registry = metrics_mod.active_registry()
        if registry is None:
            return ""
        return registry.to_prometheus()

    def start(self) -> "MetricsServer":
        """Bind and start answering scrapes; returns self."""
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                    self.send_error(404, "only /metrics is served")
                    return
                body = server._render().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: object) -> None:
                pass  # scrapes must not spam the run's stdout

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
