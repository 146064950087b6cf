"""repro.server — a threaded HTTP/JSON serving layer over :mod:`repro.api`.

See :mod:`repro.server.http` for the endpoint catalog and the serving
discipline (bounded concurrency, in-flight coalescing, graceful drain), and
``docs/observability.md`` for the metric series the server exports.
"""

from repro.server.http import METRICS_CONTENT_TYPE, ReproServer, serve_http

__all__ = ["METRICS_CONTENT_TYPE", "ReproServer", "serve_http"]
