"""The cube query server: bounded admission, deadlines, load shedding.

``python -m repro serve-cube cube.store`` runs an HTTP front end over a
:class:`~repro.serving.view.StoredCubeView`.  The plumbing follows the
``metrics-export --serve`` exporter (bind 127.0.0.1, port 0 picks a free
port, the caller owns shutdown) but the execution model is a serving
one:

* queries run on a fixed :class:`~concurrent.futures.ThreadPoolExecutor`
  of ``workers`` threads;
* admission is bounded by a semaphore of ``workers + queue_depth``
  slots — a request that finds no slot is **shed immediately** with
  HTTP 503 and a typed, retriable JSON error
  (``{"ok": false, "error": "overloaded", "retriable": true}``) instead
  of queueing without bound and stalling every client behind it;
* each admitted query gets a **per-query deadline**: when the worker
  has not answered in time the caller receives HTTP 504
  (``"error": "deadline-exceeded"``, retriable) while the worker's slot
  is reclaimed only when the computation actually finishes — shedding
  decisions therefore see the true backlog, not an optimistic one;
* malformed or unanswerable queries (unknown op, unknown dimension,
  non-materializable cuboid) return HTTP 400 with ``"retriable": false``
  — retrying a query the store cannot answer would only burn slots;
* so does bad request framing: a ``Content-Length`` that is not a
  non-negative integer or exceeds :data:`MAX_BODY_BYTES` is refused
  before any body byte is read, and a client that stalls mid-body is
  cut off after :data:`READ_TIMEOUT` seconds, so no request can pin a
  handler thread.

Wire protocol: ``POST /query`` with a JSON body (see
:func:`execute_query` for the op shapes), ``GET /stats`` for the shared
``serving.*`` counters, ``GET /healthz`` for liveness.  Group keys are
tuples in Python and become sorted ``[values-list, aggregate]`` pairs in
JSON, so responses are deterministic byte-for-byte for a deterministic
store.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, List, Optional

from ..query.view import QueryError
from .store import StoreError
from .view import StoredCubeView

DEFAULT_WORKERS = 4
DEFAULT_QUEUE_DEPTH = 16
DEFAULT_DEADLINE = 5.0

#: Largest request body accepted; wire queries are a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Socket read timeout per request, in seconds.
READ_TIMEOUT = 10.0

#: Ops answerable over the wire.  ``dice`` is deliberately absent: its
#: predicates are Python callables and deserializing code is not a
#: feature a query server should have.
WIRE_OPS = (
    "rollup",
    "total",
    "slice",
    "drilldown",
    "top",
    "pivot",
    "cuboid_sizes",
)


def _jsonable_groups(groups: Dict) -> List:
    """``{tuple: value}`` → deterministic ``[[values, value], ...]``."""
    return [
        [list(values) if isinstance(values, tuple) else values, value]
        for values, value in sorted(
            groups.items(), key=lambda item: repr(item[0])
        )
    ]


def execute_query(view: StoredCubeView, spec: Dict) -> object:
    """Run one wire-format query ``spec`` against ``view``.

    Op shapes::

        {"op": "rollup", "dimensions": ["name", "year"]}
        {"op": "total"}
        {"op": "slice", "fixed": {"city": "Rome"}}
        {"op": "drilldown", "group": {"name": "laptop"}, "into": "city"}
        {"op": "top", "dimensions": ["name"], "k": 5}
        {"op": "pivot", "row": "name", "column": "year"}
        {"op": "cuboid_sizes"}

    Returns a JSON-serializable result; raises :class:`QueryError` for
    anything malformed or unanswerable.
    """
    if not isinstance(spec, dict):
        raise QueryError("query must be a JSON object")
    op = spec.get("op")
    if op not in WIRE_OPS:
        raise QueryError(
            f"unknown op {op!r}; supported: {', '.join(WIRE_OPS)}"
        )
    try:
        if op == "rollup":
            dims = spec.get("dimensions", [])
            return _jsonable_groups(view.rollup(*dims))
        if op == "total":
            return view.total()
        if op == "slice":
            fixed = spec.get("fixed")
            if not isinstance(fixed, dict):
                raise QueryError("slice needs a 'fixed' object")
            return _jsonable_groups(view.slice(**fixed))
        if op == "drilldown":
            group = spec.get("group")
            into = spec.get("into")
            if not isinstance(group, dict) or not isinstance(into, str):
                raise QueryError(
                    "drilldown needs a 'group' object and an 'into' name"
                )
            return _jsonable_groups(view.drilldown(group, into))
        if op == "top":
            dims = spec.get("dimensions", [])
            k = spec.get("k", 10)
            if not isinstance(k, int):
                raise QueryError("top's 'k' must be an integer")
            return [
                [list(values), value] for values, value in view.top(dims, k)
            ]
        if op == "pivot":
            row, column = spec.get("row"), spec.get("column")
            if not isinstance(row, str) or not isinstance(column, str):
                raise QueryError("pivot needs 'row' and 'column' names")
            table = view.pivot(row, column)
            return [
                [r, _jsonable_groups(columns)]
                for r, columns in sorted(
                    table.items(), key=lambda item: repr(item[0])
                )
            ]
        # cuboid_sizes
        return [
            [list(names), count]
            for names, count in sorted(view.cuboid_sizes().items())
        ]
    except TypeError as exc:
        # Wrong-typed spec fields (e.g. dimensions: 3) surface here.
        raise QueryError(str(exc)) from None


def _body_length(header: Optional[str]) -> Optional[int]:
    """The request body length, or ``None`` when the header is unusable.

    A missing header means an empty body; anything but a decimal
    integer in ``[0, MAX_BODY_BYTES]`` is refused.
    """
    if header is None:
        return 0
    header = header.strip()
    if not (header.isascii() and header.isdigit()):
        return None
    length = int(header)
    return length if length <= MAX_BODY_BYTES else None


class CubeServer:
    """A bound, not-yet-serving query server over a stored cube.

    >>> server = CubeServer(view, port=0)            # doctest: +SKIP
    >>> server.port                                  # doctest: +SKIP
    >>> server.serve_forever()                       # blocks; doctest: +SKIP

    Tests drive it with ``start()``/``close()`` around HTTP requests at
    ``http://127.0.0.1:{server.port}``, exactly like the metrics
    exporter's ``build_metrics_server``.
    """

    def __init__(
        self,
        view: StoredCubeView,
        workers: int = DEFAULT_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        deadline: float = DEFAULT_DEADLINE,
        port: int = 0,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if queue_depth < 0:
            raise ValueError("queue_depth cannot be negative")
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.view = view
        self.workers = workers
        self.queue_depth = queue_depth
        self.deadline = deadline
        self.counters = view.counters
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="cube-query"
        )
        self._slots = threading.Semaphore(workers + queue_depth)
        self._httpd = self._build_httpd(port)
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def port(self) -> int:
        return self._httpd.server_port

    # -- request handling ----------------------------------------------------

    def _handle_query(self, spec: Dict) -> Dict:
        """Admission + execution of one query; returns (status, body)."""
        if not self._slots.acquire(blocking=False):
            self.counters.bump("serving.shed")
            return {
                "status": 503,
                "body": {
                    "ok": False,
                    "error": "overloaded",
                    "retriable": True,
                },
            }
        self.counters.bump("serving.requests")
        future = self._pool.submit(execute_query, self.view, spec)
        # The slot is freed when the computation finishes — not when the
        # deadline fires — so admission always reflects real backlog.
        future.add_done_callback(lambda _f: self._slots.release())
        try:
            result = future.result(timeout=self.deadline)
        except FutureTimeout:
            self.counters.bump("serving.deadline_exceeded")
            return {
                "status": 504,
                "body": {
                    "ok": False,
                    "error": "deadline-exceeded",
                    "retriable": True,
                },
            }
        except (QueryError, StoreError) as exc:
            self.counters.bump("serving.query_errors")
            return {
                "status": 400,
                "body": {
                    "ok": False,
                    "error": str(exc),
                    "retriable": False,
                },
            }
        return {"status": 200, "body": {"ok": True, "result": result}}

    def stats(self) -> Dict:
        return {
            "counters": self.counters.to_dict(),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "deadline": self.deadline,
            "store": {
                "path": self.view.store.path,
                "bytes": self.view.store.store_bytes,
                "cuboids": len(self.view.store.masks),
                "groups": self.view.store.total_groups,
            },
        }

    def _build_httpd(self, port: int):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class Handler(BaseHTTPRequestHandler):
            timeout = READ_TIMEOUT

            def _reply(self, status: int, body: Dict) -> None:
                payload = json.dumps(body, sort_keys=True).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):  # noqa: N802 - http.server API
                if self.path == "/healthz":
                    self._reply(200, {"ok": True})
                elif self.path == "/stats":
                    self._reply(200, server.stats())
                else:
                    self._reply(
                        404,
                        {"ok": False, "error": "not found",
                         "retriable": False},
                    )

            def do_POST(self):  # noqa: N802 - http.server API
                if self.path != "/query":
                    self._reply(
                        404,
                        {"ok": False, "error": "not found",
                         "retriable": False},
                    )
                    return
                length = _body_length(self.headers.get("Content-Length"))
                if length is None:
                    self._reply(
                        400,
                        {"ok": False,
                         "error": "Content-Length must be an integer in "
                                  f"[0, {MAX_BODY_BYTES}]",
                         "retriable": False},
                    )
                    return
                try:
                    spec = json.loads(self.rfile.read(length) or b"{}")
                except ValueError:
                    self._reply(
                        400,
                        {"ok": False, "error": "body is not valid JSON",
                         "retriable": False},
                    )
                    return
                outcome = server._handle_query(spec)
                self._reply(outcome["status"], outcome["body"])

            def log_message(self, *_args):
                pass

        return ThreadingHTTPServer(("127.0.0.1", port), Handler)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "CubeServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        if self._serving:
            # shutdown() waits on serve_forever's exit handshake, so it
            # must only run once the serve loop has actually started.
            self._httpd.shutdown()
        self._httpd.server_close()
        self._pool.shutdown(wait=False)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "CubeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
