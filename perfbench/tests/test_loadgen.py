"""The closed-loop load generator against a stub HTTP server."""

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from serve import client_count, run_closed_loop, wrong_answers


class _Stub:
    """Answers every query with ``{"ok": true, "result": 1}`` and counts
    the requests in flight at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.open_now = 0
        self.peak = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802
                with stub.lock:
                    stub.open_now += 1
                    stub.peak = max(stub.peak, stub.open_now)
                self.rfile.read(int(self.headers["Content-Length"]))
                time.sleep(0.001)
                body = json.dumps({"ok": True, "result": 1}).encode()
                with stub.lock:
                    stub.open_now -= 1
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *_args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def _stream(client):
    """Alternating head and distinct tail specs."""
    j = client
    while True:
        yield "head", {"op": "total"}
        yield "tail", {"op": "top", "dimensions": ["a1"], "k": j + 1}
        j += 2


@pytest.mark.parametrize("requested", [1, 2, 16])
def test_never_more_connections_than_cores(requested):
    cores = os.cpu_count() or 1
    clients = client_count(requested)
    assert clients == min(requested, cores)
    with _Stub() as stub:
        load = run_closed_loop(
            stub.httpd.server_port, [_stream(c) for c in range(clients)],
            done=lambda heads, tails, elapsed: heads + tails >= 200,
        )
    assert load.clients == clients
    assert load.peak_connections <= cores
    assert stub.peak <= cores
    assert len(load.samples) >= 200
    assert all(sample.status == 200 for sample in load.samples)


def test_more_clients_than_cores_refused():
    cores = os.cpu_count() or 1
    with pytest.raises(ValueError):
        run_closed_loop(
            1, [_stream(c) for c in range(cores + 1)],
            done=lambda heads, tails, elapsed: True,
        )


def test_finite_stream_ends_the_loop_and_answers_are_checked():
    specs = [{"op": "total"}, {"op": "top", "dimensions": ["a1"], "k": 2}]
    with _Stub() as stub:
        load = run_closed_loop(
            stub.httpd.server_port, [(("warm_up", s) for s in specs)],
            done=lambda heads, tails, elapsed: False,
        )
    assert [s.kind for s in load.samples] == ["warm_up", "warm_up"]
    assert all(s.status == 200 for s in load.samples)
    assert wrong_answers(load, lambda spec: 1) == 0
    assert wrong_answers(load, lambda spec: 2) == 2
