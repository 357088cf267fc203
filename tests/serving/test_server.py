"""The query server: wire protocol, admission control, deadlines."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro import ClusterConfig, SPCube
from repro.cubing import sequential_cube
from repro.datagen import gen_binomial
from repro.serving import CubeServer, CubeStore, StoredCubeView, execute_query
from repro.serving import server as server_module


def _request(port, path, body=None):
    """One HTTP round-trip; returns (status, decoded JSON body)."""
    url = f"http://127.0.0.1:{port}{path}"
    if body is None:
        req = urllib.request.Request(url)
    else:
        req = urllib.request.Request(
            url, data=json.dumps(body).encode(), method="POST"
        )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _raw_post(port, content_length):
    """POST /query with a hand-written Content-Length and no body; the
    client keeps its side open, so a server that waits for the body
    shows up as a socket timeout here.  Returns (status, JSON body)."""
    head = (
        "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(head.encode("ascii"))
        reply = b""
        try:
            while b"\r\n\r\n" not in reply or not reply.endswith(b"}"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                reply += chunk
        except socket.timeout:
            pytest.fail(f"no reply within 5 s for {content_length!r}")
    assert reply, f"empty reply for Content-Length {content_length!r}"
    status_line, _, rest = reply.partition(b"\r\n")
    body = rest.partition(b"\r\n\r\n")[2]
    return int(status_line.split()[1]), json.loads(body)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    rel = gen_binomial(300, 0.4, seed=9)
    run = SPCube(ClusterConfig(num_machines=4)).compute(rel)
    path = str(tmp_path_factory.mktemp("serve") / "cube.store")
    CubeStore.write(run.cube, path, aggregate="count")
    return path


@pytest.fixture
def view(store_path):
    with StoredCubeView.open(store_path) as v:
        yield v


@pytest.fixture
def server(view):
    with CubeServer(view, workers=2, queue_depth=4, port=0).start() as srv:
        yield srv


class TestWireProtocol:
    def test_healthz(self, server):
        assert _request(server.port, "/healthz") == (200, {"ok": True})

    def test_answers_match_execute_query(self, server, view):
        for spec in [
            {"op": "total"},
            {"op": "rollup", "dimensions": ["a1", "a3"]},
            {"op": "top", "dimensions": ["a1"], "k": 3},
            {"op": "pivot", "row": "a1", "column": "a2"},
            {"op": "cuboid_sizes"},
        ]:
            status, body = _request(server.port, "/query", spec)
            assert status == 200 and body["ok"]
            # JSON round-trips lists, so compare against the re-decoded
            # oracle rather than raw tuples.
            oracle = json.loads(json.dumps(execute_query(view, spec)))
            assert body["result"] == oracle

    def test_unknown_dimension_is_400_not_retriable(self, server):
        status, body = _request(
            server.port, "/query", {"op": "rollup", "dimensions": ["bogus"]}
        )
        assert status == 400
        assert body["retriable"] is False
        assert "unknown dimension" in body["error"]

    def test_unknown_op_is_400(self, server):
        status, body = _request(server.port, "/query", {"op": "dice"})
        assert status == 400
        assert "unknown op" in body["error"]

    def test_invalid_json_body_is_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/query",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        assert exc.value.code == 400

    @pytest.mark.parametrize(
        "content_length",
        ["abc", "-1", "1.5", str(server_module.MAX_BODY_BYTES + 1)],
    )
    def test_bad_content_length_is_typed_400(self, server, content_length):
        status, body = _raw_post(server.port, content_length)
        assert status == 400
        assert body["ok"] is False
        assert body["retriable"] is False
        assert "Content-Length" in body["error"]
        # The handler is free again: the server still answers.
        assert _request(server.port, "/healthz") == (200, {"ok": True})

    def test_stalled_body_is_cut_off(self, view, monkeypatch):
        """A client that announces a body and never sends it cannot pin
        a handler thread: the read times out and the connection drops."""
        monkeypatch.setattr(server_module, "READ_TIMEOUT", 0.5)
        with CubeServer(view, workers=1, port=0).start() as srv:
            head = b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{"
            with socket.create_connection(
                ("127.0.0.1", srv.port), timeout=5
            ) as conn:
                conn.sendall(head)
                # Closed by the server (b"") well before our own timeout.
                assert conn.recv(65536) == b""

    def test_unknown_path_is_404(self, server):
        assert _request(server.port, "/nope")[0] == 404

    def test_stats_exposes_counters_and_config(self, server):
        _request(server.port, "/query", {"op": "total"})
        status, body = _request(server.port, "/stats")
        assert status == 200
        assert body["counters"]["serving.requests"] >= 1
        assert body["workers"] == 2
        assert body["queue_depth"] == 4
        assert body["store"]["groups"] > 0

    def test_dice_is_not_a_wire_op(self):
        assert "dice" not in server_module.WIRE_OPS


class TestAdmissionControl:
    def test_exhausted_slots_shed_with_503(self, server):
        # Drain every admission slot so the next request is refused
        # deterministically — no racing threads required.
        taken = 0
        while server._slots.acquire(blocking=False):
            taken += 1
        assert taken == server.workers + server.queue_depth
        try:
            status, body = _request(server.port, "/query", {"op": "total"})
        finally:
            for _ in range(taken):
                server._slots.release()
        assert status == 503
        assert body == {
            "ok": False,
            "error": "overloaded",
            "retriable": True,
        }
        assert server.counters.value("serving.shed") == 1
        # After slots return, service resumes.
        assert _request(server.port, "/query", {"op": "total"})[0] == 200

    def test_deadline_exceeded_is_504_retriable(
        self, view, monkeypatch
    ):
        import time

        finished = {"done": False}

        def slow_execute(view_, spec):
            time.sleep(0.5)
            finished["done"] = True
            return 0

        monkeypatch.setattr(server_module, "execute_query", slow_execute)
        with CubeServer(view, workers=1, deadline=0.05, port=0).start() as srv:
            status, body = _request(srv.port, "/query", {"op": "total"})
            assert status == 504
            assert body["error"] == "deadline-exceeded"
            assert body["retriable"] is True
            assert srv.counters.value("serving.deadline_exceeded") == 1
            # The slot is reclaimed when the worker finishes, not when
            # the deadline fires: wait out the sleeper, then reuse it.
            deadline = time.time() + 5
            while not finished["done"] and time.time() < deadline:
                time.sleep(0.02)
            assert finished["done"]

    def test_config_validation(self, view):
        with pytest.raises(ValueError, match="workers"):
            CubeServer(view, workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            CubeServer(view, queue_depth=-1)
        with pytest.raises(ValueError, match="deadline"):
            CubeServer(view, deadline=0)

    def test_close_before_serve_does_not_hang(self, view):
        # BaseServer.shutdown() deadlocks if serve_forever never ran;
        # close() must special-case the never-started server.
        server = CubeServer(view, port=0)
        server.close()


class TestServerOverRetailCube:
    def test_string_dimensions_roundtrip(self, retail_relation, tmp_path):
        cube = sequential_cube(retail_relation)
        path = str(tmp_path / "retail.store")
        CubeStore.write(cube, path, aggregate="count")
        with StoredCubeView.open(path) as view:
            with CubeServer(view, port=0).start() as srv:
                status, body = _request(
                    srv.port,
                    "/query",
                    {"op": "slice", "fixed": {"city": "Rome"}},
                )
                assert status == 200
                groups = dict(
                    (tuple(values), value)
                    for values, value in body["result"]
                )
                assert groups[("keyboard", 2009)] == 2
