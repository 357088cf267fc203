"""Serve phase: the shipped query server in a child process, driven by
closed-loop clients, with every answer checked.

The server is ``python -m repro serve-cube <store>`` at its default
settings.  Each client keeps one request in flight: it sends its next
spec only after the previous answer has been read, so a slower server
receives less load.  No more clients — hence open connections — than
the host has cores.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from workloads import spec_key

PORT_LINE = re.compile(rb"on http://127\.0\.0\.1:(\d+)")
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


class ServerProcess:
    """``python -m repro serve-cube`` as a child process."""

    def __init__(self, root: str, store: str, log_path: str):
        self._log_path = log_path
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_PARALLELISM", None)
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-cube", store],
            cwd=root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            with open(self._log_path, "rb") as log:
                found = PORT_LINE.search(log.read())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        with open(self._log_path, "rb") as log:
            detail = log.read().decode(errors="replace").strip()
        raise RuntimeError(f"query server did not start: {detail[-500:]}")

    def stats(self) -> Dict:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """Interrupt the server (it shuts down cleanly) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class Sample:
    sent: float
    latency: float
    kind: str
    key: str
    status: int
    digest: str


class ConnectionGauge:
    """Counts HTTP connections open at once (the load generator's only
    way to open one is :meth:`open`)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.open_now = 0
        self.peak = 0

    def open(self, port: int) -> http.client.HTTPConnection:
        with self._lock:
            self.open_now += 1
            self.peak = max(self.peak, self.open_now)
        return http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )

    def closed(self) -> None:
        with self._lock:
            self.open_now -= 1


def post(port: int, spec: Dict, gauge: ConnectionGauge):
    """One ``POST /query``; returns ``(status, body bytes)``."""
    connection = gauge.open(port)
    try:
        connection.request(
            "POST", "/query", body=json.dumps(spec).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return -1, b""
    finally:
        connection.close()
        gauge.closed()


@dataclass
class LoadResult:
    samples: List[Sample]
    #: First body seen for each distinct ``(spec key, digest)`` pair.
    bodies: Dict[tuple, bytes]
    specs: Dict[str, Dict]
    wall: float
    clients: int
    peak_connections: int


def client_count(requested: int = 2) -> int:
    """Closed-loop clients to run: ``requested``, at most one per core."""
    return max(1, min(requested, os.cpu_count() or 1))


def run_closed_loop(
    port: int,
    streams: List[Iterator[Tuple[str, Dict]]],
    done: Callable[[int, int, float], bool],
) -> LoadResult:
    """One closed-loop client per ``(class, spec)`` stream, until
    ``done(head answers, tail answers, elapsed seconds)`` or until every
    stream is exhausted.

    The streams are consumed, not restarted, so a later call continues
    where this one stopped.
    """
    if len(streams) > (os.cpu_count() or 1):
        raise ValueError(
            f"{len(streams)} clients exceed the {os.cpu_count()} cores"
        )
    gauge = ConnectionGauge()
    samples: List[Sample] = []
    bodies: Dict[tuple, bytes] = {}
    specs: Dict[str, Dict] = {}
    lock = threading.Lock()
    stop = threading.Event()
    errors: List[BaseException] = []
    counts: Counter = Counter()
    started = time.perf_counter()

    def client(index: int) -> None:
        try:
            for kind, spec in streams[index]:
                key = spec_key(spec)
                sent = time.perf_counter()
                status, body = post(port, spec, gauge)
                latency = time.perf_counter() - sent
                digest = hashlib.sha1(body).hexdigest()
                with lock:
                    samples.append(Sample(
                        sent - started, latency, kind, key, status, digest
                    ))
                    specs.setdefault(key, spec)
                    bodies.setdefault((key, digest), body)
                    counts[kind] += 1
                    elapsed = time.perf_counter() - started
                    if done(counts["head"], counts["tail"], elapsed):
                        stop.set()
                if stop.is_set():
                    return
        except BaseException as error:  # re-raised after join
            errors.append(error)
            stop.set()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    samples.sort(key=lambda s: s.sent)
    return LoadResult(samples, bodies, specs, wall, len(streams), gauge.peak)


def wrong_answers(load: LoadResult, expected: Callable[[Dict], object]) -> int:
    """Requests answered 200 with a result that differs from ``expected``.

    ``expected(spec)`` is the in-memory answer; both sides go through
    JSON so tuples and lists compare alike.
    """
    verdicts: Dict[tuple, bool] = {}
    cache: Dict[str, object] = {}
    wrong = 0
    for sample in load.samples:
        if sample.status != 200:
            continue
        pair = (sample.key, sample.digest)
        if pair not in verdicts:
            if sample.key not in cache:
                cache[sample.key] = json.loads(
                    json.dumps(expected(load.specs[sample.key]))
                )
            try:
                body = json.loads(load.bodies[pair])
                verdicts[pair] = (
                    isinstance(body, dict)
                    and body.get("ok") is True
                    and body.get("result") == cache[sample.key]
                )
            except ValueError:
                verdicts[pair] = False
        wrong += not verdicts[pair]
    return wrong
