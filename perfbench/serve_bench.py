"""Single-process ``repro serve`` lifecycle and the two load generators.

The server runs as its own process with a hermetic environment; the
load generators are threads of the benchmark process, one HTTP
connection per request (the server's ``Connection: close`` framing).
Responses are kept as raw bytes and decoded and checked only after the
timed region.
"""

from __future__ import annotations

import http.client
import json
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import hermetic_env, peak_rss_mb

#: Bound on one request; a request that exceeds it counts as failed.
REQUEST_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0
#: Server settings of the benchmark.  The estimated-wait shed bound is
#: lifted because the analytic cycle price of ``pi_digits`` is ~170x
#: its wall time (20,000 digits: ~103 s estimated, ~0.6 s measured), so
#: with the default 10 s bound every pi_digits job above ~8,000 digits
#: is refused even at an empty queue.  See README.md.
SERVER_ENV = {"REPRO_SERVE_MAX_WAIT_MS": "1e8"}


class Server:
    """One ``python -m repro serve --port 0`` process."""

    def __init__(self, run_dir: Path, trace: bool = False) -> None:
        self.run_dir = run_dir
        self._stderr = open(run_dir / "server.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=run_dir, env={**hermetic_env(run_dir, trace), **SERVER_ENV},
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True)
        try:
            line = _read_line(self.proc, BOOT_TIMEOUT_S)
            if "listening on" not in line:
                raise RuntimeError("unexpected server banner %r" % line)
            self.port = int(line.rsplit(":", 1)[1])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def get(self, path: str) -> Tuple[int, bytes]:
        return self._request("GET", path, None)

    def post(self, body: bytes) -> Tuple[int, bytes]:
        return self._request("POST", "/v1/job", body)

    def _request(self, method: str, path: str,
                 body: Optional[bytes]) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> Dict[str, float]:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError("GET /metrics returned %d" % status)
        values = {}
        for line in body.decode("utf-8").splitlines():
            key, _, raw = line.rpartition(" ")
            if key and not line.startswith("#"):
                values[key] = float(raw)
        return values

    def traces(self) -> List[Dict[str, Any]]:
        status, body = self.get("/traces")
        if status != 200:
            raise RuntimeError("GET /traces returned %d" % status)
        return json.loads(body)["traces"]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Graceful SIGTERM drain; killed if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError("no output from %s within %.0f s"
                           % (proc.args, timeout))
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("%s exited with %s" % (proc.args, proc.wait()))
    return line.strip()


def wait_for_line(proc: subprocess.Popen, expected: str,
                  timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while True:
        line = _read_line(proc, max(0.0, deadline - time.monotonic()))
        if line == expected:
            return


def encode(jobs: List[Dict[str, Any]]) -> List[bytes]:
    return [json.dumps(job).encode("utf-8") for job in jobs]


class Record:
    """One request: times in seconds from the start of the load."""

    __slots__ = ("due", "sent", "done", "status", "body", "lag")

    def __init__(self, due, sent, done, status, body, lag) -> None:
        self.due, self.sent, self.done = due, sent, done
        self.status, self.body, self.lag = status, body, lag


def _send(server: Server, body: bytes) -> Tuple[int, bytes]:
    try:
        return server.post(body)
    except (OSError, http.client.HTTPException) as error:
        return 0, str(error).encode("utf-8", "replace")


def open_loop(server: Server, bodies: List[bytes], due: List[float],
              connections: int) -> List[Record]:
    """Send each body at its due time over at most ``connections``
    concurrent connections.

    ``lag`` is the generator's own delay: from when a request could
    have gone out (due, and a connection free) to when it did.
    """
    records: List[Optional[Record]] = [None] * len(bodies)
    cursor = [0]
    lock = threading.Lock()
    clock = time.perf_counter
    start = clock() + 0.05

    def sender() -> None:
        free_at = start
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(bodies):
                return
            due_at = start + due[index]
            pause = due_at - clock()
            if pause > 0:
                time.sleep(pause)
            sent = clock()
            status, body = _send(server, bodies[index])
            done = clock()
            records[index] = Record(due[index], sent - start, done - start,
                                    status, body,
                                    sent - max(due_at, free_at))
            free_at = done

    _run_threads(sender, connections)
    return records


def closed_loop(server: Server, bodies: List[bytes], clients: int,
                seconds: float, block: int) -> List[Record]:
    """``clients`` callers, each sending its next request when the last
    one is answered.  After ``seconds`` they stop at the next multiple
    of ``block`` requests, so a run holds whole blocks of the mix."""
    records: List[Optional[Record]] = [None] * len(bodies)
    cursor = [0]
    lock = threading.Lock()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds

    def caller() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index % block == 0 and clock() >= deadline:
                    return
                cursor[0] += 1
            if index >= len(bodies):
                raise RuntimeError("serve_large ran out of generated jobs")
            sent = clock()
            status, body = _send(server, bodies[index])
            done = clock()
            records[index] = Record(sent - start, sent - start,
                                    done - start, status, body, 0.0)

    _run_threads(caller, clients)
    return [record for record in records if record is not None]


def _run_threads(target, count: int) -> None:
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as error:  # re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TracePoller:
    """Collects ``/traces`` while a traced server runs.

    The server keeps only its last 1024 traces, so they are read every
    ``interval`` seconds and merged by request id.
    """

    def __init__(self, server: Server, interval: float = 1.0) -> None:
        self.server = server
        self.interval = interval
        self.traces: Dict[str, Dict[str, Any]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _poll(self) -> None:
        for trace in self.server.traces():
            self.traces[trace["id"]] = trace

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._poll()

    def finish(self) -> Dict[str, Dict[str, Any]]:
        self._stop.set()
        self._thread.join()
        self._poll()
        return self.traces
