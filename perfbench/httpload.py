"""The HTTP side of perfbench: the server process and the load generator.

The server runs in its own process (``server_main.py``); the load comes
from threads of the benchmark process, one keep-alive connection each,
never more than two.  Open-loop latency is timed from each request's
due time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import kg
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """One spawned ``server_main.py``; ``setup_wall_s`` is spawn to the
    first 200 on ``/healthz``, ``ready`` the server's first output line
    (with ``setup_cpu_s``, the server's CPU time until then)."""

    def __init__(self, snapshot: str, config: dict, trace: bool,
                 log_path: Path):
        self.report: dict = {}
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server_main.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.process.stdin.write(json.dumps(
                {"snapshot": snapshot, "config": config, "trace": trace}
            ).encode("utf-8"))
            self.process.stdin.close()
            ready, _w, _x = select.select(
                [self.process.stdout], [], [], BOOT_TIMEOUT_S
            )
            line = self.process.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(
                    f"server did not report its port (see {log_path})"
                )
            self.ready = json.loads(line)
            self.port = self.ready["port"]
            while True:
                status, _body = self.get("/healthz")
                if status == 200:
                    break
                if time.perf_counter() - started > BOOT_TIMEOUT_S:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)
            self.setup_wall_s = time.perf_counter() - started
        except BaseException:
            self.kill()
            raise

    @property
    def address(self) -> tuple[str, int]:
        return "127.0.0.1", self.port

    def cpu_seconds(self) -> float:
        """The server process's CPU seconds so far (user + system)."""
        return self._ask(signal.SIGUSR1, "cpu_s")

    def kernel_seconds(self) -> list[float]:
        """CPU seconds of calibration kernel runs made in the server now
        (see ``calib.py``); call it only while no request is in flight."""
        return self._ask(signal.SIGUSR2, "kernel_s")

    def _ask(self, signum: int, key: str):
        self.process.send_signal(signum)
        ready, _w, _x = select.select(
            [self.process.stdout], [], [], BOOT_TIMEOUT_S
        )
        line = self.process.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"server did not report {key}")
        return json.loads(line)[key]

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            connection.close()

    def stop(self) -> dict:
        """SIGTERM, wait for a clean exit, return the exit report."""
        try:
            self.process.send_signal(signal.SIGTERM)
            output = self.process.stdout.read()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        lines = output.decode("utf-8").strip().splitlines()
        if self.process.returncode != 0 or not lines:
            raise RuntimeError(
                f"server exited with {self.process.returncode}"
            )
        self.report = json.loads(lines[-1])
        return self.report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=STOP_TIMEOUT_S)
        for stream in (self.process.stdout, self.process.stdin):
            if stream is not None and not stream.closed:
                stream.close()
        self._log.close()


@dataclass
class Outcome:
    """One request as the generator saw it."""

    kind: str
    due: float        # absolute perf_counter time it was due
    sent: float
    done: float
    status: int       # 0 = transport error
    body: bytes
    request: kg.Request

    @property
    def latency_s(self) -> float:
        """From due time to the last response byte."""
        return self.done - self.due

    @property
    def lateness_s(self) -> float:
        return self.sent - self.due


class Client:
    """A keep-alive connection that reconnects after transport errors
    and, when traced, tags each request with a request id."""

    _rids = itertools.count(1)

    def __init__(self, address: tuple[str, int],
                 recorder: SpanRecorder | None = None):
        self.address = address
        self.recorder = recorder
        self.connection: http.client.HTTPConnection | None = None

    def post(self, request: kg.Request) -> tuple[int, bytes, float, float]:
        path = request.path
        rid = None
        if self.recorder is not None:
            rid = f"r{next(self._rids)}"
            path = f"{path}?rid={rid}"
        sent = time.perf_counter()
        try:
            if self.connection is None:
                self.connection = http.client.HTTPConnection(
                    *self.address, timeout=60
                )
            self.connection.request(
                "POST", path, body=request.body,
                headers={"Content-Type": "application/json"},
            )
            response = self.connection.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            status, body = 0, b""
        done = time.perf_counter()
        if rid is not None:
            self.recorder.rows.append(
                (rid, None, f"client.{request.kind}", sent, done, rid)
            )
        return status, body, sent, done

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def run_threads(targets) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(address, schedule: list[kg.Request], start_at: float,
              connections: int, recorder: SpanRecorder | None = None,
              stop: threading.Event | None = None) -> list[Outcome]:
    """Send ``schedule`` at its due times over ``connections``
    connections; a request goes out on the first free one.  Sending
    ends early once ``stop`` is set."""
    outcomes: list[Outcome] = []
    cursor = itertools.count()

    def worker() -> None:
        client = Client(address, recorder)
        try:
            while True:
                index = next(cursor)
                if index >= len(schedule):
                    return
                request = schedule[index]
                due = start_at + request.due_s
                pause = due - time.perf_counter()
                if stop is not None:
                    if stop.wait(max(0.0, pause)):
                        return
                elif pause > 0:
                    time.sleep(pause)
                status, body, sent, done = client.post(request)
                outcomes.append(Outcome(request.kind, due, sent, done,
                                        status, body, request))
        finally:
            client.close()

    run_threads([worker] * connections)
    outcomes.sort(key=lambda outcome: outcome.due)
    return outcomes


def closed_loop(address, requests: list[kg.Request], duration_s: float,
                connections: int, recorder: SpanRecorder | None = None
                ) -> tuple[list[Outcome], float]:
    """Each connection sends its next request when the last one
    returns, cycling through ``requests``; returns outcomes and the
    phase's wall time."""
    outcomes: list[Outcome] = []
    cursor = itertools.count()
    started = time.perf_counter()
    stop_at = started + duration_s

    def worker() -> None:
        client = Client(address, recorder)
        try:
            while time.perf_counter() < stop_at:
                request = requests[next(cursor) % len(requests)]
                status, body, sent, done = client.post(request)
                outcomes.append(Outcome(request.kind, sent, sent, done,
                                        status, body, request))
        finally:
            client.close()

    run_threads([worker] * connections)
    return outcomes, time.perf_counter() - started
