"""The benchmark-owned server entry point.

Run as ``python3 perfbench/server_main.py`` from the repository root.
It reads one JSON object from standard input — the generated
``repro-db/1`` snapshot, the serve config and a trace flag — and serves
the company-control application over HTTP until SIGTERM.

Standard output carries JSON lines.  The first comes once the socket
is bound and the workers are warm: the port, the CPU time the process
has spent so far (less calibration), the CPU time of each worker's
session build, and the CPU times of calibration kernel runs made right
before the build and right after it (see ``calib.py``).  Each SIGUSR1
then prints the process's CPU time so far, so the benchmark can charge
CPU to one phase or request; each SIGUSR2 runs the calibration kernel
on a thread of its own, so requests in flight keep being served, and
prints its CPU times.
The last line comes after shutdown: the process's peak RSS plus (when
traced) every recorded span, counter and kernel-profile entry.
"""

from __future__ import annotations

import contextvars
import functools
import json
import asyncio
import os
import resource
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from urllib.parse import parse_qs

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import obs  # noqa: E402
from repro.apps import company_control  # noqa: E402
from repro.core import ExplanationService  # noqa: E402
from repro.obs.profile import KernelProfiler  # noqa: E402
from repro.serve import ExplanationServer, ServeConfig  # noqa: E402

import calib  # noqa: E402
import spans  # noqa: E402


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so request
    ids and parent spans reach the executor threads."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(
            contextvars.copy_context().run, fn, *args, **kwargs
        )


def traced_server_class(recorder: spans.SpanRecorder):
    class TracedServer(ExplanationServer):
        """Tags each request with the ``rid`` of its query string."""

        async def start(self) -> None:
            await super().start()
            if not isinstance(self._executor, _ContextExecutor):
                self._executor.shutdown(wait=True)
                self._executor = _ContextExecutor(
                    max_workers=self.config.workers,
                    thread_name_prefix="repro-serve",
                )

        async def _dispatch(self, method, target, body):
            query = target.partition("?")[2]
            rid = parse_qs(query).get("rid", [None])[0]
            token = spans.REQUEST_ID.set(rid)
            try:
                with recorder.span("serve.dispatch"):
                    return await super()._dispatch(method, target, body)
            finally:
                spans.REQUEST_ID.reset(token)

    return TracedServer


def process_cpu_s() -> float:
    """User plus system CPU seconds of this process, all threads."""
    times = os.times()
    return times.user + times.system


def time_session_builds(builds: list[float]) -> None:
    """Record the thread CPU time of every session build (at boot, one
    per worker): compile or compile-cache hit, chase and provenance
    index, the work ``reason_scale`` times as one build.  Unlike wall
    time, CPU time leaves out time the host ran other guests."""
    build = ExplanationService.session

    @functools.wraps(build)
    def session(self, *args, **kwargs):
        started = time.thread_time()
        try:
            built = build(self, *args, **kwargs)
            built.result.index  # the pool builds it next; do it here
            return built
        finally:
            builds.append(time.thread_time() - started)

    ExplanationService.session = session


def main() -> int:
    spec = json.load(sys.stdin)
    kernels = calib.kernel_times()
    builds: list[float] = []
    time_session_builds(builds)
    application = company_control.build()
    config = ServeConfig(port=0, backend="thread", **spec["config"])
    recorder = profiler = None
    server_class = ExplanationServer
    if spec.get("trace"):
        recorder = spans.SpanRecorder(prefix="s")
        profiler = KernelProfiler()
        spans.install(recorder)
        server_class = traced_server_class(recorder)
    server = server_class(
        application, snapshot=spec["snapshot"], config=config, llm=None
    )

    def emit(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    def on_ready(bound: ExplanationServer) -> None:
        setup_cpu_s = process_cpu_s() - sum(kernels)
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(
            signal.SIGUSR1, lambda: emit({"cpu_s": process_cpu_s()})
        )
        loop.add_signal_handler(signal.SIGUSR2, lambda: threading.Thread(
            target=lambda: emit({"kernel_s": calib.kernel_times()})
        ).start())
        emit({"port": bound.port, "setup_cpu_s": setup_cpu_s,
              "build_cpu_s": builds,
              "kernel_s": kernels + calib.kernel_times()})

    observed = (obs.observed(profile=profiler) if profiler is not None
                else nullcontext())
    with observed:
        server.run(on_ready=on_ready)
    report = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pid": os.getpid(),
    }
    if recorder is not None:
        report["spans"] = recorder.rows
        report["counters"] = recorder.counters
        report["kernels"] = profiler.snapshot()
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
