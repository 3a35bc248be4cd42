"""The three perfbench workloads.

``serve_read``
    HTTP reads over a 60-entity ownership KG whose 928 non-trivial
    ``Control`` facts all fit the 4,096-entry explanation cache.  After
    a warm-up pass every explain is a cache hit, so the transport,
    protocol and executor layers of ``serve`` dominate.  An open-loop
    phase at a fixed rate below capacity, then a closed-loop saturation
    phase on two connections.
``update_mixed``
    The same server with a sequential writer beside the readers: each
    pair of ``POST /update`` calls adds one seeded ``Own`` edge and then
    retracts it, so the KG returns to its base state.  Incremental
    maintenance, ``ProvenanceIndex.rebind`` and the pool's drain lock
    dominate.
``reason_scale``
    In-process, no HTTP: build a planned session over a 100-entity /
    300-edge KG (compile, chase, provenance index), then explain deep
    derived facts for the first time and probe why-not.  ``engine`` and
    the cold path of ``core`` dominate; HTTP and the explanation cache
    are bypassed, which makes it the control for any ``serve`` or cache
    change.  Its timings are CPU time of the one thread doing all the
    work (chase, explanation and garbage collection alike): on a shared
    virtual machine, wall time also counts the time the host runs other
    guests, which moved these figures by up to 40% between runs.  Wall
    time of the builds is printed beside them.  Every build starts from
    a collected heap with the previous session dropped: builds made
    while earlier sessions stay alive slow down by about 20% each, as
    every full garbage collection walks the retained objects.

Bounded end-to-end metrics, reported by every workload.  The CPU
times among them are scaled to reference speed with calibration kernel
runs made in the same process right before and after the timed work
(see ``calib.py``): the CPU time of one and the same build moved by 2x
within minutes on the shared host this was built on.  Each is printed
unscaled beside it (``*_raw_*``).

``setup_s``
    HTTP: median over five spawns of the server process's CPU time
    from its start to the moment it is bound and its workers are warm
    (interpreter start, snapshot loads, compile and both worker builds;
    not the calibration).
    The wall time from spawning the server to its first 200 on
    ``/healthz`` is printed beside it as ``setup_wall_s``; its spread
    across seeds (up to 0.26 of its median on the 2-vCPU host this was
    built on) was too wide for the bound.  ``reason_scale``: median CPU
    time of 25 snapshot loads plus compiles.
``peak_rss_mb``
    Peak RSS of the server process, or of the benchmark process for
    ``reason_scale``.
``reason_s``
    CPU time of one session build (compile or compile-cache hit, chase,
    provenance index): the median over the server's worker boots, or
    over the builds of ``reason_scale``.
``cpu_per_op_ms``
    CPU spent per operation: server CPU per request of the open-loop
    phase (``serve_read``), server CPU per update (``update_mixed``),
    mean CPU per first-time explanation (``reason_scale``).

Wall-clock figures (open-loop ``explain_p50_ms`` and tail,
``whynot_p50_ms``, ``batch_p50_ms``, ``goodput_rps``, ``update_p50_ms``
and tail, ``explain_cold_p50_ms``, ``failed_share``) are printed by name
but not bounded: on the shared 2-vCPU host this was built on, time the
host gave to other guests moved them by up to 3x between runs of the
same code, far beyond any usable bound.

Each workload returns a :class:`Result`; ``run.py`` prints it.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.apps import company_control
from repro.core import ExplanationService
from repro.engine.reasoning import reason
from repro.io import dumps_database, loads_database
from repro.obs.profile import KernelProfiler

import calib
import httpload
import kg
import parity
import spans
import stats

# Sizes, rates and limits.  They are constants of the benchmark, not
# options: changing one changes what every recorded number means.
SERVE_ENTITIES = 60
SCALE_ENTITIES = 100
PARITY_ENTITIES = 40            # naive-vs-planned check; naive is slow
SERVE_CONFIG = {"workers": 2}
SERVER_SPAWNS = 5               # setup_s is the median of these
# The read mix of benchmarks/bench_service_load.py: of every eight
# requests, four explain one hot fact, two explain other facts, one is
# a batch of three with a 10 s deadline, one a why-not probe.
READ_MIX = {"hot": 0.5, "sweep": 0.25, "batch": 0.125, "whynot": 0.125}
READ_KINDS = ("explain", "batch", "whynot")
BATCH_SIZE = 3
BATCH_DEADLINE_S = 10.0
ABSENT_FACTS = 16
SERVE_READ_RPS = 60.0
UPDATE_READ_RPS = 40.0
OPEN_SHARE = 0.7                # the rest of --seconds is closed-loop
GOODPUT_LIMIT_S = 0.050         # serve_read closed loop
UPDATE_EDGES = 2
UPDATE_PASS_S = 12.0            # one pass over the edges per this --seconds
# After each update the writer idles half as long as the update took,
# so the pool is held for about two thirds of the read phase whatever
# an update costs; reads see both the free and the drained pool.
UPDATE_IDLE_FACTOR = 0.5
UPDATE_IDLE_MIN_S = 0.25
READ_HORIZON_S = 170.0          # reads stop when the writer is done
PARITY_SAMPLE = 400
OVERHEAD_ROUNDS = 4              # alternating bursts per server
OVERHEAD_BURST_S = 0.4
SCALE_SETUPS = 25
SCALE_CYCLE_S = 4.0             # one build per this much of --seconds
DEEP_POOL = 200
SCALE_ABSENT = 16
BEHIND_P50_S = 0.005            # generator flagged as behind beyond this


@dataclass
class Result:
    """One workload run: metrics as (value, unit), counts and notes."""

    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    divergences: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Traced runs: every span of both processes (see ``spans.py``).
    spans: list[tuple] = field(default_factory=list)

    def account(self, ok: bool, divergence: str | None = None) -> None:
        """Count one operation; ``divergence`` names a wrong answer (as
        opposed to a failed or refused one)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if divergence is not None:
                self.divergences.append(divergence)

    def note(self, name: str, value, unit: str = "", extra: str = "") -> None:
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        self.notes.append(f"{name} = {shown} {unit}{extra}".rstrip())


#: The clock of in-process timings: CPU time of the calling thread.
cpu_clock = time.thread_time


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _tail_note(result: Result, name: str, latencies: list[float]) -> None:
    """Print the tail of ``latencies`` in ms with its percentile."""
    try:
        percentile, value = stats.tail(latencies)
    except ValueError as error:
        result.notes.append(f"{name} = n/a ({error})")
        return
    result.note(name, _ms(value), "ms",
                f" (p{percentile:g} of {len(latencies)} samples)")


def _peak_rss_mb(kilobytes: float) -> float:
    return kilobytes / 1024.0


# ----------------------------------------------------------------------
# Shared HTTP plumbing
# ----------------------------------------------------------------------

@dataclass
class ServeInputs:
    snapshot: str
    reference: parity.Reference
    population: list
    absent: list
    entities: int
    edges: int


def serve_inputs(seed: int) -> ServeInputs:
    graph = kg.ownership_kg(SERVE_ENTITIES, seed)
    snapshot = dumps_database(graph.database())
    reference = parity.Reference(company_control.build(), snapshot)
    derived = reference.session.answers()
    population = kg.control_population(derived)
    absent = kg.absent_controls(graph, set(derived), ABSENT_FACTS)
    return ServeInputs(snapshot, reference, population, absent,
                       len(graph.entities), graph.edges)


def spawn(inputs: ServeInputs, trace: bool, run_dir: Path,
          result: Result, probe_requests: list[kg.Request]):
    """Spawn the server ``SERVER_SPAWNS`` times; keep the last one.

    Returns (server, median setup CPU time, CPU times of the worker
    session builds, tracing overhead in percent or None).  CPU times
    are scaled to reference speed by the calibration kernel runs the
    server makes around its build; the raw ones and the setup wall
    time are noted.  A traced run traces
    only the last server and keeps the first, untraced one alive until
    then: alternating short closed-loop bursts on both give
    ``trace.overhead_pct`` without host drift between them.
    """
    setups, walls, boots, raw_setups, raw_boots = [], [], [], [], []
    untraced = server = None
    try:
        for index in range(SERVER_SPAWNS):
            last = index == SERVER_SPAWNS - 1
            server = httpload.ServerProcess(
                inputs.snapshot, SERVE_CONFIG, trace and last,
                run_dir / "server.log",
            )
            factor = calib.factor(server.ready["kernel_s"])
            raw_setups.append(server.ready["setup_cpu_s"])
            setups.append(raw_setups[-1] * factor)
            walls.append(server.setup_wall_s)
            raw_boots.extend(server.ready["build_cpu_s"])
            boots.extend(build * factor
                         for build in server.ready["build_cpu_s"])
            if trace and index == 0:
                untraced = server
            elif not last:
                server.stop()
        overhead = None
        if untraced is not None:
            overhead = tracing_overhead(untraced, server, probe_requests,
                                        result)
            untraced.stop()
    except BaseException:
        for process in (untraced, server):
            if process is not None:
                process.kill()
        raise
    result.note("setup_wall_s", stats.median(walls), "s",
                f" (median of {len(walls)} spawns to the first 200 on "
                "/healthz)")
    result.note("setup_cpu_raw_s", stats.median(raw_setups), "s")
    result.note("reason_cpu_raw_s", stats.median(raw_boots), "s")
    return server, stats.median(setups), boots, overhead


def tracing_overhead(untraced, traced, requests: list[kg.Request],
                     result: Result) -> float:
    """Percent by which the traced server's median closed-loop round
    trip over warm ``requests`` exceeds the untraced one's."""
    round_trips: dict[int, list[float]] = {0: [], 1: []}
    for server in (untraced, traced):
        warm_up(server, requests, result)
    for _ in range(OVERHEAD_ROUNDS):
        for side, server in enumerate((untraced, traced)):
            outcomes, _elapsed = httpload.closed_loop(
                server.address, requests, OVERHEAD_BURST_S, connections=2
            )
            for outcome in outcomes:
                result.account(outcome.status == 200)
            round_trips[side].extend(o.done - o.sent for o in outcomes)
    return (stats.median(round_trips[1]) / stats.median(round_trips[0])
            - 1.0) * 100.0


def warm_up(server, requests: list[kg.Request], result: Result) -> None:
    client = httpload.Client(server.address)
    try:
        for request in requests:
            status, _body, _s, _d = client.post(request)
            result.account(status == 200)
    finally:
        client.close()


def warm_up_requests(inputs: ServeInputs) -> list[kg.Request]:
    """Every population fact and every absent fact, once each.

    One request per fact, not batches: besides filling the explanation
    cache, this gives the server the history of fast requests a
    long-running server has.  Its SLO breaker judges p99 over the whole
    request history, so without that history the first slow update
    alone would trip it.
    """
    requests = hot_requests(inputs, len(inputs.population))
    for fact in inputs.absent:
        requests.append(kg.Request(0.0, "whynot", "/whynot",
                                   kg.request_body({"query": str(fact)})))
    return requests


def hot_requests(inputs: ServeInputs, count: int) -> list[kg.Request]:
    return [kg.Request(0.0, "explain", "/explain",
                       kg.request_body({"query": str(q)}))
            for q in inputs.population[:count]]


def scrape(server) -> dict[str, float]:
    """Counters of interest from ``/metrics``."""
    status, body = server.get("/metrics")
    values: dict[str, float] = {}
    if status != 200:
        return values
    for line in body.decode("utf-8").splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, _sep, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def lateness_notes(result: Result, label: str,
                   outcomes: list[httpload.Outcome]) -> None:
    late = sorted(o.lateness_s for o in outcomes)
    if not late:
        return
    p50 = stats.median(late)
    behind = p50 > BEHIND_P50_S
    result.note(f"{label}.generator_late_p50_ms", _ms(p50), "ms",
                f" (max {_ms(late[-1]):.1f} ms over {len(late)} requests)")
    if behind:
        result.notes.append(
            f"WARNING {label}: the generator fell behind its schedule "
            f"(median lateness {_ms(p50):.1f} ms); latencies include it"
        )


def check_bodies(result: Result, reference: parity.Reference,
                 outcomes: list[httpload.Outcome], rng: random.Random,
                 sample: int) -> int:
    """Byte-compare a seeded sample of ``sample`` answers with the
    reference; returns how many were compared."""
    answered = [o for o in outcomes if o.status == 200]
    chosen = rng.sample(answered, min(sample, len(answered)))
    for outcome in chosen:
        problem = reference.check(outcome.request, outcome.status,
                                  outcome.body)
        result.account(problem is None, problem)
    return len(chosen)


def serve_layer_metrics(result: Result, report: dict,
                        client_rows: list[tuple], metrics: dict,
                        overhead_pct: float) -> None:
    """Per-layer metrics of an HTTP workload from both processes' spans."""
    rows = [tuple(row) for row in report.get("spans", [])]
    requests = spans.request_breakdown(client_rows, rows)
    explains = [r for r in requests.values() if r["kind"] == "explain"]
    layer = result.per_layer
    if explains:
        layer["serve.transport_ms"] = (_ms(stats.median(
            [r["round_trip"] - r["pool"] for r in explains])), "ms")
    if requests:
        layer["trace.coverage"] = (
            sum(r["covered"] for r in requests.values())
            / sum(r["round_trip"] for r in requests.values()), "ratio")
    shed = sum(value for name, value in metrics.items()
               if name.startswith("repro_serve_shed_"))
    layer["serve.shed"] = (shed, "count")
    layer["serve.errors"] = (metrics.get("repro_serve_errors", 0.0), "count")
    hits = metrics.get('repro_cache_hits{cache="explanation_cache"}', 0.0)
    misses = metrics.get('repro_cache_misses{cache="explanation_cache"}', 0.0)
    if hits + misses:
        layer["core.cache_lookups"] = (hits + misses, "count")
        layer["core.cache_hit_ratio"] = (hits / (hits + misses), "ratio")
    span_metrics(result, rows, report.get("counters", {}),
                 report.get("kernels", {}))
    layer["trace.overhead_pct"] = (overhead_pct, "%")
    result.spans = spans.link_requests(client_rows, rows)
    for name, seconds in spans.self_times(result.spans).items():
        layer[f"self.{name}_ms"] = (_ms(seconds), "ms")


def span_metrics(result: Result, rows: list[tuple], counters: dict,
                 kernels: dict) -> None:
    """The span- and counter-derived per-layer metrics, either process.

    A metric whose spans or counters the workload never produced is
    left out, so ``run.py`` reports it as n/a rather than as zero.
    """
    layer = result.per_layer

    def med(metric: str, name: str, scale: float, unit: str) -> None:
        values = spans.durations(rows, name)
        if values:
            layer[metric] = (stats.median(values) * scale, unit)

    def share(metric: str, part: float, whole: float, unit: str) -> None:
        if whole:
            layer[metric] = (part / whole, unit)

    med("serve.parse_us", "serve.parse", 1e6, "us")
    med("serve.encode_us", "serve.encode", 1e6, "us")
    waits = spans.durations(rows, "serve.checkout_wait")
    if waits:
        layer["serve.checkout_wait_us"] = (statistics.fmean(waits) * 1e6,
                                           "us")
    med("serve.update_hold_ms", "serve.update", 1e3, "ms")
    med("core.explain_warm_us", "core.explain_warm", 1e6, "us")
    med("core.explain_cold_us", "core.explain_cold", 1e6, "us")
    med("core.whynot_us", "core.whynot", 1e6, "us")
    med("core.batch_us", "core.batch", 1e6, "us")
    compiles = spans.durations(rows, "core.compile")
    if compiles:
        layer["core.compile_ms"] = (_ms(sum(compiles)), "ms")
    med("engine.chase_s", "engine.chase", 1.0, "s")
    med("engine.index_build_ms", "engine.index_build", 1e3, "ms")
    # Full-chase kernels only: the incremental ``<rule>+delta`` kernels
    # run inside updates, not chases.
    chases = counters.get("engine.chases", 0)
    kernel_s = sum(entry["wall_s"] for label, entry in kernels.items()
                   if not label.startswith("serve.")
                   and not label.endswith("+delta"))
    share("engine.kernel_s", kernel_s, chases, "s")
    chase_total = sum(spans.durations(rows, "engine.chase"))
    if chase_total:
        layer["engine.non_kernel_share"] = (1.0 - kernel_s / chase_total,
                                            "ratio")
    share("engine.rounds", counters.get("engine.rounds", 0), chases, "count")
    share("engine.records", counters.get("engine.records", 0), chases,
          "count")
    derived = counters.get("engine.facts_derived", 0)
    share("engine.derive_useful_ratio", derived,
          derived + counters.get("engine.facts_deduplicated", 0), "ratio")
    med("engine.update_ms", "engine.update", 1e3, "ms")
    med("engine.index_rebind_ms", "engine.index_rebind", 1e3, "ms")
    share("engine.update_full_share", counters.get("engine.updates_full", 0),
          counters.get("engine.updates", 0), "ratio")
    med("io.snapshot_load_ms", "io.snapshot_load", 1e3, "ms")
    med("datalog.parse_fact_us", "datalog.parse_fact", 1e6, "us")


def finish_server(result: Result, server,
                  client_recorder: spans.SpanRecorder | None,
                  overhead_pct: float | None) -> None:
    """Scrape and stop the server, and read its exit report."""
    metrics = scrape(server)
    report = server.stop()
    result.end_to_end["peak_rss_mb"] = (
        _peak_rss_mb(report["peak_rss_kb"]), "MB")
    shed = sum(v for k, v in metrics.items()
               if k.startswith("repro_serve_shed_"))
    result.note("serve.shed", int(shed), "requests")
    if client_recorder is not None:
        serve_layer_metrics(result, report, client_recorder.rows, metrics,
                            overhead_pct)


def read_metrics(result: Result, outcomes, label: str) -> None:
    """Open-loop read latencies by kind, timed from each due time."""
    by_kind: dict[str, list[float]] = {}
    for outcome in outcomes:
        result.account(outcome.status == 200)
        if outcome.status == 200:
            by_kind.setdefault(outcome.kind, []).append(outcome.latency_s)
    for kind in READ_KINDS:
        latencies = by_kind.get(kind)
        if not latencies:
            result.notes.append(f"{kind}_p50_ms = n/a (none answered 200)")
            continue
        result.note(f"{kind}_p50_ms", _ms(stats.median(latencies)), "ms",
                    f" ({len(latencies)} answered)")
        if kind == "explain":
            _tail_note(result, "explain_tail_ms", latencies)
    lateness_notes(result, label, outcomes)


def closed_metrics(result: Result, closed, elapsed: float) -> None:
    for outcome in closed:
        result.account(outcome.status == 200)
    good = stats.goodput(
        ((o.status, o.done - o.sent) for o in closed),
        GOODPUT_LIMIT_S, elapsed,
    )
    result.note("goodput_rps", good, "1/s",
                f" ({len(closed)} closed-loop requests in {elapsed:.2f} s, "
                f"limit {_ms(GOODPUT_LIMIT_S):g} ms)")


# ----------------------------------------------------------------------
# serve_read
# ----------------------------------------------------------------------

def serve_read(seed: int, seconds: float, trace: bool,
               run_dir: Path) -> Result:
    result = Result()
    rng = random.Random(f"perfbench:serve_read:{seed}")
    inputs = serve_inputs(seed)
    open_s = seconds * OPEN_SHARE
    schedule = kg.read_schedule(
        inputs.population, inputs.absent, SERVE_READ_RPS, open_s, READ_MIX,
        BATCH_SIZE, BATCH_DEADLINE_S, rng,
    )
    closed_requests = kg.read_schedule(
        inputs.population, inputs.absent, 1000.0, 10.0, READ_MIX,
        BATCH_SIZE, BATCH_DEADLINE_S, rng,
    )
    probe_requests = hot_requests(inputs, 50)
    describe_serve(result, inputs, schedule, SERVE_READ_RPS)
    server, setup_s, boots, overhead = spawn(
        inputs, trace, run_dir, result, probe_requests
    )
    recorder = spans.SpanRecorder(prefix="c") if trace else None
    try:
        result.end_to_end["setup_s"] = (setup_s, "s")
        result.end_to_end["reason_s"] = (stats.median(boots), "s")
        warm_up(server, warm_up_requests(inputs), result)
        kernels = server.kernel_seconds()
        cpu_before = server.cpu_seconds()
        outcomes = httpload.open_loop(
            server.address, schedule, time.perf_counter() + 0.05,
            connections=2, recorder=recorder,
        )
        cpu_per_op = _ms(server.cpu_seconds() - cpu_before) / len(outcomes)
        kernels += server.kernel_seconds()
        result.end_to_end["cpu_per_op_ms"] = (
            cpu_per_op * calib.factor(kernels), "ms")
        result.note("cpu_per_op_raw_ms", cpu_per_op, "ms")
        closed, elapsed = httpload.closed_loop(
            server.address, closed_requests, seconds - open_s,
            connections=2, recorder=recorder,
        )
        finish_server(result, server, recorder, overhead)
    finally:
        server.kill()
    read_metrics(result, outcomes, "serve_read")
    closed_metrics(result, closed, elapsed)
    checked = check_bodies(result, inputs.reference, outcomes + closed, rng,
                           PARITY_SAMPLE)
    result.note("parity.bodies_checked", checked)
    inputs.reference.close()
    return result


def describe_serve(result: Result, inputs: ServeInputs, schedule,
                   rate: float) -> None:
    distinct = len(inputs.population) + len(inputs.absent)
    result.note("input.entities", inputs.entities)
    result.note("input.edges", inputs.edges)
    result.note("input.derived_control", len(inputs.population), "",
                " non-trivial")
    result.note("input.distinct_queries", distinct, "",
                f" ({distinct / 4096:.1%} of the 4,096-entry cache)")
    result.note("input.open_loop_rate", rate, "1/s",
                f" (up to {len(schedule)} scheduled reads)")


# ----------------------------------------------------------------------
# update_mixed
# ----------------------------------------------------------------------

def update_mixed(seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> Result:
    """Reads at a fixed open-loop rate for as long as the writer runs its
    fixed work: one pass over the update edges per ``UPDATE_PASS_S`` of
    ``seconds``, each edge added and then retracted."""
    passes = max(1, round(seconds / UPDATE_PASS_S))
    result = Result()
    rng = random.Random(f"perfbench:update_mixed:{seed}")
    inputs = serve_inputs(seed)
    edges = kg.update_edges(kg.ownership_kg(SERVE_ENTITIES, seed),
                            UPDATE_EDGES)
    rng.shuffle(edges)
    schedule = kg.read_schedule(
        inputs.population, inputs.absent, UPDATE_READ_RPS, READ_HORIZON_S,
        READ_MIX, BATCH_SIZE, BATCH_DEADLINE_S, rng,
    )
    probes = hot_requests(inputs, 200)
    rng.shuffle(probes)
    probe_requests = hot_requests(inputs, 50)
    describe_serve(result, inputs, schedule, UPDATE_READ_RPS)
    result.note("input.update_pairs", passes * len(edges), "",
                f" ({len(edges)} edges x {passes} passes; after each "
                f"update the writer idles {UPDATE_IDLE_FACTOR:g}x its "
                "duration)")
    server, setup_s, boots, overhead = spawn(
        inputs, trace, run_dir, result, probe_requests
    )
    recorder = spans.SpanRecorder(prefix="c") if trace else None
    updates: list[tuple[str, int, float, bytes, str]] = []
    update_cpu: list[float] = []
    update_factors: list[float] = []  # see calib.py
    checks: list[tuple[kg.Request, int, bytes]] = []
    reads: list[httpload.Outcome] = []
    done = threading.Event()
    left_base = threading.Event()  # a retract kept failing
    try:
        result.end_to_end["setup_s"] = (setup_s, "s")
        result.end_to_end["reason_s"] = (stats.median(boots), "s")
        warm_up(server, warm_up_requests(inputs), result)
        start_at = time.perf_counter() + 0.05

        def send_update(client, kind: str, edge) -> int:
            key = "adds" if kind == "add" else "retracts"
            request = kg.Request(0.0, kind, "/update",
                                 kg.request_body({key: [str(edge)]}))
            kernels = server.kernel_seconds()
            cpu_before = server.cpu_seconds()
            status, body, sent, finished = client.post(request)
            update_cpu.append(server.cpu_seconds() - cpu_before)
            kernels += server.kernel_seconds()
            update_factors.append(calib.factor(kernels))
            updates.append((kind, status, finished - sent, body, str(edge)))
            time.sleep(max(UPDATE_IDLE_MIN_S,
                           UPDATE_IDLE_FACTOR * (finished - sent)))
            return status

        def writer() -> None:
            client = httpload.Client(server.address, recorder)
            try:
                time.sleep(max(0.0, start_at - time.perf_counter()))
                for index in range(passes * len(edges)):
                    edge = edges[index % len(edges)]
                    if send_update(client, "add", edge) != 200:
                        continue
                    retried = 0
                    while send_update(client, "retract", edge) != 200:
                        retried += 1
                        if retried == 3:
                            left_base.set()
                            return
                    # The KG is back at its base state: probe it.
                    probe = probes[index % len(probes)]
                    status, body, _s, _d = client.post(probe)
                    checks.append((probe, status, body))
            finally:
                client.close()
                done.set()

        def reader() -> None:
            reads.extend(httpload.open_loop(
                server.address, schedule, start_at, connections=1,
                recorder=recorder, stop=done,
            ))

        httpload.run_threads([writer, reader])
        elapsed = time.perf_counter() - start_at
        if not left_base.is_set():
            final = httpload.Client(server.address)
            try:
                for request in rng.sample(schedule, 40):
                    status, body, _s, _d = final.post(request)
                    checks.append((request, status, body))
            finally:
                final.close()
        finish_server(result, server, recorder, overhead)
    finally:
        server.kill()
    read_metrics(result, reads, "update_mixed")
    result.note("update_mixed.read_phase_s", elapsed, "s",
                f" ({len(reads)} reads)")
    latencies = []
    modes: dict[str, int] = {}
    for kind, status, latency, body, edge in updates:
        if status != 200:
            result.account(False)
            continue
        payload = json.loads(body)
        listed = payload["added" if kind == "add" else "retracted"]
        modes[payload["mode"]] = modes.get(payload["mode"], 0) + 1
        latencies.append(latency)
        result.account(listed == [edge], None if listed == [edge] else
                       f"{kind} {edge} applied {listed}")
    result.end_to_end["cpu_per_op_ms"] = (_ms(statistics.fmean(
        cpu * factor for cpu, factor in zip(update_cpu, update_factors))),
        "ms")
    result.note("update_cpu_ms", " ".join(
        f"{_ms(cpu):.0f}" for cpu in update_cpu), "",
        " (raw server CPU of each update)")
    if latencies:
        result.note("update_p50_ms", _ms(stats.median(latencies)), "ms",
                    f" ({len(latencies)} updates, modes {modes})")
    result.note("update_latencies_ms", " ".join(
        f"{_ms(latency):.0f}" for latency in latencies))
    _tail_note(result, "update_tail_ms", latencies)
    if left_base.is_set():
        result.notes.append("parity: a retract kept failing; the KG left "
                            "its base state, so bodies were not compared")
    for request, status, body in checks:
        result.account(*_checked(inputs.reference, request, status, body))
    result.note("parity.bodies_checked", len(checks), "",
                " after update pairs and at the end")
    inputs.reference.close()
    return result


def _checked(reference, request, status, body) -> tuple[bool, str | None]:
    if status != 200:
        return False, None  # refused or failed, not divergent
    problem = reference.check(request, status, body)
    return problem is None, problem


# ----------------------------------------------------------------------
# reason_scale
# ----------------------------------------------------------------------

def _record_fingerprint(result) -> list[tuple]:
    """Everything a provenance record renders (cf. the strategy-parity
    tests): planned and naive chases must agree on all of it."""
    return [
        (record.index, record.round, record.rule.label, repr(record.fact),
         tuple(repr(parent) for parent in record.parents),
         repr(record.binding), repr(record.aggregate_value))
        for record in result.records
    ]


def reason_scale(seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> Result:
    del run_dir
    result = Result()
    rng = random.Random(f"perfbench:reason_scale:{seed}")
    application = company_control.build()
    graph = kg.ownership_kg(SCALE_ENTITIES, seed)
    snapshot = dumps_database(graph.database())
    result.note("input.entities", len(graph.entities))
    result.note("input.edges", graph.edges)
    recorder = spans.SpanRecorder() if trace else None
    uninstall = None

    def load_and_compile() -> tuple[ExplanationService, object, float]:
        gc.collect()
        started = cpu_clock()
        with (recorder.span("io.snapshot_load") if uninstall
              else nullcontext()):
            database = loads_database(snapshot)
        service = ExplanationService(llm=None)
        service.compile(application.program, application.glossary)
        return service, database, cpu_clock() - started

    setups, kernels = [], calib.kernel_times()
    for _ in range(SCALE_SETUPS):
        service, _database, elapsed = load_and_compile()
        setups.append(elapsed)
        service.shutdown()
    kernels += calib.kernel_times()
    result.end_to_end["setup_s"] = (
        stats.median(setups) * calib.factor(kernels), "s")
    result.note("setup_cpu_raw_s", stats.median(setups), "s")

    # CPU times scaled to reference speed by kernel runs made right
    # before and after the build and the explanations (see calib.py),
    # and as measured.  A traced run marks those runs as bench.calibrate
    # spans, which trace.coverage leaves out.
    builds, cold_scaled, raw_builds, walls, cold, whynots = \
        [], [], [], [], [], []
    texts: dict = {}
    sample = absent = None
    untraced_build = None
    profiler = KernelProfiler() if trace else None
    # A traced run times one extra untraced build first: the base of
    # trace.overhead_pct.
    cycles = max(2, round(seconds / SCALE_CYCLE_S)) + (1 if trace else 0)
    for cycle in range(cycles):
        if trace and cycle == 1:
            uninstall = spans.install(recorder)
        before_build = calib.kernel_times()
        service, database, _setup = load_and_compile()
        cycle_cold: list[float] = []
        context = (recorder.span("bench.cycle") if recorder and cycle
                   else nullcontext())

        def calibrate() -> list[float]:
            with (recorder.span("bench.calibrate") if recorder and cycle
                  else nullcontext()):
                return calib.kernel_times()
        observed = (obs.observed(profile=profiler)
                    if profiler is not None and cycle else nullcontext())
        with context, observed:
            started, wall_started = cpu_clock(), time.perf_counter()
            session = service.session(application, database,
                                      strategy="planned")
            session.result.index
            built = cpu_clock() - started
            walls.append(time.perf_counter() - wall_started)
            if sample is None:
                deep = sorted(
                    kg.control_population(session.answers()),
                    key=lambda fact: (-session.result.index.depth(fact),
                                      str(fact)),
                )[:DEEP_POOL]
                sample = rng.sample(deep, len(deep))
                result.note("input.derived_control", len(
                    kg.control_population(session.answers())), "",
                    f" non-trivial; the {DEEP_POOL} deepest are explained")
                absent = kg.absent_controls(
                    graph, set(session.answers()), SCALE_ABSENT
                )
            after_build = calibrate()
            for query in sample:
                began = cpu_clock()
                explanation = session.explain(query)
                elapsed = cpu_clock() - began
                if not (trace and cycle == 0):
                    cycle_cold.append(elapsed)
                problem = None
                if texts.setdefault(query, explanation.text) != \
                        explanation.text:
                    problem = f"explanation of {query} changed between builds"
                missing = parity.missing_constants(
                    explanation.text,
                    session.explainer.proof_constants(query),
                )
                if missing:
                    problem = f"explanation of {query} omits {missing[:3]}"
                result.account(problem is None, problem)
            after_explain = calibrate()
            for query in absent:
                began = cpu_clock()
                session.why_not(query)
                if not (trace and cycle == 0):
                    whynots.append(cpu_clock() - began)
                result.account(True)
        result.account(True)
        service.shutdown()
        del session, service, database
        factor = calib.factor(before_build + after_build)
        if trace and cycle == 0:
            untraced_build = built * factor
        else:
            builds.append(built * factor)
            raw_builds.append(built)
        factor = calib.factor(after_build + after_explain)
        cold.extend(cycle_cold)
        cold_scaled.extend(elapsed * factor for elapsed in cycle_cold)
    if uninstall is not None:
        uninstall()
    gc.collect()

    result.end_to_end["reason_s"] = (stats.median(builds), "s")
    result.note("reason_cpu_raw_s", stats.median(raw_builds), "s")
    result.note("reason_wall_s", stats.median(walls), "s",
                f" (median wall time of {len(walls)} builds)")
    result.end_to_end["cpu_per_op_ms"] = (
        _ms(statistics.fmean(cold_scaled)), "ms")
    result.note("cpu_per_op_raw_ms", _ms(statistics.fmean(cold)), "ms")
    result.note("explain_cold_p50_ms", _ms(stats.median(cold)), "ms",
                f" ({len(cold)} first-time explanations)")
    _tail_note(result, "explain_tail_ms", cold)
    result.note("whynot_p50_ms", _ms(stats.median(whynots)), "ms",
                f" ({len(whynots)} first-time why-not probes)")

    # Planned vs naive on a smaller instance from the same generator.
    small = kg.ownership_kg(PARITY_ENTITIES, seed).database()
    planned = reason(application.program, small, strategy="planned")
    naive = reason(application.program, small, strategy="naive")
    same = (_record_fingerprint(planned.chase_result)
            == _record_fingerprint(naive.chase_result))
    result.account(same, None if same else
                   f"planned and naive records differ at "
                   f"{PARITY_ENTITIES} entities")
    result.note("parity.naive_records",
                len(naive.chase_result.records), "",
                f" at {PARITY_ENTITIES} entities")
    result.end_to_end["peak_rss_mb"] = (
        _peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "MB")
    if trace:
        reason_layer_metrics(result, recorder, profiler, builds,
                             untraced_build)
    return result


def reason_layer_metrics(result: Result, recorder: spans.SpanRecorder,
                         profiler, builds: list[float],
                         untraced_build: float) -> None:
    rows = recorder.rows
    span_metrics(result, rows, recorder.counters, profiler.snapshot())
    layer = result.per_layer
    cycles = [row for row in rows if row[2] == "bench.cycle"]
    children = [(row[3], row[4]) for row in rows
                if not row[2].startswith("bench.")]
    total = sum(end - start for _i, _p, _n, start, end, _r in cycles) - sum(
        spans.durations(rows, "bench.calibrate"))
    inside = sum(spans.covered(children, start, end)
                 for _i, _p, _n, start, end, _r in cycles)
    layer["trace.coverage"] = (inside / total if total else 0.0, "ratio")
    layer["trace.overhead_pct"] = (
        (stats.median(builds) / untraced_build - 1.0) * 100.0, "%")
    result.spans = rows
    for name, seconds in spans.self_times(rows).items():
        layer[f"self.{name}_ms"] = (_ms(seconds), "ms")


WORKLOADS = {
    "serve_read": serve_read,
    "update_mixed": update_mixed,
    "reason_scale": reason_scale,
}
