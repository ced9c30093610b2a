"""One benchmark run: set-up, timed replay, correctness check and metrics.

The client is a closed loop with no think time: one thread sends the next
scripted request only after ``Gateway.handle_wire`` returned the previous
one.  ``handle_wire`` is a synchronous in-process call, so there is no
front-end queue an arrival schedule could fill.  The gateway's rate
limiter runs on the script's clock, so whether a request is throttled
depends on the traffic, not on the speed of the machine.

Every run is checked against an untimed reference replay of the same
requests on a single-shard, serial server without a write-ahead log: the
response digest (status and body of every request, ``next_cursor`` reduced
to its presence) and ``loadgen.state_fingerprint`` must match.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.datasets import build_world
from repro.loadgen import ScenarioScript, state_fingerprint
from repro.loadgen.replay import percentile
from repro.loadgen.script import canonical_json
from repro.pipeline.gateway.gateway import Gateway, GatewayConfig
from repro.pipeline.server import ServerConfig
from repro.storage import ShardingConfig
from repro.util.ids import reset_ids

from perfbench.ledger import Ledger, LedgerReport, analyse
from perfbench.workloads import (
    EXPECTED_STATUS,
    WORKLOADS,
    Workload,
    hot_clip_id,
    op_kind,
    world_config,
)

#: Fresh worlds per run.  The script is replayed once on each;
#: ``throughput_rps`` and ``setup_s`` are medians over them, latency
#: percentiles are taken over the samples of all of them.  A traced run
#: traces the middle replay only, so the untraced replays on either side
#: give its tracing overhead.
REPLAYS = 3
#: A latency class is reported only with at least this many samples.
MIN_CLASS_SAMPLES = 100
#: At or above this many samples the tail is p99, below it p90, so that at
#: least 100 samples lie beyond the tail: ``commute``'s p99 over ~1200
#: samples spread 0.29 of its median over five seeds, its p90 0.08.
P99_MIN_SAMPLES = 10000
#: The state fingerprint is taken this long after the script's last event.
FINGERPRINT_DELAY_S = 3600.0
#: Latency classes, in report order.
CLASSES = ("rec", "reval", "read", "ingest", "feedback")
#: Sustained figures.  The shared host a run measures on switches, within
#: seconds, between a steady floor speed and bursts up to ~1.8x faster, so a
#: figure over a whole run reads whichever state held most of it and swings
#: between runs.  A sustained figure is read at the slow end of many short
#: windows of the run instead, where the floor speed shows: each latency
#: class's responses are cut, in time order, into windows of
#: ``LATENCY_WINDOW``, and a class's sustained median (or mean) latency is
#: the ``SUSTAINED_SHARE`` percentile of its window medians (or means).
LATENCY_WINDOW = 25
SUSTAINED_SHARE = 0.9


class ScriptClock:
    """The rate limiter's clock: the scenario time of the current event."""

    def __init__(self) -> None:
        self.now_s = 0.0

    def __call__(self) -> float:
        return self.now_s


#: A scripted request ready to send: (t_s, method, path, body_json, query,
#: op kind, conditional).
Request = Tuple[float, str, str, Optional[str], Optional[Dict[str, str]], str, bool]


def prepare(script: ScenarioScript) -> List[Request]:
    """Encode every request body once, outside the timed loop."""
    return [
        (
            event.t_s,
            event.method,
            event.path,
            event.body_json(),
            event.query,
            op_kind(event),
            event.tag("conditional") == "1",
        )
        for event in script
    ]


def _digest_text(body: str) -> str:
    """The response body as digested: a page cursor counts only as present."""
    if '"next_cursor":' not in body:
        return body
    payload = json.loads(body)
    payload["next_cursor"] = payload.get("next_cursor") is not None
    return canonical_json(payload)


@dataclass
class ReplayResult:
    """What one replay of a script produced."""

    latencies_s: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    statuses: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    conditional_sent: int = 0
    wall_s: float = 0.0
    digest: str = ""
    ticks: int = 0
    #: Time spent in maintenance ticks.
    tick_s: float = 0.0

    @property
    def throughput_rps(self) -> float:
        return self.attempted / self.wall_s

    def windows(self, name: str) -> List[List[float]]:
        """A class's latencies, in time order, cut into windows of about ``LATENCY_WINDOW``."""
        samples = self.latencies_s.get(name, [])
        bounds = _split(len(samples), max(1, len(samples) // LATENCY_WINDOW))
        return [samples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _split(count: int, parts: int) -> List[int]:
    """Bounds that cut ``count`` items into at most ``parts`` non-empty runs."""
    bounds = sorted({round(k * count / parts) for k in range(parts + 1)})
    return bounds if count else []


def replay(
    gateway: Gateway,
    server,
    clock: ScriptClock,
    requests: List[Request],
    ticks: List[float],
    keep_window_s: Optional[float] = None,
) -> ReplayResult:
    """Send every request in order (maintenance ticks interleaved); time it all."""
    result = ReplayResult()
    hasher = hashlib.sha256()
    validators: Dict[str, str] = {}
    latencies = result.latencies_s
    handle = gateway.handle_wire
    perf = time.perf_counter
    tick_index = 0
    started = perf()
    for t_s, method, path, body, query, kind, conditional in requests:
        while tick_index < len(ticks) and ticks[tick_index] <= t_s:
            clock.now_s = ticks[tick_index]
            tick_started = perf()
            server.maintenance_tick(keep_window_s=keep_window_s)
            result.tick_s += perf() - tick_started
            result.ticks += 1
            tick_index += 1
        clock.now_s = t_s
        headers = None
        if conditional:
            validator = validators.get(path)
            if validator is not None:
                headers = {"if-none-match": validator}
                result.conditional_sent += 1
        sent = perf()
        status, text, response_headers = handle(method, path, body, query=query, headers=headers)
        elapsed = perf() - sent
        etag = response_headers.get("etag")
        if etag is not None:
            validators[path] = etag
        result.statuses[status] += 1
        if status not in EXPECTED_STATUS[kind]:
            result.failed += 1
        elif status == 304:
            latencies["reval"].append(elapsed)
        elif kind in ("rec", "poll"):
            latencies["rec"].append(elapsed)
        elif kind in ("clip", "clip_cond", "page"):
            latencies["read"].append(elapsed)
        else:
            latencies[kind].append(elapsed)
        hasher.update(f"{status} ".encode())
        hasher.update(_digest_text(text).encode())
        hasher.update(b"\n")
    result.wall_s = perf() - started
    result.attempted = len(requests)
    result.digest = hasher.hexdigest()
    return result


@dataclass
class Setup:
    """A built world with its gateway and script clock."""

    world: Any
    gateway: Gateway
    clock: ScriptClock
    seconds: float

    @property
    def server(self):
        return self.world.server

    def close(self) -> None:
        """Stop the server's shard worker threads, if it started any."""
        if self.server.config.sharding.parallel:
            self.server.workers.shutdown()


def _warm_up(gateway: Gateway, world) -> None:
    """One read of each read route, so lazy first-call work is done untimed."""
    user_id = world.commuters[0].user_id
    gateway.handle_wire("GET", "/v1/clips", query={"limit": "10"})
    gateway.handle_wire("GET", f"/v1/clips/{hot_clip_id(world)}")
    gateway.handle_wire("GET", f"/v1/users/{user_id}")
    gateway.handle_wire(
        "GET", f"/v1/recommendations/{user_id}", query={"now_s": repr(world.today_start_s)}
    )


def set_up(
    workload: Workload,
    seed: int,
    commuters: int,
    work_dir: Path,
    *,
    reference: bool = False,
) -> Setup:
    """Build the world, server and gateway and warm up; timed as ``setup_s``."""
    if reference:
        config = ServerConfig(sharding=ShardingConfig(shards=1, parallel=False))
    else:
        wal_directory = tempfile.mkdtemp(prefix="wal-", dir=work_dir) if workload.durability else None
        config = workload.server_config(wal_directory)
    reset_ids()
    started = time.perf_counter()
    world = build_world(world_config(seed, config, commuters=commuters))
    clock = ScriptClock()
    gateway = Gateway(world.server, GatewayConfig(clock=clock))
    _warm_up(gateway, world)
    return Setup(world, gateway, clock, time.perf_counter() - started)


def fingerprint(setup: Setup, script: ScenarioScript) -> Dict[str, Any]:
    """``state_fingerprint`` over every commuter, an hour after the last event.

    Every recommendation the replay served is already in the response
    digest; an hour later nobody is driving, so the fingerprint's own
    recommendation probes stay cheap.
    """
    users = sorted(commuter.user_id for commuter in setup.world.commuters)
    return state_fingerprint(
        setup.server, user_ids=users, now_s=script.events[-1].t_s + FINGERPRINT_DELAY_S
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class ClassStats:
    samples: int
    p50_ms: float
    tail_ms: float
    tail_name: str


def class_stats(samples_s: List[float]) -> ClassStats:
    """Median and tail (p99 from ``P99_MIN_SAMPLES`` samples, else p90) in milliseconds."""
    tail_fraction, tail_name = (0.99, "p99") if len(samples_s) >= P99_MIN_SAMPLES else (0.90, "p90")
    return ClassStats(
        samples=len(samples_s),
        p50_ms=percentile(samples_s, 0.50) * 1000.0,
        tail_ms=percentile(samples_s, tail_fraction) * 1000.0,
        tail_name=tail_name,
    )


@dataclass
class Correctness:
    """The outcome of comparing one replay against the reference replay."""

    label: str
    digest_match: bool
    fingerprint_match: bool
    failed: int
    rate_limited: int

    @property
    def ok(self) -> bool:
        return self.digest_match and self.fingerprint_match and self.failed == 0 and self.rate_limited == 0


@dataclass
class RunOutcome:
    """Everything a run measured, before it is printed."""

    workload: Workload
    seed: int
    commuters: int
    script: ScenarioScript
    server_lines: List[str]
    #: The untraced replays, one per fresh world.
    results: List[ReplayResult]
    correctness: List[Correctness]
    setup_s: List[float]
    peak_rss_mb: float
    traced: Optional[ReplayResult] = None
    ledger: Optional[LedgerReport] = None
    ledger_counters: Dict[str, float] = field(default_factory=dict)
    bus: Dict[str, int] = field(default_factory=dict)
    wal_bytes: float = 0.0

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.correctness) and (
            self.ledger is None or self.ledger.ok
        )

    @property
    def attempted(self) -> int:
        return sum(result.attempted for result in self._timed())

    @property
    def failed(self) -> int:
        return sum(result.failed for result in self._timed())

    def _timed(self) -> List[ReplayResult]:
        return self.results + ([self.traced] if self.traced is not None else [])

    @property
    def throughput_rps(self) -> float:
        """Median over the untraced replays."""
        return statistics.median(result.throughput_rps for result in self.results)

    def _sustained_s(self, name: str, summary) -> Optional[float]:
        """The ``SUSTAINED_SHARE`` percentile of a class's window summaries."""
        values = [summary(window) for result in self.results for window in result.windows(name)]
        return percentile(values, SUSTAINED_SHARE) if values else None

    def sustained_p50_ms(self, name: str) -> Optional[float]:
        """The median latency a class holds in ``SUSTAINED_SHARE`` of its windows."""
        median_s = self._sustained_s(name, statistics.median)
        return None if median_s is None else median_s * 1000.0

    @property
    def sustained_rps(self) -> float:
        """Requests per second when every response takes its class's sustained
        mean latency and the replay's maintenance ticks their median time."""
        busy_s = statistics.median(result.tick_s for result in self.results)
        for name in CLASSES:
            count = len(self.results[0].latencies_s.get(name, ()))
            if count:
                busy_s += count * self._sustained_s(name, statistics.fmean)
        return self.results[0].attempted / busy_s

    def class_stats(self, name: str) -> Optional[ClassStats]:
        """A latency class's p50 and tail over the samples of every replay."""
        samples = [sample for result in self.results for sample in result.latencies_s.get(name, [])]
        return class_stats(samples) if samples else None


def _counter_total(server, name: str) -> float:
    families = server.telemetry.metrics_snapshot()["counters"]
    family = families.get(name)
    if family is None:
        return 0.0
    return sum(series["value"] for series in family["series"])


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    commuters: Optional[int] = None,
    work_root: Path,
) -> RunOutcome:
    """One benchmark run: see the module docstring."""
    workload = WORKLOADS[workload_name]
    if commuters is None:
        commuters = workload.commuters
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        return _run(workload, seed, seconds, trace, commuters, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with suppress(OSError):
            work_root.rmdir()


def _server_lines(setup: Setup) -> List[str]:
    config = setup.server.config
    return [
        f"host: cpus={os.cpu_count()} python={platform.python_version()}",
        f"server: shards={config.sharding.shards} parallel={config.sharding.parallel} "
        f"durability={config.durability.enabled} fsync={config.durability.fsync}",
    ]


def _traced_replay(
    setup: Setup,
    ledger: Ledger,
    requests: List[Request],
    ticks: List[float],
    keep_window_s: Optional[float],
) -> Tuple[ReplayResult, Dict[str, int], float]:
    """A replay with spans recorded, plus the bus and WAL byte counts it caused."""
    server = setup.server
    dead_before = len(server.bus.dead_letters())
    wal_before = _counter_total(server, "wal_bytes_total")
    with ledger.record():
        result = replay(
            setup.gateway, server, setup.clock, requests, ticks, keep_window_s
        )
    bus = {
        "dead_letters": len(server.bus.dead_letters()) - dead_before,
        "retained": len(server.bus.published_messages()),
    }
    return result, bus, _counter_total(server, "wal_bytes_total") - wal_before


def _run(workload, seed, seconds, trace, commuters, work_dir) -> RunOutcome:
    units = workload.units(seconds / REPLAYS)
    ledger = Ledger() if trace else None
    script: Optional[ScenarioScript] = None
    requests: List[Request] = []
    ticks: List[float] = []
    server_lines: List[str] = []
    replayed: List[Tuple[str, ReplayResult, Dict[str, Any]]] = []
    results: List[ReplayResult] = []
    setup_times: List[float] = []
    traced: Optional[ReplayResult] = None
    bus: Dict[str, int] = {}
    wal_bytes = 0.0
    for index in range(REPLAYS):
        tracing = trace and index == REPLAYS // 2
        with ledger.installed() if tracing else nullcontext():
            setup = set_up(workload, seed, commuters, work_dir)
            if script is None:
                script = workload.script(setup.world, seed, units)
                requests = prepare(script)
                ticks = workload.ticks(script)
                server_lines = _server_lines(setup)
            if tracing:
                traced, bus, wal_bytes = _traced_replay(
                    setup, ledger, requests, ticks, workload.keep_window_s
                )
                result = traced
            else:
                result = replay(
                    setup.gateway, setup.server, setup.clock, requests, ticks, workload.keep_window_s
                )
                results.append(result)
                setup_times.append(setup.seconds)
            replayed.append(
                ("traced" if tracing else f"replay {index + 1}", result, fingerprint(setup, script))
            )
            setup.close()
        del setup
        gc.collect()
    rss = peak_rss_mb()

    reference_setup = set_up(workload, seed, commuters, work_dir, reference=True)
    reference = replay(
        reference_setup.gateway,
        reference_setup.server,
        reference_setup.clock,
        requests,
        ticks,
        workload.keep_window_s,
    )
    reference_fp = fingerprint(reference_setup, script)
    reference_setup.close()

    outcome = RunOutcome(
        workload=workload,
        seed=seed,
        commuters=commuters,
        script=script,
        server_lines=server_lines,
        results=results,
        correctness=[
            Correctness(
                label=label,
                digest_match=result.digest == reference.digest,
                fingerprint_match=fp == reference_fp,
                failed=result.failed,
                rate_limited=result.statuses.get(429, 0),
            )
            for label, result, fp in replayed
        ],
        setup_s=setup_times,
        peak_rss_mb=rss,
        traced=traced,
        bus=bus,
        wal_bytes=wal_bytes,
    )
    if trace:
        outcome.ledger = analyse(ledger.spans)
        outcome.ledger_counters = dict(ledger.counters)
        outcome.ledger_counters["pool.queue_wait_s"] = ledger.queue_wait_s
    return outcome
