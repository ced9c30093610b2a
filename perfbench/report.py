"""Turning a run's measurements into the printed table and the result line."""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Callable, Dict, List, Tuple

from perfbench.bench import CLASSES, LATENCY_WINDOW, MIN_CLASS_SAMPLES, SUSTAINED_SHARE, RunOutcome
from perfbench.ledger import LEDGER_TOLERANCE_S, LEDGER_TOLERANCE_SHARE
from perfbench.workloads import HISTORY_DAYS, op_kind

Metric = Tuple[str, str, Callable[[RunOutcome], float]]


def _lead(outcome: RunOutcome):
    stats = outcome.class_stats(outcome.workload.lead_class)
    if stats is None:
        raise RuntimeError(
            f"workload {outcome.workload.name} produced no {outcome.workload.lead_class} samples"
        )
    return stats


def _lead_sustained_p50_ms(outcome: RunOutcome) -> float:
    _lead(outcome)
    return outcome.sustained_p50_ms(outcome.workload.lead_class)


#: The end-to-end metrics of an untraced run (``BENCHMARK.json`` lists them).
#: Throughput and median latency are the sustained figures (see
#: ``bench.SUSTAINED_SHARE``); the table prints the whole-run ones too.
END_TO_END: Tuple[Metric, ...] = (
    ("sustained_rps", "1/s", lambda o: o.sustained_rps),
    ("lead_sustained_p50_ms", "ms", _lead_sustained_p50_ms),
    ("lead_tail_ms", "ms", lambda o: _lead(o).tail_ms),
    ("setup_s", "s", lambda o: statistics.median(o.setup_s)),
    ("peak_rss_mb", "MB", lambda o: o.peak_rss_mb),
)


def _pct(outcome: RunOutcome, seconds: float) -> float:
    return 100.0 * seconds / outcome.ledger.busy_s


def _self(name: str) -> Callable[[RunOutcome], float]:
    return lambda o: _pct(o, o.ledger.self_s.get(name, 0.0))


def _total(name: str) -> Callable[[RunOutcome], float]:
    return lambda o: _pct(o, o.ledger.total_s.get(name, 0.0))


def _calls(name: str) -> Callable[[RunOutcome], float]:
    return lambda o: o.ledger.calls.get(name, 0)


def _counter(name: str) -> Callable[[RunOutcome], float]:
    return lambda o: o.ledger_counters.get(name, 0)


def _ratio(numerator: Callable[[RunOutcome], float], denominator: Callable[[RunOutcome], float]):
    def value(o: RunOutcome) -> float:
        base = denominator(o)
        return numerator(o) / base if base else 0.0
    return value


def _statuses(low: int, high: int) -> Callable[[RunOutcome], float]:
    return lambda o: sum(n for status, n in o.traced.statuses.items() if low <= status < high)


def wire_share_pct(outcome: RunOutcome, name: str) -> float:
    """A span's total time as a share (%) of all traced ``handle_wire`` time."""
    return 100.0 * outcome.ledger.total_s.get(name, 0.0) / outcome.ledger.wire_s


#: The per-layer metrics of a traced run: what a program change can move.
#: Times are shares (%) of the traced busy time: every ``handle_wire`` call
#: plus every maintenance tick.
PER_LAYER: Tuple[Metric, ...] = (
    ("gateway.codec_pct", "%", _self("gateway.wire")),
    ("gateway.dispatch_self_pct", "%", _self("gateway.dispatch")),
    ("etag.hit_ratio", "ratio", _ratio(lambda o: o.traced.statuses.get(304, 0), lambda o: o.traced.conditional_sent)),
    ("bus.publish_pct", "%", _self("bus.publish")),
    ("bus.messages", "count", _calls("bus.publish")),
    ("bus.dead_letters", "count", lambda o: o.bus["dead_letters"]),
    ("bus.retained_messages", "count", lambda o: o.bus["retained"]),
    ("context.build_self_pct", "%", _self("context.build")),
    ("context.calls", "count", _calls("context.build")),
    ("tracking.fixes_for_pct", "%", _self("tracking.fixes_for")),
    ("tracking.fixes_for_calls", "count", _calls("tracking.fixes_for")),
    ("roadnet.route_pct", "%", _self("roadnet.route")),
    ("roadnet.routes_per_context", "ratio", _ratio(_calls("roadnet.route"), _calls("context.build"))),
    ("trajectory.predict_pct", "%", _self("trajectory.predict")),
    ("recommend.evaluate_self_pct", "%", _self("recommend.evaluate")),
    ("recommend.rank_pct", "%", _self("recommend.rank")),
    ("recommend.candidates_ranked", "count", _counter("recommend.candidates_ranked")),
    ("recommend.route_scorer_pct", "%", _self("recommend.route_scorer")),
    ("recommend.schedule_pct", "%", _self("recommend.schedule")),
    ("recommend.calls", "count", _calls("recommend")),
    ("users.ingest_self_pct", "%", _self("users.ingest")),
    ("users.feedback_self_pct", "%", _self("users.feedback")),
    ("pool.map_calls", "count", _calls("pool.map_shards")),
    ("pool.task_busy_pct", "%", _total("pool.task")),
    ("pool.queue_wait_pct", "%", lambda o: _pct(o, o.ledger_counters.get("pool.queue_wait_s", 0.0))),
    ("streaming.observe_pct", "%", _self("streaming.observe")),
    ("wal.append_pct", "%", _self("wal.append")),
    ("wal.appends", "count", _calls("wal.append")),
    ("wal.bytes_per_fix", "B/fix", _ratio(lambda o: o.wal_bytes, _counter("users.fixes_accepted"))),
    ("compaction.tick_pct", "%", _total("compaction.tick")),
    ("compaction.wal_compactions", "count", _counter("compaction.wal_compactions")),
    ("content.clip_pct", "%", _self("content.clip")),
    ("content.page_pct", "%", _self("content.page")),
    ("trace.overhead_pct", "%", lambda o: 100.0 * (o.throughput_rps / o.traced.throughput_rps - 1.0)),
)

#: Counts and ratios of a traced run that the script and a correct program
#: fix: a change that moves one of them also fails the correctness check.
#: They are printed with the ledger, not reported as metrics.
SCRIPT_FIXED: Tuple[Metric, ...] = (
    ("gateway.requests", "count", lambda o: o.traced.attempted),
    ("gateway.rejected_4xx", "count", _statuses(400, 500)),
    ("gateway.errors_5xx", "count", _statuses(500, 600)),
    ("context.driving_ratio", "ratio", _ratio(_counter("context.driving"), _calls("context.build"))),
    ("recommend.plan_ratio", "ratio", _ratio(_counter("recommend.plans"), _calls("recommend.evaluate"))),
    ("users.fixes_accepted", "count", _counter("users.fixes_accepted")),
    ("users.fixes_skipped_stale", "count", _counter("users.fixes_skipped_stale")),
    ("streaming.fixes_observed", "count", _counter("streaming.fixes_observed")),
    ("compaction.ticks", "count", _calls("compaction.tick")),
    ("compaction.fixes_removed", "count", _counter("compaction.fixes_removed")),
)


def metrics(outcome: RunOutcome, trace: bool) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line."""
    table = PER_LAYER if trace else END_TO_END
    return {name: {"value": fn(outcome), "unit": unit} for name, unit, fn in table}


def header_lines(outcome: RunOutcome, seconds: float, trace: bool) -> List[str]:
    """The run's context: machine, server settings, world and script."""
    script = outcome.script
    kinds = Counter(op_kind(event) for event in script)
    classes = {name: len(samples) for name, samples in outcome.results[0].latencies_s.items()}
    return [
        f"perfbench workload={outcome.workload.name} seed={outcome.seed} "
        f"seconds={seconds:g} trace={int(trace)}",
        *outcome.server_lines,
        f"world: commuters={outcome.commuters} history_days={HISTORY_DAYS} "
        f"live_days={script.metadata.get('live_days')}",
        f"script: requests={len(script)} ticks={outcome.results[0].ticks} "
        f"replays={len(outcome.correctness)} fingerprint={script.fingerprint()}",
        "requests by op: " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
        "samples by class: " + " ".join(f"{k}={classes.get(k, 0)}" for k in CLASSES),
    ]


def table_lines(outcome: RunOutcome, trace: bool) -> List[str]:
    """Every end-to-end metric by name and unit, then the checks."""
    results = outcome.results
    replays = f"median of {len(results)} replays"
    rows: List[Tuple[str, str, str, str]] = [
        ("throughput_rps", f"{outcome.throughput_rps:.1f}", "1/s",
         f"{replays}: " + ", ".join(f"{r.throughput_rps:.1f}" for r in results)),
        ("sustained_rps", f"{outcome.sustained_rps:.1f}", "1/s",
         f"each response at its class's mean held in {SUSTAINED_SHARE:.0%} of windows of {LATENCY_WINDOW}, ticks added"),
    ]
    lead = outcome.workload.lead_class
    sustained = outcome.sustained_p50_ms(lead)
    if sustained is not None:
        rows.append((f"{lead}_sustained_p50_ms", f"{sustained:.4f}", "ms",
                     f"p50 held in {SUSTAINED_SHARE:.0%} of windows of {LATENCY_WINDOW}"))
    for name in CLASSES:
        stats = outcome.class_stats(name)
        if stats is None or stats.samples < MIN_CLASS_SAMPLES:
            continue
        rows.append((f"{name}_p50_ms", f"{stats.p50_ms:.4f}", "ms", f"n={stats.samples}"))
        rows.append((f"{name}_tail_ms", f"{stats.tail_ms:.4f}", "ms", f"{stats.tail_name} of n={stats.samples}"))
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    rate_limited = sum(r.statuses.get(429, 0) for r in results)
    rows.append(("failed_ratio", f"{failed / attempted:.6f}", "ratio", f"{failed}/{attempted}"))
    rows.append(("rate_limited", f"{rate_limited}", "count", "429 responses"))
    rows.append(("setup_s", f"{statistics.median(outcome.setup_s):.3f}", "s",
                 "median of " + ", ".join(f"{s:.3f}" for s in outcome.setup_s)))
    rows.append(("peak_rss_mb", f"{outcome.peak_rss_mb:.1f}", "MB", ""))
    lines = [f"{name:<22} {value:>12} {unit:<6} {note}".rstrip() for name, value, unit, note in rows]
    for check in outcome.correctness:
        lines.append(
            f"check ({check.label}): responses digest {'match' if check.digest_match else 'MISMATCH'}, "
            f"state fingerprint {'match' if check.fingerprint_match else 'MISMATCH'}, "
            f"failed={check.failed}, 429s={check.rate_limited}"
        )
    if trace:
        ledger = outcome.ledger
        lines.append(
            f"ledger: {ledger.requests} requests, {ledger.ledger_violations} outside "
            f"{LEDGER_TOLERANCE_SHARE:.0%} or {LEDGER_TOLERANCE_S * 1e6:.0f} us "
            f"(worst gap {ledger.worst_gap_share:.4%}), "
            f"{ledger.orphan_worker_spans} worker spans without a pool.task parent, "
            f"{ledger.misparented_tasks} pool.task spans not under map_shards"
        )
        lines.append(
            f"tracing overhead: untraced {outcome.throughput_rps:.1f} req/s ({replays}), "
            f"traced {outcome.traced.throughput_rps:.1f} req/s"
        )
        lines.append(
            "share of handle_wire time: "
            + ", ".join(
                f"{name} {wire_share_pct(outcome, name):.1f}%"
                for name in ("gateway.dispatch", "recommend", "bus.publish", "users.ingest", "users.feedback")
            )
        )
        for name, unit, fn in PER_LAYER:
            lines.append(f"{name:<30} {fn(outcome):>14.6g} {unit}")
        lines.append("fixed by the script (not metrics):")
        for name, unit, fn in SCRIPT_FIXED:
            lines.append(f"  {name:<28} {fn(outcome):>14.6g} {unit}")
    return lines
