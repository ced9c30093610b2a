"""The traced run's per-layer ledger: spans recorded from the benchmark's side.

:class:`Ledger` wraps the public entry points of each layer at class level
(the program itself is not edited) and, while :attr:`Ledger.recording` is
on, records one span per call: name, start, end, the span that caused it
and the request (root span) it belongs to.  Calls made on shard worker
threads are tied to the ``ShardWorkerPool.map_shards`` call that handed
them out: each thunk runs inside a ``pool.task`` span whose parent is the
submitting ``pool.map_shards`` span.

Wrappers must be installed before the server is built, because the server
hands bound methods (the streaming engine's and the WAL's fix listeners)
to the user manager at construction time.

A span's self time is its duration minus the part of its interval that
its children cover.  Self times of a request's spans partition its
``handle_wire`` span; :func:`analyse` checks that per request.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.content.repository import ContentRepository
from repro.pipeline.gateway.gateway import Gateway
from repro.pipeline.messaging import MessageBus
from repro.pipeline.server import PphcrServer
from repro.recommender.compound import CompoundScorer
from repro.recommender.proactive import ProactiveEngine
from repro.recommender.scheduling import Scheduler
from repro.roadnet.routing import RoutePlanner
from repro.spatialdb.tracking_store import TrackingStore
from repro.storage.sharding import ShardWorkerPool
from repro.storage.wal import DurabilityManager
from repro.streaming.sharded import ShardedStreamingEngine
from repro.trajectory import DestinationPredictor, TravelTimePredictor
from repro.users.management import UserManager

#: A request's layer self-times must sum to its ``handle_wire`` span within
#: this share of the span, or this many seconds, whichever is larger.  Only
#: shard worker tasks that overlap in time can open a gap.
LEDGER_TOLERANCE_SHARE = 0.02
LEDGER_TOLERANCE_S = 20e-6


def _ingest_tally(counters, args, result) -> None:
    counters["users.fixes_accepted"] += result
    counters["users.fixes_skipped_stale"] += len(args[1]) - result


def _context_tally(counters, args, result) -> None:
    counters["context.driving"] += 1 if result.is_driving else 0


def _evaluate_tally(counters, args, result) -> None:
    counters["recommend.plans"] += 1 if result.plan is not None else 0


def _rank_tally(counters, args, result) -> None:
    counters["recommend.candidates_ranked"] += len(args[1])


def _observe_many_tally(counters, args, result) -> None:
    counters["streaming.fixes_observed"] += len(args[1])


def _observe_one_tally(counters, args, result) -> None:
    counters["streaming.fixes_observed"] += 1


def _tick_tally(counters, args, result) -> None:
    counters["compaction.fixes_removed"] += result["fixes_removed"]
    counters["compaction.wal_compactions"] += result.get("wal_compacted", 0)


#: (class, method, span name, counter tally run on the call's result).
TRACED: Tuple[Tuple[type, str, str, Optional[Callable]], ...] = (
    (Gateway, "handle_wire", "gateway.wire", None),
    (Gateway, "handle", "gateway.dispatch", None),
    (MessageBus, "publish", "bus.publish", None),
    (PphcrServer, "build_context", "context.build", _context_tally),
    (TrackingStore, "fixes_for", "tracking.fixes_for", None),
    (RoutePlanner, "route_between_points", "roadnet.route", None),
    (DestinationPredictor, "most_likely", "trajectory.predict", None),
    (TravelTimePredictor, "estimate", "trajectory.predict", None),
    (PphcrServer, "recommend", "recommend", None),
    (ProactiveEngine, "evaluate", "recommend.evaluate", _evaluate_tally),
    (CompoundScorer, "rank", "recommend.rank", _rank_tally),
    (CompoundScorer, "route_scorer_for", "recommend.route_scorer", None),
    (Scheduler, "build_plan", "recommend.schedule", None),
    (UserManager, "ingest_fixes", "users.ingest", _ingest_tally),
    (UserManager, "record_feedback", "users.feedback", None),
    (ShardedStreamingEngine, "observe_fixes", "streaming.observe", _observe_many_tally),
    (ShardedStreamingEngine, "observe_fix", "streaming.observe", _observe_one_tally),
    (DurabilityManager, "append", "wal.append", None),
    (PphcrServer, "maintenance_tick", "compaction.tick", _tick_tally),
    (ContentRepository, "clip", "content.clip", None),
    (ContentRepository, "clips_page", "content.page", None),
)


class Span(NamedTuple):
    """One recorded call into a layer."""

    span_id: int
    parent_id: Optional[int]
    root_id: int
    name: str
    start_s: float
    end_s: float
    thread_id: int


class Ledger:
    """Class-level span wrappers plus the spans and counters they record."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.queue_wait_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, parent: Optional[Tuple[int, int]], fn: Callable, args, kwargs):
        """Run ``fn`` inside a span whose parent is ``parent`` (span, root)."""
        span_id = next(self._ids)
        root_id = parent[1] if parent is not None else span_id
        stack = self._stack()
        stack.append((span_id, root_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(
                    span_id,
                    parent[0] if parent is not None else None,
                    root_id,
                    name,
                    start,
                    end,
                    threading.get_ident(),
                )
            )

    def _wrap(self, original: Callable, name: str, tally: Optional[Callable]) -> Callable:
        ledger = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not ledger.recording:
                return original(*args, **kwargs)
            stack = ledger._stack()
            parent = stack[-1] if stack else None
            result = ledger._run(name, parent, original, args, kwargs)
            if tally is not None:
                with ledger._lock:
                    tally(ledger.counters, args, result)
            return result

        return traced

    def _wrap_map_shards(self, original: Callable) -> Callable:
        """``map_shards`` with each thunk run in a ``pool.task`` span."""
        ledger = self

        @functools.wraps(original)
        def traced(pool, work):
            if not ledger.recording:
                return original(pool, work)
            stack = ledger._stack()
            parent = stack[-1] if stack else None
            return ledger._run("pool.map_shards", parent, ledger._map_in_tasks, (original, pool, work), {})

        return traced

    def _map_in_tasks(self, original: Callable, pool, work):
        """Call ``original`` with every thunk wrapped in a ``pool.task`` span.

        Runs inside the ``pool.map_shards`` span, which becomes each task's
        parent; a task's queue wait runs from here to its start on the
        worker thread.
        """
        caller = self._stack()[-1]
        submitted = time.perf_counter()

        def task(thunk):
            def run():
                waited = time.perf_counter() - submitted
                with self._lock:
                    self.queue_wait_s += waited
                return self._run("pool.task", caller, thunk, (), {})

            return run

        return original(pool, {shard: task(thunk) for shard, thunk in work.items()})

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Wrap every traced entry point for the duration; restore after."""
        saved = []
        try:
            for owner, method, name, tally in TRACED:
                original = owner.__dict__[method]
                saved.append((owner, method, original))
                setattr(owner, method, self._wrap(original, name, tally))
            original = ShardWorkerPool.__dict__["map_shards"]
            saved.append((ShardWorkerPool, "map_shards", original))
            ShardWorkerPool.map_shards = self._wrap_map_shards(original)
            yield self
        finally:
            for owner, method, original in reversed(saved):
                setattr(owner, method, original)

    @contextmanager
    def record(self) -> Iterator["Ledger"]:
        """Record spans and counters for the duration."""
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False


def _covered_s(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


@dataclass
class LedgerReport:
    """Per-span-name totals and the self-consistency checks of one trace."""

    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    busy_s: float = 0.0
    wire_s: float = 0.0
    requests: int = 0
    ledger_violations: int = 0
    worst_gap_share: float = 0.0
    orphan_worker_spans: int = 0
    misparented_tasks: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.ledger_violations == 0
            and self.orphan_worker_spans == 0
            and self.misparented_tasks == 0
        )


def analyse(spans: List[Span]) -> LedgerReport:
    """Self times per span name, and the per-request ledger checks."""
    report = LedgerReport()
    by_id = {span.span_id: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_s, span.end_s))
    self_by_root: Dict[int, float] = defaultdict(float)
    for span in spans:
        duration = span.end_s - span.start_s
        own = duration - _covered_s(span.start_s, span.end_s, children.get(span.span_id, []))
        report.self_s[span.name] += own
        report.total_s[span.name] += duration
        report.calls[span.name] += 1
        self_by_root[span.root_id] += own
        if span.name == "pool.task":
            parent = by_id.get(span.parent_id)
            if parent is None or parent.name != "pool.map_shards":
                report.misparented_tasks += 1
    for span in spans:
        if span.parent_id is not None:
            continue
        duration = span.end_s - span.start_s
        report.busy_s += duration
        if span.name != "gateway.wire":
            continue
        report.requests += 1
        report.wire_s += duration
        gap = abs(self_by_root[span.span_id] - duration)
        if duration > 0:
            report.worst_gap_share = max(report.worst_gap_share, gap / duration)
        if gap > max(LEDGER_TOLERANCE_SHARE * duration, LEDGER_TOLERANCE_S):
            report.ledger_violations += 1
    # A span recorded on another thread than its request's root must reach
    # the root through a pool.task (the worker-side half of map_shards).
    for span in spans:
        root = by_id.get(span.root_id)
        if root is None or span.thread_id == root.thread_id:
            continue
        node: Optional[Span] = span
        while node is not None and node.name != "pool.task":
            node = by_id.get(node.parent_id) if node.parent_id is not None else None
        if node is None:
            report.orphan_worker_spans += 1
    return report
