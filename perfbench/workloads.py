"""The benchmark's three workloads: seeded worlds and the wire traffic they see.

Every workload starts from a synthetic world built by ``build_world`` and
replays recorded :class:`~repro.loadgen.script.WireEvent` traffic derived
from ``SyntheticWorld.live_drives(day=...)`` or from the world's listeners,
in whole units (live days or crowd bursts), so that every part of a
workload's shape is replayed:

* ``commute`` — loadgen's ``rush_hour`` shape, one script per live day, over
  consecutive whole live days: multi-user window batches (these go through
  the shard worker pool), cold recommendation reads every second window,
  mid-drive and arrival feedback.  The recommender, context building,
  roadnet and trajectory layers do most of the work.  A recommendation
  costs ~20 ms, so the world is small enough for whole rush hours to fit.
* ``device_upload`` — every commuter's phone uploads its own buffered fixes
  once per 60 s window as an envelope-``user_id`` batch, over consecutive
  whole live days, with durability on and ``maintenance_tick()`` on a fixed
  scenario-time cadence.  The ticks keep one day of raw fixes, so each live
  day's ticks prune the day before, and the WAL size budget is crossed once
  a replay, so one tick writes a checkpoint.  Ingest, streaming, WAL and
  compaction do the work; the recommender does none.  A one-user batch is a
  single shard group, so it bypasses the worker pool.
* ``hot_reads`` — a flash crowd of parked listeners, in back-to-back
  bursts.  Each burst follows loadgen ``flash_crowd``'s per-listener shape
  (three hot-clip GETs, three recommendation GETs, one clip page, one
  feedback), with validators added: the recommendation GETs are conditional
  polls, a listener's first clip GET of a burst goes without a validator
  and the other two with one.  Feedback is thinned to a seeded ~5% share of
  requests; each one invalidates that listener's recommendation ETag.  A
  burst lasts a third of the recommendation ETag bucket (the gateway's
  ``recommendation_ttl_s``, also the ``max-age`` it sends), so a listener
  polls about nine times per bucket: the first poll after the bucket turns
  or after the listener's own feedback is a cold 200, the others
  revalidate.  The gateway codec, middleware, routing, ETag checks and
  content reads dominate.

A workload's size is a number of whole units (live days or bursts), fixed
by ``--seconds`` through a per-workload rate measured on a 2-vCPU machine,
so both commits of a comparison replay exactly the same requests whatever
their speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.datasets import CommuterConfig, SyntheticWorld, WorldConfig
from repro.loadgen import ScenarioScript, WireEvent, rush_hour_script
from repro.pipeline.gateway.gateway import GatewayConfig
from repro.pipeline.server import ServerConfig
from repro.storage.wal import DurabilityConfig
from repro.util.rng import DeterministicRng
from repro.util.timeutils import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Commuters in a benchmark world and days of GPS history loaded at set-up.
COMMUTERS = 150
HISTORY_DAYS = 4
#: Commuters in a ``commute`` world: one live day's rush hour is ~7
#: requests per commuter, most of them ~20 ms recommendations, so whole
#: live days fit a replay.
COMMUTE_COMMUTERS = 32

#: Width of one device upload window in ``device_upload``.
UPLOAD_WINDOW_S = 60.0
#: Scenario-time cadence of ``maintenance_tick()`` in ``device_upload``.
TICK_EVERY_S = 600.0
#: Raw fixes each ``device_upload`` tick keeps per user (relative to the
#: user's latest fix).  The 14-day default is never reached in a run.
KEEP_WINDOW_S = float(SECONDS_PER_DAY)
#: Per-log WAL size budget of ``device_upload``.  Set-up leaves each shard
#: log at ~1.8 MB and a live day adds ~0.2 MB, so a replay crosses it once,
#: early in its first or second live day; the 4 MiB default would need
#: about ten live days.
WAL_COMPACT_MIN_BYTES = 2 * 1024 * 1024

#: ``hot_reads``: the time of day the crowd gathers, the per-listener shape
#: of one burst (loadgen ``flash_crowd``: three hot-clip GETs, three
#: recommendation GETs, one clip page) and the share of feedback POSTs.
HOT_READS_START_S = 10.0 * SECONDS_PER_HOUR
CROWD_CLIP_READS = 3
CROWD_POLLS = 3
CROWD_PAGES = 1
FEEDBACK_SHARE = 0.05
#: Chance that a listener sends one feedback in a burst, so that feedback
#: is ``FEEDBACK_SHARE`` of all requests.
FEEDBACK_P = FEEDBACK_SHARE * (CROWD_CLIP_READS + CROWD_POLLS + CROWD_PAGES) / (1.0 - FEEDBACK_SHARE)

#: Status each op kind may answer with; anything else counts as failed.
EXPECTED_STATUS: Dict[str, Tuple[int, ...]] = {
    "rec": (200,),
    "poll": (200, 304),
    "clip": (200,),
    "clip_cond": (200, 304),
    "page": (200,),
    "ingest": (202,),
    "feedback": (201,),
}


def op_kind(event: WireEvent) -> str:
    """The op kind of a scripted request, from its method, path and tags."""
    conditional = event.tag("conditional") == "1"
    if event.method == "POST":
        if event.path == "/v1/tracking/batch":
            return "ingest"
        if event.path == "/v1/feedback":
            return "feedback"
    elif event.method == "GET":
        if event.path.startswith("/v1/recommendations/"):
            return "poll" if conditional else "rec"
        if event.path.startswith("/v1/clips/"):
            return "clip_cond" if conditional else "clip"
        if event.path == "/v1/clips":
            return "page"
    raise ValueError(f"no op kind for {event.method} {event.path}")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its server, its traffic and its size."""

    name: str
    #: The latency class the workload was built to stress (the ``lead_*``
    #: end-to-end metrics).
    lead_class: str
    #: Units (live days or bursts) replayed per second of ``--seconds``,
    #: measured on a 2-vCPU machine.
    units_per_second: float
    script: Callable[[SyntheticWorld, int, int], ScenarioScript]
    commuters: int = COMMUTERS
    durability: bool = False
    tick_every_s: Optional[float] = None
    keep_window_s: Optional[float] = None

    def units(self, seconds: float) -> int:
        """How many whole units a replay of ``seconds`` covers (at least one)."""
        return max(1, round(seconds * self.units_per_second))

    def server_config(self, wal_directory: Optional[str]) -> ServerConfig:
        """Server defaults; durability (fsync off) is the only change."""
        if not self.durability:
            return ServerConfig()
        return ServerConfig(
            durability=DurabilityConfig(
                enabled=True,
                directory=wal_directory,
                compact_min_bytes=WAL_COMPACT_MIN_BYTES,
            )
        )

    def ticks(self, script: ScenarioScript) -> List[float]:
        """Scenario times of the maintenance ticks inside the script's span."""
        if self.tick_every_s is None or not script.events:
            return []
        every = self.tick_every_s
        first = math.ceil(script.events[0].t_s / every)
        last = math.floor(script.events[-1].t_s / every)
        return [k * every for k in range(first, last + 1)]


def world_config(seed: int, server: ServerConfig, *, commuters: int = COMMUTERS) -> WorldConfig:
    """The seeded world: a fixed city and catalogue, seeded commuters."""
    return WorldConfig(
        seed=seed,
        commuters=CommuterConfig(seed=seed, commuters=commuters, history_days=HISTORY_DAYS),
        server=server,
    )


def _day_world(world: SyntheticWorld, day: int) -> SyntheticWorld:
    """The same world whose live day (``world.today``) is ``day``."""
    commuters = replace(world.config.commuters, history_days=day)
    return replace(world, config=replace(world.config, commuters=commuters))


def _fix_item(fix) -> Dict[str, float]:
    return {
        "lat": fix.position.lat,
        "lon": fix.position.lon,
        "timestamp_s": fix.timestamp_s,
        "speed_mps": fix.speed_mps,
        "accuracy_m": fix.accuracy_m,
    }


def _script(name: str, seed: int, events: List[WireEvent], units: Dict[str, int]) -> ScenarioScript:
    return ScenarioScript(name=name, seed=seed, events=tuple(events), metadata=units)


def commute_script(world: SyntheticWorld, seed: int, days: int) -> ScenarioScript:
    """``rush_hour`` traffic over ``days`` consecutive live days."""
    events: List[WireEvent] = []
    for day in range(world.today, world.today + days):
        day_script = rush_hour_script(_day_world(world, day), seed=seed * 1000 + day)
        events.extend(day_script.events)
    return _script("commute", seed, events, {"live_days": days})


def device_upload_script(world: SyntheticWorld, seed: int, days: int) -> ScenarioScript:
    """Per-device 60 s uploads over ``days`` consecutive live days."""
    events: List[WireEvent] = []
    for day in range(world.today, world.today + days):
        day_start = day * SECONDS_PER_DAY
        uploads: List[Tuple[float, str, List[dict]]] = []
        for commuter, drive in world.live_drives(day=day):
            windows: Dict[int, List[dict]] = {}
            for fix in drive.fixes():
                index = int((fix.timestamp_s - day_start) // UPLOAD_WINDOW_S)
                windows.setdefault(index, []).append(_fix_item(fix))
            for index, items in windows.items():
                t_s = day_start + (index + 1) * UPLOAD_WINDOW_S
                uploads.append((t_s, commuter.user_id, items))
        uploads.sort(key=lambda upload: (upload[0], upload[1]))
        events.extend(
            WireEvent(
                t_s=t_s,
                method="POST",
                path="/v1/tracking/batch",
                body={"user_id": user_id, "fixes": items},
                tags=(("user", user_id),),
            )
            for t_s, user_id, items in uploads
        )
    return _script("device_upload", seed, events, {"live_days": days})


def hot_clip_id(world: SyntheticWorld) -> str:
    """The clip the crowd converges on: the newest one in the catalogue."""
    return max(
        world.clips_by_id.values(), key=lambda clip: (clip.published_s, clip.clip_id)
    ).clip_id


def _crowd_event(kind: str, t_s: float, user_id: str, hot_clip: str, rng: DeterministicRng) -> WireEvent:
    """One ``hot_reads`` request of the given op kind."""
    if kind in ("clip", "clip_cond"):
        tags = (("conditional", "1"),) if kind == "clip_cond" else ()
        return WireEvent(t_s=t_s, method="GET", path=f"/v1/clips/{hot_clip}", tags=tags)
    if kind == "poll":
        return WireEvent(
            t_s=t_s,
            method="GET",
            path=f"/v1/recommendations/{user_id}",
            query={"now_s": repr(t_s)},
            tags=(("conditional", "1"), ("user", user_id)),
        )
    if kind == "page":
        return WireEvent(t_s=t_s, method="GET", path="/v1/clips", query={"limit": "10"})
    return WireEvent(
        t_s=t_s,
        method="POST",
        path="/v1/feedback",
        body={
            "user_id": user_id,
            "content_id": hot_clip,
            "kind": "like" if rng.bernoulli(0.6) else "completed",
            "timestamp_s": t_s,
            "listened_s": round(rng.uniform(30.0, 180.0), 3),
        },
        tags=(("user", user_id),),
    )


def _listener_burst(
    rng: DeterministicRng, user_id: str, hot_clip: str, start: float, span: float
) -> List[Tuple[float, WireEvent]]:
    """One listener's requests in one crowd burst, in time order.

    The listener fetches the hot clip first and revalidates it later; the
    other requests come in a seeded order at seeded times.
    """
    rest = ["clip_cond"] * (CROWD_CLIP_READS - 1) + ["poll"] * CROWD_POLLS + ["page"] * CROWD_PAGES
    if rng.bernoulli(FEEDBACK_P):
        rest.append("feedback")
    kinds = ["clip"] + rng.shuffle(rest)
    times = sorted(round(start + rng.uniform(0.0, span), 3) for _ in kinds)
    return [(t_s, _crowd_event(kind, t_s, user_id, hot_clip, rng)) for t_s, kind in zip(times, kinds)]


def hot_reads_script(world: SyntheticWorld, seed: int, bursts: int) -> ScenarioScript:
    """``bursts`` back-to-back flash-crowd bursts of parked listeners."""
    rng = DeterministicRng(seed).fork("hot_reads")
    users = sorted(commuter.user_id for commuter in world.commuters)
    hot_clip = hot_clip_id(world)
    span = GatewayConfig().recommendation_ttl_s / CROWD_POLLS
    start = world.today_start_s + HOT_READS_START_S
    events: List[WireEvent] = []
    for index in range(bursts):
        timed = []
        for position, user_id in enumerate(users):
            burst = _listener_burst(
                rng.fork(index, user_id), user_id, hot_clip, start + index * span, span
            )
            timed += [(t_s, position, order, event) for order, (t_s, event) in enumerate(burst)]
        timed.sort(key=lambda entry: entry[:3])
        events += [event for *_key, event in timed]
    return _script("hot_reads", seed, events, {"live_days": 1, "bursts": bursts})


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="commute",
            lead_class="rec",
            units_per_second=0.9,
            script=commute_script,
            commuters=COMMUTE_COMMUTERS,
        ),
        Workload(
            name="device_upload",
            lead_class="ingest",
            units_per_second=0.9,
            script=device_upload_script,
            durability=True,
            tick_every_s=TICK_EVERY_S,
            keep_window_s=KEEP_WINDOW_S,
        ),
        Workload(
            name="hot_reads",
            lead_class="reval",
            units_per_second=7.5,
            script=hot_reads_script,
        ),
    )
}
