"""Shard-partitioned storage: routing, merged cursors, parity, rebalancing.

The sharding contract, end to end:

* stable crc32 user→shard routing shared by every per-user store;
* the shard router's merged keyset pagination returns exactly the rows a
  single unsharded walk returns, whatever the shard count;
* a sharded deployment is *observably identical* to a single-database one
  for the same request sequence (stores, wire responses, models);
* per-shard single-writer parallelism (worker pool, parallel compaction,
  multi-user batch ingest) changes wall-clock, never results;
* snapshots are the migration primitive: whole-server payloads restore
  into any shard layout, per-shard payloads move one shard.
"""

from __future__ import annotations

import gzip
import json
import threading
import zlib

import pytest

from repro.errors import PipelineError, ValidationError
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point
from repro.pipeline import Gateway
from repro.pipeline.server import PphcrServer, ServerConfig
from repro.spatialdb import GpsFix, TrackingStore
from repro.storage import (
    Column,
    IndexSpec,
    Schema,
    ShardedDatabase,
    ShardingConfig,
    ShardWorkerPool,
    payload_from_bytes,
    payload_to_bytes,
    shard_of,
)
from repro.users.feedback import FeedbackKind, FeedbackStore
from repro.users.profile import UserProfile
from repro.util.ids import reset_ids
from repro.util.rng import DeterministicRng


# Routing ------------------------------------------------------------------


def test_shard_of_is_stable_crc32():
    assert shard_of("user-007", 4) == zlib.crc32(b"user-007") % 4
    assert shard_of("user-007", 1) == 0
    # Every user id maps into range and the assignment is deterministic.
    for index in range(50):
        user_id = f"user-{index:03d}"
        assert 0 <= shard_of(user_id, 4) < 4
        assert shard_of(user_id, 4) == shard_of(user_id, 4)


def test_sharding_config_validates():
    assert ShardingConfig().shards == 4
    with pytest.raises(PipelineError):
        ShardingConfig(shards=0)


# Worker pool --------------------------------------------------------------


def test_worker_pool_runs_each_shard_on_its_own_worker():
    pool = ShardWorkerPool(3)
    try:
        results = pool.map_shards(
            {shard: (lambda shard=shard: (shard, threading.current_thread().name))
             for shard in range(3)}
        )
        assert sorted(results) == [0, 1, 2]
        names = {shard: name for shard, (value, name) in results.items()}
        assert len(set(names.values())) == 3
        for shard, name in names.items():
            assert name.startswith(f"shard-{shard}")
        # The same shard always lands on the same (single) worker thread.
        again = pool.map_shards({1: lambda: threading.current_thread().name})
        assert again[1] == names[1]
    finally:
        pool.shutdown()


def test_worker_pool_reraises_lowest_shard_error_first():
    pool = ShardWorkerPool(4)
    try:
        def boom(message):
            raise ValueError(message)

        with pytest.raises(ValueError, match="shard-1 failed"):
            pool.map_shards(
                {
                    3: lambda: boom("shard-3 failed"),
                    1: lambda: boom("shard-1 failed"),
                    2: lambda: "fine",
                }
            )
    finally:
        pool.shutdown()


# Merged keyset pagination -------------------------------------------------


def _events_db(shards: int) -> ShardedDatabase:
    def create_tables(db):
        db.create_table(
            Schema(
                name="events",
                primary_key="event_id",
                columns=[
                    Column("event_id", str),
                    Column("user_id", str),
                    Column("timestamp_s", float),
                ],
                indexes=[IndexSpec("time", kind="sorted", columns=("timestamp_s",))],
            )
        )

    return ShardedDatabase(
        "events", shards=shards, shard_key="user_id", create_tables=create_tables
    )


def _fill_events(db: ShardedDatabase, rng: DeterministicRng, count: int = 120) -> None:
    for index in range(count):
        user_id = f"user-{rng.randint(0, 17):03d}"
        db.table_for(user_id, "events").insert(
            {
                "event_id": f"ev-{index:04d}",
                "user_id": user_id,
                # Unique per row: among equal keys the merged walk breaks
                # ties by shard, a single table by insertion order.
                "timestamp_s": float((index * 37) % 251),
            }
        )


@pytest.mark.parametrize("descending", [False, True])
def test_merged_page_walk_matches_single_shard_walk(descending, seeded_rng):
    single, sharded = _events_db(1), _events_db(4)
    # Identically-labeled forks give both layouts the exact same rows.
    _fill_events(single, seeded_rng.fork("events"))
    _fill_events(sharded, seeded_rng.fork("events"))

    def walk(db, limit):
        rows, token = [], None
        while True:
            page = db.page_by_index(
                "events", "time", limit=limit, after_token=token, descending=descending
            )
            rows.extend(row["event_id"] for row in page.items)
            token = page.next_token
            if token is None:
                return rows

    for limit in (1, 3, 7, 50):
        assert walk(sharded, limit) == walk(single, limit)


def test_merged_page_walk_is_stable_under_inserts(seeded_rng):
    db = _events_db(4)
    _fill_events(db, seeded_rng.fork("events"), count=60)
    first = db.page_by_index("events", "time", limit=10)
    # New rows land behind the cursor position on every shard.
    for index in range(20):
        user_id = f"late-{index:02d}"
        db.table_for(user_id, "events").insert(
            {"event_id": f"late-{index:02d}", "user_id": user_id, "timestamp_s": 1000.0}
        )
    rest, token = [], first.next_token
    while token is not None:
        page = db.page_by_index("events", "time", limit=10, after_token=token)
        rest.extend(row["event_id"] for row in page.items)
        token = page.next_token
    seen = [row["event_id"] for row in first.items] + rest
    assert len(seen) == len(set(seen)) == 80


def test_merged_cursor_rejects_foreign_and_malformed_tokens(seeded_rng):
    sharded = _events_db(4)
    single = _events_db(1)
    _fill_events(sharded, seeded_rng.fork("events"))
    _fill_events(single, seeded_rng.fork("events"))
    single_token = single.page_by_index("events", "time", limit=5).next_token
    with pytest.raises(ValidationError):
        # A 1-shard token has the wrong arity for a 4-shard router.
        sharded.page_by_index("events", "time", limit=5, after_token=single_token)
    with pytest.raises(ValidationError):
        sharded.page_by_index("events", "time", limit=5, after_token="not-a-token")


# Compressed snapshots -----------------------------------------------------


def test_gzip_snapshot_bytes_round_trip(seeded_rng):
    db = _events_db(4)
    _fill_events(db, seeded_rng.fork("events"))
    raw = db.snapshot_bytes()
    packed = db.snapshot_bytes(compress=True)
    assert packed[:2] == b"\x1f\x8b"
    assert len(packed) < len(raw)
    # Byte-equal after decompression, and both forms restore identically.
    assert gzip.decompress(packed) == raw
    assert payload_from_bytes(packed) == payload_from_bytes(raw) == db.snapshot()
    restored = _events_db(4)
    restored.restore_bytes(packed)
    assert restored.snapshot() == db.snapshot()
    with pytest.raises(ValidationError):
        payload_from_bytes(b"\x1f\x8b corrupted gzip stream")
    with pytest.raises(ValidationError):
        payload_to_bytes(["not", "a", "dict"])  # type: ignore[arg-type]


# Store parity -------------------------------------------------------------


def _fixes_for(user_id: str, base_rng: DeterministicRng, *, t0: float = 0.0, count: int = 8):
    # Fork by user id: every call with the same base rng and user draws the
    # same drive geometry, so twin servers ingest byte-identical data and
    # repeated rounds re-walk the same route at later timestamps.
    rng = base_rng.fork("fixes", user_id)
    base = GeoPoint(45.07 + rng.uniform(-0.02, 0.02), 7.68 + rng.uniform(-0.02, 0.02))
    bearing = rng.uniform(0.0, 360.0)
    return [
        GpsFix(
            user_id,
            t0 + 30.0 * index,
            destination_point(base, bearing, 250.0 * index),
            speed_mps=10.0,
        )
        for index in range(count)
    ]


def test_tracking_store_sharded_matches_single(seeded_rng):
    single, sharded = TrackingStore(), TrackingStore(shards=4)
    users = [f"user-{index:03d}" for index in range(12)]
    for store in (single, sharded):
        for user_id in users:
            for fix in _fixes_for(user_id, seeded_rng):
                store.add_fix(fix)
    assert sharded.shard_count == 4
    for user_id in users:
        assert sharded.shard_of(user_id) == shard_of(user_id, 4)
        assert sharded.fixes_for(user_id) == single.fixes_for(user_id)
        assert sharded.latest_fix(user_id) == single.latest_fix(user_id)
    assert sharded.user_ids() == single.user_ids()
    assert sharded.fix_count() == single.fix_count()
    center = single.latest_fix(users[0]).position
    assert sharded.users_within(center, 5000.0) == single.users_within(center, 5000.0)
    # The flat snapshot format is shard-layout independent: both layouts
    # produce the same payload and each restores the other's.
    assert sharded.snapshot() == single.snapshot()
    reloaded = TrackingStore(shards=3)
    reloaded.restore(single.snapshot())
    assert reloaded.snapshot() == single.snapshot()


def test_feedback_store_sharded_matches_single(seeded_rng):
    reset_ids()
    single = FeedbackStore()
    reset_ids()
    sharded = FeedbackStore(shards=4)
    rng = seeded_rng.fork("events")
    events = [
        (f"user-{rng.randint(0, 7):03d}", f"clip-{rng.randint(0, 4):03d}", float(index))
        for index in range(40)
    ]
    for store in (single, sharded):
        reset_ids()
        for user_id, content_id, timestamp_s in events:
            store.record(user_id, content_id, FeedbackKind.LIKE, timestamp_s=timestamp_s)
    assert len(sharded) == len(single) == 40
    assert sharded.version == single.version
    for user_id in {user_id for user_id, _content, _ts in events}:
        assert sharded.events_for_user(user_id) == single.events_for_user(user_id)
    assert sharded.events_for_content("clip-001") == single.events_for_content("clip-001")

    def walk(store):
        items, cursor = [], None
        while True:
            page = store.events_page(cursor=cursor, limit=7)
            items.extend(page.items)
            cursor = page.next_token
            if cursor is None:
                return items

    # The merged global listing yields the same events in the same order.
    assert walk(sharded) == walk(single)
    # Snapshots are portable across layouts: a single-store payload restores
    # into any shard count with identical observable state.
    reloaded = FeedbackStore(shards=2)
    reloaded.restore(single.snapshot())
    assert len(reloaded) == len(single)
    assert reloaded.version == single.version
    assert walk(reloaded) == walk(single)
    for user_id in {user_id for user_id, _content, _ts in events}:
        assert reloaded.events_for_user(user_id) == single.events_for_user(user_id)


# Server-level parity ------------------------------------------------------


def _server(shards: int, *, parallel: bool = False):
    reset_ids()
    server = PphcrServer(
        config=ServerConfig(sharding=ShardingConfig(shards=shards, parallel=parallel))
    )
    gateway = Gateway(server)
    for index in range(8):
        server.register_user(
            UserProfile(user_id=f"user-{index:03d}", display_name=f"User {index}")
        )
    return server, gateway


def _ingest_rounds(server, rng, *, rounds: int = 2, via=None):
    for round_index in range(rounds):
        for index in range(8):
            user_id = f"user-{index:03d}"
            fixes = _fixes_for(user_id, rng, t0=round_index * 86400.0, count=10)
            if via is None:
                server.users.ingest_fixes(fixes, skip_stale=True)
            else:
                via(user_id, fixes)


def test_sharded_server_serves_identical_wire_responses(seeded_rng):
    server_single, gateway_single = _server(1)
    server_sharded, gateway_sharded = _server(4)
    for server, gateway in ((server_single, gateway_single), (server_sharded, gateway_sharded)):
        reset_ids()
        _ingest_rounds(server, seeded_rng)
        for index in range(8):
            response = gateway.request(
                "POST",
                "/v1/feedback",
                body={
                    "user_id": f"user-{index:03d}",
                    "content_id": f"clip-{index:03d}",
                    "kind": "like",
                    "timestamp_s": 100.0 * index,
                },
            )
            assert response.status == 201

    now_s = 86400.0 + 30.0 * 9
    for index in range(8):
        user_id = f"user-{index:03d}"
        for method, path, query in (
            ("GET", f"/v1/users/{user_id}", None),
            ("GET", f"/v1/recommendations/{user_id}", {"now_s": repr(now_s)}),
        ):
            status_a, body_a, headers_a = gateway_single.handle_wire(
                method, path, query=query
            )
            status_b, body_b, headers_b = gateway_sharded.handle_wire(
                method, path, query=query
            )
            assert (status_a, body_a) == (status_b, body_b), path
            # ETags (profile versions, model freshness) match too.
            assert headers_a.get("etag") == headers_b.get("etag"), path
    assert server_single.users.profiles_version == server_sharded.users.profiles_version


def test_users_listing_merges_across_shards():
    _server_single, gateway_single = _server(1)
    _server_sharded, gateway_sharded = _server(4)

    def walk(gateway):
        users, cursor = [], None
        while True:
            query = {"limit": "3"}
            if cursor is not None:
                query["cursor"] = cursor
            status, body, _headers = gateway.handle_wire("GET", "/v1/users", query=query)
            assert status == 200
            data = json.loads(body)
            users.extend(user["user_id"] for user in data["users"])
            cursor = data["next_cursor"]
            if cursor is None:
                return users

    expected = [f"user-{index:03d}" for index in range(8)]
    assert walk(gateway_sharded) == walk(gateway_single) == expected


# Multi-user wire batches --------------------------------------------------


def test_tracking_batch_accepts_multi_user_payloads(seeded_rng):
    server_grouped, gateway_grouped = _server(4, parallel=True)
    server_single_user, gateway_single_user = _server(4, parallel=True)

    all_fixes = []
    for index in range(8):
        user_id = f"user-{index:03d}"
        fixes = _fixes_for(user_id, seeded_rng, count=6)
        all_fixes.append((user_id, fixes))
    # Interleave users in one envelope-less request.
    mixed = [
        {
            "user_id": user_id,
            "lat": fix.position.lat,
            "lon": fix.position.lon,
            "timestamp_s": fix.timestamp_s,
            "speed_mps": fix.speed_mps,
        }
        for position in range(6)
        for user_id, fixes in all_fixes
        for fix in [fixes[position]]
    ]
    response = gateway_grouped.request("POST", "/v1/tracking/batch", body={"fixes": mixed})
    assert response.status == 202
    assert response.body == {
        "submitted": 48,
        "accepted": 48,
        "skipped_stale": 0,
        "users": 8,
    }
    # Equivalent to one legacy single-user batch per user.
    for user_id, fixes in all_fixes:
        response = gateway_single_user.request(
            "POST",
            "/v1/tracking/batch",
            body={
                "user_id": user_id,
                "fixes": [
                    {
                        "lat": fix.position.lat,
                        "lon": fix.position.lon,
                        "timestamp_s": fix.timestamp_s,
                        "speed_mps": fix.speed_mps,
                    }
                    for fix in fixes
                ],
            },
        )
        assert response.status == 202
        assert "users" not in response.body  # legacy response shape unchanged
    for user_id, _fixes in all_fixes:
        assert server_grouped.users.tracking.fixes_for(
            user_id
        ) == server_single_user.users.tracking.fixes_for(user_id)


def test_tracking_batch_atomic_when_worker_faults_mid_group(seeded_rng):
    """A pooled worker raising mid-batch must leave zero fixes ingested.

    The pooled ingest path validates every shard group before any shard
    writes, so an injected worker fault surfaces as a 500 with no partial
    multi-user ingest observable anywhere — plus a ``tracking.batch_failed``
    dead-letter record and a request trace tagged with the 500.
    """
    server, gateway = _server(4, parallel=True)
    twin, twin_gateway = _server(4, parallel=True)
    users = [f"user-{index:03d}" for index in range(8)]
    mixed = [
        {
            "user_id": user_id,
            "lat": fix.position.lat,
            "lon": fix.position.lon,
            "timestamp_s": fix.timestamp_s,
            "speed_mps": fix.speed_mps,
        }
        for position in range(6)
        for user_id in users
        for fix in [_fixes_for(user_id, seeded_rng, count=6)[position]]
    ]

    fired = []

    def fault(shard):
        fired.append(shard)
        raise PipelineError(f"injected worker fault on shard {shard}")

    server.workers.set_fault_hook(fault)
    response = gateway.request("POST", "/v1/tracking/batch", body={"fixes": mixed})
    assert response.status == 500
    assert fired  # the fault actually ran on a worker thread

    # No partial ingest is observable for any user on any shard.
    for user_id in users:
        assert server.users.tracking.fix_count(user_id) == 0
        assert server.users.tracking.fixes_added(user_id) == 0
        assert server.streaming.model_freshness(user_id) == (0, 0)

    # The aborted batch is dead-lettered (no subscriber on the failure
    # topic) with the owning users recorded.
    records = server.bus.dead_letter_records("tracking.batch_failed")
    assert len(records) == 1
    assert records[0].reason == "no_subscriber"
    assert records[0].message.body["users"] == users
    assert records[0].message.body["submitted"] == len(mixed)

    # The request trace carries the 500.
    recent = server.telemetry.traces_snapshot()["recent"]
    batch_traces = [
        trace for trace in recent if trace["tags"].get("path") == "/v1/tracking/batch"
    ]
    assert batch_traces and batch_traces[-1]["tags"]["status"] == 500

    # Disarm and retry: the identical request now matches a clean twin.
    server.workers.set_fault_hook(None)
    retry = gateway.request("POST", "/v1/tracking/batch", body={"fixes": mixed})
    clean = twin_gateway.request("POST", "/v1/tracking/batch", body={"fixes": mixed})
    assert retry.status == clean.status == 202
    assert retry.body == clean.body
    for user_id in users:
        assert server.users.tracking.fixes_for(user_id) == twin.users.tracking.fixes_for(
            user_id
        )


def test_tracking_batch_multi_user_resolves_all_owners_before_ingest():
    server, gateway = _server(4, parallel=True)
    fixes = [
        {"user_id": "user-000", "lat": 45.0, "lon": 7.6, "timestamp_s": 10.0},
        {"user_id": "ghost", "lat": 45.0, "lon": 7.6, "timestamp_s": 11.0},
    ]
    response = gateway.request("POST", "/v1/tracking/batch", body={"fixes": fixes})
    assert response.status == 404
    # The known user's fix was NOT half-ingested.
    assert server.users.tracking.fix_count("user-000") == 0
    # And a fix missing its owner is a 400 naming the item.
    response = gateway.request(
        "POST",
        "/v1/tracking/batch",
        body={"fixes": [{"lat": 45.0, "lon": 7.6, "timestamp_s": 10.0}]},
    )
    assert response.status == 400
    assert "fixes[0]" in response.body["error"]


def test_parallel_ingest_pool_matches_serial_outcome(seeded_rng):
    server_serial, _gateway = _server(4, parallel=False)
    server_parallel, _gateway = _server(4, parallel=True)
    fixes = [
        fix
        for index in range(8)
        for fix in _fixes_for(f"user-{index:03d}", seeded_rng, count=12)
    ]
    server_serial.users.ingest_fixes(fixes, skip_stale=True)
    assert server_parallel.workers is not None
    accepted = server_parallel.users.ingest_fixes(
        fixes, skip_stale=True, pool=server_parallel.workers
    )
    assert accepted == len(fixes)
    for index in range(8):
        user_id = f"user-{index:03d}"
        assert server_parallel.users.tracking.fixes_for(
            user_id
        ) == server_serial.users.tracking.fixes_for(user_id)
        assert server_parallel.streaming.model_freshness(
            user_id
        ) == server_serial.streaming.model_freshness(user_id)


# Compaction ---------------------------------------------------------------


def test_full_compaction_pass_matches_per_shard_passes(seeded_rng):
    """One full pass and one pass per shard prune the same fixes and leave
    identical stores behind."""
    server_full, _gateway = _server(4)
    server_shards, _gateway = _server(4)
    for server in (server_full, server_shards):
        reset_ids()
        _ingest_rounds(server, seeded_rng.fork("rounds"), rounds=3)
    keep = 86400.0  # tighten the window so pruning happens
    report = server_full.compactor.run_pass(keep_window_s=keep)
    assert report.shard is None
    assert report.unchanged_users == report.deferred_users == report.skipped_users == 0
    removed = {}
    for shard in range(server_shards.config.compaction.shards):
        removed.update(server_shards.compact_tracking_data(keep_window_s=keep, shard=shard))
    assert removed == report.removed
    assert sum(removed.values()) > 0
    assert not server_shards.compactor.dirty_users()
    for index in range(8):
        user_id = f"user-{index:03d}"
        assert server_shards.users.tracking.fixes_for(
            user_id
        ) == server_full.users.tracking.fixes_for(user_id)


# Rebalancing --------------------------------------------------------------


def _warmed_server(shards: int, rng: DeterministicRng):
    server, gateway = _server(shards)
    _ingest_rounds(server, rng, rounds=2)
    for index in range(8):
        server.users.record_feedback(
            f"user-{index:03d}",
            f"clip-{index:03d}",
            FeedbackKind.LIKE,
            timestamp_s=50.0 * index,
            is_clip=False,
        )
    return server, gateway


def test_whole_server_snapshot_restores_into_other_shard_layout(seeded_rng):
    server_two, _gateway_two = _warmed_server(2, seeded_rng)
    # Restore into a *fresh* 4-shard server: versions are preserved exactly
    # on a cold target (on a warm one they only stay monotonically above).
    server_four = PphcrServer(
        config=ServerConfig(sharding=ShardingConfig(shards=4, parallel=False))
    )
    server_four.restore_snapshot(server_two.snapshot())
    now_s = 86400.0 + 30.0 * 9
    for index in range(8):
        user_id = f"user-{index:03d}"
        assert server_four.users.tracking.fixes_for(
            user_id
        ) == server_two.users.tracking.fixes_for(user_id)
        assert server_four.model_freshness(user_id) == server_two.model_freshness(user_id)
        assert (
            server_four.recommend(user_id, now_s=now_s).recommended_clip_ids
            == server_two.recommend(user_id, now_s=now_s).recommended_clip_ids
        )
    # Version sums survive the re-route, so ETag validators keep matching.
    assert server_four.users.profiles_version == server_two.users.profiles_version
    assert server_four.users.feedback.version == server_two.users.feedback.version


def test_shard_snapshot_moves_one_shard_between_servers(seeded_rng):
    source, _gateway = _warmed_server(4, seeded_rng)
    target, _gateway = _server(4)
    moved_shard = source.users.shard_of("user-000")
    target.restore_shard(moved_shard, source.snapshot_shard(moved_shard))
    moved = [
        f"user-{index:03d}"
        for index in range(8)
        if source.users.shard_of(f"user-{index:03d}") == moved_shard
    ]
    assert moved  # the layout places at least user-000 here
    for user_id in moved:
        assert target.users.tracking.fixes_for(user_id) == source.users.tracking.fixes_for(
            user_id
        )
        assert target.streaming.model_freshness(user_id) == source.streaming.model_freshness(
            user_id
        )
        assert target.users.feedback.events_for_user(
            user_id
        ) == source.users.feedback.events_for_user(user_id)
    # Users of other shards were not touched by the move.
    for index in range(8):
        user_id = f"user-{index:03d}"
        if user_id not in moved:
            assert target.users.tracking.fix_count(user_id) == 0


def test_restore_shard_rejects_foreign_users(seeded_rng):
    source, _gateway = _warmed_server(4, seeded_rng)
    target, _gateway = _server(4)
    shard = source.users.shard_of("user-000")
    wrong_shard = (shard + 1) % 4
    with pytest.raises((ValidationError, PipelineError)):
        target.restore_shard(wrong_shard, source.snapshot_shard(shard))
