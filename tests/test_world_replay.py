"""Tier-1 coverage for the world-replay load generator.

The fast half of the harness's contract (the chaos matrix itself runs
under ``-m chaos``):

* scenario scripts are **byte-deterministic** — same world seed + script
  seed → identical jsonl, different seeds → different traffic;
* scripts round-trip through their jsonl serialization exactly;
* replaying a script against twin worlds produces byte-identical
  ``(status, body)`` response sequences;
* the replay report's percentiles are exact nearest-rank statistics.
"""

from __future__ import annotations

import pytest

from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.datasets.mobility import SimulatedDrive
from repro.errors import ValidationError
from repro.loadgen import (
    SCENARIO_NAMES,
    ScenarioScript,
    WireEvent,
    WorldReplay,
    build_scenario,
)
from repro.loadgen.replay import percentile
from repro.pipeline import Gateway
from repro.pipeline.server import ServerConfig
from repro.roadnet import CityGeneratorConfig
from repro.storage import ShardingConfig
from repro.util.ids import reset_ids

SCRIPT_SEED = 99


def replay_world():
    """A compact sharded world; ids reset so twin builds are identical."""
    reset_ids()
    return build_world(
        WorldConfig(
            seed=4242,
            city=CityGeneratorConfig(
                grid_rows=8, grid_cols=8, block_size_m=600.0, poi_count=16, seed=3
            ),
            broadcaster=BroadcasterConfig(seed=5, clips_per_day=40),
            commuters=CommuterConfig(seed=11, commuters=6, history_days=4),
            server=ServerConfig(sharding=ShardingConfig(shards=4, parallel=True)),
            classifier_documents_per_category=4,
            feedback_events_per_user=10,
        )
    )


@pytest.fixture(scope="module")
def world():
    return replay_world()


class TestScriptDeterminism:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_same_seed_is_byte_identical(self, world, name):
        first = build_scenario(name, world, seed=SCRIPT_SEED)
        second = build_scenario(name, world, seed=SCRIPT_SEED)
        assert first.to_jsonl() == second.to_jsonl()
        assert first.fingerprint() == second.fingerprint()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_different_seeds_diverge(self, world, name):
        # The driving backbone is world-determined; the seeded beats
        # (feedback picks, burst times, coverage gaps) must move.
        a = build_scenario(name, world, seed=1)
        b = build_scenario(name, world, seed=2)
        assert a.fingerprint() != b.fingerprint()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_jsonl_round_trip_exact(self, world, name):
        script = build_scenario(name, world, seed=SCRIPT_SEED)
        clone = ScenarioScript.from_jsonl(script.to_jsonl())
        assert clone == script
        assert clone.fingerprint() == script.fingerprint()

    def test_scripts_are_time_ordered_and_tagged(self, world):
        for name in SCENARIO_NAMES:
            script = build_scenario(name, world, seed=SCRIPT_SEED)
            assert len(script) > 0
            times = [event.t_s for event in script]
            assert times == sorted(times)
            # Every scenario carries batch ingest plus read traffic.
            methods = {event.method for event in script}
            assert "POST" in methods and "GET" in methods

    def test_handover_script_marks_unicast_fetches(self, world):
        script = build_scenario("handover", world, seed=SCRIPT_SEED)
        handovers = [e for e in script if e.tag("handover") == "broadcast->unicast"]
        assert len(handovers) == script.metadata["handovers"] > 0
        assert all(e.tag("mode") == "unicast" for e in handovers)
        assert script.metadata["cost_model"]["hybrid_unicast_bytes"] > 0

    def test_unknown_scenario_rejected(self, world):
        with pytest.raises(ValidationError):
            build_scenario("earthquake", world, seed=1)

    def test_script_rejects_out_of_order_events(self):
        with pytest.raises(ValidationError):
            ScenarioScript(
                name="x",
                seed=1,
                events=(
                    WireEvent(t_s=5.0, method="GET", path="/v1/clips"),
                    WireEvent(t_s=1.0, method="GET", path="/v1/clips"),
                ),
            )

    def test_from_jsonl_rejects_wrong_format_and_count(self, world):
        script = build_scenario("rush_hour", world, seed=SCRIPT_SEED)
        text = script.to_jsonl()
        with pytest.raises(ValidationError):
            ScenarioScript.from_jsonl(text.replace('"format":1', '"format":9', 1))
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(ValidationError):
            ScenarioScript.from_jsonl(truncated)


class TestReplay:
    def test_twin_world_replays_are_byte_identical(self, world):
        script = build_scenario("rush_hour", world, seed=SCRIPT_SEED)
        twin = replay_world()
        twin_script = build_scenario("rush_hour", twin, seed=SCRIPT_SEED)
        # The script itself is identical across twin worlds...
        assert twin_script.fingerprint() == script.fingerprint()
        # ...and so is every (status, body) the wire returns.
        report = WorldReplay(Gateway(twin.server)).run(twin_script)
        second_twin = replay_world()
        second_report = WorldReplay(Gateway(second_twin.server)).run(
            build_scenario("rush_hour", second_twin, seed=SCRIPT_SEED)
        )
        assert report.responses_digest() == second_report.responses_digest()
        assert report.status_counts == second_report.status_counts
        assert all(status < 400 for status in report.status_counts)

    def test_report_percentiles_are_nearest_rank(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0
        assert percentile([7.0], 0.99) == 7.0
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.99) == 99.0
        with pytest.raises(ValidationError):
            percentile([], 0.5)
        with pytest.raises(ValidationError):
            percentile([1.0], 1.5)

    def test_report_summary_shape(self, world):
        script = build_scenario("flash_crowd", world, seed=SCRIPT_SEED)
        twin = replay_world()
        report = WorldReplay(Gateway(twin.server)).run(
            build_scenario("flash_crowd", twin, seed=SCRIPT_SEED)
        )
        summary = report.summary()
        assert summary["scenario"] == "flash_crowd"
        assert summary["requests"] == len(script)
        assert 0.0 <= summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert summary["responses_digest"] == report.responses_digest()


class TestWireEvent:
    def test_user_ids_covers_envelope_and_batch_items(self):
        event = WireEvent(
            t_s=0.0,
            method="POST",
            path="/v1/tracking/batch",
            body={
                "fixes": [
                    {"user_id": "u-a", "lat": 1.0, "lon": 1.0, "timestamp_s": 0.0},
                    {"user_id": "u-b", "lat": 1.0, "lon": 1.0, "timestamp_s": 0.0},
                    {"user_id": "u-a", "lat": 1.0, "lon": 1.0, "timestamp_s": 1.0},
                ]
            },
        )
        assert event.user_ids() == ["u-a", "u-b"]
        feedback = WireEvent(
            t_s=0.0,
            method="POST",
            path="/v1/feedback",
            body={"user_id": "u-c", "content_id": "clip-1", "kind": "like", "timestamp_s": 1.0},
        )
        assert feedback.user_ids() == ["u-c"]

    def test_non_finite_body_does_not_serialize(self):
        event = WireEvent(
            t_s=0.0,
            method="POST",
            path="/v1/tracking",
            body={"user_id": "u-a", "lat": 1.0, "lon": 1.0, "speed_mps": float("nan")},
        )
        with pytest.raises(ValueError):
            event.body_json()
        with pytest.raises(ValueError):
            ScenarioScript(name="nan", seed=0, events=(event,)).fingerprint()

    def test_event_validates_method_and_path(self):
        with pytest.raises(ValidationError):
            WireEvent(t_s=0.0, method="", path="/v1/clips")
        with pytest.raises(ValidationError):
            WireEvent(t_s=0.0, method="GET", path="")

    def test_drive_rng_is_consumed_once(self, world):
        """Document the one-shot sampling contract scenario builders obey."""
        commuter = world.commuters[0]
        drive = world.commuter_generator.live_drive(commuter, day=world.today)
        first = drive.fixes()
        second = drive.fixes()
        # Same drive object re-sampled gives different noise: this is WHY
        # builders embed the sampled fixes in the recorded script.
        assert [f.position for f in first] != [f.position for f in second]
        assert isinstance(drive, SimulatedDrive)
