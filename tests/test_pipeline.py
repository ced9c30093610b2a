"""Tests for the message bus, the PPHCR server and the public API."""

import json

import pytest

from repro.asr import SyntheticNewsCorpus
from repro.content import AudioClip, ContentKind
from repro.errors import PipelineError
from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.pipeline import Gateway, MessageBus, PphcrServer, ServerConfig
from repro.roadnet import CityGeneratorConfig
from repro.users import UserProfile


class TestMessageBus:
    def test_publish_delivers_to_subscribers(self):
        bus = MessageBus()
        received = []
        bus.subscribe("topic.a", lambda message: received.append(message.body["x"]))
        bus.publish("topic.a", {"x": 1})
        bus.publish("topic.a", {"x": 2})
        assert received == [1, 2]
        assert bus.delivery_count() == 2

    def test_unrouted_messages_dead_lettered(self):
        bus = MessageBus()
        bus.publish("nobody.listens", {"x": 1})
        assert len(bus.dead_letters()) == 1

    def test_failing_handler_does_not_break_others(self):
        bus = MessageBus()
        received = []

        def bad_handler(_message):
            raise RuntimeError("boom")

        bus.subscribe("t", bad_handler)
        bus.subscribe("t", lambda message: received.append(1))
        bus.publish("t", {})
        assert received == [1]
        assert bus.dead_letters() == []

    def test_all_handlers_fail_dead_letter(self):
        bus = MessageBus()
        bus.subscribe("t", lambda message: (_ for _ in ()).throw(RuntimeError()))
        bus.publish("t", {})
        assert len(bus.dead_letters()) == 1

    def test_published_filter_and_topics(self):
        bus = MessageBus()
        bus.subscribe("a", lambda m: None)
        bus.publish("a", {})
        bus.publish("b", {})
        assert len(bus.published_messages()) == 2
        assert len(bus.published_messages("a")) == 1
        assert bus.topics() == ["a"]

    def test_empty_topic_rejected(self):
        bus = MessageBus()
        with pytest.raises(PipelineError):
            bus.publish("", {})
        with pytest.raises(PipelineError):
            bus.subscribe("", lambda m: None)


class TestServerIngestion:
    def test_speech_clip_classified_on_ingest(self):
        corpus = SyntheticNewsCorpus(seed=21)
        train, _ = corpus.train_test_split(documents_per_category=6)
        server = PphcrServer()
        server.train_classifier([d.text for d in train], [d.category for d in train])
        speech_text = corpus.generate_document("economics", word_count=150).text
        clip = AudioClip(
            clip_id="speech-1",
            title="Market news",
            kind=ContentKind.NEWS,
            duration_s=240.0,
        )
        stored = server.ingest_clip(clip, speech_text=speech_text)
        assert stored.transcript is not None
        assert stored.category_scores
        assert stored.primary_category == "economics"
        classified_messages = server.bus.published_messages("clip.classified")
        assert len(classified_messages) == 1
        assert classified_messages[0].body["predicted"] == "economics"

    def test_clip_without_speech_keeps_editorial_scores(self):
        server = PphcrServer()
        clip = AudioClip(
            clip_id="tagged-1",
            title="Tagged",
            kind=ContentKind.PODCAST,
            duration_s=120.0,
            category_scores={"comedy": 1.0},
        )
        stored = server.ingest_clip(clip)
        assert stored.category_scores == {"comedy": 1.0}
        assert server.content.clip_count() == 1

    def test_speech_ignored_without_classifier(self):
        server = PphcrServer()
        clip = AudioClip(clip_id="c", title="c", kind=ContentKind.NEWS, duration_s=60.0)
        stored = server.ingest_clip(clip, speech_text="qualche testo parlato qui")
        assert stored.category_scores == {}

    def test_register_user_and_bus_events(self):
        server = PphcrServer()
        server.register_user(UserProfile(user_id="u1", display_name="User"))
        assert server.users.user_count() == 1
        assert server.bus.published_messages("user.registered")


class TestServerMobilityAndRecommendation:
    def test_rebuild_requires_tracking_data(self):
        """No fixes, no mobility model: serving raises PipelineError."""
        server = PphcrServer()
        server.register_user(UserProfile(user_id="u1", display_name="User"))
        with pytest.raises(PipelineError):
            server.mobility_model("u1")

    def test_served_model_follows_the_stream(self):
        """Drives ingested after the world is built move the served model:
        it is the streaming engine's model, not a copy mined at start-up."""
        world = build_world(
            WorldConfig(
                seed=1,
                city=CityGeneratorConfig(grid_rows=8, grid_cols=8, poi_count=8, seed=4),
                broadcaster=BroadcasterConfig(seed=5, clips_per_day=20),
                commuters=CommuterConfig(seed=6, commuters=2, history_days=4),
                classifier_documents_per_category=4,
                feedback_events_per_user=4,
            )
        )
        server = world.server
        commuter = world.commuters[0]
        user_id = commuter.user_id
        before = server.mobility_model(user_id).trip_count
        history_days = world.config.commuters.history_days
        for day in range(history_days, history_days + 3):
            for reverse in (False, True):
                drive = world.commuter_generator.live_drive(commuter, day=day, reverse=reverse)
                server.users.ingest_fixes(drive.fixes())
        streamed = server.streaming.model_freshness(user_id)[1]
        assert streamed > before
        assert server.mobility_model(user_id).trip_count == streamed

    def test_build_context_stationary_without_recent_fixes(self, small_world):
        server = small_world.server
        user_id = small_world.commuters[0].user_id
        # Long after the last historical fix: the trailing window is empty.
        context = server.build_context(user_id, now_s=small_world.today_start_s + 3 * 86400.0)
        assert not context.is_driving

    def test_build_context_during_live_drive(self, small_world):
        server = small_world.server
        commuter = small_world.commuters[1]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        context = server.build_context(commuter.user_id, now_s=observe)
        assert context.is_driving
        assert context.speed_mps > 2.0
        assert context.position is not None
        # Destination prediction and ΔT should usually be available mid-commute.
        assert context.destination is not None
        assert context.available_time_s is not None

    def test_recommend_produces_plan_mid_commute(self, small_world):
        server = small_world.server
        commuter = small_world.commuters[2]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        decision = server.recommend(commuter.user_id, now_s=observe, drive_elapsed_s=240.0)
        assert server.bus.published_messages("recommendation.decision")
        if decision.should_recommend:
            plan = decision.plan
            assert plan.total_scheduled_s <= plan.available_s + 1e-6
            assert all(item.scored.clip.duration_s <= plan.available_s for item in plan.items)

    def test_recommend_for_parked_user_refuses(self, small_world):
        server = small_world.server
        user_id = small_world.commuters[3].user_id
        decision = server.recommend(user_id, now_s=small_world.today_start_s + 5 * 86400.0)
        assert not decision.should_recommend

    def test_editorial_injection_reaches_plan(self, small_world):
        server = small_world.server
        commuter = small_world.commuters[4]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        # Inject a clip the user would normally not get (disliked category).
        disliked = commuter.disliked_categories[0]
        candidates = server.content.clips_by_category(disliked)
        short_enough = [c for c in candidates if c.duration_s <= 240.0]
        if not short_enough:
            pytest.skip("no short clip available in the disliked category")
        target = short_enough[0]
        server.editorial.inject(
            target.clip_id, target_user_ids=[commuter.user_id], boost=1.0, created_s=observe - 10.0
        )
        decision = server.recommend(commuter.user_id, now_s=observe, drive_elapsed_s=240.0)
        if decision.should_recommend:
            assert target.clip_id in decision.recommended_clip_ids


class TestPublicApi:
    """The paper's public REST API, driven at the wire (JSON text in/out)."""

    @staticmethod
    def client(server):
        gateway = Gateway(server)

        def call(method, path, body=None, query=None):
            payload = json.dumps(body) if body is not None else None
            status, text, _headers = gateway.handle_wire(method, path, payload, query=query)
            return status, json.loads(text)

        return call

    def test_register_and_get_profile(self):
        call = self.client(PphcrServer())
        status, _body = call("POST", "/v1/users", {"user_id": "u1", "display_name": "Greg", "age": 40})
        assert status == 201
        assert call("POST", "/v1/users", {"user_id": "u1", "display_name": "Greg"})[0] == 409
        status, profile = call("GET", "/v1/users/u1")
        assert status == 200
        assert profile["display_name"] == "Greg"
        assert call("GET", "/v1/users/ghost")[0] == 404

    def test_feedback_endpoint(self, small_world):
        call = self.client(small_world.server)
        user_id = small_world.commuters[0].user_id
        clip_id = small_world.server.content.clips()[0].clip_id
        event = {"user_id": user_id, "content_id": clip_id, "kind": "like", "timestamp_s": 1000.0}
        assert call("POST", "/v1/feedback", event)[0] == 201
        assert call("POST", "/v1/feedback", {**event, "kind": "loved-it"})[0] == 400
        assert call("POST", "/v1/feedback", {**event, "user_id": "ghost"})[0] == 404

    def test_location_endpoint(self, small_world):
        call = self.client(small_world.server)
        user_id = small_world.commuters[0].user_id
        latest = small_world.server.users.tracking.latest_fix(user_id).timestamp_s
        fix = {"user_id": user_id, "lat": 45.07, "lon": 7.68, "timestamp_s": latest + 10.0}
        assert call("POST", "/v1/tracking", fix)[0] == 202
        bad = {**fix, "lat": 123.0, "timestamp_s": latest + 20.0}
        assert call("POST", "/v1/tracking", bad)[0] == 400

    def test_services_and_clip_endpoints(self, small_world):
        call = self.client(small_world.server)
        status, services = call("GET", "/v1/services")
        assert status == 200
        assert len(services["services"]) == 10
        clip_id = small_world.server.content.clips()[0].clip_id
        status, clip = call("GET", f"/v1/clips/{clip_id}")
        assert status == 200 and clip["clip_id"] == clip_id
        assert call("GET", "/v1/clips/ghost")[0] == 404

    def test_recommendations_endpoint(self, small_world):
        call = self.client(small_world.server)
        commuter = small_world.commuters[5]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        small_world.server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        query = {"now_s": repr(observe)}
        status, body = call("GET", f"/v1/recommendations/{commuter.user_id}", query=query)
        assert status == 200
        assert "proactive" in body
        if body["proactive"]:
            assert body["items"]
            first = body["items"][0]
            assert {"clip_id", "title", "duration_s", "score"} <= set(first)
        assert call("GET", "/v1/recommendations/ghost", query=query)[0] == 404
