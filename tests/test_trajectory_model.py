"""Tests for trajectory model, simplification, stay points and features."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrajectoryError
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point, haversine_m
from repro.spatialdb import GpsFix
from repro.trajectory import (
    Trajectory,
    TrajectoryPoint,
    dbscan,
    detect_stay_points,
    extract_features,
    simplify_trajectory,
    split_into_trips,
)
from repro.trajectory.features import destination_frequencies, route_similarity, trajectory_complexity
from repro.trajectory.simplify import simplification_ratio
from repro.trajectory.staypoints import nearest_stay_point, stay_points_from_trips

HOME = GeoPoint(45.05, 7.65)
WORK = GeoPoint(45.09, 7.70)


def straight_drive(user_id="u1", *, start_s=0.0, points=30, speed_mps=12.0, bearing=60.0, origin=HOME):
    """A constant-speed straight drive."""
    samples = []
    for i in range(points):
        position = destination_point(origin, bearing, i * speed_mps * 10.0)
        samples.append(TrajectoryPoint(start_s + i * 10.0, position, speed_mps))
    return Trajectory(user_id, samples)


def wiggly_drive(user_id="u1", *, start_s=0.0, points=40, speed_mps=10.0, origin=HOME):
    """A drive that changes heading every segment (high complexity)."""
    samples = []
    position = origin
    for i in range(points):
        bearing = 60.0 + (45.0 if i % 2 else -45.0)
        position = destination_point(position, bearing, speed_mps * 10.0)
        samples.append(TrajectoryPoint(start_s + i * 10.0, position, speed_mps))
    return Trajectory(user_id, samples)


class TestTrajectory:
    def test_requires_points(self):
        with pytest.raises(TrajectoryError):
            Trajectory("u", [])

    def test_requires_time_order(self):
        with pytest.raises(TrajectoryError):
            Trajectory("u", [TrajectoryPoint(10.0, HOME), TrajectoryPoint(5.0, WORK)])

    def test_basic_properties(self):
        trajectory = straight_drive(points=10, speed_mps=10.0)
        assert len(trajectory) == 10
        assert trajectory.duration_s == 90.0
        assert trajectory.length_m == pytest.approx(900.0, rel=0.02)
        assert trajectory.mean_speed_mps == pytest.approx(10.0, rel=0.02)
        assert trajectory.origin == trajectory[0].position
        assert trajectory.destination == trajectory[9].position

    def test_from_fixes(self):
        fixes = [GpsFix("u1", i * 5.0, destination_point(HOME, 0.0, i * 50.0)) for i in range(5)]
        trajectory = Trajectory.from_fixes("u1", fixes)
        assert len(trajectory) == 5
        assert trajectory.user_id == "u1"

    def test_time_of_day(self):
        morning = straight_drive(start_s=8 * 3600.0)
        assert morning.start_time_of_day == "morning"

    def test_slice_time(self):
        trajectory = straight_drive(points=20)
        sliced = trajectory.slice_time(50.0, 100.0)
        assert len(sliced) == 5
        with pytest.raises(TrajectoryError):
            trajectory.slice_time(1e6, 2e6)

    def test_speeds_and_displacement(self):
        trajectory = straight_drive(points=10, speed_mps=10.0)
        speeds = trajectory.speeds_mps()
        assert len(speeds) == 9
        assert all(s == pytest.approx(10.0, rel=0.05) for s in speeds)
        assert trajectory.displacement_m() == pytest.approx(trajectory.length_m, rel=0.01)

    def test_polyline_and_bbox(self):
        trajectory = straight_drive(points=5)
        assert trajectory.to_polyline().length_m == pytest.approx(trajectory.length_m, rel=1e-6)
        assert trajectory.bounding_box().contains(trajectory.origin)

    def test_length_is_measured_once(self, monkeypatch):
        import repro.trajectory.model as model_module

        trajectory = wiggly_drive(points=12)
        positions = trajectory.positions()
        expected = 0.0
        for earlier, later in zip(positions, positions[1:]):
            expected += haversine_m(earlier, later)

        calls = {"count": 0}

        def counting_haversine(a, b):
            calls["count"] += 1
            return haversine_m(a, b)

        monkeypatch.setattr(model_module, "haversine_m", counting_haversine)
        assert trajectory.length_m == expected
        assert calls["count"] == 11
        # The samples never change, so a second read (and the mean speed
        # built on it) does no haversine work.
        assert trajectory.length_m == expected
        assert trajectory.mean_speed_mps == expected / trajectory.duration_s
        assert calls["count"] == 11


class TestSplitIntoTrips:
    def test_splits_on_reporting_gap(self):
        morning = straight_drive(start_s=8 * 3600.0, points=30)
        evening = straight_drive(start_s=18 * 3600.0, points=30, origin=WORK, bearing=240.0)
        combined = Trajectory("u1", morning.points + evening.points)
        trips = split_into_trips(combined)
        assert len(trips) == 2

    def test_splits_on_dwell(self):
        drive = straight_drive(points=30, speed_mps=12.0)
        # Dwell at the final position for 10 minutes with fixes every 30 s.
        dwell_origin = drive.destination
        dwell_points = [
            TrajectoryPoint(drive.end.timestamp_s + 30.0 * (i + 1), dwell_origin, 0.0)
            for i in range(20)
        ]
        second = straight_drive(
            start_s=dwell_points[-1].timestamp_s + 30.0, points=30, origin=dwell_origin, bearing=200.0
        )
        combined = Trajectory("u1", drive.points + dwell_points + second.points)
        trips = split_into_trips(combined, max_gap_s=10_000.0)
        assert len(trips) == 2

    def test_short_trips_discarded(self):
        tiny = straight_drive(points=3)
        assert split_into_trips(tiny) == []

    def test_single_point(self):
        assert split_into_trips(Trajectory("u", [TrajectoryPoint(0.0, HOME)])) == []


class TestSimplification:
    def test_straight_drive_compresses_heavily(self):
        drive = straight_drive(points=60)
        simplified = simplify_trajectory(drive, tolerance_m=20.0)
        assert len(simplified) <= 5
        assert simplification_ratio(drive, 20.0) > 0.9

    def test_wiggly_drive_keeps_more_points(self):
        drive = wiggly_drive(points=40)
        simplified = simplify_trajectory(drive, tolerance_m=10.0)
        assert len(simplified) > 10

    def test_preserves_endpoints_and_timestamps(self):
        drive = straight_drive(points=20)
        simplified = simplify_trajectory(drive)
        assert simplified[0].timestamp_s == drive[0].timestamp_s
        assert simplified[-1].timestamp_s == drive[-1].timestamp_s


class TestDbscanStayPoints:
    def cluster_points(self, center: GeoPoint, count: int, spread_m: float = 40.0):
        return [destination_point(center, (i * 67) % 360, (i % 5) * spread_m / 5.0) for i in range(count)]

    def test_dbscan_two_clusters_and_noise(self):
        points = (
            self.cluster_points(HOME, 6)
            + self.cluster_points(WORK, 6)
            + [destination_point(HOME, 45.0, 30000.0)]
        )
        labels = dbscan(points, eps_m=150.0, min_samples=3)
        assert len(set(label for label in labels if label >= 0)) == 2
        assert labels[-1] == -1

    def test_dbscan_all_noise_when_sparse(self):
        points = [destination_point(HOME, i * 40.0, i * 5000.0) for i in range(5)]
        labels = dbscan(points, eps_m=100.0, min_samples=2)
        assert all(label == -1 for label in labels)

    def test_dbscan_empty(self):
        assert dbscan([], eps_m=100.0, min_samples=2) == []

    def test_dbscan_validates_parameters(self):
        with pytest.raises(TrajectoryError):
            dbscan([HOME], eps_m=0.0)
        with pytest.raises(TrajectoryError):
            dbscan([HOME], eps_m=10.0, min_samples=0)

    def test_detect_stay_points_ranked_by_support(self):
        observations = self.cluster_points(HOME, 8) + self.cluster_points(WORK, 4)
        stay_points = detect_stay_points(observations, eps_m=150.0, min_samples=3)
        assert len(stay_points) == 2
        assert stay_points[0].support == 8
        assert stay_points[0].stay_point_id == 0
        assert stay_points[0].center.distance_m(HOME) < 200.0

    def test_detect_stay_points_dwell_alignment_validated(self):
        with pytest.raises(TrajectoryError):
            detect_stay_points([HOME, WORK], dwell_s=[1.0])

    def test_stay_points_from_trips(self):
        morning = straight_drive(start_s=8 * 3600.0, origin=HOME, bearing=60.0)
        evening = straight_drive(
            start_s=18 * 3600.0, origin=morning.destination, bearing=240.0
        )
        trips = [morning, evening, straight_drive(start_s=32 * 3600.0, origin=HOME, bearing=60.0)]
        stay_points = stay_points_from_trips(trips, eps_m=300.0, min_samples=2)
        assert len(stay_points) >= 2

    def test_nearest_stay_point(self):
        stay_points = detect_stay_points(self.cluster_points(HOME, 5), eps_m=150.0, min_samples=3)
        assert nearest_stay_point(stay_points, HOME) is not None
        assert nearest_stay_point(stay_points, WORK, max_distance_m=100.0) is None

    def test_with_label(self):
        stay_points = detect_stay_points(self.cluster_points(HOME, 5), eps_m=150.0, min_samples=3)
        labeled = stay_points[0].with_label("home")
        assert labeled.label == "home"
        assert labeled.center == stay_points[0].center


class TestFeatures:
    def test_straight_drive_low_complexity(self):
        assert trajectory_complexity(straight_drive(points=40)) < 0.15

    def test_wiggly_drive_higher_complexity(self):
        straight = trajectory_complexity(straight_drive(points=40))
        wiggly = trajectory_complexity(wiggly_drive(points=40))
        assert wiggly > straight

    def test_complexity_bounds(self):
        value = trajectory_complexity(wiggly_drive(points=60))
        assert 0.0 <= value < 1.0

    def test_extract_features_fields(self):
        drive = straight_drive(start_s=8 * 3600.0, points=30, speed_mps=12.0)
        features = extract_features(drive)
        assert features.user_id == "u1"
        assert features.time_of_day == "morning"
        assert features.duration_s == drive.duration_s
        assert features.mean_speed_mps == pytest.approx(12.0, rel=0.05)
        assert features.raw_points == 30
        assert features.simplified_points <= 30
        assert 0.0 <= features.compression_ratio <= 1.0

    def test_extract_features_requires_two_points(self):
        with pytest.raises(TrajectoryError):
            extract_features(Trajectory("u", [TrajectoryPoint(0.0, HOME)]))

    def test_extract_features_with_stay_points(self):
        drive = straight_drive(points=30)
        stay_points = detect_stay_points(
            [drive.origin] * 3 + [drive.destination] * 3, eps_m=100.0, min_samples=2
        )
        features = extract_features(drive, stay_points=stay_points)
        assert features.origin_stay_point is not None
        assert features.destination_stay_point is not None
        assert features.origin_stay_point != features.destination_stay_point

    def test_destination_frequencies(self):
        drive = straight_drive(points=30)
        stay_points = detect_stay_points(
            [drive.origin] * 3 + [drive.destination] * 3, eps_m=100.0, min_samples=2
        )
        features = [extract_features(drive, stay_points=stay_points) for _ in range(3)]
        frequencies = destination_frequencies(features)
        assert len(frequencies) == 1
        assert frequencies[0].count == 3
        assert frequencies[0].share == 1.0

    def test_destination_frequencies_empty(self):
        assert destination_frequencies([]) == []

    def test_route_similarity_identical_is_high(self):
        a = straight_drive(points=30)
        assert route_similarity(a, a) > 0.95

    def test_route_similarity_far_routes_low(self):
        a = straight_drive(points=30, origin=HOME)
        b = straight_drive(points=30, origin=destination_point(HOME, 90.0, 20000.0))
        assert route_similarity(a, b) < 0.2

    def test_route_similarity_validates_samples(self):
        a = straight_drive(points=10)
        with pytest.raises(TrajectoryError):
            route_similarity(a, a, samples=1)


class TestPropertyBased:
    @given(st.integers(min_value=5, max_value=50), st.floats(min_value=5.0, max_value=25.0))
    @settings(max_examples=25, deadline=None)
    def test_simplified_length_never_exceeds_original(self, points, speed):
        drive = wiggly_drive(points=points, speed_mps=speed)
        simplified = simplify_trajectory(drive, tolerance_m=15.0)
        assert simplified.length_m <= drive.length_m + 1e-6
        assert 2 <= len(simplified) <= len(drive)
