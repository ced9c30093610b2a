"""Tests for the uniform grid spatial index."""

import math

import pytest

from repro.errors import GeometryError, NotFoundError
from repro.geo import BoundingBox, GeoPoint, GridIndex
from repro.geo.geodesy import destination_point

CENTER = GeoPoint(45.07, 7.68)


def ring(count: int, radius_m: float):
    """Points evenly spread on a circle around the centre."""
    return [destination_point(CENTER, i * (360.0 / count), radius_m) for i in range(count)]


class TestGridIndexBasics:
    def test_invalid_cell_size(self):
        with pytest.raises(GeometryError):
            GridIndex(cell_size_m=0)

    def test_insert_and_len(self):
        index = GridIndex()
        index.insert("a", CENTER)
        assert len(index) == 1
        assert "a" in index

    def test_insert_moves_existing(self):
        index = GridIndex()
        index.insert("a", CENTER)
        new_position = destination_point(CENTER, 0.0, 5000.0)
        index.insert("a", new_position)
        assert len(index) == 1
        assert index.position_of("a") == new_position

    def test_remove(self):
        index = GridIndex()
        index.insert("a", CENTER)
        index.remove("a")
        assert len(index) == 0
        with pytest.raises(NotFoundError):
            index.remove("a")

    def test_position_of_missing(self):
        with pytest.raises(NotFoundError):
            GridIndex().position_of("ghost")


class TestGridIndexQueries:
    def test_query_radius_finds_all_within(self):
        index = GridIndex(cell_size_m=500.0)
        for i, point in enumerate(ring(12, 800.0)):
            index.insert(f"near-{i}", point)
        for i, point in enumerate(ring(6, 5000.0)):
            index.insert(f"far-{i}", point)
        hits = index.query_radius(CENTER, 1000.0)
        names = {name for name, _d in hits}
        assert names == {f"near-{i}" for i in range(12)}

    def test_query_radius_sorted_by_distance(self):
        index = GridIndex()
        index.insert("close", destination_point(CENTER, 0.0, 100.0))
        index.insert("far", destination_point(CENTER, 0.0, 900.0))
        hits = index.query_radius(CENTER, 2000.0)
        assert [name for name, _d in hits] == ["close", "far"]

    def test_query_radius_negative_raises(self):
        with pytest.raises(GeometryError):
            GridIndex().query_radius(CENTER, -5.0)

    def test_query_bbox(self):
        index = GridIndex()
        inside = destination_point(CENTER, 45.0, 500.0)
        outside = destination_point(CENTER, 45.0, 50000.0)
        index.insert("inside", inside)
        index.insert("outside", outside)
        box = BoundingBox.around(CENTER, 1000.0)
        assert index.query_bbox(box) == ["inside"]

    def test_nearest(self):
        index = GridIndex()
        index.insert("a", destination_point(CENTER, 10.0, 300.0))
        index.insert("b", destination_point(CENTER, 10.0, 3000.0))
        nearest = index.nearest(CENTER)
        assert nearest is not None
        assert nearest[0] == "a"

    def test_nearest_empty(self):
        assert GridIndex().nearest(CENTER) is None

    def test_nearest_respects_max_radius(self):
        index = GridIndex()
        index.insert("far", destination_point(CENTER, 0.0, 40000.0))
        assert index.nearest(CENTER, max_radius_m=10000.0) is None

    def test_items_round_trip(self):
        index = GridIndex()
        index.insert("a", CENTER)
        items = dict(index.items())
        assert items == {"a": CENTER}


HIGH_LAT_CENTER = GeoPoint(68.4, 17.4)  # Narvik: lon degrees are ~2.7x shorter


class TestGridIndexHighLatitude:
    """Longitude cells shrink by cos(lat); queries must widen the lon scan."""

    def test_query_radius_finds_east_west_matches(self):
        index = GridIndex(cell_size_m=500.0)
        east = destination_point(HIGH_LAT_CENTER, 90.0, 3000.0)
        west = destination_point(HIGH_LAT_CENTER, 270.0, 3000.0)
        index.insert("east", east)
        index.insert("west", west)
        hits = index.query_radius(HIGH_LAT_CENTER, 3500.0)
        assert {name for name, _d in hits} == {"east", "west"}

    def test_query_radius_full_ring(self):
        index = GridIndex(cell_size_m=500.0)
        for i, point in enumerate(
            destination_point(HIGH_LAT_CENTER, bearing, 4000.0)
            for bearing in range(0, 360, 15)
        ):
            index.insert(f"ring-{i}", point)
        hits = index.query_radius(HIGH_LAT_CENTER, 4500.0)
        assert len(hits) == 24

    def test_query_bbox_east_west(self):
        index = GridIndex(cell_size_m=500.0)
        inside = destination_point(HIGH_LAT_CENTER, 90.0, 900.0)
        outside = destination_point(HIGH_LAT_CENTER, 90.0, 30000.0)
        index.insert("inside", inside)
        index.insert("outside", outside)
        box = BoundingBox.around(HIGH_LAT_CENTER, 1000.0)
        assert index.query_bbox(box) == ["inside"]

    def test_nearest_east_match(self):
        index = GridIndex(cell_size_m=500.0)
        index.insert("due-east", destination_point(HIGH_LAT_CENTER, 90.0, 9000.0))
        nearest = index.nearest(HIGH_LAT_CENTER)
        assert nearest is not None
        assert nearest[0] == "due-east"
        assert nearest[1] == pytest.approx(9000.0, rel=1e-3)


class TestGridIndexNearestExpansion:
    """The radius-doubling search scans each cell ring only once."""

    def test_nearest_picks_global_minimum_across_rings(self):
        index = GridIndex(cell_size_m=250.0)
        # One item just outside the first search radius, one much farther:
        # the second ring scan must keep the closer of the two.
        index.insert("near", destination_point(CENTER, 45.0, 1400.0))
        index.insert("far", destination_point(CENTER, 225.0, 1900.0))
        nearest = index.nearest(CENTER)
        assert nearest is not None
        assert nearest[0] == "near"

    def test_nearest_beyond_several_doublings(self):
        index = GridIndex(cell_size_m=1000.0)
        index.insert("lonely", destination_point(CENTER, 10.0, 30000.0))
        nearest = index.nearest(CENTER, max_radius_m=50000.0)
        assert nearest is not None
        assert nearest[0] == "lonely"
        assert nearest[1] == pytest.approx(30000.0, rel=1e-3)

    def test_nearest_exactly_at_max_radius_boundary(self):
        index = GridIndex(cell_size_m=1000.0)
        index.insert("edge", destination_point(CENTER, 0.0, 9900.0))
        nearest = index.nearest(CENTER, max_radius_m=10000.0)
        assert nearest is not None
        assert nearest[0] == "edge"

    def test_nearest_visits_each_cell_once(self, monkeypatch):
        import repro.geo.grid_index as grid_module

        index = GridIndex(cell_size_m=1000.0)
        index.insert("target", destination_point(CENTER, 0.0, 14500.0))

        calls = {"count": 0}
        real_haversine = grid_module.haversine_m

        def counting_haversine(a, b):
            calls["count"] += 1
            return real_haversine(a, b)

        monkeypatch.setattr(grid_module, "haversine_m", counting_haversine)
        nearest = index.nearest(CENTER, max_radius_m=50000.0)
        assert nearest is not None and nearest[0] == "target"
        # The single stored item sits in a single cell: visiting every ring
        # exactly once means exactly one distance evaluation.
        assert calls["count"] == 1


def reference_bbox(index, box):
    """The full row-major range walk over every cell in ``box`` (the oracle)."""
    cell_deg = index._cell_deg
    min_cell = (math.floor(box.min_lat / cell_deg), math.floor(box.min_lon / cell_deg))
    max_cell = (math.floor(box.max_lat / cell_deg), math.floor(box.max_lon / cell_deg))
    results = []
    for cell_lat in range(min_cell[0], max_cell[0] + 1):
        for cell_lon in range(min_cell[1], max_cell[1] + 1):
            for item in index._cells.get((cell_lat, cell_lon), ()):
                if box.contains(index._positions[item]):
                    results.append(item)
    return results


SOUTH_WEST_CENTER = GeoPoint(-33.45, -70.66)  # negative coordinates floor downwards


class TestQueryBboxMatchesRangeWalk:
    """``query_bbox`` returns the range walk's list, in the same order."""

    #: Box half-sides from sub-cell to wider than the 12 km point region.
    HALF_SIDES_M = (50.0, 400.0, 1500.0, 4000.0, 9000.0, 15000.0, 40000.0)

    def _filled(self, rng, center, count=300):
        index = GridIndex(cell_size_m=1000.0)
        for item in range(count):
            index.insert(
                item,
                destination_point(center, rng.uniform(0.0, 360.0), rng.uniform(0.0, 12000.0)),
            )
        return index

    def _assert_matches(self, rng, index, center):
        for half_side in self.HALF_SIDES_M:
            for _ in range(8):
                probe = destination_point(center, rng.uniform(0.0, 360.0), rng.uniform(0.0, 12000.0))
                box = BoundingBox.around(probe, half_side)
                assert index.query_bbox(box) == reference_bbox(index, box)
        whole = BoundingBox.around(center, 13000.0)
        assert sorted(index.query_bbox(whole)) == sorted(item for item, _ in index.items())

    @pytest.mark.parametrize(
        "center", [CENTER, HIGH_LAT_CENTER, SOUTH_WEST_CENTER], ids=["turin", "narvik", "santiago"]
    )
    def test_random_points(self, seeded_rng, center):
        rng = seeded_rng.fork("bbox", center.lat)
        index = self._filled(rng, center)
        self._assert_matches(rng, index, center)

    def test_empty_index(self):
        index = GridIndex(cell_size_m=1000.0)
        for half_side in self.HALF_SIDES_M:
            assert index.query_bbox(BoundingBox.around(CENTER, half_side)) == []

    def test_after_removals(self, seeded_rng):
        rng = seeded_rng.fork("removals")
        index = self._filled(rng, CENTER)
        for item in rng.sample(range(300), 220):
            index.remove(item)
        assert len(index) == 80
        self._assert_matches(rng, index, CENTER)
        for item, _position in index.items():
            index.remove(item)
        assert index.query_bbox(BoundingBox.around(CENTER, 40000.0)) == []
