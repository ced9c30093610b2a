"""The batch mobility miner, kept as the test oracle of the streaming engine.

The server serves only the streaming engine's model.  The batch pipeline
(``split_into_trips`` + ``stay_points_from_trips`` + ``cluster_trips``)
re-mines a full fix history from scratch; equality tests compare the
engine's full snapshot against it.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.spatialdb import GpsFix
from repro.trajectory import Trajectory, cluster_trips, split_into_trips
from repro.trajectory.clustering import RouteCluster
from repro.trajectory.staypoints import StayPoint, stay_points_from_trips


class BatchModel(NamedTuple):
    stay_points: List[StayPoint]
    clusters: List[RouteCluster]
    trip_count: int


def batch_mobility_model(fixes: List[GpsFix], *, eps_m: float = 300.0) -> BatchModel:
    """Mine one user's whole fix history with the batch algorithms."""
    trips = split_into_trips(Trajectory.from_fixes(fixes[0].user_id, fixes))
    stay_points = stay_points_from_trips(trips, eps_m=eps_m) if trips else []
    clusters = cluster_trips(trips, stay_points) if stay_points else []
    return BatchModel(stay_points, clusters, len(trips))
