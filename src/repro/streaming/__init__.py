"""Streaming mobility mining: incremental trip sessionization, stay-point
and cluster maintenance, and sharded compaction.

The streaming engine is the one source of mobility models.  Every fix the
tracking DB accepts streams through the :class:`TripSessionizer` (gap/dwell
closing rules identical to ``split_into_trips``), completed trips fold into
the :class:`IncrementalMobilityModel` (grid-indexed stay-point assignment
and spawning, route-cluster maintenance through an (origin, destination)
cluster index with signature-cached coherence, dirty/epoch drift repair),
and the server serves that live model.  The :class:`ShardedCompactor` then
only prunes raw fixes of dirty users under a per-pass budget, so
compaction costs O(new fixes) and never re-mines a history.  The batch
miner (:mod:`repro.trajectory`) survives as the equality oracle of the
tests.  See ``docs/ARCHITECTURE.md`` for the full ingest data flow and the
invariants each class maintains.
"""

from repro.streaming.compactor import CompactionConfig, CompactionReport, ShardedCompactor
from repro.streaming.engine import StreamingConfig, StreamingMobilityEngine
from repro.streaming.sharded import ShardedStreamingEngine
from repro.streaming.incremental import (
    IncrementalConfig,
    IncrementalMobilityModel,
    MobilitySnapshot,
)
from repro.streaming.sessionizer import SessionizerConfig, TripSessionizer

__all__ = [
    "CompactionConfig",
    "CompactionReport",
    "IncrementalConfig",
    "IncrementalMobilityModel",
    "MobilitySnapshot",
    "SessionizerConfig",
    "ShardedCompactor",
    "ShardedStreamingEngine",
    "StreamingConfig",
    "StreamingMobilityEngine",
    "TripSessionizer",
]
