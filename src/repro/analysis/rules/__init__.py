"""The rule registry: one module per architectural invariant.

Adding a rule (see ``docs/ARCHITECTURE.md``, "Static analysis"): write a
module defining a ``RULE`` (:class:`~repro.analysis.findings.Rule`)
whose ``check(project)`` yields findings over extracted facts, then list
it here.  Rules must be deterministic, must anchor findings with stable
``key``\\ s (names, not line numbers) and must stay quiet on trees that
lack their subject (fixture trees exercise rules in isolation).
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import Rule
from repro.analysis.rules import (
    determinism,
    error_mapping,
    ingest_path,
    metric_naming,
    shard_safety,
    snapshot_completeness,
    wal_channels,
)

#: Every registered rule, in the order reports list them.
ALL_RULES: List[Rule] = [
    snapshot_completeness.RULE,
    wal_channels.RULE,
    determinism.RULE,
    shard_safety.RULE,
    error_mapping.RULE,
    metric_naming.RULE,
    ingest_path.RULE,
]

__all__ = ["ALL_RULES"]
