"""Recorded wire scripts: the replayable unit of the load generator.

A scenario is a time-ordered list of :class:`WireEvent` — exactly the
arguments one :meth:`Gateway.handle_wire
<repro.pipeline.gateway.gateway.Gateway.handle_wire>` call takes, plus the
scenario time the request "arrives" and free-form tags (owning user,
scenario beat, delivery mode) the chaos controller filters on.

Scripts serialize to canonical JSON lines — sorted keys, compact
separators, no floats ever reformatted — so the same world and seed
produce byte-identical artifacts, and :meth:`ScenarioScript.fingerprint`
is a stable content address for "this exact traffic".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ValidationError

#: Version stamp of the serialized script format.
SCRIPT_FORMAT_VERSION = 1


def canonical_json(value: Any) -> str:
    """The one JSON encoding used everywhere a byte-level claim is made.

    Finite numbers only: a ``NaN`` or infinity raises ``ValueError`` rather
    than being written as a bare token that is not JSON.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class WireEvent:
    """One scripted request: when it arrives and what goes on the wire."""

    t_s: float
    method: str
    path: str
    body: Optional[Dict[str, Any]] = None
    query: Optional[Dict[str, str]] = None
    tags: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.method or not self.path:
            raise ValidationError("event method and path must be non-empty")

    def body_json(self) -> Optional[str]:
        """The canonical request body text handed to ``handle_wire``."""
        return canonical_json(self.body) if self.body is not None else None

    def tag(self, name: str) -> Optional[str]:
        """The first tag value with the given name, or None."""
        for key, value in self.tags:
            if key == name:
                return value
        return None

    def user_ids(self) -> List[str]:
        """Every user the event's body is about (batch items included)."""
        users: List[str] = []
        body = self.body or {}
        envelope = body.get("user_id")
        if isinstance(envelope, str):
            users.append(envelope)
        for item in body.get("fixes", []) or []:
            owner = item.get("user_id") if isinstance(item, dict) else None
            if isinstance(owner, str) and owner not in users:
                users.append(owner)
        for item in body.get("events", []) or []:
            owner = item.get("user_id") if isinstance(item, dict) else None
            if isinstance(owner, str) and owner not in users:
                users.append(owner)
        return users

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "t_s": self.t_s,
            "method": self.method,
            "path": self.path,
        }
        if self.body is not None:
            payload["body"] = self.body
        if self.query is not None:
            payload["query"] = self.query
        if self.tags:
            payload["tags"] = [list(pair) for pair in self.tags]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "WireEvent":
        if not isinstance(payload, dict):
            raise ValidationError("event payload must be an object")
        try:
            return cls(
                t_s=float(payload["t_s"]),
                method=payload["method"],
                path=payload["path"],
                body=payload.get("body"),
                query=payload.get("query"),
                tags=tuple(
                    (str(name), str(value)) for name, value in payload.get("tags", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid event payload: {exc}") from None


@dataclass(frozen=True)
class ScenarioScript:
    """A named, seeded, time-ordered recording of wire traffic."""

    name: str
    seed: int
    events: Tuple[WireEvent, ...]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("script name must be non-empty")
        previous = float("-inf")
        for event in self.events:
            if event.t_s < previous:
                raise ValidationError(
                    f"script events must be time-ordered: {event.t_s} after {previous}"
                )
            previous = event.t_s

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[WireEvent]:
        return iter(self.events)

    def to_jsonl(self) -> str:
        """Canonical serialization: one header line, one line per event."""
        lines = [
            canonical_json(
                {
                    "format": SCRIPT_FORMAT_VERSION,
                    "name": self.name,
                    "seed": self.seed,
                    "events": len(self.events),
                    "metadata": self.metadata,
                }
            )
        ]
        lines.extend(canonical_json(event.to_payload()) for event in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ScenarioScript":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValidationError("empty script text")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed script header: {exc.msg}") from None
        if not isinstance(header, dict) or header.get("format") != SCRIPT_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported script format (want {SCRIPT_FORMAT_VERSION})"
            )
        events = []
        for line in lines[1:]:
            try:
                events.append(WireEvent.from_payload(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"malformed script event: {exc.msg}") from None
        if len(events) != header.get("events"):
            raise ValidationError(
                f"script header promises {header.get('events')} events, got {len(events)}"
            )
        return cls(
            name=header["name"],
            seed=int(header["seed"]),
            events=tuple(events),
            metadata=dict(header.get("metadata", {})),
        )

    def fingerprint(self) -> str:
        """sha256 of the canonical serialization — the byte-identity check."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()
