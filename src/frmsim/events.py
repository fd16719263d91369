"""Append-only, deterministic event log.

One JSON object per line, each carrying the record type tag, an integer
timestamp in simulated seconds, the scenario seed, and the configuration
hash. Serialization uses canonical key order so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["Event", "EventLog", "LogParseError"]


class LogParseError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Event:
    time: int
    type: str
    specialist: Optional[str] = None
    data: dict = field(default_factory=dict)


class EventLog:
    """Timestamp-ordered sequence of typed records for one scenario run."""

    def __init__(self, seed: int, config_hash: str):
        self.seed = seed
        self.config_hash = config_hash
        self._events: list[Event] = []

    def append(
        self,
        time: int,
        type_: str,
        specialist: Optional[str] = None,
        **data,
    ) -> Event:
        if self._events and time < self._events[-1].time:
            raise ValueError(
                f"timestamp regression: {time} < {self._events[-1].time}"
            )
        event = Event(time=int(time), type=type_, specialist=specialist, data=data)
        self._events.append(event)
        return event

    @property
    def last_time(self) -> int:
        """Timestamp of the last record, or 0 for an empty log."""
        return self._events[-1].time if self._events else 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def to_jsonl(self) -> str:
        lines = []
        for event in self._events:
            record = {
                "t": event.time,
                "type": event.type,
                "specialist": event.specialist,
                "seed": self.seed,
                "config_hash": self.config_hash,
                "data": event.data,
            }
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        log: Optional[EventLog] = None
        for line_number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogParseError(f"invalid JSON ({exc.msg})", line_number) from exc
            missing = {"t", "type", "seed", "config_hash", "data"} - record.keys()
            if missing:
                raise LogParseError(f"missing fields {sorted(missing)}", line_number)
            if log is None:
                log = cls(seed=record["seed"], config_hash=record["config_hash"])
            try:
                log.append(
                    record["t"],
                    record["type"],
                    record.get("specialist"),
                    **record["data"],
                )
            except ValueError as exc:
                raise LogParseError(str(exc), line_number) from exc
        return log if log is not None else cls(seed=0, config_hash="")

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()
