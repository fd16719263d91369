"""Append-only, deterministic event log and its JSONL codec.

A log file is schema v2. Its first line is a header shaped like a
record, whose data carries the schema version, the scenario seed and
the configuration hash::

    {"data":{"config_hash":"…","schema_version":2,"seed":0},"specialist":null,"t":0,"type":"log_header"}

Every other line is one record with exactly four keys: the record's
data, the specialist it concerns (or null), its integer timestamp in
simulated seconds, and its type tag. Every line is canonical JSON
(sorted keys, no spaces, ASCII), the same text as ``json.dumps`` of the
record with ``sort_keys=True, separators=(",", ":")``, so identical runs
produce byte-identical files.

Schema v1 logs, which have no header and repeat ``seed`` and
``config_hash`` in every record, are read but never written.
"""

from __future__ import annotations

import hashlib
import json
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Union

__all__ = ["Event", "EventLog", "LogParseError", "SCHEMA_VERSION", "WrittenLog"]

SCHEMA_VERSION = 2
HEADER_TYPE = "log_header"

# The one encoder and the one decoder of the log format.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_decode = json.JSONDecoder().decode

_RECORD_KEYS = frozenset(("data", "specialist", "t", "type"))
_V1_KEYS = _RECORD_KEYS | {"seed", "config_hash"}
_HEADER_DATA_KEYS = frozenset(("config_hash", "schema_version", "seed"))


class LogParseError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Event(NamedTuple):
    time: int
    type: str
    specialist: Optional[str]
    data: dict


class WrittenLog(NamedTuple):
    """What ``EventLog.write_jsonl`` wrote: the SHA-256 of the bytes,
    the number of lines (header included) and the number of bytes."""

    digest: str
    records: int
    size: int


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
        event = Event(int(time), type_, specialist, data)
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

    def lines(self) -> Iterator[str]:
        """The log's JSONL lines, header first, each ending in a newline."""
        header = {
            "config_hash": self.config_hash,
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
        }
        yield _encode({"data": header, "specialist": None, "t": 0, "type": HEADER_TYPE}) + "\n"
        # A record's line is '{"data":' + data + the specialist's piece +
        # the timestamp + the type's piece; the keys sort in that order.
        specialist_pieces: dict[Optional[str], str] = {}
        type_pieces: dict[str, str] = {}
        for event in self._events:
            who = specialist_pieces.get(event.specialist)
            if who is None:
                who = ',"specialist":' + _encode(event.specialist) + ',"t":'
                specialist_pieces[event.specialist] = who
            kind = type_pieces.get(event.type)
            if kind is None:
                kind = type_pieces[event.type] = ',"type":' + _encode(event.type) + "}\n"
            yield '{"data":' + _encode(event.data) + who + str(event.time) + kind

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def write_jsonl(self, stream: BinaryIO) -> WrittenLog:
        """Encode the log into ``stream`` line by line, hashing the bytes
        as they are written, without holding the whole text."""
        sha = hashlib.sha256()
        records = size = 0
        for line in self.lines():
            data = line.encode("utf-8")
            sha.update(data)
            stream.write(data)
            records += 1
            size += len(data)
        return WrittenLog(sha.hexdigest(), records, size)

    def digest(self) -> str:
        sha = hashlib.sha256()
        for line in self.lines():
            sha.update(line.encode("utf-8"))
        return sha.hexdigest()

    @classmethod
    def from_jsonl(cls, source: Union[str, Iterable[Union[str, bytes]]]) -> "EventLog":
        """Read a v2 or v1 log from its text or from its lines (str or
        UTF-8 bytes, such as an open file). Blank lines are skipped.
        Raises ``LogParseError`` naming the first line that is not a
        well-formed record of the log's schema."""
        lines = source.splitlines() if isinstance(source, str) else source
        log: Optional[EventLog] = None
        keys = _RECORD_KEYS
        events: list[Event] = []
        last = 0
        for number, line in enumerate(lines, start=1):
            try:
                if type(line) is not str:
                    line = line.decode("utf-8")
                record = _decode(line)
            except UnicodeDecodeError as exc:
                raise LogParseError("not UTF-8", number) from exc
            except json.JSONDecodeError as exc:
                if not line.strip():
                    continue
                raise LogParseError(f"invalid JSON ({exc.msg})", number) from exc
            if type(record) is not dict:
                raise LogParseError("not a JSON object", number)
            if log is None:
                log, keys = cls._open(record, number)
                events = log._events
                if keys is _RECORD_KEYS:
                    continue  # the v2 header
            if record.keys() != keys:
                missing = sorted(keys - record.keys())
                unknown = sorted(record.keys() - keys)
                raise LogParseError(
                    f"missing fields {missing}" if missing else f"unknown fields {unknown}",
                    number,
                )
            t = record["t"]
            type_ = record["type"]
            specialist = record["specialist"]
            data = record["data"]
            if type(t) is not int:
                raise LogParseError(f"t is not an integer: {t!r}", number)
            if type(type_) is not str:
                raise LogParseError(f"type is not a string: {type_!r}", number)
            if specialist is not None and type(specialist) is not str:
                raise LogParseError(f"specialist is not a string or null: {specialist!r}", number)
            if type(data) is not dict:
                raise LogParseError("data is not an object", number)
            if type_ == HEADER_TYPE:
                raise LogParseError("the log header is not the first record", number)
            if t < last:
                raise LogParseError(f"timestamp regression: {t} < {last}", number)
            if keys is _V1_KEYS and (
                type(record["seed"]) is not int
                or record["seed"] != log.seed
                or record["config_hash"] != log.config_hash
            ):
                raise LogParseError(
                    "seed or config_hash differs from the first record's", number
                )
            last = t
            events.append(Event(t, type_, specialist, data))
        if log is None:
            raise LogParseError("empty log: no header", 1)
        return log

    @classmethod
    def _open(cls, record: dict, number: int) -> tuple["EventLog", frozenset]:
        """The empty log that the first record opens, and the keys of
        every record after it: a v2 header opens a v2 log, a record
        carrying the seed and the config hash opens a v1 log."""
        if record.get("type") == HEADER_TYPE:
            data = record.get("data")
            version = data.get("schema_version") if type(data) is dict else None
            if type(version) is not int or version != SCHEMA_VERSION:
                raise LogParseError(f"unknown schema_version {version!r}", number)
            if (
                record.keys() != _RECORD_KEYS
                or data.keys() != _HEADER_DATA_KEYS
                or record["specialist"] is not None
                or type(record["t"]) is not int
                or record["t"] != 0
            ):
                raise LogParseError("malformed log header", number)
            seed, config_hash, keys = data["seed"], data["config_hash"], _RECORD_KEYS
        elif "seed" in record and "config_hash" in record:
            seed, config_hash, keys = record["seed"], record["config_hash"], _V1_KEYS
        else:
            raise LogParseError("missing log header", number)
        if type(seed) is not int or type(config_hash) is not str:
            raise LogParseError("seed is not an integer or config_hash not a string", number)
        return cls(seed=seed, config_hash=config_hash), keys
