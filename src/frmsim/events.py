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

One line encoder writes every log and one strict reader,
``read_jsonl``, reads every log, both one record at a time. One class,
``EventLog``, is every run's log: each append checks the timestamp
order, counts the record's type and feeds the run's metrics fold.
Given a stream, it holds no record: it encodes, hashes and writes the
records as they are appended (in chunks of ``CHUNK_LINES`` lines), and
that is the only way a log is written. Without one, it keeps its
records in memory, where they iterate as ``Event``s and are never
encoded. ``frmsim simulate`` streams its log and ``frmsim report``
folds while it reads, so neither command's memory grows with the log;
``tests/memory_budget.py`` holds each to a 40 MiB peak on an
80-specialist, 28-day fleet.
"""

from __future__ import annotations

import hashlib
import json
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Union

__all__ = [
    "CHUNK_LINES",
    "Event",
    "EventLog",
    "LogParseError",
    "SCHEMA_VERSION",
    "WrittenLog",
    "read_jsonl",
]

SCHEMA_VERSION = 2
HEADER_TYPE = "log_header"

# Lines encoded, hashed and written together: one write per chunk keeps
# the per-record cost of streaming at that of encoding.
CHUNK_LINES = 256

# The one JSON encoder and decoder of the log format.
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
    """What a log wrote: the SHA-256 of the bytes, the number of lines
    (header included) and the number of bytes."""

    digest: str
    records: int
    size: int


def _header_line(seed: int, config_hash: str) -> str:
    header = {"config_hash": config_hash, "schema_version": SCHEMA_VERSION, "seed": seed}
    return _encode({"data": header, "specialist": None, "t": 0, "type": HEADER_TYPE}) + "\n"


class _LineEncoder:
    """The one record encoder. A record's line is '{"data":' + data + the
    specialist's piece + the timestamp + the type's piece (the keys sort
    in that order); the pieces are built once per specialist and type."""

    def __init__(self) -> None:
        self._who: dict[Optional[str], str] = {}
        self._kind: dict[str, str] = {}

    def lines(self, records: Iterable[tuple]) -> Iterator[str]:
        """The line of each ``(time, type, specialist, data)`` record,
        ending in a newline."""
        who_pieces = self._who
        kind_pieces = self._kind
        for time, type_, specialist, data in records:
            who = who_pieces.get(specialist)
            if who is None:
                who = ',"specialist":' + _encode(specialist) + ',"t":'
                who_pieces[specialist] = who
            kind = kind_pieces.get(type_)
            if kind is None:
                kind = kind_pieces[type_] = ',"type":' + _encode(type_) + "}\n"
            yield '{"data":' + _encode(data) + who + str(time) + kind


class _HashingWriter:
    """Writes text into a binary stream as UTF-8, hashing the bytes and
    counting the lines and bytes written."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._sha = hashlib.sha256()
        self._lines = 0
        self._size = 0

    def write(self, text: str, lines: int) -> None:
        data = text.encode("utf-8")
        self._sha.update(data)
        self._stream.write(data)
        self._lines += lines
        self._size += len(data)

    def written(self) -> WrittenLog:
        return WrittenLog(self._sha.hexdigest(), self._lines, self._size)


class EventLog:
    """Timestamp-ordered sequence of typed records for one scenario run.

    Every ``append`` checks the timestamp order, counts the record's type
    and, if its type is in ``fold.TYPES``, passes the record to
    ``fold.feed(time, type, specialist, data)`` (``fold`` is a
    ``frmsim.metrics.MetricsFold``). Given a binary ``stream`` the log
    keeps no record: it writes the header and then the lines of
    ``CHUNK_LINES`` records at a time there, hashing them; ``close``
    writes the last chunk and sets ``written`` to the digest, lines and
    size of what it wrote (the stream stays open), and iterating the log
    raises ``TypeError``. To hash a run without keeping its bytes, give
    it a stream whose ``write`` discards them. Without a ``stream`` the
    log keeps its records, which iterate as ``Event``s, and ``written``
    stays ``None``.
    """

    def __init__(
        self, seed: int, config_hash: str, stream: Optional[BinaryIO] = None, fold=None
    ):
        self.written: Optional[WrittenLog] = None
        # The kept records, or with a stream those not yet written, as
        # (time, type, specialist, data) tuples.
        self._records: list[tuple] = []
        self._last = 0
        self._counts: dict[str, int] = {}
        self._feed = None if fold is None else fold.feed
        self._fold_types = frozenset() if fold is None else fold.TYPES
        self._encoder = _LineEncoder()
        self._writer = None if stream is None else _HashingWriter(stream)
        if self._writer is not None:
            self._writer.write(_header_line(seed, config_hash), 1)

    def append(
        self,
        time: int,
        type_: str,
        specialist: Optional[str] = None,
        /,
        **data,
    ) -> None:
        # The first three parameters are positional-only, so that the
        # data may hold any key, ``time``, ``type_`` and ``specialist``
        # included: an ``Event`` read back re-appends as
        # ``append(time, type, specialist, **data)``.
        if time < self._last:
            raise ValueError(f"timestamp regression: {time} < {self._last}")
        time = self._last = int(time)
        records = self._records
        records.append((time, type_, specialist, data))
        if self._writer is not None and len(records) == CHUNK_LINES:
            self._write_pending()
        counts = self._counts
        counts[type_] = counts.get(type_, 0) + 1
        if type_ in self._fold_types:
            self._feed(time, type_, specialist, data)

    def _write_pending(self) -> None:
        records = self._records
        self._writer.write("".join(self._encoder.lines(records)), len(records))
        records.clear()

    def close(self) -> None:
        """With a stream, write the records not yet written and set
        ``written``; without one, do nothing."""
        if self._writer is not None:
            self._write_pending()
            self.written = self._writer.written()

    def type_counts(self) -> dict[str, int]:
        """The number of records of each type."""
        return dict(self._counts)

    def __iter__(self) -> Iterator[Event]:
        if self._writer is not None:
            raise TypeError("a streamed log keeps no records; read the file it wrote")
        return map(Event._make, self._records)


def read_jsonl(lines: Iterable[Union[str, bytes]]) -> Iterator[Event]:
    """The one strict reader: the events of a v2 or v1 log, read from
    its lines (str or UTF-8 bytes, such as an open file) one at a time.

    The first event is the log's header, a ``log_header`` event whose
    data holds the ``schema_version``, ``seed`` and ``config_hash`` (for
    a v1 log, those of its first record); the records follow. Blank
    lines are skipped. Raises ``LogParseError`` naming the first line
    that is not a well-formed record of the log's schema.
    """
    keys = None
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
        if keys is None:
            keys, seed, config_hash = _open(record, number)
            yield Event(
                0,
                HEADER_TYPE,
                None,
                {
                    "config_hash": config_hash,
                    "schema_version": SCHEMA_VERSION if keys is _RECORD_KEYS else 1,
                    "seed": seed,
                },
            )
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
            or record["seed"] != seed
            or record["config_hash"] != config_hash
        ):
            raise LogParseError(
                "seed or config_hash differs from the first record's", number
            )
        last = t
        yield Event(t, type_, specialist, data)
    if keys is None:
        raise LogParseError("empty log: no header", 1)


def _open(record: dict, number: int) -> tuple[frozenset, int, str]:
    """The keys of every record after the first one, and the log's seed
    and config hash: a v2 header opens a v2 log, a record carrying the
    seed and the config hash opens a v1 log."""
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
    return keys, seed, config_hash
