"""The event log and its codec: every line is canonical JSON, a
streamed log reads back as the records a kept log holds, a kept and a
streamed log count and fold alike, the one reader names the line and
the fault of every malformed log, and schema v1 logs written before the
v2 header still read, record for record."""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from frmsim.config import ScenarioConfig
from frmsim.events import CHUNK_LINES, EventLog, LogParseError, WrittenLog
from frmsim.metrics import MetricsFold, compute_metrics
from frmsim.sim import run_scenario

from logchecks import read_log, restream, stream_run
from test_golden import matrix

# ``frmsim simulate`` output for ``config.json`` (the default config,
# seed 0), written in schema v1: every record carries the seed and the
# config hash, and there is no header.
V1_FIXTURE = Path(__file__).with_name("fixtures") / "v1"


def canonical(record) -> str:
    """The reference for every line the encoder writes."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(matrix()))
def test_lines_are_canonical_and_encodings_agree(name):
    cfg = matrix()[name]
    kept, _ = run_scenario(cfg)
    log, _, data = stream_run(cfg)
    lines = data.decode("utf-8").splitlines()
    for line in lines:
        assert line == canonical(json.loads(line))
    assert log.written == WrittenLog(hashlib.sha256(data).hexdigest(), len(lines), len(data))
    header, records = read_log(data)
    assert header == {"config_hash": cfg.config_hash(), "schema_version": 2, "seed": cfg.seed}
    assert records == list(kept)
    assert log.type_counts() == kept.type_counts() == Counter(e.type for e in records)


@pytest.mark.parametrize("name", sorted(matrix()))
def test_one_fold_serves_a_kept_and_a_streamed_run(name):
    # Both runs fold their metrics and count their types as they append;
    # the kept log's records fold and count to the same values afterwards.
    log, metrics = run_scenario(matrix()[name])
    streamed, streamed_metrics = run_scenario(matrix()[name], stream=io.BytesIO())
    assert metrics == compute_metrics(list(log)) == streamed_metrics
    assert log.type_counts() == Counter(event.type for event in log) == streamed.type_counts()


def _streamed_log(appends) -> bytes:
    """The bytes of a log of seed 4 and config hash "x" that ``appends``
    fills."""
    stream = io.BytesIO()
    log = EventLog(4, "x", stream)
    appends(log)
    log.close()
    return stream.getvalue()


HEADER = canonical(
    {
        "data": {"config_hash": "x", "schema_version": 2, "seed": 4},
        "specialist": None,
        "t": 0,
        "type": "log_header",
    }
)


def test_empty_log_is_its_header():
    data = _streamed_log(lambda log: None)
    assert data == (HEADER + "\n").encode()
    assert read_log(data) == ({"config_hash": "x", "schema_version": 2, "seed": 4}, [])


def test_v1_fixture_reads_as_a_fresh_run():
    cfg = ScenarioConfig.from_json((V1_FIXTURE / "config.json").read_text())
    fresh, _ = run_scenario(cfg)
    with open(V1_FIXTURE / "events.jsonl", "rb") as lines:
        header, records = read_log(lines)
    assert header == {"config_hash": cfg.config_hash(), "schema_version": 1, "seed": cfg.seed}
    assert records == list(fresh)


def test_a_streamed_log_writes_and_folds_what_an_event_log_does_and_keeps_nothing():
    held_fold, streamed_fold = MetricsFold(), MetricsFold()
    held = EventLog(4, "x", fold=held_fold)
    stream = io.BytesIO()
    streamed = EventLog(4, "x", stream, streamed_fold)
    for i in range(CHUNK_LINES + 3):
        for log in (held, streamed):
            log.append(i, "incautious" if i % 2 else "tick", f"as-{i % 3}", n=i)
    held.close()
    streamed.close()
    assert held.written is None
    expected = "".join(
        canonical({"data": e.data, "specialist": e.specialist, "t": e.time, "type": e.type})
        + "\n"
        for e in held
    )
    expected = (HEADER + "\n" + expected).encode()
    assert stream.getvalue() == expected
    assert streamed.written == WrittenLog(
        hashlib.sha256(expected).hexdigest(), CHUNK_LINES + 4, len(expected)
    )
    assert streamed.type_counts() == held.type_counts() == Counter(e.type for e in held)
    assert streamed_fold.finish() == held_fold.finish() == compute_metrics(held)
    with pytest.raises(TypeError, match="keeps no records"):
        list(streamed)
    for log in (held, streamed):
        with pytest.raises(ValueError, match="timestamp regression"):
            log.append(0, "late")


def test_a_record_may_hold_any_data_key():
    data = _streamed_log(lambda log: log.append(5, "note", None, time=1, type_="y", specialist="z"))
    header, records = read_log(data)
    assert records == [(5, "note", None, {"time": 1, "type_": "y", "specialist": "z"})]
    # Read back, the record re-appends to the same line.
    again = io.BytesIO()
    restream(header, records, again)
    assert again.getvalue() == data


def _record(t=0, type_="a", specialist=None, data=None, **extra) -> str:
    record = {"data": {} if data is None else data, "specialist": specialist, "t": t, "type": type_}
    return canonical(dict(record, **extra))


def _header(**changes) -> str:
    header = json.loads(HEADER)
    data = dict(header.pop("data"), **changes.pop("data", {}))
    return canonical(dict(header, data=data, **changes))


V1 = {"config_hash": "x", "seed": 4}

# (lines, the line at fault, the message): one log for each way
# ``read_jsonl`` rejects a log.
MALFORMED = {
    "invalid_json": ([HEADER, "nope"], 2, "invalid JSON (Expecting value)"),
    "not_an_object": ([HEADER, "[]"], 2, "not a JSON object"),
    "missing_fields": (
        [HEADER, '{"t": 0}'], 2, "missing fields ['data', 'specialist', 'type']"
    ),
    "unknown_fields": ([HEADER, _record(seed=4)], 2, "unknown fields ['seed']"),
    "t_not_int": ([HEADER, _record(t=1.5)], 2, "t is not an integer: 1.5"),
    "type_not_str": ([HEADER, _record(type_=3)], 2, "type is not a string: 3"),
    "specialist_not_str": (
        [HEADER, _record(specialist=7)], 2, "specialist is not a string or null: 7"
    ),
    "data_not_object": ([HEADER, _record(data=[])], 2, "data is not an object"),
    "header_not_first": ([HEADER, _record(), HEADER], 3, "the log header is not the first record"),
    "timestamp_regression": (
        [HEADER, _record(t=5), _record(t=4)], 3, "timestamp regression: 4 < 5"
    ),
    "v1_seed_differs": (
        [_record(**V1), _record(config_hash="x", seed=5)],
        2,
        "seed or config_hash differs from the first record's",
    ),
    "empty": ([], 1, "empty log: no header"),
    "blank_lines_only": (["", "  "], 1, "empty log: no header"),
    "unknown_schema_version": (
        [_header(data={"schema_version": 3})], 1, "unknown schema_version 3"
    ),
    "malformed_header": ([_header(t=1)], 1, "malformed log header"),
    "missing_header": ([_record(), HEADER], 1, "missing log header"),
    "seed_not_int": (
        [_header(data={"seed": "4"})], 1, "seed is not an integer or config_hash not a string"
    ),
}


@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_jsonl_names_the_line_and_the_fault(case, as_bytes):
    lines, number, message = MALFORMED[case]
    if as_bytes:
        lines = [line.encode("utf-8") for line in lines]
    with pytest.raises(LogParseError) as excinfo:
        read_log(lines)
    assert excinfo.value.line_number == number
    assert str(excinfo.value) == f"line {number}: {message}"


def test_read_jsonl_rejects_bytes_that_are_not_utf8():
    with pytest.raises(LogParseError) as excinfo:
        read_log([HEADER.encode(), b'{"t":\xff}'])
    assert excinfo.value.line_number == 2
    assert str(excinfo.value) == "line 2: not UTF-8"
