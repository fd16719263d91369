"""The event log and its codec: every line is canonical JSON, the three
ways of encoding a log agree, a kept and a streamed log count and fold
alike, and schema v1 logs written before the v2 header still read,
record for record."""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from frmsim.config import ScenarioConfig
from frmsim.events import CHUNK_LINES, EventLog
from frmsim.metrics import MetricsFold, compute_metrics
from frmsim.sim import run_scenario

from test_golden import matrix

# ``frmsim simulate`` output for ``config.json`` (the default config,
# seed 0), written in schema v1: every record carries the seed and the
# config hash, and there is no header.
V1_FIXTURE = Path(__file__).with_name("fixtures") / "v1"


@pytest.mark.parametrize("name", sorted(matrix()))
def test_lines_are_canonical_and_encodings_agree(name):
    log, _ = run_scenario(matrix()[name])
    text = log.to_jsonl()
    lines = text.splitlines()
    assert len(lines) == len(log) + 1
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    stream = io.BytesIO()
    written = log.write_jsonl(stream)
    assert stream.getvalue() == text.encode("utf-8")
    assert written.digest == log.digest() == hashlib.sha256(stream.getvalue()).hexdigest()
    assert (written.records, written.size) == (len(lines), len(stream.getvalue()))
    again = EventLog.from_jsonl(io.BytesIO(stream.getvalue()))
    assert (again.seed, again.config_hash) == (log.seed, log.config_hash)
    assert list(again) == list(log)
    assert again.type_counts() == log.type_counts()


@pytest.mark.parametrize("name", sorted(matrix()))
def test_one_fold_serves_a_kept_and_a_streamed_run(name):
    # Both runs fold their metrics and count their types as they append;
    # the kept log's records fold and count to the same values afterwards.
    log, metrics = run_scenario(matrix()[name])
    streamed, streamed_metrics = run_scenario(matrix()[name], stream=io.BytesIO())
    assert metrics == compute_metrics(list(log)) == streamed_metrics
    assert log.type_counts() == Counter(event.type for event in log) == streamed.type_counts()


def test_empty_log_is_its_header():
    log = EventLog(seed=4, config_hash="x")
    assert log.to_jsonl() == (
        '{"data":{"config_hash":"x","schema_version":2,"seed":4},'
        '"specialist":null,"t":0,"type":"log_header"}\n'
    )
    again = EventLog.from_jsonl(log.to_jsonl())
    assert (again.seed, again.config_hash, len(again)) == (4, "x", 0)


def test_v1_fixture_reads_as_a_fresh_run():
    cfg = ScenarioConfig.from_json((V1_FIXTURE / "config.json").read_text())
    fresh, _ = run_scenario(cfg)
    old = EventLog.from_jsonl((V1_FIXTURE / "events.jsonl").read_text())
    assert (old.seed, old.config_hash) == (fresh.seed, fresh.config_hash)
    assert list(old) == list(fresh)


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
    expected = io.BytesIO()
    assert streamed.written == held.write_jsonl(expected)
    assert stream.getvalue() == expected.getvalue()
    assert streamed.type_counts() == held.type_counts() == Counter(e.type for e in held)
    assert streamed_fold.finish() == held_fold.finish() == compute_metrics(held)
    for read in (list, len, EventLog.to_jsonl, EventLog.digest):
        with pytest.raises(TypeError, match="keeps no records"):
            read(streamed)
    for log in (held, streamed):
        with pytest.raises(ValueError, match="timestamp regression"):
            log.append(0, "late")


def test_a_record_may_hold_any_data_key():
    log = EventLog(seed=0, config_hash="x")
    log.append(5, "note", None, time=1, type_="y", specialist="z")
    again = EventLog.from_jsonl(log.to_jsonl())
    record = (5, "note", None, {"time": 1, "type_": "y", "specialist": "z"})
    assert list(again) == list(log) == [record]
