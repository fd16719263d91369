"""The event log codec: every line is canonical JSON, the three ways of
encoding a log agree, and schema v1 logs written before the v2 header
still read, record for record."""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from frmsim.config import ScenarioConfig
from frmsim.events import EventLog
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
