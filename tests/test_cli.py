import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from frmsim.cli import main
from frmsim.config import ConfigError, ScenarioConfig, default_config
from frmsim.events import EventLog


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(default_config(seed=11).to_json())
    return path


def test_simulate_writes_outputs_and_exits_zero(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "events.jsonl").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert len(manifest["config_hash"]) == 64


def test_simulate_manifest_records_run_stats(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    log = EventLog.from_jsonl((out / "events.jsonl").read_text())
    counts = {}
    for event in log:
        counts[event.type] = counts.get(event.type, 0) + 1
    assert stats["events_by_type"] == counts
    # The default two-day horizon holds one shift: the second day's
    # shift would end after it.
    assert (stats["shifts_run"], stats["shifts_skipped"]) == (1, 1)
    assert 0 < stats["heap_high_water"] <= stats["heap_items"]
    assert 0 <= stats["stale_items_dropped"] < stats["heap_items"]
    assert stats["seconds_visited"] <= default_config().shift.duration_min + 1 + stats["heap_items"]


def test_simulate_manifest_records_the_log_file(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    data = (out / "events.jsonl").read_bytes()
    assert manifest["schema_version"] == 2
    assert manifest["log_bytes"] == len(data) == (out / "events.jsonl").stat().st_size
    # The header counts as a record, as it does for any line reader.
    assert manifest["events"] == data.count(b"\n")
    assert f"({manifest['events']} events)" in capsys.readouterr().out
    assert set(manifest["wall_s"]) == {"run", "write_log"}
    assert all(seconds >= 0 for seconds in manifest["wall_s"].values())


def test_simulate_encodes_once_and_digests_agree(config_path, tmp_path, capsys, monkeypatch):
    encodes = []
    to_jsonl = EventLog.to_jsonl
    write_jsonl = EventLog.write_jsonl

    def counting_to_jsonl(self):
        encodes.append("to_jsonl")
        return to_jsonl(self)

    def counting_write_jsonl(self, stream):
        encodes.append("write_jsonl")
        return write_jsonl(self, stream)

    monkeypatch.setattr(EventLog, "to_jsonl", counting_to_jsonl)
    monkeypatch.setattr(EventLog, "write_jsonl", counting_write_jsonl)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    # One streamed write encodes the log; the whole text is never built.
    assert encodes == ["write_jsonl"]
    printed = [
        line.split(": ", 1)[1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("log digest: ")
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    data = (out / "events.jsonl").read_bytes()
    file_digest = hashlib.sha256(data).hexdigest()
    assert printed == [file_digest]
    assert manifest["log_digest"] == file_digest
    assert EventLog.from_jsonl(data.decode("utf-8")).digest() == file_digest


def _assert_validate_and_simulate_exit_one(tmp_path, data, setting):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (
        ["validate-config", "--config", str(path)],
        ["simulate", "--config", str(path), "--out", str(tmp_path / "run")],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "frmsim.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert setting in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run" / "events.jsonl").exists()


_UNRUNNABLE = [
    # Zero cadences: the minute-tick checks would divide by zero.
    (("vigilance", "periodic_cadence_min"), 0),
    (("vigilance", "reliability_interval_min"), 0.005),
    (("behavior", "impromptu_check_min"), 0),
    (("dms", "observation_period"), 0.5),
    # Zero delays: the item would land in an already-processed slot
    # and block every later one.
    (("sa", "issue_delay_s"), 0.5),
    (("breaks", "duration_min"), 0),
    # Not finite (JSON Infinity and NaN): int() of them would fail.
    (("behavior", "manual_period_s"), float("inf")),
    (("vigilance", "flag_cooldown_min"), float("inf")),
    (("vigilance", "rating_latency_s"), float("nan")),
    (("raters", 1, "bias"), float("nan")),
]


@pytest.mark.parametrize(
    "keys, value",
    _UNRUNNABLE,
    ids=["-".join(map(str, keys)) + f"-{value}" for keys, value in _UNRUNNABLE],
)
def test_config_the_simulator_cannot_run_exits_one(tmp_path, keys, value):
    data = json.loads(default_config(seed=3).to_json())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    data["horizon_days"] = 4
    path = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    _assert_validate_and_simulate_exit_one(tmp_path, data, path)


@pytest.mark.parametrize(
    "keys, value, path",
    [
        (("sample_period",), 60, "config.sample_period"),
        (("fleet", 0, "suceptibility"), 3.0, "config.fleet[0].suceptibility"),
        (("shift", "scheduled_break"), [], "config.shift.scheduled_break"),
        (("dms", "mystery"), 1, "config.dms.mystery"),
        (("raters", 2, "nois_sd"), 0.1, "config.raters[2].nois_sd"),
        (("toggles", "educaton"), True, "config.toggles.educaton"),
        (("horizon_days",), 2.9, "config.horizon_days"),
        (("seed",), "3", "config.seed"),
        (("seed",), True, "config.seed"),
    ],
    ids=[
        "top-unknown",
        "fleet-unknown",
        "shift-unknown",
        "block-unknown",
        "rater-unknown",
        "toggles-unknown",
        "horizon-float",
        "seed-string",
        "seed-bool",
    ],
)
def test_config_codec_error_names_the_path(tmp_path, keys, value, path):
    data = default_config(seed=0).to_dict()
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(path)):
        ScenarioConfig.from_dict(data)
    _assert_validate_and_simulate_exit_one(tmp_path, data, path)


def test_secondary_alert_outlasting_the_drain_exits_one(tmp_path):
    # Before the drain bound, this left items on the heap that blocked
    # every later item: 52 escalations opened and 7 resolved.
    data = json.loads(default_config(seed=0).to_json())
    data["sa"]["issue_delay_s"] = data["sa"]["clear_timeout_s"] = 1790
    data["behavior"]["transition_rate_per_h"] = 20.0
    data["horizon_days"] = 4
    _assert_validate_and_simulate_exit_one(
        tmp_path, data, "config.sa.issue_delay_s + config.sa.clear_timeout_s"
    )


def test_missing_config_exits_two_with_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_invalid_json_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_semantically_bad_config_exits_one(tmp_path):
    data = json.loads(default_config(seed=0).to_json())
    data["horizon_days"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate-config", "--config", str(bad)]) == 1


def test_repeated_simulate_produces_identical_logs(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "events.jsonl").read_bytes()
    bytes_b = (out_b / "events.jsonl").read_bytes()
    assert bytes_a == bytes_b


def test_seed_override_changes_log(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config_path), "--out", str(out_a)])
    main(
        ["simulate", "--config", str(config_path), "--out", str(out_b), "--seed", "99"]
    )
    assert (out_a / "events.jsonl").read_bytes() != (out_b / "events.jsonl").read_bytes()


def test_plan_rotation_forward_example(capsys):
    assert main(["plan-rotation", "--current", "08:00", "--target", "12:00"]) == 0
    out = capsys.readouterr().out
    assert out.count("forward +120 min") == 2
    assert "10:00" in out and "12:00" in out
    assert "plan valid" in out


def test_plan_rotation_identity(capsys):
    assert main(["plan-rotation", "--current", "08:00", "--target", "08:00"]) == 0
    out = capsys.readouterr().out
    assert "forward" not in out and "backward" not in out


def test_plan_rotation_backward_without_rest_flag_violates(capsys):
    code = main(["plan-rotation", "--current", "08:00", "--target", "05:00"])
    assert code == 1
    assert "insufficient_extended_rest" in capsys.readouterr().out


def test_plan_rotation_backward_with_rest_flag_passes(capsys):
    code = main(
        ["plan-rotation", "--current", "08:00", "--target", "05:00", "--rest", "2880"]
    )
    assert code == 1 - 1
    assert "plan valid" in capsys.readouterr().out


def test_plan_rotation_bad_time_exits_one(capsys):
    assert main(["plan-rotation", "--current", "8am", "--target", "12:00"]) == 1


def test_report_matches_metrics_file(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    code = main(
        [
            "report",
            "--log",
            str(out / "events.jsonl"),
            "--metrics",
            str(out / "metrics.csv"),
        ]
    )
    assert code == 0
    assert "metrics match the stored file" in capsys.readouterr().out


def test_report_reads_the_v1_fixture_against_its_metrics(capsys):
    fixture = Path(__file__).with_name("fixtures") / "v1"
    code = main(
        [
            "report",
            "--log",
            str(fixture / "events.jsonl"),
            "--metrics",
            str(fixture / "metrics.csv"),
        ]
    )
    assert code == 0
    assert "metrics match the stored file" in capsys.readouterr().out


def test_report_is_deterministic(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    main(["report", "--log", str(out / "events.jsonl")])
    first = capsys.readouterr().out
    main(["report", "--log", str(out / "events.jsonl")])
    second = capsys.readouterr().out
    assert first == second


def test_report_truncated_line_exits_two_with_line_number(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    log_path = out / "events.jsonl"
    text = log_path.read_text()
    lines = text.splitlines()
    log_path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25] + "\n")
    code = main(["report", "--log", str(log_path)])
    assert code == 2
    assert f"line {len(lines)}" in capsys.readouterr().err


def _small_log_records() -> list[dict]:
    """A header and two records, as dicts."""
    log = EventLog(seed=0, config_hash="x")
    log.append(0, "shift_start", "as-0", day=0, dual=False)
    log.append(60, "shift_end", "as-0")
    return [json.loads(line) for line in log.to_jsonl().splitlines()]


def _line(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


SMALL_LOG = [_line(record) for record in _small_log_records()]


def _edited(index: int, **changes) -> list[bytes]:
    records = _small_log_records()
    records[index].update(changes)
    return [_line(record) for record in records]


def _header_version(version) -> list[bytes]:
    records = _small_log_records()
    records[0]["data"]["schema_version"] = version
    return [_line(record) for record in records]


MALFORMED_LOGS = {
    # name: (lines, the line the error names)
    "not_an_object": ([SMALL_LOG[0], b"[1,2]", SMALL_LOG[2]], 2),
    "data_not_an_object": (_edited(1, data=[]), 2),
    "t_not_an_integer": (_edited(2, t=60.5), 3),
    "t_boolean": (_edited(1, t=True), 2),
    "t_string_after_a_record": (_edited(2, t="60"), 3),
    "type_not_a_string": (_edited(1, type=5), 2),
    "specialist_not_a_string": (_edited(1, specialist=7), 2),
    "not_utf8": ([*SMALL_LOG[:2], SMALL_LOG[2].replace(b"as-0", b"as-\xff")], 3),
    "missing_header": (SMALL_LOG[1:], 1),
    "header_not_first": ([*SMALL_LOG[:2], SMALL_LOG[0], SMALL_LOG[2]], 3),
    "unknown_schema_version": (_header_version(3), 1),
    "unknown_key": (_edited(1, seed=0), 2),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LOGS))
def test_report_rejects_a_malformed_line_with_exit_two(name, tmp_path, capsys):
    lines, number = MALFORMED_LOGS[name]
    log_path = tmp_path / "events.jsonl"
    log_path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["report", "--log", str(log_path)]) == 2
    assert capsys.readouterr().err.startswith(f"line {number}: ")


@pytest.mark.parametrize("field", ["seed", "config_hash"])
def test_report_rejects_a_v1_log_that_mixes_two_runs(field, tmp_path, capsys):
    fixture = Path(__file__).with_name("fixtures") / "v1" / "events.jsonl"
    records = [json.loads(line) for line in fixture.read_text().splitlines()]
    records[-1][field] = 1 if field == "seed" else "0" * 64
    log_path = tmp_path / "events.jsonl"
    log_path.write_bytes(b"\n".join(_line(record) for record in records) + b"\n")
    assert main(["report", "--log", str(log_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"line {len(records)}: ")
    assert "differs from the first record" in err


def test_metrics_do_not_depend_on_sample_period(tmp_path, capsys):
    rows = set()
    for period in (0, 1, 45, 60, 90, 600):
        config = tmp_path / f"config{period}.json"
        config.write_text(default_config(seed=3, sample_period_s=period).to_json())
        out = tmp_path / f"run{period}"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        header, row = (out / "metrics.csv").read_text().splitlines()
        assert header.split(",")[0] == "config_hash"
        rows.add(row.split(",", 1)[1])
    assert len(rows) == 1


def test_report_rejects_log_without_ord_change_records(tmp_path, capsys):
    # A log written before ord_change records existed: the on-task state
    # is only in per-minute state_sample records.
    log = EventLog(seed=0, config_hash="x")
    log.append(0, "shift_start", "as-0", day=0, dual=False)
    for t in (0, 60, 120):
        log.append(
            t,
            "state_sample",
            "as-0",
            alertness=0.3,
            ord=4,
            task_load=0.9,
            pressure=0.5,
            on_task=True,
            period_s=60,
        )
    log.append(120, "shift_end", "as-0")
    log_path = tmp_path / "events.jsonl"
    log_path.write_text(log.to_jsonl())
    assert main(["report", "--log", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert "no ord_change record" in err
    assert "Traceback" not in err


def test_validate_config_ok(config_path, capsys):
    assert main(["validate-config", "--config", str(config_path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_ablate_writes_paired_table(config_path, tmp_path, capsys):
    out = tmp_path / "ablation"
    code = main(
        [
            "ablate",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--set",
            "off:none",
            "--set",
            "on:all",
            "--seeds",
            "2",
        ]
    )
    assert code == 0
    table = (out / "ablation.csv").read_text()
    assert table.startswith("toggle_set,seed,metric,baseline,value,delta")
    assert "time_at_ord_ge4_min" in table


def test_init_config_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    assert main(["init-config", "--out", str(path), "--seed", "3"]) == 0
    assert main(["validate-config", "--config", str(path)]) == 0


def test_toggle_override_spec(config_path, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--toggles",
            "engagement,awareness",
        ]
    )
    assert code == 0
    text = (out / "events.jsonl").read_text()
    assert '"type":"ict_prompt"' in text
    assert '"type":"dms_flag"' not in text


def test_plan_rotation_export(tmp_path):
    path = tmp_path / "plan.json"
    code = main(
        [
            "plan-rotation",
            "--current",
            "08:00",
            "--target",
            "12:00",
            "--export",
            str(path),
        ]
    )
    assert code == 0
    from frmsim.scheduling import rotation_from_records

    plan = rotation_from_records(json.loads(path.read_text()))
    assert [s.start_min for s in plan.shifts] == [480, 600, 720]
