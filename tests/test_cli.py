import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from frmsim.cli import main
from frmsim.config import (
    ConfigError,
    ScenarioConfig,
    ShiftConfig,
    SpecialistDef,
    Toggles,
    default_config,
)
from frmsim import engagement, events
from frmsim.events import EventLog

from logchecks import read_log


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
    _, records = read_log((out / "events.jsonl").read_bytes())
    counts = {}
    for event in records:
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
    # The log is written during the run, so the run's time covers it.
    assert set(manifest["wall_s"]) == {"run"}
    assert all(seconds >= 0 for seconds in manifest["wall_s"].values())


def test_simulate_encodes_once_and_digests_agree(config_path, tmp_path, capsys, monkeypatch):
    encoded = []
    encode_lines = events._LineEncoder.lines

    def counting_lines(self, records):
        for line in encode_lines(self, records):
            encoded.append(line)
            yield line

    monkeypatch.setattr(events._LineEncoder, "lines", counting_lines)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    # The streamed log encodes each record exactly once, as it is
    # appended; the whole text is never built.
    data = (out / "events.jsonl").read_bytes()
    assert "".join(encoded).encode("utf-8") == data.split(b"\n", 1)[1]
    printed = [
        line.split(": ", 1)[1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("log digest: ")
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    file_digest = hashlib.sha256(data).hexdigest()
    assert printed == [file_digest]
    assert manifest["log_digest"] == file_digest


def test_a_failed_simulate_leaves_the_out_dir_empty(tmp_path, capsys, monkeypatch):
    # The run fails at its first shift end, after the log file was opened
    # and written to.
    def failing_end_shift(run, agent, t):
        raise ValueError("the shift end failed")

    monkeypatch.setattr(engagement, "end_shift", failing_end_shift)
    config = tmp_path / "config.json"
    config.write_text(default_config(seed=3).to_json())
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert "the shift end failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _peak_bytes(argv: list[str]) -> int:
    """The tracemalloc peak of one in-process command, which must succeed."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_simulate_and_report_memory_follows_the_fleet_not_the_log(tmp_path, capsys):
    # Doubling the horizon doubles the log; a command that holds the
    # records doubles its peak, one that streams them keeps it.
    fleet = tuple(
        SpecialistDef(specialist_id=f"as-{i}", susceptibility=0.9 + 0.1 * i, dual=i % 2 == 0)
        for i in range(4)
    )

    def peaks(days: int, measure=_peak_bytes) -> tuple:
        config = tmp_path / f"config{days}.json"
        config.write_text(
            default_config(
                seed=0,
                horizon_days=days,
                fleet=fleet,
                shift=ShiftConfig(duration_min=240),
                toggles=Toggles.all_on(),
            ).to_json()
        )
        out = tmp_path / f"run{days}"
        return (
            measure(["simulate", "--config", str(config), "--out", str(out)]),
            measure(["report", "--log", str(out / "events.jsonl")]),
        )

    # One shift first, untraced, so that first-use allocations (caches,
    # lazy imports) do not count in the 7-day peaks.
    peaks(2, measure=main)
    week, fortnight = peaks(7), peaks(14)
    for command, small, large in zip(("simulate", "report"), week, fortnight):
        assert large <= 1.3 * small, f"{command}: {small} B at 7 d, {large} B at 14 d"


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
    # No qualification test set, or a pass mark no rater can reach.
    (("vigilance", "qualification_items"), 0),
    (("vigilance", "qualification_items"), -5),
    (("vigilance", "qualification_match_threshold"), 1.5),
    # An adaptation window the scheduler's outcome history cannot fill.
    (("ict", "adapt_window"), 0),
    (("ict", "adapt_window"), -3),
    (("ict", "adapt_window"), 80),
    # Break-activity weights that random.choices rejects (a zero sum) or
    # would draw with a negative weight.
    (("behavior", "break_activity_weights"), [-1, 0.3, 0.1]),
    (("behavior", "break_activity_weights"), [0, 0, 0]),
    (("behavior", "break_activity_weights"), [0.5, -0.2, 0.5]),
    # Model taus divide, and the component weights must sum to 1.
    (("model", "homeostat_rise_tau"), 0),
    (("model", "component_weights"), [0.5, 0.5, 0.5]),
    # A control transition looks up its cause's weight: each cause once.
    (("sa", "cause_weights"), [["pedal", 0.5]]),
    (("sa", "cause_weights"), [["pedal", 0.5], ["steering", 0.35], ["brake", 0.35], ["horn", 0.1]]),
    # Too few raters pass the seeded qualification (seed 3).
    (("vigilance", "qualification_match_threshold"), 1.0),
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


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    text = default_config(seed=0).to_json()
    assert ScenarioConfig.from_json(text) == ScenarioConfig.from_json(text.encode())
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + text.encode())
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert "configuration is not UTF-8" in capsys.readouterr().err


# Each case: the command, the path it cannot write or read (relative to
# the test directory), and what is in the way there: a directory, a
# regular file, nothing, when the parent directory is missing, or, for
# an input, bytes that are not UTF-8.
_UNWRITABLE_OUTPUTS = {
    "simulate-metrics-dir": (
        ["simulate", "--config", "{config}", "--out", "{tmp}/run"], "run/metrics.csv", "dir"
    ),
    "simulate-manifest-dir": (
        ["simulate", "--config", "{config}", "--out", "{tmp}/run"], "run/manifest.json", "dir"
    ),
    "simulate-out-file": (
        ["simulate", "--config", "{config}", "--out", "{tmp}/run"], "run", "file"
    ),
    "ablate-csv-dir": (
        ["ablate", "--config", "{config}", "--out", "{tmp}/run",
         "--set", "off:none", "--set", "on:all", "--seeds", "1"],
        "run/ablation.csv",
        "dir",
    ),
    "calibrate-out-file": (
        ["calibrate", "--config", "{config}", "--out", "{tmp}/run"],
        "run",
        "file",
    ),
    "init-config-missing-dir": (
        ["init-config", "--out", "{tmp}/missing/config.json"], "missing/config.json", None
    ),
    "plan-rotation-export-missing-dir": (
        ["plan-rotation", "--current", "08:00", "--target", "12:00",
         "--export", "{tmp}/missing/plan.json"],
        "missing/plan.json",
        None,
    ),
    "report-metrics-not-utf8": (
        ["report", "--log", "{log}", "--metrics", "{tmp}/metrics.csv"],
        "metrics.csv",
        "not_utf8",
    ),
    "report-ablation-not-utf8": (
        ["report", "--log", "{log}", "--ablation", "{tmp}/ablation.csv"],
        "ablation.csv",
        "not_utf8",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_two_with_path(case, config_path, tmp_path, capsys):
    argv, blocked, obstacle = _UNWRITABLE_OUTPUTS[case]
    target = tmp_path / blocked
    if obstacle == "dir":
        target.mkdir(parents=True)
    elif obstacle == "file":
        target.write_text("")
    elif obstacle == "not_utf8":
        target.write_bytes(b"\xff\xfe")
    log = Path(__file__).with_name("fixtures") / "v1" / "events.jsonl"
    argv = [arg.format(config=config_path, tmp=tmp_path, log=log) for arg in argv]
    assert main(argv) == 2
    assert str(target) in capsys.readouterr().err


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
    stream = io.BytesIO()
    log = EventLog(0, "x", stream)
    log.append(0, "shift_start", "as-0", day=0, dual=False)
    log.append(60, "shift_end", "as-0")
    log.close()
    return [json.loads(line) for line in stream.getvalue().splitlines()]


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


def _first_shift_without_ord_changes(tmp_path) -> list[bytes]:
    """The lines of a two-shift log whose first shift lost its
    ord_change records."""
    config = tmp_path / "config.json"
    config.write_text(default_config(seed=11, horizon_days=3).to_json())
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "events.jsonl").read_bytes().splitlines()
    first_end = next(i for i, line in enumerate(lines) if b'"type":"shift_end"' in line)
    assert first_end < len(lines) - 2
    return [
        line
        for i, line in enumerate(lines)
        if i > first_end or b'"type":"ord_change"' not in line
    ]


def test_report_on_a_shift_without_ord_change_exits_one(tmp_path, capsys):
    log_path = tmp_path / "events.jsonl"
    log_path.write_bytes(b"\n".join(_first_shift_without_ord_changes(tmp_path)) + b"\n")
    capsys.readouterr()
    assert main(["report", "--log", str(log_path)]) == 1
    captured = capsys.readouterr()
    assert "has no ord_change record" in captured.err
    assert captured.out == ""


def test_report_names_a_malformed_line_after_an_unfoldable_shift(tmp_path, capsys):
    # The fold fails at the first shift's end; the parse error on the
    # last line still decides the exit code.
    lines = _first_shift_without_ord_changes(tmp_path)
    lines[-1] = lines[-1][:25]
    log_path = tmp_path / "events.jsonl"
    log_path.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    assert main(["report", "--log", str(log_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"line {len(lines)}: ")
    assert captured.out == ""


def test_report_rejects_log_without_ord_change_records(tmp_path, capsys):
    # A log written before ord_change records existed: the on-task state
    # is only in per-minute state_sample records.
    log_path = tmp_path / "events.jsonl"
    with log_path.open("wb") as stream:
        log = EventLog(0, "x", stream)
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
        log.close()
    assert main(["report", "--log", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert "no ord_change record" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "record_type, field",
    [
        ("pfs", "record_id"),
        ("pfs", "kss"),
        ("pfs", "is_followup"),
        ("escalation_resolved", "route"),
        ("escalation_resolved", "resolution"),
    ],
)
def test_report_on_a_record_missing_a_field_exits_one(config_path, tmp_path, capsys, record_type, field):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "events.jsonl").read_bytes().splitlines()
    first = next(i for i, line in enumerate(lines) if f'"type":"{record_type}"'.encode() in line)
    record = json.loads(lines[first])
    del record["data"][field]
    lines[first] = _line(record)
    log_path = tmp_path / "events.jsonl"
    log_path.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    assert main(["report", "--log", str(log_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"malformed {record_type} record: missing {field!r}\n"
    assert captured.out == ""
    # A line that does not parse, after it, still decides the exit code.
    log_path.write_bytes(b"\n".join([*lines, lines[-1][:25]]) + b"\n")
    assert main(["report", "--log", str(log_path)]) == 2
    assert capsys.readouterr().err.startswith(f"line {len(lines) + 1}: ")


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


def test_ablate_rejects_a_toggle_set_name_given_twice(config_path, tmp_path, capsys):
    out = tmp_path / "ablation"
    argv = ["ablate", "--config", str(config_path), "--out", str(out),
            "--set", "a:none", "--set", "a:all", "--seeds", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "toggle set name 'a' is given more than once" in err
    assert "Traceback" not in err
    assert not (out / "ablation.csv").exists()


def test_calibrate_writes_the_fitted_hazard(config_path, tmp_path, capsys):
    out = tmp_path / "cal"
    argv = ["calibrate", "--config", str(config_path), "--out", str(out)]
    assert main(argv) == 0
    text = (out / "calibration.json").read_text()
    assert capsys.readouterr().out == text
    payload = json.loads(text)
    assert list(payload) == [
        "hazard", "exact_short", "exact_long", "ratio", "converged", "iterations",
    ]
    assert list(payload["hazard"]) == ["base_per_min", "task_load_gain", "alertness_gain"]
    assert payload["converged"] is True


def test_calibrate_on_an_empty_fleet_names_it_and_exits_one(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(default_config(seed=0, fleet=()).to_json())
    out = tmp_path / "cal"
    assert main(["validate-config", "--config", str(path)]) == 0
    assert main(["calibrate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config.fleet" in err
    assert "Traceback" not in err
    assert not (out / "calibration.json").exists()


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
    records = json.loads(path.read_text())
    assert [record["start_min"] for record in records] == [480, 600, 720]
