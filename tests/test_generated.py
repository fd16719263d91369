"""Generated configurations through the CLI: a configuration that
``validate-config`` accepts must simulate, conserve its log, report
metrics that match the stored file, visit no more seconds than its
minute ticks and heap items, and fold the same metrics from its
``ord_change`` records as the oracle folds from the state trace; one it
rejects must make ``simulate`` exit 1 as well."""

import json
import random

from frmsim.cli import main
from frmsim.config import ScenarioConfig
from configs import random_config
from logchecks import assert_log_conserved, assert_trace_observes_only, read_log

N_CONFIGS = 8


def test_generated_configs_simulate_conserve_and_report(tmp_path, capsys):
    rng = random.Random(7)
    simulated = 0
    for i in range(N_CONFIGS):
        data = random_config(rng)
        config = tmp_path / f"config{i}.json"
        config.write_text(json.dumps(data))
        out = tmp_path / f"run{i}"
        valid = main(["validate-config", "--config", str(config)]) == 0
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        if not valid:
            assert code == 1, data
            continue
        assert code == 0, data
        simulated += 1
        log_path, metrics_path = out / "events.jsonl", out / "metrics.csv"
        assert_log_conserved(read_log(log_path.read_bytes())[1])
        capsys.readouterr()
        assert main(["report", "--log", str(log_path), "--metrics", str(metrics_path)]) == 0
        assert "metrics match the stored file" in capsys.readouterr().out
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        minute_ticks = stats["shifts_run"] * (data["shift"]["duration_min"] + 1)
        assert stats["seconds_visited"] <= minute_ticks + stats["heap_items"]
        assert_trace_observes_only(ScenarioConfig.from_dict(data))
    assert simulated >= N_CONFIGS // 2
