"""The comparison command's verdicts follow the rule in its docstring."""

import json

import pytest

from perfbench import compare
from perfbench.compare import quartiles, verdict


def paired(parent, change):
    return list(zip(parent, change))


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_is_improved():
    parent = [100.0 + k for k in range(10)]
    change = [120.0 + k for k in range(10)]
    result = verdict(parent, change, paired(parent, change), "higher", 0.1)
    assert result["verdict"] == "improved"
    assert (result["wins"], result["pairs"]) == (10, 10)


def test_gain_needs_ten_pairs():
    parent = [100.0 + k for k in range(9)]
    change = [120.0 + k for k in range(9)]
    assert verdict(parent, change, paired(parent, change), "higher", 0.1)["verdict"] == "no worse"


def test_gain_does_not_count_when_more_ops_fail():
    parent = [10.0 + 0.1 * k for k in range(10)]
    change = [5.0 + 0.1 * k for k in range(10)]
    result = verdict(parent, change, paired(parent, change), "lower", 0.1, 0, 1)
    assert result["verdict"] == "no worse"


def test_same_code_is_no_worse():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    change = [10.1, 10.0, 10.0, 9.9, 10.2, 10.0, 9.9, 10.1, 10.0, 10.2]
    assert verdict(parent, change, paired(parent, change), "lower", 0.1)["verdict"] == "no worse"


def test_worse_by_more_than_bound_is_regressed():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    change = [v * 1.3 for v in parent]
    assert verdict(parent, change, paired(parent, change), "lower", 0.1)["verdict"] == "regressed"


@pytest.mark.parametrize(
    "change, expected",
    [([12.0, 13.0, 14.0, 15.0], "unresolved"), ([1.0, 1.1, 1.2, 1.3], "no worse")],
)
def test_spread_wider_than_bound_is_unresolved_unless_every_run_is_better(change, expected):
    parent = [5.0, 10.0, 15.0, 20.0]
    assert verdict(parent, change, paired(parent, change), "lower", 0.1)["verdict"] == expected


def test_metric_without_bound_is_improved_or_unresolved():
    parent = [1.0] * 10
    assert verdict(parent, [1.0] * 10, paired(parent, parent), "lower", None)["verdict"] == "unresolved"


def test_command_prints_each_metric_and_workload(tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(
        json.dumps(
            {
                "end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "cli.cmd_transfer.calls", "unit": "count", "better": "lower"}],
            }
        )
    )

    def write(path, scale):
        with open(path, "w") as fh:
            for seed in range(1, 11):
                for workload in ("sweep", "calibrate"):
                    result = {
                        "correct": True, "attempted": 5, "failed": 0,
                        "metrics": {"latency_p50_ms": {"value": scale * (4.0 + 0.01 * seed), "unit": "ms"}},
                    }
                    fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0, "result": result}) + "\n")
            fh.write(json.dumps({"workload": "sweep", "seed": 99, "trace": 0, "error": ["crashed"]}) + "\n")

    write(tmp_path / "parent.jsonl", 1.0)
    write(tmp_path / "change.jsonl", 0.5)
    code = compare.main(
        [str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl"), "--benchmark", str(benchmark)]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 3
    assert all("latency_p50_ms" in l and l.endswith("improved") for l in lines[1:])
    assert {l.split()[1] for l in lines[1:]} == {"sweep", "calibrate"}
