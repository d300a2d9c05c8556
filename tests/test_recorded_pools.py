"""Every point of the benchmark's recorded pools still reproduces.

The benchmark checks only the pool points a run happens to send; this test
sends all of them: each sweep point through all three covariance-mode
commands, each calibrate point through a ``reproduce-table`` fit.  Texts are
compared by digest and figures to the pool's tolerance, with the benchmark's
own ``perfbench.workloads`` functions, so a re-recorded pool is checked the
same way.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    return workloads


def _pool_failures(workloads, name: str, commands: tuple, figures) -> list:
    failures = []
    for index, entry in enumerate(workloads.load_pool(name)["points"]):
        config = workloads.scenario(entry["point"])
        op = workloads.Op(commands, entry["point"], config, index)
        texts = workloads.run_op(op)
        failures += workloads.check_against_pool(name, op, texts, figures(config, texts))
    return failures


def test_every_sweep_point_reproduces(workloads):
    pool = workloads.load_pool("sweep")
    assert len(pool["points"]) == 1024
    failures = _pool_failures(
        workloads,
        "sweep",
        workloads.SWEEP_COMMANDS,
        lambda config, texts: workloads.gate_figures(config),
    )
    assert failures == []


def test_every_calibrate_point_reproduces(workloads):
    pool = workloads.load_pool("calibrate")
    assert len(pool["points"]) == 96
    failures = _pool_failures(
        workloads,
        "calibrate",
        ("reproduce_table",),
        lambda config, texts: workloads.calibration_figures(config, texts[0]),
    )
    assert failures == []
