"""Output checks: correct outputs pass, and any wrong or raised output is a failed op."""

from dataclasses import replace

import pytest

from perfbench import workloads
from perfbench.run import failures_of, latency_tail, timed_pass
from perfbench.workloads import WORKLOADS, Op, check_against_pool, scenario


def small_trajectory_op(seed: int = 7, n: int = 2000) -> Op:
    (op,) = workloads.trajectory_ops(seed, 1)
    op.config.run = replace(op.config.run, n=n)
    return op


def test_same_seed_gives_same_ops_without_repeated_gates():
    first = [op.spec() for op in workloads.sweep_ops(3, 200)]
    again = [op.spec() for op in workloads.sweep_ops(3, 200)]
    other = [op.spec() for op in workloads.sweep_ops(4, 200)]
    assert first == again
    assert first != other
    gates = {(s["point"]["G"], *s["point"]["sqz"]) for s in first}
    assert len(gates) == len(first)
    assert {tuple(s["commands"]) for s in first} == {(c,) for c in workloads.SWEEP_COMMANDS}


def test_op_spec_round_trips_for_a_fresh_interpreter():
    (op,) = workloads.trajectory_ops(11, 1)
    rebuilt = Op.from_spec(op.spec())
    assert rebuilt.config == op.config
    assert rebuilt.commands == op.commands


@pytest.mark.parametrize("name", ["sweep", "calibrate"])
def test_recorded_outputs_pass(name):
    workload = WORKLOADS[name]
    ops = workload.make_ops(5, 3)
    outputs = timed_pass(ops)["outputs"]
    assert failures_of(workload, ops, outputs) == [[], [], []]


def test_corrupted_output_counts_as_failed_op(monkeypatch):
    from qndsim import cli

    original = cli.cmd_transfer
    monkeypatch.setattr(cli, "cmd_transfer", lambda config, **kw: original(config, **kw) + " ")
    workload = WORKLOADS["sweep"]
    ops = workload.make_ops(5, 6)
    failures = failures_of(workload, ops, timed_pass(ops)["outputs"])
    failed = [op.commands for op, f in zip(ops, failures) if f]
    assert failed == [("transfer",), ("transfer",)]


def test_raising_op_counts_as_failed_op(monkeypatch):
    from qndsim import cli

    def broken(config, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli, "cmd_vacuum_spectra", broken)
    workload = WORKLOADS["sweep"]
    ops = workload.make_ops(5, 3)
    failures = failures_of(workload, ops, timed_pass(ops)["outputs"])
    assert sum(1 for f in failures if f) == 1
    assert any("raised RuntimeError" in m for f in failures for m in f)


def test_figures_are_held_to_1e9():
    (op,) = WORKLOADS["sweep"].make_ops(5, 1)
    pool = workloads.load_pool("sweep")
    want = dict(zip(pool["figures"], pool["points"][op.ref]["figures"]))
    texts = workloads.run_op(op)
    assert check_against_pool("sweep", op, texts, {k: v + 5e-10 for k, v in want.items()}) == []
    shifted = {k: v + (2e-9 if k == "V_SP.p" else 0.0) for k, v in want.items()}
    (failure,) = check_against_pool("sweep", op, texts, shifted)
    assert "V_SP.p" in failure


def test_trajectory_outputs_are_checked_against_the_covariance_executor():
    op = small_trajectory_op()
    transfer, conditional = workloads.run_op(op)
    assert workloads.check_trajectories(op, [transfer, conditional]) == []

    # one printed mean moved by about 45 standard errors
    line = next(l for l in transfer.splitlines() if l.startswith("(a)"))
    value = line.split("x1=")[1].split()[0]
    moved = transfer.replace(f"x1={value}", f"x1={float(value) + 1.0:+.4f}", 1)
    (failure,) = workloads.check_trajectories(op, [moved, conditional])
    assert "excite x1: mean x1" in failure

    vsp = conditional.split("sector p: V_SP=")[1].split()[0]
    bad = conditional.replace(f"sector p: V_SP={vsp}", f"sector p: V_SP={float(vsp) * 1.5:.5f}")
    (failure,) = workloads.check_trajectories(op, [transfer, bad])
    assert "V_SP[p]" in failure


def test_trajectory_check_rejects_missing_rows():
    op = small_trajectory_op()
    failures = workloads.check_trajectories(op, ["", ""])
    assert len(failures) == 3


def test_latency_tail_keeps_ten_samples_beyond():
    assert latency_tail(list(range(1000))) == (99.0, 989)
    assert latency_tail(list(range(40)))[0] == 75.0
    assert latency_tail(list(range(10))) is None


def test_scenario_builds_every_budget_kind():
    ideal = scenario({"G": 1.0, "sqz": [-5.0, -3.0], "budget": "ideal"})
    assert ideal.imperfections.dark_variance == 0.0
    measured = scenario(
        {"G": 1.0, "sqz": [-5.0, -3.0], "budget": [0.05, 0.99, 0.98, 17.0, 0.01, 0.0, 0.0, "in_arms"]},
        "trajectories",
        42,
    )
    assert measured.imperfections.loss_placement == "in_arms"
    assert (measured.run.n, measured.run.master_seed) == (workloads.TRAJECTORY_SHOTS, 42)
