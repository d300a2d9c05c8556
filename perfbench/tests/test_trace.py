"""The traced run: spans add up, originals come back, ratios count what they claim."""

from dataclasses import replace

from perfbench import trace, workloads
from perfbench.run import timed_pass
from perfbench.trace import OP_SPAN, Tracer


def traced(ops):
    tracer = Tracer()
    tracer.install()
    try:
        timed_pass(ops, tracer)
    finally:
        tracer.uninstall()
    return tracer


def test_self_times_add_up_and_originals_are_restored():
    from qndsim import cli, metrics

    before = (cli.cmd_transfer, cli.build_qnd_gate, metrics.build_qnd_gate)
    ops = workloads.WORKLOADS["sweep"].make_ops(2, 6)
    tracer = traced(ops)
    assert (cli.cmd_transfer, cli.build_qnd_gate, metrics.build_qnd_gate) == before

    totals = tracer.layer_totals()
    wall = totals[OP_SPAN]["total_s"]
    assert abs(sum(t["self_s"] for t in totals.values()) - wall) <= 1e-9 * wall
    assert totals[OP_SPAN]["calls"] == 6
    assert sum(totals[f"cli.cmd_{c}"]["calls"] for c in workloads.SWEEP_COMMANDS) == 6
    assert totals["circuit.build_qnd_gate"]["calls"] == 6
    assert tracer.layer_metrics(1.0)["circuit.build_qnd_gate.repeat_params_ratio"][0] == 0.0


def test_untraced_calls_leave_no_spans():
    tracer = Tracer()
    tracer.install()
    try:
        (op,) = workloads.WORKLOADS["sweep"].make_ops(2, 1)
        workloads.run_op(op)
    finally:
        tracer.uninstall()
    assert len(tracer.span_name) == 0


def test_trajectory_generator_is_aggregated_and_redraws_counted():
    (op,) = workloads.trajectory_ops(7, 1)
    op.config.run = replace(op.config.run, n=50)
    tracer = traced([op])
    totals = tracer.layer_totals()
    # transfer runs 4 ensembles and conditional 1, all on the same 50 keys
    assert totals["ensemble.trajectory_generator"]["calls"] == 250
    assert totals["ensemble.run_ensemble"]["calls"] == 5
    layers = tracer.layer_metrics(1.0)
    assert layers["ensemble.duplicate_draw_ratio"][0] == 0.8
    assert layers["ensemble.trajectory_generator.per_requested_shot"][0] == 1.0
    assert layers["circuit.TrajectoryProgram.run_means.ns_per_shot"][2] == "250 shots"
    assert "ensemble.trajectory_generator" not in {tracer.names[i] for i in tracer.span_name}


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(trace.TRACED, "circuit", trace.TRACED["circuit"] + ("no_such_function",))
    tracer = traced(workloads.WORKLOADS["sweep"].make_ops(2, 1))
    assert tracer.absent == ["circuit.no_such_function"]
    assert "circuit.no_such_function.calls" not in tracer.layer_metrics(1.0)
