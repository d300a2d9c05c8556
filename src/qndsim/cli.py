"""Command-line front end.

Subcommands mirror the three measurement series used to characterize the
gate plus the reference-table comparison and the oracle self-check:

* ``vacuum-spectra``   output quadrature variances for vacuum inputs
* ``transfer``         coherent-excitation routing and transfer coefficients
* ``conditional``      conditional-variance sweeps and the witness verdict
* ``reproduce-table``  simulated vs published values for G = 1.0 and 1.5
* ``oracle-check``     compiled-circuit vs analytic-relation equivalence

``_READS`` is the one place that declares what each subcommand reads of a
scenario; its flags and the rejection of values it leaves unread derive from
it.  Each subcommand computes one result, the figures it prints or writes, and
renders it as stdout lines and lazy CSV rows, which ``_emit`` writes only for
a scenario with an ``output.path``; ``oracle-check`` exits on its verdict.
``transfer`` and ``conditional`` render the ``metrics.evaluate_gate``
``QndReport`` of their vacuum output, the result ``reproduce-table`` reads too;
``transfer`` adds its four excitation cases.

Covariance-mode output is deterministic and byte-identical across runs.
In trajectory mode ``transfer`` and ``conditional`` read every figure they
print, means, T_S and T_P, V_SP and the witness, from one seeded
vacuum-input ensemble; only the quadrature-map column that an excitation
adds to the means is exact.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import gaussian, metrics
from .circuit import (
    ORACLE_MATCH_TOL,
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    oracle_error,
    run_covariance,
)
from .ensemble import run_ensemble
from .scenario import MIN_SQUEEZING_DB, OutputSpec, ScenarioConfig, load_scenario

ORACLE_R_GRID = (0.1, 0.25, 0.381966011250105, 0.5, 0.75, 1.0)
ORACLE_DB_GRID = (0.0, -3.0, -5.0, -10.0, MIN_SQUEEZING_DB)
_QUADS = ("x1", "p1", "x2", "p2")


def _emit(config: ScenarioConfig, lines, header: str, csv_rows) -> str:
    """Join ``lines`` into stdout text; write ``header`` and the lazy ``csv_rows``
    (one line each) to ``output.path`` only when the scenario names one."""
    if config.output.path is not None:
        text = "\n".join([header, *csv_rows]) + "\n"
        with open(config.output.path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return "\n".join(lines)


def _vacuum_output(config: ScenarioConfig, circuit) -> tuple:
    """The circuit's output mean and covariance for the two-mode vacuum input.

    Covariance mode propagates them; trajectory mode reads both from the
    ``run.n``-shot ensemble, whose sample moments ``run_ensemble`` draws from
    their exact law (Anderson, *An Introduction to Multivariate Statistical
    Analysis*, chs. 3 and 7) at a cost that does not grow with ``run.n``.
    ``circuit`` is the one ``build_qnd_gate`` gives for the scenario's gate
    and budget, and ``compile_trajectory`` checks its input-mode count.
    """
    if config.run.mode == "covariance":
        out = run_covariance(circuit, metrics._VACUUM_INPUT)
    else:
        out = _vacuum_ensemble(circuit, config.run.n, config.run.master_seed)
    return out.mean, out.cov


@functools.lru_cache(maxsize=4)
def _vacuum_ensemble(circuit, n, master_seed):
    """The vacuum-input ensemble of one circuit, ``n`` and seed, drawn once.

    ``transfer`` then ``conditional`` on one scenario share it.  Circuits
    compare 0.0 equal to -0.0, and both signs lower to the same matrix bytes,
    so equal circuits draw equal ensembles; the result's arrays are read-only.
    """
    return run_ensemble(circuit, metrics._VACUUM_INPUT, n, master_seed)


def cmd_vacuum_spectra(config: ScenarioConfig) -> str:
    params = config.gate_params()
    rows = metrics.vacuum_noise_report(build_qnd_gate(params, config.imperfections), params)
    return _emit(config, *_spectra_views(params, rows))


def _spectra_views(params: GateParams, rows: dict) -> tuple:
    lines = [
        f"vacuum-input output spectra, G={params.gain:.4f} (R={params.R:.6f}), "
        f"squeezing {params.squeezing_db_a:g}/{params.squeezing_db_b:g} dB",
        f"{'family':>26} " + " ".join(f"{q + ' [dB]':>12}" for q in _QUADS),
    ]
    lines += [
        f"{family:>26} " + " ".join(f"{row[q]['dB']:>12.4f}" for q in _QUADS)
        for family, row in rows.items()
    ]
    csv_rows = (
        f"{family},{q},{row[q]['variance']:.9f},{row[q]['dB']:.9f}"
        for family, row in rows.items() for q in _QUADS
    )
    return lines, "family,quadrature,variance,dB", csv_rows


# (case, excited input quadrature)
_EXCITATION_CASES = (("a", "x1"), ("b", "x2"), ("c", "p1"), ("d", "p2"))


class _Transfer(NamedTuple):
    report: metrics.QndReport
    cases: tuple         # per case: (case, excited input, output means, carrying quadratures)


def cmd_transfer(config: ScenarioConfig) -> str:
    return _emit(config, *_transfer_views(_transfer(config)))


def _transfer(config: ScenarioConfig) -> _Transfer:
    params = config.gate_params()
    circuit = build_qnd_gate(params, config.imperfections)
    amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
    # one vacuum output serves the four cases and both sectors: exciting input
    # quadrature j by amplitude adds amplitude times column j of the output rows
    # (the quadrature map) to the vacuum output mean and leaves the covariance alone
    vacuum_mean, cov = _vacuum_output(config, circuit)
    # covariance mode is exact; trajectory mode carries Monte Carlo noise
    floor = 1e-6 if config.run.mode == "covariance" else 0.1
    columns = [circuit.columns.index(f"{label}_in") for _, label in _EXCITATION_CASES]
    means = vacuum_mean + amplitude * circuit.matrix[:4, columns].T  # one row per case
    # snap float noise to zero, so that no zero mean prints as -0.0000
    means = np.where(np.abs(means) < 1e-12, 0.0, means).tolist()
    cases = tuple(
        (case, label, mean, tuple(q for q, m in zip(_QUADS, mean) if abs(m) > floor * amplitude))
        for (case, label), mean in zip(_EXCITATION_CASES, means)
    )
    return _Transfer(metrics.evaluate_gate(circuit, params, cov), cases)


def _transfer_views(result: _Transfer) -> tuple:
    amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
    lines = [
        f"coherent-excitation routing, G={result.report.params.gain:.4f}, "
        f"input amplitude {amplitude:g} (mean^2 = {amplitude**2:g} x shot)"
    ]
    lines += [
        f"({case}) excite {label}: output means x1={x1:+.4f} p1={p1:+.4f} x2={x2:+.4f} p2={p2:+.4f}"
        f"  -> carried by {', '.join(carried) if carried else 'none'}"
        for case, label, (x1, p1, x2, p2), carried in result.cases
    ]
    sectors = result.report.sectors.items()
    lines += [f"sector {s}: T_S={m.t_signal:.5f} T_P={m.t_probe:.5f} T_sum={m.t_sum:.5f}" for s, m in sectors]
    csv_rows = itertools.chain(
        (f"{case},{label},{x1:.9f},{p1:.9f},{x2:.9f},{p2:.9f}" for case, label, (x1, p1, x2, p2), _ in result.cases),
        (f"T_{s},,{m.t_signal:.9f},{m.t_probe:.9f},{m.t_sum:.9f}," for s, m in sectors),
    )
    return lines, "case,excited,mean_x1,mean_p1,mean_x2,mean_p2", csv_rows


def cmd_conditional(config: ScenarioConfig) -> str:
    return _emit(config, *_conditional_views(_conditional(config)))


def _conditional(config: ScenarioConfig) -> metrics.QndReport:
    params = config.gate_params()
    circuit = build_qnd_gate(params, config.imperfections)
    _, cov = _vacuum_output(config, circuit)
    return metrics.evaluate_gate(circuit, params, cov, config.run.g_grid())


def _conditional_views(report: metrics.QndReport) -> tuple:
    duan = report.duan
    lines = [f"conditional-variance sweep, G={report.params.gain:.4f}"]
    lines += [f"sector {s}: V_SP={m.v_conditional:.5f} at g_opt={m.g_opt:.5f}" for s, m in report.sectors.items()]
    lines += [
        f"witness at g={duan.g:.5f}: sum={duan.combined_sum:.5f} vs bound={duan.bound:.5f}"
        f" -> {'entangled' if duan.entangled else 'not certified'}",
        f"scan over g: best margin {duan.scan_best_margin:+.5f} at g={duan.scan_best_g:.4f}"
        f" -> {'entangled' if duan.scan_entangled else 'not certified'}",
    ]
    header = ("sector,g,simulated,simulated_dB,ideal,finite_squeezing,vacuum_ancilla,"
              "witness_bound_per_sector")
    return lines, header, _conditional_rows(report)


def _conditional_rows(report: metrics.QndReport):
    """The measured sweep and the three lossless reference curves, which only the CSV shows."""
    grid = report.g_grid
    for sector, refs in metrics.reference_sweeps(report.params, grid).items():
        measured = metrics.cv_sweep(report.cov, sector, grid)
        columns = (grid, measured, gaussian.variance_to_db(measured), refs.ideal,
                   refs.finite_squeezing, refs.vacuum_ancilla, refs.witness_bound)
        for g, m, db, ci, cii, ciii, bound in zip(*(column.tolist() for column in columns)):
            yield f"{sector},{g:.4f},{m:.9f},{db:.9f},{ci:.9f},{cii:.9f},{ciii:.9f},{bound:.9f}"


def cmd_reproduce_table(config: ScenarioConfig, fit: bool = True) -> str:
    table = metrics.fit_extra_in_loop_loss if fit else metrics.compare_to_reference
    comparison = table(config.imperfections, squeezing_db=config.squeezing_dB_A)
    return _emit(config, *_table_views(comparison))


def _table_views(comparison: metrics.TableComparison) -> tuple:
    lines = [
        "simulated vs published gate characterization",
        f"fitted extra in-loop loss: {comparison.extra_in_loop_loss:.4f} "
        "(single calibration knob, grid search)" if comparison.fitted else "no calibration fit applied",
        f"objective (sum of squared deviations in bar units): {comparison.objective:.3f}",
        f"{'G':>4} {'metric':>6} {'sector':>6} {'simulated':>10} {'published':>12} {'band(2x)':>16} {'verdict':>8} {'resid/bar':>10}",
    ]
    verdicts = ["PASS" if check.within else "FAIL" for check in comparison.checks]
    for check, verdict in zip(comparison.checks, verdicts):
        lines.append(
            f"{check.gain:>4.1f} {check.metric:>6} {check.sector:>6} "
            f"{check.simulated:>10.5f} {check.reference:>7.2f}±{check.bar:<4.2f}"
            f" [{check.low:>6.3f},{check.high:>6.3f}] {verdict:>8} {check.residual_bars:>10.2f}"
        )
    # full per-sector metric listing, including the non-banded T_S and T_P
    for gain, report in comparison.reports.items():
        targets = metrics.REFERENCE_TABLE[gain]
        for sector in ("x", "p"):
            m = report.sectors[sector]
            lines.append(
                f"G={gain:.1f} {sector}: T_S={m.t_signal:.5f} (pub {targets['T_S'][sector][0]:.2f}) "
                f"T_P={m.t_probe:.5f} (pub {targets['T_P'][sector][0]:.2f}) "
                f"T_sum={m.t_sum:.5f} V_SP={m.v_conditional:.5f}"
            )
    misses = comparison.out_of_band()
    if misses:
        lines.append(
            f"{len(misses)}/{len(comparison.checks)} banded values outside 2x bars; "
            "residuals are reported above (a symmetric model cannot reproduce the "
            "published x/p asymmetry)"
        )
    # the lossless reference, read off the gate's relations, shows that losses are required
    t_sum = comparison.lossless
    lines.append(
        f"lossless reference: T_sum(G=1.0)={t_sum.simulated:.5f} "
        f"({'out-of-band high' if t_sum.simulated > t_sum.high else 'in band'}; "
        "imperfections are required to match)"
    )
    csv_rows = (
        f"{c.gain:.1f},{c.metric},{c.sector},{c.simulated:.9f},{c.reference:.2f},{c.bar:.2f},"
        f"{verdict},{c.residual_bars:.4f}"
        for c, verdict in zip(comparison.checks, verdicts)
    )
    return lines, "G,metric,sector,simulated,published,bar,verdict,residual_bars", csv_rows


class _Oracle(NamedTuple):
    worst: float         # the largest coefficient error over the grid; NaN beats any number
    worst_case: tuple    # its (R, dB), or None
    passed: bool


def _oracle_check() -> _Oracle:
    worst = 0.0
    worst_case = None
    for R in ORACLE_R_GRID:
        for db in ORACLE_DB_GRID:
            err = oracle_error(GateParams(R, squeezing_db_a=db, squeezing_db_b=db))
            # a NaN is worse than any number, and the first one is named
            if err > worst or (np.isnan(err) and not np.isnan(worst)):
                worst, worst_case = err, (R, db)
    # written so that a NaN error fails too
    return _Oracle(worst, worst_case, worst <= ORACLE_MATCH_TOL)


def _oracle_text(result: _Oracle) -> str:
    case = result.worst_case
    return "\n".join([
        f"oracle equivalence over {len(ORACLE_R_GRID)} x {len(ORACLE_DB_GRID)} grid points",
        f"max coefficient error: {result.worst:.3e}"
        + (f" at R={case[0]:g}, {case[1]:g} dB" if case else ""),
        "PASS" if result.passed else "FAIL",
    ])


# what each subcommand reads of a scenario beyond squeezing_dB_A, the budget
# and output.path: "gate" is G and squeezing_dB_B, "ensemble" is run.mode,
# n and master_seed, and "g_grid" is the rescaling gains' grid
_READS = {
    "vacuum-spectra": ("gate",),
    "transfer": ("gate", "ensemble"),
    "conditional": ("gate", "ensemble", "g_grid"),
    "reproduce-table": (),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Simulate and characterize the offline-squeezed QND sum gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, reads in _READS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario JSON file")
        if "gate" in reads:
            p.add_argument("--gain", type=float, help="interaction gain G")
        p.add_argument("--squeezing-db", type=float, help="ancilla squeezing in dB (both ancillas)")
        p.add_argument("--no-imperfections", action="store_true", help="disable every imperfection")
        if "ensemble" in reads:
            p.add_argument(
                "--trajectories", type=int, metavar="N",
                help="run N stochastic trajectories instead of covariance propagation",
            )
            p.add_argument("--seed", type=int, help="master seed for trajectory mode")
        p.add_argument("--csv", metavar="PATH", help="also write CSV output to PATH")
        if name == "reproduce-table":
            p.add_argument(
                "--no-fit", action="store_true", help="skip the single-knob in-loop loss calibration"
            )
    sub.add_parser("oracle-check")
    return parser


def _config_from_args(args) -> ScenarioConfig:
    reads = _READS[args.command]
    config = load_scenario(args.config) if args.config else ScenarioConfig()
    # every flag goes through replace(), which re-runs the scenario's and RunSpec's checks
    if "gate" in reads and args.gain is not None:
        config = replace(config, gate_G=args.gain)
    if args.squeezing_db is not None:
        config = replace(config, squeezing_dB_A=args.squeezing_db, squeezing_dB_B=args.squeezing_db)
    if args.no_imperfections:
        config = replace(config, imperfections=ImperfectionModel.ideal())
    if "ensemble" in reads and args.trajectories is not None:
        config = replace(config, run=replace(config.run, mode="trajectories", n=args.trajectories))
    if "ensemble" in reads and args.seed is not None:
        config = replace(config, run=replace(config.run, master_seed=args.seed))
    if args.csv is not None:
        config = replace(config, output=OutputSpec(args.csv))
    return config


def _reject_ignored(command: str, config: ScenarioConfig, fit: bool) -> None:
    """Raise for scenario values that ``command`` would otherwise ignore.

    A part of the scenario the command does not read, by ``_READS``, must equal
    that part of ``ScenarioConfig()``.  ``fit`` says that ``reproduce-table`` fits
    the calibration knob, and so overwrites the scenario's.
    """
    default = ScenarioConfig()
    run, base, reads = config.run, default.run, _READS[command]

    def reject(section: str, why: str):
        raise ValueError(f"{command} ignores the scenario's {section} section: {why}")

    # the grid's fields, not its points: transfer builds no grid to reject one
    changed = {"ensemble": (run.mode, run.n, run.master_seed) != (base.mode, base.n, base.master_seed),
               "g_grid": (run.g_min, run.g_max, run.g_step) != (base.g_min, base.g_max, base.g_step)}
    if any(changed[part] for part in changed.keys() - reads):
        reject("run", "only conditional sweeps the rescaling gain g" if "ensemble" in reads
               else "it propagates covariances once and sweeps no rescaling gain g")
    if run.mode == "covariance" and (run.n, run.master_seed) != (base.n, base.master_seed):
        reject("run", "in covariance mode it runs no ensemble, so n and master_seed go unread")
    if "gate" not in reads:
        if config.gate_G != default.gate_G:
            reject("gate", "it always runs the reference gains 1.0 and 1.5")
        if config.squeezing_dB_B != config.squeezing_dB_A:
            reject("gate", "it gives both ancillas squeezing_dB_A")
    if fit and config.imperfections.extra_in_loop_loss != 0.0:
        reject("imperfections", "the fit overwrites extra_in_loop_loss; --no-fit runs it")


def _command_output(args) -> tuple:
    """The subcommand's stdout text and exit status."""
    if args.command == "oracle-check":
        result = _oracle_check()
        return _oracle_text(result), 0 if result.passed else 1
    config = _config_from_args(args)
    fit = args.command == "reproduce-table" and not args.no_fit
    _reject_ignored(args.command, config, fit)
    if args.command == "reproduce-table":
        return cmd_reproduce_table(config, fit=fit), 0
    run = {"vacuum-spectra": cmd_vacuum_spectra, "transfer": cmd_transfer, "conditional": cmd_conditional}
    return run[args.command](config), 0


def main(argv=None) -> int:
    text, status = _command_output(build_parser().parse_args(argv))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe (``qndsim ... | head``): point stdout at
        # devnull so the interpreter's final flush does not raise again
        # (the SIGPIPE note in the Python docs of the ``signal`` module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
