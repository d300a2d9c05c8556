"""Command-line front end.

Subcommands mirror the three measurement series used to characterize the
gate plus the reference-table comparison and the oracle self-check:

* ``vacuum-spectra``   output quadrature variances for vacuum inputs
* ``transfer``         coherent-excitation routing and transfer coefficients
* ``conditional``      conditional-variance sweeps and the witness verdict
* ``reproduce-table``  simulated vs published values for G = 1.0 and 1.5
* ``oracle-check``     compiled-circuit vs analytic-relation equivalence

Covariance-mode output is deterministic and byte-identical across runs.
In trajectory mode ``transfer`` and ``conditional`` read every figure they
print, means, T_S and T_P, V_SP and the witness, from one seeded
vacuum-input ensemble; only the quadrature-map column that an excitation
adds to the means is exact.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import gaussian, metrics
from .circuit import (
    ORACLE_MATCH_TOL,
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    circuit_quadrature_map,
    oracle_error,
    run_covariance,
)
from .ensemble import run_ensemble
from .scenario import OutputSpec, ScenarioConfig, load_scenario

ORACLE_R_GRID = (0.1, 0.25, 0.381966011250105, 0.5, 0.75, 1.0)
ORACLE_DB_GRID = (0.0, -3.0, -5.0, -10.0, -60.0)


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _vacuum_output(config: ScenarioConfig, circuit) -> tuple:
    """The circuit's output mean and covariance for the two-mode vacuum input.

    Covariance mode propagates them; trajectory mode reads both from the
    ``run.n``-shot ensemble, whose sample moments ``run_ensemble`` draws from
    their exact law (Anderson, *An Introduction to Multivariate Statistical
    Analysis*, chs. 3 and 7) at a cost that does not grow with ``run.n``.
    ``transfer`` and ``conditional`` on one scenario make the same request,
    so ``run_ensemble``'s memo serves the second.
    """
    vacuum = gaussian.vacuum_state(2)
    if config.run.mode == "trajectories":
        out = run_ensemble(circuit, vacuum, config.run.n, config.run.master_seed)
    else:
        out = run_covariance(circuit, vacuum)
    return out.mean, out.cov


def cmd_vacuum_spectra(config: ScenarioConfig) -> str:
    csv_path = config.output.path  # checked non-empty by OutputSpec
    params = config.gate_params()
    circuit = build_qnd_gate(params, config.imperfections)
    rows = metrics.vacuum_noise_report(circuit, params)
    quads = ("x1", "p1", "x2", "p2")
    lines = [
        f"vacuum-input output spectra, G={params.gain:.4f} (R={params.R:.6f}), "
        f"squeezing {config.squeezing_dB_A:g}/{config.squeezing_dB_B:g} dB",
        f"{'family':>26} " + " ".join(f"{q + ' [dB]':>12}" for q in quads),
    ]
    for family, row in rows.items():
        lines.append(
            f"{family:>26} " + " ".join(f"{row[q]['dB']:>12.4f}" for q in quads)
        )
    if csv_path is not None:
        csv_rows = [
            [family, q, f"{row[q]['variance']:.9f}", f"{row[q]['dB']:.9f}"]
            for family, row in rows.items() for q in quads
        ]
        _write_csv(csv_path, ["family", "quadrature", "variance", "dB"], csv_rows)
    return "\n".join(lines)


# (case, excited input quadrature)
_EXCITATION_CASES = (("a", "x1"), ("b", "x2"), ("c", "p1"), ("d", "p2"))


def cmd_transfer(config: ScenarioConfig) -> str:
    csv_path = config.output.path  # checked non-empty by OutputSpec
    params = config.gate_params()
    circuit = build_qnd_gate(params, config.imperfections)
    amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
    quads = ("x1", "p1", "x2", "p2")
    lines = [
        f"coherent-excitation routing, G={params.gain:.4f}, "
        f"input amplitude {amplitude:g} (mean^2 = {amplitude**2:g} x shot)"
    ]
    csv_rows = []  # filled only when a CSV is written
    # one vacuum output and one map serve the four cases and both sectors:
    # exciting input quadrature j by amplitude adds amplitude times the map's
    # column j to the vacuum output mean and leaves the covariance alone
    vacuum_mean, cov = _vacuum_output(config, circuit)
    qmap = circuit_quadrature_map(circuit)
    for case, label in _EXCITATION_CASES:
        mean = vacuum_mean + amplitude * qmap.matrix[:, qmap.columns.index(f"{label}_in")]
        # snap float noise to zero so reports are stable across R/G round trips
        mean = np.where(np.abs(mean) < 1e-12, 0.0, mean)
        # covariance mode is exact; trajectory mode carries Monte Carlo noise
        floor = 1e-6 if config.run.mode == "covariance" else 0.1
        carried = [q for q, m in zip(quads, mean) if abs(m) > floor * amplitude]
        lines.append(
            f"({case}) excite {label}: output means "
            + " ".join(f"{q}={m:+.4f}" for q, m in zip(quads, mean))
            + f"  -> carried by {', '.join(carried) if carried else 'none'}"
        )
        if csv_path is not None:
            csv_rows.append([case, label] + [f"{m:.9f}" for m in mean])
    for sector in ("x", "p"):
        t_s, t_p = metrics.transfer_coefficients(qmap, cov, sector)
        lines.append(f"sector {sector}: T_S={t_s:.5f} T_P={t_p:.5f} T_sum={t_s + t_p:.5f}")
        if csv_path is not None:
            csv_rows.append([f"T_{sector}", "", f"{t_s:.9f}", f"{t_p:.9f}", f"{t_s + t_p:.9f}", ""])
    if csv_path is not None:
        _write_csv(
            csv_path,
            ["case", "excited", "mean_x1", "mean_p1", "mean_x2", "mean_p2"],
            csv_rows,
        )
    return "\n".join(lines)


def cmd_conditional(config: ScenarioConfig) -> str:
    csv_path = config.output.path  # checked non-empty by OutputSpec
    params = config.gate_params()
    circuit = build_qnd_gate(params, config.imperfections)
    _, cov = _vacuum_output(config, circuit)
    grid = config.run.g_grid()

    lines = [f"conditional-variance sweep, G={params.gain:.4f}"]
    optima = {}
    for sector in ("x", "p"):
        v, g_opt = optima[sector] = metrics.conditional_variance(cov, sector)
        lines.append(f"sector {sector}: V_SP={v:.5f} at g_opt={g_opt:.5f}")
    duan = metrics.duan_simon(cov, optima["x"][1], grid)
    lines.append(
        f"witness at g={duan.g:.5f}: sum={duan.combined_sum:.5f} vs bound={duan.bound:.5f}"
        f" -> {'entangled' if duan.entangled else 'not certified'}"
    )
    lines.append(
        f"scan over g: best margin {duan.scan_best_margin:+.5f} at g={duan.scan_best_g:.4f}"
        f" -> {'entangled' if duan.scan_entangled else 'not certified'}"
    )
    # the reference curves and the measured sweep go only into the CSV
    if csv_path is not None:
        csv_rows = []
        for sector in ("x", "p"):
            refs = metrics.reference_sweeps(params, sector, grid)
            measured = metrics.cv_sweep(cov, sector, grid)
            for g, m, ci, cii, ciii, bound in zip(
                grid, measured, refs.ideal, refs.finite_squeezing, refs.vacuum_ancilla,
                refs.witness_bound,
            ):
                csv_rows.append(
                    [
                        sector,
                        f"{g:.4f}",
                        f"{m:.9f}",
                        f"{gaussian.variance_to_db(m):.9f}",
                        f"{ci:.9f}",
                        f"{cii:.9f}",
                        f"{ciii:.9f}",
                        f"{bound:.9f}",
                    ]
                )
        _write_csv(
            csv_path,
            ["sector", "g", "simulated", "simulated_dB", "ideal", "finite_squeezing",
             "vacuum_ancilla", "witness_bound_per_sector"],
            csv_rows,
        )
    return "\n".join(lines)


def cmd_reproduce_table(config: ScenarioConfig, fit: bool = True) -> str:
    csv_path = config.output.path  # checked non-empty by OutputSpec
    base = config.imperfections
    if fit:
        comparison = metrics.fit_extra_in_loop_loss(base, squeezing_db=config.squeezing_dB_A)
    else:
        comparison = metrics.compare_to_reference(base, squeezing_db=config.squeezing_dB_A)

    lines = ["simulated vs published gate characterization"]
    if comparison.fitted:
        lines.append(
            f"fitted extra in-loop loss: {comparison.extra_in_loop_loss:.4f} "
            f"(single calibration knob, grid search)"
        )
    else:
        lines.append("no calibration fit applied")
    lines.append(
        f"objective (sum of squared deviations in bar units): {comparison.objective:.3f}"
    )

    header = f"{'G':>4} {'metric':>6} {'sector':>6} {'simulated':>10} {'published':>12} {'band(2x)':>16} {'verdict':>8} {'resid/bar':>10}"
    lines.append(header)
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
    # lossless comparison row demonstrating that losses are required
    params = metrics._reference_params(1.0, config.squeezing_dB_A)
    lossless = metrics.evaluate_gate(build_qnd_gate(params, ImperfectionModel.ideal()), params)
    t_sum = next(
        c for c in metrics._banded(1.0, lossless.sectors) if (c.metric, c.sector) == ("T_sum", "x")
    )
    lines.append(
        f"lossless reference: T_sum(G=1.0)={t_sum.simulated:.5f} "
        f"({'out-of-band high' if t_sum.simulated > t_sum.high else 'in band'}; "
        "imperfections are required to match)"
    )
    if csv_path is not None:
        csv_rows = [
            [f"{c.gain:.1f}", c.metric, c.sector, f"{c.simulated:.9f}", f"{c.reference:.2f}",
             f"{c.bar:.2f}", verdict, f"{c.residual_bars:.4f}"]
            for c, verdict in zip(comparison.checks, verdicts)
        ]
        _write_csv(
            csv_path,
            ["G", "metric", "sector", "simulated", "published", "bar", "verdict",
             "residual_bars"],
            csv_rows,
        )
    return "\n".join(lines)


def cmd_oracle_check() -> str:
    """Equivalence of the compiled lossless circuit and the analytic relations."""
    worst = 0.0
    worst_case = None
    for R in ORACLE_R_GRID:
        for db in ORACLE_DB_GRID:
            err = oracle_error(GateParams(R, squeezing_db_a=db, squeezing_db_b=db))
            if err > worst:
                worst, worst_case = err, (R, db)
    lines = [
        f"oracle equivalence over {len(ORACLE_R_GRID)} x {len(ORACLE_DB_GRID)} grid points",
        f"max coefficient error: {worst:.3e}"
        + (f" at R={worst_case[0]:g}, {worst_case[1]:g} dB" if worst_case else ""),
        "PASS" if worst <= ORACLE_MATCH_TOL else "FAIL",
    ]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Simulate and characterize the offline-squeezed QND sum gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("vacuum-spectra", "transfer", "conditional", "reproduce-table"):
        p = sub.add_parser(name)
        # flags a subcommand does not declare read as unset
        p.set_defaults(gain=None, reflectivity=None, trajectories=None, seed=None)
        p.add_argument("--config", help="scenario JSON file")
        # reproduce-table always runs the two reference gains
        if name != "reproduce-table":
            group = p.add_mutually_exclusive_group()
            group.add_argument("--gain", type=float, help="interaction gain G")
            group.add_argument("--reflectivity", type=float, help="beam-splitter parameter R")
        p.add_argument(
            "--squeezing-db", type=float, help="ancilla squeezing in dB (both ancillas)"
        )
        p.add_argument(
            "--no-imperfections", action="store_true", help="disable every imperfection"
        )
        if name in ("transfer", "conditional"):
            p.add_argument(
                "--trajectories", type=int, metavar="N",
                help="run N stochastic trajectories instead of covariance propagation",
            )
            p.add_argument("--seed", type=int, help="master seed for trajectory mode")
        p.add_argument("--csv", metavar="PATH", help="also write CSV output to PATH")
        if name == "reproduce-table":
            p.add_argument(
                "--no-fit", action="store_true",
                help="skip the single-knob in-loop loss calibration",
            )
    sub.add_parser("oracle-check")
    return parser


def _config_from_args(args) -> ScenarioConfig:
    if args.config:
        config = load_scenario(args.config)
    else:
        config = ScenarioConfig()
    # replace() re-runs the scenario's and RunSpec's checks on the flag values
    if args.reflectivity is not None:
        config = replace(config, gate_R=args.reflectivity, gate_G=None)
    elif args.gain is not None:
        config = replace(config, gate_R=None, gate_G=args.gain)
    if args.squeezing_db is not None:
        config = replace(
            config, squeezing_dB_A=args.squeezing_db, squeezing_dB_B=args.squeezing_db
        )
    if args.no_imperfections:
        config.imperfections = ImperfectionModel.ideal()
    if args.trajectories is not None:
        config.run = replace(config.run, mode="trajectories", n=args.trajectories)
    if args.seed is not None:
        config.run = replace(config.run, master_seed=args.seed)
    if args.csv is not None:
        config.output = OutputSpec(args.csv)
    return config


def _reject_ignored(command: str, config: ScenarioConfig, fit: bool) -> None:
    """Raise for scenario values that ``command`` would otherwise ignore.

    A part of the scenario the command does not read must equal that part
    of ``ScenarioConfig()``.  ``fit`` says that ``reproduce-table`` fits the
    calibration knob, and so overwrites the scenario's.
    """
    default = ScenarioConfig()

    def reject(section: str, why: str):
        raise ValueError(f"{command} ignores the scenario's {section} section: {why}")

    if command in ("vacuum-spectra", "reproduce-table") and config.run != default.run:
        reject("run", "it propagates covariances once and sweeps no rescaling gain g")
    # the grid's fields, not its points: transfer builds no grid to reject one
    grid = (config.run.g_min, config.run.g_max, config.run.g_step)
    if command == "transfer" and grid != (default.run.g_min, default.run.g_max, default.run.g_step):
        reject("run", "only conditional sweeps the rescaling gain g")
    ensemble = (config.run.n, config.run.master_seed)
    if config.run.mode == "covariance" and ensemble != (default.run.n, default.run.master_seed):
        reject("run", "in covariance mode it runs no ensemble, so n and master_seed go unread")
    if command == "reproduce-table":
        if (config.gate_R, config.gate_G) != (default.gate_R, default.gate_G):
            reject("gate", "it always runs the reference gains 1.0 and 1.5")
        if config.squeezing_dB_B != config.squeezing_dB_A:
            reject("gate", "it gives both ancillas squeezing_dB_A")
        if fit and config.imperfections.extra_in_loop_loss != 0.0:
            reject("imperfections", "the fit overwrites extra_in_loop_loss; --no-fit runs it")


def _command_output(args) -> tuple:
    """The subcommand's stdout text and exit status."""
    if args.command == "oracle-check":
        text = cmd_oracle_check()
        return text, 0 if text.endswith("PASS") else 1
    config = _config_from_args(args)
    fit = args.command == "reproduce-table" and not args.no_fit
    _reject_ignored(args.command, config, fit)
    if args.command == "vacuum-spectra":
        return cmd_vacuum_spectra(config), 0
    if args.command == "transfer":
        return cmd_transfer(config), 0
    if args.command == "conditional":
        return cmd_conditional(config), 0
    return cmd_reproduce_table(config, fit=fit), 0


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
