"""Acceptance suite: one test per release criterion, with pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from qndsim import gaussian
from qndsim.circuit import (
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    circuit_quadrature_map,
    gain_from_reflectivity,
    reflectivity_from_gain,
    run_covariance,
)
from qndsim.cli import cmd_reproduce_table
from qndsim.ensemble import run_ensemble, z_score_report
from qndsim.gaussian import vacuum_state
from qndsim import metrics
from qndsim.quadexpr import (
    finite_squeezing_map,
    ideal_qnd_map,
    max_coefficient_difference,
)
from qndsim.scenario import ScenarioConfig

from physicality import run_covariance_checked, symplectic_defect

R_GRID = (0.1, 0.25, 0.3819660112501051, 0.5, 0.75, 1.0)
DB_GRID = (0.0, -3.0, -5.0, -10.0, -60.0)


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_oracle_equivalence():
    """Compiled lossless circuit matches the analytic relations to 1e-9."""
    start = time.perf_counter()
    worst = 0.0
    for R in R_GRID:
        for db in DB_GRID:
            params = GateParams(R, squeezing_db_a=db, squeezing_db_b=db)
            circuit = build_qnd_gate(params, ImperfectionModel.ideal())
            got = circuit_quadrature_map(circuit)
            want = finite_squeezing_map(R, params.r_a, params.r_b)
            worst = max(worst, max_coefficient_difference(got, want))
    elapsed = time.perf_counter() - start
    report(
        "1 (oracle equivalence)",
        worst < 1e-9 and elapsed < 1.0,
        f"max coefficient error {worst:.2e} over {len(R_GRID) * len(DB_GRID)} points, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_ideal_limit():
    """-60 dB ancillas reproduce the ideal relations to 1e-3."""
    start = time.perf_counter()
    params = GateParams.from_gain(1.0, squeezing_db_a=-60.0, squeezing_db_b=-60.0)
    circuit = build_qnd_gate(params, ImperfectionModel.ideal())
    err = max_coefficient_difference(circuit_quadrature_map(circuit), ideal_qnd_map(1.0))
    out = run_covariance(circuit, vacuum_state(2))
    var_ok = (
        abs(out.cov[0, 0] - 1.0) < 1e-3  # x1 preserved
        and abs(out.cov[3, 3] - 1.0) < 1e-3  # p2 preserved
        and abs(out.cov[2, 2] - 2.0) < 1e-3
    )
    elapsed = time.perf_counter() - start
    report(
        "2 (ideal limit)",
        err < 1e-3 and var_ok and elapsed < 1.0,
        f"coefficient error {err:.2e}, Var(x1)={out.cov[0, 0]:.6f}, "
        f"Var(x2)={out.cov[2, 2]:.6f}, {elapsed:.2f}s",
    )


def test_criterion_3_gain_parametrization():
    r_15 = reflectivity_from_gain(1.5)
    g_back = gain_from_reflectivity(0.381966)
    ok = abs(r_15 - 0.25) < 1e-12 and abs(g_back - 1.0) < 1e-6
    report(
        "3 (gain parametrization)",
        ok,
        f"R(G=1.5)={r_15!r}, G(R=0.381966)={g_back:.9f}",
    )


def test_criterion_4_lossless_benchmarks():
    params = GateParams.from_gain(1.0)
    circuit = build_qnd_gate(params, ImperfectionModel.ideal())
    out = run_covariance(circuit, vacuum_state(2))
    t_s, t_p = metrics.transfer_coefficients(circuit_quadrature_map(circuit), out.cov, "x")
    v, g_opt = metrics.conditional_variance(out.cov, "x")

    params_15 = GateParams.from_gain(1.5)
    circuit_15 = build_qnd_gate(params_15, ImperfectionModel.ideal())
    v_15, _ = metrics.conditional_variance(
        run_covariance(circuit_15, vacuum_state(2)).cov, "x"
    )

    checks = [
        abs(out.cov[0, 0] - 1.14142) < 1e-5,
        abs(t_s - 0.87611) < 1e-5,
        abs(t_p - 0.48685) < 1e-5,
        abs(v - 0.73595) < 1e-5,
        abs(g_opt - 0.44430) < 1e-4,
        abs(v_15 - 0.59097) < 1e-5,
    ]
    report(
        "4 (lossless -5 dB benchmarks)",
        all(checks),
        f"Var(x1)={out.cov[0, 0]:.6f} T_S={t_s:.6f} T_P={t_p:.6f} "
        f"V_SP={v:.6f}@g={g_opt:.6f} V_SP(1.5)={v_15:.6f}",
    )


def test_criterion_5_reference_table_bands():
    """Reference-table reproduction with the single fitted loss knob.

    A sector-symmetric model cannot land inside both sectors' two-sigma
    bands simultaneously (the published x/p values differ by more than the
    combined bands for V_SP), so the criterion is met by the documented
    escape hatch: the fit runs, the knob is reported, and every out-of-band
    value carries an explicit residual instead of silently passing.
    """
    start = time.perf_counter()
    comparison = metrics.fit_extra_in_loop_loss(ImperfectionModel())
    elapsed = time.perf_counter() - start

    assert comparison.fitted
    # frozen simulated values for the deterministic default model
    frozen = {
        (1.0, "T_sum"): 1.23767,
        (1.0, "V_SP"): 0.77311,
        (1.5, "T_sum"): 1.38452,
        (1.5, "V_SP"): 0.63791,
    }
    for check in comparison.checks:
        assert check.simulated == pytest.approx(
            frozen[(check.gain, check.metric)], abs=2e-4
        ), f"model drift at {check.gain}/{check.metric}"

    # honest reporting: every miss carries a positive residual in bar units
    misses = [c for c in comparison.checks if not c.within]
    for check in misses:
        assert check.residual_bars > metrics.BAND_WIDTH_FACTOR
    # the achievable landings with the symmetric model
    in_band = {(c.gain, c.metric, c.sector) for c in comparison.checks if c.within}
    assert (1.0, "T_sum", "x") in in_band
    assert (1.0, "V_SP", "p") in in_band
    assert (1.5, "T_sum", "x") in in_band
    assert (1.5, "V_SP", "p") in in_band

    # the CLI surface states the knob and the residuals
    text = cmd_reproduce_table(ScenarioConfig())
    assert "fitted extra in-loop loss" in text
    assert "residuals are reported" in text

    report(
        "5 (reference-table bands)",
        elapsed < 10.0,
        f"knob={comparison.extra_in_loop_loss:.4f}, "
        f"{8 - len(misses)}/8 within 2x bars, residuals reported for "
        f"{len(misses)} values, {elapsed:.2f}s",
    )


def test_criterion_6_entanglement_verdicts():
    # squeezed ancillas: both sectors dip below the witness line at common g
    circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel.ideal())
    cov = run_covariance(circuit, vacuum_state(2)).cov
    witness = metrics.duan_simon(cov, 0.4443)
    squeezed_ok = (
        witness.entangled
        and abs(witness.combined_sum - 1.472) < 1e-3
        and abs(witness.bound - 1.7772) < 1e-9
    )

    # vacuum ancillas: no rescaling gain certifies entanglement
    vac_circuit = build_qnd_gate(
        GateParams.from_gain(1.0, squeezing_db_a=0.0, squeezing_db_b=0.0),
        ImperfectionModel.ideal(),
    )
    vac_cov = run_covariance(vac_circuit, vacuum_state(2)).cov
    vacuum_ok = not metrics.duan_simon(vac_cov, 0.4443).scan_entangled

    # ideal gate at g = 0.5: x2 -> x2 + x1, p1 -> p1 - p2 on vacuum, S S^T
    s = np.eye(4)
    s[2, 0] = 1.0
    s[1, 3] = -1.0
    ideal_cov = s @ s.T
    ideal = metrics.duan_simon(ideal_cov, 0.5)
    ideal_ok = abs(ideal.combined_sum - 1.0) < 1e-9 and ideal.bound == 2.0 and ideal.entangled

    report(
        "6 (entanglement verdicts)",
        squeezed_ok and vacuum_ok and ideal_ok,
        f"squeezed: {witness.combined_sum:.4f} < {witness.bound:.4f}; "
        f"vacuum: margin {metrics.duan_simon(vac_cov, 0.4443).scan_best_margin:+.4f}; "
        f"ideal: {ideal.combined_sum:.4f} < {ideal.bound:.1f}",
    )


def test_criterion_7_qnd_criteria_structure():
    details = []
    ok = True
    for gain in (1.0, 1.5):
        for label, imp in (("lossless", ImperfectionModel.ideal()),
                           ("default", ImperfectionModel())):
            params = GateParams.from_gain(gain)
            circuit = build_qnd_gate(params, imp)
            rep = metrics.evaluate_gate(circuit, params)
            m = rep.sectors["x"]
            ok = ok and m.t_sum > 1.0 and m.v_conditional < 1.0
            details.append(f"G={gain} {label}: T_sum={m.t_sum:.4f} V={m.v_conditional:.4f}")
    # vacuum ancillas break the state-preparation criterion
    vac = build_qnd_gate(
        GateParams.from_gain(1.0, squeezing_db_a=0.0, squeezing_db_b=0.0),
        ImperfectionModel.ideal(),
    )
    v_vac, _ = metrics.conditional_variance(run_covariance(vac, vacuum_state(2)).cov, "x")
    ok = ok and abs(v_vac - 1.20601) < 1e-5 and v_vac > 1.0
    report(
        "7 (QND criteria structure)",
        ok,
        "; ".join(details) + f"; vacuum V={v_vac:.5f} > 1",
    )


def test_criterion_8_trajectory_validation():
    start = time.perf_counter()
    n = 100_000

    # lossless gate, vacuum inputs
    circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel.ideal())
    state = vacuum_state(2)
    result = run_ensemble(circuit, state, n, master_seed=20080901)
    target = run_covariance(circuit, state)
    z_lossless = z_score_report(result, target.mean, target.cov)

    # full imperfection model with a coherent input exercises conditional
    # mean updates, dark-noise feedforward and losses
    imp_circuit = build_qnd_gate(GateParams.from_gain(1.5), ImperfectionModel())
    imp_state = gaussian.displace(vacuum_state(2), 0, 3.0, 0.0)
    imp_result = run_ensemble(imp_circuit, imp_state, n, master_seed=42)
    imp_target = run_covariance(imp_circuit, imp_state)
    z_imperfect = z_score_report(imp_result, imp_target.mean, imp_target.cov)

    # the repeat draws again
    repeat = run_ensemble(circuit, state, n, master_seed=20080901)
    identical = np.array_equal(result.mean, repeat.mean) and np.array_equal(
        result.cov, repeat.cov
    )
    elapsed = time.perf_counter() - start
    report(
        "8 (trajectory validation)",
        z_lossless.max_z < 5.0 and z_imperfect.max_z < 5.0 and identical and elapsed < 60.0,
        f"n={n}: lossless {z_lossless}, imperfect {z_imperfect}, "
        f"repeat bit-identical={identical}, {elapsed:.1f}s",
    )


def test_criterion_9_physicality_suite():
    # every intermediate state in representative acceptance runs is physical
    scenarios = [
        (GateParams.from_gain(1.0), ImperfectionModel.ideal(), vacuum_state(2)),
        (GateParams.from_gain(1.5), ImperfectionModel.ideal(), vacuum_state(2)),
        (GateParams.from_gain(1.0), ImperfectionModel(),
         gaussian.displace(vacuum_state(2), 0, 10.0, 0.0)),
        (GateParams.from_gain(1.5), ImperfectionModel(), vacuum_state(2)),
        (GateParams.from_gain(1.0, squeezing_db_a=-60.0, squeezing_db_b=-60.0),
         ImperfectionModel.ideal(), vacuum_state(2)),
        (GateParams.from_gain(1.0, squeezing_db_a=0.0, squeezing_db_b=0.0),
         ImperfectionModel(), vacuum_state(2)),
    ]
    for params, imp, state in scenarios:
        run_covariance_checked(build_qnd_gate(params, imp), state)

    # every constructed mixing/squeezing operation is symplectic to 1e-12
    worst = 0.0
    for R in R_GRID:
        for signs in ((1, 1, -1, 1), (1, -1, 1, 1), (-1, -1, 1, -1)):
            worst = max(worst, symplectic_defect(lambda state: gaussian.beam_splitter(state, 0, 1, R, signs), 2))
    for r in (0.0, 0.5756, 2.0):
        for angle in (0.0, 0.7, np.pi / 2):
            worst = max(worst, symplectic_defect(lambda state: gaussian.squeeze(state, 0, r, angle), 2))
    report(
        "9 (physicality suite)",
        worst < 1e-12,
        f"all intermediate states physical; max symplectic defect {worst:.2e}",
    )


def test_criterion_10_amplitude_routing():
    params = GateParams.from_gain(1.0)
    circuit = build_qnd_gate(params, ImperfectionModel.ideal())
    amplitude = 10.0

    def output_means(mode, quad):
        state = vacuum_state(2)
        dx = amplitude if quad == "x" else 0.0
        dp = amplitude if quad == "p" else 0.0
        state = gaussian.displace(state, mode, dx, dp)
        return run_covariance(circuit, state).mean

    # probe-variable excitations must not couple anywhere else
    mean_b = output_means(1, "x")  # excite x2
    ok_b = abs(mean_b[2] - amplitude) < 1e-9 and np.abs(mean_b[[0, 1, 3]]).max() < 1e-9
    mean_c = output_means(0, "p")  # excite p1
    ok_c = abs(mean_c[1] - amplitude) < 1e-9 and np.abs(mean_c[[0, 2, 3]]).max() < 1e-9

    # signal excitation is preserved and copied to the probe with gain G
    mean_a = output_means(0, "x")
    ok_a = (
        abs(mean_a[0] - amplitude) < 1e-9
        and abs(mean_a[2] - params.gain * amplitude) < 1e-9
        and np.abs(mean_a[[1, 3]]).max() < 1e-9
    )
    report(
        "10 (amplitude routing)",
        ok_a and ok_b and ok_c,
        f"x1->x2 gain {mean_a[2] / amplitude:.9f} (G={params.gain:.9f}); "
        f"x2 and p1 excitations stay confined",
    )
