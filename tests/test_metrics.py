"""Tests for transfer coefficients, conditional variance and the witness."""

import numpy as np
import pytest

from qndsim import gaussian
from qndsim.circuit import (
    Circuit,
    Displacement,
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    run_covariance,
)
from qndsim.gaussian import vacuum_state
from qndsim import metrics
from qndsim.metrics import (
    compare_to_reference,
    conditional_variance,
    cv_sweep,
    duan_simon,
    duan_sum,
    evaluate_gate,
    fit_extra_in_loop_loss,
    reference_sweeps,
    transfer_coefficients,
    vacuum_noise_report,
)


def lossless_gate(gain=1.0, db=-5.0):
    params = GateParams.from_gain(gain, squeezing_db_a=db, squeezing_db_b=db)
    return params, build_qnd_gate(params, ImperfectionModel.ideal())


def ideal_output_cov(gain=1.0):
    # the ideal sum gate x2 -> x2 + G*x1, p1 -> p1 - G*p2 on vacuum: S S^T
    s = np.eye(4)
    s[2, 0] = gain
    s[1, 3] = -gain
    return s @ s.T


class TestTransferCoefficients:
    def test_near_ideal_values(self):
        # -60 dB ancillas approximate the ideal gate: T_S -> 1, T_P -> G**2/(1+G**2)
        _, circuit = lossless_gate(db=-60.0)
        t_s, t_p = transfer_coefficients(circuit, "x")
        assert t_s == pytest.approx(1.0, abs=1e-5)
        assert t_p == pytest.approx(0.5, abs=1e-5)

    def test_lossless_minus5db(self):
        _, circuit = lossless_gate()
        t_s, t_p = transfer_coefficients(circuit, "x")
        assert t_s == pytest.approx(0.87611, abs=1e-5)
        assert t_p == pytest.approx(0.48685, abs=1e-5)
        assert t_s + t_p == pytest.approx(1.36296, abs=2e-5)

    def test_vacuum_ancillas(self):
        _, circuit = lossless_gate(db=0.0)
        t_s, t_p = transfer_coefficients(circuit, "x")
        assert t_s == pytest.approx(0.69098, abs=1e-5)
        assert t_p == pytest.approx(0.46066, abs=1e-5)

    def test_p_sector_symmetric(self):
        _, circuit = lossless_gate()
        x = transfer_coefficients(circuit, "x")
        p = transfer_coefficients(circuit, "p")
        assert x[0] == pytest.approx(p[0], abs=1e-9)
        assert x[1] == pytest.approx(p[1], abs=1e-9)

    def test_rejects_bad_sector(self):
        _, circuit = lossless_gate()
        with pytest.raises(ValueError):
            transfer_coefficients(circuit, "y")

    @pytest.mark.parametrize("placement", ["post_exit", "pre_entry", "in_arms"])
    @pytest.mark.parametrize("gain", [0.0, 0.3, 1.0, 2.4])
    def test_equals_propagated_excitation_snr(self, gain, placement):
        # the linear response equals the SNR ratio of a displaced input
        # propagated through the circuit, at every working point
        budget = ImperfectionModel(loss_placement=placement, extra_in_loop_loss=0.02)
        amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
        for db in (-10.0, -5.0, 0.0):
            params = GateParams.from_gain(gain, squeezing_db_a=db, squeezing_db_b=db)
            circuit = build_qnd_gate(params, budget)
            for sector, mode, (dx, dp), outputs in (
                ("x", 0, (amplitude, 0.0), (0, 2)),
                ("p", 1, (0.0, amplitude), (3, 1)),
            ):
                out = run_covariance(circuit, gaussian.displace(vacuum_state(2), mode, dx, dp))
                want = [out.mean[i] ** 2 / out.cov[i, i] / amplitude**2 for i in outputs]
                got = transfer_coefficients(circuit, sector)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_displacement_offset_is_not_signal(self):
        # a constant output offset carries no information about the input
        _, circuit = lossless_gate()
        shifted = Circuit(circuit.elements + (Displacement(0, 3.0, -2.0),))
        for sector in ("x", "p"):
            assert transfer_coefficients(shifted, sector) == transfer_coefficients(circuit, sector)


class TestConditionalVariance:
    def test_ideal_gate(self):
        v, g_opt = conditional_variance(ideal_output_cov(1.0), "x")
        assert v == pytest.approx(0.5, abs=1e-12)
        assert g_opt == pytest.approx(0.5, abs=1e-12)

    def test_ideal_gate_p_sector_positive_gain(self):
        v, g_opt = conditional_variance(ideal_output_cov(1.0), "p")
        assert v == pytest.approx(0.5, abs=1e-12)
        assert g_opt == pytest.approx(0.5, abs=1e-12)

    def test_lossless_minus5db(self):
        _, circuit = lossless_gate()
        cov = run_covariance(circuit, vacuum_state(2)).cov
        v, g_opt = conditional_variance(cov, "x")
        assert v == pytest.approx(0.73595, abs=1e-5)
        assert g_opt == pytest.approx(0.44430, abs=1e-4)

    def test_vacuum_ancillas_fail_criterion(self):
        _, circuit = lossless_gate(db=0.0)
        cov = run_covariance(circuit, vacuum_state(2)).cov
        v, g_opt = conditional_variance(cov, "x")
        assert v == pytest.approx(1.20601, abs=1e-5)
        assert g_opt == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert v > 1.0

    def test_gain_15(self):
        _, circuit = lossless_gate(gain=1.5)
        cov = run_covariance(circuit, vacuum_state(2)).cov
        v, _ = conditional_variance(cov, "x")
        assert v == pytest.approx(0.59097, abs=1e-5)

    def test_degenerate_probe(self):
        cov = np.diag([1.3, 1.0, 0.0, 1.0])
        v, g_opt = conditional_variance(cov, "x")
        assert v == 1.3
        assert g_opt == 0.0

    def test_closed_form_equals_sweep_minimum(self):
        _, circuit = lossless_gate()
        cov = run_covariance(circuit, vacuum_state(2)).cov
        grid = np.arange(-2.0, 2.0, 1e-4)
        for sector in ("x", "p"):
            curve = cv_sweep(cov, sector, grid)
            v, g_opt = conditional_variance(cov, sector)
            k = int(np.argmin(curve))
            assert curve[k] == pytest.approx(v, abs=1e-7)
            assert grid[k] == pytest.approx(g_opt, abs=1e-4)

    def test_monotone_in_squeezing(self):
        values = []
        sums = []
        for db in (0.0, -3.0, -5.0, -10.0, -20.0, -60.0):
            _, circuit = lossless_gate(db=db)
            cov = run_covariance(circuit, vacuum_state(2)).cov
            values.append(conditional_variance(cov, "x")[0])
            t_s, t_p = transfer_coefficients(circuit, "x")
            sums.append(t_s + t_p)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(a < b for a, b in zip(sums, sums[1:]))

    def test_sector_symmetry(self):
        _, circuit = lossless_gate()
        cov = run_covariance(circuit, vacuum_state(2)).cov
        vx, gx = conditional_variance(cov, "x")
        vp, gp = conditional_variance(cov, "p")
        assert abs(vx - vp) < 1e-9
        assert abs(gx - gp) < 1e-9


class TestCvSweep:
    def test_zero_gain_gives_signal_variance(self):
        cov = ideal_output_cov(1.0)
        assert cv_sweep(cov, "x", [0.0])[0] == pytest.approx(cov[0, 0], abs=1e-12)

    def test_ideal_curve_at_half(self):
        assert cv_sweep(ideal_output_cov(1.0), "x", [0.5])[0] == pytest.approx(0.5)

    def test_vacuum_ancilla_curve_stays_above_one(self):
        params, _ = lossless_gate()
        refs = reference_sweeps(params, "x")
        assert refs.vacuum_ancilla.min() > 1.0

    def test_reference_curves_order(self):
        # more squeezing means lower parabola, pointwise
        params, _ = lossless_gate()
        refs = reference_sweeps(params, "x")
        assert np.all(refs.ideal <= refs.finite_squeezing + 1e-12)
        assert np.all(refs.finite_squeezing <= refs.vacuum_ancilla + 1e-12)


class TestDuanSimon:
    def test_ideal_gate_at_half(self):
        result = duan_simon(ideal_output_cov(1.0), 0.5)
        assert result.combined_sum == pytest.approx(1.0, abs=1e-12)
        assert result.bound == pytest.approx(2.0, abs=1e-12)
        assert result.entangled

    def test_lossless_minus5db(self):
        _, circuit = lossless_gate()
        cov = run_covariance(circuit, vacuum_state(2)).cov
        result = duan_simon(cov, 0.4443)
        assert result.combined_sum == pytest.approx(1.472, abs=1e-3)
        assert result.bound == pytest.approx(1.7772, abs=1e-9)
        assert result.entangled
        assert result.scan_entangled

    def test_vacuum_ancillas_never_certify(self):
        _, circuit = lossless_gate(db=0.0)
        cov = run_covariance(circuit, vacuum_state(2)).cov
        result = duan_simon(cov, 0.4443)
        assert not result.scan_entangled
        assert result.scan_best_margin > 0.0

    def test_verdict_invariant_under_sign_flip(self):
        # flipping g together with the phase of mode 2 leaves the witness value
        _, circuit = lossless_gate()
        out = run_covariance(circuit, vacuum_state(2))
        flip = np.diag([1.0, 1.0, -1.0, -1.0])  # mode 2 rotated by pi
        flipped = flip @ out.cov @ flip
        for g in (0.3, 0.4443, 1.0):
            assert duan_sum(out.cov, g) == pytest.approx(
                duan_sum(flipped, -g), abs=1e-10
            )

    def test_imperfect_gate_still_entangles(self):
        params = GateParams.from_gain(1.0)
        circuit = build_qnd_gate(params, ImperfectionModel())
        cov = run_covariance(circuit, vacuum_state(2)).cov
        assert duan_simon(cov, 0.4443).scan_entangled

    @pytest.mark.parametrize("gain", [0.3, 1.0, 2.2])
    def test_scan_equals_per_point_loop(self, gain):
        # the vectorised scan does each grid point's float operations in the
        # same order as duan_sum, so it must agree bit for bit
        params = GateParams.from_gain(gain, squeezing_db_a=-7.0, squeezing_db_b=-3.0)
        cov = run_covariance(build_qnd_gate(params, ImperfectionModel()), vacuum_state(2)).cov
        grid = metrics.DEFAULT_G_GRID
        margins = [duan_sum(cov, g) - 4.0 * abs(g) for g in grid]
        best = int(np.argmin(margins))
        result = duan_simon(cov, 0.5)
        assert result.scan_best_margin == margins[best]
        assert result.scan_best_g == grid[best]


class TestVacuumNoiseReport:
    def test_ideal_rows(self):
        params, circuit = lossless_gate(db=-60.0)
        rows = vacuum_noise_report(circuit, params)
        assert rows["infinite_squeezing"]["x2"]["dB"] == pytest.approx(3.0103, abs=1e-3)
        assert rows["infinite_squeezing"]["x1"]["dB"] == pytest.approx(0.0, abs=1e-9)
        assert rows["input"]["p2"]["dB"] == 0.0

    def test_configured_row_lossless(self):
        params, circuit = lossless_gate()
        rows = vacuum_noise_report(circuit, params)
        assert rows["configured"]["x1"]["dB"] == pytest.approx(0.574, abs=1e-3)
        assert rows["vacuum_ancilla_reference"]["x2"]["dB"] == pytest.approx(
            10 * np.log10(2.1708204), abs=1e-4
        )

    def test_r_one_all_zero(self):
        params = GateParams(1.0)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        rows = vacuum_noise_report(circuit, params)
        for family in ("input", "infinite_squeezing", "configured", "vacuum_ancilla_reference"):
            for quad in ("x1", "p1", "x2", "p2"):
                assert rows[family][quad]["dB"] == pytest.approx(0.0, abs=1e-9)


class TestEvaluateGate:
    def test_one_propagation_serves_both_sectors(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_covariance(*args, **kwargs)

        monkeypatch.setattr(metrics, "run_covariance", counted)
        params, circuit = lossless_gate()
        evaluate_gate(circuit, params)
        assert len(calls) == 1

    def test_report_verdicts_recomputed(self):
        params, circuit = lossless_gate()
        report = evaluate_gate(circuit, params)
        assert report.qnd_criteria_pass
        assert report.entangled
        m = report.sectors["x"]
        assert m.t_sum == m.t_signal + m.t_probe

    def test_vacuum_ancilla_report_fails_criteria(self):
        params, circuit = lossless_gate(db=0.0)
        report = evaluate_gate(circuit, params)
        assert not report.qnd_criteria_pass
        assert not report.entangled

    def test_text_and_csv_outputs(self):
        params, circuit = lossless_gate()
        report = evaluate_gate(circuit, params)
        text = report.to_text()
        assert "sector x" in text and "sector p" in text


class TestReferenceComparison:
    def test_comparison_structure(self):
        comp = compare_to_reference(ImperfectionModel())
        assert len(comp.checks) == 8  # 2 gains x 2 metrics x 2 sectors
        assert set(c.gain for c in comp.checks) == {1.0, 1.5}
        assert not comp.fitted

    def test_lossless_t_sum_out_of_band_high(self):
        comp = compare_to_reference(ImperfectionModel.ideal())
        t_sum = comp.reports[1.0].sectors["x"].t_sum
        assert t_sum == pytest.approx(1.36296, abs=1e-4)
        assert t_sum > 1.20 + 2 * 0.05

    def test_fit_reports_knob(self):
        comp = fit_extra_in_loop_loss(grid=np.array([0.0, 0.02]))
        assert comp.fitted
        assert comp.extra_in_loop_loss in (0.0, 0.02)
        # the fit minimizes the stated objective over the grid
        others = [
            compare_to_reference(
                metrics.ImperfectionModel(extra_in_loop_loss=k), fitted=True
            ).objective
            for k in (0.0, 0.02)
        ]
        assert comp.objective == pytest.approx(min(others), abs=1e-9)

    def test_out_of_band_values_carry_residuals(self):
        comp = compare_to_reference(ImperfectionModel())
        for check in comp.out_of_band():
            assert check.residual_bars > metrics.BAND_WIDTH_FACTOR
