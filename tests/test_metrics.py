"""Tests for transfer coefficients, conditional variance and the witness."""

import ast
import importlib
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim import gaussian
from qndsim.circuit import (
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    circuit_quadrature_map,
    run_covariance,
)
from qndsim.cli import cmd_reproduce_table, cmd_transfer
from qndsim.ensemble import run_ensemble
from qndsim.gaussian import vacuum_state
from qndsim.quadexpr import INPUT_COLUMNS, finite_squeezing_map, ideal_qnd_map, moments_from_map
from qndsim import metrics
from qndsim.metrics import (
    compare_to_reference,
    conditional_variance,
    cv_sweep,
    duan_simon,
    evaluate_gate,
    fit_extra_in_loop_loss,
    reference_sweeps,
    transfer_coefficients,
    vacuum_noise_report,
)
from qndsim.scenario import OutputSpec, RunSpec, ScenarioConfig


def lossless_gate(gain=1.0, db=-5.0):
    params = GateParams.from_gain(gain, squeezing_db_a=db, squeezing_db_b=db)
    return params, build_qnd_gate(params, ImperfectionModel.ideal())


def propagated_transfer(circuit, sector):
    """``(T_S, T_P)`` of ``circuit`` from its map and its vacuum-input covariance."""
    cov = run_covariance(circuit, vacuum_state(2)).cov
    return transfer_coefficients(circuit_quadrature_map(circuit), cov, sector)


def optima_outside_the_grid(report) -> list:
    """Each sector's g_opt and the exact witness minimiser that fall outside DEFAULT_G_GRID's ends.

    The witness margin a + 2bg + cg^2 - 4|g| is least at 0 or at g = (2 sgn g - b) / c.
    """
    lo, hi = metrics.DEFAULT_G_GRID[[0, -1]]
    cov = report.cov
    outside = [(s, m.g_opt) for s, m in report.sectors.items() if not lo <= m.g_opt <= hi]
    a, b, c = cov[0, 0] + cov[3, 3], cov[3, 1] - cov[0, 2], cov[1, 1] + cov[2, 2]
    candidates = [0.0] + [g for sign in (1.0, -1.0) if (g := (2.0 * sign - b) / c) * sign > 0.0]
    best = min(candidates, key=lambda g: a + 2.0 * b * g + c * g * g - 4.0 * abs(g))
    return outside + ([("witness", best)] if not lo <= best <= hi else [])


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
        t_s, t_p = propagated_transfer(circuit, "x")
        assert t_s == pytest.approx(1.0, abs=1e-5)
        assert t_p == pytest.approx(0.5, abs=1e-5)

    def test_lossless_minus5db(self):
        _, circuit = lossless_gate()
        t_s, t_p = propagated_transfer(circuit, "x")
        assert t_s == pytest.approx(0.87611, abs=1e-5)
        assert t_p == pytest.approx(0.48685, abs=1e-5)
        assert t_s + t_p == pytest.approx(1.36296, abs=2e-5)

    def test_vacuum_ancillas(self):
        _, circuit = lossless_gate(db=0.0)
        t_s, t_p = propagated_transfer(circuit, "x")
        assert t_s == pytest.approx(0.69098, abs=1e-5)
        assert t_p == pytest.approx(0.46066, abs=1e-5)

    def test_p_sector_symmetric(self):
        _, circuit = lossless_gate()
        x = propagated_transfer(circuit, "x")
        p = propagated_transfer(circuit, "p")
        assert x[0] == pytest.approx(p[0], abs=1e-9)
        assert x[1] == pytest.approx(p[1], abs=1e-9)

    def test_rejects_bad_sector(self):
        _, circuit = lossless_gate()
        with pytest.raises(ValueError):
            propagated_transfer(circuit, "y")

    def test_stacked_covariances(self):
        # a leading axis of covariances gives one coefficient pair per entry;
        # any non-positive variance in the stack raises
        _, circuit = lossless_gate()
        qmap = metrics.circuit_quadrature_map(circuit)
        cov = run_covariance(circuit, vacuum_state(2)).cov
        stack = np.stack([cov, 2.0 * cov])
        t_s, t_p = transfer_coefficients(qmap, stack, "x")
        want = propagated_transfer(circuit, "x")
        assert t_s.tolist() == [want[0], want[0] / 2.0]
        assert t_p.tolist() == [want[1], want[1] / 2.0]
        stack[1, 2, 2] = 0.0
        with pytest.raises(ValueError, match="non-positive output variance"):
            transfer_coefficients(qmap, stack, "x")

    @pytest.mark.parametrize("stacked", [False, True])
    def test_nan_variance_rejected(self, stacked):
        # NaN <= 0 is False, so a NaN variance once gave a NaN coefficient
        _, circuit = lossless_gate()
        qmap = metrics.circuit_quadrature_map(circuit)
        cov = run_covariance(circuit, vacuum_state(2)).cov
        cov = np.stack([cov, cov]) if stacked else cov.copy()
        cov[..., 0, 0].flat[-1] = np.nan
        with pytest.raises(ValueError, match="non-positive output variance"):
            transfer_coefficients(qmap, cov, "x")

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
                got = propagated_transfer(circuit, sector)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_one_covariance_gives_python_floats(self):
        params, circuit = lossless_gate()
        assert all(type(t) is float for t in propagated_transfer(circuit, "x"))
        report = evaluate_gate(circuit, params)
        for m in report.sectors.values():
            assert {type(v) for v in vars(m).values()} == {float}
            assert "np." not in repr(m)

    @pytest.mark.parametrize(
        "command, kwargs, count",
        [(cmd_transfer, {}, 2), (cmd_reproduce_table, {}, 6), (cmd_reproduce_table, {"fit": False}, 6)],
        ids=["transfer", "reproduce-table", "reproduce-table-no-fit"],
    )
    def test_every_t_computation_is_one_call(self, monkeypatch, command, kwargs, count):
        # one call per sector; reproduce-table computes T at both gains, for
        # the knob scan when it fits (the printed table is the scan's row) and
        # for the printed table when it does not, and for the lossless row
        calls = []

        def counted(*args):
            calls.append(args)
            return transfer_coefficients(*args)

        monkeypatch.setattr(metrics, "transfer_coefficients", counted)
        command(ScenarioConfig(), **kwargs)
        assert len(calls) == count


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

    @pytest.mark.parametrize("stacked", [False, True])
    def test_uncorrelated_optimum_is_an_unsigned_zero(self, stacked):
        # -sign * 0.0 is -0.0 in one sector, which printed as "-0.00000"
        cov = np.stack([np.eye(4)] * 3) if stacked else np.eye(4)
        for sector in ("x", "p"):
            _, g_opt = conditional_variance(cov, sector)
            assert not np.signbit(g_opt).any()

    def test_stacked_covariances(self):
        # each entry of a stack, the degenerate probe included, equals its own call
        _, circuit = lossless_gate()
        stack = np.stack(
            [run_covariance(circuit, vacuum_state(2)).cov, np.diag([1.3, 1.0, 0.0, 1.0])]
        )
        for sector in ("x", "p"):
            v, g_opt = conditional_variance(stack, sector)
            want = [conditional_variance(cov, sector) for cov in stack]
            assert v.tolist() == [w[0] for w in want]
            assert g_opt.tolist() == [w[1] for w in want]

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
            t_s, t_p = propagated_transfer(circuit, "x")
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
        refs = reference_sweeps(params, metrics.DEFAULT_G_GRID)["x"]
        assert refs.vacuum_ancilla.min() > 1.0

    def test_reference_curves_order(self):
        # more squeezing means lower parabola, pointwise
        params, _ = lossless_gate()
        refs = reference_sweeps(params, metrics.DEFAULT_G_GRID)["x"]
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
            assert duan_simon(out.cov, g).combined_sum == pytest.approx(
                duan_simon(flipped, -g).combined_sum, abs=1e-10
            )

    def test_imperfect_gate_still_entangles(self):
        params = GateParams.from_gain(1.0)
        circuit = build_qnd_gate(params, ImperfectionModel())
        cov = run_covariance(circuit, vacuum_state(2)).cov
        assert duan_simon(cov, 0.4443).scan_entangled

    @pytest.mark.parametrize("gain", [0.3, 1.0, 2.2])
    def test_scan_equals_per_point_loop(self, gain):
        # the vectorised scan does each grid point's float operations in the
        # same order as the witness at one gain, so it must agree bit for bit
        params = GateParams.from_gain(gain, squeezing_db_a=-7.0, squeezing_db_b=-3.0)
        cov = run_covariance(build_qnd_gate(params, ImperfectionModel()), vacuum_state(2)).cov
        grid = metrics.DEFAULT_G_GRID
        margins = [duan_simon(cov, g).combined_sum - 4.0 * abs(g) for g in grid]
        best = int(np.argmin(margins))
        result = duan_simon(cov, 0.5)
        assert result.scan_best_margin == margins[best]
        assert result.scan_best_g == grid[best]

    @pytest.mark.parametrize("imp", [ImperfectionModel.ideal(), ImperfectionModel()], ids=["ideal", "default"])
    @pytest.mark.parametrize("db", [0.0, -5.0, -20.0, -60.0])
    def test_every_optimum_lies_inside_the_grid(self, imp, db):
        # why one grid serves every scenario: over gains from 0 to the scenario
        # bound, each sector's g_opt and the exact witness minimiser stay in
        # [-2, 2] (at most 0.906 and 1.206 were read)
        for gain in np.concatenate(([0.0], np.geomspace(1e-3, 1000.0, 60))):
            params = GateParams.from_gain(gain, squeezing_db_a=db, squeezing_db_b=db)
            assert optima_outside_the_grid(evaluate_gate(build_qnd_gate(params, imp), params)) == [], gain

    @pytest.mark.parametrize("pool", ["sweep", "calibrate"])
    def test_every_recorded_pool_optimum_lies_inside_the_grid(self, monkeypatch, pool):
        # the benchmark's working points, drawn budgets and unequal squeezing
        # included; a calibrate point is read at both of the paper's gains
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench import workloads

        points = workloads.load_pool(pool)["points"]
        gains = (None,) if pool == "sweep" else (1.0, 1.5)
        outside = []
        for index, entry in enumerate(points):
            config = workloads.scenario(entry["point"])
            for gain in gains:
                if gain is not None:
                    config = replace(config, gate_G=gain)
                params = config.gate_params()
                report = evaluate_gate(build_qnd_gate(params, config.imperfections), params)
                outside += [(index, gain, *where) for where in optima_outside_the_grid(report)]
        assert len(points) == {"sweep": 1024, "calibrate": 96}[pool]
        assert outside == []


class TestVacuumNoiseReport:
    def test_ideal_rows(self):
        params, circuit = lossless_gate(db=-60.0)
        rows = vacuum_noise_report(circuit, params)
        # each family is (variances, dB) in (x1, p1, x2, p2) order
        assert rows["infinite_squeezing"][1][2] == pytest.approx(3.0103, abs=1e-3)
        assert rows["infinite_squeezing"][1][0] == pytest.approx(0.0, abs=1e-9)
        assert rows["input"][1][3] == 0.0

    def test_configured_row_lossless(self):
        params, circuit = lossless_gate()
        rows = vacuum_noise_report(circuit, params)
        assert rows["configured"][1][0] == pytest.approx(0.574, abs=1e-3)
        assert rows["vacuum_ancilla_reference"][1][2] == pytest.approx(
            10 * np.log10(2.1708204), abs=1e-4
        )

    def test_vacuum_ancilla_reference_ignores_the_budget(self):
        # the family is finite_squeezing_map(R, 0, 0), not the measured circuit rebuilt at 0 dB
        params = GateParams.from_gain(1.0)
        measured = vacuum_noise_report(build_qnd_gate(params, ImperfectionModel()), params)
        lossless = vacuum_noise_report(build_qnd_gate(params, ImperfectionModel.ideal()), params)
        assert measured["vacuum_ancilla_reference"] == lossless["vacuum_ancilla_reference"]
        variances = measured["vacuum_ancilla_reference"][0]
        assert variances[0] == pytest.approx(1.0 + (1.0 - params.R) / (1.0 + params.R), rel=1e-12)
        assert variances[0] == pytest.approx(1.44721, abs=1e-5)
        at_0db = GateParams.from_gain(1.0, squeezing_db_a=0.0, squeezing_db_b=0.0)
        rebuilt = vacuum_noise_report(build_qnd_gate(at_0db, ImperfectionModel()), at_0db)["configured"]
        assert rebuilt[0][0] == pytest.approx(1.42421, abs=1e-5)

    def test_r_one_all_zero(self):
        params = GateParams(1.0)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        rows = vacuum_noise_report(circuit, params)
        for variances, db in rows.values():
            assert len(variances) == len(db) == 4
            assert db == pytest.approx([0.0] * 4, abs=1e-9)


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

    def test_witness_is_scanned_once_when_read(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return duan_simon(*args)

        monkeypatch.setattr(metrics, "duan_simon", counted)
        params, circuit = lossless_gate()
        report = evaluate_gate(circuit, params)
        assert calls == []
        cov = run_covariance(circuit, vacuum_state(2)).cov
        assert report.duan == duan_simon(cov, report.sectors["x"].g_opt)
        assert "witness: sum=" in report.to_text() and report.duan.scan_entangled
        assert len(calls) == 1

    def test_given_covariance_and_grid(self, monkeypatch):
        # a sampled covariance: nothing is propagated, the sectors are read off
        # the given covariance and the witness scans DEFAULT_G_GRID
        params, circuit = lossless_gate()
        cov = run_ensemble(circuit, vacuum_state(2), 3000, 29).cov
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_covariance(*args, **kwargs)

        monkeypatch.setattr(metrics, "run_covariance", counted)
        report = evaluate_gate(circuit, params, cov)
        assert report.cov is cov
        # repr tells -0.0 from 0.0 and prints each float exactly
        assert repr(report.sectors) == repr(metrics._sector_metrics(circuit_quadrature_map(circuit), cov))
        assert report.duan == duan_simon(cov, report.sectors["x"].g_opt)
        assert calls == []

    def test_no_grid_is_taken(self):
        # the witness grid is DEFAULT_G_GRID: neither entry point nor the report takes another
        params, circuit = lossless_gate()
        cov = run_covariance(circuit, vacuum_state(2)).cov
        with pytest.raises(TypeError):
            evaluate_gate(circuit, params, cov, metrics.DEFAULT_G_GRID)
        with pytest.raises(TypeError, match="g_grid"):
            evaluate_gate(circuit, params, g_grid=metrics.DEFAULT_G_GRID)
        with pytest.raises(TypeError):
            duan_simon(cov, 0.5, metrics.DEFAULT_G_GRID)
        assert [f.name for f in fields(metrics.QndReport)] == ["params", "sectors", "cov"]

    def test_metrics_does_not_import_the_scenario_layer(self):
        tree = ast.parse(Path(metrics.__file__).read_text(encoding="utf-8"))
        imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "scenario" not in imported and "qndsim.scenario" not in imported
        assert not hasattr(metrics, "RunSpec")

    @pytest.mark.parametrize(
        "module, name",
        [
            ("qndsim.scenario", "MAX_G_POINTS"),
            ("qndsim.scenario", "MAX_ABS_G"),
            ("qndsim.scenario", "_g_grid"),
            ("qndsim.scenario", "functools"),
            ("qndsim.metrics", "duan_sum"),
            ("qndsim", "duan_sum"),
        ],
    )
    def test_retired_names_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)
        assert name not in getattr(importlib.import_module(module), "__all__", [])

    def test_run_spec_has_no_grid_method(self):
        assert not hasattr(RunSpec, "g_grid")

    def test_zero_gain_optima_are_unsigned_zeros(self):
        # on the default budget the x-sector g_opt of a G = 0 gate was about
        # -1.9e-19, and to_text printed "g_opt=-0.00000" and "at g=-0.00000"
        params = GateParams.from_gain(0.0)
        report = evaluate_gate(build_qnd_gate(params, ImperfectionModel()), params)
        for g in (report.sectors["x"].g_opt, report.sectors["p"].g_opt, report.duan.g):
            assert g == 0.0 and not np.signbit(g)
        assert "-0.00000" not in report.to_text()
        # stacked with a correlated covariance, only the noise entry is snapped
        _, circuit = lossless_gate()
        stack = np.stack([report.cov, run_covariance(circuit, vacuum_state(2)).cov])
        for sector in ("x", "p"):
            _, g_opt = conditional_variance(stack, sector)
            assert g_opt[0] == 0.0 and not np.signbit(g_opt[0])
            assert g_opt[1] == conditional_variance(stack[1], sector)[1] > 0.4

    def test_report_verdicts_recomputed(self):
        params, circuit = lossless_gate()
        report = evaluate_gate(circuit, params)
        assert report.qnd_criteria_pass
        assert report.duan.scan_entangled
        m = report.sectors["x"]
        assert m.t_sum == m.t_signal + m.t_probe

    def test_vacuum_ancilla_report_fails_criteria(self):
        params, circuit = lossless_gate(db=0.0)
        report = evaluate_gate(circuit, params)
        assert not report.qnd_criteria_pass
        assert not report.duan.scan_entangled

    def test_text_and_csv_outputs(self):
        params, circuit = lossless_gate()
        report = evaluate_gate(circuit, params)
        text = report.to_text()
        assert "sector x" in text and "sector p" in text

    @pytest.mark.parametrize("knob", [0.0, 0.05])
    def test_zero_gain_is_the_small_gain_limit(self, knob):
        # the budget, the calibration knob included, acts on G = 0 as on
        # any small gain
        budget = ImperfectionModel(extra_in_loop_loss=knob)
        zero, small = (
            evaluate_gate(build_qnd_gate(params, budget), params)
            for params in (GateParams.from_gain(0.0), GateParams.from_gain(1e-9))
        )
        for sector in ("x", "p"):
            for name in ("t_signal", "t_probe", "v_conditional"):
                assert getattr(zero.sectors[sector], name) == pytest.approx(
                    getattr(small.sectors[sector], name), rel=0.0, abs=1e-8
                )


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
        comp = fit_extra_in_loop_loss(ImperfectionModel())
        assert comp.fitted
        assert comp.extra_in_loop_loss in metrics.DEFAULT_KNOB_GRID
        # the fit minimizes the stated objective over the grid
        others = [
            compare_to_reference(
                metrics.ImperfectionModel(extra_in_loop_loss=float(k)), fitted=True
            ).objective
            for k in metrics.DEFAULT_KNOB_GRID
        ]
        assert comp.objective == pytest.approx(min(others), abs=1e-9)

    def test_out_of_band_values_carry_residuals(self):
        comp = compare_to_reference(ImperfectionModel())
        for check in comp.checks:
            if not check.within:
                assert check.residual_bars > metrics.BAND_WIDTH_FACTOR

    def test_verdict_edges_and_residual_share_one_rule(self):
        comp = compare_to_reference(ImperfectionModel())
        assert comp.objective == sum(c.residual_bars**2 for c in comp.checks)
        for check in comp.checks:
            assert check.within == (check.low <= check.simulated <= check.high)
            assert check.high - check.low == pytest.approx(
                2.0 * metrics.BAND_WIDTH_FACTOR * check.bar
            )


def per_knob_fit(base, squeezing_db, grid):
    """The knob fit as a loop: ``compare_to_reference`` at every grid knob.

    Returns the first strict minimum and the objective at every knob; the
    reference the closed-form scan is checked against.
    """
    best, objectives = None, []
    for knob in grid:
        candidate = compare_to_reference(
            replace(base, extra_in_loop_loss=float(knob)), squeezing_db=squeezing_db, fitted=True
        )
        objectives.append(candidate.objective)
        if best is None or candidate.objective < best.objective:
            best = candidate
    return best, np.array(objectives)


_FIT_BUDGETS = st.just(ImperfectionModel.ideal()) | st.builds(
    ImperfectionModel,
    propagation_loss_per_main_mode=st.floats(0.0, 0.3),
    detector_quantum_efficiency=st.floats(0.8, 1.0),
    visibility=st.floats(0.8, 1.0),
    dark_noise_dB_below_shot=st.floats(0.0, 40.0) | st.just(math.inf),
    displacement_coupler_loss=st.floats(0.0, 0.1),
    feedforward_electronic_gain_error=st.floats(-0.1, 0.1),
    loss_placement=st.sampled_from(["post_exit", "pre_entry", "in_arms"]),
)

# two budgets drawn once from the benchmark's ranges whose fits land inside
# the default grid (knobs 0.0350 and 0.0125)
_INTERIOR_FIT_BUDGETS = [
    (-4.91, ImperfectionModel(0.083, 0.9655, 0.9859, 12.9882, 0.0054, -0.0185, 0.0, "pre_entry")),
    (-5.54, ImperfectionModel(0.102, 0.9975, 0.9976, 18.2924, 0.0046, -0.0258, 0.0, "post_exit")),
]


class TestKnobIsAnOutputLoss:
    """The arm loss acts on the knob-0 output as a pure loss of ``1 - k`` on both modes."""

    KNOBS = np.append(metrics.DEFAULT_KNOB_GRID, [0.3, 0.7, 0.95])

    @staticmethod
    def assert_close(actual, expected):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(actual - expected)) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        base=_FIT_BUDGETS,
        gain=st.floats(0.0, 2.5),
        squeezing=st.tuples(st.floats(-10.0, 0.0), st.floats(-10.0, 0.0)),
    )
    def test_covariance_and_signal_columns(self, base, gain, squeezing):
        params = GateParams.from_gain(gain, squeezing_db_a=squeezing[0], squeezing_db_b=squeezing[1])

        def outputs(knob):
            circuit = build_qnd_gate(params, replace(base, extra_in_loop_loss=float(knob)))
            qmap = circuit_quadrature_map(circuit)
            signal = qmap.matrix[:, [qmap.columns.index(c) for c in INPUT_COLUMNS]]
            return run_covariance(circuit, vacuum_state(2)).cov, signal

        cov0, signal0 = outputs(0.0)
        for knob in self.KNOBS:
            cov, signal = outputs(knob)
            self.assert_close(cov, cov0 + knob * (np.eye(4) - cov0))
            self.assert_close(signal, math.sqrt(1.0 - knob) * signal0)


class TestKnobFit:
    """The closed-form knob scan against the per-knob loop it replaces."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        base=_FIT_BUDGETS,
        squeezing_db=st.floats(-10.0, 0.0),
        extra_knobs=st.lists(st.floats(0.0, 0.95), max_size=3),
    )
    def test_objective_matches_per_knob_loop(self, base, squeezing_db, extra_knobs):
        grid = np.append(metrics.DEFAULT_KNOB_GRID, extra_knobs)
        best, objectives = per_knob_fit(base, squeezing_db, grid)
        batched, _ = metrics._knob_scan(base, squeezing_db, grid)
        np.testing.assert_allclose(batched, objectives, rtol=1e-12, atol=0.0)
        assert np.argmin(batched) == np.argmin(objectives)
        # the fit scans the default grid, the head of ``grid``, and reports
        # the scan's own objective there
        k = int(np.argmin(objectives[: len(metrics.DEFAULT_KNOB_GRID)]))
        fit = fit_extra_in_loop_loss(base, squeezing_db)
        assert fit.extra_in_loop_loss == metrics.DEFAULT_KNOB_GRID[k]
        assert fit.objective == batched[k]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(base=_FIT_BUDGETS, squeezing_db=st.floats(-10.0, 0.0))
    def test_scan_rows_match_real_builds(self, base, squeezing_db):
        # the fitted table is the scan's row, not a second build: at every
        # grid knob that row matches compare_to_reference to 1e-12, and at
        # knob 0 bit for bit (a zero's sign included), witness too
        objective, rows = metrics._knob_scan(base, squeezing_db, metrics.DEFAULT_KNOB_GRID)
        for i, knob in enumerate(metrics.DEFAULT_KNOB_GRID):
            scanned = metrics._comparison(rows, i, float(knob), True, objective[i]).reports
            built = compare_to_reference(
                replace(base, extra_in_loop_loss=float(knob)), squeezing_db=squeezing_db
            ).reports
            assert scanned.keys() == built.keys()
            for gain, report in scanned.items():
                assert report.params == built[gain].params
                for sector, m in report.sectors.items():
                    got, want = vars(m), vars(built[gain].sectors[sector])
                    assert {type(v) for v in got.values()} == {float}
                    if knob == 0.0:
                        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
                    else:
                        np.testing.assert_allclose(
                            list(got.values()), list(want.values()), rtol=1e-12, atol=0.0
                        )
                if knob == 0.0:
                    assert report.duan == built[gain].duan

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(base=_FIT_BUDGETS, squeezing_db=st.floats(-10.0, 0.0), knob=st.floats(0.001, 0.5))
    def test_compare_to_reference_is_a_real_build(self, base, squeezing_db, knob):
        # the reference the scan rows are checked against, checked in turn
        # against a real build and evaluate_gate, which share no code with
        # _comparison: equal bit for bit at nonzero knobs, witness too
        budget = replace(base, extra_in_loop_loss=knob)
        comparison = compare_to_reference(budget, squeezing_db=squeezing_db)
        assert comparison.extra_in_loop_loss == knob
        checks = []
        for gain, report in comparison.reports.items():
            params = GateParams.from_gain(gain, squeezing_db_a=squeezing_db, squeezing_db_b=squeezing_db)
            built = evaluate_gate(build_qnd_gate(params, budget), params)
            assert report.params == built.params
            assert report.cov.tobytes() == built.cov.tobytes()
            for sector, m in report.sectors.items():
                got, want = vars(m), vars(built.sectors[sector])
                assert [v.hex() for v in got.values()] == [float(v).hex() for v in want.values()]
            assert report.duan == built.duan
            checks += metrics._banded(gain, built.sectors)
        assert comparison.checks == checks
        assert comparison.objective == sum(c.residual_bars**2 for c in checks)

    @pytest.mark.parametrize(
        "squeezing_db, budget",
        [(-5.0, ImperfectionModel.ideal()), (-5.0, ImperfectionModel()), *_INTERIOR_FIT_BUDGETS],
    )
    def test_reproduce_table_matches_per_knob_fit(self, squeezing_db, budget, tmp_path, monkeypatch):
        config = ScenarioConfig(
            squeezing_dB_A=squeezing_db, squeezing_dB_B=squeezing_db, imperfections=budget
        )
        closed_form, loop = tmp_path / "closed_form.csv", tmp_path / "loop.csv"
        text = cmd_reproduce_table(replace(config, output=OutputSpec(str(closed_form))))
        monkeypatch.setattr(
            metrics,
            "fit_extra_in_loop_loss",
            lambda base, squeezing_db: per_knob_fit(base, squeezing_db, metrics.DEFAULT_KNOB_GRID)[0],
        )
        loop_text = cmd_reproduce_table(replace(config, output=OutputSpec(str(loop))))
        assert text == loop_text
        assert closed_form.read_bytes() == loop.read_bytes()


# working points and budgets over the sweep's ranges and beyond, and rescaling gains
_POINTS = st.builds(
    GateParams.from_gain,
    st.floats(0.0, 10.0),
    squeezing_db_a=st.floats(-60.0, 0.0),
    squeezing_db_b=st.floats(-60.0, 0.0),
)
_BUDGETS = st.just(ImperfectionModel.ideal()) | st.builds(
    ImperfectionModel,
    propagation_loss_per_main_mode=st.floats(0.0, 0.5),
    detector_quantum_efficiency=st.floats(0.5, 1.0),
    visibility=st.floats(0.5, 1.0),
    dark_noise_dB_below_shot=st.floats(0.0, 40.0) | st.just(math.inf),
    displacement_coupler_loss=st.floats(0.0, 0.5),
    feedforward_electronic_gain_error=st.floats(-0.5, 0.5),
    extra_in_loop_loss=st.floats(0.0, 0.5),
    loss_placement=st.sampled_from(["post_exit", "pre_entry", "in_arms"]),
)


class TestPrintedFiguresBitForBit:
    """The figures computed without full moments equal, byte for byte, those read off the moments."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(params=_POINTS, imp=_BUDGETS)
    @example(params=GateParams(1.0), imp=ImperfectionModel.ideal())
    @example(params=GateParams.from_gain(1.0, squeezing_db_a=-60.0, squeezing_db_b=-60.0), imp=ImperfectionModel())
    def test_vacuum_noise_families_are_the_moment_diagonals(self, params, imp):
        circuit = build_qnd_gate(params, imp)
        want = {
            "input": np.diag(np.eye(4)),
            "infinite_squeezing": np.diag(moments_from_map(ideal_qnd_map(params.gain))),
            "configured": np.diag(run_covariance(circuit, vacuum_state(2)).cov),
            "vacuum_ancilla_reference": np.diag(moments_from_map(finite_squeezing_map(params.R, 0.0, 0.0))),
        }
        rows = vacuum_noise_report(circuit, params)
        assert list(rows) == ["input", "infinite_squeezing", "configured", "vacuum_ancilla_reference"]
        for family, variances in want.items():
            got, db = rows[family]
            assert np.array(got).tobytes() == variances.tobytes()
            assert np.array(db).tobytes() == gaussian.variance_to_db(variances).tobytes()


class TestDuanSum:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(params=_POINTS, imp=_BUDGETS, g=st.floats(-5.0, 5.0))
    @example(params=GateParams.from_gain(1.0), imp=ImperfectionModel(), g=0.0)
    @example(params=GateParams.from_gain(1.5), imp=ImperfectionModel.ideal(), g=-0.4443)
    def test_is_the_two_combined_variances(self, params, imp, g):
        # Var(x1 - g*x2) + Var(p2 + g*p1) as quadratic forms of the output covariance
        cov = run_covariance(build_qnd_gate(params, imp), vacuum_state(2)).cov
        x, p = np.array([1.0, 0.0, -g, 0.0]), np.array([0.0, g, 0.0, 1.0])
        got = duan_simon(cov, g).combined_sum
        assert type(got) is float
        assert got == pytest.approx(x @ cov @ x + p @ cov @ p, rel=1e-12, abs=1e-12)
