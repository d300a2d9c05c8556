"""Tests for gate compilation and circuit execution."""

import hashlib
import math
from dataclasses import replace
from numbers import Integral

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim import circuit as circuit_module
from qndsim import gaussian
from qndsim import quadexpr as quadexpr_module
from qndsim import scenario as scenario_module
from qndsim.cli import ORACLE_DB_GRID, ORACLE_R_GRID
from qndsim.circuit import (
    AncillaInjection,
    BeamSplitter,
    Circuit,
    CircuitConstructionError,
    GateParams,
    HomodyneFeedforward,
    ImperfectionModel,
    MIN_SQUEEZING_DB,
    Loss,
    _require,
    build_qnd_gate,
    circuit_quadrature_map,
    compile_trajectory,
    gain_from_reflectivity,
    reflectivity_from_gain,
    run_covariance,
    run_trajectory,
)
from qndsim.ensemble import run_ensemble, trajectory_generator, z_score_report
from qndsim.quadexpr import (
    QuadratureMap,
    commutator_check,
    finite_squeezing_map,
    gate_budget_map,
    max_coefficient_difference,
    moments_from_map,
)

import physicality
from physicality import run_covariance_checked

R_GOLDEN = 0.3819660112501051
R_GRID = (0.1, 0.25, R_GOLDEN, 0.5, 0.75, 1.0)
DB_GRID = (0.0, -3.0, -5.0, -10.0, -60.0)


class TestGainParametrization:
    def test_r_one_zero_gain(self):
        assert gain_from_reflectivity(1.0) == 0.0

    def test_gain_15_quarter_reflectivity(self):
        # sqrt(R) solves u**2 + 1.5u - 1 = 0, i.e. u = 0.5
        assert abs(reflectivity_from_gain(1.5) - 0.25) < 1e-12

    def test_unit_gain_golden_ratio(self):
        assert reflectivity_from_gain(1.0) == pytest.approx(R_GOLDEN, abs=1e-12)
        assert gain_from_reflectivity(0.381966) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("R", [0.01, 0.1, 0.3819660112501051, 0.5, 0.99, 1.0])
    def test_round_trip(self, R):
        assert reflectivity_from_gain(gain_from_reflectivity(R)) == pytest.approx(
            R, abs=1e-12
        )

    @pytest.mark.parametrize("R", [0.0, -0.5, 1.5])
    def test_rejects_bad_reflectivity(self, R):
        with pytest.raises(ValueError):
            gain_from_reflectivity(R)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            reflectivity_from_gain(-0.1)

    @pytest.mark.parametrize("gain", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_gain_by_name(self, gain):
        # NaN compares false with 0 and inf maps to R = nan; the error names the gain
        with pytest.raises(ValueError, match=f"gain G = {gain} must be finite and non-negative"):
            reflectivity_from_gain(gain)


class TestGateParams:
    def test_reflectivities_layout(self):
        params = GateParams(0.25)
        entry, arm1, arm2, exit_ = params.reflectivities
        assert entry == pytest.approx(0.8)
        assert arm1 == arm2 == 0.25
        assert exit_ == pytest.approx(0.2)

    @pytest.mark.parametrize("R", [0.05, 0.25, 0.9, 1.0])
    def test_reflectivities_in_range(self, R):
        for r in GateParams(R).reflectivities:
            assert 0.0 < r <= 1.0

    def test_from_gain(self):
        assert GateParams.from_gain(1.5).R == pytest.approx(0.25, abs=1e-12)

    def test_squeeze_parameters(self):
        params = GateParams(0.5, squeezing_db_a=-5.0, squeezing_db_b=-10.0)
        assert np.exp(-2 * params.r_a) == pytest.approx(10**-0.5, abs=1e-12)
        assert np.exp(-2 * params.r_b) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("db", [-5.0, -10.0, -3.7, 0.0, -0.0, -60, np.float64(-2.5)])
    def test_squeeze_parameter_is_a_python_float(self, db):
        # the float64 arithmetic, bit for bit, returned as a plain float
        r = gaussian.squeeze_parameter_from_db(db)
        assert type(r) is float
        assert r.hex() == float(0.0 - db * np.log(10.0) / 20.0).hex()
        assert math.copysign(1.0, gaussian.squeeze_parameter_from_db(0.0 * db)) == 1.0

    def test_ancilla_squeezing_prints_as_a_float(self):
        params = GateParams(0.25)
        assert type(params.r_a) is float and type(params.r_b) is float
        ancilla = AncillaInjection(params.r_a, math.nan, "A")
        text = "AncillaInjection(r=0.5756462732485115, angle=nan, label='A')"
        assert repr(ancilla) == text
        with pytest.raises(ValueError) as raised:
            Circuit((ancilla,))
        assert str(raised.value) == f"invalid circuit element at position 0: {text}"

    @pytest.mark.parametrize("name", ["squeezing_db_a", "squeezing_db_b"])
    @pytest.mark.parametrize("db", [math.nan, math.inf, -math.inf])
    def test_non_finite_squeezing_rejected(self, name, db):
        with pytest.raises(ValueError, match=f"{name} = {db} is not finite"):
            GateParams(0.5, **{name: db})

    @pytest.mark.parametrize("name", ["squeezing_db_a", "squeezing_db_b"])
    def test_squeezing_below_the_checked_bound_rejected(self, name):
        # deeper, correct gates failed the absolute 1e-9 build check: -140 dB raised a
        # CircuitConstructionError on the default budget at G = 1, -200 dB on the ideal one
        for imp in (ImperfectionModel(), ImperfectionModel.ideal()):
            build_qnd_gate(GateParams.from_gain(1.0, **{name: MIN_SQUEEZING_DB}), imp)
        for db in (-60.000001, -140.0, -200.0):
            with pytest.raises(ValueError, match=rf"^{name} = {db} is below -60 dB"):
                GateParams(0.5, **{name: db})
        assert scenario_module.MIN_SQUEEZING_DB is MIN_SQUEEZING_DB == -60.0


class TestImperfectionModel:
    def test_defaults_are_reference_values(self):
        imp = ImperfectionModel()
        assert imp.propagation_loss_per_main_mode == 0.07
        assert imp.detector_quantum_efficiency == 0.99
        assert imp.visibility == 0.98
        assert imp.dark_noise_dB_below_shot == 17.0
        assert imp.dark_variance == pytest.approx(10**-1.7, abs=1e-12)
        assert imp.homodyne_efficiency == pytest.approx(0.99 * 0.98**2, abs=1e-12)

    def test_ideal_switches_everything_off(self):
        imp = ImperfectionModel.ideal()
        assert imp.propagation_loss_per_main_mode == 0.0
        assert imp.homodyne_efficiency == 1.0
        assert imp.dark_variance == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("propagation_loss_per_main_mode", 1.0),
            ("detector_quantum_efficiency", 0.0),
            ("visibility", 1.2),
            ("dark_noise_dB_below_shot", -1.0),
            ("loss_placement", "sideways"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ImperfectionModel(**{field: value})


class TestBuilderOracleEquivalence:
    @pytest.mark.parametrize("R", R_GRID)
    @pytest.mark.parametrize("db", DB_GRID)
    def test_lossless_circuit_matches_relations(self, R, db):
        params = GateParams(R, squeezing_db_a=db, squeezing_db_b=db)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        got = circuit_quadrature_map(circuit)
        want = finite_squeezing_map(R, params.r_a, params.r_b)
        assert max_coefficient_difference(got, want) < 1e-9

    def test_unequal_squeezing(self):
        params = GateParams(0.5, squeezing_db_a=-3.0, squeezing_db_b=-8.0)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        got = circuit_quadrature_map(circuit)
        assert max_coefficient_difference(
            got, finite_squeezing_map(0.5, params.r_a, params.r_b)
        ) < 1e-9

    def test_r_one_identity_circuit(self):
        # G = 0 builds the whole apparatus: fully reflective arm beam
        # splitters and zero feedforward, which together act as the identity
        circuit = build_qnd_gate(GateParams(1.0), ImperfectionModel.ideal())
        assert len(circuit.elements) == 8
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 1.0, -2.0)
        out = run_covariance(circuit, state)
        np.testing.assert_allclose(out.mean, state.mean, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(out.cov, state.cov, rtol=0.0, atol=1e-12)

    def test_commutators_preserved_with_imperfections(self):
        # loss channels and dark noise are tracked with their own labels, so
        # the full map stays canonical
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        report = commutator_check(circuit_quadrature_map(circuit))
        assert report.passed, report.worst_defect

    def test_repeated_source_labels_rejected(self):
        # two independent loss vacua under one tag would merge into one label,
        # so no executor may accept the circuit
        with pytest.raises(ValueError, match="repeated source label 'xv_a'"):
            Circuit(elements=(Loss(0, 0.9, "a"), Loss(1, 0.9, "a")))
        # the first loss's automatic tag is its count, "1"
        with pytest.raises(ValueError, match="repeated source label 'xv_1'"):
            Circuit(elements=(Loss(0, 0.9), Loss(1, 0.9, "1")))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_oracle_mismatch_raises(self, warm, monkeypatch):
        real = circuit_module.gate_budget_map

        def skewed(*args, **kwargs):
            qmap = real(*args, **kwargs)
            qmap.matrix[2, qmap.columns.index("x1_in")] += 1e-6
            return qmap

        if warm:
            # the memo holds lowerings, not verdicts: an earlier passing
            # build of the same gate must not excuse the next one's check
            build_qnd_gate(GateParams(0.25), ImperfectionModel())
        monkeypatch.setattr(circuit_module, "gate_budget_map", skewed)
        with pytest.raises(CircuitConstructionError, match=r"coefficient error 1\.000e-06"):
            build_qnd_gate(GateParams(0.25), ImperfectionModel())

    def test_nan_oracle_error_raises(self, monkeypatch):
        # a NaN coefficient error compares false against the tolerance, so
        # the gate must fail unless the error is known to be within it
        real = circuit_module.gate_budget_map

        def poisoned(*args, **kwargs):
            qmap = real(*args, **kwargs)
            qmap.matrix[0, qmap.columns.index("x1_in")] = math.nan
            return qmap

        monkeypatch.setattr(circuit_module, "gate_budget_map", poisoned)
        with pytest.raises(CircuitConstructionError, match="coefficient error nan"):
            build_qnd_gate(GateParams(0.25), ImperfectionModel())


class TestGateMemo:
    def test_equal_builds_share_one_read_only_circuit(self):
        params, imp = GateParams.from_gain(1.3, squeezing_db_a=-4.0), ImperfectionModel()
        circuit = build_qnd_gate(params, imp)
        assert build_qnd_gate(params, imp) is circuit
        with pytest.raises(ValueError, match="read-only"):
            circuit.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_zero_db_ancilla_text_does_not_depend_on_build_order(self, first, second):
        # GateParams(R, 0.0) == GateParams(R, -0.0), so both share one memo entry
        circuit_module._gate.cache_clear()
        imp = ImperfectionModel()
        for db in (first, second):
            params = GateParams(0.25, squeezing_db_a=db, squeezing_db_b=db)
            text = build_qnd_gate(params, imp).to_text()
            assert "AncillaInjection r=0 " in text and "r=-0" not in text
            assert text == Circuit(circuit_module._gate_elements(params, imp)).to_text()


class TestRunCovariance:
    def test_empty_circuit(self):
        circuit = Circuit(elements=())
        state = gaussian.squeeze(gaussian.vacuum_state(2), 0, 0.3)
        out = run_covariance(circuit, state)
        assert np.allclose(out.cov, state.cov)

    def test_ideal_limit(self):
        params = GateParams.from_gain(1.0, squeezing_db_a=-60.0, squeezing_db_b=-60.0)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        out = run_covariance(circuit, gaussian.vacuum_state(2))
        assert out.cov[2, 2] == pytest.approx(2.0, abs=1e-3)
        assert out.cov[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_lossless_minus5db_benchmarks(self):
        params = GateParams.from_gain(1.0)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        out = run_covariance(circuit, gaussian.vacuum_state(2))
        assert out.cov[0, 0] == pytest.approx(1.14142, abs=1e-5)
        assert out.cov[2, 2] == pytest.approx(2.05402, abs=1e-5)
        assert out.cov[3, 3] == pytest.approx(1.14142, abs=1e-5)
        assert out.cov[1, 1] == pytest.approx(2.05402, abs=1e-5)

    def test_vacuum_ancilla_probe_variance(self):
        params = GateParams(0.25, squeezing_db_a=0.0, squeezing_db_b=0.0)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        out = run_covariance(circuit, gaussian.vacuum_state(2))
        assert out.cov[2, 2] == pytest.approx(3.40, abs=1e-9)

    @pytest.mark.parametrize("amplitude", [0.5, 3.0, 10.0])
    def test_mean_transfer_gain(self, amplitude):
        params = GateParams(0.25)
        circuit = build_qnd_gate(params, ImperfectionModel.ideal())
        state = gaussian.displace(gaussian.vacuum_state(2), 0, amplitude, 0.0)
        out = run_covariance(circuit, state)
        assert out.mean[2] == pytest.approx(params.gain * amplitude, abs=1e-9)
        assert out.mean[0] == pytest.approx(amplitude, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        circuit = build_qnd_gate(GateParams(0.5), ImperfectionModel.ideal())
        with pytest.raises(ValueError):
            run_covariance(circuit, gaussian.vacuum_state(3))

    def test_matches_extracted_map_with_imperfections(self):
        # two independent execution routes must produce the same moments,
        # including loss vacua and dark-noise bookkeeping
        params = GateParams.from_gain(1.5)
        circuit = build_qnd_gate(params, ImperfectionModel())
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 4.0, 0.0)
        out = run_covariance(circuit, state)
        qmap = circuit_quadrature_map(circuit)
        m = np.array([{"x1_in": 4.0}.get(c, 0.0) for c in qmap.columns])
        assert np.allclose(out.mean, qmap.matrix @ m, atol=1e-10)
        assert np.allclose(out.cov, moments_from_map(qmap), atol=1e-10)

    def test_checked_run_checks_each_step(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        out = run_covariance_checked(circuit, gaussian.vacuum_state(2))
        physicality.assert_physical(out)

    def test_checked_run_evaluates_every_intermediate_state(self, monkeypatch):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        checked = []
        monkeypatch.setattr(physicality, "assert_physical", lambda s: checked.append(s.n_modes))
        run_covariance_checked(circuit, gaussian.vacuum_state(2))
        # the input, then one state per element; ancillas show as a third mode
        assert len(checked) == len(circuit.elements) + 1
        assert checked[0] == checked[-1] == 2
        assert max(checked) == 3


def _added_noise(circuit):
    """Output variance beyond what the system-input coefficients account for."""
    qmap = circuit_quadrature_map(circuit)
    system = ("x1_in", "p1_in", "x2_in", "p2_in")
    noise = {}
    for key, row in zip(("x1_out", "p1_out", "x2_out", "p2_out"), qmap.matrix):
        total = float(row @ row)
        carried = sum(row[qmap.columns.index(s)] ** 2 for s in system)
        noise[key] = total - carried
    return noise


class TestImperfectionsOnlyDegrade:
    @pytest.mark.parametrize(
        "override",
        [
            {"propagation_loss_per_main_mode": 0.07},
            {"detector_quantum_efficiency": 0.99},
            {"visibility": 0.98},
            {"dark_noise_dB_below_shot": 17.0},
            {"displacement_coupler_loss": 0.01},
            {"feedforward_electronic_gain_error": 0.02},
            {"extra_in_loop_loss": 0.05},
        ],
    )
    def test_single_imperfection_adds_noise(self, override):
        params = GateParams.from_gain(1.0)
        baseline = _added_noise(build_qnd_gate(params, ImperfectionModel.ideal()))
        imp = replace(ImperfectionModel.ideal(), **override)
        degraded = _added_noise(build_qnd_gate(params, imp))
        for key in baseline:
            assert degraded[key] >= baseline[key] - 1e-12


class TestRunTrajectory:
    def test_no_homodyne_matches_covariance(self):
        circuit = Circuit(
            elements=(
                BeamSplitter(0, 1, 0.3),
                Loss(0, 0.9),
            )
        )
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, 1.0)
        deterministic = run_covariance(circuit, state)
        shot, log = run_trajectory(circuit, state, trajectory_generator(1, 0))
        assert log.size == 0
        assert np.allclose(shot.mean, deterministic.mean, atol=1e-12)
        assert np.allclose(shot.cov, deterministic.cov, atol=1e-12)

    def test_fixed_seed_bit_identical(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        state = gaussian.vacuum_state(2)
        a_state, a_log = run_trajectory(circuit, state, trajectory_generator(99, 3))
        b_state, b_log = run_trajectory(circuit, state, trajectory_generator(99, 3))
        assert np.array_equal(a_log, b_log)
        assert np.array_equal(a_state.mean, b_state.mean)

    def test_outcome_log_length(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel.ideal())
        _, log = run_trajectory(circuit, gaussian.vacuum_state(2), trajectory_generator(5, 0))
        assert log.shape == (2,)  # one homodyne per arm

    def test_ensemble_mean_converges_to_covariance(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel.ideal())
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, 0.0)
        target = run_covariance(circuit, state)
        n = 2000
        means = np.array(
            [
                run_trajectory(circuit, state, trajectory_generator(11, i))[0].mean
                for i in range(n)
            ]
        )
        se = means.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(means.mean(axis=0) - target.mean) < 5 * se + 1e-9)


class TestCircuitValidation:
    def test_bad_mode_index_rejected(self):
        with pytest.raises(ValueError):
            Circuit(elements=(BeamSplitter(0, 2, 0.5),))

    def test_feedforward_needs_distinct_modes(self):
        with pytest.raises(ValueError):
            Circuit(elements=(HomodyneFeedforward(0, 0.0, 0, "x", 1.0),))

    def test_indices_tracked_through_removal(self):
        # after the homodyne removes mode 0 only one mode remains
        with pytest.raises(ValueError):
            Circuit(
                elements=(
                    HomodyneFeedforward(0, 0.0, 1, "x", 1.0),
                    BeamSplitter(0, 1, 0.5),
                )
            )

    def test_bad_beam_splitter_signs_rejected(self):
        with pytest.raises(ValueError):
            Circuit(elements=(BeamSplitter(0, 1, 0.5, signs=(1, 1, 1, 1)),))

    @pytest.mark.parametrize(
        "elements",
        [(Loss(0, 1.5, "det"), HomodyneFeedforward(0, 0.0, 1, "x", 1.0)),
         (HomodyneFeedforward(0, 0.0, 1, "x", 1.0, dark_variance=-0.1),)],
    )
    def test_bad_detector_rejected(self, elements):
        with pytest.raises(ValueError):
            Circuit(elements=elements)

    def test_dark_variance_is_keyword_only(self):
        # an efficiency passed in the old sixth place must not become dark noise
        with pytest.raises(TypeError):
            HomodyneFeedforward(0, 0.0, 1, "x", 1.0, 0.5)

    def test_total_loss_leaves_vacuum(self):
        state = gaussian.squeeze(gaussian.displace(gaussian.vacuum_state(2), 0, 1.5, -0.5), 0, 0.8)
        out = run_covariance_checked(Circuit((Loss(0, 0.0),)), state)
        assert np.array_equal(out.mean[:2], [0.0, 0.0])
        assert np.array_equal(out.cov[:2, :2], np.eye(2))
        np.testing.assert_array_equal(out.cov[2:, 2:], state.cov[2:, 2:])

    @pytest.mark.parametrize(
        "field,value",
        # an e**(2|r|) that overflows once built a circuit whose covariance was inf
        # (r = 400), or raised an OverflowError from math.exp (r = 710)
        [("r", math.nan), ("angle", math.nan), ("r", 400.0), ("r", -400.0), ("r", 710.0), ("r", 1000.0)],
    )
    def test_bad_ancilla_rejected(self, field, value):
        kwargs = {"r": 0.3, "angle": 0.0, "label": "A", field: value}
        with pytest.raises(ValueError, match="position 0"):
            Circuit(elements=(AncillaInjection(**kwargs),))

    def test_deepest_ancilla_has_a_finite_covariance(self):
        out = run_covariance_checked(Circuit((AncillaInjection(354.0, 0.0, "A"),), 1), gaussian.vacuum_state(1))
        assert np.all(np.isfinite(out.cov))
        assert out.cov[3, 3] == pytest.approx(math.exp(708.0), rel=1e-12)

    def test_overflowing_row_rejected(self):
        # every element is in bounds, but feeding the anti-squeezed readout forward with gain 3
        # gives mode 0 a p variance of 9 e**708, past the float range
        with pytest.raises(ValueError, match="infinite vacuum variance"):
            Circuit(OVERFLOWING_ROW, 1)

    def test_rows_are_bounded_one_at_a_time(self):
        # each row's squared norm is 7.5e307, but their total is not finite
        circuit = Circuit(FINITE_ROWS, 1)
        assert not math.isfinite(np.vdot(circuit.matrix, circuit.matrix))
        assert np.all(np.isfinite(run_covariance(circuit, gaussian.vacuum_state(1)).cov))

    @pytest.mark.parametrize("field,value", [("angle", math.nan), ("dark_variance", math.inf)])
    def test_non_finite_homodyne_rejected(self, field, value):
        kwargs = {"angle": 0.0, "dark_variance": 0.0, field: value}
        with pytest.raises(ValueError, match="position 0"):
            Circuit(elements=(HomodyneFeedforward(0, target_mode=1, target_quadrature="x",
                                                  gain=1.0, **kwargs),))

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_bad_input_mode_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_input_modes"):
            Circuit((), n_input_modes=n)

    def test_lowering_is_outside_equality_hash_and_repr(self):
        first, second = Circuit(EVERY_KIND), Circuit(list(EVERY_KIND))
        assert first is not second and first == second and hash(first) == hash(second)
        assert repr(first) == f"Circuit(elements={EVERY_KIND!r}, n_input_modes=2)"
        columns, matrix, n_output_modes, n_readouts = circuit_module._lower(EVERY_KIND, 2)
        assert (first.columns, first.n_output_modes, first.n_readouts) == (
            columns, n_output_modes, n_readouts
        )
        assert first.matrix.tobytes() == matrix.tobytes() and not first.matrix.flags.writeable

    def test_output_mode_count(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        assert circuit.n_output_modes == 2
        program = compile_trajectory(circuit, gaussian.vacuum_state(2))
        _, readouts = program.run_means(np.zeros(program.draws_per_shot))
        assert readouts.shape == (2,)


GOLDEN_TEXT = """\
Circuit n_input_modes=2
BeamSplitter i=0 j=1 reflectivity=0.8 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(1,-1,1,1)
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-1.73205080757 dark_variance=0
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(-1,-1,1,-1)
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=1.73205080757 dark_variance=0
BeamSplitter i=0 j=1 reflectivity=0.2 signs=(-1,-1,1,-1)"""


# the default budget with each main-mode loss placement, and the R = 1
# identity gate, which keeps the whole apparatus and its budget
GOLDEN_BUDGET_TEXT = {
    "pre_entry": """\
Circuit n_input_modes=2
Loss mode=0 eta=0.93 tag=main1
Loss mode=1 eta=0.93 tag=main2
BeamSplitter i=0 j=1 reflectivity=0.8 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(1,-1,1,1)
Loss mode=2 eta=0.99 tag=couplerA
Loss mode=0 eta=0.950796 tag=detA
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-1.73205080757 dark_variance=0.0199526231497
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(-1,-1,1,-1)
Loss mode=2 eta=0.99 tag=couplerB
Loss mode=0 eta=0.950796 tag=detB
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=1.73205080757 dark_variance=0.0199526231497
BeamSplitter i=0 j=1 reflectivity=0.2 signs=(-1,-1,1,-1)""",
    "post_exit": """\
Circuit n_input_modes=2
BeamSplitter i=0 j=1 reflectivity=0.8 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(1,-1,1,1)
Loss mode=2 eta=0.99 tag=couplerA
Loss mode=0 eta=0.950796 tag=detA
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-1.73205080757 dark_variance=0.0199526231497
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(-1,-1,1,-1)
Loss mode=2 eta=0.99 tag=couplerB
Loss mode=0 eta=0.950796 tag=detB
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=1.73205080757 dark_variance=0.0199526231497
BeamSplitter i=0 j=1 reflectivity=0.2 signs=(-1,-1,1,-1)
Loss mode=0 eta=0.93 tag=main1
Loss mode=1 eta=0.93 tag=main2""",
}
# "in_arms" is the post-exit channel and builds the post-exit circuit
GOLDEN_BUDGET_TEXT["in_arms"] = GOLDEN_BUDGET_TEXT["post_exit"]

GOLDEN_IDENTITY_TEXT = """\
Circuit n_input_modes=2
BeamSplitter i=0 j=1 reflectivity=0.5 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A
BeamSplitter i=2 j=0 reflectivity=1 signs=(1,-1,1,1)
Loss mode=2 eta=0.99 tag=couplerA
Loss mode=0 eta=0.950796 tag=detA
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-0 dark_variance=0.0199526231497
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B
BeamSplitter i=2 j=0 reflectivity=1 signs=(-1,-1,1,-1)
Loss mode=2 eta=0.99 tag=couplerB
Loss mode=0 eta=0.950796 tag=detB
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=0 dark_variance=0.0199526231497
BeamSplitter i=0 j=1 reflectivity=0.5 signs=(-1,-1,1,-1)
Loss mode=0 eta=0.93 tag=main1
Loss mode=1 eta=0.93 tag=main2"""

# all four element kinds, an auto-tagged loss and a detector loss before
# the homodyne
EVERY_KIND = (
    AncillaInjection(0.3, 0.25, "C"),
    BeamSplitter(0, 2, 0.4),
    Loss(1, 0.9),
    Loss(2, 0.95, "det"),
    HomodyneFeedforward(2, 0.5, 1, "p", -0.75, dark_variance=0.01),
)

# on one input mode: an ancilla near the squeezing bound whose anti-squeezed readout is fed
# forward with gain 3, and one mixed into three rows whose squared norms, 7.5e307 each, sum
# past the float range
OVERFLOWING_ROW = (AncillaInjection(354.0, 0.0, "A"), HomodyneFeedforward(1, math.pi / 2, 0, "p", 3.0))
FINITE_ROWS = (AncillaInjection(354.8, math.pi / 2, "A"), BeamSplitter(0, 1, 0.5), HomodyneFeedforward(1, 0.0, 0, "x", 0.0))

GOLDEN_EVERY_KIND_TEXT = """\
Circuit n_input_modes=2
AncillaInjection r=0.3 angle=0.25 label=C
BeamSplitter i=0 j=2 reflectivity=0.4 signs=(1,1,-1,1)
Loss mode=1 eta=0.9 tag=
Loss mode=2 eta=0.95 tag=det
HomodyneFeedforward measured_mode=2 angle=0.5 target_mode=1 target_quadrature=p gain=-0.75 dark_variance=0.01"""


# the builder's element lists over gains, unequal squeezings (0 dB among
# them) and budgets, pinned by the sha256 of their repr: exact floats, where
# the golden texts print 12 digits
_PINNED_GATES = [
    GateParams.from_gain(gain, squeezing_db_a=db_a, squeezing_db_b=db_b)
    for gain in (0.0, 0.5, 1.0, 1.5, 2.5)
    for db_a, db_b in ((-7.0, -3.0), (0.0, -10.0), (-5.0, 0.0))
]
_PINNED_BUDGETS = {
    "ideal": ImperfectionModel.ideal(),
    "default": ImperfectionModel(),
    "pre_entry": ImperfectionModel(loss_placement="pre_entry"),
    "in_arms": ImperfectionModel(loss_placement="in_arms"),
    "coupler loss 0": ImperfectionModel(displacement_coupler_loss=0.0),
    "dark noise inf": ImperfectionModel(dark_noise_dB_below_shot=math.inf),
    "gain error +0.02": ImperfectionModel(feedforward_electronic_gain_error=0.02),
    "gain error -0.02": ImperfectionModel(feedforward_electronic_gain_error=-0.02),
    "in-loop loss 0.03": ImperfectionModel(extra_in_loop_loss=0.03),
}
GATE_ELEMENTS_SHA256 = {
    "ideal": "1c536a48987f4e554b6271b34ad8995e09936e1a617ac5e6a021987203754ca8",
    "default": "56783997a0a39c564353c774ccad1fefac6c69f1e19839fbcda7007f88867124",
    "pre_entry": "b507a55126f7a10fcec2e89ff4a36f9a725f27bc0ed74286c902da66b9980062",
    # "in_arms" builds the post-exit circuit, the default budget's
    "in_arms": "56783997a0a39c564353c774ccad1fefac6c69f1e19839fbcda7007f88867124",
    "coupler loss 0": "23027320f8a2ed7b1094e0cf8917a4daf4b1213bb71f33c151f15a55857993ac",
    "dark noise inf": "27ffc89c4f35a7fabbaa11b2057ea1700885aba6c7ec24d0ecb2e97fb80359de",
    "gain error +0.02": "08c1a944da1ce5b7bd62b00c7da636d45a834c5e48614f38641fd3e97065713c",
    "gain error -0.02": "cc773237c8ba0de8384044e0e94f8fc80b041be3311cd3b7b3f8673e1b18fd41",
    "in-loop loss 0.03": "7a9ab228514ecd6557d1c52250322423e73881ca914624e2c75f58dcad46b932",
}


@pytest.mark.parametrize("budget", list(_PINNED_BUDGETS))
def test_gate_element_lists_are_pinned(budget):
    imp = _PINNED_BUDGETS[budget]
    text = "\n".join(repr(circuit_module._gate_elements(params, imp)) for params in _PINNED_GATES)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GATE_ELEMENTS_SHA256[budget]


# the same builds' lowered matrices, shape and bytes, as the per-layout plan
# sums them with quarter turns read exactly: a refactor of the element model
# or the lowering must leave every one of them unchanged.  Recorded again when
# the all-zero ``unit`` column went: each matrix is the one before with that
# column deleted, byte for byte; and when the impure-ancilla gates left the
# list: the pure gates' matrices are unchanged, byte for byte
GATE_MATRIX_SHA256 = {
    "ideal": "73e8c14f817fd6aef1ff09e9489b4ff85f785aefc61e6599126081bdda2a066c",
    "default": "530a366635b10f1e3bb9b4dd859814467e41fd20c872a8ed4b900aa29dd3e579",
    "pre_entry": "35970cb7cca1c66af2c5cb62b5b549841cfb1f049eb66c7b67e04372fec65549",
    # the post-exit circuit again
    "in_arms": "530a366635b10f1e3bb9b4dd859814467e41fd20c872a8ed4b900aa29dd3e579",
    "coupler loss 0": "44944a56f6fb89832bc1ed4ceba51a09f263a3db34fe9d9c006102fd7c143c1e",
    "dark noise inf": "271ab107d52ccf9efcd72f45f619cfba71192892e7095252fd04fa051b67d953",
    "gain error +0.02": "763183522aeaf9001796afd7ef5e7796b00b1358c2dd9d3dcd30d9a8ce8d09f6",
    "gain error -0.02": "c0675831dca9799807bf38519bed7f79fc786bf645082caaed313c3f41341e36",
    "in-loop loss 0.03": "fc50a8a4426df3d770a4469b754c73293513cd265b800799b87e04ea61b15f72",
}


@pytest.mark.parametrize("budget", list(_PINNED_BUDGETS))
def test_gate_matrices_are_pinned(budget):
    digest = hashlib.sha256()
    for params in _PINNED_GATES:
        matrix = build_qnd_gate(params, _PINNED_BUDGETS[budget]).matrix
        digest.update(repr(matrix.shape).encode("utf-8"))
        digest.update(matrix.tobytes())
    assert digest.hexdigest() == GATE_MATRIX_SHA256[budget]


@pytest.mark.parametrize("budget", list(_PINNED_BUDGETS))
def test_gate_map_is_the_lowering_as_it_stands(budget):
    # the lowering is linear, with no constant column, so the coefficient map
    # is the circuit's own columns and first four rows
    for params in _PINNED_GATES:
        circuit = build_qnd_gate(params, _PINNED_BUDGETS[budget])
        assert "unit" not in circuit.columns
        assert circuit.columns[:4] == quadexpr_module.INPUT_COLUMNS
        qmap, want = circuit_quadrature_map(circuit), QuadratureMap(circuit.columns, circuit.matrix[:4])
        assert qmap.columns == want.columns
        assert qmap.matrix.tobytes() == want.matrix.tobytes()


def _reach(linked: np.ndarray, columns: list) -> np.ndarray:
    """The columns joined to ``columns`` through rows with nonzero entries in both, transitively."""
    reached = np.isin(np.arange(linked.shape[1]), columns)
    while True:
        grown = reached | linked[linked[:, reached].any(axis=1)].any(axis=0)
        if (grown == reached).all():
            return reached
        reached = grown


@pytest.mark.parametrize("budget", list(_PINNED_BUDGETS))
def test_gate_quadratures_decouple_bit_for_bit(budget):
    # the gate acts on x and p separately: no row, output, readout or observed,
    # joins an x input to a p input, not even by a rounding error, so the
    # sources fall into two disjoint sectors
    for params in _PINNED_GATES:
        circuit = build_qnd_gate(params, _PINNED_BUDGETS[budget])
        linked = circuit.matrix != 0.0
        x_sector, p_sector = _reach(linked, [0, 2]), _reach(linked, [1, 3])
        assert not (x_sector & p_sector).any()
        # dark noise, labelled by neither, falls on either side
        names = np.array(circuit.columns)
        assert not any(name.startswith("p") for name in names[x_sector])
        assert not any(name.startswith("x") for name in names[p_sector])


class TestSerialization:
    def test_golden_text(self):
        circuit = build_qnd_gate(GateParams(0.25), ImperfectionModel.ideal())
        assert circuit.to_text() == GOLDEN_TEXT

    @pytest.mark.parametrize("placement", sorted(GOLDEN_BUDGET_TEXT))
    def test_golden_text_per_loss_placement(self, placement):
        circuit = build_qnd_gate(GateParams(0.25), ImperfectionModel(loss_placement=placement))
        assert circuit.to_text() == GOLDEN_BUDGET_TEXT[placement]

    def test_golden_text_identity_gate(self):
        circuit = build_qnd_gate(GateParams(1.0), ImperfectionModel())
        assert circuit.to_text() == GOLDEN_IDENTITY_TEXT

    def test_golden_text_every_element_kind(self):
        assert Circuit(EVERY_KIND).to_text() == GOLDEN_EVERY_KIND_TEXT

    def test_reflectivities_appear_in_caption_order(self):
        circuit = build_qnd_gate(GateParams(0.25), ImperfectionModel.ideal())
        values = [el.reflectivity for el in circuit.elements if isinstance(el, BeamSplitter)]
        assert values == [0.8, 0.25, 0.25, 0.2]  # 1/(1+R), R, R, R/(1+R)


_LOSS = st.floats(0.0, 1.0, exclude_max=True)
_EFFICIENCY = st.floats(0.0, 1.0, exclude_min=True)
_BUDGETS = st.just(ImperfectionModel.ideal()) | st.builds(
    ImperfectionModel,
    propagation_loss_per_main_mode=_LOSS,
    detector_quantum_efficiency=_EFFICIENCY,
    visibility=_EFFICIENCY,
    dark_noise_dB_below_shot=st.floats(0.0, 60.0) | st.just(math.inf),
    displacement_coupler_loss=_LOSS,
    feedforward_electronic_gain_error=st.floats(-1.0, 1.0),
    extra_in_loop_loss=_LOSS,
    loss_placement=st.sampled_from(["post_exit", "pre_entry", "in_arms"]),
)
_GATES = st.builds(
    GateParams,
    R=st.floats(0.05, 1.0),
    squeezing_db_a=st.floats(-15.0, 10.0),
    squeezing_db_b=st.floats(-15.0, 10.0),
)


# the default budget and two budgets away from it, one with the calibration knob set
_PLACEMENT_BUDGETS = [
    ImperfectionModel(),
    ImperfectionModel(0.12, 0.95, 0.96, 12.0, 0.03, -0.03, 0.05),
    ImperfectionModel(0.02, 1.0, 1.0, math.inf, 0.0, 0.02, 0.01),
]


class TestLossPlacement:
    @pytest.mark.parametrize("placement", ["post_exit", "pre_entry", "in_arms"])
    def test_placements_execute(self, placement):
        imp = replace(ImperfectionModel(), loss_placement=placement)
        circuit = build_qnd_gate(GateParams.from_gain(1.0), imp)
        out = run_covariance_checked(circuit, gaussian.vacuum_state(2))
        assert out.n_modes == 2

    def test_placements_differ(self):
        covs = []
        for placement in ("post_exit", "pre_entry"):
            imp = replace(ImperfectionModel(), loss_placement=placement)
            circuit = build_qnd_gate(GateParams.from_gain(1.0), imp)
            covs.append(run_covariance(circuit, gaussian.vacuum_state(2)).cov)
        assert not np.allclose(covs[0], covs[1], atol=1e-6)

    @staticmethod
    def assert_in_arms_lowers_as_post_exit(params, budget):
        # equal losses on both modes commute with the exit beam splitter, so
        # "in_arms" builds the post-exit circuit itself
        in_arms, post_exit = (
            build_qnd_gate(params, replace(budget, loss_placement=placement))
            for placement in ("in_arms", "post_exit")
        )
        assert in_arms.columns == post_exit.columns
        assert np.array_equal(in_arms.matrix, post_exit.matrix)
        # bytes compare the sign of zero too
        assert in_arms.matrix.tobytes() == post_exit.matrix.tobytes()

    @pytest.mark.parametrize("budget", _PLACEMENT_BUDGETS)
    @pytest.mark.parametrize("gain", [0.0, 0.2, 1.0, 2.5])
    def test_in_arms_is_the_post_exit_channel(self, budget, gain):
        params = GateParams.from_gain(gain, squeezing_db_a=-7.0, squeezing_db_b=-3.0)
        self.assert_in_arms_lowers_as_post_exit(params, budget)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(params=_GATES, budget=_BUDGETS)
    def test_in_arms_is_the_post_exit_channel_on_random_budgets(self, params, budget):
        self.assert_in_arms_lowers_as_post_exit(params, budget)


class TestExecutorsAgree:
    """The covariance, trajectory and coefficient executors, without sampling."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(params=_GATES, imp=_BUDGETS, dx=st.floats(-5.0, 5.0), dp=st.floats(-5.0, 5.0))
    # readout noise above the measured quadrature's variance
    @example(
        params=GateParams(0.95, squeezing_db_a=10.0, squeezing_db_b=10.0),
        imp=ImperfectionModel(dark_noise_dB_below_shot=0.0),
        dx=1.0,
        dp=-2.0,
    )
    def test_three_executors_agree(self, params, imp, dx, dp):
        circuit = build_qnd_gate(params, imp)
        state = gaussian.displace(gaussian.vacuum_state(2), 0, dx, 0.0)
        state = gaussian.displace(state, 1, 0.0, dp)
        out = run_covariance(circuit, state)
        tol = 1e-9 * np.abs(out.cov).max()

        # law of total covariance: conditional covariance plus mean scatter
        program = compile_trajectory(circuit, state)
        gains = program.gains[:4]
        assert np.abs(program.final_cov + gains @ gains.T - out.cov).max() <= tol
        assert np.allclose(program.mean0[:4], out.mean, rtol=0.0, atol=1e-9)

        qmap = circuit_quadrature_map(circuit)
        m = np.array([{"x1_in": dx, "p2_in": dp}.get(c, 0.0) for c in qmap.columns])
        assert np.abs(moments_from_map(qmap) - out.cov).max() <= tol
        assert np.allclose(qmap.matrix @ m, out.mean, rtol=0.0, atol=1e-9)
        assert commutator_check(qmap).passed

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(params=_GATES, imp=_BUDGETS, seed=st.integers(0, 2**32 - 1))
    @example(
        params=GateParams(0.95, squeezing_db_a=10.0, squeezing_db_b=10.0),
        imp=ImperfectionModel(dark_noise_dB_below_shot=0.0),
        seed=7,
    )
    def test_sampled_ensemble_agrees_with_covariance(self, params, imp, seed):
        circuit = build_qnd_gate(params, imp)
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 1.0, -0.5)
        result = run_ensemble(circuit, state, 20_000, seed)
        target = run_covariance(circuit, state)
        assert z_score_report(result, target.mean, target.cov).max_z < 5.0


def _oracle_with(label, value, drop=None):
    """``finite_squeezing_map`` with one label added (coefficient in x2_out) or dropped."""

    def skewed(R, r_a, r_b):
        qmap = finite_squeezing_map(R, r_a, r_b)
        keep = [j for j, c in enumerate(qmap.columns) if c != drop]
        column = np.zeros((4, 1))
        column[2, 0] = value
        return QuadratureMap(
            tuple(qmap.columns[j] for j in keep) + (label,),
            np.hstack([qmap.matrix[:, keep], column]),
        )

    return skewed


_ORACLE_SKEWS = {
    "none": finite_squeezing_map,
    "extra label": _oracle_with("xZ0", 0.25),
    "dropped label": _oracle_with("xZ0", 0.0, drop="pB0"),
    "unit label": _oracle_with("unit", -0.5),
    "nan label": _oracle_with("xZ0", math.nan),
}


def _budget_map_with(label, value):
    """``gate_budget_map`` with one label added, its coefficient in x2_out."""
    real = circuit_module.gate_budget_map

    def skewed(*args, **kwargs):
        qmap = real(*args, **kwargs)
        column = np.zeros((4, 1))
        column[2, 0] = value
        return QuadratureMap(qmap.columns + (label,), np.hstack([qmap.matrix, column]))

    return skewed


class TestOracleComparison:
    """``oracle_error`` and the build check are one comparison of validated maps.

    Both are ``max_coefficient_difference`` of the circuit's map against a
    closed form: ``finite_squeezing_map`` for the oracle, ``gate_budget_map``
    for the build.
    """

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_label_only_the_oracle_has_counts_in_full(self, warm, monkeypatch):
        params, imp = GateParams(0.25), ImperfectionModel()
        circuit_module._gate.cache_clear()
        if warm:
            build_qnd_gate(params, imp)
        monkeypatch.setattr(circuit_module, "finite_squeezing_map", _ORACLE_SKEWS["extra label"])
        assert circuit_module.oracle_error(params) == 0.25
        monkeypatch.setattr(circuit_module, "gate_budget_map", _budget_map_with("xZ0", 0.25))
        with pytest.raises(CircuitConstructionError, match=r"coefficient error 2\.500e-01"):
            build_qnd_gate(params, imp)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_nan_in_a_label_only_the_oracle_has_fails(self, warm, monkeypatch):
        # Python's max(1.0, nan) is 1.0, so the maximum must propagate NaN
        params, imp = GateParams(0.25), ImperfectionModel()
        circuit_module._gate.cache_clear()
        if warm:
            build_qnd_gate(params, imp)
        monkeypatch.setattr(circuit_module, "finite_squeezing_map", _ORACLE_SKEWS["nan label"])
        assert math.isnan(circuit_module.oracle_error(params))
        monkeypatch.setattr(circuit_module, "gate_budget_map", _budget_map_with("xZ0", math.nan))
        with pytest.raises(CircuitConstructionError, match="coefficient error nan"):
            build_qnd_gate(params, imp)

    def test_map_is_the_circuit_columns_and_output_rows(self):
        circuit = Circuit((Loss(0, 0.8, "a"), BeamSplitter(0, 1, 0.3)))
        qmap = circuit_quadrature_map(circuit)
        assert qmap.columns == circuit.columns == ("x1_in", "p1_in", "x2_in", "p2_in", "xv_a", "pv_a")
        assert qmap.matrix.tobytes() == circuit.matrix[:4].tobytes()
        for other in (Circuit((), n_input_modes=1), Circuit((AncillaInjection(0.3, 0.0, "A"),))):
            with pytest.raises(ValueError, match="two-mode circuits ending with two modes"):
                circuit_quadrature_map(other)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(params=_GATES, skew=st.sampled_from(sorted(_ORACLE_SKEWS)))
    def test_matches_the_map_route_bit_for_bit(self, params, skew):
        oracle = _ORACLE_SKEWS[skew]
        lossless = Circuit(circuit_module._gate_elements(params, ImperfectionModel.ideal()))
        want = max_coefficient_difference(
            circuit_quadrature_map(lossless), oracle(params.R, params.r_a, params.r_b)
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(circuit_module, "finite_squeezing_map", oracle)
            got = circuit_module.oracle_error(params)
        assert type(got) is float
        assert got.hex() == want.hex()

    def test_repeated_label_in_the_budget_map_fails(self, fresh_gates, monkeypatch):
        # a matrix indexed by a repeated label would drop one copy from the
        # comparison, so the map itself must refuse it
        real = circuit_module.gate_budget_map

        def doubled(*args):
            qmap = real(*args)
            garbage = np.zeros((4, 1))
            garbage[0, 0] = 7.0
            return QuadratureMap(("x1_in",) + qmap.columns, np.hstack([garbage, qmap.matrix]))

        monkeypatch.setattr(circuit_module, "gate_budget_map", doubled)
        with pytest.raises(ValueError, match=r"repeated columns \['x1_in'\]"):
            build_qnd_gate(GateParams(0.25), ImperfectionModel())


class TestAlignmentMemo:
    """``max_coefficient_difference`` memoises label alignments, never differences."""

    def test_is_bounded(self):
        assert quadexpr_module._alignment.cache_info().maxsize == 64

    def test_one_entry_per_layout_pair_and_repeat_builds_hit(self):
        quadexpr_module._alignment.cache_clear()
        budgets = [ImperfectionModel.ideal()] + [
            replace(ImperfectionModel(), loss_placement=p) for p in ("post_exit", "in_arms", "pre_entry")
        ]

        def check_all() -> set:
            pairs = set()
            for R in ORACLE_R_GRID:
                for db in ORACLE_DB_GRID:
                    params = GateParams(R, squeezing_db_a=db, squeezing_db_b=db)
                    maps = [circuit_quadrature_map(build_qnd_gate(params, imp)) for imp in budgets]
                    for qmap, imp in zip(maps, budgets):
                        pairs.add((qmap.columns, gate_budget_map(params, imp).columns))
                    circuit_module.oracle_error(params)
                    # budgets[0] is the ideal one, whose circuit the oracle checks
                    pairs.add((maps[0].columns, finite_squeezing_map(R, params.r_a, params.r_b).columns))
            return pairs

        pairs = check_all()
        first = quadexpr_module._alignment.cache_info()
        assert first.currsize == first.misses == len(pairs) <= 4
        n_checks = len(ORACLE_R_GRID) * len(ORACLE_DB_GRID) * (len(budgets) + 1)
        assert first.hits == n_checks - len(pairs)
        check_all()
        again = quadexpr_module._alignment.cache_info()
        assert (again.currsize, again.misses) == (first.currsize, first.misses)
        assert again.hits == first.hits + n_checks

    def test_index_is_read_only_and_places_each_label(self):
        a = circuit_quadrature_map(build_qnd_gate(GateParams(0.25), ImperfectionModel()))
        b = finite_squeezing_map(0.25, 0.3, 0.4)
        b = QuadratureMap(b.columns + ("xZ0",), np.hstack([b.matrix, np.ones((4, 1))]))
        width, index = quadexpr_module._alignment(a.columns, b.columns)
        labels = a.columns + ("xZ0",)
        assert width == len(labels)
        assert [labels[j] for j in index] == list(b.columns)
        assert not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0


_DEEP_GATES = st.builds(
    GateParams,
    # below about 1e-6 the lowering's own entry beam splitter, sqrt(1 - 1/(1+R)),
    # rounds beyond 1e-12 of the row scale, so the floor keeps the pin on the map
    R=st.floats(1e-6, 1.0),
    squeezing_db_a=st.floats(-60.0, 0.0),
    squeezing_db_b=st.floats(-60.0, 0.0),
)

_ELEMENTS = circuit_module._gate_elements

# lossy-only defects: the lossless gate of each is the real one
_LOSSY_MUTANTS = {
    "couplerA loss dropped": lambda params, imp: [
        el for el in _ELEMENTS(params, imp) if not (type(el) is Loss and el.tag == "couplerA")
    ],
    "gain error sign flipped": lambda params, imp: _ELEMENTS(
        params, replace(imp, feedforward_electronic_gain_error=-imp.feedforward_electronic_gain_error)
    ),
    "main1 loss on mode 1": lambda params, imp: [
        replace(el, mode=1) if type(el) is Loss and el.tag == "main1" else el
        for el in _ELEMENTS(params, imp)
    ],
    "detector efficiency without visibility": lambda params, imp: [
        replace(el, eta=imp.detector_quantum_efficiency)
        if type(el) is Loss and el.tag in ("detA", "detB") else el
        for el in _ELEMENTS(params, imp)
    ],
}


@pytest.fixture
def fresh_gates():
    """An empty gate memo before and after, so no altered circuit outlives its test."""
    circuit_module._gate.cache_clear()
    yield
    circuit_module._gate.cache_clear()


class TestBudgetMap:
    """``quadexpr.gate_budget_map`` against the lowering it checks."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(params=_DEEP_GATES, imp=_BUDGETS)
    @example(params=GateParams(1.0, -60.0, -60.0), imp=ImperfectionModel())
    @example(params=GateParams(1.0), imp=ImperfectionModel(loss_placement="pre_entry"))
    def test_matches_the_lowering(self, params, imp):
        lowered = Circuit(_ELEMENTS(params, imp))
        qmap = gate_budget_map(params, imp)
        columns, matrix = qmap.columns, qmap.matrix
        index = [lowered.columns.index(label) for label in columns if label in lowered.columns]
        # a label the circuit lacks belongs to an element the budget leaves out
        absent = [j for j, label in enumerate(columns) if label not in lowered.columns]
        assert not matrix[:, absent].any()
        rows = lowered.matrix[:4]
        expected = np.zeros_like(rows)
        expected[:, index] = np.delete(matrix, absent, axis=1)
        scale = np.abs(rows).max(axis=1, keepdims=True)
        assert np.all(np.abs(rows - expected) <= 1e-12 * scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(params=_GATES, imp=_BUDGETS)
    @example(params=GateParams(0.25), imp=ImperfectionModel(displacement_coupler_loss=0.0))
    @example(params=GateParams(0.25), imp=ImperfectionModel(detector_quantum_efficiency=1.0, visibility=1.0))
    @example(params=GateParams(0.25), imp=ImperfectionModel(loss_placement="post_exit"))
    @example(params=GateParams(0.25), imp=ImperfectionModel(loss_placement="pre_entry"))
    @example(params=GateParams(0.25), imp=ImperfectionModel(loss_placement="in_arms"))
    def test_source_labels_do_not_depend_on_the_budget(self, params, imp):
        columns = gate_budget_map(params, imp).columns
        assert columns == gate_budget_map(GateParams(0.25), ImperfectionModel()).columns
        # a detector loss's vacuum in the quadrature its homodyne discards never
        # reaches the outputs, so the map names only its partner: pv_detA, xv_detB
        partners = {"xp"[label[0] == "x"] + label[1:] for label in columns if label[0] in "xp"}
        circuit = build_qnd_gate(params, imp)
        assert set(circuit.columns) <= {*quadexpr_module.INPUT_COLUMNS, *columns, *partners}

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(params=_DEEP_GATES)
    @example(params=GateParams(1.0, -60.0, -60.0))
    def test_ideal_budget_is_the_finite_squeezing_map(self, params):
        qmap = gate_budget_map(params, ImperfectionModel.ideal())
        columns, matrix = qmap.columns, qmap.matrix
        oracle = finite_squeezing_map(params.R, params.r_a, params.r_b)
        index = [columns.index(label) for label in oracle.columns]
        np.testing.assert_allclose(matrix[:, index], oracle.matrix, rtol=1e-15, atol=0.0)
        assert not np.delete(matrix, index, axis=1).any()

    def test_every_grid_build_passes_on_random_budgets(self):
        # every field drawn in range, all three placements
        rng = np.random.default_rng(37)
        budgets = [ImperfectionModel.ideal(), ImperfectionModel()] + [
            ImperfectionModel(
                propagation_loss_per_main_mode=rng.uniform(0.0, 0.9),
                detector_quantum_efficiency=rng.uniform(0.1, 1.0),
                visibility=rng.uniform(0.1, 1.0),
                dark_noise_dB_below_shot=math.inf if rng.random() < 0.2 else rng.uniform(0.0, 40.0),
                displacement_coupler_loss=rng.uniform(0.0, 0.9),
                feedforward_electronic_gain_error=rng.uniform(-0.5, 0.5),
                extra_in_loop_loss=rng.uniform(0.0, 0.9),
                loss_placement=str(rng.choice(["post_exit", "pre_entry", "in_arms"])),
            )
            for _ in range(50)
        ]
        for R in ORACLE_R_GRID:
            for db in ORACLE_DB_GRID:
                params = GateParams(R, squeezing_db_a=db, squeezing_db_b=db)
                for imp in budgets:
                    build_qnd_gate(params, imp)

    def test_a_cold_lossy_build_lowers_once_and_every_call_checks(self, fresh_gates, monkeypatch):
        calls = {"_lower": 0, "max_coefficient_difference": 0}

        def counted(name):
            function = getattr(circuit_module, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(circuit_module, name, counted(name))
        params = GateParams.from_gain(1.3, squeezing_db_a=-6.0, squeezing_db_b=-4.0)
        first = build_qnd_gate(params, ImperfectionModel())
        assert calls == {"_lower": 1, "max_coefficient_difference": 1}
        # a memo hit lowers nothing and is checked again
        assert build_qnd_gate(params, ImperfectionModel()) is first
        assert calls == {"_lower": 1, "max_coefficient_difference": 2}

    @pytest.mark.parametrize("mutant", list(_LOSSY_MUTANTS))
    def test_lossy_defect_fails_the_build(self, mutant, fresh_gates, monkeypatch):
        imp = ImperfectionModel()
        if mutant == "gain error sign flipped":
            # the default budget's gain error is 0, whose sign cannot show
            imp = replace(imp, feedforward_electronic_gain_error=0.02)
        monkeypatch.setattr(circuit_module, "_gate_elements", _LOSSY_MUTANTS[mutant])
        with pytest.raises(CircuitConstructionError, match="coefficient error"):
            build_qnd_gate(GateParams.from_gain(1.0), imp)


# --------------------------------------------------------------------------
# the builder's one gadget, the measurement-induced squeezer of one arm


def _arm(quadrature: str, R: float, r: float) -> Circuit:
    """The lossless gadget alone on one input mode, its ancilla appended at index 1."""
    label = {"x": "A", "p": "B"}[quadrature]
    elements = circuit_module._squeezer_elements(quadrature, 1, label, r, R, ImperfectionModel.ideal())
    arm = Circuit(elements, n_input_modes=1)
    assert arm.columns == ("x1_in", "p1_in", f"x{label}0", f"p{label}0")
    assert arm.n_output_modes == 1
    return arm


def _composed_gate_map(R: float, r_a: float, r_b: float) -> QuadratureMap:
    """The lossless gate from its parts, without the builder: entry beam splitter,
    the x squeezer on path 1 and the p squeezer on path 2, exit beam splitter."""

    def splitter(reflectivity, signs):
        return Circuit((BeamSplitter(0, 1, reflectivity, signs),)).matrix

    # block-diagonal arms: each path's rows over the inputs, then over its ancilla
    paths, ancillas = np.zeros((4, 4)), np.zeros((4, 4))
    for k, (quadrature, r) in enumerate((("x", r_a), ("p", r_b))):
        rows = _arm(quadrature, R, r).matrix[:2]
        paths[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rows[:, :2]
        ancillas[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rows[:, 2:]
    entry = splitter(1.0 / (1.0 + R), (1, -1, 1, 1))
    exit_ = splitter(R / (1.0 + R), (-1, -1, 1, -1))
    columns = ("x1_in", "p1_in", "x2_in", "p2_in", "xA0", "pA0", "xB0", "pB0")
    return QuadratureMap(columns, exit_ @ np.hstack([paths @ entry, ancillas]))


# R from 1e-6, as for _DEEP_GATES: below it the lowered entry beam splitter,
# sqrt(1 - 1/(1+R)), rounds beyond 1e-12
_ARM_R = st.floats(1e-6, 1.0)
_ARM_DB = st.floats(-60.0, 0.0)


class TestSqueezerGadget:
    """``_squeezer_elements`` alone, and the gate's closed form derived from it."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(quadrature=st.sampled_from("xp"), R=_ARM_R, db=_ARM_DB)
    @example(quadrature="x", R=1.0, db=-60.0)
    @example(quadrature="p", R=1.0, db=0.0)
    @example(quadrature="x", R=0.3, db=-6.080122746645525)  # r = 0.7
    def test_one_arm_squeezes_its_quadrature_by_sqrt_r(self, quadrature, R, db):
        r = gaussian.squeeze_parameter_from_db(db)
        u, v = math.sqrt(R), math.sqrt(1.0 - R) * math.exp(-r)
        # rows x, p over x_in, p_in and the ancilla's x0, p0
        want = {
            "x": [[-u, 0.0, v, 0.0], [0.0, -1.0 / u, 0.0, 0.0]],
            "p": [[-1.0 / u, 0.0, 0.0, 0.0], [0.0, -u, 0.0, -v]],
        }[quadrature]
        assert np.abs(_arm(quadrature, R, r).matrix[:2] - want).max() <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(R=_ARM_R, db_a=_ARM_DB, db_b=_ARM_DB)
    @example(R=1.0, db_a=-60.0, db_b=0.0)
    @example(R=0.3, db_a=-6.080122746645525, db_b=-3.474355855226014)  # r = 0.7 and 0.4
    def test_composed_arms_are_the_gate_relations(self, R, db_a, db_b):
        r_a, r_b = (gaussian.squeeze_parameter_from_db(db) for db in (db_a, db_b))
        with pytest.MonkeyPatch.context() as patch:
            # the full builder takes no part
            for name in ("_gate_elements", "build_qnd_gate"):
                patch.setattr(circuit_module, name, None)
            composed = _composed_gate_map(R, r_a, r_b)
        oracle = finite_squeezing_map(R, r_a, r_b)
        # to 1e-12 of the largest coefficient, G = 1/sqrt(R) - sqrt(R), or of 1
        scale = max(1.0, np.abs(oracle.matrix).max())
        assert max_coefficient_difference(composed, oracle) <= 1e-12 * scale


# --------------------------------------------------------------------------
# the numeric walk that ``_lower`` replaced by its per-layout plan: the plan
# must give the same columns and counts and, since it sums the same products
# in its own order, the same matrix to 1e-15 of each row's largest entry; an
# invalid list must raise the same error, the first in element order


def _reference_lower(elements: tuple, n_input_modes: int) -> tuple:
    """``circuit._lower`` as one numeric walk, reading angles through ``_cos_sin``, kept as the reference."""
    if isinstance(n_input_modes, bool) or not isinstance(n_input_modes, Integral) or n_input_modes < 1:
        raise ValueError(f"n_input_modes must be a positive integer, got {n_input_modes!r}")
    # every element adds at most two source columns
    width = 2 * n_input_modes + 2 * len(elements)
    columns = [f"{q}{k + 1}_in" for k in range(n_input_modes) for q in "xp"]
    eye = np.eye(2 * n_input_modes, width)
    modes = [eye[2 * k : 2 * k + 2] for k in range(n_input_modes)]
    readouts, observed = [], []
    losses = darks = 0

    def sources(*labels) -> int:
        for label in labels:
            if label in columns:
                raise ValueError(f"repeated source label {label!r}")
            columns.append(label)
        return len(columns) - len(labels)

    for pos, el in enumerate(elements):
        n = len(modes)
        if isinstance(el, AncillaInjection):
            # e**(2|r|), the anti-squeezed variance, must be finite
            _require(abs(el.r) <= gaussian.MAX_SQUEEZE_PARAMETER and math.isfinite(el.angle), pos, el)
            c, s = circuit_module._cos_sin(el.angle)
            rot = np.array([[c, s], [-s, c]])
            rows = np.zeros((2, width))
            k = sources(f"x{el.label}0", f"p{el.label}0")
            rows[:, k : k + 2] = rot.T @ np.diag([math.exp(-el.r), math.exp(el.r)]) @ rot
            modes.append(rows)
        elif isinstance(el, BeamSplitter):
            s1, s2, s3, s4 = el.signs
            _require(el.i != el.j and 0 <= el.i < n and 0 <= el.j < n, pos, el)
            _require(0.0 <= el.reflectivity <= 1.0, pos, el)
            _require(set(el.signs) <= {-1, 1} and s1 * s2 == -s3 * s4, pos, el)
            t, r = math.sqrt(1.0 - el.reflectivity), math.sqrt(el.reflectivity)
            a, b = modes[el.i], modes[el.j]
            modes[el.i] = s1 * t * a + s2 * r * b
            modes[el.j] = s3 * r * a + s4 * t * b
        elif isinstance(el, Loss):
            _require(0 <= el.mode < n and 0.0 <= el.eta <= 1.0, pos, el)
            losses += 1
            suffix = el.tag or str(losses)
            k = sources(f"xv_{suffix}", f"pv_{suffix}")
            out = math.sqrt(el.eta) * modes[el.mode]
            out[0, k] = out[1, k + 1] = math.sqrt(1.0 - el.eta)
            modes[el.mode] = out
        elif isinstance(el, HomodyneFeedforward):
            _require(0 <= el.measured_mode < n and 0 <= el.target_mode < n, pos, el)
            _require(el.target_mode != el.measured_mode, pos, el)
            _require(el.target_quadrature in ("x", "p") and math.isfinite(el.gain), pos, el)
            _require(math.isfinite(el.angle) and 0.0 <= el.dark_variance < math.inf, pos, el)
            x, p = modes[el.measured_mode]
            c, s = circuit_module._cos_sin(el.angle)
            optical = c * x + s * p
            readout = optical
            observed.append(optical)
            if el.dark_variance > 0.0:
                darks += 1
                k = sources(f"dark{darks}")
                # the observed optical row stays free of dark noise
                readout = optical.copy()
                readout[k] = math.sqrt(el.dark_variance)
                source = np.zeros(width)
                source[k] = 1.0
                observed.append(source)
            modes[el.target_mode][0 if el.target_quadrature == "x" else 1] += el.gain * readout
            del modes[el.measured_mode]
            readouts.append(readout)
        else:
            raise TypeError(f"unknown circuit element {el!r}")

    matrix = np.vstack([*modes, *readouts, *observed])[:, : len(columns)]
    # a row's squared norm is its vacuum variance
    if not np.all(np.isfinite(np.einsum("ij,ij->i", matrix, matrix))):
        raise ValueError("the circuit overflows: a row of its lowered matrix has an infinite vacuum variance")
    # equal gate builds share one lowering, so it must not change under them
    matrix.flags.writeable = False
    return tuple(columns), matrix, len(modes), len(readouts)


_ANGLES = st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi]) | st.floats(-7.0, 7.0)
_SIGN = st.sampled_from([-1, 1])
# total loss, eta = 0, included
_ETA = st.just(0.0) | st.floats(0.0, 1.0)
_TAG = st.sampled_from(["", "", "", "", "", "a", "2", "detA"])
# elements that fail validation, placed at a drawn position
_BAD_ELEMENTS = st.sampled_from(
    [
        AncillaInjection(800.0, 0.0, "Z"),
        AncillaInjection(-400.0, 0.0, "Z"),
        AncillaInjection(0.3, math.inf, "Z"),
        BeamSplitter(0, 0, 0.5),
        BeamSplitter(0, 1, 1.5),
        BeamSplitter(0, 1, 0.5, signs=(1, 1, 1, 1)),
        BeamSplitter(0, 1, 0.5, signs=(1, 1)),
        Loss(0, 1.5),
        Loss(7, 0.5),
        HomodyneFeedforward(0, 0.0, 0, "x", 1.0),
        HomodyneFeedforward(0, 0.0, 1, "q", 1.0),
        HomodyneFeedforward(0, 0.0, 1, "x", 1.0, dark_variance=math.inf),
        "not an element",
    ]
)


@st.composite
def _element_lists(draw):
    """1-4 input modes and up to 12 elements of all four kinds, mostly valid.

    A homodyne drawn with an efficiency below 1 comes after its detector loss.
    """
    n_input_modes = draw(st.integers(1, 4))
    n = n_input_modes
    bad_at = draw(st.none() | st.integers(0, 11))
    elements = []
    for position in range(draw(st.integers(0, 12))):
        if position == bad_at:
            elements.append(draw(_BAD_ELEMENTS))
            continue
        mode = st.integers(0, n - 1)
        pair = st.lists(mode, min_size=2, max_size=2, unique=True)
        kinds = ["ancilla", "loss"] + (["beam splitter", "homodyne"] if n > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "ancilla":
            # labels repeat only through the loss tags and the examples
            elements.append(AncillaInjection(draw(st.floats(-3.0, 3.0)), draw(_ANGLES), "ABCDEFGHIJKL"[position]))
            n += 1
        elif kind == "beam splitter":
            i, j = draw(pair)
            s1, s2, s3 = draw(_SIGN), draw(_SIGN), draw(_SIGN)
            elements.append(BeamSplitter(i, j, draw(st.floats(0.0, 1.0)), (s1, s2, s3, -s1 * s2 * s3)))
        elif kind == "loss":
            elements.append(Loss(draw(mode), draw(_ETA), draw(_TAG)))
        elif kind == "homodyne":
            measured, target = draw(pair)
            efficiency = draw(st.just(1.0) | _ETA)
            if efficiency < 1.0:
                elements.append(Loss(measured, efficiency, draw(_TAG)))
            dark = st.just(0.0) | st.floats(0.0, 2.0)
            elements.append(HomodyneFeedforward(
                measured, draw(_ANGLES), target, draw(st.sampled_from("xp")),
                draw(st.floats(-3.0, 3.0)), dark_variance=draw(dark),
            ))
            n -= 1
    return tuple(elements), n_input_modes


class TestLoweringBitIdentity:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_element_lists())
    @example(case=(EVERY_KIND, 2))
    # i > j, angles off 0 and pi/2, dark noise and detector losses, on three
    # input modes
    @example(case=(
        (
            AncillaInjection(0.7, 2.0, "A"),
            BeamSplitter(3, 1, 0.3, (-1, 1, 1, 1)),
            Loss(1, 0.8),
            HomodyneFeedforward(1, -0.4, 3, "x", 1.25, dark_variance=0.05),
            Loss(0, 0.6, "arm"),
            Loss(2, 0.9, "det"),
            HomodyneFeedforward(2, math.pi, 0, "p", -0.5),
        ),
        3,
    ))
    # a repeated label: two detector losses under one user tag
    @example(case=((Loss(0, 0.9, "det"), Loss(0, 0.5, "det"), HomodyneFeedforward(0, 0.0, 1, "x", 1.0)), 2))
    @example(case=((AncillaInjection(0.2, 0.0, "A"), AncillaInjection(0.2, 1.0, "A")), 1))
    # the first error in element order wins: an invalid element before a
    # repeated label, a repeated label before a later invalid element and
    # before a signs tuple that does not unpack; a squeezer whose e**(2r)
    # overflows is invalid before its label repeats
    @example(case=((BeamSplitter(0, 1, 1.5), Loss(0, 0.9, "a"), Loss(0, 0.5, "a")), 2))
    @example(case=((Loss(0, 0.9, "a"), Loss(1, 0.5, "a"), Loss(7, 0.5)), 2))
    @example(case=((Loss(0, 0.9, "2"), Loss(0, 0.5), BeamSplitter(0, 1, 0.5, signs=(1, 1))), 2))
    @example(case=((AncillaInjection(0.2, 0.0, "A"), AncillaInjection(800.0, 0.0, "A")), 1))
    # quarter turns, exact in both, and a chain of mixings long enough that
    # the plan sums it in more than one stage
    @example(case=((AncillaInjection(0.5, math.pi / 2, "A"), HomodyneFeedforward(0, -math.pi, 1, "x", 1.5)), 1))
    @example(case=(tuple(BeamSplitter(k % 2, 1 - k % 2, 0.1 * (k % 9) + 0.05) for k in range(12)), 2))
    # a row whose vacuum variance overflows, and rows that are each finite with an infinite total
    @example(case=(OVERFLOWING_ROW, 1))
    @example(case=(FINITE_ROWS, 1))
    def test_lowering_matches_reference_bit_for_bit(self, case):
        elements, n_input_modes = case
        try:
            want = _reference_lower(elements, n_input_modes)
        except (ValueError, TypeError) as error:
            with pytest.raises(type(error)) as raised:
                circuit_module._lower(elements, n_input_modes)
            assert type(raised.value) is type(error) and str(raised.value) == str(error)
            return
        columns, matrix, *counts = circuit_module._lower(elements, n_input_modes)
        want_columns, want_matrix, *want_counts = want
        assert columns == want_columns
        assert counts == want_counts
        assert matrix.shape == want_matrix.shape
        # the plan sums the walk's products in its own order and reads quarter
        # turns exactly: each row agrees to 1e-15 of its largest entry
        scale = np.abs(want_matrix).max(axis=1, keepdims=True)
        assert np.all(np.abs(matrix - want_matrix) <= 1e-15 * scale)
        assert not matrix.flags.writeable


class TestLoweringPlan:
    def test_matrix_bytes_do_not_depend_on_the_plan_cache(self):
        params = GateParams.from_gain(1.3, squeezing_db_a=-6.0)
        elements = tuple(circuit_module._gate_elements(params, ImperfectionModel()))
        plan = circuit_module._plan
        plan.cache_clear()
        try:
            recorded = circuit_module._lower(elements, 2)[1].tobytes()
            assert plan.cache_info().misses == 1
            assert circuit_module._lower(elements, 2)[1].tobytes() == recorded
            assert plan.cache_info().hits == 1
            # k losses are one more layout each, enough to evict the gate's
            maxsize = plan.cache_info().maxsize
            for k in range(maxsize + 1):
                circuit_module._lower((Loss(0, 0.5),) * k, 1)
            assert plan.cache_info().currsize == maxsize
            assert circuit_module._lower(elements, 2)[1].tobytes() == recorded
            assert plan.cache_info().misses == maxsize + 3
        finally:
            plan.cache_clear()
