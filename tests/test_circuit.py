"""Tests for gate compilation and circuit execution."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim import circuit as circuit_module
from qndsim import gaussian
from qndsim.circuit import (
    AncillaInjection,
    BeamSplitter,
    Circuit,
    CircuitConstructionError,
    Displacement,
    GateParams,
    HomodyneFeedforward,
    ImperfectionModel,
    Loss,
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
    max_coefficient_difference,
    moments_from_map,
)

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

    @pytest.mark.parametrize("name", ["squeezing_db_a", "squeezing_db_b"])
    @pytest.mark.parametrize("db", [math.nan, math.inf, -math.inf])
    def test_non_finite_squeezing_rejected(self, name, db):
        with pytest.raises(ValueError, match=f"{name} = {db} is not finite"):
            GateParams(0.5, **{name: db})

    def test_nan_ancilla_excess_rejected(self):
        with pytest.raises(ValueError, match="ancilla_excess"):
            GateParams(0.5, ancilla_excess=math.nan)

    @pytest.mark.parametrize("excess", [math.inf, 0.5])
    def test_infinite_or_small_ancilla_excess_rejected(self, excess):
        with pytest.raises(ValueError, match=f"ancilla_excess = {excess}"):
            GateParams(0.5, ancilla_excess=excess)


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
        assert report.passed, report.details

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
        def skewed(R, r_a, r_b):
            qmap = finite_squeezing_map(R, r_a, r_b)
            matrix = qmap.matrix.copy()
            matrix[2, qmap.columns.index("x1_in")] += 1e-6
            return QuadratureMap(qmap.columns, matrix)

        if warm:
            # the memo holds lowerings, not verdicts: an earlier passing
            # build of the same gate must not excuse the next one's check
            build_qnd_gate(GateParams(0.25), ImperfectionModel())
        monkeypatch.setattr(circuit_module, "finite_squeezing_map", skewed)
        with pytest.raises(CircuitConstructionError, match=r"coefficient error 1\.000e-06"):
            build_qnd_gate(GateParams(0.25), ImperfectionModel())

    def test_nan_oracle_error_raises(self, monkeypatch):
        # a NaN coefficient error compares false against the tolerance, so
        # the gate must fail unless the error is known to be within it
        monkeypatch.setattr(circuit_module, "oracle_error", lambda params: math.nan)
        with pytest.raises(CircuitConstructionError, match="coefficient error nan"):
            build_qnd_gate(GateParams(0.25), ImperfectionModel())


class TestGateMemo:
    def test_equal_builds_share_one_read_only_circuit(self):
        params, imp = GateParams.from_gain(1.3, squeezing_db_a=-4.0), ImperfectionModel()
        circuit = build_qnd_gate(params, imp)
        assert build_qnd_gate(params, imp) is circuit
        with pytest.raises(ValueError, match="read-only"):
            circuit._lowered.matrix[0, 0] = 1.0

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
        mean, cov = moments_from_map(qmap, means={"x1_in": 4.0})
        assert np.allclose(out.mean, mean, atol=1e-10)
        assert np.allclose(out.cov, cov, atol=1e-10)

    def test_validate_mode_checks_each_step(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        out = run_covariance(circuit, gaussian.vacuum_state(2), validate=True)
        gaussian.assert_physical(out)

    def test_validate_evaluates_every_intermediate_state(self, monkeypatch):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        checked = []
        monkeypatch.setattr(gaussian, "assert_physical", lambda s: checked.append(s.n_modes))
        run_covariance(circuit, gaussian.vacuum_state(2), validate=True)
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
                Displacement(1, 0.5, -0.5),
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

    @pytest.mark.parametrize("field,value", [("efficiency", 1.5), ("dark_variance", -0.1)])
    def test_bad_detector_rejected(self, field, value):
        kwargs = {"efficiency": 1.0, "dark_variance": 0.0, field: value}
        with pytest.raises(ValueError):
            Circuit(elements=(HomodyneFeedforward(0, 0.0, 1, "x", 1.0, **kwargs),))

    @pytest.mark.parametrize(
        "field,value",
        [("r", math.nan), ("angle", math.nan), ("antisqueeze_excess", math.nan),
         ("antisqueeze_excess", 0.5)],
    )
    def test_bad_ancilla_rejected(self, field, value):
        kwargs = {"r": 0.3, "angle": 0.0, "label": "A", field: value}
        with pytest.raises(ValueError, match="position 0"):
            Circuit(elements=(AncillaInjection(**kwargs),))

    @pytest.mark.parametrize("field,value", [("angle", math.nan), ("dark_variance", math.inf)])
    def test_non_finite_homodyne_rejected(self, field, value):
        kwargs = {"angle": 0.0, "dark_variance": 0.0, field: value}
        with pytest.raises(ValueError, match="position 0"):
            Circuit(elements=(HomodyneFeedforward(0, target_mode=1, target_quadrature="x",
                                                  gain=1.0, **kwargs),))

    @pytest.mark.parametrize("dx,dp", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_displacement_rejected(self, dx, dp):
        with pytest.raises(ValueError, match="position 0"):
            Circuit(elements=(Displacement(0, dx, dp),))

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_bad_input_mode_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_input_modes"):
            Circuit((), n_input_modes=n)

    def test_output_mode_count(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        assert circuit.n_output_modes == 2
        program = compile_trajectory(circuit, gaussian.vacuum_state(2))
        _, readouts = program.run_means(np.zeros(program.draws_per_shot))
        assert readouts.shape[1] == 2


GOLDEN_TEXT = """\
Circuit n_input_modes=2
BeamSplitter i=0 j=1 reflectivity=0.8 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(1,-1,1,1)
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-1.73205080757 efficiency=1 dark_variance=0
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(-1,-1,1,-1)
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=1.73205080757 efficiency=1 dark_variance=0
BeamSplitter i=0 j=1 reflectivity=0.2 signs=(-1,-1,1,-1)"""


# the default budget with each main-mode loss placement, and the R = 1
# identity gate, which keeps the whole apparatus and its budget
GOLDEN_BUDGET_TEXT = {
    "pre_entry": """\
Circuit n_input_modes=2
Loss mode=0 eta=0.93 tag=main1
Loss mode=1 eta=0.93 tag=main2
BeamSplitter i=0 j=1 reflectivity=0.8 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(1,-1,1,1)
Loss mode=2 eta=0.99 tag=couplerA
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-1.73205080757 efficiency=0.950796 dark_variance=0.0199526231497
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(-1,-1,1,-1)
Loss mode=2 eta=0.99 tag=couplerB
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=1.73205080757 efficiency=0.950796 dark_variance=0.0199526231497
BeamSplitter i=0 j=1 reflectivity=0.2 signs=(-1,-1,1,-1)""",
    "in_arms": """\
Circuit n_input_modes=2
BeamSplitter i=0 j=1 reflectivity=0.8 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(1,-1,1,1)
Loss mode=2 eta=0.99 tag=couplerA
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-1.73205080757 efficiency=0.950796 dark_variance=0.0199526231497
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(-1,-1,1,-1)
Loss mode=2 eta=0.99 tag=couplerB
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=1.73205080757 efficiency=0.950796 dark_variance=0.0199526231497
Loss mode=0 eta=0.93 tag=main1
Loss mode=1 eta=0.93 tag=main2
BeamSplitter i=0 j=1 reflectivity=0.2 signs=(-1,-1,1,-1)""",
    "post_exit": """\
Circuit n_input_modes=2
BeamSplitter i=0 j=1 reflectivity=0.8 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(1,-1,1,1)
Loss mode=2 eta=0.99 tag=couplerA
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-1.73205080757 efficiency=0.950796 dark_variance=0.0199526231497
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=0.25 signs=(-1,-1,1,-1)
Loss mode=2 eta=0.99 tag=couplerB
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=1.73205080757 efficiency=0.950796 dark_variance=0.0199526231497
BeamSplitter i=0 j=1 reflectivity=0.2 signs=(-1,-1,1,-1)
Loss mode=0 eta=0.93 tag=main1
Loss mode=1 eta=0.93 tag=main2""",
}

GOLDEN_IDENTITY_TEXT = """\
Circuit n_input_modes=2
BeamSplitter i=0 j=1 reflectivity=0.5 signs=(1,-1,1,1)
AncillaInjection r=0.575646273249 angle=0 label=A antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=1 signs=(1,-1,1,1)
Loss mode=2 eta=0.99 tag=couplerA
HomodyneFeedforward measured_mode=0 angle=1.57079632679 target_mode=2 target_quadrature=p gain=-0 efficiency=0.950796 dark_variance=0.0199526231497
AncillaInjection r=0.575646273249 angle=1.57079632679 label=B antisqueeze_excess=1
BeamSplitter i=2 j=0 reflectivity=1 signs=(-1,-1,1,-1)
Loss mode=2 eta=0.99 tag=couplerB
HomodyneFeedforward measured_mode=0 angle=0 target_mode=2 target_quadrature=x gain=0 efficiency=0.950796 dark_variance=0.0199526231497
BeamSplitter i=0 j=1 reflectivity=0.5 signs=(-1,-1,1,-1)
Loss mode=0 eta=0.93 tag=main1
Loss mode=1 eta=0.93 tag=main2"""

# all five element kinds, an impure ancilla and an auto-tagged loss
EVERY_KIND = (
    Displacement(0, 1.5, -0.25),
    AncillaInjection(0.3, 0.25, "C", 2.5),
    BeamSplitter(0, 2, 0.4),
    Loss(1, 0.9),
    HomodyneFeedforward(2, 0.5, 1, "p", -0.75, 0.95, 0.01),
)

GOLDEN_EVERY_KIND_TEXT = """\
Circuit n_input_modes=2
Displacement mode=0 dx=1.5 dp=-0.25
AncillaInjection r=0.3 angle=0.25 label=C antisqueeze_excess=2.5
BeamSplitter i=0 j=2 reflectivity=0.4 signs=(1,1,-1,1)
Loss mode=1 eta=0.9 tag=
HomodyneFeedforward measured_mode=2 angle=0.5 target_mode=1 target_quadrature=p gain=-0.75 efficiency=0.95 dark_variance=0.01"""


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


class TestAncillaImpurity:
    def test_impure_ancillas_do_not_change_gate_outputs(self):
        # the anti-squeezed quadrature is cancelled by the feedforward, so
        # extra impurity noise never reaches the lossless outputs
        pure = GateParams.from_gain(1.0)
        impure = GateParams.from_gain(1.0, ancilla_excess=3.0)
        out_pure = run_covariance(
            build_qnd_gate(pure, ImperfectionModel.ideal()), gaussian.vacuum_state(2)
        )
        out_impure = run_covariance(
            build_qnd_gate(impure, ImperfectionModel.ideal()), gaussian.vacuum_state(2)
        )
        assert np.allclose(out_pure.cov, out_impure.cov, atol=1e-10)

    def test_impurity_visible_with_imperfect_detection(self):
        imp = replace(ImperfectionModel.ideal(), detector_quantum_efficiency=0.9)
        pure = run_covariance(
            build_qnd_gate(GateParams.from_gain(1.0), imp), gaussian.vacuum_state(2)
        )
        impure = run_covariance(
            build_qnd_gate(GateParams.from_gain(1.0, ancilla_excess=5.0), imp),
            gaussian.vacuum_state(2),
        )
        assert np.trace(impure.cov) > np.trace(pure.cov) + 1e-6

    def test_map_and_state_routes_agree_for_impure_ancillas(self):
        params = GateParams.from_gain(1.0, ancilla_excess=2.5)
        imp = replace(ImperfectionModel.ideal(), visibility=0.95)
        circuit = build_qnd_gate(params, imp)
        out = run_covariance(circuit, gaussian.vacuum_state(2))
        _, cov = moments_from_map(circuit_quadrature_map(circuit))
        assert np.allclose(out.cov, cov, atol=1e-10)


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
        out = run_covariance(circuit, gaussian.vacuum_state(2), validate=True)
        assert out.n_modes == 2

    def test_placements_differ(self):
        covs = []
        for placement in ("post_exit", "pre_entry"):
            imp = replace(ImperfectionModel(), loss_placement=placement)
            circuit = build_qnd_gate(GateParams.from_gain(1.0), imp)
            covs.append(run_covariance(circuit, gaussian.vacuum_state(2)).cov)
        assert not np.allclose(covs[0], covs[1], atol=1e-6)

    @pytest.mark.parametrize("budget", _PLACEMENT_BUDGETS)
    @pytest.mark.parametrize("gain", [0.0, 0.2, 1.0, 2.5])
    def test_in_arms_is_the_post_exit_channel(self, budget, gain):
        # equal losses on both modes commute with the exit beam splitter
        params = GateParams.from_gain(gain, squeezing_db_a=-7.0, squeezing_db_b=-3.0)
        state = gaussian.displace(gaussian.vacuum_state(2), 1, 0.5, -1.5)
        in_arms, post_exit = (
            build_qnd_gate(params, replace(budget, loss_placement=placement))
            for placement in ("in_arms", "post_exit")
        )
        a, b = run_covariance(in_arms, state), run_covariance(post_exit, state)
        np.testing.assert_allclose(a.mean, b.mean, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(a.cov, b.cov, rtol=0.0, atol=1e-12)
        a, b = compile_trajectory(in_arms, state), compile_trajectory(post_exit, state)
        for field in ("mean0", "gains", "final_cov"):
            np.testing.assert_allclose(getattr(a, field), getattr(b, field), rtol=0.0, atol=1e-12)


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
    ancilla_excess=st.floats(1.0, 2.0),
)


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
        mean, cov = moments_from_map(qmap, means={"x1_in": dx, "p2_in": dp})
        assert np.abs(cov - out.cov).max() <= tol
        assert np.allclose(mean, out.mean, rtol=0.0, atol=1e-9)
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
