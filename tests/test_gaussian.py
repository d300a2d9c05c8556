"""Tests for the Gaussian-state core: states, unitaries, channels, homodyne."""

from collections import namedtuple

import numpy as np
import pytest

from qndsim import gaussian
from qndsim.circuit import Circuit, HomodyneFeedforward, Loss, run_covariance, run_trajectory
from qndsim.gaussian import (
    SymplecticMatrix,
    beam_splitter,
    displace,
    loss_channel,
    omega,
    remove_mode,
    squeeze,
    vacuum_state,
)

from physicality import assert_physical, min_uncertainty_eigenvalue, symplectic_defect

TOL = 1e-12
MINUS_5_DB = 10.0 ** (-0.5)  # 0.31623, squeezed variance 5 dB below shot


def rng(seed=0):
    return np.random.default_rng(seed)


class TestVacuum:
    def test_single_mode(self):
        state = vacuum_state(1)
        assert np.array_equal(state.cov, np.eye(2))
        assert np.array_equal(state.mean, np.zeros(2))

    def test_two_modes(self):
        state = vacuum_state(2)
        assert np.array_equal(state.cov, np.eye(4))

    def test_uncertainty_saturated(self):
        # vacuum sits exactly on the physicality boundary
        ev = np.linalg.eigvalsh(vacuum_state(2).cov + 1j * omega(2))
        assert abs(ev[0]) < 1e-12
        assert min_uncertainty_eigenvalue(vacuum_state(2)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestSqueeze:
    def test_minus_five_db(self):
        state = squeeze(vacuum_state(1), 0, gaussian.squeeze_parameter_from_db(-5.0))
        assert state.cov[0, 0] == pytest.approx(MINUS_5_DB, abs=1e-9)
        assert state.cov[1, 1] == pytest.approx(1.0 / MINUS_5_DB, abs=1e-9)

    def test_zero_is_identity(self):
        state = squeeze(vacuum_state(2), 1, 0.0)
        assert np.allclose(state.cov, np.eye(4), atol=TOL)

    def test_unit_r_closed_form(self):
        state = squeeze(vacuum_state(1), 0, 1.0)
        assert state.cov[0, 0] == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_negative_r_antisqueezes_x(self):
        state = squeeze(vacuum_state(1), 0, -0.3)
        assert state.cov[0, 0] > 1.0

    def test_angle_rotates_axis(self):
        x_sq = squeeze(vacuum_state(1), 0, 0.7, angle=0.0)
        p_sq = squeeze(vacuum_state(1), 0, 0.7, angle=np.pi / 2)
        assert p_sq.cov[1, 1] == pytest.approx(x_sq.cov[0, 0], abs=1e-12)
        assert p_sq.cov[0, 0] == pytest.approx(x_sq.cov[1, 1], abs=1e-12)

    @pytest.mark.parametrize(
        "r, angle", [(np.nan, 0.0), (0.5, np.inf), (0.5, np.nan), (400.0, 0.0), (-400.0, 0.0)]
    )
    def test_non_finite_squeezing_rejected(self, r, angle):
        # a NaN squeezer once passed the symplectic check and returned a NaN state, and one
        # whose e**(2r) overflows returned an infinite variance with only an overflow warning
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not symplectic"):
            squeeze(vacuum_state(1), 0, r, angle)

    def test_deep_squeezing_stays_finite(self):
        state = squeeze(vacuum_state(1), 0, 200.0)
        assert np.all(np.isfinite(state.cov))
        assert state.cov[1, 1] == pytest.approx(np.exp(400.0), rel=1e-12)

    @pytest.mark.parametrize("mode", [-1, 2])
    def test_mode_out_of_range_rejected(self, mode):
        with pytest.raises(ValueError, match=f"mode {mode} out of range for 2-mode state"):
            squeeze(vacuum_state(2), mode, 0.5)


class TestDisplace:
    def test_mean_shift(self):
        state = displace(vacuum_state(1), 0, 2.0, 0.0)
        assert np.allclose(state.mean, [2.0, 0.0])
        assert np.array_equal(state.cov, np.eye(2))

    def test_zero_shift_identity(self):
        base = squeeze(vacuum_state(2), 0, 0.4)
        state = displace(base, 1, 0.0, 0.0)
        assert np.array_equal(state.mean, base.mean)
        assert np.array_equal(state.cov, base.cov)

    def test_excited_power_above_shot_noise(self):
        # coherent excitation raises mean-square power, variances stay at 1
        state = displace(vacuum_state(2), 0, 10.0, 0.0)
        power_db = 10 * np.log10(state.mean[0] ** 2 + state.cov[0, 0])
        assert power_db > 0.0
        assert np.allclose(np.diag(state.cov), 1.0)

    @pytest.mark.parametrize("dx, dp", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
    def test_non_finite_shift_rejected(self, dx, dp):
        with pytest.raises(ValueError, match="must be finite"):
            displace(vacuum_state(2), 1, dx, dp)


class TestBeamSplitter:
    def test_zero_reflectivity_identity(self):
        base = displace(squeeze(vacuum_state(2), 0, 0.5), 1, 1.0, 2.0)
        state = beam_splitter(base, 0, 1, 0.0)
        assert np.allclose(state.cov, base.cov, atol=TOL)
        assert np.allclose(state.mean, base.mean, atol=TOL)

    def test_full_reflectivity_swaps_modes(self):
        base = squeeze(vacuum_state(2), 0, 0.5)
        state = beam_splitter(base, 0, 1, 1.0)
        # mode 1 now carries the squeezing, up to the sign convention
        assert state.cov[2, 2] == pytest.approx(base.cov[0, 0], abs=TOL)
        assert state.cov[0, 0] == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("reflectivity", [0.1, 0.3, 0.5, 0.9])
    def test_pass_through_vacuum(self, reflectivity):
        state = beam_splitter(vacuum_state(2), 0, 1, reflectivity)
        assert np.allclose(state.cov, np.eye(4), atol=TOL)

    @pytest.mark.parametrize("reflectivity", [-0.1, 1.1])
    def test_rejects_bad_reflectivity(self, reflectivity):
        with pytest.raises(ValueError):
            beam_splitter(vacuum_state(2), 0, 1, reflectivity)

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            beam_splitter(vacuum_state(2), 0, 1, 0.5, signs=(1, 1, 1, 1))

    def test_rejects_one_mode_twice(self):
        with pytest.raises(ValueError, match="two distinct modes"):
            beam_splitter(vacuum_state(2), 1, 1, 0.5)

    def test_mode_out_of_range_named_before_repeated_mode(self):
        with pytest.raises(ValueError, match="mode 2 out of range"):
            beam_splitter(vacuum_state(2), 2, 2, 0.5)

    def test_composition_inverse(self):
        base = displace(squeeze(vacuum_state(2), 0, 0.8), 0, 1.5, -0.5)
        fwd = beam_splitter(base, 0, 1, 0.3)
        # the transposed sign pattern undoes the default convention
        back = beam_splitter(fwd, 0, 1, 0.3, signs=(1, -1, 1, 1))
        assert np.allclose(back.cov, base.cov, atol=1e-12)
        assert np.allclose(back.mean, base.mean, atol=1e-12)

    @pytest.mark.parametrize("reflectivity", [0.2, 0.5, 0.8])
    def test_passive_invariance(self, reflectivity):
        # photon-number conservation: trace(cov - I) is preserved
        base = squeeze(squeeze(vacuum_state(2), 0, 0.6), 1, -0.3)
        state = beam_splitter(base, 0, 1, reflectivity)
        before = np.trace(base.cov - np.eye(4))
        after = np.trace(state.cov - np.eye(4))
        assert after == pytest.approx(before, abs=1e-12)


class TestLossChannel:
    def test_unit_transmission_identity(self):
        base = squeeze(vacuum_state(2), 0, 0.5)
        state = loss_channel(base, 0, 1.0)
        assert np.allclose(state.cov, base.cov, atol=TOL)

    def test_squeezed_variance_closed_form(self):
        base = squeeze(vacuum_state(1), 0, gaussian.squeeze_parameter_from_db(-5.0))
        state = loss_channel(base, 0, 0.93)
        assert state.cov[0, 0] == pytest.approx(0.93 * MINUS_5_DB + 0.07, abs=1e-9)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.93])
    def test_vacuum_fixed_point(self, eta):
        state = loss_channel(vacuum_state(2), 1, eta)
        assert np.allclose(state.cov, np.eye(4), atol=TOL)

    @pytest.mark.parametrize("eta", [np.nan, -0.2, 1.2])
    def test_rejects_bad_transmission(self, eta):
        with pytest.raises(ValueError):
            loss_channel(vacuum_state(1), 0, eta)

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_is_the_circuit_loss(self, eta):
        # total loss included: the channel accepts every eta a circuit ``Loss`` does
        state = squeeze(displace(vacuum_state(2), 0, 1.5, -0.5), 0, 0.8)
        state = beam_splitter(state, 0, 1, 0.4)
        want = run_covariance(Circuit((Loss(0, eta),)), state)
        got = loss_channel(state, 0, eta)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(got.cov, want.cov, rtol=0.0, atol=TOL)

    def test_mean_scaling(self):
        state = loss_channel(displace(vacuum_state(1), 0, 2.0, -1.0), 0, 0.64)
        assert np.allclose(state.mean, [1.6, -0.8], atol=TOL)

    @pytest.mark.parametrize("eta", [0.3, 0.7, 0.99])
    def test_keeps_states_physical(self, eta):
        # strongly squeezed and correlated state stays physical under loss
        state = squeeze(vacuum_state(2), 0, 1.5)
        state = beam_splitter(state, 0, 1, 0.5)
        lossy = loss_channel(state, 0, eta)
        assert min_uncertainty_eigenvalue(lossy) >= -1e-9
        assert_physical(lossy)


def _epr_pair(r):
    """Two orthogonally squeezed vacua on a 50:50 splitter."""
    state = squeeze(vacuum_state(2), 0, r, angle=0.0)
    state = squeeze(state, 1, r, angle=np.pi / 2)
    return beam_splitter(state, 0, 1, 0.5)


Outcome = namedtuple("Outcome", "value reduced_state")


def homodyne(state, mode, angle, rng, efficiency=1.0, dark_variance=0.0):
    """Measure one mode with the circuit's homodyne element at gain 0, behind its detector loss."""
    target = 1 if mode == 0 else 0
    detector = [Loss(mode, efficiency)] if efficiency < 1.0 else []
    element = HomodyneFeedforward(mode, angle, target, "x", 0.0, dark_variance=dark_variance)
    reduced, readouts = run_trajectory(Circuit([*detector, element], state.n_modes), state, rng)
    return Outcome(readouts[0], reduced)


class TestHomodyne:
    def test_product_state_no_conditioning(self):
        out = homodyne(vacuum_state(2), 0, 0.0, rng(1))
        assert out.reduced_state.n_modes == 1
        assert np.allclose(out.reduced_state.cov, np.eye(2), atol=TOL)
        assert np.allclose(out.reduced_state.mean, 0.0, atol=TOL)

    def test_outcome_distribution_standard_normal(self):
        values = [homodyne(vacuum_state(2), 0, 0.0, rng(i)).value for i in range(4000)]
        values = np.asarray(values)
        assert abs(values.mean()) < 5.0 / np.sqrt(4000)
        assert values.var() == pytest.approx(1.0, abs=0.15)

    def test_epr_conditional_variance_below_one(self):
        r = gaussian.squeeze_parameter_from_db(-5.0)
        out = homodyne(_epr_pair(r), 0, 0.0, rng(3))
        assert out.reduced_state.cov[0, 0] < 1.0

    def test_epr_conditional_matches_direct_schur(self):
        # independent route: build the 4x4 covariance with raw numpy and
        # condition on x of mode 0 by the Schur complement
        r = gaussian.squeeze_parameter_from_db(-5.0)
        v0 = np.diag([np.exp(-2 * r), np.exp(2 * r), np.exp(2 * r), np.exp(-2 * r)])
        half = np.sqrt(0.5)
        mix = np.kron(np.array([[half, half], [-half, half]]), np.eye(2))
        v = mix @ v0 @ mix.T
        keep = [2, 3]
        expected = v[np.ix_(keep, keep)] - np.outer(v[keep, 0], v[keep, 0]) / v[0, 0]

        out = homodyne(_epr_pair(r), 0, 0.0, rng(4))
        assert np.allclose(out.reduced_state.cov, expected, atol=1e-10)

    def test_reduced_cov_outcome_independent(self):
        r = gaussian.squeeze_parameter_from_db(-5.0)
        a = homodyne(_epr_pair(r), 0, 0.0, rng(10))
        b = homodyne(_epr_pair(r), 0, 0.0, rng(11))
        assert a.value != b.value
        assert np.array_equal(a.reduced_state.cov, b.reduced_state.cov)

    def test_conditional_mean_averages_to_marginal(self):
        # averaging the conditional mean over outcomes recovers the
        # unconditioned marginal mean to Monte Carlo accuracy
        state = displace(_epr_pair(0.5), 1, 1.0, 0.5)
        n = 3000
        g = rng(7)
        means = np.array([homodyne(state, 0, 0.0, g).reduced_state.mean for _ in range(n)])
        scatter = means.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(means.mean(axis=0) - [1.0, 0.5]) < 5 * scatter + 1e-9)

    def test_angle_selects_quadrature(self):
        state = squeeze(vacuum_state(2), 0, 1.0)  # Var(x)=e^-2, Var(p)=e^2
        values = [homodyne(state, 0, np.pi / 2, rng(i)).value for i in range(2000)]
        assert np.var(values) == pytest.approx(np.exp(2.0), rel=0.15)

    def test_efficiency_degrades_conditioning(self):
        r = gaussian.squeeze_parameter_from_db(-5.0)
        ideal = homodyne(_epr_pair(r), 0, 0.0, rng(5))
        lossy = homodyne(_epr_pair(r), 0, 0.0, rng(5), efficiency=0.5)
        assert lossy.reduced_state.cov[0, 0] > ideal.reduced_state.cov[0, 0]

    def test_dark_noise_widens_outcomes_not_cov(self):
        dark = 0.5
        a = homodyne(_epr_pair(0.5), 0, 0.0, rng(6))
        b = homodyne(_epr_pair(0.5), 0, 0.0, rng(6), dark_variance=dark)
        # readout noise rides on the value; the optical conditioning is untouched
        assert not np.isclose(a.value, b.value)
        assert np.allclose(a.reduced_state.cov, b.reduced_state.cov, atol=1e-12)

    def test_zero_variance_no_division_error(self):
        # x of mode 0 perfectly squeezed: conditioning must not blow up
        state = squeeze(vacuum_state(2), 0, 20.0)
        out = homodyne(state, 0, 0.0, rng(8))
        assert np.isfinite(out.value)
        assert_physical(out.reduced_state, tol=1e-6)

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            homodyne(vacuum_state(1), 0, 0.0, rng(9))


class TestSymplecticMatrix:
    @pytest.mark.parametrize(
        "operation, n_modes",
        [
            (lambda state: squeeze(state, 1, 0.9, 0.3), 2),
            (lambda state: beam_splitter(state, 0, 1, 0.3), 2),
            (lambda state: beam_splitter(state, 2, 0, 0.8, signs=(-1, -1, 1, -1)), 3),
        ],
    )
    def test_constructions_are_symplectic(self, operation, n_modes):
        assert symplectic_defect(operation, n_modes) < 1e-12

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            SymplecticMatrix(np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_rejects_nan_matrix(self):
        # its NaN defect once compared as within tolerance
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticMatrix(np.full((2, 2), np.nan))

    def test_rejects_overflowing_matrix(self):
        # its defect and its tolerance once both overflowed to inf, and compared as within it
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticMatrix(np.diag([1e200, 1e200]))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="square with even dimension"):
            SymplecticMatrix(np.ones(shape))

    def test_apply_rejects_mode_count_mismatch(self):
        with pytest.raises(ValueError, match="mode-count mismatch"):
            SymplecticMatrix(np.eye(4)).apply(vacuum_state(1))


class TestRemoveMode:
    def test_drops_the_mode_and_keeps_the_rest(self):
        state = displace(squeeze(vacuum_state(3), 0, 0.6), 2, 1.5, -0.5)
        state = beam_splitter(beam_splitter(state, 0, 1, 0.3), 1, 2, 0.6)
        reduced = remove_mode(state, 1)
        keep = [0, 1, 4, 5]
        assert reduced.n_modes == 2
        assert np.array_equal(reduced.mean, state.mean[keep])
        assert np.array_equal(reduced.cov, state.cov[np.ix_(keep, keep)])


class TestPhysicality:
    def test_asymmetric_cov_rejected(self):
        state = vacuum_state(1)
        state.cov[0, 1] = 0.5
        with pytest.raises(ValueError):
            assert_physical(state)

    def test_unphysical_cov_rejected(self):
        state = vacuum_state(1)
        state.cov = np.diag([0.1, 0.1])  # violates the uncertainty bound
        with pytest.raises(ValueError):
            assert_physical(state)

    def test_db_conversions_roundtrip(self):
        for db in (-10.0, -5.0, 0.0, 3.01):
            assert gaussian.variance_to_db(10.0 ** (db / 10.0)) == pytest.approx(db)

    def test_squeeze_parameter_from_db(self):
        r = gaussian.squeeze_parameter_from_db(-5.0)
        assert np.exp(-2 * r) == pytest.approx(MINUS_5_DB, abs=1e-12)
