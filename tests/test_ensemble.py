"""Tests for the seeded Monte Carlo ensemble runner."""

import numpy as np
import pytest

from qndsim import gaussian
from qndsim.circuit import (
    Circuit,
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    compile_trajectory,
    run_covariance,
    run_trajectory,
)
from qndsim.ensemble import (
    SHOTS_PER_BLOCK,
    EnsembleResult,
    outcome_log_csv,
    pairwise_tree_sum,
    run_ensemble,
    trajectory_generator,
    z_score_report,
)


def default_gate():
    return build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel.ideal())


def _z_report_loop(result, analytic_mean, analytic_cov):
    """Entry-by-entry reference for ``z_score_report``: (max_z, worst, z_mean, z_cov)."""

    def z_of(delta, se):
        if se < 1e-15:
            return 0.0 if abs(delta) < 1e-12 else np.inf
        return abs(delta) / se

    dim = len(result.mean)
    labels = [f"{q}{k + 1}" for k in range(dim // 2) for q in ("x", "p")]
    z_mean = [z_of(result.mean[i] - analytic_mean[i], result.se_mean[i]) for i in range(dim)]
    z_cov = [
        [z_of(result.cov[i, j] - analytic_cov[i, j], result.se_cov[i, j]) for j in range(dim)]
        for i in range(dim)
    ]
    max_z, worst = 0.0, "none"
    for i in range(dim):
        if z_mean[i] > max_z:
            max_z, worst = z_mean[i], f"mean[{labels[i]}]"
    for i in range(dim):
        for j in range(i, dim):
            if z_cov[i][j] > max_z:
                max_z, worst = z_cov[i][j], f"cov[{labels[i]},{labels[j]}]"
    return max_z, worst, np.array(z_mean), np.array(z_cov)


class TestPairwiseTreeSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 1001])
    def test_matches_plain_sum(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, 3))
        assert np.allclose(pairwise_tree_sum(values), values.sum(axis=0), atol=1e-9)

    def test_deterministic(self):
        values = np.random.default_rng(0).standard_normal((999, 2, 2))
        assert np.array_equal(pairwise_tree_sum(values), pairwise_tree_sum(values.copy()))


class TestRunEnsemble:
    def test_rejects_tiny_ensembles(self):
        with pytest.raises(ValueError):
            run_ensemble(default_gate(), gaussian.vacuum_state(2), 1, 0)

    def test_empirical_variance_matches_oracle(self):
        circuit = default_gate()
        result = run_ensemble(circuit, gaussian.vacuum_state(2), 20000, 123)
        # lossless -5 dB signal-output variance
        assert abs(result.cov[0, 0] - 1.141) < 3 * result.se_cov[0, 0] + 1e-3

    def test_identity_circuit_exact(self):
        # no homodyne, no randomness: the means never scatter
        circuit = Circuit(elements=())
        result = run_ensemble(circuit, gaussian.vacuum_state(2), 100, 7)
        assert np.array_equal(result.cov, np.eye(4))
        assert np.array_equal(result.mean, np.zeros(4))
        assert np.all(result.se_mean == 0.0)

    def test_same_seed_bit_identical(self):
        circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 1.0, 0.0)
        a = run_ensemble(circuit, state, 500, 42, keep_outcomes=True)
        b = run_ensemble(circuit, state, 500, 42, keep_outcomes=True)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_different_seed_differs(self):
        circuit = default_gate()
        a = run_ensemble(circuit, gaussian.vacuum_state(2), 500, 1)
        b = run_ensemble(circuit, gaussian.vacuum_state(2), 500, 2)
        assert not np.array_equal(a.mean, b.mean)

    def test_rows_match_single_trajectories(self):
        # shot i is a run_trajectory on block i // SHOTS_PER_BLOCK's
        # substream after the rows of the shots before it in that block
        circuit = build_qnd_gate(GateParams.from_gain(1.5), ImperfectionModel())
        state = gaussian.vacuum_state(2)
        draws_per_shot = compile_trajectory(circuit, state).draws_per_shot
        n = 2 * SHOTS_PER_BLOCK + 9
        result = run_ensemble(circuit, state, n, 314, keep_outcomes=True)
        for i in (0, 3, SHOTS_PER_BLOCK - 1, SHOTS_PER_BLOCK, n - 1):
            rng = trajectory_generator(314, i // SHOTS_PER_BLOCK)
            rng.standard_normal((i % SHOTS_PER_BLOCK) * draws_per_shot)
            _, log = run_trajectory(circuit, state, rng)
            assert np.array_equal(result.outcomes[i], log)

    def test_ensemble_is_prefix_of_larger_ensemble(self):
        # a shot's draws depend on its index, not on the ensemble size
        circuit = build_qnd_gate(GateParams.from_gain(1.5), ImperfectionModel())
        state = gaussian.vacuum_state(2)
        small = run_ensemble(circuit, state, SHOTS_PER_BLOCK + 5, 8, keep_outcomes=True)
        large = run_ensemble(circuit, state, 3 * SHOTS_PER_BLOCK + 1, 8, keep_outcomes=True)
        assert np.array_equal(small.outcomes, large.outcomes[: SHOTS_PER_BLOCK + 5])

    @pytest.mark.parametrize("seed", [1.5, 2**64, -1, True, "7"])
    def test_invalid_master_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            run_ensemble(default_gate(), gaussian.vacuum_state(2), 10, seed)

    def test_seed_range_limits_accepted(self):
        state = gaussian.vacuum_state(2)
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert run_ensemble(default_gate(), state, 10, seed).n_trajectories == 10

    def test_high_seeds_keep_every_bit(self):
        # neighbouring seeds above 2**63 are distinct Philox keys
        state = gaussian.vacuum_state(2)
        a = run_ensemble(default_gate(), state, 10, 2**63)
        b = run_ensemble(default_gate(), state, 10, 2**63 + 1)
        assert not np.array_equal(a.mean, b.mean)

    def test_batch_rows_equal_single_rows(self):
        # a shot's means and readouts do not depend on the batch it runs in
        circuit = build_qnd_gate(GateParams.from_gain(1.5), ImperfectionModel())
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, 0.0)
        program = compile_trajectory(circuit, state)
        draws = np.random.default_rng(0).standard_normal((1000, program.draws_per_shot))
        means, outcomes = program.run_means(draws)
        for i in (0, 1, 500, 999):
            mean, outcome = program.run_means(draws[i])
            assert np.array_equal(mean[0], means[i])
            assert np.array_equal(outcome[0], outcomes[i])

    def test_dark_noise_at_shot_level_matches_covariance(self):
        # anti-squeezed ancillas leave the measured quadratures below the
        # readout noise; conditioning on the optical value must still give
        # the ensemble-average covariance
        params = GateParams(0.95, squeezing_db_a=10, squeezing_db_b=10)
        circuit = build_qnd_gate(params, ImperfectionModel(dark_noise_dB_below_shot=0))
        state = gaussian.vacuum_state(2)
        result = run_ensemble(circuit, state, n=20_000, master_seed=3)
        target = run_covariance(circuit, state)
        assert z_score_report(result, target.mean, target.cov).max_z < 5.0

    def test_se_scaling_with_n(self):
        circuit = default_gate()
        state = gaussian.vacuum_state(2)
        small = run_ensemble(circuit, state, 4000, 5)
        large = run_ensemble(circuit, state, 8000, 5)
        ratio = np.median(small.se_mean / large.se_mean)
        assert np.sqrt(2.0) * 0.85 < ratio < np.sqrt(2.0) * 1.15


class TestZScoreReport:
    def test_matched_oracle_small_z(self):
        circuit = default_gate()
        state = gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, 0.0)
        result = run_ensemble(circuit, state, 20000, 2024)
        target = run_covariance(circuit, state)
        report = z_score_report(result, target.mean, target.cov)
        assert report.max_z < 5.0

    def test_wrong_oracle_detected(self):
        circuit = default_gate()
        result = run_ensemble(circuit, gaussian.vacuum_state(2), 20000, 99)
        target = run_covariance(circuit, gaussian.vacuum_state(2))
        report = z_score_report(result, target.mean, target.cov * 1.1)
        assert report.max_z > 5.0
        assert "cov" in report.worst_entry

    def test_tiny_ensemble_large_se(self):
        circuit = default_gate()
        result = run_ensemble(circuit, gaussian.vacuum_state(2), 2, 1)
        target = run_covariance(circuit, gaussian.vacuum_state(2))
        report = z_score_report(result, target.mean, target.cov)
        assert np.isfinite(report.max_z)
        assert report.max_z < 20.0  # SEs are huge, z stays modest

    def test_zero_se_handling(self):
        result = run_ensemble(Circuit(elements=()), gaussian.vacuum_state(2), 10, 0)
        report = z_score_report(result, np.zeros(4), np.eye(4))
        assert report.max_z == 0.0
        # a genuine deviation with zero scatter is flagged as infinite
        report = z_score_report(result, np.ones(4), np.eye(4))
        assert report.max_z == np.inf


    @pytest.mark.parametrize("seed", range(20))
    def test_matches_entry_by_entry_reference(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 * int(rng.integers(1, 4))
        # some standard errors vanish, some analytic entries match exactly
        result = EnsembleResult(
            n_trajectories=2,
            master_seed=seed,
            mean=rng.standard_normal(dim),
            cov=rng.standard_normal((dim, dim)),
            mean_scatter=np.zeros((dim, dim)),
            conditional_cov=np.zeros((dim, dim)),
            se_mean=np.abs(rng.standard_normal(dim)) * (rng.random(dim) < 0.7),
            se_cov=np.abs(rng.standard_normal((dim, dim))) * (rng.random((dim, dim)) < 0.7),
        )
        mean = result.mean + rng.standard_normal(dim) * (rng.random(dim) < 0.5)
        cov = result.cov + rng.standard_normal((dim, dim)) * (rng.random((dim, dim)) < 0.5)
        if seed % 4 == 0:
            mean, cov = result.mean.copy(), result.cov.copy()
        report = z_score_report(result, mean, cov)
        max_z, worst, z_mean, z_cov = _z_report_loop(result, mean, cov)
        assert (report.max_z, report.worst_entry) == (max_z, worst)
        assert np.array_equal(report.z_mean, z_mean)
        assert np.array_equal(report.z_cov, z_cov)


class TestOutcomeLog:
    def test_csv_dump(self):
        circuit = default_gate()
        result = run_ensemble(circuit, gaussian.vacuum_state(2), 5, 11, keep_outcomes=True)
        text = outcome_log_csv(result)
        lines = text.splitlines()
        assert lines[0] == "trajectory,readout0,readout1"
        assert len(lines) == 6

    def test_requires_flag(self):
        result = run_ensemble(default_gate(), gaussian.vacuum_state(2), 5, 11)
        with pytest.raises(ValueError):
            outcome_log_csv(result)


class TestSubstreams:
    def test_substreams_independent_of_order(self):
        a = trajectory_generator(5, 100).standard_normal(4)
        _ = trajectory_generator(5, 7).standard_normal(1000)
        b = trajectory_generator(5, 100).standard_normal(4)
        assert np.array_equal(a, b)

    def test_batched_draw_equals_sequential(self):
        # the trajectory runner pre-draws in one batch; that consumes the
        # stream exactly like per-event scalar draws
        batch = trajectory_generator(9, 0).standard_normal(6)
        gen = trajectory_generator(9, 0)
        seq = np.array([gen.standard_normal() for _ in range(6)])
        assert np.array_equal(batch, seq)
