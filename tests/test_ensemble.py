"""Tests for the seeded Monte Carlo ensemble runner."""

import hashlib
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim import ensemble, gaussian
from qndsim.circuit import (
    AncillaInjection,
    BeamSplitter,
    Circuit,
    GateParams,
    HomodyneFeedforward,
    ImperfectionModel,
    Loss,
    build_qnd_gate,
    compile_trajectory,
    run_covariance,
    run_trajectory,
)
from qndsim.ensemble import (
    MAX_SHOTS,
    EnsembleResult,
    pairwise_tree_sum,
    run_ensemble,
    trajectory_generator,
    z_score_report,
)


def default_gate():
    return build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel.ideal())


# named requests: (circuit, input state) builders
CASES = {
    "ideal": lambda: (default_gate(), gaussian.vacuum_state(2)),
    "measured": lambda: (
        build_qnd_gate(GateParams.from_gain(1.5), ImperfectionModel()),
        gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0),
    ),
    "empty": lambda: (Circuit(elements=()), gaussian.vacuum_state(2)),
    # 1 input and 1 output mode: 3 upper-triangle pairs, 1 draw per shot
    "one_mode": lambda: (
        Circuit(
            (AncillaInjection(0.5, 0.0, "A"), BeamSplitter(0, 1, 0.3),
             HomodyneFeedforward(1, 0.0, 0, "p", 0.7)),
            n_input_modes=1,
        ),
        gaussian.displace(gaussian.vacuum_state(1), 0, 0.5, 1.0),
    ),
    # ends with 3 modes: 21 pairs
    "three_modes": lambda: (
        Circuit(
            (AncillaInjection(0.4, 0.0, "A"), AncillaInjection(0.6, np.pi / 2, "B"),
             BeamSplitter(0, 2, 0.4), BeamSplitter(1, 3, 0.25),
             HomodyneFeedforward(3, 0.0, 1, "x", 0.5)),
        ),
        gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0),
    ),
    # a detector loss, then a homodyne with dark noise: 2 draws per shot
    "lossy_homodyne": lambda: (
        Circuit(
            (AncillaInjection(0.5, 0.0, "A"), BeamSplitter(0, 2, 0.35), Loss(2, 0.8, "det"),
             HomodyneFeedforward(2, 0.0, 1, "p", -0.8, dark_variance=0.3)),
        ),
        gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0),
    ),
    # no homodyne: 0 draws per shot
    "no_homodyne": lambda: (
        Circuit((BeamSplitter(0, 1, 0.3), Loss(0, 0.9, "l"))),
        gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0),
    ),
    # 1 output mode and two homodynes with dark noise: 4 draws per shot, more
    # than the 2 output quadratures they scatter
    "more_draws_than_outputs": lambda: (
        Circuit(
            (AncillaInjection(0.5, 0.0, "A"), AncillaInjection(0.6, np.pi / 2, "B"),
             BeamSplitter(0, 1, 0.3), BeamSplitter(0, 2, 0.4),
             Loss(2, 0.9, "detA"), HomodyneFeedforward(2, 0.0, 0, "p", 0.5, dark_variance=0.2),
             Loss(1, 0.8, "detB"), HomodyneFeedforward(1, np.pi / 2, 0, "x", -0.4, dark_variance=0.3)),
            n_input_modes=1,
        ),
        gaussian.displace(gaussian.vacuum_state(1), 0, 0.5, 1.0),
    ),
}


def _digest(result) -> str:
    """sha256 over every field: name, dtype, shape and bytes of each array."""
    digest = hashlib.sha256()
    for field in fields(EnsembleResult):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            digest.update(f"{field.name} {value.dtype.str} {value.shape}\n".encode())
            digest.update(value.tobytes())
        else:
            digest.update(f"{field.name} {value!r}\n".encode())
    return digest.hexdigest()


def _z_report_loop(result, analytic_mean, analytic_cov):
    """Entry-by-entry reference for ``z_score_report``: (max_z, worst)."""

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
    return max_z, worst


def _shot_moments(means):
    """The sample mean and covariance of the shots' ``means``, one row per shot."""
    means = np.asarray(means)
    mean = pairwise_tree_sum(means) / len(means)
    centered = means - mean
    outer = centered[:, :, np.newaxis] * centered[:, np.newaxis, :]
    return mean, pairwise_tree_sum(outer) / (len(means) - 1)


def _two_sample_z(a, b):
    """|z| of the differences between samples ``a`` and ``b`` in each column's mean and variance.

    The standard errors are the samples' own: the variance's from their
    fourth central moments.
    """

    def moments(sample):
        centred = sample - sample.mean(axis=0)
        var = centred.var(axis=0, ddof=1)
        fourth = (centred**4).mean(axis=0)
        return sample.mean(axis=0), var / len(sample), var, (fourth - var**2) / len(sample)

    (mean_a, se2_mean_a, var_a, se2_var_a), (mean_b, se2_mean_b, var_b, se2_var_b) = map(
        moments, (a, b)
    )
    return (
        np.abs(mean_a - mean_b) / np.sqrt(se2_mean_a + se2_mean_b),
        np.abs(var_a - var_b) / np.sqrt(se2_var_a + se2_var_b),
    )


class TestPairwiseTreeSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 1001])
    def test_matches_plain_sum(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, 3))
        assert np.allclose(pairwise_tree_sum(values), values.sum(axis=0), atol=1e-9)

    def test_deterministic(self):
        values = np.random.default_rng(0).standard_normal((999, 2, 2))
        assert np.array_equal(pairwise_tree_sum(values), pairwise_tree_sum(values.copy()))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 3 * 4096 + 7), seed=st.integers(0, 2**32 - 1))
    @example(n=4096, seed=0)
    @example(n=4097, seed=1)
    @example(n=2 * 4096 - 1, seed=2)
    @example(n=3 * 4096 + 7, seed=3)
    def test_tree_of_block_trees_is_tree_of_rows(self, n, seed):
        # the tree over the rows joins the trees of its power-of-two-long
        # blocks in the pairs in which the tree over the block sums does
        block = 4096
        rng = np.random.default_rng(seed)
        # both signs over 60 decades, so any regrouping of the sum shows
        values = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-30.0, 30.0, (n, 3))
        block_sums = [
            pairwise_tree_sum(values[start : start + block]) for start in range(0, n, block)
        ]
        assert np.array_equal(pairwise_tree_sum(np.array(block_sums)), pairwise_tree_sum(values))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 300),
        trailing=st.lists(st.integers(1, 4), max_size=2),
        layout=st.sampled_from(["C", "F", "transposed", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=4099, trailing=[10], layout="transposed", seed=0)
    def test_same_bits_as_row_pairs(self, n, trailing, layout, seed):
        # whatever the layout of the rows, each sum pairs them as the plain
        # loop over axis 0 does
        rng = np.random.default_rng(seed)
        shape = (n, *trailing)
        values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30.0, 30.0, shape)
        if layout == "F":
            values = np.asfortranarray(values)
        elif layout == "transposed":
            values = np.ascontiguousarray(values.T).T
        elif layout == "strided":
            values = np.repeat(values, 2, axis=-1)[..., ::2]
        rows = list(values)
        while len(rows) > 1:
            rows = [rows[k] + rows[k + 1] if k + 1 < len(rows) else rows[k]
                    for k in range(0, len(rows), 2)]
        got = pairwise_tree_sum(values)
        assert (got.shape, got.tobytes()) == (rows[0].shape, rows[0].tobytes())


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
        a = run_ensemble(circuit, state, 500, 42)
        b = run_ensemble(circuit, state, 500, 42)
        assert b is not a
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)

    def test_different_seed_differs(self):
        circuit = default_gate()
        a = run_ensemble(circuit, gaussian.vacuum_state(2), 500, 1)
        b = run_ensemble(circuit, gaussian.vacuum_state(2), 500, 2)
        assert not np.array_equal(a.mean, b.mean)

    def test_run_means_takes_one_shot(self):
        program = compile_trajectory(*CASES["measured"]())
        for shape in ((program.draws_per_shot + 1,), (3, program.draws_per_shot)):
            with pytest.raises(ValueError, match="draws per shot"):
                program.run_means(np.zeros(shape))

    @pytest.mark.parametrize("seed", [1.5, 2**64, -1, True, "7"])
    def test_invalid_master_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            run_ensemble(default_gate(), gaussian.vacuum_state(2), 10, seed)

    def test_seed_range_limits_accepted(self):
        state = gaussian.vacuum_state(2)
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert run_ensemble(default_gate(), state, 10, seed).mean.shape == (4,)

    def test_high_seeds_keep_every_bit(self):
        # neighbouring seeds above 2**63 are distinct Philox keys
        state = gaussian.vacuum_state(2)
        a = run_ensemble(default_gate(), state, 10, 2**63)
        b = run_ensemble(default_gate(), state, 10, 2**63 + 1)
        assert not np.array_equal(a.mean, b.mean)

    def test_shot_count_bound(self):
        # beyond 2**53 a shot count is no longer exact in float64, and
        # n - 1 - i would overflow the chi-square draw's int64 past 2**63
        circuit, state = CASES["measured"]()
        assert MAX_SHOTS == 2**53
        result = run_ensemble(circuit, state, 2**53, 0)
        assert np.all(np.isfinite(result.cov)) and np.all(result.se_mean > 0.0)
        message = r"run n must be at most 2\*\*53, got 9007199254740993"
        with pytest.raises(ValueError, match=message):
            run_ensemble(circuit, state, 2**53 + 1, 0)

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

    def test_peak_memory_does_not_grow_with_the_shot_count(self):
        # no shot is held: the program, the Bartlett factor and the result,
        # about 12 kB at either size.  One block of 4096 shots' draws alone
        # would be 131 kB, and the (n, 4) draws 3.2 MB at n = 1e5
        peaks = [_ensemble_peak_bytes(*CASES["measured"](), n) for n in (100_000, 10**9)]
        assert max(peaks) < 50_000
        assert max(peaks) < 1.1 * min(peaks)

    def test_se_scaling_with_n(self):
        circuit = default_gate()
        state = gaussian.vacuum_state(2)
        small = run_ensemble(circuit, state, 4000, 5)
        large = run_ensemble(circuit, state, 8000, 5)
        ratio = np.median(small.se_mean / large.se_mean)
        assert np.sqrt(2.0) * 0.85 < ratio < np.sqrt(2.0) * 1.15


class TestExactLaw:
    SEEDS = range(1000)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 1000, 10**9])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_draws_follow_their_law(self, d, n):
        # over the seeds, E[S] = I, Var[S_ij] = (1 + delta_ij) / k and
        # E[m m^T] = I / n, each within z < 5 of its exact standard error;
        # k = n - 1 runs below, at and above d
        draws = [ensemble._draw_moments(seed, n, d) for seed in self.SEEDS]
        m, cov = (np.array(part) for part in zip(*draws))
        seeds, k, eye = len(draws), n - 1, np.eye(d)
        assert m.shape == (seeds, d) and cov.shape == (seeds, d, d)
        assert np.array_equal(cov, cov.transpose(0, 2, 1))
        # k S_ii ~ chi^2(k); k S_ij, i != j, is a sum of k products of two normals
        var = (1.0 + eye) / k
        fourth = np.where(eye == 1.0, 12.0 * (k + 4), 3.0 * (k + 2)) / k**3
        var_of_var = (fourth - var**2 * (seeds - 3) / (seeds - 1)) / seeds
        outer = m[:, :, np.newaxis] * m[:, np.newaxis, :]
        z = {
            "E[S]": (cov.mean(axis=0) - eye) / np.sqrt(var / seeds),
            "Var[S]": (cov.var(axis=0, ddof=1) - var) / np.sqrt(var_of_var),
            "E[m m^T]": (outer.mean(axis=0) - eye / n) / np.sqrt((1.0 + eye) / n**2 / seeds),
        }
        for name, values in z.items():
            assert np.max(np.abs(values)) < 5.0, name

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("case", [c for c in CASES if c not in ("empty", "no_homodyne")])
    def test_spread_over_seeds_matches_shot_sets_of_run_trajectory(self, case, n):
        # the independent per-shot path: n shots of run_trajectory on other
        # seeds.  Over 1000 seeds each, the mean and the variance of every
        # entry of mean and of the mean scatter, cov - final_cov, that a draw
        # reaches agree at z < 5, and every other entry is one constant on
        # both paths.  These circuits draw d = 1 to 4 numbers per shot, so
        # k = n - 1 runs below, at and above d.  The program is compiled once and each shot runs as
        # run_trajectory runs it, on the same generators in the same order
        circuit, state = CASES[case]()
        program = compile_trajectory(circuit, state)
        drawn, shots = [], []
        for seed in TestExactLaw.SEEDS:
            result = run_ensemble(circuit, state, n, seed)
            upper = np.triu_indices(len(result.mean))
            drawn.append(np.concatenate([result.mean, (result.cov - program.final_cov)[upper]]))
            rng = trajectory_generator(seed + len(TestExactLaw.SEEDS), 0)
            means = [program.run_means(rng.standard_normal(program.draws_per_shot))[0]
                     for _ in range(n)]
            if seed == TestExactLaw.SEEDS[0]:
                rng = trajectory_generator(seed + len(TestExactLaw.SEEDS), 0)
                replayed = [run_trajectory(circuit, state, rng)[0].mean for _ in range(n)]
                assert np.array(means).tobytes() == np.array(replayed).tobytes()
            mean, scatter = _shot_moments(means)
            shots.append(np.concatenate([mean, scatter[upper]]))
        drawn, shots = np.array(drawn), np.array(shots)
        # an entry that no draw reaches holds one value on both paths, and 0 in the scatter
        fixed = np.all(drawn == drawn[0], axis=0)
        dim = len(result.mean)
        assert np.all(drawn[0, dim:][fixed[dim:]] == 0.0)
        assert np.allclose(shots[:, fixed], drawn[0, fixed], rtol=1e-12, atol=1e-12)
        for z in _two_sample_z(drawn[:, ~fixed], shots[:, ~fixed]):
            assert np.max(z) < 5.0


# sha256 of ``_digest`` for (case, n, seed), recorded with the sampler that
# draws the draws' sample mean and covariance from their exact law.  The
# circuits with no draws (``empty``, ``no_homodyne``) kept the values of the
# shot-level kernels before it, since their results hold no random number.
# ``ideal``, ``measured`` and ``three_modes`` were recorded again when the
# lowering began to sum each matrix through its per-layout plan and to read
# quarter turns exactly, and ``no_homodyne`` when its displacement went.
# All seven were recorded again when the result dropped every field but
# ``mean``, ``cov``, ``se_mean`` and ``se_cov``: each equals the old digest
# taken over those four fields alone
RECORDED_DIGESTS = {
    ("measured", 100_001, 2**64 - 1):
        "751bda9996fb2fc9d7417cd082dd346be3fbcfb9556de6c19d9e7d93c7a86436",
    ("ideal", 4097, 7): "2ed75f10548d29c212c99a69152dce118fa4c5daca8391f60b14ae4a07957b0c",
    ("empty", 100, 7): "698dd8f37214f5b2e9f013f72293318c8f4df8030cc2d8a8b1bccff7a5106739",
    ("one_mode", 8193, 11): "1c35ed4044333855338a456b2e29ac839b4f57f13aaae8099b35ee4a630fede0",
    ("three_modes", 8193, 12): "ae3390df9d2c803e687d073f76518b8dd4cc8345eeedfe42685fdf0f79f7d8af",
    ("lossy_homodyne", 8193, 13):
        "a7adf504a691f10f7ef053f9694c83ac78b656e4fd5b3d2964621e7b77604abb",
    ("no_homodyne", 8193, 14): "10475acc7351a5936ac623cc03264e09827d83f43c5178b7893e2812ab277c49",
}


class TestRecordedDigests:
    @pytest.mark.parametrize("case, n, seed", sorted(RECORDED_DIGESTS))
    def test_result_matches_recorded_digest(self, case, n, seed):
        circuit, state = CASES[case]()
        assert _digest(run_ensemble(circuit, state, n, seed)) == RECORDED_DIGESTS[case, n, seed]


def _ensemble_peak_bytes(circuit, state, n):
    """tracemalloc peak of one ensemble, after a first one has imported what it needs."""
    run_ensemble(circuit, state, 2, 5)
    tracemalloc.start()
    try:
        run_ensemble(circuit, state, n, 5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _same_bits(a, b) -> bool:
    """Every field equal bit for bit, the sign of a zero included."""
    for field in fields(EnsembleResult):
        got, want = getattr(a, field.name), getattr(b, field.name)
        if isinstance(want, np.ndarray):
            if not (isinstance(got, np.ndarray) and got.shape == want.shape
                    and got.tobytes() == want.tobytes()):
                return False
        elif got != want or type(got) is not type(want):
            return False
    return True


class TestPureFunction:
    @pytest.mark.parametrize("n", [2, 5, 100_001])
    def test_every_call_draws_the_same_bits(self, n):
        displaced = gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0)
        measured = build_qnd_gate(GateParams.from_gain(1.5), ImperfectionModel())
        for circuit, state in ((default_gate(), gaussian.vacuum_state(2)), (measured, displaced)):
            first = run_ensemble(circuit, state, n, 3)
            again = run_ensemble(circuit, state.copy(), n, 3)
            assert again is not first
            assert _same_bits(again, first)

    def test_numpy_scalars_give_the_same_bits(self):
        state = gaussian.vacuum_state(2)
        first = run_ensemble(default_gate(), state, 10, 2**64 - 1)
        numpy = run_ensemble(default_gate(), state, np.int64(10), np.uint64(2**64 - 1))
        assert _same_bits(numpy, first)

    def test_results_cannot_change(self):
        result = run_ensemble(default_gate(), gaussian.vacuum_state(2), 100, 4)
        for field in fields(EnsembleResult):
            value = getattr(result, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = 0.0
            with pytest.raises(FrozenInstanceError):
                setattr(result, field.name, value)

    @pytest.mark.parametrize(
        "n, seed, modes, error",
        [
            (10, 5.0, 2, ValueError),
            (10, True, 2, ValueError),
            (10, -1, 2, ValueError),
            (1, 1, 2, ValueError),
            (10.0, 1, 2, TypeError),
            (10, 1, 3, ValueError),
            (2**53 + 1, 1, 2, ValueError),
        ],
    )
    def test_bad_arguments_rejected(self, n, seed, modes, error):
        # seed True and 5.0 equal the valid seeds 1 and 5 as Python values,
        # and a state whose mode count disagrees with its arrays has the
        # vacuum's arrays
        state = gaussian.vacuum_state(2)
        state.n_modes = modes
        with pytest.raises(error):
            run_ensemble(default_gate(), state, n, seed)


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
            mean=rng.standard_normal(dim),
            cov=rng.standard_normal((dim, dim)),
            se_mean=np.abs(rng.standard_normal(dim)) * (rng.random(dim) < 0.7),
            se_cov=np.abs(rng.standard_normal((dim, dim))) * (rng.random((dim, dim)) < 0.7),
        )
        mean = result.mean + rng.standard_normal(dim) * (rng.random(dim) < 0.5)
        cov = result.cov + rng.standard_normal((dim, dim)) * (rng.random((dim, dim)) < 0.5)
        if seed % 4 == 0:
            mean, cov = result.mean.copy(), result.cov.copy()
        report = z_score_report(result, mean, cov)
        assert (report.max_z, report.worst_entry) == _z_report_loop(result, mean, cov)


class TestSubstreams:
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_rekeyed_stream_is_the_block_substream(self, seed):
        # the key set on a Philox(0) is the stream of a Philox built with
        # that key, from the same state on; no OS entropy seeded it
        for block in (0, 1, 24):
            rekeyed = trajectory_generator(seed, block)
            keyed = np.random.Generator(
                np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
            )
            assert repr(rekeyed.bit_generator.state) == repr(keyed.bit_generator.state)
            assert rekeyed.bit_generator.seed_seq.entropy == 0
            got, want = (g.standard_normal(3 * 4096 + 1) for g in (rekeyed, keyed))
            assert got.tobytes() == want.tobytes()

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
