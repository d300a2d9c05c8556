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
    Displacement,
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
    MEMO_ENTRIES,
    SHOTS_PER_BLOCK,
    EnsembleResult,
    pairwise_tree_sum,
    run_ensemble,
    trajectory_generator,
    z_score_report,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    # a test that compares two runs must compute both, not read one back
    ensemble._memoised.cache_clear()


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
    # an inefficient homodyne with dark noise: 2 draws per shot
    "lossy_homodyne": lambda: (
        Circuit(
            (AncillaInjection(0.5, 0.0, "A"), BeamSplitter(0, 2, 0.35),
             HomodyneFeedforward(2, 0.0, 1, "p", -0.8, efficiency=0.8, dark_variance=0.3)),
        ),
        gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0),
    ),
    # no homodyne: 0 draws per shot
    "no_homodyne": lambda: (
        Circuit((BeamSplitter(0, 1, 0.3), Loss(0, 0.9, "l"), Displacement(1, 0.5, -0.25))),
        gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0),
    ),
    # 1 output mode and two homodynes with dark noise: 4 draws per shot, more
    # than the 2 output quadratures they scatter
    "more_draws_than_outputs": lambda: (
        Circuit(
            (AncillaInjection(0.5, 0.0, "A"), AncillaInjection(0.6, np.pi / 2, "B"),
             BeamSplitter(0, 1, 0.3), BeamSplitter(0, 2, 0.4),
             HomodyneFeedforward(2, 0.0, 0, "p", 0.5, efficiency=0.9, dark_variance=0.2),
             HomodyneFeedforward(1, np.pi / 2, 0, "x", -0.4, efficiency=0.8, dark_variance=0.3)),
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


def _draws(program, n, master_seed):
    """Every shot's draws at once, from the same block substreams as ``run_ensemble``."""
    draws = np.empty((n, program.draws_per_shot))
    for start in range(0, n, SHOTS_PER_BLOCK):
        block = trajectory_generator(master_seed, start // SHOTS_PER_BLOCK)
        block.standard_normal(out=draws[start : start + SHOTS_PER_BLOCK])
    return draws


def _propagate(program, draws):
    """Every shot's output means: one affine propagation of all rows."""
    n_out = 2 * program.n_output_modes
    values = np.tile(program.mean0[:n_out], (len(draws), 1))
    for j in range(program.draws_per_shot):
        values += np.outer(draws[:, j], program.gains[:n_out, j])
    return values


def _result(n, master_seed, program, mean, scatter):
    diag = np.diag(scatter)
    return EnsembleResult(
        n_trajectories=n,
        master_seed=master_seed,
        mean=mean,
        cov=program.final_cov + scatter,
        mean_scatter=scatter,
        conditional_cov=program.final_cov.copy(),
        se_mean=np.sqrt(diag / n),
        se_cov=np.sqrt((np.outer(diag, diag) + scatter**2) / (n - 1)),
    )


def _merge(a, b):
    """Chan, Golub and LeVeque's update of two blocks' (count, mean, scatter)."""
    (na, ma, sa), (nb, mb, sb) = a, b
    n, delta = na + nb, mb - ma
    return n, ma + delta * (nb / n), sa + sb + np.outer(delta, delta) * (na * nb / n)


def _block_moment_ensemble(circuit, state, n, master_seed):
    """Reference ensemble: every draw and full outer product held at once.

    Each block of the draws gives its count, its tree-summed mean and the
    tree sum of the full outer products about that mean; the blocks merge
    pairwise, neighbour with neighbour and the last of an odd count carried
    up, and the merged moments are mapped through the output gains.  The
    streaming ``run_ensemble`` must reproduce it bit for bit.
    """
    program = compile_trajectory(circuit, state)
    draws = _draws(program, n, master_seed)
    moments = []
    for start in range(0, n, SHOTS_PER_BLOCK):
        block = draws[start : start + SHOTS_PER_BLOCK]
        block_mean = pairwise_tree_sum(block) / len(block)
        centered = block - block_mean
        outer = centered[:, :, np.newaxis] * centered[:, np.newaxis, :]
        moments.append((len(block), block_mean, pairwise_tree_sum(outer)))
    while len(moments) > 1:
        moments = [_merge(*moments[k : k + 2]) if k + 1 < len(moments) else moments[k]
                   for k in range(0, len(moments), 2)]
    _, draw_mean, draw_scatter = moments[0]
    draw_cov = draw_scatter / (n - 1)
    gains = program.gains[: 2 * program.n_output_modes]
    scatter = gains @ draw_cov @ gains.T
    lower = np.tril_indices(len(scatter), -1)
    scatter[lower] = scatter.T[lower]
    mean = program.mean0[: len(gains)] + gains @ draw_mean
    return _result(n, master_seed, program, mean, scatter)


def _shot_moments(means):
    """The sample mean and covariance of the shots' ``means``, one row per shot.

    One tree over all rows of the means and of their centred outer products.
    It sums in another order than the merged block moments do, so
    ``run_ensemble`` agrees with it to rounding, not bit for bit.
    """
    means = np.asarray(means)
    mean = pairwise_tree_sum(means) / len(means)
    centered = means - mean
    outer = centered[:, :, np.newaxis] * centered[:, np.newaxis, :]
    return mean, pairwise_tree_sum(outer) / (len(means) - 1)


def _per_shot_ensemble(circuit, state, n, master_seed):
    """Independent reference: every shot's means propagated, then their moments."""
    program = compile_trajectory(circuit, state)
    mean, scatter = _shot_moments(_propagate(program, _draws(program, n, master_seed)))
    return _result(n, master_seed, program, mean, scatter)


# (case, seed) of the reference checks: the two-mode gates with 4 or 2 draws
# per shot, then every other shape the kernel branches on
REFERENCE_REQUESTS = [("ideal", 7), ("measured", 2**63 + 5)]
REFERENCE_REQUESTS += [(name, 21) for name in CASES if name not in ("ideal", "measured")]
ENSEMBLE_SIZES = [2, 3, 4095, 4096, 4097, 8191, 8193, 12289, 12293, 20480, 100_000, 100_001]


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
    @given(n=st.integers(2, 3 * SHOTS_PER_BLOCK + 7), seed=st.integers(0, 2**32 - 1))
    @example(n=SHOTS_PER_BLOCK, seed=0)
    @example(n=SHOTS_PER_BLOCK + 1, seed=1)
    @example(n=2 * SHOTS_PER_BLOCK - 1, seed=2)
    @example(n=3 * SHOTS_PER_BLOCK + 7, seed=3)
    def test_tree_of_block_trees_is_tree_of_rows(self, n, seed):
        # run_ensemble merges its blocks in the pairs in which the tree over
        # all shots joins its block-sized subtrees; with a block size that is
        # not a power of two a block boundary would cut a pair of some level
        assert SHOTS_PER_BLOCK & (SHOTS_PER_BLOCK - 1) == 0 < SHOTS_PER_BLOCK
        rng = np.random.default_rng(seed)
        # both signs over 60 decades, so any regrouping of the sum shows
        values = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-30.0, 30.0, (n, 3))
        block_sums = [
            pairwise_tree_sum(values[start : start + SHOTS_PER_BLOCK])
            for start in range(0, n, SHOTS_PER_BLOCK)
        ]
        assert np.array_equal(pairwise_tree_sum(np.array(block_sums)), pairwise_tree_sum(values))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 300),
        trailing=st.lists(st.integers(1, 4), max_size=2),
        layout=st.sampled_from(["C", "F", "transposed", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=SHOTS_PER_BLOCK + 3, trailing=[10], layout="transposed", seed=0)
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
        ensemble._memoised.cache_clear()
        b = run_ensemble(circuit, state, 500, 42)
        assert b is not a
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)

    def test_different_seed_differs(self):
        circuit = default_gate()
        a = run_ensemble(circuit, gaussian.vacuum_state(2), 500, 1)
        b = run_ensemble(circuit, gaussian.vacuum_state(2), 500, 2)
        assert not np.array_equal(a.mean, b.mean)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [2, 17, SHOTS_PER_BLOCK + 5])
    def test_moments_of_single_trajectories(self, n, case):
        # shot i is a run_trajectory on block i // SHOTS_PER_BLOCK's
        # substream after the shots before it in that block, so the shots'
        # moments are the ensemble's to the rounding (and the 4 eps bound)
        # of test_agrees_with_per_shot_ensemble, for every circuit shape:
        # the worst deviation over these cases measures 0.86 eps
        circuit, state = CASES[case]()
        means = []
        for start in range(0, n, SHOTS_PER_BLOCK):
            rng = trajectory_generator(314, start // SHOTS_PER_BLOCK)
            for _ in range(min(n - start, SHOTS_PER_BLOCK)):
                means.append(run_trajectory(circuit, state, rng)[0].mean)
        result = run_ensemble(circuit, state, n, 314)
        bound = 4 * np.finfo(float).eps * np.max(np.abs(result.cov))
        for got, want in zip((result.mean, result.mean_scatter), _shot_moments(means)):
            assert np.max(np.abs(got - want)) <= bound

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
            assert run_ensemble(default_gate(), state, 10, seed).n_trajectories == 10

    def test_high_seeds_keep_every_bit(self):
        # neighbouring seeds above 2**63 are distinct Philox keys
        state = gaussian.vacuum_state(2)
        a = run_ensemble(default_gate(), state, 10, 2**63)
        b = run_ensemble(default_gate(), state, 10, 2**63 + 1)
        assert not np.array_equal(a.mean, b.mean)

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

    @pytest.mark.parametrize("n", ENSEMBLE_SIZES)
    def test_bit_identical_to_block_moment_ensemble(self, n):
        for case, seed in REFERENCE_REQUESTS:
            circuit, state = CASES[case]()
            reference = _block_moment_ensemble(circuit, state, n, seed)
            result = run_ensemble(circuit, state, n, seed)
            for field in fields(EnsembleResult):
                got, want = (np.asarray(getattr(r, field.name)) for r in (result, reference))
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), (field.name, case)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n=st.integers(2, 12 * SHOTS_PER_BLOCK), case=st.sampled_from(["measured", "one_mode"]))
    def test_bit_identical_to_block_moment_ensemble_at_any_size(self, n, case):
        circuit, state = CASES[case]()
        reference = _block_moment_ensemble(circuit, state, n, 5)
        result = run_ensemble(circuit, state, n, 5)
        for name in ("mean", "cov", "mean_scatter", "se_mean", "se_cov"):
            assert getattr(result, name).tobytes() == getattr(reference, name).tobytes(), name

    @pytest.mark.parametrize("n", ENSEMBLE_SIZES)
    def test_agrees_with_per_shot_ensemble(self, n):
        # the two sum in different orders, so they agree to rounding: the
        # worst deviation over these requests and fields measures 2.71e-16
        # of the largest |cov| entry (1.22 eps), in three_modes' cov at
        # n = 4096, and the bound of 4 eps leaves 3.3x above it.  The
        # conditional covariance matches bit for bit
        for case, seed in REFERENCE_REQUESTS:
            circuit, state = CASES[case]()
            reference = _per_shot_ensemble(circuit, state, n, seed)
            result = run_ensemble(circuit, state, n, seed)
            bound = 4 * np.finfo(float).eps * np.max(np.abs(reference.cov))
            for name in ("mean", "cov", "mean_scatter", "se_mean", "se_cov"):
                got, want = getattr(result, name), getattr(reference, name)
                assert np.max(np.abs(got - want), initial=0.0) <= bound, (name, case)
            assert result.conditional_cov.tobytes() == reference.conditional_cov.tobytes()

    def test_peak_memory_is_one_block_whatever_the_shot_count(self):
        # the measured gate draws 4 numbers per shot: one block's draws,
        # their transpose, the 10 products per shot and the tree's first
        # levels, about 0.85 MB at either size.  Holding the (n, 4) draws
        # would add 3.2 MB at n = 1e5 and 32 MB at n = 1e6
        peaks = [_ensemble_peak_bytes(*CASES["measured"](), n) for n in (100_000, 1_000_000)]
        assert max(peaks) < 1.0e6
        assert max(peaks) < 1.1 * min(peaks)

    def test_se_scaling_with_n(self):
        circuit = default_gate()
        state = gaussian.vacuum_state(2)
        small = run_ensemble(circuit, state, 4000, 5)
        large = run_ensemble(circuit, state, 8000, 5)
        ratio = np.median(small.se_mean / large.se_mean)
        assert np.sqrt(2.0) * 0.85 < ratio < np.sqrt(2.0) * 1.15


# sha256 of ``_digest`` for (case, n, seed), recorded with the kernel that
# reduces each block to its draws' moments, merges the blocks' moments and
# maps them through the output gains.  They were re-recorded when the
# ``outcomes`` field went; hashing the remaining fields of the previous
# kernel's results gives the same values.  ``_block_moment_ensemble`` shares
# the generator and tree with ``run_ensemble``, so these pin the contract
# from outside both
RECORDED_DIGESTS = {
    ("measured", 100_001, 2**64 - 1):
        "040b738a9f1e99bce51806ac3963d52e99bd9377da1c89869e40bc8f99c344e1",
    ("ideal", 4097, 7): "3336c219a6ac771ef1008c783791dd3721df91d263b4322a69617075fb2b69a8",
    ("empty", 100, 7): "aa7ead29ead9cdade9372556f8a75fe958244c1081038fe83ead1b33faea7014",
    ("one_mode", 8193, 11): "7364a723da33d27eebce41bbc23dcc4620152d9aeb3cd333d9ef5a59ae56d30b",
    ("three_modes", 8193, 12): "f0974354d1d167dc85f6c749c5eb4bd642e8f96ac3a7a41e64b435f341734dff",
    ("lossy_homodyne", 8193, 13):
        "e3c63490f166216a2d1dfbbd2a9f9ba6bf579d6889db1a8c85dfa711478ad657",
    ("no_homodyne", 8193, 14): "789631193643a6b9390f51518ad652a15b54a348a4188b31ba005f63d75fdc23",
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


def _assert_rejected_before_lookup(n, seed, modes, error):
    """The call raises ``error`` and neither reads nor changes the memo.

    An equal valid request is memoised first: seed True and 5.0 equal the
    valid seeds 1 and 5 as Python values, and a state whose mode count
    disagrees with its arrays has the vacuum's bytes.
    """
    circuit = default_gate()
    for valid_seed in (1, 5):
        run_ensemble(circuit, gaussian.vacuum_state(2), 10, valid_seed)
    state = gaussian.vacuum_state(2)
    state.n_modes = modes
    before = ensemble._memoised.cache_info()
    with pytest.raises(error):
        run_ensemble(circuit, state, n, seed)
    after = ensemble._memoised.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)


class TestMemo:
    @pytest.mark.parametrize("n", [2, SHOTS_PER_BLOCK + 1, 100_001])
    def test_hit_equals_fresh_computation(self, n):
        displaced = gaussian.displace(gaussian.vacuum_state(2), 0, 2.0, -1.0)
        measured = build_qnd_gate(GateParams.from_gain(1.5), ImperfectionModel())
        for circuit, state in ((default_gate(), gaussian.vacuum_state(2)), (measured, displaced)):
            first = run_ensemble(circuit, state, n, 3)
            hit = run_ensemble(circuit, state.copy(), n, 3)
            assert hit is first
            ensemble._memoised.cache_clear()
            fresh = run_ensemble(circuit, state, n, 3)
            assert fresh is not hit
            assert _same_bits(hit, fresh)

    def test_numpy_scalars_share_the_python_integer_request(self):
        state = gaussian.vacuum_state(2)
        first = run_ensemble(default_gate(), state, 10, 2**64 - 1)
        assert run_ensemble(default_gate(), state, np.int64(10), np.uint64(2**64 - 1)) is first
        assert type(first.n_trajectories) is int and type(first.master_seed) is int

    def test_zero_signs_are_not_shared(self):
        # equal in value, not in bits: each gets its own result, the one a
        # fresh computation gives
        plus = gaussian.vacuum_state(2)
        minus = gaussian.vacuum_state(2)
        minus.mean[:] = -0.0
        gate = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
        # with excess noise, angle 0.0 writes -0.0 into the x row's excess
        # column and angle -0.0 writes +0.0
        ancilla = [
            Circuit((AncillaInjection(0.5, angle, "A", antisqueeze_excess=1.2),))
            for angle in (0.0, -0.0)
        ]
        assert ancilla[0] == ancilla[1]
        assert ancilla[0].matrix.tobytes() != ancilla[1].matrix.tobytes()
        for pairs in (((gate, plus), (gate, minus)), ((ancilla[0], plus), (ancilla[1], plus))):
            ensemble._memoised.cache_clear()
            shared = [run_ensemble(c, s, 5000, 8) for c, s in pairs]
            assert shared[0] is not shared[1]
            for (circuit, state), result in zip(pairs, shared):
                ensemble._memoised.cache_clear()
                assert _same_bits(result, run_ensemble(circuit, state, 5000, 8))

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
        ],
    )
    def test_checks_run_before_the_lookup(self, n, seed, modes, error):
        _assert_rejected_before_lookup(n, seed, modes, error)

    def test_memo_is_bounded(self):
        circuit, state = default_gate(), gaussian.vacuum_state(2)
        results = []
        for seed in range(MEMO_ENTRIES + 3):
            results.append(run_ensemble(circuit, state, 10, seed))
            assert ensemble._memoised.cache_info().currsize == min(seed + 1, MEMO_ENTRIES)
        # the newest requests are held, the oldest recomputed
        assert run_ensemble(circuit, state, 10, MEMO_ENTRIES + 2) is results[-1]
        again = run_ensemble(circuit, state, 10, 0)
        assert again is not results[0] and _same_bits(again, results[0])
        assert ensemble._memoised.cache_info().currsize == MEMO_ENTRIES


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


class TestSubstreams:
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_rekeyed_stream_is_the_block_substream(self, seed):
        # one Philox re-keyed per block draws what a new Philox per block
        # draws, whatever the last block left in its buffer
        generator = np.random.Generator(np.random.Philox(0))
        for block in (0, 1, 24):
            generator.integers(0, 2**32, 3, dtype=np.uint32)  # leave a half-used buffer word
            rekeyed, fresh = ensemble._rekey(generator, seed, block), trajectory_generator(seed, block)
            assert repr(rekeyed.bit_generator.state) == repr(fresh.bit_generator.state)
            got, want = (g.standard_normal(3 * SHOTS_PER_BLOCK + 1) for g in (rekeyed, fresh))
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
