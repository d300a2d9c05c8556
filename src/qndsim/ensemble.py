"""Seeded Monte Carlo ensembles of homodyne-feedforward trajectories.

Validates the deterministic covariance propagation against sampled shots.
Shots are grouped into blocks of ``SHOTS_PER_BLOCK``; block ``b`` draws from
the counter-based Philox substream keyed on ``(master_seed, b)``, one row of
``draws_per_shot`` standard normals per shot, filled in shot order.  Shot
``i`` is therefore row ``i % SHOTS_PER_BLOCK`` of block
``i // SHOTS_PER_BLOCK``, and its numbers depend only on ``(master_seed, i,
draws_per_shot)``: an ensemble of ``n`` shots is the first ``n`` shots of any
larger one with the same seed, and the result does not depend on scheduling.

Each shot's output means are affine in its draws, ``mean0 + G d`` with the
program's output gains ``G``, so the sample mean and covariance of the
per-shot means are exactly ``mean0 + G m`` and ``G S G^T``, where ``m`` and
``S`` are the sample mean and covariance of the draws (the linear-Gaussian
map of Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).  An ensemble
therefore aggregates its draws, never its shots' means.  Each block is
reduced to its shot count, its draws' mean and the upper triangle of their
centred scatter, each a fixed pairwise tree over the block's shots, and the
blocks' moments merge in the same tree by the pairwise update of Chan, Golub
and LeVeque (Am. Stat. 37, 242 (1983)).  The summation order is thus part of
the contract, and memory is one block whatever the shot count.

A result is a pure function of the circuit's row stack, the input state, the
shot count and the seed, so equal requests share one read-only result from a
bounded memo keyed on those inputs' bytes: the vacuum-input ensemble that
``transfer`` draws also serves ``conditional``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .circuit import Circuit, compile_trajectory
from .gaussian import GaussianState


SHOTS_PER_BLOCK = 4096
# results the memo holds; transfer then conditional on one working point needs one
MEMO_ENTRIES = 4


def trajectory_generator(master_seed: int, block: int) -> np.random.Generator:
    """The substream that draws the shots of one block of one ensemble."""
    # an explicit uint64 key: a list holding a seed >= 2**63 would go through float64
    key = np.array([master_seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(generator: np.random.Generator, master_seed: int, block: int) -> np.random.Generator:
    """Restart a Philox ``generator`` on ``trajectory_generator(master_seed, block)``'s stream.

    Unlike a new Philox, which seeds itself from OS entropy before its key
    replaces it, this reads none.  An empty buffer: the next draw runs counter 0.
    """
    key = np.array([master_seed, block], dtype=np.uint64)
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": key},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator


def check_master_seed(master_seed) -> None:
    """Reject seeds that are not an integer in [0, 2**64), the Philox key word."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, Integral):
        raise ValueError(f"master seed must be an integer, got {master_seed!r}")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master seed must lie in [0, 2**64), got {master_seed}")


def pairwise_tree_sum(values: np.ndarray) -> np.ndarray:
    """Sum along axis 0 by pairing neighbours ``(0,1), (2,3), ...`` repeatedly.

    The reduction order is a pure function of the length, so the result is
    bit-identical no matter how the rows were produced or scheduled.
    """
    values = np.asarray(values)
    shape, width = values.shape[1:], len(values)
    # each sum's terms contiguous: a copy unless axis 0 already was
    flat = values.reshape(width, -1).T.reshape(-1)
    while width > 1:
        if width % 2:  # the odd last term of each sum is carried up
            rows = flat.reshape(-1, width)
            flat = np.concatenate([rows[:, :-1:2] + rows[:, 1::2], rows[:, -1:]], axis=1).ravel()
        else:  # no pair straddles two sums, so the level runs on the flat array
            flat = flat[0::2] + flat[1::2]
        width = -(-width // 2)
    return flat.reshape(shape)


@dataclass(frozen=True)
class EnsembleResult:
    """Empirical ensemble statistics with standard errors.

    ``cov`` estimates the ensemble-average state's covariance: the common
    conditional covariance of the shots plus the scatter of the conditional
    means.  Standard errors come from the mean scatter, which is the only
    stochastic ingredient.  ``run_ensemble`` returns its arrays read-only,
    since equal requests share one result.
    """

    n_trajectories: int
    master_seed: int
    mean: np.ndarray
    cov: np.ndarray
    mean_scatter: np.ndarray     # sample covariance of the per-shot means, G S G^T
    conditional_cov: np.ndarray  # outcome-independent final covariance
    se_mean: np.ndarray
    se_cov: np.ndarray


def run_ensemble(
    circuit: Circuit, state: GaussianState, n: int, master_seed: int
) -> EnsembleResult:
    """Run ``n`` independent trajectories and aggregate their statistics.

    Each block's draws are reduced to their count, mean and scatter, and
    the blocks' moments merged; the output means and their scatter are the
    merged moments mapped through the output gains.  Memory is one block.

    The seed, ``n`` and the input-mode count are checked on every call.  The
    last ``MEMO_ENTRIES`` results are memoised on the bytes of the circuit's
    matrix, the state's mean and covariance, the circuit's columns and
    counts, ``n`` and the seed: bytes, not float equality, so states or
    circuits differing only in the sign of a zero never share a result.  An
    equal request returns the same read-only result without drawing again.
    The memo holds a few kB per result.
    """
    check_master_seed(master_seed)
    if n < 2:
        raise ValueError("an ensemble needs at least two trajectories")
    if state.n_modes != circuit.n_input_modes:
        raise ValueError(f"circuit expects {circuit.n_input_modes} input modes, got {state.n_modes}")
    n, master_seed = operator.index(n), int(master_seed)
    key = (
        *map(_bits, (circuit.matrix, state.mean, state.cov)),
        circuit.columns, circuit.n_output_modes, circuit.n_readouts, n, master_seed,
    )
    return _memoised(_Request(key, (circuit, state, n, master_seed)))


def _bits(array) -> tuple:
    """An array's dtype, shape and bytes: equal only when every bit is."""
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


@dataclass(frozen=True)
class _Request:
    """A checked ``run_ensemble`` call, equal to another when its ``key`` is."""

    key: tuple
    args: tuple = field(compare=False)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _memoised(request: _Request) -> EnsembleResult:
    return _sample(*request.args)


def _sample(circuit: Circuit, state: GaussianState, n: int, master_seed: int) -> EnsembleResult:
    """The one pass of ``run_ensemble``, on arguments it has checked."""
    program = compile_trajectory(circuit, state)
    n_out, d = 2 * program.n_output_modes, program.draws_per_shot
    upper = np.triu_indices(d)

    # one allocation, which malloc keeps for the next ensemble; each part contiguous at any length
    generator = np.random.Generator(np.random.Philox(0))  # _rekey keys each block
    rows, terms = min(n, SHOTS_PER_BLOCK), len(upper[0])
    block, shots, products = np.split(np.empty((2 * d + terms) * rows), [d * rows, 2 * d * rows])
    block = block.reshape(rows, d)  # a block's draws, then their transpose and triangle products
    # a row per block: its shot count, draw mean and the upper triangle of its scatter
    moments = np.empty((-(-n // SHOTS_PER_BLOCK), 1 + d + terms))
    for b, row in enumerate(moments):
        # filled in shot order: a partial last block draws a prefix of the full one
        drawn = block[: n - b * SHOTS_PER_BLOCK]
        _rekey(generator, master_seed, b).standard_normal(out=drawn)
        c = shots[: drawn.size].reshape(-1, len(drawn))
        c[...] = drawn.T  # the trees run along shots
        row[0], row[1 : 1 + d] = len(drawn), pairwise_tree_sum(c.T) / len(drawn)
        c -= row[1 : 1 + d, np.newaxis]
        p, start = products[: terms * len(drawn)].reshape(-1, len(drawn)), 0
        for i in range(d):  # row i of the upper triangle: c_i c_j for j >= i
            np.multiply(c[i], c[i:], out=p[start : start + d - i])
            start += d - i
        # c_i c_j and c_j c_i are one IEEE product: the upper triangle, mirrored, is the full one
        row[1 + d :] = pairwise_tree_sum(p.T)

    # merge neighbouring blocks as pairwise_tree_sum pairs rows (Chan, Golub and LeVeque)
    while len(moments) > 1:
        half = len(moments) // 2
        pairs = moments[: 2 * half].reshape(half, 2, -1)
        (na, ma, sa), (nb, mb, sb) = (np.split(pairs[:, k], [1, 1 + d], axis=1) for k in (0, 1))
        count, delta = na + nb, mb - ma
        scatter_ab = sa + sb + delta[:, upper[0]] * delta[:, upper[1]] * (na * nb / count)
        merged = np.hstack([count, ma + delta * (nb / count), scatter_ab])
        moments = np.concatenate([merged, moments[2 * half :]])
    draw_cov = np.empty((d, d))
    draw_cov[upper] = draw_cov.T[upper] = moments[0, 1 + d :] / (n - 1)

    # each shot's output means are mean0 + G draws, so their sample mean and
    # covariance are the draws' through G; the lower triangle is mirrored,
    # so the scatter is exactly symmetric
    gains = program.gains[:n_out]
    mean = program.mean0[:n_out] + gains @ moments[0, 1 : 1 + d]
    scatter = gains @ draw_cov @ gains.T
    lower = np.tril_indices(n_out, -1)
    scatter[lower] = scatter.T[lower]

    diag = np.diag(scatter)
    result = EnsembleResult(
        n_trajectories=n, master_seed=master_seed, mean=mean, cov=program.final_cov + scatter,
        mean_scatter=scatter, conditional_cov=program.final_cov.copy(), se_mean=np.sqrt(diag / n),
        se_cov=np.sqrt((np.outer(diag, diag) + scatter**2) / (n - 1)),
    )
    # every caller of an equal request shares these arrays
    for f in fields(result):
        if isinstance(value := getattr(result, f.name), np.ndarray):
            value.flags.writeable = False
    return result


@dataclass
class ZScoreReport:
    max_z: float
    worst_entry: str
    z_mean: np.ndarray
    z_cov: np.ndarray

    def __str__(self):
        return f"max |z| = {self.max_z:.3f} at {self.worst_entry}"


def z_score_report(
    result: EnsembleResult, analytic_mean: np.ndarray, analytic_cov: np.ndarray
) -> ZScoreReport:
    """Worst-case standardized deviation of empirical vs analytic moments.

    Entries whose standard error vanishes (no stochastic scatter) count as
    zero when the deviation is at numerical noise level, and as infinite
    otherwise.
    """
    analytic_mean = np.asarray(analytic_mean, dtype=float)
    analytic_cov = np.asarray(analytic_cov, dtype=float)

    def z_of(delta, se):
        delta = np.abs(delta)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = delta / se
        return np.where(se < 1e-15, np.where(delta < 1e-12, 0.0, np.inf), z)

    z_mean = z_of(result.mean - analytic_mean, result.se_mean)
    z_cov = z_of(result.cov - analytic_cov, result.se_cov)

    # candidates in report order: means, then the upper triangle row by row
    dim = result.mean.shape[0]
    labels = [f"{q}{k + 1}" for k in range(dim // 2) for q in ("x", "p")]
    rows, cols = np.triu_indices(dim)
    z_all = np.concatenate([z_mean, z_cov[rows, cols]])
    names = [f"mean[{l}]" for l in labels]
    names += [f"cov[{labels[i]},{labels[j]}]" for i, j in zip(rows, cols)]
    best = int(np.argmax(z_all))
    max_z, worst = (float(z_all[best]), names[best]) if z_all[best] > 0.0 else (0.0, "none")
    return ZScoreReport(max_z=max_z, worst_entry=worst, z_mean=z_mean, z_cov=z_cov)
