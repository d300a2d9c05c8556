"""Seeded Monte Carlo ensembles of homodyne-feedforward trajectories.

Validates the deterministic covariance propagation against sampled shots.
Each shot's output means are ``mean0 + G z`` for its ``d`` standard-normal
draws ``z`` and the program's output gains ``G`` (the linear-Gaussian map of
Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)), so the sample mean and
covariance of ``n`` shots' means are exactly ``mean0 + G m`` and ``G S G^T``,
with ``m`` and ``S`` those of the draws.  An ensemble draws ``(m, S)`` from
their joint law and runs no shot: ``m ~ N(0, I/n)``, independent of
``(n - 1) S ~ Wishart_d(I, n - 1)`` (Anderson, *An Introduction to
Multivariate Statistical Analysis*, chs. 3 and 7).  With ``k = n - 1``,
``(n - 1) S = R^T R`` for the upper-trapezoidal Bartlett factor ``R`` of
``min(k, d)`` rows, with standard normals above its diagonal and
``R[i, i]^2 ~ chi^2(k - i)`` on it: the triangular factor of the QR
decomposition of a ``k x d`` Gaussian matrix.  The draw is therefore exact
for every ``n >= 2``, ``k < d`` included, and costs O(d^2) whatever ``n``.

A result is a pure function of the circuit's row stack, the input state, the
shot count and the seed: ``run_ensemble`` keeps no state and draws on every
call.  Its arrays are read-only, so a caller may share one result.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .circuit import Circuit, compile_trajectory
from .gaussian import GaussianState


# the largest shot count: float64 holds every integer up to it exactly
MAX_SHOTS = 2**53


def trajectory_generator(master_seed: int, stream: int) -> np.random.Generator:
    """The Philox stream keyed on ``(master_seed, stream)``, from counter 0.

    Set as the state of a ``Philox(0)``, so it reads no OS entropy, which a
    Philox built with a ``key`` reads to seed itself before the key replaces it.
    """
    bit_generator = np.random.Philox(0)
    # an explicit uint64 key: a list holding a seed >= 2**63 would go through float64
    key = np.array([master_seed, stream], dtype=np.uint64)
    bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": key},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


def check_master_seed(master_seed) -> None:
    """Reject seeds that are not an integer in [0, 2**64), the Philox key word."""
    if isinstance(master_seed, bool) or not isinstance(master_seed, Integral):
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")


def check_shot_count(n) -> None:
    """Reject shot counts above ``MAX_SHOTS``, where ``n`` is no longer exact in float64."""
    if n > MAX_SHOTS:
        raise ValueError(f"run n must be at most 2**53, got {n}")


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
    """The ensemble's output ``mean`` and ``cov`` with their standard errors.

    ``cov`` estimates the ensemble-average state's covariance: the program's
    outcome-independent ``final_cov`` plus the sample covariance of the
    per-shot means, ``G S G^T``.  That scatter is the only stochastic part,
    and the standard errors come from it.  ``run_ensemble`` returns the
    arrays read-only, so callers that share one result cannot change what
    another reads.
    """

    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_cov: np.ndarray


def run_ensemble(
    circuit: Circuit, state: GaussianState, n: int, master_seed: int
) -> EnsembleResult:
    """The statistics of ``n`` independent trajectories, drawn from their exact law.

    Bartlett's decomposition of the Wishart law (Anderson, *An Introduction
    to Multivariate Statistical Analysis*, ch. 7) draws the shots' sample
    mean and scatter at once, so time and memory do not grow with ``n``.
    The seed and ``n`` (from 2 to ``MAX_SHOTS``) are checked on every call,
    ``compile_trajectory`` the input-mode count, and every call draws.
    """
    check_master_seed(master_seed)
    if n < 2:
        raise ValueError("an ensemble needs at least two trajectories")
    check_shot_count(n)
    n, master_seed = operator.index(n), int(master_seed)
    program = compile_trajectory(circuit, state)
    draw_mean, draw_cov = _draw_moments(master_seed, n, program.draws_per_shot)
    gains = program.gains[: 2 * program.n_output_modes]
    mean = program.mean0[: len(gains)] + gains @ draw_mean
    scatter = _mirrored(gains @ draw_cov @ gains.T)

    diag = np.diag(scatter)
    result = EnsembleResult(
        mean=mean, cov=program.final_cov + scatter, se_mean=np.sqrt(diag / n),
        se_cov=np.sqrt((np.outer(diag, diag) + scatter**2) / (n - 1)),
    )
    # a caller that shares the result shares these arrays
    for f in fields(result):
        if isinstance(value := getattr(result, f.name), np.ndarray):
            value.flags.writeable = False
    return result


def _draw_moments(master_seed: int, n: int, d: int) -> tuple:
    """The sample mean ``m`` and covariance ``S`` of ``n`` iid standard-normal ``d``-vectors.

    Drawn on ``trajectory_generator(master_seed, 0)``: normals whose upper part
    is the Bartlett factor's, then the factor's chi-square diagonal, then ``m``.
    """
    generator, k = trajectory_generator(master_seed, 0), n - 1
    factor = np.triu(generator.standard_normal((min(k, d), d)), 1)  # min(k, d) rows
    factor[np.diag_indices(len(factor))] = np.sqrt(generator.chisquare(k - np.arange(len(factor))))
    return generator.standard_normal(d) / np.sqrt(n), _mirrored(factor.T @ factor / k)


def _mirrored(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` with its lower triangle replaced by its upper one's mirror image."""
    return np.where(np.tri(len(matrix), k=-1, dtype=bool), matrix.T, matrix)


@dataclass
class ZScoreReport:
    max_z: float
    worst_entry: str

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
    return ZScoreReport(max_z=max_z, worst_entry=worst)
