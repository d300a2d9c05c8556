"""Seeded Monte Carlo ensembles of homodyne-feedforward trajectories.

Validates the deterministic covariance propagation against sampled shots.
Shots are grouped into blocks of ``SHOTS_PER_BLOCK``; block ``b`` draws from
the counter-based Philox substream keyed on ``(master_seed, b)``, one row of
``draws_per_shot`` standard normals per shot, filled in shot order.  Shot
``i`` is therefore row ``i % SHOTS_PER_BLOCK`` of block
``i // SHOTS_PER_BLOCK``, and its numbers depend only on ``(master_seed, i,
draws_per_shot)``: an ensemble of ``n`` shots is the first ``n`` shots of any
larger one with the same seed, and the result does not depend on scheduling.
Aggregates use a fixed pairwise-tree reduction by index so the summation
order is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .circuit import Circuit, compile_trajectory
from .gaussian import GaussianState


SHOTS_PER_BLOCK = 4096


def trajectory_generator(master_seed: int, block: int) -> np.random.Generator:
    """The substream that draws the shots of one block of one ensemble."""
    # an explicit uint64 key: a list holding a seed >= 2**63 would go through float64
    key = np.array([master_seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    while values.shape[0] > 1:
        n = values.shape[0]
        half = n // 2
        paired = values[0 : 2 * half : 2] + values[1 : 2 * half : 2]
        if n % 2:
            paired = np.concatenate([paired, values[-1:]], axis=0)
        values = paired
    return values[0]


@dataclass
class EnsembleResult:
    """Empirical ensemble statistics with standard errors.

    ``cov`` estimates the ensemble-average state's covariance: the common
    conditional covariance of the shots plus the scatter of the conditional
    means.  Standard errors come from the mean scatter, which is the only
    stochastic ingredient.
    """

    n_trajectories: int
    master_seed: int
    mean: np.ndarray
    cov: np.ndarray
    mean_scatter: np.ndarray     # sample covariance of the per-shot means
    conditional_cov: np.ndarray  # outcome-independent final covariance
    se_mean: np.ndarray
    se_cov: np.ndarray
    outcomes: np.ndarray | None = None


def run_ensemble(
    circuit: Circuit,
    state: GaussianState,
    n: int,
    master_seed: int,
    keep_outcomes: bool = False,
) -> EnsembleResult:
    """Run ``n`` independent trajectories and aggregate their statistics."""
    check_master_seed(master_seed)
    if n < 2:
        raise ValueError("an ensemble needs at least two trajectories")
    program = compile_trajectory(circuit, state)

    # only the rows this ensemble needs are drawn: a generator fills its
    # block in shot order, so a partial last block is a prefix of the full one
    draws = np.empty((n, program.draws_per_shot))
    for start in range(0, n, SHOTS_PER_BLOCK):
        block = trajectory_generator(master_seed, start // SHOTS_PER_BLOCK)
        block.standard_normal(out=draws[start : start + SHOTS_PER_BLOCK])
    means, outcomes = program.run_means(draws)

    mean = pairwise_tree_sum(means) / n
    centered = means - mean
    outer = centered[:, :, np.newaxis] * centered[:, np.newaxis, :]
    scatter = pairwise_tree_sum(outer) / (n - 1)

    cov = program.final_cov + scatter
    se_mean = np.sqrt(np.diag(scatter) / n)
    diag = np.diag(scatter)
    se_cov = np.sqrt((np.outer(diag, diag) + scatter**2) / (n - 1))
    return EnsembleResult(
        n_trajectories=n,
        master_seed=master_seed,
        mean=mean,
        cov=cov,
        mean_scatter=scatter,
        conditional_cov=program.final_cov.copy(),
        se_mean=se_mean,
        se_cov=se_cov,
        outcomes=outcomes if keep_outcomes else None,
    )


@dataclass
class ZScoreReport:
    max_z: float
    worst_entry: str
    z_mean: np.ndarray
    z_cov: np.ndarray

    def __str__(self):
        return f"max |z| = {self.max_z:.3f} at {self.worst_entry}"


def z_score_report(
    result: EnsembleResult,
    analytic_mean: np.ndarray,
    analytic_cov: np.ndarray,
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


def outcome_log_csv(result: EnsembleResult) -> str:
    """CSV dump of the per-trajectory homodyne readouts (debugging aid)."""
    if result.outcomes is None:
        raise ValueError("ensemble was run without keep_outcomes")
    n_events = result.outcomes.shape[1]
    header = "trajectory," + ",".join(f"readout{k}" for k in range(n_events))
    lines = [header]
    for i, row in enumerate(result.outcomes):
        lines.append(f"{i}," + ",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines)
