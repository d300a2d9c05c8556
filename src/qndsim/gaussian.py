"""Gaussian states of optical modes and the standard Gaussian operations.

Conventions used throughout the package:

* quadrature ordering is interleaved, ``(x1, p1, x2, p2, ...)``;
* shot-noise units: a vacuum quadrature has variance 1 (0 dB), which is the
  normalization obtained by writing the mode operator as ``a = (x + ip)/2``;
* the symplectic form ``Omega`` is block diagonal with per-mode blocks
  ``[[0, 1], [-1, 0]]``, so a physical covariance matrix satisfies
  ``cov + i*Omega >= 0``.

All operations are pure: they take a state and return a new state, never
mutating their inputs.  Homodyne measurement is a circuit element
(``circuit.HomodyneFeedforward``); ``_condition`` is its conditioning rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMPLECTIC_TOL = 1e-12
# smallest admissible variance in a conditional-update denominator
VARIANCE_FLOOR = 1e-12
_LN10 = float(np.log(10.0))  # scalar arithmetic on it makes no numpy call


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes in interleaved ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    full = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        full[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return full


def variance_to_db(variance: float) -> float:
    """Variance in shot-noise units to dB relative to shot noise."""
    return 10.0 * np.log10(variance)


def squeeze_parameter_from_db(db: float) -> float:
    """Squeeze parameter r such that the squeezed variance is ``10**(db/10)``.

    Negative dB means squeezing below shot noise; e.g. -5 dB gives
    ``e**(-2r) = 0.31623``.  Both zeros give ``+0.0``: ``-0.0`` and ``0.0``
    are equal keys, so they must not print differently.  A Python float, so
    reprs read ``r=0.57...``, by the same float64 arithmetic as numpy's.
    """
    return float(0.0 - db * _LN10 / 20.0)


@dataclass
class GaussianState:
    """Mean vector and covariance matrix of ``n_modes`` optical modes.

    ``mean`` has length ``2*n_modes`` and ``cov`` is ``2N x 2N``, both in
    shot-noise units with interleaved ``(x1, p1, ...)`` ordering.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(2 * self.n_modes)
        self.cov = np.asarray(self.cov, dtype=float).reshape(
            (2 * self.n_modes, 2 * self.n_modes)
        )

    def copy(self) -> "GaussianState":
        return GaussianState(self.n_modes, self.mean.copy(), self.cov.copy())


def vacuum_state(n_modes: int) -> GaussianState:
    """N-mode vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


class SymplecticMatrix:
    """A linear canonical transformation on ``n_modes`` modes.

    Validated at construction: ``S @ Omega @ S.T == Omega`` to 1e-12 of
    ``max(1, max|S|**2)``, a bound that must itself be finite.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise ValueError("symplectic matrix must be square with even dimension")
        self.n_modes = matrix.shape[0] // 2
        om = omega(self.n_modes)
        with np.errstate(over="ignore"):
            defect = np.abs(matrix @ om @ matrix.T - om).max()
            bound = SYMPLECTIC_TOL * max(1.0, np.abs(matrix).max() ** 2)
        if bound == np.inf:
            # S S^T, the vacuum's image, would overflow too
            raise ValueError("matrix is not symplectic in float64: max |S|**2 overflows")
        # written so that a NaN defect fails too
        if not defect <= bound:
            raise ValueError(f"matrix is not symplectic (defect {defect:.3e})")
        self.matrix = matrix

    def apply(self, state: GaussianState) -> GaussianState:
        if self.n_modes != state.n_modes:
            raise ValueError("mode-count mismatch")
        return GaussianState(
            state.n_modes,
            self.matrix @ state.mean,
            self.matrix @ state.cov @ self.matrix.T,
        )


def _apply_block(state: GaussianState, block: np.ndarray, modes: tuple) -> GaussianState:
    """Apply ``block`` to the quadratures of ``modes``, through a checked ``SymplecticMatrix``."""
    full = np.eye(2 * state.n_modes)
    idx = [k for m in modes for k in (2 * m, 2 * m + 1)]
    full[np.ix_(idx, idx)] = block
    return SymplecticMatrix(full).apply(state)


def squeeze(state: GaussianState, mode: int, r: float, angle: float = 0.0) -> GaussianState:
    """Squeeze one mode: at ``angle = 0`` the x variance shrinks by e**(-2r).

    Negative ``r`` anti-squeezes x.  A general angle rotates the squeezing
    axis: the quadrature ``cos(angle)*x + sin(angle)*p`` is the squeezed one.
    """
    _check_mode(state, mode)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, s], [-s, c]])
    return _apply_block(state, rot.T @ np.diag([np.exp(-r), np.exp(r)]) @ rot, (mode,))


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    """Shift one mode's mean by ``(dx, dp)``, both finite; covariance unchanged."""
    _check_mode(state, mode)
    if not (-np.inf < dx < np.inf and -np.inf < dp < np.inf):
        raise ValueError(f"displacement ({dx}, {dp}) must be finite")
    out = state.copy()
    out.mean[2 * mode] += dx
    out.mean[2 * mode + 1] += dp
    return out


def beam_splitter(
    state: GaussianState,
    i: int,
    j: int,
    reflectivity: float,
    signs: tuple = (1, 1, -1, 1),
) -> GaussianState:
    """Mix modes ``i`` and ``j``, acting identically on the x and p quadrature pairs.

    The 2x2 mixing matrix on modes ``(i, j)`` is::

        [ s1*sqrt(T)  s2*sqrt(R) ]
        [ s3*sqrt(R)  s4*sqrt(T) ]

    with ``T = 1 - reflectivity`` and ``signs = (s1, s2, s3, s4)``.  The
    default sign convention is ``(sqrt(T), sqrt(R); -sqrt(R), sqrt(T))``;
    any sign choice with ``s1*s2 == -s3*s4`` is an orthogonal mixing and
    therefore symplectic.
    """
    _check_mode(state, i)
    _check_mode(state, j)
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity} outside [0, 1]")
    s1, s2, s3, s4 = signs
    if any(s not in (-1, 1) for s in signs) or s1 * s2 != -s3 * s4:
        raise ValueError(f"signs {signs} do not give an orthogonal mixing")
    t = np.sqrt(1.0 - reflectivity)
    r = np.sqrt(reflectivity)
    mix = np.array([[s1 * t, s2 * r], [s3 * r, s4 * t]])
    return _apply_block(state, np.kron(mix, np.eye(2)), (i, j))


def loss_channel(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure loss of transmissivity ``eta`` on one mode.

    The mode's mean scales by sqrt(eta), its covariance block becomes
    ``eta*V + (1 - eta)*I`` and cross blocks scale by sqrt(eta).
    """
    _check_mode(state, mode)
    # eta = 0 is total loss: the mode is replaced by vacuum, as a circuit ``Loss`` allows
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity {eta} outside [0, 1]")
    out = state.copy()
    idx = [2 * mode, 2 * mode + 1]
    root = np.sqrt(eta)
    out.mean[idx] *= root
    out.cov[idx, :] *= root
    out.cov[:, idx] *= root
    # the diagonal block got eta*V; add the vacuum admixture
    out.cov[np.ix_(idx, idx)] += (1.0 - eta) * np.eye(2)
    return out


def _condition(cov: np.ndarray, i: int):
    """Condition a Gaussian on the value of its ``i``-th variable.

    Returns ``(var, gain, cov_given)``: the prior variance of that variable,
    the column mapping its observed deviation onto the mean, and the Schur
    complement.  Dividing by ``max(var, VARIANCE_FLOOR)`` keeps a perfectly
    squeezed quadrature finite.
    """
    col = cov[:, i]
    var = float(col[i])
    denom = max(var, VARIANCE_FLOOR)
    return var, col / denom, cov - np.outer(col, col) / denom


def remove_mode(state: GaussianState, mode: int) -> GaussianState:
    """Trace out one mode (delete its mean entries and cov rows/columns)."""
    _check_mode(state, mode)
    keep = [k for k in range(2 * state.n_modes) if k not in (2 * mode, 2 * mode + 1)]
    return GaussianState(state.n_modes - 1, state.mean[keep], state.cov[np.ix_(keep, keep)])


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")
