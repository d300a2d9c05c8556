"""Output quadratures as a labelled matrix of input-quadrature coefficients.

This module is the analytic ground truth for the gate: the textbook
input-output relations of the offline-squeezed sum gate are written down
directly as coefficient matrices, and exact output moments follow from
``X m`` and ``X X^T``.  The compiled optical circuit is required to reproduce
these coefficients, which pins down every beam-splitter sign and feedforward
gain.

A ``QuadratureMap`` holds a ``(4, len(columns))`` matrix: row ``i`` is the
output quadrature ``OUTPUT_ORDER[i]`` and column ``j`` the coefficient of the
basis label ``columns[j]``.  A label missing from ``columns`` has coefficient
zero.

Basis labels
------------
``x1_in, p1_in, x2_in, p2_in``
    quadratures of the two input modes,
``xA0, pA0, xB0, pB0``
    pre-squeezing vacuum quadratures of the two ancilla modes (squeezing is
    folded into the coefficients, e.g. ``e**(-rA)``, so every label carries
    unit variance),
``xv*, pv*``
    fresh vacuum labels introduced by loss channels,
``dark*``, ``excess*``
    classical noise labels (no conjugate partner).

A conjugate pair ``(x<tag>, p<tag>)`` obeys ``[x, p] = 2i``; commutators are
computed in units of ``i``, so the canonical value is ``2.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CANONICAL_COMMUTATOR = 2.0  # value of [x, p] in units of i

# interleaved (x1, p1, x2, p2) ordering used for moment matrices
OUTPUT_ORDER = ("x1_out", "p1_out", "x2_out", "p2_out")
INPUT_COLUMNS = ("x1_in", "p1_in", "x2_in", "p2_in")


@dataclass(frozen=True)
class QuadratureMap:
    """Each output quadrature as a row of coefficients over ``columns``."""

    columns: tuple
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if self.matrix.shape != (len(OUTPUT_ORDER), len(self.columns)):
            raise ValueError(
                f"quadrature map needs a {len(OUTPUT_ORDER)} x {len(self.columns)} "
                f"matrix, got {self.matrix.shape}"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"quadrature map has repeated columns: {self.columns}")

    def pretty(self) -> str:
        """Human-readable algebra, one output quadrature per line."""
        lines = []
        for key, row in zip(OUTPUT_ORDER, self.matrix.tolist()):
            terms = sorted((k, v) for k, v in zip(self.columns, row) if v != 0.0)
            body = " ".join(f"{v:+.6f} {k}" for k, v in terms) or "0"
            lines.append(f"{key} = {body}")
        return "\n".join(lines)


def max_coefficient_difference(a: QuadratureMap, b: QuadratureMap) -> float:
    """Largest |coefficient difference| over all outputs and labels."""
    # a's labels in order, then those only b has
    index = dict(zip(a.columns, range(len(a.columns))))
    for label in b.columns:
        index.setdefault(label, len(index))
    diff = np.zeros((len(OUTPUT_ORDER), len(index)))
    diff[:, : len(a.columns)] = a.matrix
    diff[:, [index[label] for label in b.columns]] -= b.matrix
    return float(np.abs(diff).max())


def ideal_qnd_map(gain: float) -> QuadratureMap:
    """Ideal sum-gate relations: x2 gains G*x1, p1 gains -G*p2."""
    # written so that a NaN gain fails too
    if not 0.0 <= gain < np.inf:
        raise ValueError(f"gain G = {gain} must be finite and non-negative")
    #   x1_in  p1_in  x2_in  p2_in
    matrix = [
        [1.0, 0.0, 0.0, 0.0],    # x1_out
        [0.0, 1.0, 0.0, -gain],  # p1_out
        [gain, 0.0, 1.0, 0.0],   # x2_out
        [0.0, 0.0, 0.0, 1.0],    # p2_out
    ]
    return QuadratureMap(INPUT_COLUMNS, matrix)


def finite_squeezing_map(R: float, r_a: float, r_b: float) -> QuadratureMap:
    """Gate relations at finite ancilla squeezing.

    ``R`` is the free beam-splitter parameter in (0, 1], giving interaction
    gain ``G = (1 - R)/sqrt(R)``.  Ancilla A (squeezed in x by ``r_a``) feeds
    the x sector, ancilla B (squeezed in p by ``r_b``) the p sector::

        x1_out = x1_in                      - sqrt((1-R)/(1+R)) e^-rA xA0
        x2_out = x2_in + G x1_in            + sqrt(R(1-R)/(1+R)) e^-rA xA0
        p1_out = p1_in - G p2_in            + sqrt(R(1-R)/(1+R)) e^-rB pB0
        p2_out = p2_in                      + sqrt((1-R)/(1+R)) e^-rB pB0

    In the limit of infinite squeezing these converge to ``ideal_qnd_map``.
    """
    if not 0.0 < R <= 1.0:
        raise ValueError(f"R = {R} outside (0, 1]")
    gain = (1.0 - R) / np.sqrt(R)
    c_a = np.sqrt((1.0 - R) / (1.0 + R)) * np.exp(-r_a)
    c_b = np.sqrt((1.0 - R) / (1.0 + R)) * np.exp(-r_b)
    root_r = np.sqrt(R)
    #   x1_in  p1_in  x2_in  p2_in  xA0  pB0
    matrix = [
        [1.0, 0.0, 0.0, 0.0, -c_a, 0.0],
        [0.0, 1.0, 0.0, -gain, 0.0, root_r * c_b],
        [gain, 0.0, 1.0, 0.0, root_r * c_a, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, c_b],
    ]
    return QuadratureMap(INPUT_COLUMNS + ("xA0", "pB0"), matrix)


def moments_from_map(qmap: QuadratureMap, means: dict | None = None):
    """Exact output mean vector and covariance from a quadrature map.

    All basis labels are independent with unit variance; coherent excitations
    enter through ``means``, keyed by label.  Returns ``(X m, X X^T)`` in
    interleaved ``(x1, p1, x2, p2)`` output ordering.
    """
    means = means or {}
    x = qmap.matrix
    mean = x @ np.array([means.get(c, 0.0) for c in qmap.columns])
    # summed product by product in column order rather than by BLAS, whose
    # fused multiply-adds would move the last bit of the reference curves
    return mean, (x[:, None, :] * x[None, :, :]).sum(axis=2)


@dataclass
class CommutatorReport:
    passed: bool
    worst_defect: float
    details: dict


def commutator_check(qmap: QuadratureMap, tol: float = 1e-10) -> CommutatorReport:
    """Audit canonical commutation relations of a quadrature map.

    The output commutators are ``X J X^T`` with ``J`` the basis commutators
    of the ``(x<tag>, p<tag>)`` column pairs.  Each output pair ``[x_k, p_k]``
    must equal the canonical value and all cross-mode commutators must
    vanish, otherwise the map cannot come from a physical (trace-preserving)
    transformation with the tracked noise modes.
    """
    index = {c: j for j, c in enumerate(qmap.columns)}
    basis = np.zeros((len(index), len(index)))
    for label, j in index.items():
        partner = index.get("p" + label[1:]) if label.startswith("x") else None
        if partner is not None:
            basis[j, partner], basis[partner, j] = CANONICAL_COMMUTATOR, -CANONICAL_COMMUTATOR
    values = qmap.matrix @ basis @ qmap.matrix.T
    pairs = {
        ("x1_out", "p1_out"): CANONICAL_COMMUTATOR,
        ("x2_out", "p2_out"): CANONICAL_COMMUTATOR,
        ("x1_out", "p2_out"): 0.0,
        ("x2_out", "p1_out"): 0.0,
        ("x1_out", "x2_out"): 0.0,
        ("p1_out", "p2_out"): 0.0,
    }
    details = {}
    worst = 0.0
    for (a, b), expected in pairs.items():
        value = float(values[OUTPUT_ORDER.index(a), OUTPUT_ORDER.index(b)])
        details[f"[{a}, {b}]"] = value
        worst = max(worst, abs(value - expected))
    return CommutatorReport(worst <= tol, worst, details)
