"""Output quadratures as explicit linear combinations of input quadratures.

This module is the analytic ground truth for the gate: the textbook
input-output relations of the offline-squeezed sum gate are written down
directly as coefficient tables, and exact output moments follow by bilinear
combination.  The compiled optical circuit is required to reproduce these
coefficients, which pins down every beam-splitter sign and feedforward gain.

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
``dark*``
    classical detector-noise labels (no conjugate partner).

A conjugate pair ``(x<tag>, p<tag>)`` obeys ``[x, p] = 2i``; in the
bookkeeping below commutators are stored in units of ``i``, so the canonical
value is ``2.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CANONICAL_COMMUTATOR = 2.0  # value of [x, p] in units of i

# interleaved (x1, p1, x2, p2) ordering used for moment matrices
OUTPUT_ORDER = ("x1_out", "p1_out", "x2_out", "p2_out")


def conjugate_label(label: str) -> str | None:
    """Conjugate partner of a quadrature label, or None for classical noise."""
    if label.startswith("x"):
        return "p" + label[1:]
    if label.startswith("p"):
        return "x" + label[1:]
    return None


class LinearQuadExpr:
    """A quadrature as a real linear combination of basis labels."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: float(v) for k, v in (terms or {}).items() if v != 0.0}

    def coefficient(self, label: str) -> float:
        return self.terms.get(label, 0.0)

    def labels(self):
        return set(self.terms)

    def variance(self, variances: dict | None = None) -> float:
        """Second central moment for independent basis labels (default var 1)."""
        variances = variances or {}
        return sum(c * c * variances.get(k, 1.0) for k, c in self.terms.items())

    def covariance(self, other: "LinearQuadExpr", variances: dict | None = None) -> float:
        variances = variances or {}
        return sum(
            c * other.terms.get(k, 0.0) * variances.get(k, 1.0)
            for k, c in self.terms.items()
        )

    def mean(self, means: dict | None = None) -> float:
        means = means or {}
        return sum(c * means.get(k, 0.0) for k, c in self.terms.items())

    def commutator(self, other: "LinearQuadExpr") -> float:
        """[self, other] in units of i, from the basis commutators."""
        total = 0.0
        for k, c in self.terms.items():
            partner = conjugate_label(k)
            if partner is None:
                continue
            d = other.terms.get(partner, 0.0)
            if d:
                sign = 1.0 if k.startswith("x") else -1.0
                total += sign * c * d * CANONICAL_COMMUTATOR
        return total

    def __repr__(self):
        body = " ".join(f"{v:+.6g}*{k}" for k, v in sorted(self.terms.items()))
        return f"LinearQuadExpr({body or '0'})"


@dataclass
class QuadratureMap:
    """One ``LinearQuadExpr`` per output quadrature of the two gate modes."""

    exprs: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = [k for k in OUTPUT_ORDER if k not in self.exprs]
        if missing:
            raise ValueError(f"quadrature map missing outputs: {missing}")

    def __getitem__(self, key: str) -> LinearQuadExpr:
        return self.exprs[key]

    def labels(self):
        out = set()
        for expr in self.exprs.values():
            out |= expr.labels()
        return out

    def pretty(self) -> str:
        """Human-readable algebra, one output quadrature per line."""
        lines = []
        for key in OUTPUT_ORDER:
            terms = sorted(self.exprs[key].terms.items())
            body = " ".join(f"{v:+.6f} {k}" for k, v in terms) or "0"
            lines.append(f"{key} = {body}")
        return "\n".join(lines)


def max_coefficient_difference(a: QuadratureMap, b: QuadratureMap) -> float:
    """Largest |coefficient difference| over all outputs and labels."""
    worst = 0.0
    for key in OUTPUT_ORDER:
        for label in a[key].labels() | b[key].labels():
            worst = max(worst, abs(a[key].coefficient(label) - b[key].coefficient(label)))
    return worst


def ideal_qnd_map(gain: float) -> QuadratureMap:
    """Ideal sum-gate relations: x2 gains G*x1, p1 gains -G*p2."""
    if gain < 0:
        raise ValueError("gain must be non-negative")
    return QuadratureMap(
        {
            "x1_out": LinearQuadExpr({"x1_in": 1.0}),
            "x2_out": LinearQuadExpr({"x2_in": 1.0, "x1_in": gain}),
            "p1_out": LinearQuadExpr({"p1_in": 1.0, "p2_in": -gain}),
            "p2_out": LinearQuadExpr({"p2_in": 1.0}),
        }
    )


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
    return QuadratureMap(
        {
            "x1_out": LinearQuadExpr({"x1_in": 1.0, "xA0": -c_a}),
            "x2_out": LinearQuadExpr({"x2_in": 1.0, "x1_in": gain, "xA0": root_r * c_a}),
            "p1_out": LinearQuadExpr({"p1_in": 1.0, "p2_in": -gain, "pB0": root_r * c_b}),
            "p2_out": LinearQuadExpr({"p2_in": 1.0, "pB0": c_b}),
        }
    )


def moments_from_map(
    qmap: QuadratureMap,
    means: dict | None = None,
    variances: dict | None = None,
):
    """Exact output mean vector and covariance from a quadrature map.

    All basis labels are independent with unit variance unless overridden in
    ``variances``; coherent excitations enter through ``means``.  Returns
    ``(mean, cov)`` in interleaved ``(x1, p1, x2, p2)`` output ordering.
    """
    exprs = [qmap[k] for k in OUTPUT_ORDER]
    mean = np.array([e.mean(means) for e in exprs])
    cov = np.empty((4, 4))
    for i, ei in enumerate(exprs):
        for j, ej in enumerate(exprs):
            if j < i:
                cov[i, j] = cov[j, i]
            else:
                cov[i, j] = ei.covariance(ej, variances)
    return mean, cov


@dataclass
class CommutatorReport:
    passed: bool
    worst_defect: float
    details: dict


def commutator_check(qmap: QuadratureMap, tol: float = 1e-10) -> CommutatorReport:
    """Audit canonical commutation relations of a quadrature map.

    Each output pair ``[x_k, p_k]`` must equal the canonical value and all
    cross-mode commutators must vanish, otherwise the map cannot come from a
    physical (trace-preserving) transformation with the tracked noise modes.
    """
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
        value = qmap[a].commutator(qmap[b])
        defect = abs(value - expected)
        details[f"[{a}, {b}]"] = value
        worst = max(worst, defect)
    return CommutatorReport(worst <= tol, worst, details)
