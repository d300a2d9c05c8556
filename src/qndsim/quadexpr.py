"""Output quadratures as a labelled matrix of input-quadrature coefficients.

This module is the analytic ground truth for the gate: the textbook
input-output relations of the offline-squeezed sum gate are written down
directly as coefficient matrices, and exact output moments follow from
``X m`` and ``X X^T``.  ``gate_budget_map`` extends the finite-squeezing
relations to the whole noise budget in closed form.  Every built circuit,
lossy or not, must reproduce its coefficients under
``max_coefficient_difference``, the one comparison of two maps, which pins
down every beam-splitter sign, feedforward gain and loss channel.

A ``QuadratureMap`` holds a ``(4, len(columns))`` matrix: row ``i`` is the
output quadrature ``OUTPUT_ORDER[i]`` and column ``j`` the coefficient of the
basis label ``columns[j]``.  A label missing from ``columns`` has coefficient
zero.

Basis labels
------------
A two-mode circuit's ``columns`` are these labels and nothing else, so
``circuit.circuit_quadrature_map`` reads them as they stand.

``x1_in, p1_in, x2_in, p2_in``
    quadratures of the two input modes,
``xA0, pA0, xB0, pB0``
    pre-squeezing vacuum quadratures of the two ancilla modes (squeezing is
    folded into the coefficients, e.g. ``e**(-rA)``, so every label carries
    unit variance),
``xv*, pv*``
    fresh vacuum labels introduced by loss channels,
``dark*``
    classical noise labels (no conjugate partner).

A conjugate pair ``(x<tag>, p<tag>)`` obeys ``[x, p] = 2i``; commutators are
computed in units of ``i``, so the canonical value is ``2.0``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import omega

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
            repeated = sorted({c for c in self.columns if self.columns.count(c) > 1})
            raise ValueError(f"quadrature map has repeated columns {repeated}: {self.columns}")

    def pretty(self) -> str:
        """Human-readable algebra, one output quadrature per line."""
        lines = []
        for key, row in zip(OUTPUT_ORDER, self.matrix.tolist()):
            terms = sorted((k, v) for k, v in zip(self.columns, row) if v != 0.0)
            body = " ".join(f"{v:+.6f} {k}" for k, v in terms) or "0"
            lines.append(f"{key} = {body}")
        return "\n".join(lines)


def max_coefficient_difference(a: QuadratureMap, b: QuadratureMap) -> float:
    """Largest |coefficient difference| over all outputs and labels, matched by label.

    A label only one map has counts as its |coefficient|, and a NaN anywhere
    gives NaN.  Label alignments are memoised; the difference is taken anew.
    """
    width, index = _alignment(a.columns, b.columns)
    diff = np.zeros((len(OUTPUT_ORDER), width))
    diff[:, : len(a.columns)] = a.matrix
    diff[:, index] -= b.matrix
    # numpy's max, not Python's: max(1.0, nan) is 1.0
    return float(np.abs(diff).max())


# one entry per pair of column layouts; a gate budget switches few losses on or off
@functools.lru_cache(maxsize=64)
def _alignment(a_columns: tuple, b_columns: tuple) -> tuple:
    """The width of a's labels then those only b has, and b's read-only column indices there."""
    position = {label: j for j, label in enumerate(dict.fromkeys(a_columns + b_columns))}
    index = np.array([position[label] for label in b_columns], dtype=np.intp)
    index.flags.writeable = False
    return len(position), index


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


def gate_budget_map(params, imp) -> QuadratureMap:
    """The built gate's output rows over its whole noise budget, in closed form.

    Extends ``finite_squeezing_map`` to the apparatus ``circuit.build_qnd_gate``
    builds for a ``GateParams`` and an ``ImperfectionModel``: main-mode
    transmission ``eta_p`` (after the exit beam splitter, or before the entry
    one), coupler and detector-loss transmissions ``eta_c`` and ``eta_d`` in
    each arm, dark noise, the feedforward gain error and the in-loop knob
    transmission ``eta_k``.  With ``n = 1/sqrt(1+R)``,
    ``c = sqrt((1-R)/(1+R))``, the feedforward gain
    ``f = sqrt((1-R)/R)(1 + gain_error)`` and the anti-squeezing leak
    ``L = sqrt(eta_d)(1 + gain_error) - sqrt(eta_c)``, the x sector before the
    knob's ``sqrt(eta_k)`` and the main losses reads::

        x1_out = a x1_in + d x2_in - sqrt(eta_c) c e^-rA xA0 - sqrt(R) c L e^rB xB0
                 - n v xv_couplerA - sqrt(R) n v xv_couplerB - sqrt(R) n f (w xv_detB + s dark2)
        x2_out = G b x1_in + a x2_in + sqrt(R eta_c) c e^-rA xA0 - c L e^rB xB0
                 + sqrt(R) n v xv_couplerA - n v xv_couplerB - n f (w xv_detB + s dark2)

    and the p sector mirrors it (``p1_out`` from ``p1_in, -p2_in``, ancilla B
    squeezed and A leaking).  Here ``a = sqrt(eta_c) + (1-R) L/(1+R)``,
    ``b = sqrt(eta_c) + L/(1+R)``, ``d = sqrt(R)(1-R) L/(1+R)``, ``v``, ``w``
    and ``s`` are the square roots of ``1 - eta_c``, ``1 - eta_d`` and the dark
    variance, and ``G`` is the gain.
    ``L = 0`` on the ideal budget, which leaves ``finite_squeezing_map`` and
    zeros.  ``"in_arms"`` losses are the ``"post_exit"`` channel.

    The map's columns are the circuit's own source labels and the same for
    every budget: each loss is tagged by its place, the detector losses
    ``detA`` and ``detB`` by their arm.  A label the budget leaves out of the
    circuit has coefficient 0 here.
    """
    R, eta_coupler, eta_det = params.R, 1.0 - imp.displacement_coupler_loss, imp.homodyne_efficiency
    # transmissions as the builder forms them, so a loss it drops reads 0 here
    eta_prop, eta_extra = 1.0 - imp.propagation_loss_per_main_mode, 1.0 - imp.extra_in_loop_loss
    root_r, n = math.sqrt(R), 1.0 / math.sqrt(1.0 + R)
    c, gain = math.sqrt((1.0 - R) / (1.0 + R)), (1.0 - R) / root_r
    amp = 1.0 + imp.feedforward_electronic_gain_error
    f = math.sqrt((1.0 - R) / R) * amp
    coupled = math.sqrt(eta_coupler)
    leak = math.sqrt(eta_det) * amp - coupled
    a, gb = coupled + (1.0 - R) * leak / (1.0 + R), gain * (coupled + leak / (1.0 + R))
    d = root_r * (1.0 - R) * leak / (1.0 + R)
    k, t, vac = math.sqrt(eta_extra), math.sqrt(eta_prop), math.sqrt(1.0 - eta_prop)
    if imp.loss_placement == "pre_entry":
        # each main mode's vacuum enters beside its input quadratures, so only they lose t
        m = k * vac
        mains = ((m * a, 0.0, m * d, 0.0), (0.0, m * a, 0.0, -m * gb),
                 (m * gb, 0.0, m * a, 0.0), (0.0, -m * d, 0.0, m * a))
        core, arm = k, math.sqrt(1.0 - eta_extra) * n
    else:
        mains = ((vac, 0.0, 0.0, 0.0), (0.0, vac, 0.0, 0.0), (0.0, 0.0, vac, 0.0), (0.0, 0.0, 0.0, vac))
        core, arm = k * t, math.sqrt(1.0 - eta_extra) * n * t
    a, gb, d = k * t * a, k * t * gb, k * t * d
    sq_a, sq_b = core * coupled * c * math.exp(-params.r_a), core * coupled * c * math.exp(-params.r_b)
    leak_a, leak_b = core * c * leak * math.exp(params.r_a), core * c * leak * math.exp(params.r_b)
    nv = core * n * math.sqrt(1.0 - eta_coupler)
    nw, ns = core * n * f * math.sqrt(1.0 - eta_det), core * n * f * math.sqrt(imp.dark_variance)
    columns = (
        "x1_in", "x2_in", "xA0", "xB0", "xv_couplerA", "xv_couplerB", "xv_detB", "dark2",
        "p1_in", "p2_in", "pB0", "pA0", "pv_couplerA", "pv_couplerB", "pv_detA", "dark1",
        "xv_armA", "pv_armA", "xv_armB", "pv_armB", "xv_main1", "pv_main1", "xv_main2", "pv_main2",
    )
    zero = (0.0,) * 8
    x1 = (a, d, -sq_a, -root_r * leak_b, -nv, -root_r * nv, -root_r * nw, -root_r * ns)
    x2 = (gb, a, root_r * sq_a, -leak_b, root_r * nv, -nv, -nw, -ns)
    p1 = (a, -gb, root_r * sq_b, leak_a, -nv, -root_r * nv, nw, ns)
    p2 = (-d, a, sq_b, -root_r * leak_a, root_r * nv, -nv, -root_r * nw, -root_r * ns)
    matrix = [
        x1 + zero + (-arm, 0.0, -root_r * arm, 0.0) + mains[0],
        zero + p1 + (0.0, -arm, 0.0, -root_r * arm) + mains[1],
        x2 + zero + (root_r * arm, 0.0, -arm, 0.0) + mains[2],
        zero + p2 + (0.0, root_r * arm, 0.0, -arm) + mains[3],
    ]
    return QuadratureMap(columns, matrix)


def moments_from_map(qmap: QuadratureMap) -> np.ndarray:
    """The exact output covariance ``X X^T`` of a quadrature map.

    Every basis label is independent with unit variance.  The rows are in
    interleaved ``(x1, p1, x2, p2)`` output ordering.
    """
    x = qmap.matrix
    # summed product by product in column order rather than by BLAS, whose
    # fused multiply-adds would move the last bit of the reference curves
    return (x[:, None, :] * x[None, :, :]).sum(axis=2)


@dataclass
class CommutatorReport:
    passed: bool
    worst_defect: float


def commutator_check(qmap: QuadratureMap) -> CommutatorReport:
    """Audit canonical commutation relations of a quadrature map.

    The output commutators are ``X J X^T`` with ``J`` the basis commutators
    of the ``(x<tag>, p<tag>)`` column pairs.  Each output pair ``[x_k, p_k]``
    must equal the canonical value and all cross-mode commutators must
    vanish, otherwise the map cannot come from a physical (trace-preserving)
    transformation with the tracked noise modes.  ``worst_defect`` is the
    largest deviation from ``CANONICAL_COMMUTATOR * omega(2)``, NaN when a
    coefficient is not finite, and the map passes when it is at most 1e-10.
    """
    index = {c: j for j, c in enumerate(qmap.columns)}
    basis = np.zeros((len(index), len(index)))
    for label, j in index.items():
        partner = index.get("p" + label[1:]) if label.startswith("x") else None
        if partner is not None:
            basis[j, partner], basis[partner, j] = CANONICAL_COMMUTATOR, -CANONICAL_COMMUTATOR
    values = qmap.matrix @ basis @ qmap.matrix.T
    # numpy's max, not Python's: max(0.0, nan) is 0.0
    worst = float(np.abs(values - CANONICAL_COMMUTATOR * omega(2)).max())
    return CommutatorReport(worst <= 1e-10, worst)
