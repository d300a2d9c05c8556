"""The sum-gate apparatus as an executable circuit of optical elements.

A gate circuit is a Mach-Zehnder interferometer with one measurement-induced
squeezing stage per arm: inject a squeezed ancilla, mix it with the arm beam,
homodyne one output port and feed the scaled outcome forward as a displacement
on the other.  The builder writes that measurement-induced squeezer once,
``_squeezer_elements``, and calls it per arm; a test composes its lowered map
with the outer beam splitters into ``finite_squeezing_map``.  The parameter
``R`` fixes the beam-splitter reflectivities ``1/(1+R), R, R, R/(1+R)`` and the
interaction gain ``G = 1/sqrt(R) - sqrt(R)``.

The builder chooses beam-splitter signs and feedforward gains so that the
lossless compiled circuit reproduces ``quadexpr.finite_squeezing_map``
coefficient-by-coefficient.  Every build compares the circuit it returns,
with its whole noise budget, against the closed form
``quadexpr.gate_budget_map`` by ``quadexpr.max_coefficient_difference``, and
construction fails loudly if they differ.

Each ``Circuit`` is lowered once, at construction, by ``_lower``, the only
reader of element kinds, and holds the one Heisenberg-picture row stack that
results: every output quadrature, every homodyne's electronic readout and the
rows a shot is conditioned on, as linear combinations of the input
quadratures and labelled unit-variance noise sources.  No per-element state
is kept.  The circuit is a linear Gaussian map with no constant term, so
every entry of that stack is a sum of products of per-element scalars (a
beam splitter's signed transmission, a loss's root transmission, a
homodyne's cosine and gain, ...).  ``_lower`` validates the elements and
collects their scalars in one pass; which products sum to which entry
depends only on the circuit's layout and is recorded once per layout by
``_plan``.  Gate builds share a handful of layouts, one per set of
imperfections present, so nearly every build is lowered by a gather, a
product and a ``bincount``.  Angles are read exactly at quarter turns, so
the gate's x and p sectors decouple bit for bit.  The executors read the
circuit's ``matrix``:

* ``run_covariance`` - ensemble average, ``X m`` and ``X V X^T + N N^T``;
* ``compile_trajectory`` / ``run_trajectory`` - the outputs and readouts
  conditioned on the observed rows (each homodyne's optical quadrature, then
  its dark noise), affine in the draws;
* ``circuit_quadrature_map`` - the output rows under ``columns``, as they stand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from . import gaussian
from .gaussian import GaussianState
from .quadexpr import QuadratureMap, finite_squeezing_map, gate_budget_map, max_coefficient_difference

ORACLE_MATCH_TOL = 1e-9
# the deepest ancilla squeezing oracle-check verifies: deeper, e^r rounding fails the absolute 1e-9 checks
MIN_SQUEEZING_DB = -60.0


@dataclass(frozen=True)
class GateParams:
    """Gate working point: beam-splitter parameter and ancilla squeezing."""

    R: float
    squeezing_db_a: float = -5.0
    squeezing_db_b: float = -5.0

    def __post_init__(self):
        if not 0.0 < self.R <= 1.0:
            raise ValueError(f"R = {self.R} outside (0, 1]")
        for name in ("squeezing_db_a", "squeezing_db_b"):
            db = getattr(self, name)
            if not math.isfinite(db):
                raise ValueError(f"{name} = {db} is not finite")
            if db < MIN_SQUEEZING_DB:
                raise ValueError(f"{name} = {db} is below {MIN_SQUEEZING_DB:g} dB, the deepest a build's check verifies")

    @classmethod
    def from_gain(cls, gain: float, **kwargs) -> "GateParams":
        """The working point of gain ``G``: ``R = u**2`` for the positive root of ``u**2 + G*u - 1 = 0``."""
        if not 0.0 <= gain < math.inf:
            raise ValueError(f"gain G = {gain} must be finite and non-negative")
        u = (-gain + math.sqrt(gain * gain + 4.0)) / 2.0
        return cls(R=u * u, **kwargs)

    @property
    def gain(self) -> float:
        """Interaction gain ``G = 1/sqrt(R) - sqrt(R)``."""
        return 1.0 / math.sqrt(self.R) - math.sqrt(self.R)

    @property
    def r_a(self) -> float:
        return gaussian.squeeze_parameter_from_db(self.squeezing_db_a)

    @property
    def r_b(self) -> float:
        return gaussian.squeeze_parameter_from_db(self.squeezing_db_b)


@dataclass(frozen=True)
class ImperfectionModel:
    """Noise budget of the apparatus, in the units the lab quotes them.

    Field names match the scenario-file keys.  ``extra_in_loop_loss`` is the
    single calibration knob: additional loss on each interferometer arm just
    before the exit beam splitter, zero unless a fit sets it.  Equal losses
    on both modes commute with a beam splitter, so ``loss_placement``
    ``"in_arms"`` is the ``"post_exit"`` channel and builds its circuit.
    """

    propagation_loss_per_main_mode: float = 0.07
    detector_quantum_efficiency: float = 0.99
    visibility: float = 0.98
    dark_noise_dB_below_shot: float = 17.0
    displacement_coupler_loss: float = 0.01
    feedforward_electronic_gain_error: float = 0.0
    extra_in_loop_loss: float = 0.0
    loss_placement: str = "post_exit"  # or "pre_entry", "in_arms"

    def __post_init__(self):
        for name in (
            "propagation_loss_per_main_mode",
            "displacement_coupler_loss",
            "extra_in_loop_loss",
        ):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1)")
        for name in ("detector_quantum_efficiency", "visibility"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} = {v} outside (0, 1]")
        # inf dB is no dark noise at all; NaN fails
        if not self.dark_noise_dB_below_shot >= 0.0:
            raise ValueError(f"dark_noise_dB_below_shot = {self.dark_noise_dB_below_shot} below 0")
        if not math.isfinite(self.feedforward_electronic_gain_error):
            raise ValueError("feedforward_electronic_gain_error is not finite")
        if self.loss_placement not in ("post_exit", "pre_entry", "in_arms"):
            raise ValueError(f"unknown loss placement {self.loss_placement!r}")

    @classmethod
    def ideal(cls) -> "ImperfectionModel":
        return cls(
            propagation_loss_per_main_mode=0.0,
            detector_quantum_efficiency=1.0,
            visibility=1.0,
            dark_noise_dB_below_shot=math.inf,
            displacement_coupler_loss=0.0,
            feedforward_electronic_gain_error=0.0,
        )

    @property
    def homodyne_efficiency(self) -> float:
        """Detector efficiency with mode mismatch folded in as visibility**2."""
        return self.detector_quantum_efficiency * self.visibility**2

    @property
    def dark_variance(self) -> float:
        if math.isinf(self.dark_noise_dB_below_shot):
            return 0.0
        return 10.0 ** (-self.dark_noise_dB_below_shot / 10.0)


# --------------------------------------------------------------------------
# circuit elements


@dataclass(frozen=True)
class AncillaInjection:
    """Append a squeezed-vacuum mode; ``angle = 0`` squeezes x."""

    r: float
    angle: float
    label: str


@dataclass(frozen=True)
class BeamSplitter:
    i: int
    j: int
    reflectivity: float
    signs: tuple = (1, 1, -1, 1)


@dataclass(frozen=True)
class Loss:
    """Transmission ``eta`` in [0, 1]; the k-th loss, if untagged, adds vacuum ``xv_<k>, pv_<k>``."""

    mode: int
    eta: float
    tag: str = ""


@dataclass(frozen=True)
class HomodyneFeedforward:
    """Homodyne one mode, displace a target quadrature by gain * readout.

    The measured mode is removed; ``target_mode`` is indexed before removal.
    The detector is ideal: an inefficient one is a ``Loss`` on the measured
    mode just before it.  ``dark_variance``, keyword-only, is classical noise
    on the electronic readout.  With ``gain = 0`` the element is a pure
    measurement.
    """

    measured_mode: int
    angle: float
    target_mode: int
    target_quadrature: str  # "x" or "p"
    gain: float
    dark_variance: float = field(default=0.0, kw_only=True)


@dataclass(frozen=True)
class Circuit:
    """Ordered element list acting on ``n_input_modes`` initial modes, and its lowering.

    ``_lower`` runs once, at construction, and the circuit holds one
    Heisenberg-picture coefficient matrix.  Each row of ``matrix`` is a
    quadrature written as a linear combination of ``columns``: the input
    quadratures ``x1_in, p1_in, ...`` and independent unit-variance sources
    (ancilla vacua ``xA0, pA0``, loss vacua ``xv_<tag>, pv_<tag>``, dark noise
    ``dark<k>``), with no constant.  The rows are stacked in three blocks: the
    ``2*n_output_modes`` output quadratures; ``n_readouts`` rows, one per
    homodyne in element order, holding its electronic readout (the optical
    quadrature it measures plus its dark noise, the value it feeds forward);
    then the observed rows a shot is conditioned on, in draw order: per
    homodyne its optical quadrature, then the unit row of its ``dark<k>``
    source when it has dark noise.  No per-element state is kept.  Equality,
    hashing and ``repr`` cover ``elements`` and ``n_input_modes`` only.
    """

    elements: tuple
    n_input_modes: int = 2
    columns: tuple = field(init=False, compare=False, repr=False)
    matrix: np.ndarray = field(init=False, compare=False, repr=False)
    n_output_modes: int = field(init=False, compare=False, repr=False)
    n_readouts: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        # validated and lowered once; every executor reads these four values
        lowered = _lower(self.elements, self.n_input_modes)
        for name, value in zip(("columns", "matrix", "n_output_modes", "n_readouts"), lowered):
            object.__setattr__(self, name, value)

    def to_text(self) -> str:
        """Stable dump: ``ClassName field=value ...`` per element, floats at 12 digits."""

        def value(v) -> str:
            text = f"{v:.12g}" if isinstance(v, float) else str(v)
            return text.replace(" ", "") if isinstance(v, tuple) else text

        lines = [f"Circuit n_input_modes={self.n_input_modes}"]
        for el in self.elements:
            items = (f"{f.name}={value(getattr(el, f.name))}" for f in fields(el))
            lines.append(" ".join((type(el).__name__, *items)))
        return "\n".join(lines)


def _require(ok: bool, position: int, element) -> None:
    if not ok:
        raise ValueError(f"invalid circuit element at position {position}: {element!r}")


# (cos, sin) at the quarter turns of one full turn either way; math.cos(pi/2) is 6.1e-17
_QUARTER_TURNS = {float(k): ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[k % 4] for k in range(-4, 5)}


def _cos_sin(angle: float) -> tuple:
    """``(cos(angle), sin(angle))``, exact at the multiples of pi/2 in [-2 pi, 2 pi]."""
    return _QUARTER_TURNS.get(angle / (math.pi / 2)) or (math.cos(angle), math.sin(angle))


# --------------------------------------------------------------------------
# lowering


def _lower(elements: tuple, n_input_modes: int) -> tuple:
    """Validate the element list and lower it: the one reader of element kinds.

    Returns the ``Circuit`` layout ``(columns, matrix, n_output_modes, n_readouts)``.

    One pass over the elements checks each in order and registers its source
    labels in a label-to-column dict, so the first invalid element or repeated
    label raises.  It appends each element's scalars, with signs folded in, to
    a flat vector and its step to the layout key: kind, scalar offset, modes,
    source columns, and whether it has dark noise; never a value or a label.
    ``_plan`` records, once per layout, which products of those scalars sum to
    each matrix entry; the matrix is then a gather, a product and a
    ``bincount`` away.  Its entries agree with a numeric walk over the elements
    to rounding, not bit for bit: the sums run in the plan's order.
    """
    if isinstance(n_input_modes, bool) or not isinstance(n_input_modes, Integral) or n_input_modes < 1:
        raise ValueError(f"n_input_modes must be a positive integer, got {n_input_modes!r}")
    # label -> column; ``setdefault`` finds a repeat (dark<k> counts, so it never repeats)
    columns = {c: j for j, c in enumerate(f"{q}{k + 1}_in" for k in range(n_input_modes) for q in "xp")}
    scalars = [1.0]  # scalars[0] is the empty product
    layout = [n_input_modes]
    n = n_input_modes
    losses = darks = 0
    for pos, el in enumerate(elements):
        kind, k = type(el), len(scalars)
        if kind is AncillaInjection:
            _require(abs(el.r) <= gaussian.MAX_SQUEEZE_PARAMETER and math.isfinite(el.angle), pos, el)
            c, s = _cos_sin(el.angle)
            x, p, col = f"x{el.label}0", f"p{el.label}0", len(columns)
            if columns.setdefault(x, col) != col or columns.setdefault(p, col + 1) != col + 1:
                raise ValueError(f"repeated source label {x if columns[x] != col else p!r}")
            squeezed, anti = math.exp(-el.r), math.exp(el.r)
            # rot.T @ diag(e^-r, e^r) @ rot, rot = [[c, s], [-s, c]]
            cross = c * s * (squeezed - anti)
            scalars += (c * c * squeezed + s * s * anti, cross, cross, s * s * squeezed + c * c * anti)
            layout.append((kind, k, col))
            n += 1
        elif kind is BeamSplitter:
            s1, s2, s3, s4 = el.signs
            _require(
                el.i != el.j and 0 <= el.i < n and 0 <= el.j < n and 0.0 <= el.reflectivity <= 1.0
                and set(el.signs) <= {-1, 1} and s1 * s2 == -s3 * s4,
                pos, el,
            )
            t, r = math.sqrt(1.0 - el.reflectivity), math.sqrt(el.reflectivity)
            scalars += (s1 * t, s2 * r, s3 * r, s4 * t)
            layout.append((kind, k, el.i, el.j))
        elif kind is Loss:
            _require(0 <= el.mode < n and 0.0 <= el.eta <= 1.0, pos, el)
            losses += 1
            suffix = el.tag or losses
            x, p, col = f"xv_{suffix}", f"pv_{suffix}", len(columns)
            if columns.setdefault(x, col) != col or columns.setdefault(p, col + 1) != col + 1:
                raise ValueError(f"repeated source label {x if columns[x] != col else p!r}")
            scalars += (math.sqrt(el.eta), math.sqrt(1.0 - el.eta))
            layout.append((kind, k, el.mode, col))
        elif kind is HomodyneFeedforward:
            _require(
                0 <= el.measured_mode < n and 0 <= el.target_mode < n and el.target_mode != el.measured_mode
                and el.target_quadrature in ("x", "p") and math.isfinite(el.gain)
                and math.isfinite(el.angle) and 0.0 <= el.dark_variance < math.inf,
                pos, el,
            )
            scalars += (*_cos_sin(el.angle), el.gain)
            dark = None
            if el.dark_variance > 0.0:
                darks += 1
                dark = columns.setdefault(f"dark{darks}", len(columns))
                scalars.append(math.sqrt(el.dark_variance))
            layout.append((kind, k, el.measured_mode, el.target_mode, el.target_quadrature == "p", dark))
            n -= 1
        else:
            raise TypeError(f"unknown circuit element {el!r}")

    stages, shape, n_readouts = _plan(tuple(layout), len(columns), len(scalars))
    values = np.fromiter(scalars, float, len(scalars))
    for factors, entries, size in stages:
        sums = np.bincount(entries, np.multiply.reduce(values[factors]), size)
        # a stage's sums are scalars of the stages after it
        values = np.concatenate((values, sums))
    matrix = sums.reshape(shape)
    # each row's squared norm is its vacuum variance; the finite total, when it is, bounds them all
    if not (math.isfinite(np.vdot(matrix, matrix)) or math.isfinite(np.einsum("ij,ij->i", matrix, matrix).max())):
        raise ValueError("the circuit overflows: a row of its lowered matrix has an infinite vacuum variance")
    # equal gate builds share one circuit, so its matrix must not change under them
    matrix.flags.writeable = False
    return tuple(columns), matrix, n, n_readouts


# a stage ends where the live rows hold more products than this per nonzero entry
_PRODUCTS_PER_ENTRY = 4


@functools.lru_cache
def _plan(layout: tuple, width: int, n_scalars: int) -> tuple:
    """The Heisenberg-picture walk over one layout, run on scalar indices instead of values.

    A row is a list of ``(column, factors)`` products: its entry in a column
    is the sum of the products of the scalars that the index tuples name.
    Mixing the same modes again and again doubles the products each time, so
    where the live mode rows hold more than ``_PRODUCTS_PER_ENTRY`` products
    per nonzero entry, their sums are taken in a stage of their own and read
    as new scalars, indexed from ``n_scalars`` on.  The gate's layouts need
    one stage.

    Returns ``(stages, shape, n_readouts)``.  Each stage is ``(factors,
    entries, size)``: one column of scalar indices per product (index 0, the
    scalar 1, pads), the sum each product adds to, and the number of sums.
    The last stage's sums are the matrix, of ``shape``.  Its rows are the
    output quadratures, one readout per homodyne in element order, then the
    observed rows: per homodyne its optical quadrature, then the unit row of
    its ``dark<k>`` source when it has dark noise.
    """

    def scaled(row: list, k: int) -> list:
        return [(col, f + (k,)) for col, f in row]

    def stage(products: list, size: int) -> tuple:
        # ``products`` holds (sum index, factors) pairs
        degree = max(len(f) for _, f in products)
        padded = [f + (0,) * (degree - len(f)) for _, f in products]
        factors = np.ascontiguousarray(np.array(padded, dtype=np.intp).T)
        entries = np.array([entry for entry, _ in products], dtype=np.intp)
        for array in (factors, entries):
            array.flags.writeable = False
        return factors, entries, size

    n_input_modes, *steps = layout
    modes = [[[(2 * m, ())], [(2 * m + 1, ())]] for m in range(n_input_modes)]
    readouts, observed, stages = [], [], []
    for kind, k, *args in steps:
        if kind is AncillaInjection:
            (col,) = args
            modes.append([[(col, (k,)), (col + 1, (k + 1,))], [(col, (k + 2,)), (col + 1, (k + 3,))]])
        elif kind is BeamSplitter:
            i, j = args
            a, b = modes[i], modes[j]
            modes[i] = [scaled(qa, k) + scaled(qb, k + 1) for qa, qb in zip(a, b)]
            modes[j] = [scaled(qa, k + 2) + scaled(qb, k + 3) for qa, qb in zip(a, b)]
        elif kind is Loss:
            mode, col = args
            x, p = modes[mode]
            modes[mode] = [scaled(x, k) + [(col, (k + 1,))], scaled(p, k) + [(col + 1, (k + 1,))]]
        else:  # HomodyneFeedforward
            measured, target, quadrature, dark = args
            x, p = modes[measured]
            optical = readout = scaled(x, k) + scaled(p, k + 1)
            observed.append(optical)
            if dark is not None:
                # the observed optical row stays free of dark noise
                readout = optical + [(dark, (k + 3,))]
                observed.append([(dark, ())])
            modes[target][quadrature] = modes[target][quadrature] + scaled(readout, k + 2)
            del modes[measured]
            readouts.append(readout)
        live = [q for quadratures in modes for q in quadratures]
        if sum(map(len, live)) > _PRODUCTS_PER_ENTRY * sum(len({col for col, _ in q}) for q in live):
            slots = {}  # (row, column) -> index of its sum
            products = [(slots.setdefault((r, col), len(slots)), f) for r, row in enumerate(live) for col, f in row]
            stages.append(stage(products, len(slots)))
            summed = [[] for _ in live]
            for (r, col), slot in slots.items():
                summed[r].append((col, (n_scalars + slot,)))
            modes = [summed[2 * m : 2 * m + 2] for m in range(len(modes))]
            n_scalars += len(slots)

    rows = [q for quadratures in modes for q in quadratures] + readouts + observed
    stages.append(stage([(r * width + col, f) for r, row in enumerate(rows) for col, f in row], len(rows) * width))
    return tuple(stages), (len(rows), width), len(readouts)


def _moments(circuit: "Circuit", state: GaussianState, n_rows: int | None = None):
    """Mean and covariance of the first ``n_rows`` lowered rows on an input ``state``."""
    if state.n_modes != circuit.n_input_modes:
        raise ValueError(f"circuit expects {circuit.n_input_modes} input modes, got {state.n_modes}")
    rows = circuit.matrix[:n_rows]
    k = 2 * state.n_modes
    x, noise = rows[:, :k], rows[:, k:]
    return x @ state.mean, x @ state.cov @ x.T + noise @ noise.T


class CircuitConstructionError(RuntimeError):
    """Raised when the compiled gate fails its closed-form self-check."""


# --------------------------------------------------------------------------
# builder


def build_qnd_gate(params: GateParams, imperfections: ImperfectionModel) -> Circuit:
    """Compile the sum-gate apparatus for the given working point.

    Layout (modes 0 and 1 are the two gate modes):

    1. entry beam splitter, reflectivity ``1/(1+R)``;
    2. arm A, the gadget ``_squeezer_elements("x", ...)``: ancilla squeezed
       in x, beam splitter of reflectivity ``R``, p homodyne, p feedforward;
    3. arm B, the same gadget on the p sector (ancilla squeezed in p, x
       homodyne, x feedforward);
    4. exit beam splitter, reflectivity ``R/(1+R)``;
    5. loss and detector imperfections per ``imperfections``.

    A single beam-splitter stage can only cancel the ancilla's anti-squeezed
    quadrature by measuring the quadrature conjugate to the squeezed one, so
    the x-sector arm homodynes p and vice versa.  Every call compares the
    circuit's map with ``quadexpr.gate_budget_map``, the closed form of its
    output rows over the whole budget, by ``max_coefficient_difference``,
    and raises a ``CircuitConstructionError`` beyond 1e-9 coefficient error.
    Circuits, not verdicts, are memoised in a bounded cache keyed on the
    frozen ``(params, imperfections)``, so equal inputs return the same
    ``Circuit`` with its read-only matrix, and each distinct gate is lowered
    once.
    """
    circuit = _gate(params, imperfections)
    err = max_coefficient_difference(circuit_quadrature_map(circuit), gate_budget_map(params, imperfections))
    # written so that a NaN error fails too
    if not err <= ORACLE_MATCH_TOL:
        raise CircuitConstructionError(
            f"compiled gate deviates from the input-output relations: "
            f"coefficient error {err:.3e}"
        )
    return circuit


def oracle_error(params: GateParams) -> float:
    """Largest coefficient error of the lossless compiled gate against ``finite_squeezing_map``.

    The build check's comparison on the memoised lossless circuit, run on
    every call and never cached.
    """
    return max_coefficient_difference(
        circuit_quadrature_map(_gate(params, ImperfectionModel.ideal())),
        finite_squeezing_map(params.R, params.r_a, params.r_b),
    )


@functools.lru_cache
def _gate(params: GateParams, imp: ImperfectionModel) -> Circuit:
    """The gate circuit, memoised on its frozen inputs; never a verdict."""
    return Circuit(_gate_elements(params, imp))


# squeezed quadrature -> ancilla angle, arm signs, homodyne angle, fed-forward quadrature, gain sign
_SQUEEZERS = {"x": (0.0, (1, -1, 1, 1), math.pi / 2, "p", -1.0), "p": (math.pi / 2, (-1, -1, 1, -1), 0.0, "x", 1.0)}


def _squeezer_elements(quadrature: str, ancilla: int, label: str, r: float, R: float, imp: ImperfectionModel) -> list:
    """One arm: squeeze ``quadrature`` of mode 0 by ``sqrt(R)``, measuring mode 0 itself.

    The ancilla ``label``, appended at index ``ancilla``, carries the squeezed output.
    """
    angle, signs, measured, target, sign = _SQUEEZERS[quadrature]
    eta, eta_det = 1.0 - imp.displacement_coupler_loss, imp.homodyne_efficiency
    gain = sign * math.sqrt((1.0 - R) / R) * (1.0 + imp.feedforward_electronic_gain_error)
    coupler = [Loss(ancilla, eta, f"coupler{label}")] if eta < 1.0 else []
    detector = [Loss(0, eta_det, f"det{label}")] if eta_det < 1.0 else []
    return [
        AncillaInjection(r, angle, label),
        BeamSplitter(ancilla, 0, R, signs),
        *coupler,
        *detector,
        HomodyneFeedforward(0, measured, ancilla, target, gain, dark_variance=imp.dark_variance),
    ]


def _gate_elements(params: GateParams, imp: ImperfectionModel) -> list:
    eta_prop = 1.0 - imp.propagation_loss_per_main_mode
    main_losses = [Loss(0, eta_prop, "main1"), Loss(1, eta_prop, "main2")] if eta_prop < 1.0 else []
    R = params.R
    eta_extra = 1.0 - imp.extra_in_loop_loss
    pre, post = (main_losses, []) if imp.loss_placement == "pre_entry" else ([], main_losses)
    elements = [*pre, BeamSplitter(0, 1, 1.0 / (1.0 + R), signs=(1, -1, 1, 1))]
    # arm A squeezes x on the mode-0 path; its homodyne removes that path, so
    # arm B's p squeezer finds the mode-1 path at index 0
    elements += _squeezer_elements("x", 2, "A", params.r_a, R, imp)
    elements += _squeezer_elements("p", 2, "B", params.r_b, R, imp)
    # after the two stages the arm outputs sit in slots (0, 1) again
    if eta_extra < 1.0:
        elements += [Loss(0, eta_extra, "armA"), Loss(1, eta_extra, "armB")]
    return [*elements, BeamSplitter(0, 1, R / (1.0 + R), signs=(-1, -1, 1, -1)), *post]


# --------------------------------------------------------------------------
# deterministic (ensemble-average) execution


def run_covariance(circuit: Circuit, state: GaussianState) -> GaussianState:
    """Execute a circuit on the ensemble level; consumes no randomness.

    The lowered outputs give ``mean = X m`` and ``cov = X V X^T + N N^T``:
    homodyne feedforward enters as its outcome average, the target quadrature
    gaining ``gain`` times the measured quadrature with readout noise.
    """
    n = circuit.n_output_modes
    return GaussianState(n, *_moments(circuit, state, 2 * n))


# --------------------------------------------------------------------------
# single-shot stochastic execution


@dataclass
class TrajectoryProgram:
    """Pre-compiled stochastic execution plan for one circuit and input.

    The conditional covariance is outcome-independent, so it is computed once;
    each shot's output means and readouts are affine in its standard-normal
    draws, ``mean0 + gains @ draws``.  A trajectory consumes ``gains.shape[1]``
    draws, in element order (optical draw, then dark draw when dark noise is
    configured), and the first ``len(final_cov)`` entries of ``mean0`` are
    its output means.
    """

    mean0: np.ndarray  # output means, then the readouts, at zero draws
    gains: np.ndarray  # (len(mean0), draws per shot)
    final_cov: np.ndarray

    def run_means(self, draws: np.ndarray):
        """Propagate one shot's means for its ``draws``, of shape ``(gains.shape[1],)``.

        Returns ``(means, outcomes)``: the ``len(final_cov)`` output means and
        the electronic readouts, one per homodyne.
        """
        draws = np.asarray(draws, dtype=float)
        if draws.shape != self.gains.shape[1:]:
            raise ValueError(f"need {self.gains.shape[1]} draws per shot, got shape {draws.shape}")
        # ((mean0 + g0 d0) + g1 d1) + ..., one draw at a time
        values = self.mean0.copy()
        for gain, draw in zip(self.gains.T, draws):
            values += gain * draw
        n_out = len(self.final_cov)
        return values[:n_out], values[n_out:]


def compile_trajectory(circuit: Circuit, state: GaussianState) -> TrajectoryProgram:
    """Build the stochastic execution plan for ``circuit`` on ``state``.

    The output and readout rows are conditioned on the observed rows, the
    last block of the circuit's matrix: in element order, each homodyne's
    optical quadrature and then its dark noise.  The readout noise therefore
    reaches the means through the feedforward but never the conditional
    covariance, and ``final_cov + gains @ gains.T`` restricted to the outputs
    equals the ``run_covariance`` covariance.
    """
    n_out = 2 * circuit.n_output_modes
    kept = n_out + circuit.n_readouts
    mean, cov = _moments(circuit, state)
    draws = len(mean) - kept
    gains = np.zeros((kept, draws))
    for j in range(draws):
        var, gain, cov = gaussian._condition(cov, kept + j)
        gains[:, j] = math.sqrt(max(var, 0.0)) * gain[:kept]
    return TrajectoryProgram(mean[:kept], gains, cov[:n_out, :n_out])


def run_trajectory(
    circuit: Circuit,
    state: GaussianState,
    rng: np.random.Generator,
):
    """Execute one stochastic shot of the circuit.

    Returns ``(final_state, outcome_log)`` where ``final_state`` is the
    conditional Gaussian state for this shot and ``outcome_log`` holds the
    electronic readout of every homodyne detector in element order.

    All standard-normal draws for the shot are taken from ``rng`` in a single
    batch, so a trajectory is bit-reproducible from its generator state
    regardless of how it is scheduled.
    """
    program = compile_trajectory(circuit, state)
    means, outcomes = program.run_means(rng.standard_normal(program.gains.shape[1]))
    return GaussianState(len(means) // 2, means, program.final_cov.copy()), outcomes


# --------------------------------------------------------------------------
# symbolic coefficient extraction


def circuit_quadrature_map(circuit: Circuit) -> QuadratureMap:
    """The circuit's exact input-output coefficients: its lowered output rows.

    The two input modes carry labels ``x1_in, p1_in, x2_in, p2_in``; ancilla
    injections contribute pre-squeezing vacuum labels such as ``xA0``, loss
    channels add fresh vacuum labels and dark noise adds classical labels.
    The map reads the circuit's ``columns`` and its first four rows as they
    stand, so its matrix is a read-only view.  The circuit must end with
    exactly two modes.
    """
    if circuit.n_input_modes != 2 or circuit.n_output_modes != 2:
        raise ValueError("coefficient extraction is defined for two-mode circuits ending with two modes")
    return QuadratureMap(circuit.columns, circuit.matrix[:4])
