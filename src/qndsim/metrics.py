"""Figures of merit for the simulated gate.

A QND interaction is quantified per quadrature sector by the transfer
coefficients ``T_S`` (signal preservation) and ``T_P`` (information gain),
with ``T_S + T_P > 1`` marking the quantum regime, and by the conditional
variance ``V_SP < 1`` of the signal output given the probe output.  Output
cross-correlations additionally witness entanglement when

    Var(x1 - g*x2) + Var(p2 + g*p1) < 4*|g|

for some rescaling gain ``g``.

Sector conventions (covariances in interleaved (x1, p1, x2, p2) order):

* x sector: signal input x1, signal output x1, probe output x2, combination
  ``x1 - g*x2``;
* p sector: signal input p2, signal output p2, probe output p1, combination
  ``p2 + g*p1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import gaussian
from .circuit import (
    Circuit,
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    circuit_quadrature_map,
    run_covariance,
)
from .quadexpr import (
    INPUT_COLUMNS,
    QuadratureMap,
    finite_squeezing_map,
    ideal_qnd_map,
    moments_from_map,
)

# (signal, probe, probe sign): (x1, p1, x2, p2) indices; the signal input is INPUT_COLUMNS[signal]
_SECTOR = {"x": (0, 2, -1.0), "p": (3, 1, +1.0)}

DEFAULT_PROBE_AMPLITUDE = 10.0  # mean**2 = 100 x shot noise (20 dB)
# the rescaling gains every witness scan and conditional CSV reads, read-only; + 0.0 makes
# rounding's -0.0 at g = 0 print unsigned
DEFAULT_G_GRID = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.01), 10) + 0.0
DEFAULT_G_GRID.flags.writeable = False
_VACUUM_INPUT = gaussian.vacuum_state(2)  # shared by every vacuum run here and in ``cli``; executors only read it
_VACUUM_INPUT.mean.flags.writeable = _VACUUM_INPUT.cov.flags.writeable = False


def _check_sector(sector: str) -> tuple:
    if sector not in _SECTOR:
        raise ValueError(f"sector must be 'x' or 'p', got {sector!r}")
    return _SECTOR[sector]


def transfer_coefficients(qmap: QuadratureMap, cov: np.ndarray, sector: str):
    """Signal-to-noise transfer coefficients ``(T_S, T_P)`` of one sector.

    Exciting the sector's signal input ``j`` by ``amplitude`` moves output
    ``i``'s mean by ``amplitude * X[i, j]``, ``X`` the map ``qmap``, and leaves
    the vacuum-input output covariance ``cov`` alone; so the SNR ratio is
    ``X[i, j]**2 / cov[i, i]`` at every amplitude.  A (4, 4) ``cov`` gives
    floats, a stack of shape (n, 4, 4) arrays.
    """
    signal, probe, _ = _check_sector(sector)
    column = qmap.matrix[:, qmap.columns.index(INPUT_COLUMNS[signal])]
    moments = cov.T  # moments[j, i] is cov[..., i, j]: a scalar, or one per stacked cov

    def snr_ratio(idx: int):
        variance = moments[idx, idx]
        # written so that a NaN variance fails too
        if not all((variance > 0.0).flat):
            raise ValueError("non-positive output variance")
        ratio = column[idx] ** 2 / variance
        return float(ratio) if cov.ndim == 2 else ratio

    return snr_ratio(signal), snr_ratio(probe)


def conditional_variance(cov: np.ndarray, sector: str):
    """Minimum over g of the sector's combined-quadrature variance.

    Returns ``(V_SP, g_opt)``; closed form ``V_S * (1 - C**2)`` with
    ``g_opt`` the minimizing rescaling gain of ``Var(x1 - g*x2)`` (x sector)
    or ``Var(p2 + g*p1)`` (p sector), and a ``|g_opt|`` below 1e-12 read as
    +0.0.  A (4, 4) covariance gives two floats, a stack of shape (n, 4, 4)
    two arrays of length n, snapped entry by entry.
    """
    s, p, sign = _check_sector(sector)
    cov = np.asarray(cov, dtype=float)
    moments = cov.T  # moments[j, i] is cov[..., i, j]: a scalar, or one per stacked cov
    var_s, var_p, c = moments[s, s], moments[p, p], moments[p, s]
    floor = var_p <= gaussian.VARIANCE_FLOOR
    if any(floor.flat):
        # a noiseless probe carries no information: V_SP = V_S at g = 0
        var_p = np.where(floor, np.inf, var_p)
    g_opt = -sign * c / var_p
    value = var_s - c * c / var_p
    if cov.ndim == 2:
        value, g_opt = float(value), float(g_opt)
    # zero float noise (a lossy G = 0 gate gives about -2e-19) and -0.0, which
    # print as "-0.00000": a product, as np.where takes 2 us on a float
    return value, g_opt * (abs(g_opt) >= 1e-12) + 0.0


def cv_sweep(cov: np.ndarray, sector: str, g_grid) -> np.ndarray:
    """Combined-quadrature variance along a grid of rescaling gains."""
    s, p, sign = _check_sector(sector)
    cov = np.asarray(cov, dtype=float)
    g = np.asarray(g_grid, dtype=float)
    return cov[s, s] + 2.0 * sign * g * cov[s, p] + g * g * cov[p, p]


@dataclass
class ReferenceSweeps:
    """Lossless theory parabolas for a conditional-variance plot."""

    ideal: np.ndarray            # infinite squeezing
    finite_squeezing: np.ndarray  # configured ancilla squeezing
    vacuum_ancilla: np.ndarray    # no squeezing
    witness_bound: np.ndarray     # 2*|g| per sector (both sectors sum to 4|g|)


def reference_sweeps(params: GateParams, g_grid) -> dict:
    """Each sector's three lossless reference curves, ``{"x": ..., "p": ...}``, from one build of each map."""
    g = np.asarray(g_grid, dtype=float)
    maps = (
        ideal_qnd_map(params.gain),
        finite_squeezing_map(params.R, params.r_a, params.r_b),
        finite_squeezing_map(params.R, 0.0, 0.0),
    )
    covs = [moments_from_map(m) for m in maps]
    return {s: ReferenceSweeps(*(cv_sweep(cov, s, g) for cov in covs), 2.0 * np.abs(g)) for s in ("x", "p")}


@dataclass
class DuanResult:
    """Two-mode entanglement witness evaluated at one gain and over a scan."""

    g: float
    combined_sum: float
    bound: float
    entangled: bool
    scan_entangled: bool
    scan_best_g: float
    scan_best_margin: float  # min over the grid of (sum - bound); < 0 certifies


def duan_simon(cov: np.ndarray, g: float) -> DuanResult:
    """Evaluate the entanglement witness at ``g`` and scan ``DEFAULT_G_GRID``.

    The state is certified entangled when the combined-quadrature sum
    ``Var(x1 - g*x2) + Var(p2 + g*p1)`` drops below ``4*|g|``; both sectors
    enter at the same ``g``, so the scan looks for a simultaneous dip.
    """
    grid = DEFAULT_G_GRID
    value = float(cv_sweep(cov, "x", g) + cv_sweep(cov, "p", g))
    bound = 4.0 * abs(g)
    sums = cv_sweep(cov, "x", grid) + cv_sweep(cov, "p", grid)
    margins = sums - 4.0 * np.abs(grid)
    best = int(np.argmin(margins))
    return DuanResult(
        g=float(g),
        combined_sum=value,
        bound=bound,
        entangled=bool(value < bound),
        scan_entangled=bool(margins[best] < 0.0),
        scan_best_g=float(grid[best]),
        scan_best_margin=float(margins[best]),
    )


@dataclass
class SectorMetrics:
    t_signal: float
    t_probe: float
    v_conditional: float
    g_opt: float

    @property
    def t_sum(self) -> float:
        return self.t_signal + self.t_probe

    @property
    def qnd_criteria_pass(self) -> bool:
        """Quantum regime: joint SNR transfer above 1 with state preparation."""
        return 1.0 < self.t_sum <= 2.0 and self.v_conditional < 1.0


@dataclass
class QndReport:
    """Full characterization of one gate working point.

    ``cov`` is the vacuum-input output covariance the sector metrics were
    read from.  The witness ``duan`` is evaluated from it the first time it
    is read, so a caller that prints only the sector metrics scans no gain
    grid.
    """

    params: GateParams
    sectors: dict  # "x"/"p" -> SectorMetrics
    cov: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def duan(self) -> DuanResult:
        """The witness at the x sector's ``g_opt``, scanned over ``DEFAULT_G_GRID``; computed on first read."""
        return duan_simon(self.cov, self.sectors["x"].g_opt)

    @property
    def qnd_criteria_pass(self) -> bool:
        return all(m.qnd_criteria_pass for m in self.sectors.values())

    def to_text(self) -> str:
        lines = [
            f"gate R={self.params.R:.6f} G={self.params.gain:.6f} "
            f"squeezing A={self.params.squeezing_db_a:g} dB B={self.params.squeezing_db_b:g} dB"
        ]
        for name in ("x", "p"):
            m = self.sectors[name]
            lines.append(
                f"sector {name}: T_S={m.t_signal:.5f} T_P={m.t_probe:.5f} "
                f"T_sum={m.t_sum:.5f} V_SP={m.v_conditional:.5f} g_opt={m.g_opt:.5f} "
                f"qnd={'PASS' if m.qnd_criteria_pass else 'FAIL'}"
            )
        d = self.duan
        lines.append(
            f"witness: sum={d.combined_sum:.5f} bound={d.bound:.5f} at g={d.g:.5f}; "
            f"scan min margin={d.scan_best_margin:.5f} at g={d.scan_best_g:.5f} "
            f"entangled={'YES' if d.scan_entangled else 'NO'}"
        )
        return "\n".join(lines)


def _sector_metrics(qmap: QuadratureMap, cov: np.ndarray, signal_scale=1.0) -> dict:
    """Both sectors' metrics, T scaled by ``signal_scale``; a stack ``cov`` gives arrays."""
    sectors = {}
    for sector in ("x", "p"):
        t_s, t_p = transfer_coefficients(qmap, cov, sector)
        v, g_opt = conditional_variance(cov, sector)
        sectors[sector] = SectorMetrics(signal_scale * t_s, signal_scale * t_p, v, g_opt)
    return sectors


def evaluate_gate(circuit: Circuit, params: GateParams, cov=None) -> QndReport:
    """Run the standard characterization of a compiled gate circuit.

    ``cov`` is the circuit's vacuum-input output covariance, propagated
    when None; a sampled one, such as an ensemble's, gives sampled figures.
    It and one quadrature map give both sectors' metrics.  The report's
    witness is scanned only when ``duan`` is read.
    """
    if cov is None:
        cov = run_covariance(circuit, _VACUUM_INPUT).cov
    return QndReport(params, _sector_metrics(circuit_quadrature_map(circuit), cov), cov)


def vacuum_noise_report(circuit: Circuit, params: GateParams) -> dict:
    """Output quadrature variances (linear and dB) for vacuum inputs.

    Returns the four curve families of a vacuum-input power spectrum, in this
    order: the 0 dB ``"input"`` reference, the ``"infinite_squeezing"``
    prediction, the circuit as ``"configured"``, and the lossless relations
    with vacuum (0 dB) ancillas, ``finite_squeezing_map(R, 0, 0)``, as
    ``"vacuum_ancilla_reference"``.  Only ``"configured"`` reads the circuit's
    noise budget.  Each maps to ``(variances, dB)``, two lists in (x1, p1, x2,
    p2) order.  The lossless two are their maps' row sums of squares, bit for
    bit the diagonal of ``moments_from_map``.
    """
    ideal, vacuum = ((m.matrix * m.matrix).sum(axis=1)
                     for m in (ideal_qnd_map(params.gain), finite_squeezing_map(params.R, 0.0, 0.0)))
    # one (4, 4) array of variances, one family per row, converted to dB at once
    variances = np.stack((np.ones(4), ideal, np.diag(run_covariance(circuit, _VACUUM_INPUT).cov), vacuum))
    db = gaussian.variance_to_db(variances).tolist()
    families = ("input", "infinite_squeezing", "configured", "vacuum_ancilla_reference")
    return dict(zip(families, zip(variances.tolist(), db)))


# --------------------------------------------------------------------------
# published reference values and the single-knob calibration


# measured characterization used as calibration targets: per gain, per
# sector, (value, one-sigma error bar)
REFERENCE_TABLE = {
    1.0: {
        "T_S": {"x": (0.79, 0.03), "p": (0.71, 0.03)},
        "T_P": {"x": (0.41, 0.02), "p": (0.39, 0.02)},
        "T_sum": {"x": (1.20, 0.05), "p": (1.10, 0.05)},
        "V_SP": {"x": (0.75, 0.01), "p": (0.78, 0.01)},
    },
    1.5: {
        "T_S": {"x": (0.80, 0.03), "p": (0.71, 0.03)},
        "T_P": {"x": (0.62, 0.03), "p": (0.56, 0.02)},
        "T_sum": {"x": (1.42, 0.06), "p": (1.27, 0.05)},
        "V_SP": {"x": (0.61, 0.01), "p": (0.63, 0.01)},
    },
}

# acceptance bands are checked on these metrics at twice the quoted bars;
# each maps to the SectorMetrics attribute that holds its simulated value
BAND_METRICS = {"T_sum": "t_sum", "V_SP": "v_conditional"}
BAND_WIDTH_FACTOR = 2.0


@dataclass
class BandCheck:
    """A banded value and its rule, ``|simulated - reference| <= BAND_WIDTH_FACTOR * bar``."""

    gain: float
    metric: str
    sector: str
    simulated: float
    reference: float
    bar: float

    @property
    def residual_bars(self) -> float:
        """Deviation in units of the quoted error bar."""
        return abs(self.simulated - self.reference) / self.bar

    @property
    def low(self) -> float:
        return self.reference - BAND_WIDTH_FACTOR * self.bar

    @property
    def high(self) -> float:
        return self.reference + BAND_WIDTH_FACTOR * self.bar

    @property
    def within(self) -> bool:
        return abs(self.simulated - self.reference) <= BAND_WIDTH_FACTOR * self.bar


@dataclass
class TableComparison:
    """Simulated-versus-reference comparison for both gains."""

    extra_in_loop_loss: float
    fitted: bool
    reports: dict          # gain -> QndReport
    checks: list           # BandCheck entries for the banded metrics
    objective: float       # sum of squared residuals in bar units
    lossless: BandCheck    # T_sum(G = 1, x) of the lossless relations at the table's squeezing


def compare_to_reference(
    imperfections: ImperfectionModel,
    squeezing_db: float = -5.0,
    fitted: bool = False,
) -> TableComparison:
    """Evaluate both published gains under one imperfection model.

    One real build per gain at the budget's own knob: the knob scan at the
    single further knob 0, the path every table takes.
    """
    objective, rows = _knob_scan(imperfections, squeezing_db, np.zeros(1))
    return _comparison(rows, 0, imperfections.extra_in_loop_loss, fitted, objective[0])


def _banded(gain: float, sectors: dict):
    """A ``BandCheck`` for each banded value at one gain."""
    targets = REFERENCE_TABLE[gain]
    for metric, attribute in BAND_METRICS.items():
        for sector in ("x", "p"):
            ref, bar = targets[metric][sector]
            yield BandCheck(gain, metric, sector, getattr(sectors[sector], attribute), ref, bar)


# the knobs every fit scans, read-only like ``DEFAULT_G_GRID``
DEFAULT_KNOB_GRID = np.arange(0.0, 0.1001, 0.0025)
DEFAULT_KNOB_GRID.flags.writeable = False


def _knob_scan(base: ImperfectionModel, squeezing_db: float, knobs: np.ndarray):
    """The fit objective and both sectors' metrics at every knob, from one build per gain.

    Each gain is built once under ``base`` as given, and a knob ``k`` is a
    further pure loss of ``1 - k`` on both outputs of that build.  Returns
    ``(objective, rows)``: ``objective`` holds one value per knob, and
    ``rows[gain]`` is ``(params, sectors, cov)``, the gain's ``GateParams``,
    its ``SectorMetrics`` of arrays (one entry per knob) and its (n, 4, 4)
    vacuum-input output covariances.  See ``fit_extra_in_loop_loss``.
    """
    objective = np.zeros(len(knobs))
    rows = {}
    for gain in REFERENCE_TABLE:
        params = GateParams.from_gain(gain, squeezing_db_a=squeezing_db, squeezing_db_b=squeezing_db)
        circuit = build_qnd_gate(params, base)
        cov0 = run_covariance(circuit, _VACUUM_INPUT).cov
        cov = cov0 + knobs[:, None, None] * (np.eye(4) - cov0)
        # the signal coefficients at knob k are sqrt(1 - k) times knob 0's
        sectors = _sector_metrics(circuit_quadrature_map(circuit), cov, 1.0 - knobs)
        for check in _banded(gain, sectors):
            objective += check.residual_bars**2
        rows[gain] = params, sectors, cov
    return objective, rows


def fit_extra_in_loop_loss(imperfections: ImperfectionModel, squeezing_db: float = -5.0) -> TableComparison:
    """Grid-fit the single in-loop loss knob against the reference table.

    Minimizes the summed squared deviation (in error-bar units) of the banded
    metrics over both gains, and returns the comparison at the first
    ``DEFAULT_KNOB_GRID`` knob that attains the minimum.  The fitted knob
    value is carried in the result so every downstream report can state it.

    The grid is scanned in closed form.  The knob sets a pure loss
    ``eta = 1 - k`` on both arms after both feedforward stages.  Equal losses
    on two modes commute with the exit beam splitter and with the main-mode
    losses, so the output at knob ``k`` is the knob-0 output sent through a
    pure loss ``eta`` on both modes (Weedbrook et al., Rev. Mod. Phys. 84, 621
    (2012), Sec. II): ``cov(k) = eta * cov(0) + (1 - eta) * I``, that is
    ``cov(0) + k * (I - cov(0))``, and the signal coefficients are
    ``sqrt(eta)`` times those at ``k = 0``.  One build per gain, at ``k = 0``,
    gives the objective at every grid knob.

    The returned comparison is the scan's row at the fitted knob, not a
    second build: its reports hold that row's metrics as Python floats and
    its covariances, its checks are the row's ``BandCheck``s and its
    objective is the scan's.  At knob 0 the metrics are bit-identical to
    ``compare_to_reference``; at other knobs they agree to 1e-12 relative.
    """
    base = replace(imperfections, extra_in_loop_loss=0.0)
    objective, rows = _knob_scan(base, squeezing_db, DEFAULT_KNOB_GRID)
    best = int(np.argmin(objective))
    return _comparison(rows, best, float(DEFAULT_KNOB_GRID[best]), True, objective[best])


def _comparison(rows: dict, i: int, knob: float, fitted: bool, objective) -> TableComparison:
    """The ``TableComparison`` at knob index ``i`` of ``_knob_scan`` rows, in Python floats."""
    reports = {
        gain: QndReport(
            params,
            {
                name: SectorMetrics(**{key: float(values[i]) for key, values in vars(m).items()})
                for name, m in sectors.items()
            },
            cov[i],
        )
        for gain, (params, sectors, cov) in rows.items()
    }
    checks = [check for gain, report in reports.items() for check in _banded(gain, report.sectors)]
    p = reports[1.0].params  # the lossless row builds no gate; its T_sum, x is banded first
    qmap = finite_squeezing_map(p.R, p.r_a, p.r_b)
    lossless = next(_banded(1.0, _sector_metrics(qmap, moments_from_map(qmap))))
    return TableComparison(knob, fitted, reports, checks, float(objective), lossless)
