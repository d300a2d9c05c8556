"""Gaussian-optics simulation of a QND sum gate built from offline squeezed
ancillas, beam splitters, homodyne detection and feedforward.

The package propagates Gaussian states exactly (means and covariances in
shot-noise units), checks the compiled optical circuit against the analytic
input-output relations, and evaluates the standard QND figures of merit:
transfer coefficients, conditional variance and the two-mode entanglement
witness.

The package namespace holds the classes and the functions that the README's
library tour and the demos read through it; every other function is read at
its module (``qndsim.metrics.duan_simon``, ``qndsim.scenario.load_scenario``).
"""

from .gaussian import GaussianState, displace, vacuum_state, variance_to_db
from .quadexpr import (
    QuadratureMap,
    commutator_check,
    finite_squeezing_map,
    ideal_qnd_map,
    max_coefficient_difference,
)
from .circuit import (
    AncillaInjection,
    BeamSplitter,
    Circuit,
    CircuitConstructionError,
    GateParams,
    HomodyneFeedforward,
    ImperfectionModel,
    Loss,
    build_qnd_gate,
    circuit_quadrature_map,
    run_covariance,
    run_trajectory,
)
from .metrics import (
    DuanResult,
    QndReport,
    SectorMetrics,
    TableComparison,
    evaluate_gate,
    reference_sweeps,
    vacuum_noise_report,
)
from .ensemble import (
    EnsembleResult,
    ZScoreReport,
    run_ensemble,
    trajectory_generator,
    z_score_report,
)
from .scenario import OutputSpec, RunSpec, ScenarioConfig

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
