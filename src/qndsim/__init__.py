"""Gaussian-optics simulation of a QND sum gate built from offline squeezed
ancillas, beam splitters, homodyne detection and feedforward.

The package propagates Gaussian states exactly (means and covariances in
shot-noise units), checks the compiled optical circuit against the analytic
input-output relations, and evaluates the standard QND figures of merit:
transfer coefficients, conditional variance and the two-mode entanglement
witness.
"""

from .gaussian import (
    GaussianState,
    displace,
    omega,
    squeeze_parameter_from_db,
    vacuum_state,
    variance_to_db,
)
from .quadexpr import (
    QuadratureMap,
    commutator_check,
    finite_squeezing_map,
    ideal_qnd_map,
    max_coefficient_difference,
    moments_from_map,
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
    compile_trajectory,
    gain_from_reflectivity,
    reflectivity_from_gain,
    run_covariance,
    run_trajectory,
)
from .metrics import (
    DuanResult,
    QndReport,
    SectorMetrics,
    TableComparison,
    compare_to_reference,
    conditional_variance,
    cv_sweep,
    duan_simon,
    duan_sum,
    evaluate_gate,
    fit_extra_in_loop_loss,
    reference_sweeps,
    transfer_coefficients,
    vacuum_noise_report,
)
from .ensemble import (
    EnsembleResult,
    ZScoreReport,
    run_ensemble,
    trajectory_generator,
    z_score_report,
)
from .scenario import OutputSpec, RunSpec, ScenarioConfig, load_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
