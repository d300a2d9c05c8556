"""Physicality checks of Gaussian states, shared by the tests.

A covariance ``V`` in shot-noise units is physical when it is symmetric and
``V + i*Omega >= 0`` (``gaussian.omega``).  ``run_covariance_checked`` runs a
circuit and checks its input and the state after every element, each read
as the output of the prefix circuit ``elements[:k]``.  ``symplectic_defect``
reads a linear state map's matrix off its outputs and measures how far it is
from preserving ``Omega``.
"""

import numpy as np

from qndsim.circuit import Circuit, run_covariance
from qndsim.gaussian import GaussianState, omega

PHYSICALITY_TOL = 1e-9


def min_uncertainty_eigenvalue(state: GaussianState) -> float:
    """Smallest eigenvalue of the Hermitian matrix ``cov + i*Omega``.

    Non-negative (up to numerical tolerance) for physical states; exactly
    zero for pure states such as vacuum.
    """
    herm = state.cov + 1j * omega(state.n_modes)
    return float(np.linalg.eigvalsh(herm)[0].real)


def assert_physical(state: GaussianState, tol: float = PHYSICALITY_TOL) -> None:
    asym = np.abs(state.cov - state.cov.T).max()
    scale = max(1.0, np.abs(state.cov).max())
    if asym > 1e-12 * scale:
        raise ValueError(f"covariance not symmetric (max asymmetry {asym:.3e})")
    ev = min_uncertainty_eigenvalue(state)
    if ev < -tol:
        raise ValueError(f"covariance violates cov + i*Omega >= 0 (min eig {ev:.3e})")


def run_covariance_checked(circuit: Circuit, state: GaussianState) -> GaussianState:
    """``run_covariance``, with the input and the state after every element checked by ``assert_physical``."""
    for k in range(len(circuit.elements)):
        assert_physical(run_covariance(Circuit(circuit.elements[:k], circuit.n_input_modes), state))
    out = run_covariance(circuit, state)
    assert_physical(out)
    return out


def symplectic_defect(operation, n_modes: int) -> float:
    """``max |S Omega S^T - Omega|`` of the linear state map ``S`` that ``operation`` applies.

    Column k of ``S`` is the output mean of a vacuum displaced by the k-th unit vector.
    """
    unit = np.eye(2 * n_modes)
    s = np.column_stack([operation(GaussianState(n_modes, e, unit)).mean for e in unit])
    om = omega(n_modes)
    return float(np.abs(s @ om @ s.T - om).max())
