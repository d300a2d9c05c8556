"""The Gaussian toolbox behind the gate, piece by piece.

Walks through the primitive operations: squeezed-state preparation, loss,
homodyne conditioning, and a single measurement-induced squeezing stage --
the building block that the gate uses once per interferometer arm.  Each
state is a circuit's output: ``run_covariance`` runs a one-mode vacuum
through ``AncillaInjection``, ``Loss`` and ``BeamSplitter`` elements, and the
demo reads the appended modes by index.  Every measurement runs as a
``HomodyneFeedforward`` circuit element, the same conditioning the gate
executes; a pure measurement is one with gain 0.
"""

import numpy as np

from qndsim import (
    AncillaInjection,
    BeamSplitter,
    Circuit,
    GaussianState,
    HomodyneFeedforward,
    Loss,
    displace,
    run_covariance,
    run_trajectory,
    vacuum_state,
    variance_to_db,
)

rng = np.random.default_rng(7)


def prepare(*elements) -> GaussianState:
    """The modes that ``elements`` append to a one-mode vacuum, mode 0 dropped."""
    out = run_covariance(Circuit(elements, n_input_modes=1), vacuum_state(1))
    return GaussianState(out.n_modes - 1, out.mean[2:], out.cov[2:, 2:])


print("== squeezed vacuum ==")
squeezer = AncillaInjection(0.5756462732485114, 0.0, "s")  # -5 dB in x, appended as mode 1
state = prepare(squeezer)
print(f"Var(x) = {state.cov[0, 0]:.5f} ({variance_to_db(state.cov[0, 0]):+.2f} dB)")
print(f"Var(p) = {state.cov[1, 1]:.5f} (pure state: product of variances = "
      f"{state.cov[0, 0] * state.cov[1, 1]:.5f})")

print("\n== loss degrades squeezing ==")
lossy = prepare(squeezer, Loss(1, 0.93))
print(f"after 7% loss: Var(x) = {lossy.cov[0, 0]:.5f} "
      f"({variance_to_db(lossy.cov[0, 0]):+.2f} dB)")

print("\n== homodyne conditioning on an entangled pair ==")
pair = prepare(
    AncillaInjection(0.5756, 0.0, "a"),
    AncillaInjection(0.5756, np.pi / 2, "b"),
    BeamSplitter(1, 2, 0.5),
)
print(f"joint Var(x of kept mode) before measuring: {pair.cov[2, 2]:.5f}")
# measure x of mode 0 and feed nothing forward
measure = Circuit([HomodyneFeedforward(0, 0.0, 1, "x", 0.0)])
kept, readouts = run_trajectory(measure, pair, rng)
print(f"measured x = {readouts[0]:+.4f}; conditional Var(x) = "
      f"{kept.cov[0, 0]:.5f} (< 1: quadratures were correlated)")

print("\n== one measurement-induced squeezing stage ==")
# Squeeze an arbitrary input in x by sqrt(R) without any in-line nonlinearity:
# mix with an x-squeezed ancilla, homodyne the p quadrature of one port and
# displace the other port's p by a scaled copy of the outcome.  This is the
# gate's arm A acting on one input mode.
R = 0.25
gain = -np.sqrt((1.0 - R) / R)
signal = displace(vacuum_state(1), 0, 2.0, 1.0)
stage = Circuit(
    [
        AncillaInjection(0.5756462732485114, 0.0, "A"),  # appended as mode 1
        BeamSplitter(1, 0, R, signs=(1, -1, 1, 1)),
        HomodyneFeedforward(0, np.pi / 2, 1, "p", gain),
    ],
    n_input_modes=1,
)
kept, _ = run_trajectory(stage, signal, rng)

print(f"input:  mean = (2.000, 1.000), Var(x) = 1.000")
print(f"output: mean = ({kept.mean[0]:+.4f}, {kept.mean[1]:+.4f}),"
      f" Var(x) = {kept.cov[0, 0]:.5f}")
print(f"expected x gain -sqrt(R) = {-np.sqrt(R):.3f}, p gain 1/sqrt(R) = {1/np.sqrt(R):.3f}")
print(f"Var(x) target R + (1-R)*10^-0.5 = {R + (1 - R) * 10**-0.5:.5f}")
# The x quadrature shrank by sqrt(R) (plus the finite-squeezing penalty) and
# p grew by 1/sqrt(R): a tunable squeezer controlled entirely by a passive
# beam-splitter ratio.
