"""Monte Carlo trajectories versus deterministic covariance propagation.

Every homodyne-feedforward stage can be executed two ways: as the
outcome-averaged Gaussian map (deterministic) or shot by shot with sampled
outcomes.  This script runs seeded ensembles at increasing size and shows
the empirical moments converging onto the deterministic prediction at the
expected 1/sqrt(n) rate, bit-reproducibly.
"""

import numpy as np

from qndsim import (
    SHOTS_PER_BLOCK,
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    compile_trajectory,
    displace,
    run_covariance,
    run_ensemble,
    run_trajectory,
    trajectory_generator,
    vacuum_state,
    z_score_report,
)

circuit = build_qnd_gate(GateParams.from_gain(1.0), ImperfectionModel())
state = displace(vacuum_state(2), 0, 3.0, 0.0)
target = run_covariance(circuit, state)

print("deterministic prediction:")
print("  mean:", np.array2string(target.mean, precision=4))
print("  Var: ", np.array2string(np.diag(target.cov), precision=4))

print("\none shot, seeded:")
shot, log = run_trajectory(circuit, state, trajectory_generator(2024, 0))
print(f"  homodyne readouts: {log[0]:+.4f}, {log[1]:+.4f}")
print("  conditional mean:", np.array2string(shot.mean, precision=4))
# A single shot lands wherever its homodyne outcomes push it; only the
# ensemble reproduces the deterministic moments.

print("\nconvergence with ensemble size (master seed 2024):")
print(f"{'n':>8} {'max |z|':>9} {'median SE(mean)':>16}")
for n in (100, 1000, 10000, 100000):
    result = run_ensemble(circuit, state, n, master_seed=2024)
    z = z_score_report(result, target.mean, target.cov)
    print(f"{n:>8} {z.max_z:>9.3f} {np.median(result.se_mean):>16.6f}")

# Standard errors fall by sqrt(10) per decade while the standardized
# deviations stay order one: the two execution routes agree.

print("\nreproducibility: same seed, same aggregate")
a = run_ensemble(circuit, state, 5000, master_seed=99)
b = run_ensemble(circuit, state, 5000, master_seed=99)
print(f"  bit-identical means: {np.array_equal(a.mean, b.mean)}")
print(f"  bit-identical covs:  {np.array_equal(a.cov, b.cov)}")

print("\ntrajectory 17 of the ensemble equals a standalone run on its block's substream:")
# shot i draws row i % SHOTS_PER_BLOCK of block i // SHOTS_PER_BLOCK, so the
# standalone run skips the draws of the 17 shots before it in block 0
rng = trajectory_generator(99, 17 // SHOTS_PER_BLOCK)
rng.standard_normal((17 % SHOTS_PER_BLOCK) * compile_trajectory(circuit, state).draws_per_shot)
solo, solo_log = run_trajectory(circuit, state, rng)
batch = run_ensemble(circuit, state, 20, master_seed=99, keep_outcomes=True)
print(f"  readouts equal: {np.array_equal(batch.outcomes[17], solo_log)}")
