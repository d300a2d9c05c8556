"""Monte Carlo trajectories versus deterministic covariance propagation.

Every homodyne-feedforward stage can be executed two ways: as the
outcome-averaged Gaussian map (deterministic) or shot by shot with sampled
outcomes.  This script runs seeded ensembles at increasing size and shows
the empirical moments converging onto the deterministic prediction at the
expected 1/sqrt(n) rate, bit-reproducibly.
"""

import numpy as np

from qndsim import (
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
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

print("\nreproducibility: same seed, same shot")
first, again = (run_trajectory(circuit, state, trajectory_generator(99, 0)) for _ in range(2))
print(f"  bit-identical readouts: {np.array_equal(first[1], again[1])}")
print(f"  bit-identical means:    {np.array_equal(first[0].mean, again[0].mean)}")

print("\nan ensemble of 20 shots is the statistics of 20 standalone runs:")
# shot i draws row i % SHOTS_PER_BLOCK of block i // SHOTS_PER_BLOCK, so the
# 20 shots are block 0's first 20, run in order on its substream
rng = trajectory_generator(99, 0)
shots = np.array([run_trajectory(circuit, state, rng)[0].mean for _ in range(20)])
batch = run_ensemble(circuit, state, 20, master_seed=99)
same = [
    np.allclose(got, want, rtol=0.0, atol=1e-12)
    for got, want in ((batch.mean, shots.mean(axis=0)), (batch.mean_scatter, np.cov(shots.T)))
]
print(f"  shots' mean equals the ensemble mean:             {same[0]}")
print(f"  shots' covariance equals the ensemble's scatter: {same[1]}")
