"""Monte Carlo trajectories versus deterministic covariance propagation.

Every homodyne-feedforward stage can be executed two ways: as the
outcome-averaged Gaussian map (deterministic) or shot by shot with sampled
outcomes.  An ensemble draws its shots' sample mean and covariance from
their exact law.  This script runs seeded ensembles at increasing size and
shows the empirical moments converging onto the deterministic prediction at
the expected 1/sqrt(n) rate, bit-reproducibly, and each standard error
matching the spread of its figure over seeds.
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
# deviations stay order one: the two execution routes agree.  One seed gives
# every n the same standard normals, so its max |z| barely moves with n.

print("\nreproducibility: same seed, same shot")
first, again = (run_trajectory(circuit, state, trajectory_generator(99, 0)) for _ in range(2))
print(f"  bit-identical readouts: {np.array_equal(first[1], again[1])}")
print(f"  bit-identical means:    {np.array_equal(first[0].mean, again[0].mean)}")

print("\neach standard error against the spread over 50 seeds (n = 1000):")
# an ensemble draws its shots' sample mean and covariance from their exact
# law, so over seeds each printed figure scatters by its standard error
results = [run_ensemble(circuit, state, 1000, master_seed=seed) for seed in range(50)]
labels = [f"mean[{q}]" for q in ("x1", "p1", "x2", "p2")]
labels += [f"cov[{q},{q}]" for q in ("x1", "p1", "x2", "p2")]
figures = np.array([np.concatenate([r.mean, np.diag(r.cov)]) for r in results])
errors = np.array([np.concatenate([r.se_mean, np.diag(r.se_cov)]) for r in results])
spread, se = figures.std(axis=0, ddof=1), errors.mean(axis=0)
print(f"{'figure':>12} {'mean SE':>10} {'spread':>10}")
for label, error, scatter in zip(labels, se, spread):
    print(f"{label:>12} {error:>10.5f} {scatter:>10.5f}")
within = bool(np.all(np.abs(se / spread - 1.0) < 0.3))
print(f"every SE within 30% of its spread: {within}")
