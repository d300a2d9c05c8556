"""Conditional variance sweeps and the two-mode entanglement witness.

Rescaling one output by a gain g and combining it with the other maps out a
parabola in g; its minimum is the conditional variance V_SP.  Plotted
against the witness line 4|g|, a simultaneous dip of both sectors below the
line certifies entanglement of the two output modes.
"""

import numpy as np

from qndsim import (
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    evaluate_gate,
    reference_sweeps,
)

params = GateParams.from_gain(1.0)
grid = np.round(np.arange(0.0, 1.2001, 0.1), 10)

print("reference parabolas Var(x1 - g*x2), lossless:")
refs = reference_sweeps(params, grid)["x"]
print(f"{'g':>5} {'ideal':>9} {'-5 dB':>9} {'vacuum':>9} {'2|g| line':>10}")
for g, a, b, c, w in zip(grid, refs.ideal, refs.finite_squeezing,
                         refs.vacuum_ancilla, refs.witness_bound):
    print(f"{g:>5.2f} {a:>9.4f} {b:>9.4f} {c:>9.4f} {w:>10.4f}")

# The ideal curve dips to 0.5 at g = 0.5; vacuum ancillas never go below 1.

for db, label in ((-5.0, "squeezed (-5 dB)"), (0.0, "vacuum ancillas")):
    p = GateParams.from_gain(1.0, squeezing_db_a=db, squeezing_db_b=db)
    report = evaluate_gate(build_qnd_gate(p, ImperfectionModel.ideal()), p)
    m, witness = report.sectors["x"], report.duan
    print(f"\n{label}:")
    print(f"  V_SP = {m.v_conditional:.5f} at g_opt = {m.g_opt:.5f} (both sectors, by symmetry)")
    print(
        f"  witness at g_opt: {witness.combined_sum:.4f} vs 4|g| = {witness.bound:.4f}"
        f" -> {'entangled' if witness.entangled else 'not certified'}"
    )
    print(
        f"  scan over g in [-2, 2]: best margin {witness.scan_best_margin:+.4f}"
        f" at g = {witness.scan_best_g:.3f}"
        f" -> {'entangled' if witness.scan_entangled else 'no g certifies entanglement'}"
    )

# With squeezed ancillas both combined variances drop below the line at the
# same g, so the two coherent-state inputs leave the gate entangled; without
# squeezing the gate is a passive linear-optics transformation and cannot
# entangle them at any rescaling gain.

print("\nwith the measured loss budget the verdict survives:")
report = evaluate_gate(build_qnd_gate(params, ImperfectionModel()), params)
witness = report.duan
print(
    f"  V_SP = {report.sectors['x'].v_conditional:.5f}, witness {witness.combined_sum:.4f} < {witness.bound:.4f}"
    f" -> entangled = {witness.entangled}"
)
