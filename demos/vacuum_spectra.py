"""Vacuum-input noise spectra of the sum gate.

With both inputs in vacuum, the gate writes the signal variables onto the
probe variables, so the probe outputs (x2, p1) sit above shot noise while
the signal outputs (x1, p2) stay at 0 dB up to the finite-squeezing penalty.
This script prints the four curve families: the 0 dB input reference, the
infinite-squeezing prediction, the apparatus as configured, and the lossless
relations with vacuum (0 dB) ancillas, which no loss budget changes.
"""

from qndsim import GateParams, ImperfectionModel, build_qnd_gate, vacuum_noise_report

params = GateParams.from_gain(1.0)  # R = 0.381966, -5 dB ancillas

print("=== lossless apparatus ===")
circuit = build_qnd_gate(params, ImperfectionModel.ideal())
rows = vacuum_noise_report(circuit, params)
quads = ("x1", "p1", "x2", "p2")
print(f"{'family':>26} " + " ".join(f"{q:>9}" for q in quads) + "   [dB]")
for family, (_, levels) in rows.items():
    print(f"{family:>26} " + " ".join(f"{d:>9.4f}" for d in levels))

# The probe quadratures carry 1 + G^2 = 2 units of noise (+3.01 dB) in the
# ideal limit; the -5 dB ancillas add 10*log10(2.054/2) = 0.12 dB on top of
# that and 0.57 dB on the signal quadratures.

print("\n=== with the measured loss budget ===")
circuit = build_qnd_gate(params, ImperfectionModel())
rows = vacuum_noise_report(circuit, params)
for family, (_, levels) in rows.items():
    print(f"{family:>26} " + " ".join(f"{d:>9.4f}" for d in levels))

# Loss pulls every variance toward shot noise, so the imperfect apparatus
# shows slightly *less* output noise than the lossless theory -- the price
# is paid in the transfer coefficients, not here.

print("\n=== squeezing dependence of the signal-output penalty ===")
for db in (0.0, -3.0, -5.0, -10.0, -60.0):
    p = GateParams.from_gain(1.0, squeezing_db_a=db, squeezing_db_b=db)
    c = build_qnd_gate(p, ImperfectionModel.ideal())
    variances, levels = vacuum_noise_report(c, p)["configured"]  # (x1, p1, x2, p2)
    print(
        f"ancillas {db:>6.1f} dB -> Var(x1) = {variances[0]:.5f}"
        f" ({levels[0]:+.3f} dB), Var(x2) = {variances[2]:.5f}"
    )
