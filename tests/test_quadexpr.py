"""Tests for the analytic input-output relations and moment computation."""

import math

import numpy as np
import pytest

from qndsim.quadexpr import (
    OUTPUT_ORDER,
    QuadratureMap,
    commutator_check,
    finite_squeezing_map,
    ideal_qnd_map,
    max_coefficient_difference,
    moments_from_map,
)

R_GOLDEN = 0.3819660112501051  # gain exactly 1
R_GRID = [0.05, 0.1, 0.25, R_GOLDEN, 0.5, 0.75, 0.9, 1.0]
MINUS_5_DB_R = 0.25 * np.log(10.0)  # e**(-2r) = 10**-0.5


def coefficient(qmap, output, label):
    """Coefficient of ``label`` in ``output``; zero for a label the map lacks."""
    if label not in qmap.columns:
        return 0.0
    return qmap.matrix[OUTPUT_ORDER.index(output), qmap.columns.index(label)]


class TestIdealMap:
    def test_zero_gain_identity(self):
        qmap = ideal_qnd_map(0.0)
        for key, label in (
            ("x1_out", "x1_in"),
            ("p1_out", "p1_in"),
            ("x2_out", "x2_in"),
            ("p2_out", "p2_in"),
        ):
            row = qmap.matrix[OUTPUT_ORDER.index(key)]
            assert dict((c, v) for c, v in zip(qmap.columns, row) if v) == {label: 1.0}

    def test_unit_gain_coupling(self):
        assert coefficient(ideal_qnd_map(1.0), "x2_out", "x1_in") == 1.0

    def test_gain_15_back_action(self):
        assert coefficient(ideal_qnd_map(1.5), "p1_out", "p2_in") == -1.5

    @pytest.mark.parametrize("gain", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_gain(self, gain):
        with pytest.raises(ValueError, match=f"gain G = {gain} must be finite and non-negative"):
            ideal_qnd_map(gain)


class TestFiniteSqueezingMap:
    def test_r_one_is_identity_without_ancillas(self):
        qmap = finite_squeezing_map(1.0, 0.5, 0.5)
        assert max_coefficient_difference(qmap, ideal_qnd_map(0.0)) == 0.0
        ancillas = [j for j, l in enumerate(qmap.columns) if "A0" in l or "B0" in l]
        assert not np.any(qmap.matrix[:, ancillas])

    def test_quarter_reflectivity_coefficients(self):
        qmap = finite_squeezing_map(0.25, 0.0, 0.0)
        assert coefficient(qmap, "x2_out", "x1_in") == pytest.approx(1.5, abs=1e-12)
        assert coefficient(qmap, "x1_out", "xA0") == pytest.approx(
            -np.sqrt(0.75 / 1.25), abs=1e-12
        )

    def test_infinite_squeezing_limit(self):
        r = 69.0  # e**-r ~ 1e-30
        qmap = finite_squeezing_map(R_GOLDEN, r, r)
        assert max_coefficient_difference(qmap, ideal_qnd_map(1.0)) < 1e-12

    @pytest.mark.parametrize("R", [0.0, -0.2, 1.0001])
    def test_rejects_out_of_range(self, R):
        with pytest.raises(ValueError):
            finite_squeezing_map(R, 0.0, 0.0)

    @pytest.mark.parametrize("R", R_GRID)
    def test_gain_identity(self, R):
        qmap = finite_squeezing_map(R, 0.3, 0.7)
        expected = 1.0 / np.sqrt(R) - np.sqrt(R)
        assert coefficient(qmap, "x2_out", "x1_in") == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("R", [r for r in R_GRID if r < 1.0])
    def test_noise_asymmetry(self, R):
        # probe-output ancilla noise is sqrt(R) times the signal-output noise
        qmap = finite_squeezing_map(R, 0.4, 0.4)
        signal = abs(coefficient(qmap, "x1_out", "xA0"))
        probe = abs(coefficient(qmap, "x2_out", "xA0"))
        assert probe == pytest.approx(np.sqrt(R) * signal, abs=1e-12)
        assert abs(coefficient(qmap, "p1_out", "pB0")) == pytest.approx(
            np.sqrt(R) * abs(coefficient(qmap, "p2_out", "pB0")), abs=1e-12
        )

    @pytest.mark.parametrize("R", R_GRID)
    def test_sector_mirror_symmetry(self, R):
        # x and p sectors are images under (1<->2, x<->p, A<->B)
        qmap = finite_squeezing_map(R, 0.33, 0.33)
        assert coefficient(qmap, "p2_out", "pB0") == pytest.approx(
            coefficient(qmap, "x1_out", "xA0") * -1.0, abs=1e-12
        )
        assert coefficient(qmap, "p1_out", "p2_in") == pytest.approx(
            -coefficient(qmap, "x2_out", "x1_in"), abs=1e-12
        )


class TestMoments:
    def test_ideal_unit_gain_probe_variance(self):
        cov = moments_from_map(ideal_qnd_map(1.0))
        assert cov[2, 2] == pytest.approx(2.0, abs=1e-12)  # +3.01 dB

    def test_finite_squeezing_signal_variance(self):
        qmap = finite_squeezing_map(R_GOLDEN, MINUS_5_DB_R, MINUS_5_DB_R)
        cov = moments_from_map(qmap)
        assert cov[0, 0] == pytest.approx(1.1414213562373095, abs=1e-9)

    def test_vacuum_ancilla_probe_variance(self):
        qmap = finite_squeezing_map(R_GOLDEN, 0.0, 0.0)
        cov = moments_from_map(qmap)
        assert cov[2, 2] == pytest.approx(2.1708203932499368, abs=1e-9)


class TestCommutatorCheck:
    def test_ideal_map_passes(self):
        for gain in (0.0, 1.0, 1.5, 7.3):
            assert commutator_check(ideal_qnd_map(gain)).passed

    def test_finite_squeezing_passes(self):
        report = commutator_check(finite_squeezing_map(0.25, 0.5, 0.5))
        assert report.passed
        assert report.worst_defect < 1e-12

    def test_tampered_map_fails(self):
        qmap = finite_squeezing_map(0.25, 0.5, 0.5)
        matrix = qmap.matrix.copy()
        # break the x-side gain while the p side keeps 1.5
        matrix[OUTPUT_ORDER.index("x2_out"), qmap.columns.index("x1_in")] = 1.6
        bad = QuadratureMap(qmap.columns, matrix)
        assert not commutator_check(bad).passed

    def test_commutator_values(self):
        assert commutator_check(finite_squeezing_map(0.5, 0.2, 0.9)).worst_defect < 1e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_fails(self, value):
        # an inf coefficient gives NaN where it meets a zero; Python's
        # max(0.0, nan) is 0.0, which once let such a map pass
        qmap = finite_squeezing_map(0.25, 0.5, 0.5)
        matrix = qmap.matrix.copy()
        matrix[OUTPUT_ORDER.index("x2_out"), qmap.columns.index("xA0")] = value
        with np.errstate(invalid="ignore"):
            report = commutator_check(QuadratureMap(qmap.columns, matrix))
        assert not report.passed
        assert math.isnan(report.worst_defect)


class TestPrettyPrinter:
    def test_one_line_per_output(self):
        text = finite_squeezing_map(0.25, 0.1, 0.1).pretty()
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("x1_out = ")
        assert "xA0" in lines[0]

    def test_missing_output_rejected(self):
        with pytest.raises(ValueError):
            QuadratureMap(("x1_in",), [[1.0]])


class TestQuadratureMap:
    def test_repeated_columns_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            QuadratureMap(("x1_in", "x1_in"), np.zeros((4, 2)))

    def test_repeated_label_raises_on_every_construction(self):
        columns = ("xA0", "x1_in", "pA0", "x1_in", "xA0")
        message = f"quadrature map has repeated columns ['x1_in', 'xA0']: {columns}"
        for _ in range(3):
            with pytest.raises(ValueError) as raised:
                QuadratureMap(columns, np.zeros((4, 5)))
            assert str(raised.value) == message
        assert QuadratureMap(columns[:3], np.zeros((4, 3))).columns == columns[:3]

    def test_difference_counts_missing_columns_as_zero(self):
        a = ideal_qnd_map(1.5)
        ancilla = [[0.0], [0.0], [-0.3], [0.0]]
        b = QuadratureMap(a.columns + ("xA0",), np.hstack([a.matrix, ancilla]))
        assert max_coefficient_difference(a, b) == 0.3
        assert max_coefficient_difference(b, a) == 0.3
        # the same labels in another column order are the same map
        reordered = QuadratureMap(b.columns[::-1], b.matrix[:, ::-1])
        assert max_coefficient_difference(b, reordered) == 0.0
        # a map without columns is zero everywhere
        empty = QuadratureMap((), np.zeros((4, 0)))
        assert max_coefficient_difference(a, empty) == max_coefficient_difference(empty, a) == 1.5

    @pytest.mark.parametrize("R", R_GRID)
    def test_moments_equal_written_out_sums(self, R):
        qmap = finite_squeezing_map(R, 0.3, -0.2)
        cov = moments_from_map(qmap)
        assert cov.shape == (4, 4)
        rows = qmap.matrix.tolist()
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                # bit for bit: the reference curves depend on this summation order
                total = 0.0
                for a, b in zip(ri, rj):
                    total += a * b
                assert cov[i, j] == total
