"""Every demo script runs to completion and prints the text it always printed."""

from pathlib import Path
import hashlib
import runpy

import pytest

from qndsim import circuit

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))

# sha256 of each demo's stdout; the same at 1 and 2 BLAS threads
STDOUT_SHA256 = {
    "amplitude_routing": "56e0d3688f37a4dd73367b7766ba0b12939e4d40d3b8065427dd29e2586a902a",
    "conditional_variance": "52be99c6e995f177745049f8f662c75f02f8b8cad1cd744a884ccbd80e12fd58",
    "heisenberg_relations": "d1a24bfceb843943c51f7e015fbc160a76771d4024a95708207d337c06412a91",
    "measurement_induced_squeezing": "c5c6e344a27529c318d8de341383765efc6deac2220ab0851c86def679e7a849",
    "trajectory_convergence": "810cd1b7be7065a0c12d2e02de36ddf8d93a1d5b56b628d58a699e2c12a21b3a",
    "vacuum_spectra": "895f9cea3c4abf521bf613b14455f9eac099f0435db71def665386c59b228bc4",
}


def test_all_demos_collected():
    assert len(DEMOS) == 6
    assert sorted(p.stem for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[path.stem]


def test_trajectory_demo_errors_match_the_spread_over_seeds(capsys):
    runpy.run_path(str(DEMO_DIR / "trajectory_convergence.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "bit-identical means:    True" in out
    assert "every SE within 30% of its spread: True" in out


def test_squeezing_stage_is_the_gate_arm(capsys):
    # the demo says its hand-built stage is the gate's arm A on one input mode
    demo = runpy.run_path(str(DEMO_DIR / "measurement_induced_squeezing.py"), run_name="__main__")
    capsys.readouterr()
    stage, R = demo["stage"], demo["R"]
    assert R == 0.25 and stage.n_input_modes == 1
    r = stage.elements[0].r  # the demo's -5 dB ancilla
    arm = circuit._squeezer_elements("x", 1, "A", r, R, circuit.ImperfectionModel.ideal())
    assert list(stage.elements) == arm
