"""Smoke test: every demo script runs to completion and prints its tables."""

from pathlib import Path
import runpy

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_all_demos_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_trajectory_demo_reproduces_a_shot(capsys):
    runpy.run_path(str(DEMO_DIR / "trajectory_convergence.py"), run_name="__main__")
    assert "readouts equal: True" in capsys.readouterr().out
