"""The project's pytest settings report a failing property test and go on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''


def test_failing_property_test_is_reported_and_later_tests_run(tmp_path):
    # under ``filterwarnings = ["error"]`` a warning raised in hypothesis's
    # report hook must not end the session with an INTERNALERROR
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
    assert "n=5," in run.stdout
