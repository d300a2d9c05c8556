"""The benchmark's own entry point runs every workload to a correct end.

``tests/test_recorded_pools.py`` checks the pool points in-process; this test
starts ``perfbench/run.py`` as the benchmark does, so its set-up probes, its
warm-up op and the trajectories workload run too.  A non-zero exit means no
metric is measured at all.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_and_is_correct():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
