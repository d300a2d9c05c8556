"""The benchmark's own entry point runs every workload to a correct end.

``tests/test_recorded_pools.py`` checks the pool points in-process; this test
starts ``perfbench/run.py`` as the benchmark does, so its set-up probes, its
warm-up op and the trajectories workload run too.  A non-zero exit means no
metric is measured at all.  The traced mode runs on ``trajectories`` only: a
traced ``sweep`` run can still fail on the race between the speed sampler and
the tracer's root span that ROADMAP item 2 describes.
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


def test_traced_trajectories_run_propagates_no_shot():
    # the traced mode wraps the package's functions from outside; an
    # ensemble aggregates its draws' moments, so no shot's means are
    # propagated
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectories", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["metrics"]["circuit.TrajectoryProgram.run_means.calls"]["value"] == 0
