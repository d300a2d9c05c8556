"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/series.py --out runs --seeds 1-10 --workloads sweep calibrate
    python3 perfbench/series.py --out runs --side parent=../parent --side change=. --seeds 1-10

Each side is a checkout; its runs go to ``OUT/<side>.jsonl``, one
``{"workload", "seed", "trace", "result"}`` object per line, ready for
``perfbench/compare.py``.  With two sides, the side that runs first
alternates from seed to seed.  At the end the command prints, per side,
workload and metric, the median, the quartiles and the quartile spread as a
share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    # run as a script: import siblings as the perfbench package, never as top-level
    # modules (perfbench/trace.py would shadow the standard library's trace)
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import ROOT  # noqa: E402
from perfbench.compare import load_runs, quartiles  # noqa: E402

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    record = {"workload": workload, "seed": seed, "trace": trace}
    if done.returncode != 0:
        return {**record, "error": done.stderr.strip().splitlines()[-3:]}
    return {**record, "result": json.loads(done.stdout.strip().splitlines()[-1])}


def spread_report(runs: list, bounds: dict) -> str:
    lines = [f"{'workload':<13} {'metric':<34} {'median':>12} {'Q1':>12} {'Q3':>12} {'IQR/med':>8} {'bound':>6}"]
    for workload in sorted({r["workload"] for r in runs}):
        results = [r["result"] for r in runs if r["workload"] == workload]
        for name in results[0]["metrics"]:
            values = [res["metrics"][name]["value"] for res in results if name in res["metrics"]]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            lines.append(
                f"{workload:<13} {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f} "
                f"{'' if bound is None else f'{bound:g}':>6}"
            )
        failed = sum(res["failed"] for res in results)
        lines.append(f"{workload:<13} {len(results)} runs, {failed} failed ops")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the <side>.jsonl files")
    parser.add_argument("--side", action="append", help="NAME=CHECKOUT; default: this checkout")
    parser.add_argument("--workloads", nargs="+", default=["sweep", "calibrate", "trajectories"])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    sides = [s.split("=", 1) for s in (args.side or [f"this={ROOT}"])]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.jsonl" for name, _ in sides}

    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = sides if k % 2 == 0 else sides[::-1]
        for workload in args.workloads:
            for name, checkout in order:
                record = run_once(Path(checkout).resolve(), workload, seed, seconds, args.trace)
                with open(paths[name], "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                status = record.get("error") or f"failed {record['result']['failed']}"
                print(f"{name} {workload} seed {seed}: {status}", flush=True)

    for name, _ in sides:
        print(f"\n{name}: {paths[name]}")
        print(spread_report(load_runs(paths[name]), bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
