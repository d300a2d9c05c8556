"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]

Each file holds one run per line as ``perfbench/series.py`` writes them:
``{"workload", "seed", "trace", "result"}`` with ``result`` the run's last
output line.  Runs of the two sides pair up by workload and seed.  For every
(metric, workload) the command prints each side's median and quartiles, the
share of pairs the change wins and a verdict:

* ``improved``: at least 10 pairs, the change wins at least nine tenths of
  them (ties count for neither), the medians differ by more than the
  parent's quartile spread, and no more ops failed than at the parent;
* ``regressed``: the parent's spread is within the metric's bound and the
  change's median is worse than the parent's by more than the bound;
* ``unresolved``: the parent's spread is wider than the bound, unless every
  change run reads better than every parent run; also any metric without a
  bound that did not improve;
* ``no worse``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list,
    change: list,
    pairs: list,
    better: str,
    bound: float | None,
    parent_failed: int = 0,
    change_failed: int = 0,
) -> dict:
    """Judge one (metric, workload) by the rule in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    result = {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "wins": wins,
        "pairs": len(pairs),
    }
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > spread
        and change_failed <= parent_failed
    ):
        return {**result, "verdict": "improved"}
    if bound is None:
        return {**result, "verdict": "unresolved"}
    allowed = bound * abs(p_med)
    if spread > allowed:
        every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return {**result, "verdict": "no worse" if every_run_better else "unresolved"}
    return {**result, "verdict": "regressed" if -gain > allowed else "no worse"}


def load_runs(path) -> list:
    runs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                if "result" in run:
                    runs.append(run)
    return runs


def metric_specs(benchmark_path) -> dict:
    """name -> (better, bound or None) from BENCHMARK.json."""
    doc = json.loads(Path(benchmark_path).read_text(encoding="utf-8"))
    specs = {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}
    specs.update({m["name"]: (m["better"], None) for m in doc["per_layer"]})
    return specs


def compare(parent_runs: list, change_runs: list, specs: dict) -> list:
    """One row per (metric, workload) found on both sides."""
    rows = []
    workloads = sorted({r["workload"] for r in parent_runs} & {r["workload"] for r in change_runs})
    for workload in workloads:
        sides = {
            side: [r for r in runs if r["workload"] == workload]
            for side, runs in (("parent", parent_runs), ("change", change_runs))
        }
        # the k-th parent run of a seed pairs with the k-th change run of that seed
        paired = []
        for seed in {r["seed"] for r in sides["parent"]}:
            paired += zip(*([r["result"] for r in sides[s] if r["seed"] == seed] for s in sides))
        failed = {side: sum(r["result"]["failed"] for r in runs) for side, runs in sides.items()}
        for name, (better, bound) in specs.items():
            values = {
                side: [r["result"]["metrics"][name]["value"] for r in runs if name in r["result"]["metrics"]]
                for side, runs in sides.items()
            }
            if not values["parent"] or not values["change"]:
                continue
            pairs = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in paired
                if name in p["metrics"] and name in c["metrics"]
            ]
            judged = verdict(
                values["parent"], values["change"], pairs, better, bound,
                failed["parent"], failed["change"],
            )
            rows.append({"metric": name, "workload": workload, "bound": bound, **judged})
    return rows


def format_rows(rows: list) -> str:
    def side(t):
        med, q1, q3 = t
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"

    lines = [
        f"{'metric':<34} {'workload':<13} {'parent median [Q1, Q3]':<34} "
        f"{'change median [Q1, Q3]':<34} {'wins':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['metric']:<34} {r['workload']:<13} {side(r['parent']):<34} "
            f"{side(r['change']):<34} {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="JSON-lines runs of the parent commit")
    parser.add_argument("change", help="JSON-lines runs of the change")
    parser.add_argument(
        "--benchmark",
        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"),
        help="benchmark definition holding each metric's direction and bound",
    )
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change), metric_specs(args.benchmark))
    if not rows:
        print("no (metric, workload) pair appears on both sides", file=sys.stderr)
        return 1
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
