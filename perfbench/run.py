"""Run one seeded workload against this checkout's qndsim and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--workload`` is ``sweep``, ``calibrate``, ``trajectories`` or ``all``.
``--seconds`` fixes the number of operations through each workload's
nominal rate, so a run sends the same operations on every commit and is
never cut by a clock.  With ``--trace 0`` the run times set-up in fresh
interpreters and then the operations, untraced; with ``--trace 1`` it runs
the operations untraced and then traced, and reports per-layer metrics.
Every output is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one client on a small machine: the matrices are tiny, so BLAS threads only add noise
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, BLAS_THREADS)

if __package__ in (None, ""):
    # run as a script: import siblings as the perfbench package, never as top-level
    # modules (perfbench/trace.py would shadow the standard library's trace)
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import ROOT, MissingSource, use_checkout_source  # noqa: E402
from perfbench import speed  # noqa: E402

TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
TAIL_SAMPLES = 10
PROBE_TIMEOUT_S = 150
WARMUP_POINT = {"G": 1.0, "sqz": [-5.0, -5.0], "budget": "ideal"}
TRACE_DIR = Path(__file__).resolve().parent / "out"


# --------------------------------------------------------------------------
# measuring


def timed_pass(ops, tracer=None) -> dict:
    """Run the ops back to back; time each one and keep its output or error.

    The speed sampler runs throughout: ``latencies`` are net of its
    interruptions and ``scaled`` holds each op's time at the reference speed.
    """
    from perfbench.workloads import run_op

    spans, outputs = [], []
    with speed.SpeedSampler(tracer.absorb_sample if tracer else None) as sampler:
        for op in ops:
            start = time.perf_counter()
            try:
                texts = tracer.run_op(run_op, op) if tracer else run_op(op)
            except Exception as exc:  # a raising op is a failed op, not a benchmark error
                texts = exc
            spans.append((start, time.perf_counter()))
            outputs.append(texts)
    latencies = [end - start - sampler.interrupted(start, end) for start, end in spans]
    return {
        "latencies": latencies,
        "scaled": [t * sampler.factor(*span) for t, span in zip(latencies, spans)],
        "outputs": outputs,
        "kernel_s": list(sampler.kernel),
    }


def failures_of(workload, ops, outputs) -> list:
    """One list of failure messages per op: raised, or failed its output check."""
    failures = []
    for op, texts in zip(ops, outputs):
        if isinstance(texts, Exception):
            failures.append([f"raised {type(texts).__name__}: {texts}"])
            continue
        try:
            failures.append(workload.check(op, texts))
        except Exception as exc:  # an output the check cannot read is a wrong output
            failures.append([f"check raised {type(exc).__name__}: {exc}"])
    return failures


def latency_tail(latencies):
    """The highest ladder percentile with at least TAIL_SAMPLES samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, ceil(p/100 * n)
        if n - rank >= TAIL_SAMPLES:
            return p, ordered[int(rank) - 1]
    return None


def fresh_interpreter(ops, baseline: bool = False) -> dict:
    """Run ``perfbench.probe`` on ``ops`` in a new interpreter; see its docstring."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.probe"],
        input=json.dumps({"ops": [op.spec() for op in ops], "baseline": baseline}),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        return {"error": done.stderr.strip().splitlines()[-1:] or ["probe failed"]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe(op) -> dict:
    """Time a fresh interpreter's start to the end of ``op``.

    The probe samples the reference kernel while it imports and runs, and
    reports the time it spent doing so; its set-up time is net of that time
    and scaled by the kernel times it sampled.
    """
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = fresh_interpreter([op])
    if "error" not in result:
        result["setup_s"] = result["done"] - started - result["sampling_s"]
        result["scaled_setup_s"] = result["setup_s"] * speed.REFERENCE_S / result["kernel_s"]
    return result


def metadata() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = git.stdout.strip() or sha
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha,
    }


def warm_up() -> None:
    from perfbench.workloads import SWEEP_COMMANDS, Op, run_op, scenario

    run_op(Op(SWEEP_COMMANDS, WARMUP_POINT, scenario(WARMUP_POINT)))


# --------------------------------------------------------------------------
# one workload


def run_untraced(workload, ops, seed: int) -> dict:
    probes = [probe(ops[0]) for _ in range(workload.probes)]
    warm_up()
    timed = timed_pass(ops)
    failures = failures_of(workload, ops, timed["outputs"])
    started = [r for r in probes if "error" not in r]
    failures += [[f"set-up probe failed: {r['error']}"] for r in probes if "error" in r]
    failures += failures_of(workload, [ops[0]] * len(started), [r["texts"] for r in started])
    if not started:
        raise RuntimeError(f"no set-up probe ran: {failures[-1]}")

    scaled = timed["scaled"]
    failed_timed = sum(1 for f in failures[: len(ops)] if f)
    metrics = {
        "setup_s": (statistics.median(r["scaled_setup_s"] for r in started), "s"),
        "throughput_per_s": ((len(ops) - failed_timed) / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kib"] for r in started) / 1024, "MB"),
    }
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in started),
        "throughput_per_s": (len(ops) - failed_timed) / sum(timed["latencies"]),
        "latency_p50_ms": statistics.median(timed["latencies"]) * 1e3,
    }
    print(f"{workload.name}: {len(ops)} timed ops, {len(probes)} set-up probes, seed {seed}")
    print(f"  {'metric':<18} {'reported':>14} {'unit':<5} {'unscaled':>12}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:>14.6g} {unit:<5} {raw.get(name, value):>12.6g}")
    tail = latency_tail(scaled)
    if tail:
        percentile, value = tail
        print(f"  {'latency_tail_ms':<18} {value * 1e3:>14.6g} ms    (p{percentile:g}, {len(ops)} ops)")
    else:
        print(f"  {'latency_tail_ms':<18} {'absent':>14}       "
              f"(fewer than {TAIL_SAMPLES} of {len(ops)} ops beyond p{TAIL_PERCENTILES[-1]:g})")
    kernel = statistics.median(timed["kernel_s"])
    print(f"  reference kernel: median {kernel * 1e3:.4f} ms over {len(timed['kernel_s'])} samples "
          f"(reference {speed.REFERENCE_S * 1e3:g} ms)")
    failed_ratio = sum(1 for f in failures if f) / len(failures)
    print(f"  {'failed_ratio':<18} {failed_ratio:>14.6g} ({len(failures)} ops incl. probes)")
    return {"metrics": metrics, "failures": failures}


def run_traced(workload, ops, seed: int) -> dict:
    from perfbench.trace import OP_SPAN, Tracer

    # the untraced pass only sets the overhead ratio, so half the ops suffice
    compared = ops[: -(-len(ops) // 2)]
    baseline = fresh_interpreter(compared, baseline=True)
    if "error" in baseline:
        raise RuntimeError(f"untraced pass failed: {baseline['error']}")
    plain_outputs = [
        RuntimeError(t["raised"]) if isinstance(t, dict) else t for t in baseline["outputs"]
    ]
    warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_pass(ops, tracer)
    finally:
        tracer.uninstall()
    failures = failures_of(workload, compared, plain_outputs) + failures_of(
        workload, ops, traced["outputs"]
    )
    overhead = sum(baseline["scaled"]) / sum(traced["scaled"][: len(compared)])
    layers = tracer.layer_metrics(overhead)

    totals = tracer.layer_totals()
    wall = totals[OP_SPAN]["total_s"]
    self_sum = sum(t["self_s"] for t in totals.values())
    if abs(self_sum - wall) > 1e-6 * wall:
        raise RuntimeError(f"self times add up to {self_sum:.6f} s, traced wall time is {wall:.6f} s")

    print(f"{workload.name}: traced run of {len(ops)} ops, seed {seed}")
    print(f"  traced wall {wall * 1e3:.1f} ms = sum of self times {self_sum * 1e3:.1f} ms")
    print(f"  {'layer':<44} {'calls':>10} {'self ms':>12} {'share':>7}")
    for name, t in totals.items():
        share = t["self_s"] / wall if wall else 0.0
        print(f"  {name:<44} {t['calls']:>10d} {t['self_s'] * 1e3:>12.2f} {share:>7.1%}")
    print("  derived:")
    for name, (value, unit, base) in layers.items():
        if not name.endswith((".calls", ".self_ms")):
            print(f"  {name:<52} {value:>12.6g} {unit:<6} {base or ''}")
    for name in tracer.absent:
        print(f"  {name}: absent from this checkout")

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload.name}-seed{seed}.npz"
    tracer.write(path)
    print(f"  spans written to {path.relative_to(ROOT)}")
    return {"metrics": {k: (v, u) for k, (v, u, _) in layers.items()}, "failures": failures}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.make_ops(seed, workload.op_count(seconds))
    result = (run_traced if trace else run_untraced)(workload, ops, seed)
    for k, messages in enumerate(f for f in result["failures"] if f):
        if k == 5:
            print("  ... further failures not shown")
            break
        print(f"  FAILED: {'; '.join(messages[:3])}")
    return result


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print("meta " + json.dumps(metadata()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        attempted += len(result["failures"])
        failed += sum(1 for f in result["failures"] if f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
