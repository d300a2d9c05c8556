"""Record the reference pools that deterministic outputs are checked against.

    python3 perfbench/record.py        # rewrites perfbench/reference/*.json

Each pool is a fixed list of working points drawn from the workload's ranges
with a fixed seed, together with the digest of every command's text and the
full-precision T_S, T_P and V_SP the package gives for it.  A run's seed
chooses which pool points it sends and in which order.  Re-record only at a
commit whose outputs are meant to become the new reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    # run as a script: import siblings as the perfbench package, never as top-level
    # modules (perfbench/trace.py would shadow the standard library's trace)
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import ROOT, use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402

from perfbench.run import metadata  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    BUDGET_RANGES,
    REFERENCE_DIR,
    SWEEP_COMMANDS,
    Op,
    calibration_figures,
    draw_point,
    gate_figures,
    run_op,
    scenario,
    text_digest,
)

POOLS = {"sweep": (1024, 20080901), "calibrate": (96, 20080902)}


def _entry(point: dict, texts: list, figures: dict) -> dict:
    # 12 significant digits sit three orders below the 1e-9 check tolerance
    return {
        "point": point,
        "sha": [text_digest(t) for t in texts],
        "figures": [float(f"{v:.12g}") for v in figures.values()],
    }


def record_sweep(size: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    entries, gates = [], set()
    while len(entries) < size:
        point = draw_point(rng)
        gate = (point["G"], *point["sqz"])
        if gate in gates:
            continue
        gates.add(gate)
        config = scenario(point)
        figures = gate_figures(config)
        entries.append(_entry(point, run_op(Op(SWEEP_COMMANDS, point, config)), figures))
    return SWEEP_COMMANDS, list(figures), entries


def record_calibrate(size: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(size):
        point = draw_point(rng, with_gain=False)
        config = scenario(point)
        texts = run_op(Op(("reproduce_table",), point, config))
        figures = calibration_figures(config, texts[0])
        entries.append(_entry(point, texts, figures))
    return ("reproduce_table",), list(figures), entries


def write_pool(name: str, seed: int, commands, figures, points: list) -> Path:
    meta = metadata()
    header = {
        "recorded_at": meta["git_sha"],
        "python": meta["python"],
        "numpy": meta["numpy"],
        "pool_seed": seed,
        "budget_fields": list(BUDGET_RANGES) + ["loss_placement"],
        "commands": list(commands),
        "figures": figures,
    }
    body = ",\n".join(json.dumps(p, separators=(",", ":")) for p in points)
    text = json.dumps(header, indent=1)[:-2] + ',\n "points": [\n' + body + "\n]}\n"
    json.loads(text)  # the hand-joined layout must stay valid JSON
    path = REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def main() -> int:
    recorders = {"sweep": record_sweep, "calibrate": record_calibrate}
    for name, (size, seed) in POOLS.items():
        path = write_pool(name, seed, *recorders[name](size, seed))
        print(f"{name}: {size} points -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
