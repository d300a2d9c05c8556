"""The benchmark's workloads: seeded operation sequences and their output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation is a list of ``qndsim.cli``
commands run on one generated ``ScenarioConfig``; the program sees nothing
but those configs.

* ``sweep``: one covariance-mode command per working point, the command
  chosen by a seeded rotation.  Working points come from a recorded pool of
  distinct gates, so no two operations of a run share a gate and a cache keyed
  on the working point gains nothing here.
* ``calibrate``: one ``reproduce-table`` fit per drawn budget and squeezing.
  A fit makes 84 builds over 2 distinct ``GateParams``, so shared work shows
  here and not in ``sweep``.
* ``trajectories``: ``transfer`` then ``conditional`` in trajectory mode at
  the CLI default of 100 000 shots, so the ``ensemble`` layer dominates.

Deterministic outputs are checked against the reference pools recorded by
``perfbench/record.py``; stochastic outputs are checked against the
covariance executor.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the ranges the generator draws working points from
GAIN_RANGE = (0.2, 2.5)
SQUEEZING_DB_RANGE = (-10.0, 0.0)
IDEAL_BUDGET_SHARE = 0.25
BUDGET_RANGES = {
    "propagation_loss_per_main_mode": (0.02, 0.12),
    "detector_quantum_efficiency": (0.95, 1.0),
    "visibility": (0.95, 1.0),
    # kept well below shot noise: dark noise at shot level with anti-squeezed
    # ancillas triggers the known trajectory conditioning defect, which this
    # traffic does not exercise
    "dark_noise_dB_below_shot": (12.0, 22.0),
    "displacement_coupler_loss": (0.0, 0.03),
    "feedforward_electronic_gain_error": (-0.03, 0.03),
    "extra_in_loop_loss": (0.0, 0.05),
}
LOSS_PLACEMENTS = ("post_exit", "pre_entry", "in_arms")
TRAJECTORY_SHOTS = 100_000

SWEEP_COMMANDS = ("vacuum_spectra", "transfer", "conditional")
CLI_FUNCTIONS = {
    "vacuum_spectra": ("cmd_vacuum_spectra", {}),
    "transfer": ("cmd_transfer", {}),
    "conditional": ("cmd_conditional", {}),
    "reproduce_table": ("cmd_reproduce_table", {"fit": True}),
}

VALUE_TOLERANCE = 1e-9
Z_LIMIT = 5.0


# --------------------------------------------------------------------------
# working points


def draw_point(rng: np.random.Generator, with_gain: bool = True) -> dict:
    """One working point as plain JSON data, rounded to the printed digits."""
    point = {}
    if with_gain:
        point["G"] = round(float(rng.uniform(*GAIN_RANGE)), 4)
    point["sqz"] = [round(float(rng.uniform(*SQUEEZING_DB_RANGE)), 2) for _ in range(2)]
    if rng.random() < IDEAL_BUDGET_SHARE:
        point["budget"] = "ideal"
    else:
        values = [round(float(rng.uniform(*bounds)), 4) for bounds in BUDGET_RANGES.values()]
        point["budget"] = values + [LOSS_PLACEMENTS[int(rng.integers(len(LOSS_PLACEMENTS)))]]
    return point


def scenario(point: dict, mode: str = "covariance", master_seed: int | None = None):
    """The ``ScenarioConfig`` the program receives for one working point."""
    from qndsim.circuit import ImperfectionModel
    from qndsim.scenario import RunSpec, ScenarioConfig

    if point["budget"] == "ideal":
        budget = ImperfectionModel.ideal()
    else:
        *values, placement = point["budget"]
        budget = ImperfectionModel(
            **dict(zip(BUDGET_RANGES, values)), loss_placement=placement
        )
    run = RunSpec(mode=mode)
    if mode == "trajectories":
        run = RunSpec(mode=mode, n=TRAJECTORY_SHOTS, master_seed=master_seed)
    return ScenarioConfig(
        gate_G=point.get("G", 1.0),
        squeezing_dB_A=point["sqz"][0],
        squeezing_dB_B=point["sqz"][1],
        imperfections=budget,
        run=run,
    )


@dataclass
class Op:
    """One operation: ``commands`` run in order on one generated config."""

    commands: tuple
    point: dict
    config: object
    ref: int | None = None  # index into the workload's reference pool

    def spec(self) -> dict:
        """Plain-data form, enough for a fresh interpreter to rebuild the op."""
        return {
            "commands": list(self.commands),
            "point": self.point,
            "mode": self.config.run.mode,
            "master_seed": self.config.run.master_seed,
            "ref": self.ref,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Op":
        config = scenario(spec["point"], spec["mode"], spec["master_seed"])
        return cls(tuple(spec["commands"]), spec["point"], config, spec["ref"])


def run_op(op: Op) -> list:
    """Run the op's commands; the command functions are looked up per call."""
    from qndsim import cli

    texts = []
    for command in op.commands:
        name, kwargs = CLI_FUNCTIONS[command]
        texts.append(getattr(cli, name)(op.config, **kwargs))
    return texts


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------
# reference pools


@functools.lru_cache(maxsize=None)
def load_pool(name: str) -> dict:
    """A recorded reference pool; read once per process and never modified."""
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _sector_figures(report, prefix: str = "") -> dict:
    return {
        f"{prefix}{name}.{s}": getattr(report.sectors[s], attr)
        for name, attr in (("T_S", "t_signal"), ("T_P", "t_probe"), ("V_SP", "v_conditional"))
        for s in ("x", "p")
    }


def gate_figures(config) -> dict:
    """T_S, T_P and V_SP of both sectors at full precision."""
    from qndsim import metrics
    from qndsim.circuit import build_qnd_gate

    params = config.gate_params()
    circuit = build_qnd_gate(params, config.imperfections)
    return _sector_figures(metrics.evaluate_gate(circuit, params))


_FITTED_KNOB = re.compile(r"fitted extra in-loop loss: ([0-9.]+)")


def calibration_figures(config, text: str) -> dict:
    """Full-precision figures of both gains at the knob the fit printed."""
    from qndsim import metrics

    match = _FITTED_KNOB.search(text)
    if match is None:
        raise ValueError("no fitted knob in the reproduce-table output")
    budget = replace(config.imperfections, extra_in_loop_loss=float(match.group(1)))
    comparison = metrics.compare_to_reference(
        budget, squeezing_db=config.squeezing_dB_A, fitted=True
    )
    figures = {}
    for gain, report in comparison.reports.items():
        figures.update(_sector_figures(report, f"G{gain:.1f}."))
    return figures


def check_against_pool(name: str, op: Op, texts: list, got: dict) -> list:
    """Compare texts by digest and figures to ``VALUE_TOLERANCE``."""
    pool = load_pool(name)
    ref = pool["points"][op.ref]
    failures = []
    for command, text in zip(op.commands, texts):
        want = ref["sha"][pool["commands"].index(command)]
        if text_digest(text) != want:
            failures.append(f"{command} text differs from the reference at {name} point {op.ref}")
    for figure, want in zip(pool["figures"], ref["figures"]):
        if figure in got and not abs(got[figure] - want) <= VALUE_TOLERANCE:
            failures.append(f"{name} point {op.ref}: {figure} = {got[figure]!r}, reference {want!r}")
    return failures


# --------------------------------------------------------------------------
# workloads


def sweep_ops(seed: int, count: int) -> list:
    pool = load_pool("sweep")["points"]
    if count > len(pool):
        raise ValueError(f"sweep needs {count} distinct gates; the pool holds {len(pool)}")
    rng = np.random.default_rng([seed, 1])
    picks = rng.choice(len(pool), size=count, replace=False)
    offset = int(rng.integers(len(SWEEP_COMMANDS)))
    return [
        Op(
            (SWEEP_COMMANDS[(offset + k) % len(SWEEP_COMMANDS)],),
            pool[int(i)]["point"],
            scenario(pool[int(i)]["point"]),
            int(i),
        )
        for k, i in enumerate(picks)
    ]


def check_sweep(op: Op, texts: list) -> list:
    got = {} if op.commands == ("vacuum_spectra",) else gate_figures(op.config)
    return check_against_pool("sweep", op, texts, got)


def calibrate_ops(seed: int, count: int) -> list:
    pool = load_pool("calibrate")["points"]
    if count > len(pool):
        raise ValueError(f"calibrate needs {count} distinct budgets; the pool holds {len(pool)}")
    rng = np.random.default_rng([seed, 2])
    picks = rng.choice(len(pool), size=count, replace=False)
    return [
        Op(("reproduce_table",), pool[int(i)]["point"], scenario(pool[int(i)]["point"]), int(i))
        for i in picks
    ]


def check_calibrate(op: Op, texts: list) -> list:
    return check_against_pool("calibrate", op, texts, calibration_figures(op.config, texts[0]))


def trajectory_ops(seed: int, count: int) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(count):
        point = draw_point(rng)
        master_seed = int(rng.integers(2**31))
        ops.append(
            Op(("transfer", "conditional"), point, scenario(point, "trajectories", master_seed))
        )
    return ops


_MEANS_LINE = re.compile(
    r"\(\w\) excite ([xp])([12]): output means "
    r"x1=(\S+) p1=(\S+) x2=(\S+) p2=(\S+)"
)
_VSP_LINE = re.compile(r"sector ([xp]): V_SP=(\S+)")


def check_trajectories(op: Op, texts: list) -> list:
    """z-scores of the printed ensemble results against the covariance executor.

    A printed mean's standard error is ``sqrt(cov_ii / n)`` and a printed
    V_SP's is ``V_SP * sqrt(2 / (n - 1))``, both from the covariance-mode
    output; each bounds the ensemble's own scatter from above.
    """
    from qndsim import gaussian, metrics
    from qndsim.circuit import build_qnd_gate, run_covariance

    transfer_text, conditional_text = texts
    config = op.config
    n = config.run.n
    circuit = build_qnd_gate(config.gate_params(), config.imperfections)
    amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
    failures = []

    rows = _MEANS_LINE.findall(transfer_text)
    if len(rows) != 4:
        failures.append(f"transfer printed {len(rows)} mean rows, expected 4")
    for quad, mode, *printed in rows:
        mode = int(mode) - 1
        dx, dp = (amplitude, 0.0) if quad == "x" else (0.0, amplitude)
        state = gaussian.displace(gaussian.vacuum_state(2), mode, dx, dp)
        out = run_covariance(circuit, state)
        for k, (label, value) in enumerate(zip(("x1", "p1", "x2", "p2"), printed)):
            se = math.sqrt(out.cov[k, k] / n)
            z = abs(float(value) - out.mean[k]) / se
            if not z < Z_LIMIT:
                failures.append(f"excite {quad}{mode + 1}: mean {label} off by z={z:.2f}")

    printed_vsp = dict(_VSP_LINE.findall(conditional_text))
    cov = run_covariance(circuit, config.input_state()).cov
    for sector in ("x", "p"):
        if sector not in printed_vsp:
            failures.append(f"conditional printed no V_SP for sector {sector}")
            continue
        want = metrics.conditional_variance(cov, sector)[0]
        se = want * math.sqrt(2.0 / (n - 1))
        z = abs(float(printed_vsp[sector]) - want) / se
        if not z < Z_LIMIT:
            failures.append(f"V_SP[{sector}] off by z={z:.2f}")
    return failures


@dataclass(frozen=True)
class Workload:
    """A workload; why each one exists is recorded in BENCHMARK.json."""

    name: str
    ops_per_second: float  # nominal rate that turns --seconds into a fixed op count
    probes: int            # fresh interpreters started to time set-up
    make_ops: object       # (seed, count) -> list of Op
    check: object          # (Op, texts) -> list of failure messages

    def op_count(self, seconds: int) -> int:
        return max(1, math.ceil(seconds * self.ops_per_second))


WORKLOADS = {
    "sweep": Workload("sweep", 100.0, 9, sweep_ops, check_sweep),
    "calibrate": Workload("calibrate", 3.0, 9, calibrate_ops, check_calibrate),
    "trajectories": Workload("trajectories", 0.5, 2, trajectory_ops, check_trajectories),
}
