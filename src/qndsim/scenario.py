"""Scenario configuration for experiment runs.

A scenario is a JSON document with the sections ``gate``, ``imperfections``,
``inputs``, ``run`` and ``output``.  All physical defaults are the reference
experiment's values: -5 dB ancilla squeezing, 7% propagation loss, 0.99
detector quantum efficiency, 0.98 visibility and dark noise 17 dB below shot
noise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral

import numpy as np

from . import gaussian
from .circuit import GateParams, ImperfectionModel, reflectivity_from_gain
from .ensemble import check_master_seed


@dataclass
class InputSpec:
    """One gate input mode: vacuum or a coherent excitation."""

    kind: str = "vacuum"       # "vacuum" or "coherent"
    amplitude: float = 0.0
    quadrature: str = "x"      # "x" or "p"

    def __post_init__(self):
        if self.kind not in ("vacuum", "coherent"):
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.quadrature not in ("x", "p"):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.kind == "vacuum" and (self.amplitude != 0.0 or self.quadrature != "x"):
            raise ValueError("a vacuum input takes no amplitude or quadrature")


@dataclass
class RunSpec:
    mode: str = "covariance"   # "covariance" or "trajectories"
    n: int = 100000
    master_seed: int = 20080901
    g_min: float = -2.0
    g_max: float = 2.0
    g_step: float = 0.01

    def __post_init__(self):
        if self.mode not in ("covariance", "trajectories"):
            raise ValueError(f"unknown run mode {self.mode!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, Integral) or self.n < 2:
            raise ValueError(f"run n must be an integer of at least 2, got {self.n!r}")
        if not np.all(np.isfinite((self.g_min, self.g_max, self.g_step))):
            raise ValueError("g_grid min, max and step must be finite")
        if self.g_step <= 0.0:
            raise ValueError("g_grid step must be positive")
        if self.g_min > self.g_max:
            raise ValueError(f"g_grid min {self.g_min} exceeds max {self.g_max}")
        check_master_seed(self.master_seed)

    def g_grid(self) -> np.ndarray:
        return np.round(np.arange(self.g_min, self.g_max + 1e-9, self.g_step), 10)


@dataclass
class OutputSpec:
    format: str = "table"      # "table" or "csv"
    path: str | None = None

    def __post_init__(self):
        if self.format not in ("table", "csv"):
            raise ValueError(f"unknown output format {self.format!r}")
        if self.format == "csv" and not self.path:
            raise ValueError("csv output needs a path")
        if self.format == "table" and self.path is not None:
            raise ValueError("table output is printed and takes no path")


@dataclass
class ScenarioConfig:
    gate_R: float | None = None
    gate_G: float | None = 1.0
    squeezing_dB_A: float = -5.0
    squeezing_dB_B: float = -5.0
    imperfections: ImperfectionModel = field(default_factory=ImperfectionModel)
    inputs: tuple = (InputSpec(), InputSpec())
    run: RunSpec = field(default_factory=RunSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self):
        if (self.gate_R is None) == (self.gate_G is None):
            raise ValueError("specify exactly one of gate R and gate G")
        if len(self.inputs) != 2:
            raise ValueError("a scenario has exactly two input modes")
        # the gate's measurement-induced squeezing needs squeezed (or vacuum) ancillas
        for name in ("squeezing_dB_A", "squeezing_dB_B"):
            db = getattr(self, name)
            if not (np.isfinite(db) and db <= 0.0):
                raise ValueError(f"{name} = {db} must be finite and at most 0 dB")

    def gate_params(self) -> GateParams:
        R = self.gate_R if self.gate_R is not None else reflectivity_from_gain(self.gate_G)
        return GateParams(
            R, squeezing_db_a=self.squeezing_dB_A, squeezing_db_b=self.squeezing_dB_B
        )

    def input_state(self) -> gaussian.GaussianState:
        state = gaussian.vacuum_state(2)
        for mode, spec in enumerate(self.inputs):
            if spec.kind == "coherent":
                state.mean[2 * mode + (spec.quadrature == "p")] += spec.amplitude
        return state

    def to_json(self) -> str:
        doc = {
            "gate": {
                "squeezing_dB_A": self.squeezing_dB_A,
                "squeezing_dB_B": self.squeezing_dB_B,
            },
            "imperfections": asdict(self.imperfections),
            "inputs": [asdict(s) for s in self.inputs],
            "run": {
                "mode": self.run.mode,
                "n": int(self.run.n),
                "master_seed": int(self.run.master_seed),
                "g_grid": {"min": self.run.g_min, "max": self.run.g_max, "step": self.run.g_step},
            },
            "output": asdict(self.output),
        }
        if self.gate_R is not None:
            doc["gate"]["R"] = self.gate_R
        else:
            doc["gate"]["G"] = self.gate_G
        return json.dumps(doc, indent=2)


def _reject_unknown(section: str, doc: dict, known) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")


def _section(cls, section: str, doc: dict):
    _reject_unknown(section, doc, (f.name for f in fields(cls)))
    return cls(**doc)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a scenario from the keys ``doc`` gives; the rest keep their defaults."""
    _reject_unknown("scenario", doc, ("gate", "imperfections", "inputs", "run", "output"))
    gate = doc.get("gate", {})
    _reject_unknown("gate", gate, ("R", "G", "squeezing_dB_A", "squeezing_dB_B"))
    squeezings = ("squeezing_dB_A", "squeezing_dB_B")
    given = {name: float(gate[name]) for name in squeezings if name in gate}
    if "R" in gate:
        given.update(gate_R=gate["R"], gate_G=gate.get("G"))
    elif "G" in gate:
        given["gate_G"] = gate["G"]
    if "imperfections" in doc:
        given["imperfections"] = _section(ImperfectionModel, "imperfection", doc["imperfections"])
    if "inputs" in doc:
        given["inputs"] = tuple(_section(InputSpec, "input", spec) for spec in doc["inputs"])
    if "run" in doc:
        run = dict(doc["run"])
        _reject_unknown("run", run, ("mode", "n", "master_seed", "g_grid"))
        grid = run.pop("g_grid", {})
        _reject_unknown("g_grid", grid, ("min", "max", "step"))
        given["run"] = RunSpec(**run, **{f"g_{key}": float(value) for key, value in grid.items()})
    if "output" in doc:
        given["output"] = _section(OutputSpec, "output", doc["output"])
    return ScenarioConfig(**given)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
