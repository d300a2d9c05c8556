"""Scenario configuration for experiment runs.

A scenario is a JSON document with the sections ``gate``, ``imperfections``,
``run`` and ``output``.  All physical defaults are the reference experiment's
values: -5 dB ancilla squeezing, 7% propagation loss, 0.99 detector quantum
efficiency, 0.98 visibility and dark noise 17 dB below shot noise.

A scenario names no input state: every subcommand drives the gate with the
two-mode vacuum, as no second moment of a linear Gaussian gate depends on
the input mean.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral
from typing import get_type_hints

import numpy as np

from . import gaussian
from .circuit import MIN_SQUEEZING_DB, GateParams, ImperfectionModel
from .ensemble import check_master_seed, check_shot_count

# the largest gain G a scenario may give, R = reflectivity_from_gain(MAX_GAIN) of about 1e-6:
# up to it the lowering keeps 6e-14 of each row's scale and every build passes the absolute
# 1e-9 check, which correct gates fail from G of about 4.5e3
MAX_GAIN = 1000.0
# the largest |feedforward_electronic_gain_error|: up to it every budget at the bounds above
# builds, and a feedforward off (-1) or doubled (+1) covers any realistic electronics
MAX_GAIN_ERROR = 1.0


@dataclass(frozen=True)
class RunSpec:
    mode: str = "covariance"   # "covariance" or "trajectories"
    n: int = 100000
    master_seed: int = 20080901

    def __post_init__(self):
        if self.mode not in ("covariance", "trajectories"):
            raise ValueError(f"unknown run mode {self.mode!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, Integral) or self.n < 2:
            raise ValueError(f"run n must be an integer of at least 2, got {self.n!r}")
        check_shot_count(self.n)
        check_master_seed(self.master_seed)


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None    # also write the CSV here

    def __post_init__(self):
        if self.path == "":
            raise ValueError("output.path must not be empty: give a file path, or null for no CSV")


@dataclass
class ScenarioConfig:
    gate_G: float = 1.0
    squeezing_dB_A: float = -5.0
    squeezing_dB_B: float = -5.0
    imperfections: ImperfectionModel = field(default_factory=ImperfectionModel)
    run: RunSpec = field(default_factory=RunSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self):
        # the gate's measurement-induced squeezing needs squeezed (or vacuum) ancillas
        for name in ("squeezing_dB_A", "squeezing_dB_B"):
            db = getattr(self, name)
            if not (np.isfinite(db) and db <= 0.0):
                raise ValueError(f"{name} = {db} must be finite and at most 0 dB")
            if db < MIN_SQUEEZING_DB:
                raise ValueError(
                    f"{name} = {db} is below {MIN_SQUEEZING_DB:g} dB, "
                    "the deepest squeezing oracle-check verifies"
                )
        # the gain is bounded before it becomes R, which rounds to 0 from G of about 1.4e8
        if MAX_GAIN < self.gate_G < math.inf:
            raise ValueError(
                f"gain G = {self.gate_G} is above {MAX_GAIN:g}, the largest a scenario may give"
            )
        # the gate is checked at load too, not first when a command builds it
        self.gate_params()
        gain_error = self.imperfections.feedforward_electronic_gain_error
        if abs(gain_error) > MAX_GAIN_ERROR:
            raise ValueError(
                f"feedforward_electronic_gain_error = {gain_error} outside "
                f"[-{MAX_GAIN_ERROR:g}, {MAX_GAIN_ERROR:g}]"
            )

    def gate_params(self) -> GateParams:
        return GateParams.from_gain(
            self.gate_G, squeezing_db_a=self.squeezing_dB_A, squeezing_db_b=self.squeezing_dB_B
        )

    def input_state(self) -> gaussian.GaussianState:
        """The gate's input: the two-mode vacuum."""
        return gaussian.vacuum_state(2)

    def to_json(self) -> str:
        """The scenario as strict JSON: no dark noise (inf dB) is written as null."""
        imperfections = asdict(self.imperfections)
        if math.isinf(imperfections[_DARK_NOISE]):
            imperfections[_DARK_NOISE] = None
        doc = {
            "gate": {
                "squeezing_dB_A": self.squeezing_dB_A,
                "squeezing_dB_B": self.squeezing_dB_B,
                "G": self.gate_G,
            },
            "imperfections": imperfections,
            "run": {
                "mode": self.run.mode,
                "n": int(self.run.n),
                "master_seed": int(self.run.master_seed),
            },
            "output": asdict(self.output),
        }
        return json.dumps(doc, indent=2, allow_nan=False)


# the one key where null has a meaning: no dark noise, the inf dB that strict JSON cannot write
_DARK_NOISE = "dark_noise_dB_below_shot"
# the JSON values a key of each declared type takes, and how an error names them
_JSON_TYPES = {float: ((int, float), "a number"), str: (str, "a string"), dict: (dict, "an object"),
               str | None: ((str, type(None)), "a string or null")}
_SCENARIO_KEYS = {"gate": dict, "imperfections": dict, "run": dict, "output": dict}
_GATE_KEYS = dict.fromkeys(("G", "squeezing_dB_A", "squeezing_dB_B"), float)
# a key typed ``object`` is left to the constructor: RunSpec checks n and master_seed
_RUN_KEYS = {"mode": str, "n": object, "master_seed": object}


def _checked(section: str, doc, types: dict) -> dict:
    """``doc``, once it is an object with only ``types``' keys, each of its type; never a bool."""
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be a JSON object, got {doc!r}")
    if unknown := set(doc) - set(types):
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    for key, value in doc.items():
        if types[key] is not object:
            accepted, name = _JSON_TYPES[types[key]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{section} key {key!r} must be {name}, got {value!r}")
    return doc


def _section(cls, section: str, doc):
    return cls(**_checked(section, doc, get_type_hints(cls)))


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a scenario from the keys ``doc`` gives; the rest keep their defaults."""
    _checked("scenario", doc, _SCENARIO_KEYS)
    gate = _checked("gate", doc.get("gate", {}), _GATE_KEYS)
    given = {name: float(gate[name]) for name in gate.keys() & {"squeezing_dB_A", "squeezing_dB_B"}}
    if "G" in gate:
        given["gate_G"] = gate["G"]
    if "imperfections" in doc:
        imperfections = doc["imperfections"]
        if isinstance(imperfections, dict) and imperfections.get(_DARK_NOISE, 0.0) is None:
            imperfections = {**imperfections, _DARK_NOISE: math.inf}
        given["imperfections"] = _section(ImperfectionModel, "imperfection", imperfections)
    if "run" in doc:
        given["run"] = RunSpec(**_checked("run", doc["run"], _RUN_KEYS))
    if "output" in doc:
        given["output"] = _section(OutputSpec, "output", doc["output"])
    return ScenarioConfig(**given)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
