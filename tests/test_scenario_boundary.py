"""The scenario boundary: every document that loads also builds and runs.

A scenario file either fails to load with a ``ValueError`` that names the
offending section or key, or every subcommand that accepts it prints finite
text.  The gain and the feedforward gain error are bounded at load, beside
the squeezing bound, so that no accepted value reaches a
``CircuitConstructionError`` in the build's self-check.
"""

import contextlib
import io
import itertools
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim.circuit import GateParams, ImperfectionModel, build_qnd_gate, gain_from_reflectivity
from qndsim.cli import main
from qndsim.scenario import (
    MAX_GAIN,
    MAX_GAIN_ERROR,
    MIN_SQUEEZING_DB,
    ScenarioConfig,
    scenario_from_dict,
)


def _scenario_file(directory, doc) -> str:
    path = os.path.join(directory, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return path


class TestGainBound:
    @pytest.mark.parametrize(
        "gate, message",
        [
            ({"G": 1e5}, "gain G = 100000.0 is above 1000, the largest a scenario may give"),
            ({"G": 1e9}, "gain G = 1000000000.0 is above 1000, the largest a scenario may give"),
            ({"G": math.nextafter(MAX_GAIN, math.inf)},
             "gain G = 1000.0000000000001 is above 1000, the largest a scenario may give"),
        ],
        ids=["G-1e5", "G-1e9", "G-next-above"],
    )
    def test_file_beyond_the_bound_names_its_key(self, gate, message, tmp_path, capsys):
        # G = 1e9 would become R = 0.0, so the error must name G before R exists
        with pytest.raises(ValueError, match=message):
            scenario_from_dict({"gate": gate})
        path = _scenario_file(tmp_path, {"gate": gate})
        with pytest.raises(ValueError, match=message):
            main(["transfer", "--config", path])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gain", "1e5"], "gain G = 100000.0 is above 1000"),
            (["--gain", "1e9"], "gain G = 1000000000.0 is above 1000"),
            (["--gain", "1000.0000000000001"], "gain G = 1000.0000000000001 is above 1000"),
        ],
        ids=["G-1e5", "G-1e9", "G-next-above"],
    )
    def test_flag_beyond_the_bound_names_its_key(self, argv, message, capsys):
        with pytest.raises(ValueError, match=message):
            main(["transfer", *argv])
        assert capsys.readouterr().out == ""

    def test_the_bound_itself_loads(self, capsys):
        assert scenario_from_dict({"gate": {"G": MAX_GAIN}}) == ScenarioConfig(gate_G=MAX_GAIN)
        assert main(["transfer", "--gain", "1000"]) == 0
        assert "G=1000.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("R", [0.01, 0.1, 0.25, 0.3819660112501051, 0.5, 0.99, 1.0])
    def test_a_reflectivity_is_named_by_its_gain(self, R):
        # gain_from_reflectivity carries a working point given as R onto the G key
        params = scenario_from_dict({"gate": {"G": gain_from_reflectivity(R)}}).gate_params()
        assert params.R == pytest.approx(R, rel=0, abs=1e-15)

    def test_gate_params_stay_unbounded(self):
        # the library may go past the scenario bound, as it may for squeezing
        assert GateParams(1e-12).gain > 1e5

    def test_random_budget_builds_at_the_bound(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            imp = ImperfectionModel(
                propagation_loss_per_main_mode=rng.uniform(0.0, 0.9),
                detector_quantum_efficiency=rng.uniform(0.1, 1.0),
                visibility=rng.uniform(0.1, 1.0),
                dark_noise_dB_below_shot=math.inf if rng.random() < 0.2 else rng.uniform(0.0, 40.0),
                displacement_coupler_loss=rng.uniform(0.0, 0.9),
                feedforward_electronic_gain_error=rng.uniform(-MAX_GAIN_ERROR, MAX_GAIN_ERROR),
                extra_in_loop_loss=rng.uniform(0.0, 0.9),
                loss_placement=str(rng.choice(["post_exit", "pre_entry", "in_arms"])),
            )
            db_a, db_b = rng.uniform(MIN_SQUEEZING_DB, 0.0, size=2)
            config = ScenarioConfig(
                gate_G=MAX_GAIN, squeezing_dB_A=db_a, squeezing_dB_B=db_b, imperfections=imp
            )
            build_qnd_gate(config.gate_params(), config.imperfections)


class TestGainErrorBound:
    @pytest.mark.parametrize("error", [-1e300, -1.0000001, 1.5, 500.0])
    def test_beyond_the_bound_names_the_key(self, error, tmp_path, capsys):
        doc = {"imperfections": {"feedforward_electronic_gain_error": error}}
        message = re.escape(f"feedforward_electronic_gain_error = {error} outside [-1, 1]")
        with pytest.raises(ValueError, match=message):
            scenario_from_dict(doc)
        with pytest.raises(ValueError, match=message):
            main(["vacuum-spectra", "--config", _scenario_file(tmp_path, doc)])
        assert capsys.readouterr().out == ""

    def test_every_corner_of_the_declared_ranges_builds(self):
        # each range's ends, the float next to an open end standing in for it:
        # 2**10 corners times the three loss placements
        below_one, above_zero = float(np.nextafter(1.0, 0.0)), 5e-324
        loss = (0.0, below_one)
        efficiency = (above_zero, 1.0)
        corners = itertools.product(
            (MAX_GAIN, 0.0), (MIN_SQUEEZING_DB, 0.0), (MIN_SQUEEZING_DB, 0.0),
            loss, efficiency, efficiency, (0.0, math.inf), loss,
            (-MAX_GAIN_ERROR, MAX_GAIN_ERROR), loss, ("post_exit", "pre_entry", "in_arms"),
        )
        built = 0
        for gain, db_a, db_b, *budget in corners:
            config = ScenarioConfig(
                gate_G=gain, squeezing_dB_A=db_a, squeezing_dB_B=db_b,
                imperfections=ImperfectionModel(*budget),
            )
            build_qnd_gate(config.gate_params(), config.imperfections)
            built += 1
        assert built == 3 * 2**10


# --------------------------------------------------------------------------
# the fuzz: scenario documents through every subcommand, in process

COMMANDS = (
    ["vacuum-spectra"],
    ["transfer"],
    ["conditional"],
    ["reproduce-table"],
    ["reproduce-table", "--no-fit"],
)
CSV = "out.csv"  # replaced by a path in the example's own temporary directory

# a value no key accepts, whatever its type
_FAULTS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 2**53 + 1, 2**64, -(2**63)]),
    st.none(),
    st.booleans(),
    st.sampled_from(["", "1", "x"]),
    st.just([]),
    st.just({"k": 1}),
)


def _rarely(usual, rare):
    """``usual`` nine times in ten, ``rare`` otherwise, so that most documents go deep."""
    return st.tuples(st.integers(0, 9), usual, rare).map(lambda t: t[2] if t[0] == 0 else t[1])


def _value(in_range, edges, beyond):
    """A key's value: in range or at an edge; rarely beyond it, or any fault."""
    return _rarely(in_range | st.sampled_from(edges), _FAULTS | st.sampled_from(beyond))


def _section(keys: dict):
    """Some of ``keys``; rarely an unknown key too, or a value that is no object."""
    section = st.fixed_dictionaries({}, optional=keys)
    return _rarely(section, section.map(lambda doc: {**doc, "bogus_key": 1}) | _FAULTS)


_LOSS = _value(st.floats(0.0, 0.99), [0.0, -0.0, float(np.nextafter(1.0, 0.0))], [1.0, -1e-9])
_EFFICIENCY = _value(st.floats(0.01, 1.0), [1.0, 5e-324], [0.0, 1.0000001])
_DB = _value(st.floats(MIN_SQUEEZING_DB, 0.0), [MIN_SQUEEZING_DB, 0.0, -0.0], [-60.0001, 3.0])
_GATE = {
    "G": _value(st.floats(0.0, MAX_GAIN), [0.0, MAX_GAIN], [1e5, 1e9, -1.0]),
    "squeezing_dB_A": _DB,
    "squeezing_dB_B": _DB,
}
_IMPERFECTIONS = {
    "propagation_loss_per_main_mode": _LOSS,
    "detector_quantum_efficiency": _EFFICIENCY,
    "visibility": _EFFICIENCY,
    "dark_noise_dB_below_shot": _rarely(
        st.floats(0.0, 60.0) | st.sampled_from([0.0, 400.0, None]), _FAULTS
    ),
    "displacement_coupler_loss": _LOSS,
    "feedforward_electronic_gain_error": _value(
        st.floats(-MAX_GAIN_ERROR, MAX_GAIN_ERROR), [-MAX_GAIN_ERROR, MAX_GAIN_ERROR], [-1e300, 500.0]
    ),
    "extra_in_loop_loss": _LOSS,
    "loss_placement": _value(
        st.sampled_from(["post_exit", "pre_entry", "in_arms"]), ["in_arms"], ["elsewhere"]
    ),
}
_RUN = {
    "mode": _value(st.sampled_from(["covariance", "trajectories"]), ["trajectories"], ["both"]),
    "n": _value(st.integers(2, 10**6), [2, 2**53], [0, 1, 2.5]),
    "master_seed": _value(st.integers(0, 2**64 - 1), [0, 2**64 - 1], [-1, 2**64]),
}
_DOCUMENTS = _section(
    {
        "gate": _section(_GATE),
        "imperfections": _section(_IMPERFECTIONS),
        "run": _section(_RUN),
        "output": _section({"path": _value(st.just(CSV), [None], [""])}),
    }
)


def _names(doc) -> set:
    """Every key of ``doc`` at any depth, as written."""
    names = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            names |= {key} | _names(value)
    return names


_NON_FINITE_TEXT = re.compile(r"(?<![A-Za-z_])(nan|inf)(?![A-Za-z_])", re.IGNORECASE)


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(doc=_DOCUMENTS)
# a gate named by R, which only G names: it fails as an unknown key
@example(doc={"gate": {"R": 1e-12}})
# holes the load bounds close: the first loaded, then every build raised;
# G = 1e9 became R = 0.0, and the load error named R
@example(doc={"imperfections": {"feedforward_electronic_gain_error": -1e300}})
@example(doc={"gate": {"G": 1e9}})
@example(doc={"run": {"mode": "trajectories", "n": 2**53}, "output": {"path": CSV}})
@example(doc=[])
def test_every_document_fails_by_name_or_prints_finite_text(doc):
    with tempfile.TemporaryDirectory() as directory:
        csv = os.path.join(directory, CSV)
        if isinstance(doc, dict) and isinstance(doc.get("output"), dict):
            if doc["output"].get("path") == CSV:
                doc = {**doc, "output": {**doc["output"], "path": csv}}
        path = _scenario_file(directory, doc)
        names = _names(doc) | ({"scenario"} if not isinstance(doc, dict) else set())
        for argv in COMMANDS:
            try:
                text = _run([*argv, "--config", path])
            except ValueError as error:
                named = [n for n in names if re.search(rf"\b{re.escape(n)}\b", str(error))]
                assert named, f"{argv}: {error!r} names none of {sorted(names)}"
                continue
            assert text.strip() and not _NON_FINITE_TEXT.search(text), (argv, text)
            if os.path.exists(csv):
                with open(csv, encoding="utf-8") as fh:
                    written = fh.read()
                os.remove(csv)
                assert not _NON_FINITE_TEXT.search(written), (argv, written[:500])
