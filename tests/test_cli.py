"""Tests for the command-line front end and scenario configuration."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from qndsim import cli, gaussian, metrics
from qndsim import circuit as circuit_module
from qndsim.circuit import (
    Circuit,
    GateParams,
    ImperfectionModel,
    build_qnd_gate,
    circuit_quadrature_map,
    gain_from_reflectivity,
    run_covariance,
)
from qndsim.cli import (
    _EXCITATION_CASES,
    _oracle_check,
    _oracle_text,
    _vacuum_output,
    cmd_conditional,
    cmd_reproduce_table,
    cmd_transfer,
    cmd_vacuum_spectra,
    main,
)
from qndsim.ensemble import run_ensemble
from qndsim.quadexpr import QuadratureMap
from qndsim.scenario import (
    OutputSpec,
    RunSpec,
    ScenarioConfig,
    load_scenario,
    scenario_from_dict,
)


def lossless_config(**kwargs):
    return ScenarioConfig(imperfections=ImperfectionModel.ideal(), **kwargs)


def declared_flags():
    """(subcommand, flag) for each flag that a subparser of ``build_parser()`` declares, help aside."""
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action.option_strings[0])
        for name, parser in subparsers.choices.items()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
    ]


class TestScenarioConfig:
    def test_defaults_are_reference_experiment(self):
        config = ScenarioConfig()
        assert config.gate_G == 1.0
        assert config.squeezing_dB_A == -5.0
        assert config.imperfections.propagation_loss_per_main_mode == 0.07
        assert config.imperfections.visibility == 0.98

    def test_round_trip_through_json(self, tmp_path):
        config = ScenarioConfig(gate_G=1.5, run=RunSpec(mode="trajectories", n=500, master_seed=7))
        path = tmp_path / "scenario.json"
        path.write_text(config.to_json())
        loaded = load_scenario(str(path))
        assert loaded.gate_G == 1.5
        assert loaded.run.n == 500
        assert loaded.run.master_seed == 7

    def test_numpy_integer_seed_round_trips(self):
        config = ScenarioConfig(run=RunSpec(n=np.int64(500), master_seed=np.uint64(5)))
        loaded = scenario_from_dict(json.loads(config.to_json()))
        assert loaded.run.n == 500 and type(loaded.run.n) is int
        assert loaded.run.master_seed == 5 and type(loaded.run.master_seed) is int

    @pytest.mark.parametrize("n", [2.7, 2.0, 0, 1, -5, True, "100"])
    def test_invalid_shot_count_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            RunSpec(n=n)
        with pytest.raises(ValueError, match="at least 2"):
            scenario_from_dict({"run": {"n": n}})

    def test_shot_count_bounded_at_2_to_the_53(self):
        # float64 holds every shot count up to 2**53 exactly
        assert RunSpec(n=2**53).n == scenario_from_dict({"run": {"n": 2**53}}).run.n == 2**53
        message = r"run n must be at most 2\*\*53, got 9007199254740993"
        with pytest.raises(ValueError, match=message):
            RunSpec(n=2**53 + 1)
        with pytest.raises(ValueError, match=message):
            scenario_from_dict({"run": {"n": 2**53 + 1}})
        with pytest.raises(ValueError, match=message):
            main(["conditional", "--trajectories", str(2**53 + 1)])

    def test_empty_document_is_the_default_scenario(self):
        assert scenario_from_dict({}) == ScenarioConfig()

    @pytest.mark.parametrize(
        "doc, expected",
        [
            ({"gate": {"G": 1.5}}, ScenarioConfig(gate_G=1.5)),
            ({"gate": {"squeezing_dB_B": -3}}, ScenarioConfig(squeezing_dB_B=-3.0)),
            ({"imperfections": {"visibility": 0.9}},
             ScenarioConfig(imperfections=ImperfectionModel(visibility=0.9))),
            ({"run": {"n": 500}}, ScenarioConfig(run=RunSpec(n=500))),
            ({"output": {"path": "out.csv"}}, ScenarioConfig(output=OutputSpec("out.csv"))),
        ],
        ids=["G", "squeezing", "imperfection", "n", "output"],
    )
    def test_one_key_keeps_every_other_default(self, doc, expected):
        assert scenario_from_dict(doc) == expected

    def test_given_squeezing_values_become_floats(self):
        config = scenario_from_dict({"gate": {"squeezing_dB_A": -3}})
        assert type(config.squeezing_dB_A) is float

    @pytest.mark.parametrize("command", ["vacuum-spectra", "transfer", "conditional", "reproduce-table"])
    def test_inputs_section_rejected(self, tmp_path, command):
        # every subcommand drives the vacuum, and no output reads an input mean
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"inputs": [{"kind": "coherent", "amplitude": 3.0}, {}]}))
        with pytest.raises(ValueError, match=r"unknown scenario keys: \['inputs'\]"):
            main([command, "--config", str(path)])
        with pytest.raises(TypeError):
            ScenarioConfig(inputs=())

    @pytest.mark.parametrize("command", ["vacuum-spectra", "transfer", "conditional", "reproduce-table"])
    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_empty_csv_path_rejected(self, tmp_path, monkeypatch, capsys, route, command):
        # an empty path is not "no path": it fails before anything runs
        monkeypatch.chdir(tmp_path)
        if route == "flag":
            argv = [command, "--csv", ""]
        else:
            Path("scenario.json").write_text(json.dumps({"output": {"path": ""}}))
            argv = [command, "--config", "scenario.json"]
        with pytest.raises(ValueError, match="output.path must not be empty"):
            main(argv)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command", [cmd_vacuum_spectra, cmd_transfer, cmd_conditional, cmd_reproduce_table]
    )
    def test_library_route_reads_the_checked_output_path(self, tmp_path, monkeypatch, command):
        # a command has no path argument of its own: it writes to the
        # scenario's output path, which cannot be empty and cannot be set
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError):
            command(ScenarioConfig(), csv_path="")
        with pytest.raises(ValueError, match="output.path must not be empty"):
            replace(ScenarioConfig(), output=OutputSpec(""))
        config = ScenarioConfig()
        with pytest.raises(FrozenInstanceError):
            config.output.path = ""
        command(config)
        assert list(tmp_path.iterdir()) == []
        command(replace(config, output=OutputSpec("out.csv")))
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize(
        "assign",
        [
            lambda config: setattr(config.run, "mode", "ensemble"),
            lambda config: setattr(config.run, "n", 1),
            lambda config: setattr(config.output, "path", ""),
        ],
        ids=["mode", "n", "path"],
    )
    def test_run_and_output_fields_cannot_be_set_past_their_checks(self, assign):
        # the checks run at construction only: an assignment would skip them
        config = ScenarioConfig()
        with pytest.raises(FrozenInstanceError):
            assign(config)
        assert config == ScenarioConfig()

    def test_csv_output_section_writes_the_csv(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"output": {"path": str(csv)}}))
        assert main(["transfer", "--config", str(path)]) == 0
        assert csv.read_text().startswith("case,excited,")

    def test_unknown_imperfection_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"imperfections": {"sideband_loss": 0.1}})

    @pytest.mark.parametrize(
        "name,value",
        [
            ("feedforward_electronic_gain_error", "NaN"),
            ("feedforward_electronic_gain_error", "Infinity"),
            ("dark_noise_dB_below_shot", "NaN"),
        ],
    )
    def test_non_finite_budget_rejected(self, name, value):
        # JSON NaN and Infinity load as floats and stop at the budget boundary
        doc = json.loads(f'{{"imperfections": {{"{name}": {value}}}}}')
        with pytest.raises(ValueError, match=name):
            scenario_from_dict(doc)

    def test_ideal_budget_is_strict_json(self):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        config = ScenarioConfig(imperfections=ImperfectionModel.ideal())
        doc = json.loads(config.to_json(), parse_constant=refuse)
        assert doc["imperfections"]["dark_noise_dB_below_shot"] is None
        assert scenario_from_dict(doc) == config
        assert scenario_from_dict(doc).imperfections.dark_variance == 0.0

    @pytest.mark.parametrize(
        "section, key",
        [("imperfections", f.name) for f in fields(ImperfectionModel)
         if f.name != "dark_noise_dB_below_shot"]
        + [("gate", "squeezing_dB_A")],
    )
    def test_null_is_no_dark_noise_only(self, section, key):
        with pytest.raises(ValueError, match=key):
            scenario_from_dict({section: {key: None}})

    def test_infinite_dark_noise_is_no_dark_noise(self):
        doc = json.loads('{"imperfections": {"dark_noise_dB_below_shot": Infinity}}')
        config = scenario_from_dict(doc)
        assert config.imperfections.dark_variance == 0.0

    @pytest.mark.parametrize(
        "doc",
        [
            {"bogus": 1},
            {"gate": {"squeezing_db_A": -9}},
            {"run": {"modee": "trajectories"}},
            {"run": {"seed": 3}},
            {"inputs": [{"kind": "vacuum", "phase": 0.0}, {}]},
            {"output": {"fmt": "csv"}},
            {"output": {"format": "csv", "path": "out.csv"}},
        ],
        ids=["scenario-bogus", "gate-squeezing_db_A", "run-modee", "run-seed", "scenario-inputs",
             "output-fmt", "output-format"],
    )
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            # JSON booleans and numeric strings are not numbers
            ({"gate": {"G": "1.5"}}, "gate key 'G' must be a number, got '1.5'"),
            ({"gate": {"G": True}}, "gate key 'G' must be a number, got True"),
            ({"gate": {"squeezing_dB_A": "-3"}}, "gate key 'squeezing_dB_A' must be a number, got '-3'"),
            ({"imperfections": {"visibility": True}}, "imperfection key 'visibility' must be a number"),
            ({"imperfections": {"feedforward_electronic_gain_error": False}},
             "imperfection key 'feedforward_electronic_gain_error' must be a number, got False"),
            ({"gate": {"squeezing_dB_B": True}}, "gate key 'squeezing_dB_B' must be a number, got True"),
            ({"imperfections": {"loss_placement": 3}},
             "imperfection key 'loss_placement' must be a string, got 3"),
            ({"run": {"mode": True}}, "run key 'mode' must be a string, got True"),
            ({"output": {"path": False}}, "output key 'path' must be a string or null, got False"),
            ({"output": {"path": 7}}, "output key 'path' must be a string or null, got 7"),
            # a document and each section are objects
            ([], "scenario must be a JSON object"),
            ({"gate": 5}, "scenario key 'gate' must be an object, got 5"),
            ({"gate": "R"}, "scenario key 'gate' must be an object, got 'R'"),
            ({"imperfections": []}, "scenario key 'imperfections' must be an object"),
            ({"run": {"mode": None}}, "run key 'mode' must be a string, got None"),
            ({"run": []}, "scenario key 'run' must be an object, got \\[\\]"),
            ({"output": "out.csv"}, "scenario key 'output' must be an object, got 'out.csv'"),
            ({"run": {"mode": 1}}, "run key 'mode' must be a string, got 1"),
        ],
        ids=[
            "gate-G-string", "gate-G-bool", "gate-squeezing_dB_A-string", "imperfections-visibility-bool",
            "imperfections-feedforward_electronic_gain_error-bool", "gate-squeezing_dB_B-bool",
            "imperfections-loss_placement-int", "run-mode-bool", "output-path-bool", "output-path-int",
            "scenario-list", "scenario-gate-int", "scenario-gate-string", "scenario-imperfections-list",
            "run-mode-null", "scenario-run-list", "scenario-output-string", "run-mode-int",
        ],
    )
    def test_wrong_json_type_names_section_and_key(self, doc, message):
        with pytest.raises(ValueError, match=message):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("seed", [1.5, 2**64, -1, True])
    def test_invalid_master_seed_rejected(self, seed, tmp_path):
        # every way in names the key as a scenario file writes it
        with pytest.raises(ValueError, match="master_seed"):
            RunSpec(master_seed=seed)
        with pytest.raises(ValueError, match="master_seed"):
            scenario_from_dict({"run": {"master_seed": seed}})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"run": {"master_seed": seed}}))
        with pytest.raises(ValueError, match="master_seed"):
            main(["transfer", "--config", str(path)])

    @pytest.mark.parametrize("command", ["vacuum-spectra", "transfer", "conditional", "reproduce-table"])
    def test_reflectivity_key_rejected(self, tmp_path, capsys, command):
        # the gate is named by its gain alone: R = 0.25 is G = 1.5
        doc = {"gate": {"R": 0.25}}
        with pytest.raises(ValueError, match=r"unknown gate keys: \['R'\]"):
            scenario_from_dict(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"unknown gate keys: \['R'\]"):
            main([command, "--config", str(path)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["vacuum-spectra", "transfer", "conditional", "reproduce-table"])
    def test_g_grid_key_rejected(self, tmp_path, capsys, command):
        # the rescaling gains are metrics.DEFAULT_G_GRID, which no scenario sets
        doc = {"run": {"g_grid": {"min": -1.0, "max": 1.0, "step": 0.1}}}
        with pytest.raises(ValueError, match=r"unknown run keys: \['g_grid'\]"):
            scenario_from_dict(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"unknown run keys: \['g_grid'\]"):
            main([command, "--config", str(path)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "value",
        [
            {"min": -2.0, "max": 2.0, "step": 0.01},
            {"min": 0.5, "max": 0.5, "step": 0.1},
            {"min": -0.0, "max": 1.0, "step": 0.5},
            {"min": -1.0, "max": 1.0, "step": math.nan},
            {"min": -1.0, "max": math.nan, "step": 0.1},
            {"min": -math.inf, "max": 1.0, "step": 0.1},
            {"min": -1.0, "max": 1.0, "step": math.inf},
            {"min": 1.0, "max": -1.0, "step": 0.1},
            {"min": -1.0, "max": 1.0, "step": 0.0},
            {"min": -1.0, "max": 1.0, "step": -0.1},
            {"min": -1e200, "max": 1e200, "step": 1e-200},
            {"max": 1.0},
            {},
            5,
            None,
            {"min": "-1"},
            {"max": True},
        ],
        ids=[
            "as-written-by-to_json", "one-point", "through-minus-zero", "nan-step", "nan-max",
            "infinite-min", "infinite-step", "min-above-max", "zero-step", "negative-step",
            "huge", "partial", "empty", "not-an-object", "null", "string-bound", "bool-bound",
        ],
    )
    def test_every_g_grid_value_fails_as_an_unknown_key(self, value):
        # the key is refused before its value is read: no grid is built, no
        # bound or type message stands in for the one naming the key
        with pytest.raises(ValueError, match=r"^unknown run keys: \['g_grid'\]$"):
            scenario_from_dict({"run": {"mode": "covariance", "g_grid": value}})

    @pytest.mark.parametrize("name", ["g_min", "g_max", "g_step"])
    def test_retired_grid_fields_are_not_run_fields(self, name):
        with pytest.raises(TypeError, match=name):
            RunSpec(**{name: 0.1})
        with pytest.raises(TypeError, match=name):
            replace(RunSpec(), **{name: 0.1})
        assert not hasattr(RunSpec(), name)

    def test_run_is_mode_shots_and_seed(self):
        assert [f.name for f in fields(RunSpec)] == ["mode", "n", "master_seed"]
        with pytest.raises(TypeError):
            RunSpec(g_step=0.1)
        assert json.loads(ScenarioConfig().to_json())["run"] == {
            "mode": "covariance", "n": 100000, "master_seed": 20080901,
        }

    def test_both_r_and_g_rejected(self):
        # a G beside it does not let the loader drop the R
        with pytest.raises(ValueError, match=r"unknown gate keys: \['R'\]"):
            scenario_from_dict({"gate": {"R": 0.25, "G": 1.0}})

    @pytest.mark.parametrize("name", ["gate_G", "squeezing_dB_B"])
    def test_missing_gate_value_is_a_type_error(self, name):
        # with one gate field there is no exactly-one rule: None is not a number
        with pytest.raises(TypeError):
            ScenarioConfig(**{name: None})

    @pytest.mark.parametrize("name", ["squeezing_dB_A", "squeezing_dB_B"])
    @pytest.mark.parametrize("db", [6.0, 1e-9, float("nan"), float("inf"), float("-inf")])
    def test_positive_or_non_finite_squeezing_rejected(self, name, db):
        with pytest.raises(ValueError, match=f"{name} = {db} must be finite and at most 0 dB"):
            ScenarioConfig(**{name: db})

    @pytest.mark.parametrize(
        "gate, message",
        [
            ({"G": -1.0}, "gain G = -1.0 must be finite and non-negative"),
            ({"G": math.nan}, "gain G = nan must be finite and non-negative"),
        ],
        ids=["negative-G", "nan-G"],
    )
    def test_bad_gate_fails_at_load(self, gate, message, tmp_path, monkeypatch, capsys):
        with pytest.raises(ValueError, match=message):
            scenario_from_dict({"gate": gate})
        # main must stop while loading, before it checks or runs the command
        def loaded(*args):
            raise AssertionError("the scenario loaded")

        monkeypatch.setattr(cli, "_reject_ignored", loaded)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"gate": gate}))
        with pytest.raises(ValueError, match=message):
            main(["vacuum-spectra", "--config", str(path)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name", ["squeezing_dB_A", "squeezing_dB_B"])
    def test_squeezing_beyond_the_oracle_grid_rejected(self, name):
        # -60 dB, the deepest point oracle-check verifies, still loads
        assert scenario_from_dict({"gate": {name: -60.0}}).gate_params() is not None
        for db in (-60.000001, -200.0):
            message = f"{name} = {db} is below -60 dB, the deepest squeezing oracle-check verifies"
            with pytest.raises(ValueError, match=message):
                scenario_from_dict({"gate": {name: db}})
            with pytest.raises(ValueError, match=message):
                ScenarioConfig(**{name: db})

    def test_vacuum_ancillas_accepted(self):
        assert ScenarioConfig(squeezing_dB_A=0.0, squeezing_dB_B=-0.0).gate_params().r_a == 0.0

    def test_positive_squeezing_in_file_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"gate": {"squeezing_dB_B": 3.0}}))
        with pytest.raises(ValueError, match="squeezing_dB_B = 3.0 must be finite"):
            main(["conditional", "--config", str(path)])

    def test_input_state_construction(self):
        # the input state is the two-mode vacuum, which the benchmark's check reads
        state = ScenarioConfig().input_state()
        want = gaussian.vacuum_state(2)
        assert np.array_equal(state.mean, want.mean)
        assert np.array_equal(state.cov, want.cov)


class TestVacuumSpectra:
    def test_ideal_values_in_table(self):
        text = cmd_vacuum_spectra(lossless_config())
        # ideal rows: +3.01 dB on the probe quadratures, 0 dB on the signals
        row = next(l for l in text.splitlines() if "infinite_squeezing" in l)
        assert "3.0103" in row and "0.0000" in row
        row = next(l for l in text.splitlines() if l.strip().startswith("configured"))
        assert "0.5745" in row  # 10*log10(1.14142)

    def test_r_one_all_zero(self):
        # G = 0 is R = 1
        config = lossless_config(gate_G=0.0)
        text = cmd_vacuum_spectra(config)
        for line in text.splitlines()[2:]:
            for token in line.split()[1:]:
                assert float(token) == pytest.approx(0.0, abs=1e-9)

    def test_byte_identical_output(self):
        assert cmd_vacuum_spectra(ScenarioConfig()) == cmd_vacuum_spectra(ScenarioConfig())

    def test_csv_written(self, tmp_path):
        path = tmp_path / "spectra.csv"
        cmd_vacuum_spectra(replace(ScenarioConfig(), output=OutputSpec(str(path))))
        lines = path.read_text().splitlines()
        assert lines[0] == "family,quadrature,variance,dB"
        assert len(lines) == 17  # 4 families x 4 quadratures + header


class TestTransfer:
    def test_amplitude_routing(self):
        text = cmd_transfer(lossless_config())
        cases = {l[1]: l for l in (line for line in text.splitlines() if line.startswith("("))}
        assert "carried by x1, x2" in cases["a"]
        assert "carried by x2" in cases["b"] and "x1" not in cases["b"].split("->")[1]
        assert "carried by p1" in cases["c"] and "p2" not in cases["c"].split("->")[1]
        assert "carried by p1, p2" in cases["d"]

    def test_transfer_rows(self):
        text = cmd_transfer(lossless_config())
        row = next(l for l in text.splitlines() if l.startswith("sector x"))
        assert "T_S=0.87610" in row
        assert "T_P=0.48685" in row

    @pytest.mark.parametrize("mode", ["covariance", "trajectories"])
    def test_one_propagation_and_one_map(self, monkeypatch, mode):
        # the four excitation cases and both sectors' T share one vacuum
        # output, propagated or sampled, and one quadrature map
        calls = dict.fromkeys(("run_covariance", "run_ensemble", "circuit_quadrature_map"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, metrics):
            for name, fn in (("run_covariance", run_covariance),
                             ("run_ensemble", run_ensemble),
                             ("circuit_quadrature_map", circuit_quadrature_map)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, fn))
        run = RunSpec(mode="trajectories", n=2000, master_seed=5) if mode == "trajectories" else RunSpec()
        cli._vacuum_ensemble.cache_clear()
        cmd_transfer(ScenarioConfig(run=run))
        propagated = mode == "covariance"
        assert calls == {
            "run_covariance": int(propagated),
            "run_ensemble": int(not propagated),
            "circuit_quadrature_map": 1,
        }

    @pytest.mark.parametrize("gain", [1.0, 1.5])
    def test_trajectory_t_is_sampled(self, gain):
        # trajectory mode prints T from the ensemble covariance: it differs
        # from the exact T, by less than 5 standard errors T * sqrt(2 / (n - 1))
        n = 20000

        def printed(config):
            text = cmd_transfer(config)
            return {
                sector: tuple(float(line.split(f"{name}=")[1].split()[0]) for name in ("T_S", "T_P"))
                for sector in ("x", "p")
                for line in text.splitlines()
                if line.startswith(f"sector {sector}:")
            }

        exact = printed(ScenarioConfig(gate_G=gain))
        config = ScenarioConfig(gate_G=gain, run=RunSpec(mode="trajectories", n=n, master_seed=7))
        sampled = printed(config)
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        cov = run_ensemble(circuit, gaussian.vacuum_state(2), n, 7).cov
        qmap = circuit_quadrature_map(circuit)
        for sector in ("x", "p"):
            want = metrics.transfer_coefficients(qmap, cov, sector)
            assert sampled[sector] == tuple(round(t, 5) for t in want)
            for t_exact, t_sampled in zip(exact[sector], sampled[sector]):
                assert t_sampled != t_exact
                assert abs(t_sampled - t_exact) < 5 * t_exact * math.sqrt(2 / (n - 1))

    @pytest.mark.parametrize("mode_name", ["trajectories", "covariance"])
    def test_one_ensemble_serves_every_excitation(self, mode_name):
        # the vacuum output mean plus the map column equals the separate
        # ensemble at each excitation; in covariance mode it equals the
        # propagated excitation bit for bit
        config = ScenarioConfig(run=RunSpec(mode=mode_name, n=3000, master_seed=11))
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
        vacuum_mean, _ = _vacuum_output(config, circuit)
        qmap = circuit_quadrature_map(circuit)
        for _, label in _EXCITATION_CASES:
            mean = vacuum_mean + amplitude * qmap.matrix[:, qmap.columns.index(f"{label}_in")]
            quad, mode = label[0], int(label[1]) - 1
            dx, dp = (amplitude, 0.0) if quad == "x" else (0.0, amplitude)
            state = gaussian.displace(gaussian.vacuum_state(2), mode, dx, dp)
            if mode_name == "covariance":
                assert np.array_equal(mean, run_covariance(circuit, state).mean)
            else:
                separate = run_ensemble(circuit, state, 3000, 11).mean
                assert np.max(np.abs(mean - separate)) <= 1e-12


# a pre-entry budget with more dark noise, in-loop loss and a gain error
_CSV_BUDGET = ImperfectionModel(
    loss_placement="pre_entry",
    dark_noise_dB_below_shot=12.0,
    extra_in_loop_loss=0.03,
    feedforward_electronic_gain_error=-0.02,
)
_CSV_SCENARIOS = {
    "default": ScenarioConfig(),
    "gain-1.5-budget": ScenarioConfig(gate_G=1.5, imperfections=_CSV_BUDGET),
}
GOLDEN_CSV = {
    ("vacuum-spectra", "default"): """\
family,quadrature,variance,dB
input,x1,1.000000000,0.000000000
input,p1,1.000000000,0.000000000
input,x2,1.000000000,0.000000000
input,p2,1.000000000,0.000000000
infinite_squeezing,x1,1.000000000,0.000000000
infinite_squeezing,p1,2.000000000,3.010299957
infinite_squeezing,x2,2.000000000,3.010299957
infinite_squeezing,p2,1.000000000,0.000000000
configured,x1,1.142800226,0.579703175
configured,p1,2.003404941,3.017687405
configured,x2,2.003404941,3.017687405
configured,p2,1.142800226,0.579703175
vacuum_ancilla_reference,x1,1.447213595,1.605326337
vacuum_ancilla_reference,p1,2.170820393,3.366238928
vacuum_ancilla_reference,x2,2.170820393,3.366238928
vacuum_ancilla_reference,p2,1.447213595,1.605326337
""",
    ("transfer", "default"): """\
case,excited,mean_x1,mean_p1,mean_x2,mean_p2
a,x1,9.509488281,0.000000000,9.456446705,0.000000000
b,x2,-0.053041577,0.000000000,9.509488281,0.000000000
c,p1,0.000000000,9.509488281,0.000000000,0.053041577
d,p2,0.000000000,-9.456446705,0.000000000,9.509488281
T_x,,0.791305123,0.446362003,1.237667127,
T_p,,0.791305123,0.446362003,1.237667127,
""",
    ("vacuum-spectra", "gain-1.5-budget"): """\
family,quadrature,variance,dB
input,x1,1.000000000,0.000000000
input,p1,1.000000000,0.000000000
input,x2,1.000000000,0.000000000
input,p2,1.000000000,0.000000000
infinite_squeezing,x1,1.000000000,0.000000000
infinite_squeezing,p1,3.250000000,5.118833610
infinite_squeezing,x2,3.250000000,5.118833610
infinite_squeezing,p2,1.000000000,0.000000000
configured,x1,1.200732879,0.794464029
configured,p1,3.280341088,5.159190037
configured,x2,3.280341088,5.159190037
configured,p2,1.200732879,0.794464029
vacuum_ancilla_reference,x1,1.600000000,2.041199827
vacuum_ancilla_reference,p1,3.400000000,5.314789170
vacuum_ancilla_reference,x2,3.400000000,5.314789170
vacuum_ancilla_reference,p2,1.600000000,2.041199827
""",
    ("transfer", "gain-1.5-budget"): """\
case,excited,mean_x1,mean_p1,mean_x2,mean_p2
a,x1,9.225746921,0.000000000,13.726350988,0.000000000
b,x2,-0.112269394,0.000000000,9.225746921,0.000000000
c,p1,0.000000000,9.225746921,0.000000000,0.112269394
d,p2,0.000000000,-13.726350988,0.000000000,9.225746921
T_x,,0.708853799,0.574369270,1.283223068,
T_p,,0.708853799,0.574369270,1.283223068,
""",
    ("reproduce-table", "default"): """\
G,metric,sector,simulated,published,bar,verdict,residual_bars
1.0,T_sum,x,1.237667127,1.20,0.05,PASS,0.7533
1.0,T_sum,p,1.237667127,1.10,0.05,FAIL,2.7533
1.0,V_SP,x,0.773109376,0.75,0.01,FAIL,2.3109
1.0,V_SP,p,0.773109376,0.78,0.01,PASS,0.6891
1.5,T_sum,x,1.384522595,1.42,0.06,PASS,0.5913
1.5,T_sum,p,1.384522595,1.27,0.05,FAIL,2.2905
1.5,V_SP,x,0.637911928,0.61,0.01,FAIL,2.7912
1.5,V_SP,p,0.637911928,0.63,0.01,PASS,0.7912
""",
}

# sha256 of (text, CSV) of covariance-mode ``conditional``, 401 g values per
# sector, recorded before the commands split into a result and its renderers
CONDITIONAL_SHA256 = {
    "default": (
        "95e2fa9cdda445dacfd6fe82ec4cc05b6e22a5b582e717fa660a6a021bb74055",
        "ee03365cebfc9e3ffd8d1b69fa031b0b51ba28e0e5405da5b0b1411fdfb768cb",
    ),
    "gain-1.5-budget": (
        "3fd5f91394c5b3725a1bdd0a5976a70485e4ec4b7175bf27eabf3371447907e8",
        "c1eb076219eb8f76a9d8c02a3708a26214f7e41e860482815c9732737c0f5972",
    ),
}


class TestCsvBytes:
    """The full CSV of the commands that build their rows only when a CSV is written."""

    @pytest.mark.parametrize("command, scenario", sorted(GOLDEN_CSV))
    def test_csv_bytes(self, command, scenario, tmp_path):
        run = {
            "vacuum-spectra": cmd_vacuum_spectra,
            "transfer": cmd_transfer,
            "reproduce-table": cmd_reproduce_table,
        }[command]
        config = _CSV_SCENARIOS[scenario]
        path = tmp_path / "out.csv"
        text = run(replace(config, output=OutputSpec(str(path))))
        assert path.read_bytes() == GOLDEN_CSV[command, scenario].encode("utf-8")
        assert run(config) == text

    @pytest.mark.parametrize("scenario", sorted(CONDITIONAL_SHA256))
    def test_conditional_digests(self, scenario, tmp_path):
        path = tmp_path / "sweep.csv"
        text = cmd_conditional(replace(_CSV_SCENARIOS[scenario], output=OutputSpec(str(path))))
        digests = tuple(
            hashlib.sha256(data).hexdigest() for data in (text.encode("utf-8"), path.read_bytes())
        )
        assert digests == CONDITIONAL_SHA256[scenario]


class TestConditional:
    def test_verdicts_and_minima(self):
        text = cmd_conditional(lossless_config())
        assert "V_SP=0.73596" in text
        assert "-> entangled" in text

    def test_vacuum_ancillas_not_certified(self):
        config = replace(lossless_config(), squeezing_dB_A=0.0, squeezing_dB_B=0.0)
        text = cmd_conditional(config)
        assert "not certified" in text

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "sweep.csv"
        cmd_conditional(replace(ScenarioConfig(), output=OutputSpec(str(path))))
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == [
            "sector", "g", "simulated", "simulated_dB", "ideal", "finite_squeezing",
            "vacuum_ancilla", "witness_bound_per_sector",
        ]
        assert len(lines) == 1 + 2 * 401  # both sectors, 401 grid points

    def test_zero_of_a_grid_through_zero_prints_unsigned(self, tmp_path):
        # np.round takes arange's noise near 0 to -0.0, which wrote "x,-0.0000,..."
        grid = metrics.DEFAULT_G_GRID
        assert grid[200] == 0.0 and not np.signbit(grid[200])
        path = tmp_path / "sweep.csv"
        cmd_conditional(ScenarioConfig(output=OutputSpec(str(path))))
        lines = path.read_text().splitlines()
        assert lines[201].startswith("x,0.0000,") and lines[602].startswith("p,0.0000,")
        assert not [line for line in lines if line.split(",")[1] == "-0.0000"]

    @pytest.mark.parametrize("flags", [[], ["--no-imperfections"]], ids=["default", "ideal"])
    def test_zero_gain_optima_print_unsigned(self, capsys, flags):
        # the ideal budget's p-sector g_opt was -0.0 and the default budget's
        # x-sector one about -2e-19; both printed as "-0.00000"
        assert main(["conditional", "--gain", "0", *flags]) == 0
        out = capsys.readouterr().out
        assert "sector x: V_SP=1.00000 at g_opt=0.00000" in out
        assert "sector p: V_SP=1.00000 at g_opt=0.00000" in out
        assert "witness at g=0.00000:" in out
        assert "-0.00000" not in out

    def test_reference_curves_only_for_csv(self, monkeypatch, tmp_path):
        # the lossless reference maps feed only the CSV rows
        calls = []
        reference_sweeps = metrics.reference_sweeps

        def counted(*args, **kwargs):
            calls.append(args)
            return reference_sweeps(*args, **kwargs)

        monkeypatch.setattr(metrics, "reference_sweeps", counted)
        cmd_conditional(ScenarioConfig())
        assert len(calls) == 0
        cmd_conditional(replace(ScenarioConfig(), output=OutputSpec(str(tmp_path / "sweep.csv"))))
        assert len(calls) == 1

    def test_csv_builds_each_reference_map_once(self, monkeypatch, tmp_path):
        # both sectors' curves read one build of each lossless map and of its moments
        calls = {"ideal_qnd_map": 0, "finite_squeezing_map": 0, "moments_from_map": 0}

        def counted(name):
            function = getattr(metrics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(metrics, name, counted(name))
        cmd_conditional(replace(ScenarioConfig(), output=OutputSpec(str(tmp_path / "sweep.csv"))))
        assert calls == {"ideal_qnd_map": 1, "finite_squeezing_map": 2, "moments_from_map": 3}

    @pytest.mark.parametrize("mode", ["covariance", "trajectories"])
    def test_csv_leaves_text_unchanged(self, tmp_path, mode):
        config = ScenarioConfig(run=RunSpec(mode=mode, n=2000, master_seed=17))
        path = tmp_path / "sweep.csv"
        text = cmd_conditional(config)
        # each run draws its own ensemble rather than reading the cached one
        cli._vacuum_ensemble.cache_clear()
        assert text == cmd_conditional(replace(config, output=OutputSpec(str(path))))

        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        state = config.input_state()
        if mode == "covariance":
            cov = run_covariance(circuit, state).cov
        else:
            cov = run_ensemble(circuit, state, 2000, 17).cov
        grid = metrics.DEFAULT_G_GRID
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 2 * len(grid)
        for k, sector in enumerate(("x", "p")):
            simulated = metrics.cv_sweep(cov, sector, grid)
            sector_rows = rows[k * len(grid):(k + 1) * len(grid)]
            assert [row[0] for row in sector_rows] == [sector] * len(grid)
            assert [row[2] for row in sector_rows] == [f"{v:.9f}" for v in simulated]

    @pytest.mark.parametrize("mode", ["covariance", "trajectories"])
    def test_csv_g_column_is_the_constant_grid(self, tmp_path, mode):
        # both routes write each sector's rows at DEFAULT_G_GRID's 401 gains
        config = ScenarioConfig(run=RunSpec(mode=mode, n=2000, master_seed=17))
        path = tmp_path / "sweep.csv"
        cmd_conditional(replace(config, output=OutputSpec(str(path))))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        want = [f"{g:.4f}" for g in metrics.DEFAULT_G_GRID]
        assert [row[1] for row in rows] == want + want


@pytest.fixture
def evaluations(monkeypatch):
    """Every report ``metrics.evaluate_gate`` returns and the gain of every ``metrics.duan_simon`` scan."""
    seen = {"reports": [], "scans": []}
    evaluate_gate, duan_simon = metrics.evaluate_gate, metrics.duan_simon

    def evaluated(*args, **kwargs):
        seen["reports"].append(evaluate_gate(*args, **kwargs))
        return seen["reports"][-1]

    def scanned(cov, g):
        seen["scans"].append(g)
        return duan_simon(cov, g)

    monkeypatch.setattr(metrics, "evaluate_gate", evaluated)
    monkeypatch.setattr(metrics, "duan_simon", scanned)
    return seen


class TestOneRoute:
    """``transfer`` and ``conditional`` print the figures of one ``evaluate_gate`` report each."""

    @pytest.mark.parametrize("mode", ["covariance", "trajectories"])
    def test_one_report_per_command(self, evaluations, mode):
        # conditional scans the witness once, at its report's x-sector g_opt,
        # and transfer, which prints no witness, scans none
        config = ScenarioConfig(run=RunSpec(mode=mode, n=3000, master_seed=13))
        cli._vacuum_ensemble.cache_clear()
        cmd_transfer(config)
        assert len(evaluations["reports"]) == 1 and evaluations["scans"] == []
        cmd_conditional(config)
        assert len(evaluations["reports"]) == 2
        assert evaluations["scans"] == [evaluations["reports"][1].sectors["x"].g_opt]
        if mode == "covariance":
            circuit = build_qnd_gate(config.gate_params(), config.imperfections)
            want = run_covariance(circuit, gaussian.vacuum_state(2)).cov
            assert all(np.array_equal(report.cov, want) for report in evaluations["reports"])


def trajectory_config(**kwargs):
    run = {"mode": "trajectories", "n": 12293, "master_seed": 23, **kwargs.pop("run", {})}
    return ScenarioConfig(run=RunSpec(**run), **kwargs)


class TestSharedEnsemble:
    @pytest.fixture
    def draws(self, monkeypatch):
        """The (n, master_seed) of every ensemble the CLI draws, from an empty cache."""
        drawn = []

        def counted(circuit, state, n, master_seed):
            drawn.append((n, master_seed))
            return run_ensemble(circuit, state, n, master_seed)

        monkeypatch.setattr(cli, "run_ensemble", counted)
        cli._vacuum_ensemble.cache_clear()
        return drawn

    def test_transfer_and_conditional_draw_once(self, draws, monkeypatch):
        # conditional makes transfer's request and reads its ensemble back,
        # and each command builds its gate once
        builds = []

        def counted(*args):
            builds.append(args)
            return build_qnd_gate(*args)

        monkeypatch.setattr(cli, "build_qnd_gate", counted)
        cmd_transfer(trajectory_config())
        cmd_conditional(trajectory_config())
        assert draws == [(12293, 23)]
        assert len(builds) == 2

    def test_both_reports_read_the_shared_ensemble(self, draws, evaluations):
        # each command's report holds the cached ensemble's covariance itself
        cmd_transfer(trajectory_config())
        cmd_conditional(trajectory_config())
        assert draws == [(12293, 23)]
        config = trajectory_config()
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        shared = cli._vacuum_ensemble(circuit, 12293, 23)
        assert [report.cov is shared.cov for report in evaluations["reports"]] == [True, True]

    def test_equal_working_point_shares_one_result(self, draws):
        # two scenarios built apart, equal in every field
        config = trajectory_config(squeezing_dB_A=-4.0)
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        first = _vacuum_output(config, circuit)
        again = _vacuum_output(trajectory_config(squeezing_dB_A=-4.0), circuit)
        assert draws == [(12293, 23)]
        assert all(a is b for a, b in zip(first, again))

    @pytest.mark.parametrize(
        "change",
        [
            {"run": {"n": 12294}},
            {"run": {"master_seed": 24}},
            {"gate_G": 1.5},
            {"squeezing_dB_B": -4.0},
            {"imperfections": ImperfectionModel(visibility=0.97)},
            {"imperfections": ImperfectionModel(loss_placement="pre_entry")},
        ],
        ids=["n", "seed", "gain", "squeezing", "visibility", "placement"],
    )
    def test_other_working_point_draws_its_own(self, draws, change):
        base = trajectory_config()
        _vacuum_output(base, build_qnd_gate(base.gate_params(), base.imperfections))
        config = trajectory_config(**change)
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        mean, cov = _vacuum_output(config, circuit)
        assert len(draws) == 2
        fresh = run_ensemble(circuit, gaussian.vacuum_state(2), config.run.n, config.run.master_seed)
        assert mean.tobytes() == fresh.mean.tobytes() and cov.tobytes() == fresh.cov.tobytes()

    def test_cache_is_bounded(self, draws):
        maxsize = cli._vacuum_ensemble.cache_info().maxsize
        assert maxsize is not None
        config = trajectory_config()
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        for seed in range(maxsize + 3):
            _vacuum_output(trajectory_config(run={"master_seed": seed}), circuit)
            assert cli._vacuum_ensemble.cache_info().currsize == min(seed + 1, maxsize)
        # the newest working points are held, the oldest drawn again
        _vacuum_output(trajectory_config(run={"master_seed": maxsize + 2}), circuit)
        assert len(draws) == maxsize + 3
        _vacuum_output(trajectory_config(run={"master_seed": 0}), circuit)
        assert len(draws) == maxsize + 4

    def test_budgets_with_equal_circuits_share_one_draw(self, draws):
        # in_arms builds post_exit's element list: the cache keys on the circuit
        outputs = []
        for placement in ("in_arms", "post_exit"):
            config = trajectory_config(imperfections=ImperfectionModel(loss_placement=placement))
            circuit = build_qnd_gate(config.gate_params(), config.imperfections)
            outputs.append((circuit, _vacuum_output(config, circuit)))
        assert outputs[0][0] == outputs[1][0]
        assert draws == [(12293, 23)]
        for circuit, (mean, cov) in outputs:
            fresh = run_ensemble(circuit, gaussian.vacuum_state(2), 12293, 23)
            assert mean.tobytes() == fresh.mean.tobytes() and cov.tobytes() == fresh.cov.tobytes()

    @pytest.mark.parametrize("placement", ["post_exit", "pre_entry", "in_arms"])
    def test_zero_signs_build_identical_bytes(self, placement):
        # the gate cache keys on (params, imperfections) and the ensemble cache
        # on the circuit, whose fields compare 0.0 equal to -0.0: both signs
        # must lower to the same matrix bytes
        def matrix(params, imperfections):
            # built afresh, not read from the gate cache
            return Circuit(circuit_module._gate_elements(params, imperfections)).matrix.tobytes()

        base = ImperfectionModel(loss_placement=placement)
        for R in (0.3, 1.0):
            for db_a, db_b in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
                params = GateParams(R, squeezing_db_a=db_a, squeezing_db_b=db_b)
                plus = GateParams(R, squeezing_db_a=0.0, squeezing_db_b=0.0)
                assert params == plus
                assert matrix(params, base) == matrix(plus, base)
            for name in ("propagation_loss_per_main_mode", "dark_noise_dB_below_shot",
                         "displacement_coupler_loss", "feedforward_electronic_gain_error",
                         "extra_in_loop_loss"):
                minus = replace(base, **{name: -0.0})
                assert minus == replace(base, **{name: 0.0})
                params = GateParams(R)
                assert matrix(params, minus) == matrix(params, replace(base, **{name: 0.0}))


# sha256 of (stdout, CSV) per trajectory-mode (command, case), recorded
# when ensembles came to draw their statistics from the exact law
TRAJECTORY_SHA256 = {
    ("transfer", "seed-3"): (
        "5374449ff75236db0a8a114b65d3d59d264ca89983e8bbe82288354d2f5bc77f",
        "cd503a12d13700abf89c7212b4656c1a561760ec6f7d9596df54772b16ad702c",
    ),
    ("conditional", "seed-3"): (
        "183c2d8021e9040ddabfa035b034765a9b5796890fac7740b2d46b0eeb3d6300",
        "a6f354b673e595250504d7bf7e39dbd847c6f3f04a87b986ab96d0c89ee08305",
    ),
    ("transfer", "gain-1.5"): (
        "cc62cff5ae36744c01a24228a2768f20cc5b7709843c9c41d0fe2371d449b003",
        "8c3d2c80a0c008d823a6415f23569e511942116f415097acf9677f183fd3062f",
    ),
    ("conditional", "gain-1.5"): (
        "e7fd54c203c59093574a0060e210b992e7d98c23e5d00cd8a0c88afc21d88744",
        "0d7d9b1f10dcfd132ed73dea6b27c8c55bcf365f267c3a3b29da3d2eeaa985be",
    ),
    ("conditional", "config"): (
        "c9c28db684ac57ac4699cfc26bd8b14916eb5be18da81f6cbbb3565912fcbc45",
        "0ac311d438b73a67fb86aca1ba4180053456f49fcda0f6c6b373008b822eec21",
    ),
}


class TestTrajectoryOutputPinned:
    SCENARIO = {"run": {"mode": "trajectories", "n": 100000, "master_seed": 11}}

    @pytest.mark.parametrize(
        "order", [("transfer", "conditional"), ("conditional", "transfer")], ids="-".join
    )
    def test_stdout_and_csv_digests(self, order, tmp_path, capsys):
        # each command runs twice in one process, so the second run of every
        # working point reads the cached ensemble
        cli._vacuum_ensemble.cache_clear()
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        cases = {
            "seed-3": ["--trajectories", "100000", "--seed", "3"],
            "gain-1.5": ["--trajectories", "100001", "--gain", "1.5"],
            "config": ["--config", str(scenario)],
        }
        csv = tmp_path / "out.csv"
        for case, argv in cases.items():
            for command in order * 2:
                if (command, case) not in TRAJECTORY_SHA256:
                    continue
                assert main([command, *argv, "--csv", str(csv)]) == 0
                digests = tuple(
                    hashlib.sha256(data).hexdigest()
                    for data in (capsys.readouterr().out.encode("utf-8"), csv.read_bytes())
                )
                assert digests == TRAJECTORY_SHA256[command, case], (command, case)


# sha256 of (stdout, CSV) of ``reproduce-table --squeezing-db -60`` with and
# without the fit, recorded while the lossless row still came from a built
# lossless gate: at -60 dB that gate and the relations differ most (1.084e-13)
DEEPEST_TABLE_SHA256 = {
    "fit": (
        "9e7e9579a1938a8cd387eb90542fffcc00a797caa4f31dcb0a601cd5a1a9cfff",
        "43fe756e20241d212fef1dfa53edb5ea48ab243b649fb4d886070aff56866b9d",
    ),
    "no-fit": (
        "95c792911ca11b3dd9d186165559c2492f44ae382187d56302b02623d327a261",
        "722c0743ee4963acaa5df9ff081de26687a23ab6acb3657727d1937356427ad6",
    ),
}


class TestReproduceTable:
    def test_fit_reported_and_honest(self):
        text = cmd_reproduce_table(ScenarioConfig())
        assert "fitted extra in-loop loss" in text
        assert "PASS" in text and "FAIL" in text
        # misses must be surfaced with residuals, never silently passed
        assert "outside 2x bars" in text
        assert "residuals are reported" in text

    def test_lossless_flagged_out_of_band(self):
        text = cmd_reproduce_table(ScenarioConfig(), fit=False)
        assert "out-of-band high" in text

    def test_no_fit_mode(self):
        text = cmd_reproduce_table(ScenarioConfig(), fit=False)
        assert "no calibration fit applied" in text

    def test_fit_builds_few_gates(self, monkeypatch):
        # the fit scans its knob grid in closed form from one build per gain
        # and prints the scan's row (the lossless row reads the relations)
        builds = []
        original = metrics.build_qnd_gate
        monkeypatch.setattr(
            metrics, "build_qnd_gate", lambda *args: builds.append(args) or original(*args)
        )
        cmd_reproduce_table(ScenarioConfig())
        assert len(builds) == 2

    @pytest.mark.parametrize(
        "fit, builds, evaluations, lowerings", [(True, 2, 0, 2), (False, 2, 0, 2)]
    )
    def test_one_evaluation_per_reported_gate(
        self, fit, builds, evaluations, lowerings, monkeypatch
    ):
        # the fit builds each gain once, at knob 0, and reads the fitted
        # knob's table off that scan; without it the same scan runs at the
        # budget's own knob alone.  The lossless row reads the gate's
        # relations, so nothing is evaluated.  Each distinct gate is lowered
        # once, and its check lowers nothing: both gains at knob 0 make 2
        # circuits.  No report's witness is read, so no gain grid is scanned
        calls = {"build_qnd_gate": 0, "evaluate_gate": 0, "_lower": 0, "duan_simon": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for module in (metrics, cli):
            monkeypatch.setattr(module, "build_qnd_gate", counted("build_qnd_gate", build_qnd_gate))
        monkeypatch.setattr(metrics, "evaluate_gate", counted("evaluate_gate", metrics.evaluate_gate))
        monkeypatch.setattr(metrics, "duan_simon", counted("duan_simon", metrics.duan_simon))
        monkeypatch.setattr(circuit_module, "_lower", counted("_lower", circuit_module._lower))
        circuit_module._gate.cache_clear()
        cmd_reproduce_table(ScenarioConfig(), fit=fit)
        assert calls == {
            "build_qnd_gate": builds,
            "evaluate_gate": evaluations,
            "_lower": lowerings,
            "duan_simon": 0,
        }

    @pytest.mark.parametrize("case", sorted(DEEPEST_TABLE_SHA256))
    def test_deepest_squeezing_digests(self, case, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        flags = ["--no-fit"] if case == "no-fit" else []
        assert main(["reproduce-table", "--squeezing-db", "-60", *flags, "--csv", str(csv)]) == 0
        digests = tuple(
            hashlib.sha256(data).hexdigest()
            for data in (capsys.readouterr().out.encode("utf-8"), csv.read_bytes())
        )
        assert digests == DEEPEST_TABLE_SHA256[case]

    def test_csv_written(self, tmp_path):
        path = tmp_path / "table.csv"
        cmd_reproduce_table(replace(ScenarioConfig(), output=OutputSpec(str(path))), fit=False)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("G,metric,sector,simulated")
        assert len(lines) == 9  # 8 banded checks + header


class TestOracleCheckCommand:
    def test_passes(self):
        text = _oracle_text(_oracle_check())
        assert text.endswith("PASS")
        assert "max coefficient error" in text

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_skewed_oracle_fails(self, warm, monkeypatch, capsys):
        real = circuit_module.finite_squeezing_map

        def skewed(R, r_a, r_b):
            qmap = real(R, r_a, r_b)
            return QuadratureMap(qmap.columns, qmap.matrix + 1e-6)

        if warm:
            # a passing run first fills the lowering memo; the verdict is not kept
            assert main(["oracle-check"]) == 0
            capsys.readouterr()
        monkeypatch.setattr(circuit_module, "finite_squeezing_map", skewed)
        assert main(["oracle-check"]) == 1
        assert capsys.readouterr().out.rstrip().endswith("FAIL")

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_nan_oracle_fails(self, warm, monkeypatch, capsys):
        # a NaN at one grid point is the worst error, named, and fails;
        # every other point passes
        real = circuit_module.finite_squeezing_map

        def poisoned(R, r_a, r_b):
            qmap = real(R, r_a, r_b)
            if (R, r_a) == (0.5, gaussian.squeeze_parameter_from_db(-5.0)):
                return QuadratureMap(qmap.columns, np.full_like(qmap.matrix, np.nan))
            return qmap

        if warm:
            assert main(["oracle-check"]) == 0
            capsys.readouterr()
        monkeypatch.setattr(circuit_module, "finite_squeezing_map", poisoned)
        assert main(["oracle-check"]) == 1
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert lines[1:] == ["max coefficient error: nan at R=0.5, -5 dB", "FAIL"]


class TestMainEntry:
    def test_oracle_check_exit_code(self, capsys):
        assert main(["oracle-check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_vacuum_spectra_with_flags(self, capsys):
        assert main(["vacuum-spectra", "--gain", "1.0", "--no-imperfections"]) == 0
        out = capsys.readouterr().out
        assert "0.5745" in out

    @pytest.mark.parametrize("db", ["6", "nan", "-inf"])
    def test_squeezing_flag_outside_physics_rejected(self, db, capsys):
        with pytest.raises(ValueError, match="squeezing_dB_A = .* must be finite and at most 0 dB"):
            main(["vacuum-spectra", f"--squeezing-db={db}"])
        assert capsys.readouterr().out == ""

    def test_squeezing_flag_beyond_the_oracle_grid_rejected(self, tmp_path, capsys):
        message = "squeezing_dB_A = -200.0 is below -60 dB"
        with pytest.raises(ValueError, match=message):
            main(["conditional", "--squeezing-db", "-200"])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"gate": {"squeezing_dB_A": -200.0}}))
        with pytest.raises(ValueError, match=message):
            main(["conditional", "--config", str(path)])
        assert capsys.readouterr().out == ""
        assert main(["conditional", "--squeezing-db", "-60"]) == 0
        assert "entangled" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["flag-inf", "flag-nan", "file-infinity"])
    def test_non_finite_gain_named(self, source, tmp_path, capsys):
        # the gain the user gave is named, not the R = nan it would map to
        argv = {"flag-inf": ["--gain", "inf"], "flag-nan": ["--gain", "nan"]}.get(source)
        if argv is None:
            path = tmp_path / "scenario.json"
            path.write_text('{"gate": {"G": Infinity}}')
            argv = ["--config", str(path)]
        with pytest.raises(ValueError, match=r"gain G = (inf|nan) must be finite and non-negative"):
            main(["transfer", *argv])
        assert capsys.readouterr().out == ""

    def test_config_file(self, tmp_path, capsys):
        doc = {
            "gate": {"G": 1.5, "squeezing_dB_A": -5.0, "squeezing_dB_B": -5.0},
            "imperfections": {"propagation_loss_per_main_mode": 0.0,
                              "detector_quantum_efficiency": 1.0,
                              "visibility": 1.0,
                              "dark_noise_dB_below_shot": 170.0,
                              "displacement_coupler_loss": 0.0},
            "run": {"mode": "covariance"},
            "output": {"path": None},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["conditional", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "V_SP=0.59097" in out

    def test_zero_gain_is_unit_reflectivity(self, capsys):
        assert main(["vacuum-spectra", "--gain", "0"]) == 0
        assert "G=0.0000 (R=1.000000)" in capsys.readouterr().out

    def test_gain_echo_round_trip(self, capsys):
        # running with G, reading back R, and re-running with the gain of that R
        # gives the identical report
        assert main(["vacuum-spectra", "--gain", "1.0", "--no-imperfections"]) == 0
        first = capsys.readouterr().out
        assert "R=0.381966" in first
        gain = gain_from_reflectivity(0.3819660112501051)
        assert main(["vacuum-spectra", "--gain", repr(gain), "--no-imperfections"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", ["vacuum-spectra", "transfer"])
    def test_invalid_seed_flag_rejected(self, command):
        # vacuum-spectra runs no ensemble, so it does not declare --seed
        error = SystemExit if command == "vacuum-spectra" else ValueError
        with pytest.raises(error):
            main([command, "--seed", "-1"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["vacuum-spectra", "--trajectories", "10"],
            ["vacuum-spectra", "--seed", "1"],
            ["reproduce-table", "--gain", "1.0"],
            # the gate is named by --gain alone: R = 0.25 is --gain 1.5
            *([command, "--reflectivity", "0.25"] for command in cli._READS),
            ["reproduce-table", "--trajectories", "10"],
            ["reproduce-table", "--seed", "1"],
            ["oracle-check", "--gain", "7"],
            ["oracle-check", "--squeezing-db", "3"],
            ["oracle-check", "--csv", "x.csv"],
            ["oracle-check", "--config", "x.json"],
            ["oracle-check", "--no-imperfections"],
            ["oracle-check", "--reflectivity", "0.25"],
        ],
        ids=lambda argv: argv[0] + argv[1],
    )
    def test_undeclared_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # one valid non-default value per declared flag; a new flag needs one here
    FLAG_VALUES = {
        "--config": ["scenario.json"],  # the file sets a visibility of 0.9
        "--gain": ["1.5"],
        "--squeezing-db": ["-4"],
        "--no-imperfections": [],
        "--trajectories": ["500"],
        "--seed": ["3"],
        "--csv": ["out.csv"],
        "--no-fit": [],
    }

    @pytest.mark.parametrize("command, flag", declared_flags())
    def test_every_declared_flag_has_a_reader(self, tmp_path, monkeypatch, capsys, command, flag):
        """A non-default value of any declared flag changes stdout or the CSV, or is rejected as unread.

        Both runs write their CSV to ``out.csv`` in their own directory,
        except when ``--csv`` is the flag under test.
        """
        base = [command] if flag == "--csv" else [command, "--csv", "out.csv"]

        def outputs(name, argv):
            """stdout and the bytes of ``out.csv``, if written, run in ``name``."""
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            (tmp_path / name / "scenario.json").write_text(json.dumps({"imperfections": {"visibility": 0.9}}))
            main(argv)
            csv = tmp_path / name / "out.csv"
            return capsys.readouterr().out, csv.read_bytes() if csv.exists() else None

        try:
            changed = outputs("changed", [*base, flag, *self.FLAG_VALUES[flag]])
        except ValueError as error:
            # a seed alone runs no ensemble, so it is refused, not dropped
            assert f"{command} ignores the scenario's run section" in str(error)
            return
        assert changed != outputs("default", base)

    @pytest.mark.parametrize("command", ["transfer", "conditional"])
    def test_seed_without_trajectories_rejected(self, command, capsys):
        # a covariance-mode run draws no shots, so a seed would go unread
        with pytest.raises(ValueError, match=f"{command} ignores the scenario's run section"):
            main([command, "--seed", "3"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["transfer", "conditional"])
    def test_single_trajectory_rejected_at_the_flag(self, command):
        with pytest.raises(ValueError, match="at least 2"):
            main([command, "--trajectories", "1"])

    def test_trajectories_flag(self, capsys):
        assert main(
            ["transfer", "--gain", "1.0", "--trajectories", "200", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "carried by" in out


class TestClosedPipe:
    @pytest.mark.parametrize("command", ["reproduce-table", "oracle-check"])
    def test_closed_reader_gets_no_traceback(self, command):
        # the reader is gone before the command writes, as with ``| head``
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "qndsim.cli", command],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == ""


class TestModuleEntryPoint:
    def test_python_m_qndsim_runs_the_qndsim_command(self):
        # ``python -m qndsim`` prints what the ``qndsim`` script, cli.main, prints
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = "import sys; from qndsim.cli import main; sys.exit(main())"
        runs = [
            subprocess.run([sys.executable, *launch, "oracle-check"], capture_output=True, env=env,
                           timeout=120)
            for launch in (["-m", "qndsim"], ["-c", script])
        ]
        for run in runs:
            assert (run.returncode, run.stderr) == (0, b"")
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.decode().endswith("PASS\n")


class TestScenarioFileHonoured:
    TRAJECTORIES = {"run": {"mode": "trajectories", "n": 500}}

    KNOB = {"imperfections": {"extra_in_loop_loss": 0.05}}

    @staticmethod
    def run(tmp_path, command, doc, flags=()):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return main([command, *flags, "--config", str(path)])

    @pytest.mark.parametrize(
        "command, doc, section",
        [
            ("vacuum-spectra", TRAJECTORIES, "run"),
            ("reproduce-table", TRAJECTORIES, "run"),
            ("reproduce-table", {"gate": {"G": 2.0}}, "gate"),
            ("reproduce-table", {"gate": {"squeezing_dB_A": -5.0, "squeezing_dB_B": -3.0}}, "gate"),
            ("transfer", {"run": {"master_seed": 1}}, "run"),
            ("conditional", {"run": {"n": 500}}, "run"),
            ("reproduce-table", KNOB, "imperfections"),
        ],
        ids=[
            "vacuum-spectra-trajectories",
            "reproduce-table-trajectories",
            "reproduce-table-G",
            "reproduce-table-unequal-squeezing",
            "transfer-covariance-seed",
            "conditional-covariance-n",
            "reproduce-table-fitted-knob",
        ],
    )
    def test_ignored_value_rejected(self, tmp_path, command, doc, section):
        with pytest.raises(ValueError, match=f"{command} ignores the scenario's {section} section"):
            self.run(tmp_path, command, doc)

    @pytest.mark.parametrize(
        "command, doc, flags",
        [
            ("transfer", TRAJECTORIES, ()),
            ("conditional", TRAJECTORIES, ()),
            (
                "reproduce-table",
                {"gate": {"G": 1.0, "squeezing_dB_A": -4.0, "squeezing_dB_B": -4.0}},
                (),
            ),
            ("reproduce-table", KNOB, ("--no-fit",)),
        ],
        ids=[
            "transfer-trajectories",
            "conditional-trajectories",
            "reproduce-table-default-gate",
            "reproduce-table-unfitted-knob",
        ],
    )
    def test_honoured_file_runs(self, tmp_path, capsys, command, doc, flags):
        assert self.run(tmp_path, command, doc, flags) == 0
        assert capsys.readouterr().out.strip()

    def test_unfitted_knob_is_run(self, tmp_path, capsys):
        self.run(tmp_path, "reproduce-table", self.KNOB, ("--no-fit",))
        knob = capsys.readouterr().out
        self.run(tmp_path, "reproduce-table", {}, ("--no-fit",))
        assert knob != capsys.readouterr().out

    # one valid non-default value per scenario field that some subcommand does not read
    NON_DEFAULT = {
        "mode": "trajectories", "n": 500, "master_seed": 3,
        "gate_G": 1.5, "squeezing_dB_B": -3.0,
    }
    RUN_FIELDS = tuple(f.name for f in fields(RunSpec))
    UNREAD = (
        [("vacuum-spectra", "run", name) for name in RUN_FIELDS]
        + [("reproduce-table", "run", name) for name in RUN_FIELDS]
        + [("transfer", "run", name) for name in ("n", "master_seed")]
        + [("conditional", "run", name) for name in ("n", "master_seed")]
        + [("reproduce-table", "gate", name) for name in ("gate_G", "squeezing_dB_B")]
    )

    @classmethod
    def non_default(cls, name):
        """The default scenario with field ``name`` set to its ``NON_DEFAULT`` value."""
        value = cls.NON_DEFAULT[name]
        if name in cls.RUN_FIELDS:
            return ScenarioConfig(run=RunSpec(**{name: value}))
        return ScenarioConfig(**{name: value})

    @pytest.mark.parametrize(
        "command, section, name", UNREAD, ids=[f"{c}-{n}" for c, _, n in UNREAD]
    )
    def test_every_unread_field_rejected(self, tmp_path, command, section, name):
        path = tmp_path / "scenario.json"
        path.write_text(self.non_default(name).to_json())
        with pytest.raises(ValueError, match=f"{command} ignores the scenario's {section} section"):
            main([command, "--config", str(path)])

    # one valid non-default value per key of the scenario document
    DOCUMENT_VALUES = {
        ("gate", "G"): NON_DEFAULT["gate_G"],
        ("gate", "squeezing_dB_A"): NON_DEFAULT["squeezing_dB_B"],
        ("gate", "squeezing_dB_B"): NON_DEFAULT["squeezing_dB_B"],
        ("imperfections", "propagation_loss_per_main_mode"): 0.1,
        ("imperfections", "detector_quantum_efficiency"): 0.9,
        ("imperfections", "visibility"): 0.9,
        ("imperfections", "dark_noise_dB_below_shot"): 10.0,
        ("imperfections", "displacement_coupler_loss"): 0.05,
        ("imperfections", "feedforward_electronic_gain_error"): 0.05,
        ("imperfections", "extra_in_loop_loss"): 0.05,
        ("imperfections", "loss_placement"): "pre_entry",
        ("run", "mode"): NON_DEFAULT["mode"],
        ("run", "n"): NON_DEFAULT["n"],
        ("run", "master_seed"): NON_DEFAULT["master_seed"],
        ("output", "path"): "out.csv",
    }
    COMMANDS = {
        "vacuum-spectra": ["vacuum-spectra"],
        "transfer": ["transfer"],
        "conditional": ["conditional"],
        "reproduce-table": ["reproduce-table"],
        "reproduce-table-no-fit": ["reproduce-table", "--no-fit"],
    }

    def test_every_document_key_has_a_value(self):
        def keys(doc, prefix=()):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from keys(value, prefix + (key,))
                else:
                    yield prefix + (key,)

        document = set(keys(json.loads(ScenarioConfig().to_json())))
        assert document == set(self.DOCUMENT_VALUES)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("key", DOCUMENT_VALUES, ids=".".join)
    def test_every_scenario_key_has_a_reader(self, tmp_path, monkeypatch, capsys, key, command):
        """A non-default value of any scenario key fails or changes stdout or the CSV.

        Each run writes its CSV to the scenario's ``output.path`` (relative,
        so into the run's own directory), except when that key is the one
        under test.  ``loss_placement`` ``"in_arms"`` is a value, not a key:
        it builds the ``"post_exit"`` circuit, and stays until the benchmark's
        pools are re-recorded without it (ROADMAP item 13).
        """
        base = {} if key == ("output", "path") else {"output": {"path": "out.csv"}}
        doc = dict(base)
        section = doc
        for name in key[:-1]:
            section = section.setdefault(name, {})
        section[key[-1]] = self.DOCUMENT_VALUES[key]
        argv = self.COMMANDS[command]

        def outputs(name, doc):
            """stdout and the bytes of the scenario's CSV, if it names one, run in ``name``."""
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            (tmp_path / name / "scenario.json").write_text(json.dumps(doc))
            main([*argv, "--config", "scenario.json"])
            csv = tmp_path / name / "out.csv"
            return capsys.readouterr().out, csv.read_bytes() if csv.exists() else None

        try:
            changed = outputs("changed", doc)
        except ValueError:
            return
        assert changed != outputs("default", base)

    def test_squeezing_flag_overrides_unequal_file_values(self, tmp_path, capsys):
        doc = {"gate": {"squeezing_dB_A": -5.0, "squeezing_dB_B": -3.0}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["reproduce-table", "--no-fit", "--config", str(path), "--squeezing-db", "-4"]) == 0


class TestPerOpConstants:
    """The g grid and the shared vacuum input: equal to what they replace, and read-only."""

    def test_grid_is_read_only(self):
        grid = metrics.DEFAULT_G_GRID
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1.0

    def test_grid_is_the_arange_grid_bit_for_bit(self):
        got, want = metrics.DEFAULT_G_GRID, np.round(np.arange(-2.0, 2.0 + 1e-9, 0.01), 10) + 0.0
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert (got[0], got[-1], len(got)) == (-2.0, 2.0, 401)

    def test_grid_zero_is_positive_zero(self):
        grid = metrics.DEFAULT_G_GRID
        assert np.count_nonzero(grid == 0.0) == 1
        assert not np.signbit(grid[grid == 0.0]).any()

    def test_shared_vacuum_input_is_the_read_only_vacuum(self):
        want, shared = gaussian.vacuum_state(2), metrics._VACUUM_INPUT
        assert shared.n_modes == 2
        for got, array in ((shared.mean, want.mean), (shared.cov, want.cov)):
            assert got.tobytes() == array.tobytes() and got.shape == array.shape
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0

    def test_input_state_is_a_new_state_on_every_call(self):
        # a caller that reassigns the returned state's fields must not change another's input
        config = ScenarioConfig()
        first = config.input_state()
        assert first is not config.input_state() and first is not metrics._VACUUM_INPUT
        assert first.cov.flags.writeable
