"""Tests for the command-line front end and scenario configuration."""

import json

import numpy as np
import pytest

from qndsim import gaussian, metrics
from qndsim.circuit import Circuit, Displacement, ImperfectionModel, build_qnd_gate
from qndsim.cli import (
    _EXCITATION_CASES,
    _excitation_means,
    cmd_conditional,
    cmd_oracle_check,
    cmd_reproduce_table,
    cmd_transfer,
    cmd_vacuum_spectra,
    main,
)
from qndsim.ensemble import run_ensemble
from qndsim.scenario import (
    InputSpec,
    RunSpec,
    ScenarioConfig,
    load_scenario,
    scenario_from_dict,
)


def lossless_config(**kwargs):
    return ScenarioConfig(imperfections=ImperfectionModel.ideal(), **kwargs)


class TestScenarioConfig:
    def test_defaults_are_reference_experiment(self):
        config = ScenarioConfig()
        assert config.gate_G == 1.0
        assert config.squeezing_dB_A == -5.0
        assert config.imperfections.propagation_loss_per_main_mode == 0.07
        assert config.imperfections.visibility == 0.98

    def test_exactly_one_of_r_and_g(self):
        with pytest.raises(ValueError):
            ScenarioConfig(gate_R=0.25, gate_G=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(gate_R=None, gate_G=None)

    def test_round_trip_through_json(self, tmp_path):
        config = ScenarioConfig(
            gate_R=0.25,
            gate_G=None,
            inputs=(InputSpec("coherent", 10.0, "x"), InputSpec()),
            run=RunSpec(mode="trajectories", n=500, master_seed=7),
        )
        path = tmp_path / "scenario.json"
        path.write_text(config.to_json())
        loaded = load_scenario(str(path))
        assert loaded.gate_R == 0.25
        assert loaded.inputs[0].amplitude == 10.0
        assert loaded.run.n == 500
        assert loaded.run.master_seed == 7

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"run": {"g_grid": {"step": 0.0}}})

    def test_unknown_imperfection_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"imperfections": {"sideband_loss": 0.1}})

    @pytest.mark.parametrize(
        "doc",
        [
            {"bogus": 1},
            {"gate": {"squeezing_db_A": -9}},
            {"run": {"modee": "trajectories"}},
            {"run": {"g_grid": {"stop": 1.0}}},
            {"inputs": [{"kind": "vacuum", "phase": 0.0}, {}]},
            {"output": {"fmt": "csv"}},
        ],
    )
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("seed", [1.5, 2**64, -1, True])
    def test_invalid_master_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            RunSpec(master_seed=seed)
        with pytest.raises(ValueError):
            scenario_from_dict({"run": {"master_seed": seed}})

    def test_both_r_and_g_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"gate": {"R": 0.25, "G": 1.0}})

    def test_input_state_construction(self):
        config = ScenarioConfig(inputs=(InputSpec("coherent", 3.0, "p"), InputSpec()))
        state = config.input_state()
        assert np.allclose(state.mean, [0.0, 3.0, 0.0, 0.0])


class TestVacuumSpectra:
    def test_ideal_values_in_table(self):
        text = cmd_vacuum_spectra(lossless_config())
        # ideal rows: +3.01 dB on the probe quadratures, 0 dB on the signals
        row = next(l for l in text.splitlines() if "infinite_squeezing" in l)
        assert "3.0103" in row and "0.0000" in row
        row = next(l for l in text.splitlines() if l.strip().startswith("configured"))
        assert "0.5745" in row  # 10*log10(1.14142)

    def test_r_one_all_zero(self):
        config = lossless_config(gate_R=1.0, gate_G=None)
        text = cmd_vacuum_spectra(config)
        for line in text.splitlines()[2:]:
            for token in line.split()[1:]:
                assert float(token) == pytest.approx(0.0, abs=1e-9)

    def test_byte_identical_output(self):
        assert cmd_vacuum_spectra(ScenarioConfig()) == cmd_vacuum_spectra(ScenarioConfig())

    def test_csv_written(self, tmp_path):
        path = tmp_path / "spectra.csv"
        cmd_vacuum_spectra(ScenarioConfig(), csv_path=str(path))
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

    @pytest.mark.parametrize("offset", [False, True])
    def test_one_ensemble_serves_every_excitation(self, offset):
        # each case mean equals the separate ensemble at that excitation,
        # also when the circuit shifts the vacuum's output mean
        config = ScenarioConfig(run=RunSpec(mode="trajectories", n=3000, master_seed=11))
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        if offset:
            circuit = Circuit(circuit.elements + (Displacement(0, 0.3, -0.7),))
        amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
        means = _excitation_means(config, circuit, amplitude)
        assert len(means) == len(_EXCITATION_CASES)
        for (_, mode, quad, _), mean in zip(_EXCITATION_CASES, means):
            dx, dp = (amplitude, 0.0) if quad == "x" else (0.0, amplitude)
            state = gaussian.displace(gaussian.vacuum_state(2), mode, dx, dp)
            separate = run_ensemble(circuit, state, 3000, 11).mean
            assert np.max(np.abs(mean - separate)) <= 1e-12


class TestConditional:
    def test_verdicts_and_minima(self):
        text = cmd_conditional(lossless_config())
        assert "V_SP=0.73596" in text
        assert "-> entangled" in text

    def test_vacuum_ancillas_not_certified(self):
        config = lossless_config()
        config.squeezing_dB_A = 0.0
        config.squeezing_dB_B = 0.0
        text = cmd_conditional(config)
        assert "not certified" in text

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "sweep.csv"
        config = ScenarioConfig()
        config.run.g_min, config.run.g_max, config.run.g_step = -1.0, 1.0, 0.5
        cmd_conditional(config, csv_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == [
            "sector", "g", "simulated", "simulated_dB", "ideal", "finite_squeezing",
            "vacuum_ancilla", "witness_bound_per_sector",
        ]
        assert len(lines) == 1 + 2 * 5  # both sectors, five grid points


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

    def test_csv_written(self, tmp_path):
        path = tmp_path / "table.csv"
        cmd_reproduce_table(ScenarioConfig(), fit=False, csv_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("G,metric,sector,simulated")
        assert len(lines) == 9  # 8 banded checks + header


class TestOracleCheckCommand:
    def test_passes(self):
        text = cmd_oracle_check(ScenarioConfig())
        assert text.endswith("PASS")
        assert "max coefficient error" in text


class TestMainEntry:
    def test_oracle_check_exit_code(self, capsys):
        assert main(["oracle-check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_vacuum_spectra_with_flags(self, capsys):
        assert main(["vacuum-spectra", "--gain", "1.0", "--no-imperfections"]) == 0
        out = capsys.readouterr().out
        assert "0.5745" in out

    def test_reflectivity_flag(self, capsys):
        assert main(["vacuum-spectra", "--reflectivity", "1.0"]) == 0
        assert "R=1.000000" in capsys.readouterr().out

    def test_gain_reflectivity_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["transfer", "--gain", "1.0", "--reflectivity", "0.25"])

    def test_config_file(self, tmp_path, capsys):
        doc = {
            "gate": {"G": 1.5, "squeezing_dB_A": -5.0, "squeezing_dB_B": -5.0},
            "imperfections": {"propagation_loss_per_main_mode": 0.0,
                              "detector_quantum_efficiency": 1.0,
                              "visibility": 1.0,
                              "dark_noise_dB_below_shot": 170.0,
                              "displacement_coupler_loss": 0.0},
            "inputs": [{"kind": "vacuum"}, {"kind": "vacuum"}],
            "run": {"mode": "covariance", "master_seed": 1,
                    "g_grid": {"min": -2.0, "max": 2.0, "step": 0.01}},
            "output": {"format": "table"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["conditional", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "V_SP=0.59097" in out

    def test_gain_echo_round_trip(self, capsys):
        # running with G, reading back R, and re-running with that R gives
        # the identical report
        assert main(["transfer", "--gain", "1.0", "--no-imperfections"]) == 0
        first = capsys.readouterr().out
        assert main(
            ["transfer", "--reflectivity", "0.3819660112501051", "--no-imperfections"]
        ) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("command", ["vacuum-spectra", "transfer"])
    def test_invalid_seed_flag_rejected(self, command):
        with pytest.raises(ValueError):
            main([command, "--seed", "-1"])

    def test_trajectories_flag(self, capsys):
        assert main(
            ["transfer", "--gain", "1.0", "--trajectories", "200", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "carried by" in out
