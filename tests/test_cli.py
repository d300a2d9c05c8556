"""Tests for the command-line front end and scenario configuration."""

import json

import numpy as np
import pytest

from qndsim import cli, gaussian, metrics
from qndsim import circuit as circuit_module
from qndsim.circuit import (
    Circuit,
    Displacement,
    ImperfectionModel,
    build_qnd_gate,
    circuit_quadrature_map,
    run_covariance,
)
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
from qndsim.quadexpr import QuadratureMap
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

    @pytest.mark.parametrize("name", ["squeezing_dB_A", "squeezing_dB_B"])
    @pytest.mark.parametrize("db", [6.0, 1e-9, float("nan"), float("inf"), float("-inf")])
    def test_positive_or_non_finite_squeezing_rejected(self, name, db):
        with pytest.raises(ValueError, match=f"{name} = {db} must be finite and at most 0 dB"):
            ScenarioConfig(**{name: db})

    def test_vacuum_ancillas_accepted(self):
        assert ScenarioConfig(squeezing_dB_A=0.0, squeezing_dB_B=-0.0).gate_params().r_a == 0.0

    def test_positive_squeezing_in_file_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"gate": {"squeezing_dB_B": 3.0}}))
        with pytest.raises(ValueError, match="squeezing_dB_B = 3.0 must be finite"):
            main(["conditional", "--config", str(path)])

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

    def test_one_propagation_and_one_map(self, monkeypatch):
        # the four excitation cases and both sectors' T share one vacuum
        # propagation and one quadrature map
        calls = {"run_covariance": 0, "circuit_quadrature_map": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, metrics):
            for name, fn in (("run_covariance", run_covariance),
                             ("circuit_quadrature_map", circuit_quadrature_map)):
                monkeypatch.setattr(module, name, counted(name, fn))
        cmd_transfer(ScenarioConfig())
        assert calls == {"run_covariance": 1, "circuit_quadrature_map": 1}

    @pytest.mark.parametrize("offset", [False, True, "covariance"])
    def test_one_ensemble_serves_every_excitation(self, offset):
        # each case mean equals the separate ensemble at that excitation,
        # also when the circuit shifts the vacuum's output mean; in
        # covariance mode it equals the propagated excitation bit for bit
        mode_name = "covariance" if offset == "covariance" else "trajectories"
        config = ScenarioConfig(run=RunSpec(mode=mode_name, n=3000, master_seed=11))
        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        if offset:
            circuit = Circuit(circuit.elements + (Displacement(0, 0.3, -0.7),))
        amplitude = metrics.DEFAULT_PROBE_AMPLITUDE
        vacuum_mean = run_covariance(circuit, gaussian.vacuum_state(2)).mean
        qmap = circuit_quadrature_map(circuit)
        means = _excitation_means(config, circuit, vacuum_mean, qmap, amplitude)
        assert len(means) == len(_EXCITATION_CASES)
        for (_, mode, quad, _), mean in zip(_EXCITATION_CASES, means):
            dx, dp = (amplitude, 0.0) if quad == "x" else (0.0, amplitude)
            state = gaussian.displace(gaussian.vacuum_state(2), mode, dx, dp)
            if mode_name == "covariance":
                assert np.array_equal(mean, run_covariance(circuit, state).mean)
            else:
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
        cmd_conditional(ScenarioConfig(), csv_path=str(tmp_path / "sweep.csv"))
        assert len(calls) == 2

    @pytest.mark.parametrize("mode", ["covariance", "trajectories"])
    def test_csv_leaves_text_unchanged(self, tmp_path, mode):
        config = ScenarioConfig(run=RunSpec(mode=mode, n=2000, master_seed=17))
        path = tmp_path / "sweep.csv"
        assert cmd_conditional(config) == cmd_conditional(config, csv_path=str(path))

        circuit = build_qnd_gate(config.gate_params(), config.imperfections)
        state = config.input_state()
        if mode == "covariance":
            cov = run_covariance(circuit, state).cov
        else:
            cov = run_ensemble(circuit, state, 2000, 17).cov
        grid = config.run.g_grid()
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 2 * len(grid)
        for k, sector in enumerate(("x", "p")):
            simulated = metrics.cv_sweep(cov, sector, grid)
            sector_rows = rows[k * len(grid):(k + 1) * len(grid)]
            assert [row[0] for row in sector_rows] == [sector] * len(grid)
            assert [row[2] for row in sector_rows] == [f"{v:.9f}" for v in simulated]


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
        text = cmd_oracle_check()
        assert text.endswith("PASS")
        assert "max coefficient error" in text

    def test_skewed_oracle_fails(self, monkeypatch, capsys):
        real = circuit_module.finite_squeezing_map

        def skewed(R, r_a, r_b):
            qmap = real(R, r_a, r_b)
            return QuadratureMap(qmap.columns, qmap.matrix + 1e-6)

        monkeypatch.setattr(circuit_module, "finite_squeezing_map", skewed)
        assert main(["oracle-check"]) == 1
        assert capsys.readouterr().out.rstrip().endswith("FAIL")


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
            ["reproduce-table", "--reflectivity", "0.25"],
            ["reproduce-table", "--trajectories", "10"],
            ["reproduce-table", "--seed", "1"],
            ["oracle-check", "--gain", "7"],
            ["oracle-check", "--squeezing-db", "3"],
            ["oracle-check", "--csv", "x.csv"],
            ["oracle-check", "--config", "x.json"],
            ["oracle-check", "--no-imperfections"],
        ],
        ids=lambda argv: argv[0] + argv[1],
    )
    def test_undeclared_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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


class TestScenarioFileHonoured:
    COHERENT = {"inputs": [{"kind": "coherent", "amplitude": 3.0}, {"kind": "vacuum"}]}
    TRAJECTORIES = {"run": {"mode": "trajectories", "n": 500}}
    G_GRID = {"run": {"g_grid": {"min": -0.5, "max": 0.5, "step": 0.25}}}

    @staticmethod
    def run(tmp_path, command, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return main([command, "--config", str(path)])

    @pytest.mark.parametrize(
        "command, doc, section",
        [
            ("vacuum-spectra", TRAJECTORIES, "run"),
            ("reproduce-table", TRAJECTORIES, "run"),
            ("reproduce-table", {"gate": {"G": 2.0}}, "gate"),
            ("reproduce-table", {"gate": {"R": 0.25}}, "gate"),
            ("reproduce-table", {"gate": {"squeezing_dB_A": -5.0, "squeezing_dB_B": -3.0}}, "gate"),
            ("vacuum-spectra", COHERENT, "inputs"),
            ("transfer", COHERENT, "inputs"),
            ("reproduce-table", COHERENT, "inputs"),
            ("vacuum-spectra", G_GRID, "run"),
            ("transfer", G_GRID, "run"),
            ("reproduce-table", G_GRID, "run"),
        ],
        ids=[
            "vacuum-spectra-trajectories",
            "reproduce-table-trajectories",
            "reproduce-table-G",
            "reproduce-table-R",
            "reproduce-table-unequal-squeezing",
            "vacuum-spectra-coherent",
            "transfer-coherent",
            "reproduce-table-coherent",
            "vacuum-spectra-g-grid",
            "transfer-g-grid",
            "reproduce-table-g-grid",
        ],
    )
    def test_ignored_value_rejected(self, tmp_path, command, doc, section):
        with pytest.raises(ValueError, match=f"{command} ignores the scenario's {section} section"):
            self.run(tmp_path, command, doc)

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("conditional", COHERENT),
            ("transfer", TRAJECTORIES),
            ("conditional", TRAJECTORIES),
            ("conditional", G_GRID),
            ("reproduce-table", {"gate": {"G": 1.0, "squeezing_dB_A": -4.0, "squeezing_dB_B": -4.0}}),
        ],
        ids=[
            "conditional-coherent",
            "transfer-trajectories",
            "conditional-trajectories",
            "conditional-g-grid",
            "reproduce-table-default-gate",
        ],
    )
    def test_honoured_file_runs(self, tmp_path, capsys, command, doc):
        assert self.run(tmp_path, command, doc) == 0
        assert capsys.readouterr().out.strip()

    def test_squeezing_flag_overrides_unequal_file_values(self, tmp_path, capsys):
        doc = {"gate": {"squeezing_dB_A": -5.0, "squeezing_dB_B": -3.0}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["reproduce-table", "--no-fit", "--config", str(path), "--squeezing-db", "-4"]) == 0
