"""Command-line interface: contracts, exit codes, determinism."""

import csv
import json
import math

import pytest

import loadbal as lb
from loadbal.cli import main


def write_config(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


@pytest.fixture
def asym_config(tmp_path):
    return write_config(tmp_path / "asym.json", {
        "nodes": [
            {"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
            {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0},
        ],
        "comm": {"model": "constant", "params": {"t": 0.05}},
        "sim": {"total_jobs": 8000, "seed": 11},
    })


@pytest.fixture
def symmetric_config(tmp_path):
    return write_config(tmp_path / "sym.json", {
        "nodes": [
            {"id": "a", "arrival_rate": 0.5, "service_rate": 2.0},
            {"id": "b", "arrival_rate": 0.5, "service_rate": 2.0},
        ],
        "comm": {"model": "constant", "params": {"t": 0.05}},
    })


class TestSolve:
    def test_symmetric_all_neutral(self, symmetric_config, capsys):
        assert main(["solve", symmetric_config]) == 0
        out = capsys.readouterr().out
        assert out.count("neutral") == 2
        assert "lambda             0.0000000000" in out

    def test_asymmetric_report(self, asym_config, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["solve", asym_config, "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["nodes"][0]["role"] == "active_source"
        assert report["nodes"][1]["role"] == "sink"
        assert report["lambda"] == pytest.approx(0.75, abs=1e-6)
        assert report["alpha"] == pytest.approx(0.37870, abs=1e-4)
        assert report["mean_response_time"] == pytest.approx(0.35769, abs=1e-4)
        assert report["kkt"]["worst"] < 1e-8
        assert len(report["flow"]) == 2

    def test_csv_contract(self, asym_config, tmp_path):
        out_file = tmp_path / "report.csv"
        assert main(["solve", asym_config, "--out", str(out_file), "--format", "csv"]) == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[0] == ["node_id", "role", "beta", "phi", "marginal_delay"]
        assert rows[1][0] == "a" and rows[2][0] == "b"
        assert float(rows[1][2]) == pytest.approx(0.75, abs=1e-6)

    def test_config_roundtrip(self, asym_config, tmp_path):
        out_file = tmp_path / "report.json"
        main(["solve", asym_config, "--out", str(out_file)])
        echoed = json.loads(out_file.read_text())["config"]
        reparsed = lb.parse_config(echoed)
        original = lb.load_config(asym_config)
        assert lb.network_to_config(reparsed.network) == lb.network_to_config(original.network)

    def test_unstable_config_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", {
            "nodes": [{"id": "a", "arrival_rate": 5.0, "service_rate": 4.0}],
            "comm": {"model": "constant", "params": {"t": 0.05}},
        })
        assert main(["solve", path]) == 2
        assert "unstable" in capsys.readouterr().err.lower()

    def test_schema_error_names_path(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", {
            "nodes": [{"id": "a", "arrival_rate": 1.0, "service_rate": "fast"}],
            "comm": {"model": "constant", "params": {"t": 0.05}},
        })
        assert main(["solve", path]) == 2
        assert "nodes[0].service_rate" in capsys.readouterr().err

    def test_unknown_comm_model(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", {
            "nodes": [{"id": "a", "arrival_rate": 1.0, "service_rate": 4.0}],
            "comm": {"model": "carrier_pigeon", "params": {}},
        })
        assert main(["solve", path]) == 2
        assert "comm.model" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("arrival_rate", math.nan), ("service_rate", math.inf)])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, field, value):
        node = {"id": "a", "arrival_rate": 1.0, "service_rate": 4.0, field: value}
        path = write_config(tmp_path / "bad.json", {  # json writes NaN and Infinity
            "nodes": [node],
            "comm": {"model": "constant", "params": {"t": 0.05}},
        })
        assert main(["solve", path]) == 2
        assert f"nodes[0].{field}" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_non_convergence_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path / "chan.json", {
            "nodes": [
                {"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
                {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0},
            ],
            "comm": {"model": "mm1_channel", "params": {"t": 0.02, "capacity": 2.0}},
            "solver": {"max_outer": 2},
        })
        assert main(["solve", path]) == 3
        assert "best iterate" in capsys.readouterr().err


class TestOracleAndCheck:
    def test_oracle_gap(self, asym_config, capsys):
        assert main(["oracle", asym_config, "--grid", "101", "--refine", "6"]) == 0
        out = capsys.readouterr().out
        assert "roles_agree        true" in out

    def test_check_passes(self, asym_config, capsys):
        assert main(["check", asym_config, "--grid", "101", "--refine", "6"]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_oracle_size_guard(self, tmp_path):
        path = write_config(tmp_path / "big.json", {
            "nodes": [{"id": f"n{i}", "arrival_rate": 0.1, "service_rate": 1.0} for i in range(6)],
            "comm": {"model": "constant", "params": {"t": 0.05}},
        })
        assert main(["oracle", path]) == 2
        assert main(["check", path]) == 2


class TestSimulate:
    def test_csv_contract(self, asym_config, tmp_path):
        out_file = tmp_path / "sim.csv"
        code = main(["simulate", asym_config, "--policy", "static_optimal", "--seed", "42",
                     "--out", str(out_file)])
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[0] == ["policy", "seed", "jobs", "mean_response", "ci_halfwidth", "transfers"]
        assert rows[1][0] == "static_optimal"
        assert rows[1][1] == "42"
        assert int(rows[1][5]) > 0

    def test_unknown_policy_exit_2(self, asym_config, capsys):
        assert main(["simulate", asym_config, "--policy", "launch_more_servers"]) == 2
        assert "policy" in capsys.readouterr().err

    @pytest.mark.parametrize("sim, args", [
        ('{"seed": 1.5}', []),
        ('{"seed": -1}', []),
        ('{"seed": false}', []),
        ('{}', ["--seed", "-1"]),
        ('{"total_jobs": 1e400}', []),
        ('{"total_jobs": 1000.5}', []),
        ('{"total_jobs": true}', []),
    ], ids=["seed-float", "seed-negative", "seed-bool", "cli-seed-negative", "jobs-inf", "jobs-float", "jobs-bool"])
    def test_malformed_sim_settings_exit_2(self, tmp_path, capsys, sim, args):
        path = tmp_path / "sim.json"
        path.write_text('{"nodes": [{"id": "a", "arrival_rate": 1.0, "service_rate": 4.0}], '
                        '"comm": {"model": "constant", "params": {"t": 0.05}}, "sim": ' + sim + '}')
        assert main(["simulate", str(path), "--policy", "no_balancing", *args]) == 2
        assert "sim:" in capsys.readouterr().err

    def test_all_policies_run(self, asym_config, tmp_path):
        for policy in ("no_balancing", "sq", "med", "dynamic_threshold"):
            assert main(["simulate", asym_config, "--policy", policy, "--jobs", "2000",
                         "--out", str(tmp_path / f"{policy}.csv")]) == 0


class TestSweep:
    def test_transfer_cost_sweep(self, asym_config, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code = main(["sweep", asym_config, "--param", "comm.params.t",
                     "--from", "0.0", "--to", "0.3", "--steps", "7", "--out", str(out_file)])
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[0] == ["param_value", "alpha", "lambda", "mean_response", "roles"]
        lams = [float(r[2]) for r in rows[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
        assert lams[-1] == 0.0
        assert rows[-1][4] == "N,N"

    def test_stability_crossing_marked(self, asym_config, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code = main(["sweep", asym_config, "--param", "nodes.0.arrival_rate",
                     "--from", "1.0", "--to", "9.0", "--steps", "5", "--out", str(out_file)])
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[-1][4] == "unstable"
        assert any(r[4] != "unstable" for r in rows[1:])

    def test_invalid_value_marked(self, tmp_path):
        # t=0 is not a valid mm1_channel; the network itself is stable
        config = write_config(tmp_path / "channel.json", {
            "nodes": [
                {"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
                {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0},
            ],
            "comm": {"model": "mm1_channel", "params": {"t": 0.02, "capacity": 2.0}},
        })
        out_file = tmp_path / "sweep.csv"
        code = main(["sweep", config, "--param", "comm.params.t",
                     "--from", "0.0", "--to", "0.04", "--steps", "3", "--out", str(out_file)])
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[1] == ["0.0", "nan", "nan", "nan", "invalid"]
        assert all(r[4] not in ("invalid", "unstable") for r in rows[2:])

    def test_bad_param_path_exit_2(self, asym_config, capsys):
        assert main(["sweep", asym_config, "--param", "comm.params.bandwidth",
                     "--from", "0", "--to", "1", "--steps", "3"]) == 2
        assert "param path" in capsys.readouterr().err

    @pytest.mark.parametrize("param, message", [
        ("nodes.9.arrival_rate", "bad list index '9'"),
        ("nodes.0.id", "does not address a number"),
    ])
    def test_param_path_errors_exit_2(self, asym_config, capsys, param, message):
        assert main(["sweep", asym_config, "--param", param,
                     "--from", "0", "--to", "1", "--steps", "3"]) == 2
        assert message in capsys.readouterr().err

    def test_parallel_matches_serial(self, asym_config, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        main(["sweep", asym_config, "--param", "comm.params.t",
              "--from", "0.0", "--to", "0.2", "--steps", "5", "--out", str(serial)])
        main(["sweep", asym_config, "--param", "comm.params.t",
              "--from", "0.0", "--to", "0.2", "--steps", "5", "--out", str(parallel),
              "--parallel", "3"])
        assert serial.read_bytes() == parallel.read_bytes()


class TestLogging:
    def test_env_var_controls_stderr(self, asym_config):
        import os
        import subprocess
        import sys

        def run(level):
            env = dict(os.environ, LOADBAL_LOG=level)
            return subprocess.run(
                [sys.executable, "-m", "loadbal", "solve", asym_config],
                capture_output=True, text=True, env=env,
            )

        quiet = run("error")
        chatty = run("info")
        assert quiet.returncode == 0 and chatty.returncode == 0
        assert quiet.stderr == ""
        assert "INFO" in chatty.stderr


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, asym_config, tmp_path):
        pairs = []
        for tag in ("one", "two"):
            sol = tmp_path / f"sol-{tag}.json"
            sim = tmp_path / f"sim-{tag}.csv"
            swp = tmp_path / f"swp-{tag}.csv"
            main(["solve", asym_config, "--out", str(sol)])
            main(["simulate", asym_config, "--policy", "static_optimal", "--seed", "7", "--out", str(sim)])
            main(["sweep", asym_config, "--param", "comm.params.t",
                  "--from", "0.0", "--to", "0.1", "--steps", "3", "--out", str(swp)])
            pairs.append((sol.read_bytes(), sim.read_bytes(), swp.read_bytes()))
        assert pairs[0] == pairs[1]
