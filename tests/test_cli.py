"""Command-line interface: contracts, exit codes, determinism."""

import copy
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import loadbal as lb
import loadbal.config
from loadbal import cli
from loadbal.cli import main


def write_config(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


@pytest.fixture
def near_tie_config(tmp_path):
    # two nodes tied within rounding: the sink's rate rounds below its arrivals
    return write_config(tmp_path / "tie.json", {
        "nodes": [
            {"id": "a", "arrival_rate": 0.2738928865148232, "service_rate": 2.090942092002429},
            {"id": "b", "arrival_rate": 0.27389288651482346, "service_rate": 2.090942092002429},
        ],
        "comm": {"model": "constant", "params": {"t": 0.05}},
    })


def exit_code(argv):
    """``main``'s exit code, also when argparse rejects the command line by raising SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
            "solver": {"max_outer": 1},  # the second pass would settle it
        })
        assert main(["solve", path]) == 3
        assert "best iterate" in capsys.readouterr().err

    def test_near_tie_exit_3(self, near_tie_config, capsys):
        assert main(["solve", near_tie_config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: a sink's rate rounded below its arrivals")
        assert "Traceback" not in err

    @pytest.mark.parametrize("solver, argv, message", [
        # the solver has no tolerances to set: their keys and flags are unknown input
        ({"lambda_tol": math.nan, "max_outer": 2}, ["solve"], "solver.lambda_tol: unknown field"),
        ({"max_outer": True}, ["solve"], "max_outer must be an integer >= 1, got True"),
        ({"max_outer": 2.5}, ["solve"], "max_outer must be an integer >= 1, got 2.5"),
        ({"alpha_tol": math.inf}, ["solve"], "solver.alpha_tol: unknown field"),
        ({}, ["solve", "--tol", "0"], "unrecognized arguments: --tol 0"),
        ({}, ["sweep", "--param", "comm.params.t", "--from", "0.0", "--to", "0.04", "--steps", "3",
              "--parallel", "3"], "unrecognized arguments: --parallel 3"),
    ], ids=["lambda-tol-nan", "max-outer-bool", "max-outer-float", "alpha-tol-inf", "cli-tol-zero",
            "sweep-parallel"])
    def test_malformed_solver_settings_exit_2(self, tmp_path, capsys, solver, argv, message):
        # the channel scenario of test_non_convergence_exit_3
        path = write_config(tmp_path / "chan.json", {
            "nodes": [
                {"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
                {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0},
            ],
            "comm": {"model": "mm1_channel", "params": {"t": 0.02, "capacity": 2.0}},
            "solver": solver,
        })
        command, *flags = argv
        assert exit_code([command, path, *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["solvers", "sim "], ids=["solvers", "sim-trailing-space"])
    def test_unknown_top_level_field_exit_2(self, asym_config, capsys, key):
        data = json.loads(Path(asym_config).read_text())
        data[key] = {}
        assert main(["solve", write_config(Path(asym_config), data)]) == 2
        assert f"config.{key}: unknown field" in capsys.readouterr().err


class TestOracleAndCheck:
    def test_oracle_gap(self, asym_config, capsys):
        assert main(["oracle", asym_config, "--grid", "101", "--refine", "6"]) == 0
        out = capsys.readouterr().out
        assert "roles_agree        true" in out

    def test_check_passes(self, asym_config, capsys):
        assert main(["check", asym_config, "--grid", "101", "--refine", "6"]) == 0
        assert "check passed" in capsys.readouterr().out

    @pytest.mark.parametrize("command, stdout", [
        ("oracle", "node                 beta   net_transfer\n"
                   "a                1.500000       0.000000\n"
                   "b                0.000000       0.000000\n"
                   "objective          0.6000000000\n"
                   "lambda             0.0000000000\n"
                   "solver_gap         -6.346e-02\n"
                   "roles_agree        false\n"),
        ("check", "solver objective   0.5365384615\n"
                  "oracle objective   0.6000000000\n"
                  "gap                -6.346e-02\n"
                  "kkt worst residual 5.921e-16\n"
                  "roles              solver=A,S oracle=N,N\n"
                  "check passed\n"),
    ])
    def test_coarse_grid_note(self, asym_config, capsys, command, stdout):
        # a 2-point grid cannot see the balanced optimum: the solver lands 6.3e-2 below it
        assert main([command, asym_config, "--grid", "2", "--refine", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert ("note: the solver's objective is 6.346e-02 below the oracle's; the grid is too coarse "
                "to confirm optimality at 1e-5, so raise --grid or --refine\n") == captured.err

    def test_check_fails_on_kkt(self, asym_config, capsys, monkeypatch):
        # the oracle cannot tell this allocation from the optimum, but its prices do not hold
        solve = cli.solve

        def perturbed(network, config):
            solution = solve(network, config)
            rates = (0.75 - 1e-3, 0.75 + 1e-3)
            return dataclasses.replace(solution, allocation=lb.Allocation(rates=rates, transfer_rate=0.751))

        monkeypatch.setattr(cli, "solve", perturbed)
        assert main(["check", asym_config, "--grid", "101", "--refine", "6"]) == 1
        captured = capsys.readouterr()
        assert "check passed" not in captured.out
        assert "check FAILED: the solution's worst optimality residual" in captured.err

    def test_channel_infeasible_exits_2(self, tmp_path, capsys):
        # repro A: node b must ship more than the channel can carry
        data = {
            "nodes": [
                {"id": "a", "arrival_rate": 0.0, "service_rate": 9.07381114},
                {"id": "b", "arrival_rate": 2.50872161, "service_rate": 3.98069110e-7},
                {"id": "c", "arrival_rate": 0.0, "service_rate": 3.17796365e-5},
            ],
            "comm": {"model": "mm1_channel", "params": {"t": 0.06916726420273384, "capacity": 1.2618455189934136}},
        }
        path = write_config(tmp_path / "reproA.json", data)
        for command in ("solve", "check"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert "unstable network: nodes 'b' must ship more than lambda_min = 2.5087212119308897" in captured.err
            assert captured.out == ""
        data["comm"]["params"]["capacity"] = 4.0
        path = write_config(tmp_path / "reproA-wide.json", data)
        assert main(["sweep", path, "--param", "comm.params.capacity", "--from", "1.2618455189934136",
                     "--to", "4.0", "--steps", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "1.2618455189934137,nan,nan,nan,unstable"
        assert [row.endswith('"S,I,N"') for row in rows[2:]] == [True, True]

    def test_fine_grid_no_note(self, asym_config, capsys):
        assert main(["check", asym_config, "--grid", "101", "--refine", "6"]) == 0
        assert capsys.readouterr().err == ""

    def test_oracle_size_guard(self, tmp_path):
        path = write_config(tmp_path / "big.json", {
            "nodes": [{"id": f"n{i}", "arrival_rate": 0.1, "service_rate": 1.0} for i in range(6)],
            "comm": {"model": "constant", "params": {"t": 0.05}},
        })
        assert main(["oracle", path]) == 2
        assert main(["check", path]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "{config}", "--grid", "1"], "grid must be >= 2, got 1"),
        (["check", "{config}", "--grid", "1"], "grid must be >= 2, got 1"),
        (["check", "{config}", "--refine", "-1"], "refine_rounds must be >= 0, got -1"),
        (["sweep", "{config}", "--param", "comm.params.t", "--from", "nan", "--to", "0.3", "--steps", "3"],
         "--from and --to must be finite"),
        (["sweep", "{config}", "--param", "comm.params.t", "--from", "0", "--to", "inf", "--steps", "3"],
         "--from and --to must be finite"),
    ], ids=["oracle-grid-1", "check-grid-1", "check-refine-negative", "sweep-from-nan", "sweep-to-inf"])
    def test_bad_search_flags_exit_2(self, asym_config, capsys, argv, message):
        assert main([arg.format(config=asym_config) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


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

    @pytest.mark.parametrize("warmup", ["false", '"0.1"', "true", "1.0"])
    def test_malformed_warmup_exit_2_naming_it(self, tmp_path, capsys, warmup):
        path = tmp_path / "sim.json"
        path.write_text('{"nodes": [{"id": "a", "arrival_rate": 1.0, "service_rate": 4.0}], '
                        '"comm": {"model": "constant", "params": {"t": 0.05}}, '
                        '"sim": {"warmup_fraction": ' + warmup + '}}')
        assert main(["simulate", str(path), "--policy", "no_balancing", "--jobs", "100"]) == 2
        assert "sim: warmup_fraction" in capsys.readouterr().err

    def test_all_policies_run(self, asym_config, tmp_path):
        for policy in ("no_balancing", "sq", "med", "dynamic_threshold"):
            assert main(["simulate", asym_config, "--policy", policy, "--jobs", "2000",
                         "--out", str(tmp_path / f"{policy}.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["solve"], ["oracle"], ["check"], ["simulate", "--policy", "no_balancing"],
        ["sweep", "--param", "comm.params.t", "--from", "0.0", "--to", "0.1", "--steps", "2"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("sim, field", [
        ({"total_jobs": "many"}, "sim: total_jobs"),
        ({"seed": -1}, "sim: seed"),
        ({"warmup_fraction": 1.0}, "sim: warmup_fraction"),
        ({"policy": "bogus"}, "sim.policy"),
    ], ids=["jobs-string", "seed-negative", "warmup-one", "policy-bogus"])
    def test_every_command_rejects_malformed_sim_section(self, tmp_path, capsys, argv, sim, field):
        path = write_config(tmp_path / "sim.json", {
            "nodes": [{"id": "a", "arrival_rate": 1.0, "service_rate": 4.0},
                      {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0}],
            "comm": {"model": "constant", "params": {"t": 0.05}},
            "sim": sim,
        })
        assert main([argv[0], path, *argv[1:]]) == 2
        assert field in capsys.readouterr().err


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

    def test_near_tie_marked(self, near_tie_config, capsys):
        assert main(["sweep", near_tie_config, "--param", "comm.params.t",
                     "--from", "0.0", "--to", "0.3", "--steps", "3"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [r[1:] for r in rows[1:]] == [["nan", "nan", "nan", "no_convergence"]] * 3

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


def reference_row(data, path, value):
    """The sweep row of ``value`` at ``path``: a fresh copy of ``data`` holding it, parsed whole and solved."""
    data = copy.deepcopy(data)
    *parents, leaf = path.split(".")
    target = data
    for part in parents:
        target = target[int(part) if isinstance(target, list) else part]
    key = int(leaf) if isinstance(target, list) else leaf
    target[key] = int(value) if type(target[key]) is int and value.is_integer() else value
    try:
        scenario = lb.parse_config(data)
        solution = lb.solve(scenario.network, scenario.solver)
    except lb.ConfigError as exc:
        label = "unstable" if isinstance(exc.__cause__, lb.UnstableNetworkError) else "invalid"
        return [repr(value), "nan", "nan", "nan", label]
    except lb.ConvergenceError:
        return [repr(value), "nan", "nan", "nan", "no_convergence"]
    mean = solution.objective / scenario.network.total_arrival_rate
    return [repr(value), repr(solution.alpha), repr(solution.allocation.transfer_rate), repr(mean),
            solution.partition.compact()]


#: a config with every section, so any of them can be swept
FULL_CONFIG = {
    "nodes": [
        {"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
        {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0},
    ],
    "comm": {"model": "constant", "params": {"t": 0.05}},
    "solver": {"max_outer": 200},
    "sim": {"total_jobs": 8000, "seed": 11, "warmup_fraction": 0.1},
}


class TestSweepPoints:
    @pytest.mark.parametrize("param, start, stop, steps, labels", [
        ("comm.params.t", -0.1, 0.3, 5, {"invalid"}),
        ("solver.max_outer", 0.0, 4.0, 5, {"invalid"}),
        ("sim.warmup_fraction", -0.5, 1.0, 4, {"invalid"}),
        ("nodes.0.arrival_rate", -1.0, 9.0, 6, {"invalid", "unstable"}),
    ])
    def test_rows_match_a_fresh_parse(self, tmp_path, capsys, param, start, stop, steps, labels):
        # whether or not the sweep reuses its parsed nodes, each row is the one a fresh parse gives
        config = write_config(tmp_path / "full.json", FULL_CONFIG)
        assert main(["sweep", config, "--param", param, "--from", repr(start), "--to", repr(stop),
                     "--steps", str(steps)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert len(rows) == steps
        assert rows == [reference_row(FULL_CONFIG, param, float(row[0])) for row in rows]
        assert labels <= {row[4] for row in rows}
        assert any(row[1] != "nan" for row in rows)

    @pytest.mark.parametrize("model, param, start, stop", [
        ("constant", "comm.params.t", 0.0, 1.5),            # one price for every point: its search is kept
        ("mm1_channel", "comm.params.capacity", 0.0, 2.0),  # new prices at every point
        ("constant", "nodes.0.arrival_rate", 0.0, 1.2),     # fresh node state at every point
    ])
    def test_heterogeneous_rows_match_a_fresh_parse(self, tmp_path, capsys, model, param, start, stop):
        # n=60, services over 3.5 decades, some nodes idle or nearly saturated; the ranges are
        # scaled to the instance, so the constant sweep crosses the no-transfer crossover
        rng = np.random.default_rng(60)
        mu = 10.0 ** rng.uniform(-1.5, 2.0, 60)
        rho = rng.uniform(0.05, 0.9, 60)
        rho[:6] = 0.0
        rho[6:10] = rng.uniform(0.95, 0.995, 4)
        phi = rho * mu
        no_transfer_mean = float((phi / (mu - phi)).sum() / phi.sum())
        params = {"t": 0.3 * no_transfer_mean, "capacity": float(phi.sum())}
        scale = {"t": no_transfer_mean, "capacity": float(phi.sum()), "arrival_rate": float(mu.sum() - phi.sum())}
        data = {
            "nodes": [{"id": f"n{i}", "arrival_rate": float(a), "service_rate": float(s)}
                      for i, (a, s) in enumerate(zip(phi, mu))],
            "comm": {"model": model, "params": params if model == "mm1_channel" else {"t": params["t"]}},
        }
        leaf = param.rsplit(".", 1)[1]
        config = write_config(tmp_path / "hetero.json", data)
        assert main(["sweep", config, "--param", param, "--from", repr(start * scale[leaf]),
                     "--to", repr(stop * scale[leaf]), "--steps", "9"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert rows == [reference_row(data, param, float(row[0])) for row in rows]
        assert len({row[1] for row in rows}) > 1
        assert len({row[4] for row in rows}) > 1

    @pytest.mark.parametrize("param", ["solver.max_outer", "sim.seed", "sim.total_jobs"])
    def test_integer_field_gets_whole_values(self, tmp_path, capsys, param):
        config = write_config(tmp_path / "full.json", FULL_CONFIG)
        assert main(["sweep", config, "--param", param, "--from", "1", "--to", "3", "--steps", "3"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert [row[0] for row in rows] == ["1.0", "2.0", "3.0"]
        assert all(row[4] not in ("invalid", "unstable", "no_convergence") for row in rows)

    @pytest.mark.parametrize("param, parses", [("comm.params.t", 1), ("nodes.0.arrival_rate", 1 + 4)])
    def test_node_list_parsed_once_unless_swept(self, asym_config, monkeypatch, capsys, param, parses):
        calls = []
        parse_nodes = loadbal.config._nodes_from_config

        def counted(data):
            calls.append(data)
            return parse_nodes(data)

        monkeypatch.setattr(loadbal.config, "_nodes_from_config", counted)
        assert main(["sweep", asym_config, "--param", param, "--from", "0.5", "--to", "1.0", "--steps", "4"]) == 0
        assert len(calls) == parses


class TestLogging:
    def test_env_var_controls_stderr(self, asym_config):
        import os
        import subprocess
        import sys

        # the child imports the loadbal this suite imports
        src = str(Path(lb.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(level):
            env = dict(os.environ, LOADBAL_LOG=level, PYTHONPATH=path)
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
    def test_one_process_prints_what_fresh_runs_print(self, asym_config, tmp_path, capsys):
        # main builds its parser once per process; no flag or default of one call reaches the next
        import os
        import subprocess
        import sys

        src = str(Path(lb.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        sweep_out, csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "solve.csv", tmp_path / "solve.json"
        runs = [
            ["sweep", asym_config, "--param", "comm.params.t", "--from", "0.0", "--to", "0.3", "--steps", "4",
             "--out", str(sweep_out)],
            ["solve", asym_config, "--format", "csv", "--out", str(csv_out)],
            ["solve", asym_config, "--out", str(json_out)],
            ["simulate", asym_config, "--policy", "static_optimal"],
        ]
        outs = (sweep_out, csv_out, json_out)
        for argv in runs:
            # each call writes exactly the files a fresh run writes: the JSON solve no CSV and
            # the simulation nothing, whatever the call before it set
            for p in outs:
                p.unlink(missing_ok=True)
            fresh = subprocess.run([sys.executable, "-m", "loadbal", *argv], capture_output=True, env=env)
            assert fresh.returncode == 0
            written = {p.name: p.read_bytes() for p in outs if p.exists()}
            for p in outs:
                p.unlink(missing_ok=True)
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == fresh.stdout
            assert {p.name: p.read_bytes() for p in outs if p.exists()} == written
        assert lb.cli._build_parser() is lb.cli._build_parser()

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


@pytest.fixture
def channel_config(tmp_path):
    return write_config(tmp_path / "channel.json", {
        "nodes": [
            {"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
            {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0},
        ],
        "comm": {"model": "mm1_channel", "params": {"t": 0.02, "capacity": 2.0}},
    })


#: name -> (config fixture, argv with {config} and {out} placeholders); outputs in golden_cli.json
GOLDEN_RUNS = {
    "solve-json": ("asym_config", ["solve", "{config}", "--out", "{out}"]),
    "solve-csv": ("asym_config", ["solve", "{config}", "--out", "{out}", "--format", "csv"]),
    "oracle": ("asym_config", ["oracle", "{config}"]),
    "check": ("asym_config", ["check", "{config}"]),
    "simulate": ("asym_config", ["simulate", "{config}", "--policy", "static_optimal", "--out", "{out}"]),
    "sweep": ("asym_config", ["sweep", "{config}", "--param", "comm.params.t",
                              "--from", "0.0", "--to", "0.3", "--steps", "7", "--out", "{out}"]),
    "sweep-unstable": ("asym_config", ["sweep", "{config}", "--param", "nodes.0.arrival_rate",
                                       "--from", "1.0", "--to", "9.0", "--steps", "5", "--out", "{out}"]),
    "sweep-invalid": ("channel_config", ["sweep", "{config}", "--param", "comm.params.t",
                                         "--from", "0.0", "--to", "0.04", "--steps", "3", "--out", "{out}"]),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_golden_outputs(name, request, tmp_path, capsys):
    # exact stdout and --out bytes of the criterion-7 and channel scenarios; each
    # sweep point must see the config as read, whatever the point before it set
    fixture, argv = GOLDEN_RUNS[name]
    out = tmp_path / "out"
    config = request.getfixturevalue(fixture)
    assert main([arg.format(config=config, out=out) for arg in argv]) == 0
    expected = json.loads((Path(__file__).parent / "golden_cli.json").read_text())[name]
    assert capsys.readouterr().out == expected["stdout"]
    assert (out.read_bytes().decode() if out.exists() else None) == expected["out"]
