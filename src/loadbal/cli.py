"""Command-line front end.

Commands::

    loadbal solve    CONFIG [--out FILE] [--format json|csv]
    loadbal oracle   CONFIG [--grid N] [--refine R]
    loadbal check    CONFIG [--grid N] [--refine R]
    loadbal simulate CONFIG [--policy P] [--jobs N] [--seed S] [--out FILE]
    loadbal sweep    CONFIG --param PATH --from A --to B --steps K [--out FILE]

Each command reads its config file once.  ``sweep`` solves its points one after
another, each writing its value into that one config.  Unless ``--param`` is
under ``nodes``, it parses the node list once and every point shares that
network's node state (``Network.with_comm``); a ``--param`` under ``nodes``
re-parses the whole config at every point.  Either way each row is bit for
bit the one a fresh parse of that point gives.

Exit codes: 0 success, 1 check failure, 2 invalid input, 3 non-convergence.
``LOADBAL_LOG={error|info|debug}`` controls diagnostics on standard error.
All outputs are deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys
from dataclasses import asdict

from . import __version__
from .config import (ConfigError, Scenario, network_to_config, parse_config, parse_sections, read_config,
                     sim_config)
from .network import Network, UnstableNetworkError
from .flows import synthesize_flows
from .oracle import ComparisonReport, OracleResult, brute_force_optimum, compare_solutions
from .sim import Policy, simulate
from .solver import ConvergenceError, OptimalSolution, solve, verify_optimality

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

log = logging.getLogger("loadbal")


class _UsageError(Exception):
    """Input a command cannot run on that is not a config field's fault (a flag, the oracle's size cap)."""


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("LOADBAL_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def _load(path: str) -> tuple[dict, Scenario]:
    """The config file's decoded JSON and the scenario parsed from it."""
    data = read_config(path)
    scenario = parse_config(data)
    log.info("loaded %s: %d nodes, comm %s", path, len(scenario.network), type(scenario.network.comm).__name__)
    return data, scenario


def _mean_response(network: Network, solution: OptimalSolution) -> float:
    phi_total = network.total_arrival_rate
    return solution.objective / phi_total if phi_total else 0.0


def _emit_csv(rows: list[list], out: str | None) -> None:
    """Print ``rows`` as CSV and, with ``--out``, write the same bytes to that file."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    text = buf.getvalue()
    print(text, end="")
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _solution_report(network: Network, solution: OptimalSolution) -> dict:
    """The solve report; its ``flow`` is the plan, made a dense n x n list only for ``--out`` JSON."""
    flow = synthesize_flows(network, solution.partition, solution.allocation.rates)
    kkt = verify_optimality(network, solution)
    return {
        "config": network_to_config(network),
        "nodes": [
            {"id": node.id, "role": role.value, "arrival_rate": node.arrival_rate, "beta": beta,
             "marginal_delay": node.delay.marginal_delay(beta)}
            for node, role, beta in zip(network.nodes, solution.partition.roles, solution.allocation.rates)
        ],
        "alpha": solution.alpha,
        "lambda": solution.allocation.transfer_rate,
        "comm_price": solution.comm_price,
        "mean_response_time": _mean_response(network, solution),
        "aggregate_objective": solution.objective,
        "no_transfer_override": solution.no_transfer_override,
        "iterations": solution.iterations,
        "flow": flow,
        "kkt": {**asdict(kkt), "worst": kkt.worst()},
    }


def _print_solution(report: dict) -> None:
    print(f"{'node':<12} {'role':<14} {'arrival':>10} {'beta':>12} {'marginal':>12}")
    for row in report["nodes"]:
        print(f"{row['id']:<12} {row['role']:<14} {row['arrival_rate']:>10.4f} "
              f"{row['beta']:>12.6f} {row['marginal_delay']:>12.6f}")
    print(f"alpha              {report['alpha']:.10f}")
    print(f"lambda             {report['lambda']:.10f}")
    print(f"comm_price         {report['comm_price']:.10f}")
    print(f"mean_response_time {report['mean_response_time']:.10f}")
    if report["no_transfer_override"]:
        print("note: no-transfer assignment kept; the interconnect's fixed cost outweighs balancing")


def cmd_solve(args) -> int:
    _, scenario = _load(args.config)
    solution = solve(scenario.network, scenario.solver)
    report = _solution_report(scenario.network, solution)
    _print_solution(report)
    if args.out and args.format == "csv":
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows([["node_id", "role", "beta", "phi", "marginal_delay"]] + [
                [row["id"], row["role"], repr(row["beta"]), repr(row["arrival_rate"]),
                 repr(row["marginal_delay"])] for row in report["nodes"]])
    elif args.out:
        with open(args.out, "w") as fh:
            json.dump({**report, "flow": report["flow"].matrix.tolist()}, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _solve_with_oracle(args) -> tuple[Network, OptimalSolution, OracleResult, ComparisonReport]:
    """The network of ``oracle`` or ``check``, its solution, its brute-force optimum and their comparison.

    A grid only bounds the optimum from above, so when the solver beats it by
    more than the 1e-5 gate of ``check``, a note on standard error says the
    grid cannot confirm the answer; stdout and the exit code do not change.
    """
    _, scenario = _load(args.config)
    try:
        result = brute_force_optimum(scenario.network, grid=args.grid, refine_rounds=args.refine)
    except ValueError as exc:  # more than 5 nodes, or --grid or --refine out of range
        raise _UsageError(str(exc)) from exc
    solution = solve(scenario.network, scenario.solver)
    comparison = compare_solutions(solution, result, scenario.network, objective_tol=1e-5)
    if comparison.objective_gap < -1e-5:
        print(f"note: the solver's objective is {-comparison.objective_gap:.3e} below the oracle's; "
              "the grid is too coarse to confirm optimality at 1e-5, so raise --grid or --refine",
              file=sys.stderr)
    return scenario.network, solution, result, comparison


def cmd_oracle(args) -> int:
    network, _, result, comparison = _solve_with_oracle(args)
    print(f"{'node':<12} {'beta':>12} {'net_transfer':>14}")
    for i, node in enumerate(network.nodes):
        print(f"{node.id:<12} {result.allocation.rates[i]:>12.6f} {result.net_transfers[i]:>14.6f}")
    print(f"objective          {result.objective:.10f}")
    print(f"lambda             {result.allocation.transfer_rate:.10f}")
    print(f"solver_gap         {comparison.objective_gap:.3e}")
    print(f"roles_agree        {str(comparison.roles_agree).lower()}")
    return EXIT_OK


def cmd_check(args) -> int:
    network, solution, result, comparison = _solve_with_oracle(args)
    kkt = verify_optimality(network, solution)
    print(f"solver objective   {solution.objective:.10f}")
    print(f"oracle objective   {result.objective:.10f}")
    print(f"gap                {comparison.objective_gap:.3e}")
    print(f"kkt worst residual {kkt.worst():.3e}")
    print(f"roles              solver={comparison.solver_roles} oracle={comparison.oracle_roles}")
    if not comparison.ok:
        print("check FAILED: solver objective exceeds oracle optimum by more than 1e-5", file=sys.stderr)
    if not kkt.passed():
        print(f"check FAILED: the solution's worst optimality residual {kkt.worst():.3e} exceeds 1e-8",
              file=sys.stderr)
    if not (comparison.ok and kkt.passed()):
        return EXIT_CHECK_FAILED
    print("check passed")
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, scenario = _load(args.config)
    cfg = sim_config(scenario, jobs=args.jobs, seed=args.seed, policy=args.policy)
    network = scenario.network
    flow = thresholds = None
    if cfg.policy is Policy.STATIC_OPTIMAL or cfg.policy is Policy.DYNAMIC_THRESHOLD:
        solution = solve(network, scenario.solver)
        flow = synthesize_flows(network, solution.partition, solution.allocation.rates)
        thresholds = (solution.alpha, solution.alpha + solution.comm_price)
    report = simulate(network, cfg, flow=flow, thresholds=thresholds)
    _emit_csv([
        ["policy", "seed", "jobs", "mean_response", "ci_halfwidth", "transfers"],
        [cfg.policy.value, cfg.seed, cfg.total_jobs,
         repr(report.mean_response_time), repr(report.ci_halfwidth), report.transfer_count],
    ], args.out)
    return EXIT_OK


def _config_leaf(data: dict, path: str) -> tuple:
    """The container and key of the number at a dotted path like ``comm.params.t`` or ``nodes.0.arrival_rate``."""
    *parents, leaf = path.split(".")
    target = data
    for part in parents:
        target = target[_config_key(target, part, path)]
    key = _config_key(target, leaf, path)
    if not isinstance(target[key], (int, float)) or isinstance(target[key], bool):
        raise ConfigError(f"param path {path!r}: does not address a number")
    return target, key


def _config_key(target, part: str, path: str):
    """``part`` as an existing list index or dict key of ``target``."""
    if isinstance(target, list):
        try:
            index = int(part)
            target[index]
        except (ValueError, IndexError):
            raise ConfigError(f"param path {path!r}: bad list index {part!r}") from None
        return index
    if isinstance(target, dict) and part in target:
        return part
    raise ConfigError(f"param path {path!r}: no such field {part!r}")


def _sweep_row(data: dict, value: float, base: Network | None) -> list:
    """Solve ``data``, which holds the point ``value``, on the nodes of ``base``, or parsed afresh for None."""
    try:
        scenario = parse_config(data) if base is None else parse_sections(data, base)
        solution = solve(scenario.network, scenario.solver)
    except ConfigError as exc:
        # the parse wraps the network's UnstableNetworkError in a ConfigError
        label = "unstable" if isinstance(exc.__cause__, UnstableNetworkError) else "invalid"
        return [repr(value), "nan", "nan", "nan", label]
    except ConvergenceError:
        return [repr(value), "nan", "nan", "nan", "no_convergence"]
    return [repr(value), repr(solution.alpha), repr(solution.allocation.transfer_rate),
            repr(_mean_response(scenario.network, solution)), solution.partition.compact()]


def cmd_sweep(args) -> int:
    data, scenario = _load(args.config)  # a config that is invalid before any point is set exits 2
    if args.steps < 2:
        raise _UsageError("--steps must be >= 2")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise _UsageError(f"--from and --to must be finite, got {args.start!r} and {args.stop!r}")
    values = [args.start + (args.stop - args.start) * k / (args.steps - 1) for k in range(args.steps)]
    target, key = _config_leaf(data, args.param)  # a bad --param exits 2 before anything is solved
    integral = isinstance(target[key], int)  # e.g. sim.seed: each whole value is written as an int
    # a point that leaves the node list alone shares the node state of the network parsed above
    base = None if args.param.split(".")[0] == "nodes" else scenario.network
    rows = []
    for value in values:
        target[key] = int(value) if integral and value.is_integer() else value
        rows.append(_sweep_row(data, value, base))
    _emit_csv([["param_value", "alpha", "lambda", "mean_response", "roles"], *rows], args.out)
    return EXIT_OK


@functools.cache  # argparse builds a help formatter per argument; each parse makes a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loadbal", description="Optimal static load allocation toolkit")
    parser.add_argument("--version", action="version", version=f"loadbal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("config")

    p = sub.add_parser("solve", parents=[config], help="solve a scenario and report the allocation")
    p.add_argument("--out", default=None, help="write the report to this file")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_solve)

    for name, func, about in (("oracle", cmd_oracle, "brute-force optimum (n <= 5) and gap to the solver"),
                              ("check", cmd_check, "solve + oracle + compare; exit 1 on disagreement or failed KKT")):
        p = sub.add_parser(name, parents=[config], help=about)
        p.add_argument("--grid", type=int, default=201)
        p.add_argument("--refine", type=int, default=6)
        p.set_defaults(func=func)

    p = sub.add_parser("simulate", parents=[config], help="discrete-event simulation under a routing policy")
    p.add_argument("--policy", default=None,
                   help="static_optimal, no_balancing, sq, med or dynamic_threshold")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[config], help="re-solve while sweeping one numeric config field")
    p.add_argument("--param", required=True, help="dotted path, e.g. comm.params.t or nodes.0.arrival_rate")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.best is not None:
            print(f"best iterate: lambda={exc.best.allocation.transfer_rate!r} "
                  f"alpha={exc.best.alpha!r} objective={exc.best.objective!r}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
