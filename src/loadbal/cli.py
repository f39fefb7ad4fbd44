"""Command-line front end.

Commands::

    loadbal solve    CONFIG [--tol T] [--out FILE] [--format json|csv]
    loadbal oracle   CONFIG [--grid N] [--refine R]
    loadbal check    CONFIG [--grid N] [--refine R]
    loadbal simulate CONFIG [--policy P] [--jobs N] [--seed S] [--out FILE]
    loadbal sweep    CONFIG --param PATH --from A --to B --steps K [--out FILE] [--parallel N]

Exit codes: 0 success, 1 check failure, 2 invalid input, 3 non-convergence.
``LOADBAL_LOG={error|info|debug}`` controls diagnostics on standard error.
All outputs are deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .config import ConfigError, Scenario, load_config, network_to_config, parse_config, sim_config
from .network import Network, UnstableNetworkError
from .flows import synthesize_flows
from .oracle import brute_force_optimum, compare_solutions
from .sim import Policy, simulate
from .solver import ConvergenceError, OptimalSolution, SolverConfig, solve, verify_optimality

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

log = logging.getLogger("loadbal")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("LOADBAL_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def _load(path: str) -> Scenario:
    scenario = load_config(path)
    log.info("loaded %s: %d nodes, comm %s", path, len(scenario.network), type(scenario.network.comm).__name__)
    return scenario


def _solver_config(scenario: Scenario, tol: float | None) -> SolverConfig:
    if tol is None:
        return scenario.solver
    return SolverConfig(alpha_tol=tol, lambda_tol=scenario.solver.lambda_tol, max_outer=scenario.solver.max_outer)


def _solution_report(network: Network, solution: OptimalSolution) -> dict:
    flow = synthesize_flows(network, solution.partition, solution.allocation.rates)
    kkt = verify_optimality(network, solution)
    phi_total = network.total_arrival_rate
    return {
        "config": network_to_config(network),
        "nodes": [
            {
                "id": node.id,
                "role": solution.partition.roles[i].value,
                "arrival_rate": node.arrival_rate,
                "beta": solution.allocation.rates[i],
                "marginal_delay": node.delay.marginal_delay(solution.allocation.rates[i]),
            }
            for i, node in enumerate(network.nodes)
        ],
        "alpha": solution.alpha,
        "lambda": solution.allocation.transfer_rate,
        "comm_price": solution.comm_price,
        "mean_response_time": solution.objective / phi_total if phi_total else 0.0,
        "aggregate_objective": solution.objective,
        "no_transfer_override": solution.no_transfer_override,
        "iterations": solution.iterations,
        "flow": flow.matrix.tolist(),
        "kkt": {
            "sink_price": kkt.sink_price,
            "source_price": kkt.source_price,
            "neutral_band": kkt.neutral_band,
            "idle_bound": kkt.idle_bound,
            "mass_balance": kkt.mass_balance,
            "transfer_identity": kkt.transfer_identity,
            "comm_price_consistency": kkt.comm_price_consistency,
            "structure_ok": kkt.structure_ok,
            "override_margin": kkt.override_margin,
            "worst": kkt.worst(),
        },
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


def _write_solution_csv(report: dict, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(["node_id", "role", "beta", "phi", "marginal_delay"])
    for row in report["nodes"]:
        writer.writerow([row["id"], row["role"], repr(row["beta"]),
                         repr(row["arrival_rate"]), repr(row["marginal_delay"])])


def cmd_solve(args) -> int:
    scenario = _load(args.config)
    solution = solve(scenario.network, _solver_config(scenario, args.tol))
    report = _solution_report(scenario.network, solution)
    _print_solution(report)
    if args.out:
        if args.format == "csv":
            with open(args.out, "w", newline="") as fh:
                _write_solution_csv(report, fh)
        else:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    scenario = _load(args.config)
    if len(scenario.network) > 5:
        print(f"error: oracle handles at most 5 nodes, config has {len(scenario.network)}", file=sys.stderr)
        return EXIT_INPUT
    result = brute_force_optimum(scenario.network, grid=args.grid, refine_rounds=args.refine)
    solution = solve(scenario.network, scenario.solver)
    comparison = compare_solutions(solution, result, scenario.network)
    print(f"{'node':<12} {'beta':>12} {'net_transfer':>14}")
    for i, node in enumerate(scenario.network.nodes):
        print(f"{node.id:<12} {result.allocation.rates[i]:>12.6f} {result.net_transfers[i]:>14.6f}")
    print(f"objective          {result.objective:.10f}")
    print(f"lambda             {result.allocation.transfer_rate:.10f}")
    print(f"solver_gap         {comparison.objective_gap:.3e}")
    print(f"roles_agree        {str(comparison.roles_agree).lower()}")
    return EXIT_OK


def cmd_check(args) -> int:
    scenario = _load(args.config)
    if len(scenario.network) > 5:
        print(f"error: oracle handles at most 5 nodes, config has {len(scenario.network)}", file=sys.stderr)
        return EXIT_INPUT
    solution = solve(scenario.network, scenario.solver)
    result = brute_force_optimum(scenario.network, grid=args.grid, refine_rounds=args.refine)
    comparison = compare_solutions(solution, result, scenario.network, objective_tol=1e-5)
    kkt = verify_optimality(scenario.network, solution)
    print(f"solver objective   {solution.objective:.10f}")
    print(f"oracle objective   {result.objective:.10f}")
    print(f"gap                {comparison.objective_gap:.3e}")
    print(f"kkt worst residual {kkt.worst():.3e}")
    print(f"roles              solver={comparison.solver_roles} oracle={comparison.oracle_roles}")
    if not comparison.ok:
        print("check FAILED: solver objective exceeds oracle optimum by more than 1e-5", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("check passed")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args.config)
    cfg = sim_config(scenario, jobs=args.jobs, seed=args.seed, policy=args.policy)
    network = scenario.network
    flow = None
    thresholds = None
    if cfg.policy is Policy.STATIC_OPTIMAL or cfg.policy is Policy.DYNAMIC_THRESHOLD:
        solution = solve(network, scenario.solver)
        flow = synthesize_flows(network, solution.partition, solution.allocation.rates)
        thresholds = (solution.alpha, solution.alpha + solution.comm_price)
    report = simulate(network, cfg, flow=flow, thresholds=thresholds)
    rows = [
        ["policy", "seed", "jobs", "mean_response", "ci_halfwidth", "transfers"],
        [cfg.policy.value, cfg.seed, cfg.total_jobs,
         repr(report.mean_response_time), repr(report.ci_halfwidth), report.transfer_count],
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(rows)
    text = buf.getvalue()
    print(text, end="")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _set_config_path(data: dict, path: str, value: float) -> None:
    """Assign ``value`` at a dotted path like ``comm.params.t`` or ``nodes.0.arrival_rate``."""
    *parents, leaf = path.split(".")
    target = data
    for part in parents:
        target = target[_config_key(target, part, path)]
    key = _config_key(target, leaf, path)
    if not isinstance(target[key], (int, float)) or isinstance(target[key], bool):
        raise ConfigError(f"param path {path!r}: does not address a number")
    target[key] = value


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


def _sweep_row(base: dict, path: str, value: float, solver: SolverConfig) -> list:
    data = json.loads(json.dumps(base))
    _set_config_path(data, path, value)
    try:
        scenario = parse_config(data)
        solution = solve(scenario.network, solver)
    except (ConfigError, UnstableNetworkError) as exc:
        # parse_config wraps the network's UnstableNetworkError in a ConfigError
        unstable = isinstance(exc, UnstableNetworkError) or isinstance(exc.__cause__, UnstableNetworkError)
        return [repr(value), "nan", "nan", "nan", "unstable" if unstable else "invalid"]
    except ConvergenceError:
        return [repr(value), "nan", "nan", "nan", "no_convergence"]
    phi_total = scenario.network.total_arrival_rate
    mean = solution.objective / phi_total if phi_total else 0.0
    return [repr(value), repr(solution.alpha), repr(solution.allocation.transfer_rate),
            repr(mean), solution.partition.compact()]


def cmd_sweep(args) -> int:
    scenario = _load(args.config)
    with open(args.config) as fh:
        base = json.load(fh)
    if args.steps < 2:
        print("error: --steps must be >= 2", file=sys.stderr)
        return EXIT_INPUT
    values = [args.start + (args.stop - args.start) * k / (args.steps - 1) for k in range(args.steps)]
    # validate the path once up front so typos fail fast
    probe = json.loads(json.dumps(base))
    _set_config_path(probe, args.param, values[0])
    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            rows = list(pool.map(lambda v: _sweep_row(base, args.param, v, scenario.solver), values))
    else:
        rows = [_sweep_row(base, args.param, v, scenario.solver) for v in values]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["param_value", "alpha", "lambda", "mean_response", "roles"])
    writer.writerows(rows)
    text = buf.getvalue()
    print(text, end="")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loadbal", description="Optimal static load allocation toolkit")
    parser.add_argument("--version", action="version", version=f"loadbal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a scenario and report the allocation")
    p.add_argument("config")
    p.add_argument("--tol", type=float, default=None,
                   help="alpha_tol override: the relative alpha step at which the price search stops")
    p.add_argument("--out", default=None, help="write the report to this file")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force optimum (n <= 5) and gap to the solver")
    p.add_argument("config")
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--refine", type=int, default=6)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="solve + oracle + compare; nonzero exit on disagreement")
    p.add_argument("config")
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--refine", type=int, default=6)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="discrete-event simulation under a routing policy")
    p.add_argument("config")
    p.add_argument("--policy", default=None,
                   help="static_optimal, no_balancing, sq, med or dynamic_threshold")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="re-solve while sweeping one numeric config field")
    p.add_argument("config")
    p.add_argument("--param", required=True, help="dotted path, e.g. comm.params.t or nodes.0.arrival_rate")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnstableNetworkError as exc:
        print(f"error: unstable network: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.best is not None:
            print(f"best iterate: lambda={exc.best.allocation.transfer_rate!r} "
                  f"alpha={exc.best.alpha!r} objective={exc.best.objective!r}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
