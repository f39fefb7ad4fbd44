"""The four benchmark workloads.

Each workload has a set-up (instance generation and config / network
construction, plus for ``simulate-policies`` the one solve), one timed
operation that the harness repeats for the run's duration, and a check
of that operation's outputs that runs outside the timed region.  The
workloads call loadbal only through its public functions, via an
:class:`Api` whose functions record spans in a traced run.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import loadbal as lb
import loadbal.cli

import instances

KKT_TOL = 1e-8          # verify_optimality(...).passed() on every solution
ORACLE_TOL = 1e-5       # compare_solutions(...).ok on every check
SIM_REL_TOL = 0.05      # acceptance criterion 5: static simulation within 5% of the objective
SWEEP_HEADER = ["param_value", "alpha", "lambda", "mean_response", "roles"]


class Api:
    """The public loadbal functions the workloads call, span-wrapped when tracing."""

    def __init__(self, tracer):
        self.wrap = wrap = tracer.wrap
        self.parse_config = wrap("config.parse", lb.parse_config)
        self.solve = wrap("solver.solve", lb.solve, _solve_attrs)
        self.verify = wrap("solver.verify", lb.verify_optimality)
        self.synthesize = wrap("flows.synthesize", lb.synthesize_flows)
        self.oracle = wrap("oracle.search", lb.brute_force_optimum, _oracle_attrs)
        self.compare = wrap("oracle.compare", lb.compare_solutions)
        self.cli_main = wrap("cli.main", loadbal.cli.main)
        self.simulate = {p: wrap(f"sim.{p.value}", lb.simulate, _sim_attrs) for p in lb.Policy}


def _solve_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


def _oracle_attrs(args, kwargs, result):
    # rows the grid search evaluates, as computed from its settings
    return {"rows": kwargs["grid"] ** (len(args[0]) - 1) * (kwargs["refine_rounds"] + 1)}


def _sim_attrs(args, kwargs, result):
    cfg = args[1]
    return {"jobs": cfg.total_jobs,
            "measured": cfg.total_jobs - int(cfg.warmup_fraction * cfg.total_jobs),
            "transfers": result.transfer_count}


@dataclass
class Verdicts:
    """Outcome of every correctness check in a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    solutions: int = 0
    overrides: int = 0
    kkt_worst: float = 0.0
    gap_max: float = -math.inf
    sim_rel_err: float = 0.0
    verify_s: float = 0.0
    synthesize_s: float = 0.0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def solution(self, network, solution) -> bool:
        """KKT verdict and flow synthesis on one solution, timed for the per-layer report.

        Every workload produces solutions, so timing these two calls here
        gives their per-layer times on every workload.
        """
        start = time.perf_counter()
        worst = lb.verify_optimality(network, solution).worst()
        verified = time.perf_counter()
        flow = lb.synthesize_flows(network, solution.partition, solution.allocation.rates)
        self.verify_s += verified - start
        self.synthesize_s += time.perf_counter() - verified
        self.solutions += 1
        self.overrides += solution.no_transfer_override
        self.kkt_worst = max(self.kkt_worst, worst)
        return worst <= KKT_TOL and realizes(network, solution, flow)


def realizes(network, solution, flow) -> bool:
    """The flow is relay-free and carries the solved rates and traffic, to 1e-9 of total arrivals."""
    scale = max(network.total_arrival_rate, 1.0)
    realized = lb.processing_rates(network, flow)
    return (lb.relay_count(flow) == 0
            and float(abs(realized - solution.allocation.rates).max()) <= 1e-9 * scale
            and abs(flow.total_rate - solution.allocation.transfer_rate) <= 1e-9 * scale)


@dataclass
class Op:
    """One timed operation: its outputs to check, latency, and items that passed."""

    out: object          # dropped once checked, so outputs do not pile up in memory
    latency: float = 0.0
    ok_items: int = 0
    detail: object = None  # what the workload's named metrics need after the check


class Workload:
    """Set-up, timed operation and checks of one workload."""

    name: str
    item: str  # what one unit of items_per_s is
    cycle: int  # operations in one pass over the instance pool; a timed pass ends on a whole one

    def finish(self, state, v: Verdicts) -> None:
        """Checks that need every operation of a pass; none by default."""


class SolveLoaddep(Workload):
    """Library pipeline solve -> verify_optimality -> synthesize_flows.

    Load-dependent comm forces the outer traffic bisection, so nearly all
    the time goes to the per-node partition sweeps.
    """

    name = "solve-loaddep"
    item = "solves"

    def __init__(self, tiny: bool):
        self.n, self.cycle = (24, 2) if tiny else (200, 4)

    def setup(self, seed: int, api: Api, workdir: Path):
        return [api.parse_config(s).network for s in instances.loaddep_pool(seed, self.n, self.cycle)]

    def op(self, nets, k: int, api: Api) -> Op:
        net = nets[k % len(nets)]
        try:
            sol = api.solve(net)
        except lb.ConvergenceError as exc:
            return Op((net, exc))
        kkt = api.verify(net, sol)
        flow = api.synthesize(net, sol.partition, sol.allocation.rates)
        return Op((net, sol, kkt, flow))

    def check(self, nets, op: Op, v: Verdicts) -> None:
        if isinstance(op.out[1], lb.ConvergenceError):
            v.record(False, f"solve: ConvergenceError: {op.out[1]}")
            return
        net, sol, kkt, flow = op.out
        flow_ok = realizes(net, sol, flow)
        ok = v.record(v.solution(net, sol) and kkt.passed(KKT_TOL) and flow_ok,
                      f"solve: kkt worst {kkt.worst():.3g}, flow realizes rates: {flow_ok}")
        op.ok_items = int(ok)

    def named_metrics(self, run) -> list[tuple[str, float, str]]:
        return [("solves_per_s", run.items_per_s, "1/s"),
                ("solve_ms_p50", run.op_ms_p50, "ms"),
                ("solve_ms_tail", run.op_ms_tail, "ms")]


class SweepConstant(Workload):
    """``loadbal sweep`` in-process over comm.params.t on one constant-comm scenario.

    One outer probe per point; the work is the per-point config copy and
    parse, the Network build, the inner alpha search and the no-transfer
    comparison.  Each sweep's range crosses the no-transfer crossover.
    """

    name = "sweep-constant"
    item = "sweep points"
    cycle = 1

    def __init__(self, tiny: bool):
        self.n, self.steps = (30, 4) if tiny else (600, 12)

    def setup(self, seed: int, api: Api, workdir: Path):
        scenario, stop = instances.sweep_scenario(seed, self.n)
        path = workdir / f"sweep-{seed}.json"
        path.write_text(json.dumps(scenario))
        return {"path": str(path), "scenario": scenario, "stop": stop, "verified": {}}

    def op(self, state, k: int, api: Api) -> Op:
        argv = ["sweep", state["path"], "--param", "comm.params.t", "--from", "0.0",
                "--to", repr(state["stop"]), "--steps", str(self.steps)]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = api.cli_main(argv)
        return Op((code, buf.getvalue()))

    def check(self, state, op: Op, v: Verdicts) -> None:
        code, text = op.out
        if code != 0:
            for _ in range(self.steps):
                v.record(False, f"sweep: exit code {code}")
            return
        if text not in state["verified"]:
            state["verified"][text] = self._row_verdicts(state["scenario"], text, v)
        for ok, what in state["verified"][text]:
            op.ok_items += v.record(ok, what)

    def _row_verdicts(self, scenario: dict, text: str, v: Verdicts) -> list[tuple[bool, str]]:
        """Each CSV row against a library solve of the same point."""
        rows = list(csv.reader(io.StringIO(text)))
        if rows[:1] != [SWEEP_HEADER] or len(rows) != self.steps + 1:
            return [(False, f"sweep: malformed CSV ({len(rows)} lines)")] * self.steps
        verdicts = []
        for row in rows[1:]:
            value = float(row[0])
            data = copy.deepcopy(scenario)
            data["comm"]["params"]["t"] = value
            parsed = lb.parse_config(data)
            net = parsed.network
            try:
                sol = lb.solve(net, parsed.solver)
            except lb.ConvergenceError as exc:
                verdicts.append((False, f"sweep t={value!r}: ConvergenceError: {exc}"))
                continue
            mean = sol.objective / net.total_arrival_rate
            expected = [repr(value), repr(sol.alpha), repr(sol.allocation.transfer_rate),
                        repr(mean), sol.partition.compact()]
            solution_ok = v.solution(net, sol)
            verdicts.append((row == expected and solution_ok,
                             f"sweep t={value!r}: row matches library solve: {row == expected}, "
                             f"kkt and flow ok: {solution_ok}"))
        return verdicts

    def named_metrics(self, run) -> list[tuple[str, float, str]]:
        return [("sweep_points_per_s", run.items_per_s, "1/s")]


class CheckSmall(Workload):
    """solve + brute_force_optimum + compare_solutions at n=3 and n=4.

    Acceptance-suite instance range and oracle grids; the oracle's grid
    dominates at n=4, the solver's per-call overhead shows at n=3.
    """

    name = "check-small"
    item = "checks"
    GRIDS = {3: (201, 6), 4: (61, 9)}

    def __init__(self, tiny: bool):
        self.cycle = 4 if tiny else 12

    def setup(self, seed: int, api: Api, workdir: Path):
        return [api.parse_config(s).network for s in instances.small_pool(seed, self.cycle)]

    def op(self, nets, k: int, api: Api) -> Op:
        net = nets[k % len(nets)]
        try:
            sol = api.solve(net)
        except lb.ConvergenceError as exc:
            return Op((net, exc))
        grid, refine = self.GRIDS[len(net)]
        oracle = api.oracle(net, grid=grid, refine_rounds=refine)
        return Op((net, sol, api.compare(sol, oracle, net, objective_tol=ORACLE_TOL)))

    def check(self, nets, op: Op, v: Verdicts) -> None:
        if isinstance(op.out[1], lb.ConvergenceError):
            v.record(False, f"check: ConvergenceError: {op.out[1]}")
            return
        net, sol, comparison = op.out
        v.gap_max = max(v.gap_max, comparison.objective_gap)
        solution_ok = v.solution(net, sol)
        ok = v.record(comparison.ok and solution_ok,
                      f"check n={len(net)}: gap {comparison.objective_gap:.3g}, kkt and flow ok: {solution_ok}")
        op.ok_items = int(ok)

    def named_metrics(self, run) -> list[tuple[str, float, str]]:
        return [("checks_per_s", run.items_per_s, "1/s")]


STATIC = (lb.Policy.STATIC_OPTIMAL, lb.Policy.NO_BALANCING)
DYNAMIC = (lb.Policy.SQ, lb.Policy.MED, lb.Policy.DYNAMIC_THRESHOLD)


class SimulatePolicies(Workload):
    """All five routing policies on one network; solve and flows in set-up.

    Static Bernoulli routing and the O(n)-scan queue-state routers use
    the event engine differently, so their throughputs are kept apart.
    One operation is a round of all five policies under one seed.
    """

    name = "simulate-policies"
    item = "simulated jobs"
    cycle = 1

    def __init__(self, tiny: bool):
        self.n, self.static_jobs, self.dynamic_jobs = (20, 10_000, 300) if tiny else (200, 10_000, 1_500)

    def setup(self, seed: int, api: Api, workdir: Path):
        net = api.parse_config(instances.sim_scenario(seed, self.n)).network
        sol = api.solve(net)
        flow = api.synthesize(net, sol.partition, sol.allocation.rates)
        return {"seed": seed, "net": net, "sol": sol, "flow": flow, "static_means": [],
                "thresholds": (sol.alpha, sol.alpha + sol.comm_price),
                "predicted": sol.objective / net.total_arrival_rate}

    def op(self, state, k: int, api: Api) -> Op:
        runs = []
        for policy in STATIC + DYNAMIC:
            jobs = self.static_jobs if policy in STATIC else self.dynamic_jobs
            cfg = lb.SimConfig(total_jobs=jobs, seed=state["seed"] * 100_000 + k, policy=policy)
            start = time.perf_counter()
            report = api.simulate[policy](state["net"], cfg, flow=state["flow"],
                                          thresholds=state["thresholds"])
            runs.append((policy, jobs, time.perf_counter() - start, report))
        return Op(runs, detail=[r[:3] for r in runs])

    def check(self, state, op: Op, v: Verdicts) -> None:
        for policy, jobs, _, report in op.out:
            mean = report.mean_response_time
            if policy is lb.Policy.STATIC_OPTIMAL:
                state["static_means"].append(mean)
            ok = math.isfinite(mean) and mean > 0
            if policy is lb.Policy.NO_BALANCING:
                ok = ok and report.transfer_count == 0
            if v.record(ok, f"simulate {policy.value}: mean {mean!r}, transfers {report.transfer_count}"):
                op.ok_items += jobs

    def finish(self, state, v: Verdicts) -> None:
        """The set-up solution's checks, and criterion 5 on the pooled static mean.

        Every run starts empty and is short, so single runs are noisy; the
        mean over all static_optimal runs of the pass is what is compared
        with the steady-state objective.
        """
        v.record(v.solution(state["net"], state["sol"]), "simulate: set-up solution fails KKT or flow check")
        means = state["static_means"]
        pooled = sum(means) / len(means)
        rel = abs(pooled - state["predicted"]) / state["predicted"]
        v.sim_rel_err = max(v.sim_rel_err, rel)
        v.record(rel <= SIM_REL_TOL, f"simulate static_optimal: pooled mean {pooled!r} over "
                                     f"{len(means)} runs vs objective {state['predicted']!r}")

    def named_metrics(self, run) -> list[tuple[str, float, str]]:
        def rate(policies):
            """The policies' jobs per second of simulate time."""
            runs = [r for op in run.ops for r in op.detail if r[0] in policies]
            return sum(r[1] for r in runs) / sum(r[2] for r in runs)
        return [("sim_static_jobs_per_s", rate(STATIC), "1/s"),
                ("sim_dynamic_jobs_per_s", rate(DYNAMIC), "1/s")]


WORKLOADS = {w.name: w for w in (SolveLoaddep, SweepConstant, CheckSmall, SimulatePolicies)}
