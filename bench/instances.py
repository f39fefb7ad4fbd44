"""Seeded instance generator for the loadbal benchmark.

Every input the benchmark hands to loadbal is built here as a scenario
dict in the JSON config schema, from a numpy Generator seeded with the
workload seed: the same seed gives the same scenarios.  Instances are
never filtered on what the solver does with them, so a scenario the
solver cannot handle shows up as a failure instead of being skipped.
"""

from __future__ import annotations

import numpy as np

#: service rates are stratified log-uniform over 10**-1.5 .. 10**2 (3.5 decades)
LOG10_SERVICE = (-1.5, 2.0)
#: per-node utilisation of the ordinary nodes, arrival_rate / service_rate
ORDINARY_RHO = (0.05, 0.9)
#: near-saturated nodes run at this utilisation before any balancing
SATURATED_RHO = (0.95, 0.995)
ZERO_ARRIVAL_SHARE = 0.10
SATURATED_SHARE = 0.06


#: one random stream per workload, so workloads share no draws
_STREAMS = {"solve-loaddep": 1, "sweep-constant": 2, "check-small": 3, "simulate-policies": 4}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def _nodes(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrival and service rates of ``n`` heterogeneous nodes.

    Service rates are stratified over the log range so every draw spans
    nearly the full 3.5 decades.  A fixed share of nodes gets no arrivals
    and another fixed share is nearly saturated; at least one of each.
    """
    strata = (rng.permutation(n) + rng.random(n)) / n
    lo, hi = LOG10_SERVICE
    mu = 10.0 ** (lo + (hi - lo) * strata)
    rho = rng.uniform(*ORDINARY_RHO, n)
    order = rng.permutation(n)
    n_zero = max(1, round(ZERO_ARRIVAL_SHARE * n))
    n_sat = max(1, round(SATURATED_SHARE * n))
    rho[order[:n_zero]] = 0.0
    rho[order[n_zero:n_zero + n_sat]] = rng.uniform(*SATURATED_RHO, n_sat)
    return rho * mu, mu


def _scenario(phi: np.ndarray, mu: np.ndarray, comm: dict) -> dict:
    return {
        "nodes": [
            {"id": f"n{i}", "arrival_rate": float(a), "service_rate": float(s)}
            for i, (a, s) in enumerate(zip(phi, mu))
        ],
        "comm": comm,
    }


def heterogeneous(rng: np.random.Generator, n: int, comm_model: str,
                  t_range: tuple[float, float] = (0.1, 1.0)) -> dict:
    """One heterogeneous scenario with a load-dependent or constant interconnect.

    The transfer time is a draw from ``t_range`` times the median bare
    service time, so by default the interconnect is neither free nor
    prohibitive.  Load-dependent models are scaled to the total arrival
    rate, so the channel saturates near the traffic the solver could
    plausibly ship.
    """
    phi, mu = _nodes(rng, n)
    total = float(phi.sum())
    t = float(np.median(1.0 / mu)) * float(rng.uniform(*t_range))
    if comm_model == "mm1_channel":
        comm = {"model": "mm1_channel",
                "params": {"t": t, "capacity": total * float(rng.uniform(0.5, 3.0))}}
    elif comm_model == "polynomial":
        comm = {"model": "polynomial",
                "params": {"coefficients": [0.0, t * float(rng.uniform(0.0, 1.0)) / total,
                                            t * float(rng.uniform(0.5, 2.0)) / total ** 2]}}
    elif comm_model == "constant":
        comm = {"model": "constant", "params": {"t": t}}
    else:
        raise ValueError(f"unknown comm model {comm_model!r}")
    return _scenario(phi, mu, comm)


def loaddep_pool(seed: int, n: int, count: int) -> list[dict]:
    """Scenarios for ``solve-loaddep``, alternating mm1_channel and quadratic comm."""
    rng = _rng(seed, "solve-loaddep")
    models = ("mm1_channel", "polynomial")
    return [heterogeneous(rng, n, models[k % 2]) for k in range(count)]


def no_transfer_mean(scenario: dict) -> float:
    """Mean response time when every node keeps its own arrivals."""
    phi = np.array([nd["arrival_rate"] for nd in scenario["nodes"]])
    mu = np.array([nd["service_rate"] for nd in scenario["nodes"]])
    return float((phi / (mu - phi)).sum() / phi.sum())


def sweep_scenario(seed: int, n: int) -> tuple[dict, float]:
    """The constant-comm scenario of ``sweep-constant``, with its sweep's upper end.

    With constant comm, transferring costs exactly ``t`` on the mean
    response time, so balancing stops paying once ``t`` exceeds the
    no-transfer mean minus the balanced one.  Sweeping ``t`` up to 1.5
    times the no-transfer mean therefore crosses that point on every
    instance: low ``t`` is certified by the price band, high ``t`` by the
    no-transfer comparison.
    """
    scenario = heterogeneous(_rng(seed, "sweep-constant"), n, "constant")
    return scenario, 1.5 * no_transfer_mean(scenario)


def acceptance_instance(rng: np.random.Generator, n: int, kind: int) -> dict:
    """One instance from the acceptance suite's range (services 0.5-10, load <= 80%)."""
    services = rng.uniform(0.5, 10.0, n)
    arrivals = rng.uniform(0.0, services)
    if arrivals.sum() > 0.8 * services.sum():
        arrivals *= 0.8 * services.sum() / arrivals.sum()
    if kind == 0:
        comm = {"model": "constant", "params": {"t": float(rng.uniform(0.0, 0.3))}}
    elif kind == 1:
        comm = {"model": "mm1_channel",
                "params": {"t": float(rng.uniform(0.01, 0.1)),
                           "capacity": float(rng.uniform(0.5, 3.0) * max(arrivals.sum(), 0.5))}}
    else:
        head = float(rng.uniform(0.0, 0.05)) if rng.random() < 0.3 else 0.0
        comm = {"model": "polynomial",
                "params": {"coefficients": [head, float(rng.uniform(0.0, 0.2)),
                                            float(rng.uniform(0.0, 0.05))]}}
    return _scenario(arrivals, services, comm)


def small_pool(seed: int, count: int) -> list[dict]:
    """Instances for ``check-small``: three n=3 to every n=4, comm kinds in rotation."""
    rng = _rng(seed, "check-small")
    return [acceptance_instance(rng, 4 if k % 4 == 3 else 3, k % 3) for k in range(count)]


def sim_scenario(seed: int, n: int) -> dict:
    """The one network of ``simulate-policies``, on a cheap shared M/M/1 channel.

    The channel is cheap enough that balancing pays, so the static optimum
    takes load off the near-saturated nodes.  Left in place (the solver's
    no-transfer answer on a costly channel), a node at 99% utilisation needs
    a run thousands of times longer than one benchmark operation before its
    mean reaches the steady state the analytic objective describes, and the
    simulator check would measure the run length instead of the simulator.
    """
    return heterogeneous(_rng(seed, "simulate-policies"), n, "mm1_channel", t_range=(0.01, 0.1))
