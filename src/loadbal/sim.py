"""Seeded discrete-event simulation of the network under routing policies.

One event loop drives every policy through one router protocol: a
policy scores each node, the engine keeps the scores current, and the
router picks the serving node with one ``min`` (see ``_Engine``).  All
randomness comes from a single numpy generator consumed in event order,
so a seed pins the whole trace bit for bit.  Policies that do not use
randomness for routing consume none, which makes e.g. the threshold
policy with an unreachable upper threshold reproduce the no-balancing
trace exactly.

The reported ``mean_response_time`` is directly comparable to the
analytic objective: mean node sojourn per completed job, plus the mean
communication delay per *transferred* job (zero if nothing was
transferred).  The communication part is averaged over transfers, not
over all jobs, because that is how the objective weights it.
"""

from __future__ import annotations

import heapq
import math
import numbers
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import FlowMatrix, Network, check_feasibility, relay_count

#: two-sided 95% Student-t critical value at 19 degrees of freedom
_T_CRIT_19 = 2.093024054408263

_ARRIVE, _JOIN, _DEPART = 0, 1, 2


class Policy(Enum):
    STATIC_OPTIMAL = "static_optimal"
    NO_BALANCING = "no_balancing"
    SQ = "sq"
    MED = "med"
    DYNAMIC_THRESHOLD = "dynamic_threshold"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    total_jobs: int
    seed: int
    warmup_fraction: float = 0.1
    policy: Policy = Policy.STATIC_OPTIMAL

    def __post_init__(self) -> None:
        if not _is_int(self.total_jobs) or self.total_jobs < 1:
            raise ValueError(f"total_jobs must be an integer >= 1, got {self.total_jobs!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SimReport:
    mean_response_time: float
    utilization: tuple[float, ...]
    transfer_count: int
    ci_halfwidth: float


class _Job:
    __slots__ = ("index", "join", "transferred", "comm_delay")

    def __init__(self, index: int):
        self.index = index
        self.transferred = False
        self.comm_delay = 0.0


def _static_router(network: Network, flow: FlowMatrix):
    """Bernoulli splitting that realizes the fluid rates of a flow matrix.

    Bisects one uniform per arrival into the node's cumulative split
    probabilities; arrivals at nodes with no outgoing flow consume none.
    Transfers pay the fixed mean delay G at the flow's total traffic.
    """
    lam = flow.total_rate
    comm = network.comm.delay(lam) if lam > 0 else 0.0
    x = flow.matrix
    splits = []
    for i, node in enumerate(network.nodes):
        targets = np.flatnonzero(x[i] > 0)
        cum = np.cumsum(x[i, targets] / node.arrival_rate).tolist()
        splits.append((cum, [(int(j), comm) for j in targets] + [(i, 0.0)]))

    def route(engine: "_Engine", i: int) -> tuple[int, float]:
        cum, choices = splits[i]
        if not cum:
            return i, 0.0
        return choices[bisect_right(cum, engine.rng.random())]

    return route, None


def _route_to_min(engine: "_Engine", i: int) -> tuple[int, float]:
    scores = engine.scores
    j = scores.index(min(scores))
    if j == i:
        return i, 0.0
    return j, engine.transfer_delay()


def _queue_state_router(network: Network, expected_delay: bool):
    """Shortest-queue / minimum-expected-delay routing; no randomness.

    SQ scores a node by its jobs in system, MED by (jobs + 1) / service_rate.
    A job only moves (and pays communication delay) if the best node is not
    its origin.
    """
    if not expected_delay:
        return _route_to_min, lambda engine, j: len(engine.queues[j])
    mu = network.service_rates.tolist()
    return _route_to_min, lambda engine, j: (len(engine.queues[j]) + 1) / mu[j]


def _threshold_router(network: Network, low: float, high: float):
    """Sender-initiated threshold policy using the solver's two prices.

    A node's score is its marginal delay at an estimated load: jobs in
    system divided by a running mean of observed sojourns (seeded with the
    bare service time before any completion).  An arrival whose node scores
    above ``high`` is shipped to the best other node, provided that node
    scores below ``low``.
    """
    if low > high:
        raise ValueError(f"thresholds must satisfy low <= high, got {low} > {high}")
    delays = [node.delay for node in network.nodes]
    mu = [delay.service_rate for delay in delays]

    def score(engine: "_Engine", j: int) -> float:
        count = engine.sojourn_count[j]
        mean_sojourn = engine.sojourn_sum[j] / count if count else 1.0 / mu[j]
        load = len(engine.queues[j]) / mean_sojourn
        if load >= mu[j]:
            return math.inf
        return delays[j].marginal_delay(load)

    def route(engine: "_Engine", i: int) -> tuple[int, float]:
        scores = engine.scores
        own = scores[i]
        if not own > high:
            return i, 0.0
        scores[i] = math.inf  # the origin is no candidate
        best = min(scores)
        j = scores.index(best)
        scores[i] = own
        if best < low:
            return j, engine.transfer_delay()
        return i, 0.0

    return route, score


class _Engine:
    """Event loop shared by all policies.

    ``router`` is a ``(route, score)`` pair.  The engine recomputes
    ``scores[j] = score(engine, j)`` whenever a job joins or leaves node j;
    ``route(engine, i)`` returns the serving node of a job arriving at i,
    and its communication delay, from one ``min`` over ``scores`` (ties go
    to the lowest index).  Static routing has no score.
    """

    def __init__(self, network: Network, cfg: SimConfig, router):
        self.network = network
        self.cfg = cfg
        self._route, self._score = router
        self.rng = np.random.default_rng(cfg.seed)
        n = len(network)
        self.now = 0.0
        self.queues: list[deque[_Job]] = [deque() for _ in range(n)]
        self._busy_since: list[float | None] = [None] * n
        self._busy_time = [0.0] * n
        self.sojourn_sum = [0.0] * n
        self.sojourn_count = [0] * n
        self._heap: list[tuple] = []
        self._seq = 0
        self._scheduled = 0
        self._arrived = 0
        self._cutoff = int(cfg.warmup_fraction * cfg.total_jobs)
        self._window_start: float | None = 0.0 if self._cutoff == 0 else None
        self.transfers_total = 0
        self._responses: list[float] = []       # per counted job: sojourn at the serving node
        self._comm_delays: list[float] = []     # per counted job: comm delay (0 if local)
        self._measured_transfers = 0
        self.scores = [] if self._score is None else [self._score(self, j) for j in range(n)]

    # -- policy-visible state ------------------------------------------------

    def transfer_delay(self) -> float:
        """Mean interconnect delay at the running empirical transfer rate."""
        comm = self.network.comm
        if self.now <= 0.0:
            rate = 0.0
        else:
            rate = (self.transfers_total + 1) / self.now
        if math.isfinite(comm.max_rate):
            rate = min(rate, comm.max_rate * (1.0 - 1e-9))
        return comm.delay(rate)

    # -- event machinery -----------------------------------------------------

    def _push(self, time: float, kind: int, node: int, job: _Job | None) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, node, job))
        self._seq += 1

    def _schedule_arrival(self, i: int) -> None:
        if self._scheduled >= self.cfg.total_jobs:
            return
        self._scheduled += 1
        gap = self.rng.exponential(1.0 / self.network.nodes[i].arrival_rate)
        self._push(self.now + gap, _ARRIVE, i, None)

    def run(self) -> SimReport:
        for i, node in enumerate(self.network.nodes):
            if node.arrival_rate > 0:
                self._schedule_arrival(i)
        while self._heap:
            time, _, kind, node, job = heapq.heappop(self._heap)
            self.now = time
            if kind == _ARRIVE:
                self._on_arrival(node)
            elif kind == _JOIN:
                self._on_join(node, job)
            else:
                self._on_depart(node)
        return self._report()

    def _on_arrival(self, i: int) -> None:
        job = _Job(self._arrived)
        self._arrived += 1
        if job.index == self._cutoff and self._window_start is None:
            self._window_start = self.now
        self._schedule_arrival(i)
        target, comm_delay = self._route(self, i)
        if target != i:
            job.transferred = True
            job.comm_delay = comm_delay
            self.transfers_total += 1
            self._push(self.now + comm_delay, _JOIN, target, job)
        else:
            self._on_join(i, job)

    def _on_join(self, j: int, job: _Job) -> None:
        job.join = self.now
        self.queues[j].append(job)
        if self._score is not None:
            self.scores[j] = self._score(self, j)
        if self._busy_since[j] is None:
            self._start_service(j)

    def _start_service(self, j: int) -> None:
        self._busy_since[j] = self.now
        service = self.rng.exponential(1.0 / self.network.nodes[j].delay.service_rate)
        self._push(self.now + service, _DEPART, j, None)

    def _on_depart(self, j: int) -> None:
        job = self.queues[j].popleft()
        sojourn = self.now - job.join
        self.sojourn_sum[j] += sojourn
        self.sojourn_count[j] += 1
        if self._score is not None:
            self.scores[j] = self._score(self, j)
        if job.index >= self._cutoff:
            self._responses.append(sojourn)
            self._comm_delays.append(job.comm_delay)
            if job.transferred:
                self._measured_transfers += 1
        start = self._busy_since[j]
        if self._window_start is not None:
            self._busy_time[j] += max(0.0, self.now - max(start, self._window_start))
        if self.queues[j]:
            self._start_service(j)
        else:
            self._busy_since[j] = None

    # -- output ----------------------------------------------------------------

    def _report(self) -> SimReport:
        window = self.now - (self._window_start or 0.0)
        if window > 0:
            utilization = tuple(min(b / window, 1.0) for b in self._busy_time)
        else:
            utilization = tuple(0.0 for _ in self._busy_time)
        mean = _composite_mean(self._responses, self._comm_delays)
        return SimReport(
            mean_response_time=mean,
            utilization=utilization,
            transfer_count=self._measured_transfers,
            ci_halfwidth=_batch_means_halfwidth(self._responses, self._comm_delays),
        )


def _composite_mean(sojourns: list[float], comm_delays: list[float]) -> float:
    if not sojourns:
        return 0.0
    mean = sum(sojourns) / len(sojourns)
    transferred = [c for c in comm_delays if c > 0]
    if transferred:
        mean += sum(transferred) / len(transferred)
    return mean


def _batch_means_halfwidth(sojourns: list[float], comm_delays: list[float], batches: int = 20) -> float:
    """95% halfwidth from batch means of the composite statistic."""
    per_batch = len(sojourns) // batches
    if per_batch < 1:
        return math.inf
    means = []
    for b in range(batches):
        lo, hi = b * per_batch, (b + 1) * per_batch
        means.append(_composite_mean(sojourns[lo:hi], comm_delays[lo:hi]))
    arr = np.asarray(means)
    spread = float(arr.std(ddof=1))
    return _T_CRIT_19 * spread / math.sqrt(batches)


def simulate_static(network: Network, flow: FlowMatrix, cfg: SimConfig) -> SimReport:
    """Simulate probabilistic routing at the rates of ``flow``.

    Poisson arrivals per node; each job is shipped to node j with
    probability x[i][j] / arrival_rate, pays the interconnect's mean delay
    at the flow's total traffic if shipped, then queues FIFO at the
    serving node.  Rejects assignments that saturate a node and flows
    containing relays (a relayed job would have to be transferred twice).
    """
    report = check_feasibility(network, flow)
    if not report.feasible:
        raise ValueError("infeasible flow: " + "; ".join(report.violations))
    if relay_count(flow) > 0:
        raise ValueError("flow contains relay nodes; eliminate them first")
    return _Engine(network, cfg, _static_router(network, flow)).run()


def simulate_dynamic(network: Network, thresholds: tuple[float, float], cfg: SimConfig) -> SimReport:
    """Simulate the sender-initiated threshold policy.

    ``thresholds`` is (low, high), normally the solved common sink price
    and that price plus the communication surcharge.  ``high = inf``
    disables transfers entirely and reproduces the no-balancing trace for
    the same seed.
    """
    low, high = thresholds
    return _Engine(network, cfg, _threshold_router(network, low, high)).run()


def simulate(network: Network, cfg: SimConfig, *, flow: FlowMatrix | None = None,
             thresholds: tuple[float, float] | None = None) -> SimReport:
    """Dispatch on ``cfg.policy``; see the specific entry points."""
    if cfg.policy is Policy.STATIC_OPTIMAL:
        if flow is None:
            raise ValueError("static_optimal needs a flow matrix")
        return simulate_static(network, flow, cfg)
    if cfg.policy is Policy.NO_BALANCING:
        return simulate_static(network, FlowMatrix.zero(len(network)), cfg)
    if cfg.policy is Policy.DYNAMIC_THRESHOLD:
        if thresholds is None:
            raise ValueError("dynamic_threshold needs (low, high) thresholds")
        return simulate_dynamic(network, thresholds, cfg)
    return _Engine(network, cfg, _queue_state_router(network, cfg.policy is Policy.MED)).run()
