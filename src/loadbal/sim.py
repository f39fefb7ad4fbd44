"""Seeded discrete-event simulation of the network under routing policies.

One event loop drives every policy through one router protocol: a
policy scores each node, the engine keeps the scores current and ranked
in a heap, and the router picks the serving node from the top of that
heap.  Routers only route: the engine ships each transfer, prices it
with the policy's delay function and counts it (see ``_Engine``).  The
loop is a single function over local state: a job is a plain tuple and
each event is handled inline, with no per-event method call.  All
randomness comes from a single numpy generator consumed in event order,
so a seed pins the whole trace bit for bit.  Policies that do not use
randomness for routing consume none, which makes e.g. the threshold
policy with an unreachable upper threshold reproduce the no-balancing
trace exactly; their runs take the exponentials in blocks, which read
the same stream as one draw at a time.

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

#: batch means per confidence interval, and the two-sided 95% Student-t
#: critical value at their 19 degrees of freedom
_BATCHES = 20
_T_CRIT_19 = 2.093024054408263

_ARRIVE, _JOIN, _DEPART = 0, 1, 2

#: standard exponentials drawn per numpy call by runs that draw no uniforms
_BLOCK = 1024
#: entries per node at which a queue-state run rebuilds its score heap
_RERANK_PER_NODE = 4


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
        warmup = self.warmup_fraction
        if not (isinstance(warmup, numbers.Real) and not isinstance(warmup, bool) and 0.0 <= warmup < 1.0):
            raise ValueError(f"warmup_fraction must be a number in [0, 1), got {warmup!r}")
        if not isinstance(self.policy, Policy):
            valid = ", ".join(p.value for p in Policy)
            raise ValueError(f"policy must be a Policy member (one of {valid}), got {self.policy!r}")


@dataclass(frozen=True)
class SimReport:
    mean_response_time: float
    utilization: tuple[float, ...]
    transfer_count: int
    ci_halfwidth: float


def _static_router(network: Network, flow: FlowMatrix):
    """Bernoulli splitting that realizes the fluid rates of a flow matrix.

    Bisects one uniform per arrival into the node's cumulative split
    probabilities; arrivals at nodes with no outgoing flow consume none.
    A flow with no splits at all routes nothing: its ``route`` is None.
    Transfers pay the fixed mean delay G at the flow's total traffic.

    Every table comes from one array division of the positive entries of
    x by their row's phi, summed up each row in order: the same additions
    as a per-row cumsum, so the same floats, with no n x n temporary.
    """
    lam = flow.total_rate
    comm = network.comm.delay(lam) if lam > 0 else 0.0
    x = flow.matrix
    rows, cols = np.nonzero(x > 0)
    shares = (x[rows, cols] / network.arrival_rates[rows]).tolist()
    splits = [([], [i]) for i in range(len(network))]
    for i, j, share in zip(rows.tolist(), cols.tolist(), shares):
        cum, choices = splits[i]
        cum.append(cum[-1] + share if cum else share)
        choices.insert(-1, j)

    def route(engine: "_Engine", i: int) -> int:
        cum, choices = splits[i]
        if not cum:
            return i
        return choices[bisect_right(cum, engine.rng.random())]

    return route if len(rows) else None, None, lambda now, transfers: comm


def _running_rate_delay(network: Network):
    """Mean interconnect delay G at the run's empirical transfer rate.

    The rate is (transfers + 1) / now, kept below saturation; G(0) before
    the clock moves.  Every rate is in range, so G skips the rate check.
    """
    delay = network.comm.unchecked_delay
    cap = network.comm.max_rate * (1.0 - 1e-9)  # inf for an unbounded model

    def transfer_delay(now: float, transfers: int) -> float:
        return delay(min((transfers + 1) / now, cap) if now > 0.0 else 0.0)

    return transfer_delay


def _route_to_min(engine: "_Engine", i: int) -> int:
    """The lowest-index node of least score: ``scores.index(min(scores))``.

    Stale heap entries (a score since rewritten) are dropped off the top
    until the top entry is current.
    """
    scores, ranked = engine.scores, engine.ranked
    s, j = ranked[0]
    while scores[j] != s:
        heapq.heappop(ranked)
        s, j = ranked[0]
    return j


def _best_other(engine: "_Engine", i: int) -> int:
    """``_route_to_min`` over every node but i; i itself if it is the only node.

    The origin's current entries are set aside while the top is read, and
    one of them is pushed back.
    """
    scores, ranked = engine.scores, engine.ranked
    best, aside = i, None
    while ranked:
        s, j = ranked[0]
        if scores[j] != s:
            heapq.heappop(ranked)
        elif j == i:
            aside = heapq.heappop(ranked)
        else:
            best = j
            break
    if aside is not None:
        heapq.heappush(ranked, aside)
    return best


def _queue_state_router(network: Network, expected_delay: bool):
    """Shortest-queue / minimum-expected-delay routing; no randomness.

    SQ scores a node by its jobs in system, MED by (jobs + 1) / service_rate.
    A job only moves (and pays communication delay) if the best node is not
    its origin.
    """
    transfer_delay = _running_rate_delay(network)
    if not expected_delay:
        return _route_to_min, lambda engine, j: len(engine.queues[j]), transfer_delay
    mu = network.service_rates.tolist()
    return _route_to_min, lambda engine, j: (len(engine.queues[j]) + 1) / mu[j], transfer_delay


def _threshold_router(network: Network, low: float, high: float):
    """Sender-initiated threshold policy using the solver's two prices.

    A node's score is its marginal delay at an estimated load: jobs in
    system divided by a running mean of observed sojourns (seeded with the
    bare service time before any completion).  An arrival whose node scores
    above ``high`` is shipped to the best other node, provided that node
    scores below ``low``.
    """
    if not low <= high:
        raise ValueError(f"thresholds must satisfy low <= high, got low={low}, high={high}")
    delays = [node.delay for node in network.nodes]
    mu = [delay.service_rate for delay in delays]

    def score(engine: "_Engine", j: int) -> float:
        count = engine.sojourn_count[j]
        mean_sojourn = engine.sojourn_sum[j] / count if count else 1.0 / mu[j]
        load = len(engine.queues[j]) / mean_sojourn
        if load >= mu[j]:
            return math.inf
        return delays[j].marginal_delay(load)

    def route(engine: "_Engine", i: int) -> int:
        if not engine.scores[i] > high:
            return i
        best = _best_other(engine, i)
        return best if engine.scores[best] < low else i

    return route, score, _running_rate_delay(network)


def _standard_exponentials(rng: np.random.Generator):
    """The generator's standard exponentials, drawn ``_BLOCK`` at a time."""
    while True:
        yield from rng.standard_exponential(_BLOCK).tolist()


class _Engine:
    """Event loop shared by all policies.

    ``router`` is a ``(route, score, transfer_delay)`` triple.  The engine
    recomputes ``scores[j] = score(engine, j)`` whenever a job joins or
    leaves node j and pushes ``(scores[j], j)`` onto the heap ``ranked``;
    ``route(engine, i)`` returns the serving node of a job arriving at i.
    A queue-state router picks from the top of ``ranked``: every node has
    an entry holding its current score, and an entry whose score has since
    been rewritten is stale, so the least current entry is the node of
    least score with ties going to the lowest index, exactly
    ``scores.index(min(scores))``.  Picks drop stale entries off the top;
    the heap is rebuilt from ``scores`` once it holds ``_RERANK_PER_NODE``
    entries per node.  Static routing has no score, and a flow with no
    splits has no route.  The engine ships a job routed away from its
    origin, prices it with ``transfer_delay(now, transfers shipped so
    far)`` and counts it; no router reads the clock or the count.

    Only a static router with splits draws uniforms, one per arrival at a
    node with splits, interleaved with the exponentials.  Every other run
    draws its standard exponentials ``_BLOCK`` at a time and scales them by
    the mean: numpy's ``exponential(mean)`` is ``mean *
    standard_exponential()``, and a block reads the same stream as scalar
    calls, so the trace is the same bit for bit.

    ``run`` is one loop over local state.  A heap entry is ``(time, seq,
    kind, node, job)``; a job in transit is ``(index, comm_delay)`` and
    waits in its node's FIFO as one flat tuple ``(join_time, index,
    comm_delay)``.  The attributes a router reads (``queues``, ``scores``,
    ``ranked``, ``sojourn_sum``, ``sojourn_count``, ``rng``) are kept current before
    every ``route`` or ``score`` call; the lists are shared, not copied.
    """

    def __init__(self, network: Network, cfg: SimConfig, router):
        self.network = network
        self.cfg = cfg
        self._route, self._score, self._transfer_delay = router
        self.rng = np.random.default_rng(cfg.seed)
        n = len(network)
        self.queues: list[deque] = [deque() for _ in range(n)]
        self.sojourn_sum = [0.0] * n
        self.sojourn_count = [0] * n
        self.scores = [] if self._score is None else [self._score(self, j) for j in range(n)]
        self.ranked: list[tuple[float, int]] = []
        self._rerank()

    def _rerank(self) -> None:
        """Rebuild ``ranked`` in place from the current scores, one entry per node."""
        self.ranked[:] = zip(self.scores, range(len(self.scores)))
        heapq.heapify(self.ranked)

    def run(self) -> SimReport:
        route, score, transfer_delay = self._route, self._score, self._transfer_delay
        if route is not None and score is None:
            standard_exponential = self.rng.standard_exponential
        else:
            standard_exponential = _standard_exponentials(self.rng).__next__
        heappush, heappop = heapq.heappush, heapq.heappop
        queues, scores, ranked = self.queues, self.scores, self.ranked
        sojourn_sum, sojourn_count = self.sojourn_sum, self.sojourn_count
        nodes = self.network.nodes
        n = len(nodes)
        rerank_at = _RERANK_PER_NODE * n
        mean_gap = [1.0 / node.arrival_rate if node.arrival_rate > 0 else None for node in nodes]
        mean_service = [1.0 / node.delay.service_rate for node in nodes]
        busy_since: list[float | None] = [None] * n
        busy_time = [0.0] * n
        total_jobs = self.cfg.total_jobs
        cutoff = int(self.cfg.warmup_fraction * total_jobs)
        window_start = 0.0 if cutoff == 0 else None
        responses: list[float] = []    # per counted job: sojourn at the serving node
        comm_delays: list[float] = []  # per counted job: comm delay (0 if local)
        measured_transfers = transfers = arrived = scheduled = seq = 0
        now = 0.0
        heap: list[tuple] = []
        for i in range(n):
            if mean_gap[i] is not None and scheduled < total_jobs:
                scheduled += 1
                heappush(heap, (mean_gap[i] * standard_exponential(), seq, _ARRIVE, i, None))
                seq += 1
        while heap:
            now, _, kind, j, job = heappop(heap)
            if kind == _DEPART:
                queue = queues[j]
                join, index, comm_delay = queue.popleft()
                sojourn = now - join
                sojourn_sum[j] += sojourn
                sojourn_count[j] += 1
                if score is not None:
                    scores[j] = s = score(self, j)
                    heappush(ranked, (s, j))
                    if len(ranked) > rerank_at:
                        self._rerank()
                if index >= cutoff:
                    responses.append(sojourn)
                    comm_delays.append(comm_delay)
                if window_start is not None:
                    start = busy_since[j]
                    if start < window_start:
                        start = window_start
                    if now > start:
                        busy_time[j] += now - start
                if queue:
                    busy_since[j] = now
                    heappush(heap, (now + mean_service[j] * standard_exponential(), seq, _DEPART, j, None))
                    seq += 1
                else:
                    busy_since[j] = None
                continue
            if kind == _ARRIVE:
                index = arrived
                arrived += 1
                if index == cutoff and window_start is None:
                    window_start = now
                if scheduled < total_jobs:
                    scheduled += 1
                    heappush(heap, (now + mean_gap[j] * standard_exponential(), seq, _ARRIVE, j, None))
                    seq += 1
                target = j if route is None else route(self, j)
                if target != j:
                    comm_delay = transfer_delay(now, transfers)
                    transfers += 1
                    if index >= cutoff:
                        measured_transfers += 1
                    heappush(heap, (now + comm_delay, seq, _JOIN, target, (index, comm_delay)))
                    seq += 1
                    continue
                queues[j].append((now, index, 0.0))
            else:
                queues[j].append((now, *job))
            if score is not None:
                scores[j] = s = score(self, j)
                heappush(ranked, (s, j))
                if len(ranked) > rerank_at:
                    self._rerank()
            if busy_since[j] is None:
                busy_since[j] = now
                heappush(heap, (now + mean_service[j] * standard_exponential(), seq, _DEPART, j, None))
                seq += 1

        window = now - (window_start or 0.0)
        if window > 0:
            utilization = tuple(min(b / window, 1.0) for b in busy_time)
        else:
            utilization = tuple(0.0 for _ in busy_time)
        return SimReport(
            mean_response_time=_composite_mean(responses, comm_delays),
            utilization=utilization,
            transfer_count=measured_transfers,
            ci_halfwidth=_batch_means_halfwidth(responses, comm_delays),
        )


def _composite_mean(sojourns: list[float], comm_delays: list[float]) -> float:
    if not sojourns:
        return 0.0
    mean = sum(sojourns) / len(sojourns)
    transferred = [c for c in comm_delays if c > 0]
    if transferred:
        mean += sum(transferred) / len(transferred)
    return mean


def _batch_means_halfwidth(sojourns: list[float], comm_delays: list[float]) -> float:
    """95% halfwidth from ``_BATCHES`` batch means of the composite statistic."""
    per_batch = len(sojourns) // _BATCHES
    if per_batch < 1:
        return math.inf
    means = []
    for b in range(_BATCHES):
        lo, hi = b * per_batch, (b + 1) * per_batch
        means.append(_composite_mean(sojourns[lo:hi], comm_delays[lo:hi]))
    arr = np.asarray(means)
    spread = float(arr.std(ddof=1))
    return _T_CRIT_19 * spread / math.sqrt(_BATCHES)


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
