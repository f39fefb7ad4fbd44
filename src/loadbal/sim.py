"""Seeded simulation of the network under routing policies.

Every job's randomness is drawn up front, in arrival order, from one
numpy generator seeded with the run's seed (``_draw_jobs``): the gaps of
the merged Poisson arrival stream at the total rate Phi, each job's
origin (node i with probability phi_i / Phi), a routing uniform, and a
service requirement that the serving node's service rate turns into a
service time.  A run is exactly the first ``total_jobs`` arrivals.  The
draws depend on neither the policy nor the order of events, so every
policy run under one seed sees the same jobs (common random numbers),
and a seed pins every report bit for bit.

The static policies (``static_optimal``, ``no_balancing``) need no event
loop.  A job's serving node comes from its origin's split table and its
routing uniform; it joins that node on arrival, or one transfer delay
later if shipped; and each node is then one FIFO queue in join order,
D_k = max(J_k, D_{k-1}) + s_k (Lindley, 1952).  See ``_recurrence``.
The queue-state and threshold policies route on the queues as they
stand, so they run in one event loop, ``_Engine``, over the same jobs.
The two engines differ only in how they find each job's serving node,
service start and departure; both hand those times to one ``_summary``,
which builds the report.  Routed to the same targets at the same
transfer delay, the two give the same report bit for bit.

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
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import FlowMatrix, Network, check_feasibility, relay_count

#: batch means per confidence interval, and the two-sided 95% Student-t
#: critical value at their 19 degrees of freedom
_BATCHES = 20
_T_CRIT_19 = 2.093024054408263

_JOIN, _DEPART = 0, 1

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


@dataclass(frozen=True)
class _Jobs:
    """Every job of a run in arrival order, one array entry per job."""

    arrival: np.ndarray  # arrival time
    origin: np.ndarray   # index of the node the job arrives at
    uniform: np.ndarray  # routing uniform in [0, 1)
    work: np.ndarray     # service requirement: the service time at unit service rate


def _draw_jobs(network: Network, cfg: SimConfig) -> _Jobs:
    """The run's ``total_jobs`` jobs, drawn field by field; a network without arrivals has none."""
    rng = np.random.default_rng(cfg.seed)
    phi_total = network.total_arrival_rate
    if not phi_total > 0:
        empty = np.empty(0)
        return _Jobs(empty, np.empty(0, dtype=np.intp), empty, empty)
    count = cfg.total_jobs
    arrival = np.cumsum(rng.standard_exponential(count) / phi_total)
    cdf = np.cumsum(network.arrival_rates)
    origin = np.searchsorted(cdf / cdf[-1], rng.random(count), side="right")
    return _Jobs(arrival, origin, rng.random(count), rng.standard_exponential(count))


def _by_node(nodes: np.ndarray, n: int) -> np.ndarray:
    """Stable argsort of node indices; in a narrow integer type numpy sorts them by radix."""
    return np.argsort(nodes.astype(np.min_scalar_type(n)), kind="stable")


def _static_routes(network: Network, flow: FlowMatrix, jobs: _Jobs) -> tuple[np.ndarray, float]:
    """Each job's serving node under Bernoulli splitting at the rates of ``flow``, and the transfer delay.

    Node i's split table holds the cumulative shares x[i][j] / phi_i of its
    positive entries in column order; a job goes to the first column whose
    cumulative share exceeds its routing uniform, and stays at its origin
    past the last.  Every transfer pays the fixed mean delay G at the
    flow's total traffic.
    """
    lam = flow.total_rate
    comm = network.comm.delay(lam) if lam > 0 else 0.0
    rows, cols, rates = flow.entries
    if not len(rows):
        return jobs.origin, comm
    shares = rates / network.arrival_rates[rows]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))  # each split row's first entry
    stops = [*starts[1:].tolist(), len(rows)]
    choices = np.insert(cols, stops, rows[starts])  # each split row's columns, then the row itself
    n = len(network)
    by_origin = _by_node(jobs.origin, n)
    uniform, routed = jobs.uniform[by_origin], jobs.origin[by_origin]
    bounds = [0, *np.cumsum(np.bincount(jobs.origin, minlength=n)).tolist()]
    for k, (lo, hi) in enumerate(zip(starts.tolist(), stops)):
        i = rows[lo]
        mine = slice(bounds[i], bounds[i + 1])
        pick = np.searchsorted(np.cumsum(shares[lo:hi]), uniform[mine], side="right")
        routed[mine] = choices[lo + k:hi + k + 1][pick]
    target = np.empty_like(routed)
    target[by_origin] = routed
    return target, comm


def _running_rate_delay(network: Network):
    """Mean interconnect delay G at the run's empirical transfer rate: the event loop's transfer price.

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

    return route, score


class _Engine:
    """Event loop of the queue-state and threshold policies, over the run's jobs.

    ``router`` is a ``(route, score)`` pair.  The engine recomputes
    ``scores[j] = score(engine, j)`` whenever a job joins or leaves node j
    and pushes ``(scores[j], j)`` onto the heap ``ranked``;
    ``route(engine, i)`` returns the serving node of the job arriving at
    node i.  A queue-state router picks from the top of ``ranked``: every
    node has an entry holding its current score, and an entry whose score
    has since been rewritten is stale, so the least current entry is the
    node of least score with ties going to the lowest index, exactly
    ``scores.index(min(scores))``.  Picks drop stale entries off the top;
    the heap is rebuilt from ``scores`` once it holds ``_RERANK_PER_NODE``
    entries per node.  The engine ships a job routed away from its origin,
    prices it with ``_running_rate_delay`` at the clock and the transfers
    shipped so far, and counts it; no router reads the clock or the count.

    The jobs come from ``_draw_jobs``: arrivals are read off their array
    in order, and a job leaves its work over the serving node's service
    rate after its service starts.  Joins and departures wait in a heap of
    ``(time, seq, kind, node, job)``, and one due at the time of the next
    arrival is handled before it.  Each node's FIFO holds job indices; a
    node is idle when a job that joins it is alone in its FIFO.  ``run`` is
    one loop over local state that records each job's serving node, join
    time, service start, departure and comm delay (0 if local), and keeps
    no statistics: ``_summary`` turns those times into the report.  The
    attributes a router reads (``queues``, ``scores``, ``ranked``,
    ``sojourn_sum``, ``sojourn_count``) are kept current before every
    ``route`` or ``score`` call; the lists are shared, not copied.
    """

    def __init__(self, network: Network, cfg: SimConfig, router):
        self.network = network
        self.cfg = cfg
        self._route, self._score = router
        self.jobs = _draw_jobs(network, cfg)
        n = len(network)
        self.queues: list[deque] = [deque() for _ in range(n)]
        self.sojourn_sum = [0.0] * n
        self.sojourn_count = [0] * n
        self.scores = [self._score(self, j) for j in range(n)]
        self.ranked: list[tuple[float, int]] = []
        self._rerank()

    def _rerank(self) -> None:
        """Rebuild ``ranked`` in place from the current scores, one entry per node."""
        self.ranked[:] = zip(self.scores, range(len(self.scores)))
        heapq.heapify(self.ranked)

    def run(self) -> SimReport:
        route, score, transfer_delay = self._route, self._score, _running_rate_delay(self.network)
        heappush, heappop = heapq.heappush, heapq.heappop
        queues, scores, ranked = self.queues, self.scores, self.ranked
        sojourn_sum, sojourn_count = self.sojourn_sum, self.sojourn_count
        mu = self.network.service_rates.tolist()
        n = len(mu)
        rerank_at = _RERANK_PER_NODE * n
        arrivals = self.jobs.arrival.tolist()
        origins = self.jobs.origin.tolist()
        work = self.jobs.work.tolist()
        total = len(arrivals)
        arrivals.append(math.inf)
        node, comm = self.jobs.origin.copy(), [0.0] * total
        join, start, depart = [0.0] * total, [0.0] * total, [0.0] * total
        transfers = seq = index = 0
        heap: list[tuple] = []
        while True:
            if heap and heap[0][0] <= arrivals[index]:
                now, _, kind, j, k = heappop(heap)
                if kind == _DEPART:
                    queue = queues[j]
                    queue.popleft()
                    depart[k] = now
                    sojourn_sum[j] += now - join[k]
                    sojourn_count[j] += 1
                    scores[j] = s = score(self, j)
                    heappush(ranked, (s, j))
                    if len(ranked) > rerank_at:
                        self._rerank()
                    if queue:
                        k = queue[0]
                        start[k] = now
                        heappush(heap, (now + work[k] / mu[j], seq, _DEPART, j, k))
                        seq += 1
                    continue
            elif index < total:
                now, k = arrivals[index], index
                index += 1
                i = origins[k]
                j = route(self, i)
                if j != i:
                    node[k], comm[k] = j, transfer_delay(now, transfers)
                    transfers += 1
                    heappush(heap, (now + comm[k], seq, _JOIN, j, k))
                    seq += 1
                    continue
            else:
                break
            join[k] = now
            queue = queues[j]
            queue.append(k)
            scores[j] = s = score(self, j)
            heappush(ranked, (s, j))
            if len(ranked) > rerank_at:
                self._rerank()
            if len(queue) == 1:
                start[k] = now
                heappush(heap, (now + work[k] / mu[j], seq, _DEPART, j, k))
                seq += 1
        return _summary(n, self.cfg, self.jobs, node, join, start, depart, comm)


def _recurrence(network: Network, cfg: SimConfig, jobs: _Jobs, target: np.ndarray, comm: float) -> SimReport:
    """Static routing without an event loop: each node is one FIFO queue in join order.

    A job joins its serving node on arrival, or ``comm`` later if shipped;
    the k-th job to join a node starts service at max(J_k, D_{k-1}) and
    leaves at D_k = max(J_k, D_{k-1}) + s_k.  Joins tied in time at one
    node go in arrival order, as in the event loop.  These are the loop's
    own float operations, so every job's times equal the loop's bit for
    bit, and ``_summary`` turns them into the same report.  Each node's
    times are built in plain lists, written into the node's slice of the
    node-by-node order and scattered back to job order once.
    """
    n = len(network)
    delay = np.where(target != jobs.origin, comm, 0.0)
    join = jobs.arrival + delay
    service = jobs.work / network.service_rates[target]
    order = np.argsort(join, kind="stable")
    order = order[_by_node(target[order], n)]  # node by node, each in join order
    begin, end = join[order], service[order]  # each slice's joins and services become its starts and departures
    hi = 0
    for count in np.bincount(target, minlength=n).tolist():
        lo, hi = hi, hi + count
        latest, starts, departs = -math.inf, [], []
        for joined, s in zip(begin[lo:hi].tolist(), end[lo:hi].tolist()):
            first = joined if joined > latest else latest
            latest = first + s
            starts.append(first)
            departs.append(latest)
        begin[lo:hi], end[lo:hi] = starts, departs
    start, depart = np.empty_like(join), np.empty_like(join)
    start[order], depart[order] = begin, end
    return _summary(n, cfg, jobs, target, join, start, depart, delay)


def _summary(n: int, cfg: SimConfig, jobs: _Jobs, node, join, start, depart, comm) -> SimReport:
    """The report of a run from each job's serving node, join time, service start, departure and comm delay.

    The jobs are those of ``_draw_jobs``, and each array is in their order.
    The first ``warmup_fraction`` of them are warm-up: the window opens at
    the first measured arrival (at 0 without warm-up) and closes at the
    last departure.  A node's busy time is its service spans clipped at the
    window's start, added in departure order (``np.bincount`` adds its
    weights in order).  The measured jobs' sojourns at their serving nodes
    and comm delays are taken in departure order, exact ties in arrival
    order; a measured job served away from its origin is a transfer.
    """
    node, join, start, depart, comm = map(np.asarray, (node, join, start, depart, comm))
    cutoff = int(cfg.warmup_fraction * cfg.total_jobs)
    window_start = jobs.arrival[cutoff].item() if 0 < cutoff < len(depart) else 0.0
    window = (depart.max().item() if len(depart) else 0.0) - window_start
    by_time = np.argsort(depart, kind="stable")
    spans = np.maximum(depart - np.maximum(start, window_start), 0.0)
    busy = np.bincount(node[by_time], weights=spans[by_time], minlength=n).tolist()
    counted = by_time[by_time >= cutoff]
    responses, comm_delays = depart[counted] - join[counted], comm[counted]
    return SimReport(
        mean_response_time=_composite_mean(responses, comm_delays),
        utilization=tuple(min(b / window, 1.0) if window > 0 else 0.0 for b in busy),
        transfer_count=int(np.count_nonzero(node[cutoff:] != jobs.origin[cutoff:])),
        ci_halfwidth=_batch_means_halfwidth(responses, comm_delays),
    )


def _composite_mean(sojourns: np.ndarray, comm_delays: np.ndarray) -> float:
    if not len(sojourns):
        return 0.0
    mean = float(sojourns.mean())
    transferred = comm_delays[comm_delays > 0]
    if len(transferred):
        mean += float(transferred.mean())
    return mean


def _batch_means_halfwidth(sojourns: np.ndarray, comm_delays: np.ndarray) -> float:
    """95% halfwidth from ``_BATCHES`` batch means of the composite statistic."""
    per_batch = len(sojourns) // _BATCHES
    if per_batch < 1:
        return math.inf
    size = per_batch * _BATCHES
    means = [_composite_mean(s, c) for s, c in zip(sojourns[:size].reshape(_BATCHES, per_batch),
                                                   comm_delays[:size].reshape(_BATCHES, per_batch))]
    spread = float(np.std(means, ddof=1))
    return _T_CRIT_19 * spread / math.sqrt(_BATCHES)


def simulate_static(network: Network, flow: FlowMatrix, cfg: SimConfig) -> SimReport:
    """Simulate probabilistic routing at the rates of ``flow``.

    Poisson arrivals per node; each job is shipped to node j with
    probability x[i][j] / arrival_rate, pays the interconnect's mean delay
    at the flow's total traffic if shipped, then queues FIFO at the
    serving node (``_recurrence``).  Rejects assignments that saturate a
    node and flows containing relays (a relayed job would have to be
    transferred twice).
    """
    report = check_feasibility(network, flow)
    if not report.feasible:
        raise ValueError("infeasible flow: " + "; ".join(report.violations))
    if relay_count(flow) > 0:
        raise ValueError("flow contains relay nodes; eliminate them first")
    jobs = _draw_jobs(network, cfg)
    return _recurrence(network, cfg, jobs, *_static_routes(network, flow, jobs))


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
