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
The loop can also route a static flow's jobs to their precomputed
targets; it is the recurrence's reference, and the two give the same
report bit for bit.

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
    x = flow.matrix
    rows, cols = np.nonzero(x > 0)
    if not len(rows):
        return jobs.origin, comm
    shares = x[rows, cols] / network.arrival_rates[rows]
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


def _static_router(target: np.ndarray, comm: float):
    """Static routing in the event loop: each job goes to its precomputed target.

    ``_recurrence`` runs the static policies; this router is its reference.
    """
    target = target.tolist()
    return (lambda engine, i: target[engine.job]), None, lambda now, transfers: comm


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


class _Engine:
    """Event loop of the queue-state and threshold policies, over the run's jobs.

    ``router`` is a ``(route, score, transfer_delay)`` triple.  The engine
    recomputes ``scores[j] = score(engine, j)`` whenever a job joins or
    leaves node j and pushes ``(scores[j], j)`` onto the heap ``ranked``;
    ``route(engine, i)`` returns the serving node of job ``engine.job``
    arriving at node i.  A queue-state router picks from the top of
    ``ranked``: every node has an entry holding its current score, and an
    entry whose score has since been rewritten is stale, so the least
    current entry is the node of least score with ties going to the lowest
    index, exactly ``scores.index(min(scores))``.  Picks drop stale entries
    off the top; the heap is rebuilt from ``scores`` once it holds
    ``_RERANK_PER_NODE`` entries per node.  Static routing
    (``_static_router``, the reference for ``_recurrence``) has no score.
    The engine ships a job routed away from its origin, prices it with
    ``transfer_delay(now, transfers shipped so far)`` and counts it; no
    router reads the clock or the count.

    The jobs come from ``_draw_jobs``: arrivals are read off their array
    in order, and a job leaves its work over the serving node's service
    rate after its service starts.  Joins and departures wait in a heap of
    ``(time, seq, kind, node, job)``, and one due at the time of the next
    arrival is handled before it.  A job in transit is
    ``(index, comm_delay)`` and waits in its node's FIFO as one flat tuple
    ``(join_time, index, comm_delay)``.  ``run`` is one loop over local
    state.  The attributes a router reads (``queues``, ``scores``,
    ``ranked``, ``sojourn_sum``, ``sojourn_count``, ``job``) are kept
    current before every ``route`` or ``score`` call; the lists are
    shared, not copied.
    """

    def __init__(self, network: Network, cfg: SimConfig, router):
        self.network = network
        self.cfg = cfg
        self._route, self._score, self._transfer_delay = router
        self.jobs = _draw_jobs(network, cfg)
        self.job = -1
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
        busy_since: list[float | None] = [None] * n
        busy_time = [0.0] * n
        cutoff = int(self.cfg.warmup_fraction * self.cfg.total_jobs)
        window_start = 0.0 if cutoff == 0 else None
        responses: list[float] = []    # per counted job: sojourn at the serving node
        comm_delays: list[float] = []  # per counted job: comm delay (0 if local)
        measured_transfers = transfers = seq = index = 0
        now = 0.0
        heap: list[tuple] = []
        while True:
            if heap and heap[0][0] <= arrivals[index]:
                now, _, kind, j, job = heappop(heap)
                if kind == _DEPART:
                    queue = queues[j]
                    join, done, comm_delay = queue.popleft()
                    sojourn = now - join
                    sojourn_sum[j] += sojourn
                    sojourn_count[j] += 1
                    if score is not None:
                        scores[j] = s = score(self, j)
                        heappush(ranked, (s, j))
                        if len(ranked) > rerank_at:
                            self._rerank()
                    if done >= cutoff:
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
                        heappush(heap, (now + work[queue[0][1]] / mu[j], seq, _DEPART, j, None))
                        seq += 1
                    else:
                        busy_since[j] = None
                    continue
            elif index < total:
                now = arrivals[index]
                if index == cutoff and window_start is None:
                    window_start = now
                i = origins[index]
                self.job = index
                j = route(self, i)
                if j != i:
                    comm_delay = transfer_delay(now, transfers)
                    transfers += 1
                    if index >= cutoff:
                        measured_transfers += 1
                    heappush(heap, (now + comm_delay, seq, _JOIN, j, (index, comm_delay)))
                    seq += 1
                    index += 1
                    continue
                job = (index, 0.0)
                index += 1
            else:
                break
            queues[j].append((now, *job))
            if score is not None:
                scores[j] = s = score(self, j)
                heappush(ranked, (s, j))
                if len(ranked) > rerank_at:
                    self._rerank()
            if busy_since[j] is None:
                busy_since[j] = now
                heappush(heap, (now + work[job[0]] / mu[j], seq, _DEPART, j, None))
                seq += 1
        return _report(busy_time, now - (window_start or 0.0), responses, comm_delays, measured_transfers)


def _recurrence(network: Network, cfg: SimConfig, jobs: _Jobs, target: np.ndarray, comm: float) -> SimReport:
    """Static routing without an event loop: each node is one FIFO queue in join order.

    A job joins its serving node on arrival, or ``comm`` later if shipped,
    and the k-th job to join a node leaves at D_k = max(J_k, D_{k-1}) +
    s_k; joins tied in time at one node go in arrival order, as in the
    event loop.  These are the loop's own float operations, so departures
    and sojourns equal the loop's bit for bit, and so does each node's busy
    time: its departures' service spans clipped at the window's start,
    added one by one in departure order (``np.bincount`` adds its weights
    in order).  Responses are taken in departure order, as the loop records
    them.  Departures at different nodes at the very same float time are
    taken in node order here and in the order the loop queued them; that
    tie rule is the only way the two reports can differ.
    """
    n = len(network)
    shipped = target != jobs.origin
    join = jobs.arrival + np.where(shipped, comm, 0.0)
    service = jobs.work / network.service_rates[target]
    order = np.argsort(join, kind="stable")
    order = order[_by_node(target[order], n)]  # node by node, each in join order
    node, join, service = target[order], join[order], service[order]
    depart = np.empty_like(join)
    hi = 0
    for count in np.bincount(target, minlength=n).tolist():
        lo, hi = hi, hi + count
        latest, departs = -math.inf, []
        for joined, s in zip(join[lo:hi].tolist(), service[lo:hi].tolist()):
            latest = (joined if joined > latest else latest) + s
            departs.append(latest)
        depart[lo:hi] = departs
    cutoff = int(cfg.warmup_fraction * cfg.total_jobs)
    window_start = jobs.arrival[cutoff].item() if 0 < cutoff < len(order) else 0.0
    busy_from = np.empty_like(depart)  # each service's start, max(J_k, D_{k-1}), clipped at the window's start
    busy_from[1:] = depart[:-1]
    busy_from[np.flatnonzero(np.diff(node, prepend=-1))] = -math.inf
    np.maximum(np.maximum(busy_from, join, out=busy_from), window_start, out=busy_from)
    busy_time = np.bincount(node, weights=np.maximum(depart - busy_from, 0.0), minlength=n)
    by_time = np.argsort(depart, kind="stable")
    counted = by_time[order[by_time] >= cutoff]
    end = depart.max().item() if len(depart) else 0.0
    return _report(busy_time.tolist(), end - window_start, depart[counted] - join[counted],
                   np.where(shipped[order[counted]], comm, 0.0), int(np.count_nonzero(shipped[cutoff:])))


def _report(busy_time: list[float], window: float, responses, comm_delays, transfers: int) -> SimReport:
    """The report of a run: busy time over the window, and the measured jobs' statistics.

    ``responses`` and ``comm_delays`` hold each measured job's sojourn at
    its serving node and its comm delay (0 if local), in departure order.
    """
    responses = np.asarray(responses, dtype=float)
    comm_delays = np.asarray(comm_delays, dtype=float)
    if window > 0:
        utilization = tuple(min(b / window, 1.0) for b in busy_time)
    else:
        utilization = tuple(0.0 for _ in busy_time)
    return SimReport(
        mean_response_time=_composite_mean(responses, comm_delays),
        utilization=utilization,
        transfer_count=transfers,
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
