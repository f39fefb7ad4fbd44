"""Price-based solver for the optimal static allocation.

The optimum has a water-filling structure driven by two scalars: a common
marginal node delay ``alpha`` shared by every node that absorbs load, and a
communication surcharge ``comm_price = Phi * G'(lambda)`` paid by every node
that ships load away.  Each node's role follows from where its marginal
delay curve sits relative to those prices:

* sinks run at marginal delay exactly ``alpha`` and take more than their
  own arrivals;
* active sources run at exactly ``alpha + comm_price`` and keep only part
  of their arrivals;
* idle sources are so slow that even their first unit of load costs more
  than ``alpha + comm_price``, so they ship everything;
* neutral nodes sit inside the price band and keep exactly their arrivals.

Both prices are found exactly.  For a fixed surcharge c, conservation of
load pins ``alpha``: the residual (allocated minus arriving load) is
K - S1 alpha^(-1/2) - S2 (alpha + c)^(-1/2) between consecutive role
breakpoints 1/mu_i - c, f_i(phi_i) - c and f_i(phi_i), with
f(beta) = mu / (mu - beta)^2.  Sorting those breakpoints locates the
segment holding the root, which is then solved on that segment in closed
form or by a few monotone Newton steps (single-point water-filling, as in
Tantawi & Towsley 1985 and Kim & Kameda 1992).  The traffic ``lambda``
solves the self-consistency gap between assumed and implied transfer
traffic, since the surcharge itself depends on it; Illinois regula falsi
brackets it, usually within ten probes.  Interconnect models with a fixed cost
at zero traffic make the objective discontinuous at the no-transfer
point; the solver compares the converged interior candidate against the
exact no-transfer assignment and returns the better, flagging the case
where the comparison (not the price conditions) is what justifies the
answer.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .delays import mm1_inverse_marginal_delay, mm1_marginal_delay
from .network import (
    ACTIVE_CODE,
    IDLE_CODE,
    NEUTRAL_CODE,
    SINK_CODE,
    Allocation,
    Network,
    NodePartition,
    aggregate_objective,
    comm_term,
    node_sum,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """The one solver setting: ``max_outer`` caps the outer traffic probes.

    Both scalar searches stop where float64 stops resolving them, so
    there is no tolerance to set.
    """

    max_outer: int = 200

    def __post_init__(self) -> None:
        max_outer = self.max_outer
        if isinstance(max_outer, bool) or not isinstance(max_outer, numbers.Integral) or max_outer < 1:
            raise ValueError(f"max_outer must be an integer >= 1, got {max_outer!r}")


@dataclass(frozen=True)
class SolutionResiduals:
    """How well the returned solution satisfies its own identities."""

    mass_balance: float          # |sum(beta) - Phi|
    sink_surplus_gap: float      # |lambda - sum over sinks of (beta - phi)|
    source_deficit_gap: float    # |lambda - sum over sources of (phi - beta)|
    lambda_step: float           # last fixed-point update size


@dataclass(frozen=True)
class OptimalSolution:
    allocation: Allocation
    partition: NodePartition
    alpha: float
    comm_price: float
    objective: float             # aggregate objective of the returned allocation
    iterations: int
    residuals: SolutionResiduals
    no_transfer_override: bool = False
    interior_objective: float | None = None


class ConvergenceError(RuntimeError):
    """The solver found no answer it can certify.

    Either the fixed point on the transfer traffic did not settle (or settles
    only within the implied traffic's rounding noise, which a large-mu sink
    can lift above the 1e-9*Phi gate), or total arrivals lie within rounding
    of the capacity that can absorb them.  Carries the best iterate, where
    there is one, so callers can inspect or report it.
    """

    def __init__(self, message: str, best: OptimalSolution | None = None):
        super().__init__(message)
        self.best = best


def _price_pass(network: Network, alpha: float, comm_price: float):
    """Masks of sinks, of nodes in the price band and of priced-out nodes, and every rate.

    A node is in the band when its marginal delay at arrivals is at most
    ``alpha + comm_price`` (every sink is), and priced out when even its
    first unit of load costs that much.
    """
    if comm_price < 0:
        raise ValueError(f"comm_price must be >= 0, got {comm_price}")
    high = alpha + comm_price
    f_phi = network.marginal_at_arrivals
    sink = f_phi < alpha
    band = f_phi <= high
    priced_out = network.marginal_at_zero >= high
    beta, _ = mm1_inverse_marginal_delay(network.service_rates, np.where(sink, alpha, high))
    beta[priced_out & ~band] = 0.0  # ships everything (or, without arrivals, idles)
    np.copyto(beta, network.arrival_rates, where=band & ~sink)  # keeps exactly its arrivals
    return sink, band, priced_out, beta


def partition_for_prices(network: Network, alpha: float, comm_price: float) -> tuple[NodePartition, np.ndarray]:
    """Role and processing rate of every node at the given prices, in one array pass.

    Boundary ties classify as neutral (the closed-interval case), which
    keeps each node's rate continuous in ``alpha``.  Nodes without external
    arrivals can never be sources: when priced out they are neutral at zero
    load, bounded below by ``alpha`` only.
    """
    sink, band, priced_out, beta = _price_pass(network, alpha, comm_price)
    return _roles(network, sink, band, priced_out), beta


def _roles(network: Network, sink: np.ndarray, band: np.ndarray, priced_out: np.ndarray) -> NodePartition:
    """The partition that the masks of :func:`_price_pass` describe."""
    kept = band | (network.arrival_rates == 0.0)
    codes = np.where(sink, SINK_CODE, np.where(kept, NEUTRAL_CODE, np.where(priced_out, IDLE_CODE, ACTIVE_CODE)))
    return NodePartition.from_codes(codes)


def flow_residual(network: Network, alpha: float, comm_price: float) -> float:
    """Total allocated rate at these prices minus total arrivals.

    Non-decreasing in ``alpha``; strictly increasing wherever some node is
    a sink or an active source, which is guaranteed above the smallest
    marginal delay at arrivals.
    """
    *_, beta = _price_pass(network, alpha, comm_price)
    return float(beta.sum()) - network.total_arrival_rate


def _find_alpha(network: Network, comm_price: float) -> float:
    """Exact breakpoint search for the common price: inf{alpha : flow_residual > 0}.

    The answer depends on the nodes and ``comm_price`` only, so the last one
    is kept with the network's node state and returned when the same price
    is asked again, by this network or by a :meth:`Network.with_comm` copy;
    a search that raises keeps nothing.  See :func:`_search_alpha`.
    """
    state = network._node_state
    last = state.last_search
    if last is not None and last[0] == comm_price:  # -0.0 and 0.0 give the same alpha bits
        return last[1]
    alpha = _search_alpha(network, comm_price)
    state.last_search = (comm_price, alpha)
    return alpha


def _search_alpha(network: Network, comm_price: float) -> float:
    """The breakpoint search behind :func:`_find_alpha`.

    With the surcharge c fixed, node i changes role at three prices: from
    idle to active source at 1/mu_i - c, from active source to the neutral
    band at f_i(phi_i) - c, and from the band to sink at f_i(phi_i)
    (infinite breakpoints of overloaded nodes are dropped).  Between two
    breakpoints the residual is

        R(alpha) = K - S1 * alpha**-0.5 - S2 * (alpha + c)**-0.5

    with K the service rates of sinks and active sources plus the neutral
    arrivals, less Phi, and S1 (S2) the sum of sqrt(mu) over sinks (active
    sources).  Cumulative sums over the sorted breakpoints give R at every
    breakpoint; the first positive one closes the segment holding the root.
    Its role set is summed again exactly and R is solved on it: in closed
    form when only sinks or only sources move, else by Newton steps from
    below, where R is concave and increasing so the iterates rise
    monotonically to the root, and stop where float64 stops them.

    When every loaded node fits in the band at the smallest f_i(phi_i),
    R is 0 up to that price and positive beyond it, so that price is the
    answer, returned exactly: nodes tied with it classify as neutral.
    """
    n = len(network)
    mu = network.service_rates
    phi = network.arrival_rates
    f_phi = network.marginal_at_arrivals
    first_sink = float(f_phi.min())
    if np.all(f_phi[phi > 0] <= first_sink + comm_price):
        return first_sink  # every node keeps its arrivals up to here, and a sink starts just above
    root_mu = np.sqrt(mu)
    zero = np.zeros(n)
    points = np.concatenate((network.marginal_at_zero - comm_price, f_phi - comm_price, f_phi))
    # a stable sort keeps each node's three breakpoints in order when they tie; inf sorts last
    order = np.argsort(points, kind="stable")[:np.count_nonzero(np.isfinite(points))]
    kind = order // n  # 0: turns active, 1: joins the band, 2: turns sink
    at = points[order]
    k = np.cumsum(np.concatenate((mu, phi - mu, mu - phi))[order]) - network.total_arrival_rate
    s1 = np.cumsum(np.concatenate((zero, zero, root_mu))[order])
    s2 = np.cumsum(np.concatenate((root_mu, -root_mu, zero))[order])
    sinks = np.cumsum(kind == 2)
    actives = np.cumsum(kind == 0) - np.cumsum(kind == 1)
    # R at the right end of each segment; a segment nothing moves on cannot hold the root
    right = np.append(at[1:], np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = k - np.where(sinks > 0, s1 / np.sqrt(right), 0.0) \
              - np.where(actives > 0, s2 / np.sqrt(right + comm_price), 0.0)
    crossed = (r > 0.0) & ((sinks > 0) | (actives > 0))
    crossed[-1] = True  # stability makes R positive beyond the last breakpoint
    j = int(np.argmax(crossed))

    passed = np.zeros(3 * n, dtype=bool)
    passed[order[:j + 1]] = True
    turned_active, joined_band, sink = passed.reshape(3, n)
    active = turned_active & ~joined_band
    moving = sink | active
    k_exact = float((mu - phi)[moving].sum() - phi[~turned_active].sum())
    s1_exact = float(root_mu[sink].sum())
    s2_exact = float(root_mu[active].sum())
    if k_exact <= 0.0:  # R stays below K, so no finite price balances the load
        raise ConvergenceError(
            f"no finite alpha balances the load at comm price {comm_price!r}: "
            f"total arrivals are within rounding of the capacity that can absorb them")
    return _segment_root(k_exact, s1_exact, s2_exact, comm_price, float(at[j]), float(right[j]))


def _segment_root(k: float, s1: float, s2: float, c: float, left: float, right: float) -> float:
    """Root of K - S1 alpha^-1/2 - S2 (alpha + c)^-1/2 on [left, right], clamped to it.

    The Newton iterates rise monotonically from below, so they run until the
    residual turns nonnegative or a step no longer moves the root in float64;
    100 steps are only a safety cap.
    """
    if s2 == 0.0:
        root = (s1 / k) ** 2
    elif s1 == 0.0:
        root = (s2 / k) ** 2 - c
    else:
        # (alpha + c)^-1/2 <= alpha^-1/2, so R is negative below this bound
        root = max(left, ((s1 + s2) / k) ** 2 - c)
        for _ in range(100):
            t1 = root ** -0.5
            t2 = (root + c) ** -0.5
            residual = k - s1 * t1 - s2 * t2
            if residual >= 0.0:
                break
            step = -2.0 * residual / (s1 * t1 ** 3 + s2 * t2 ** 3)
            if root + step <= root:  # the float fixed point
                break
            root += step
    return min(max(root, left), right)


def _blurred_node(network: Network, partition: NodePartition, beta: np.ndarray) -> int | None:
    """The first sink or active source whose price float64 does not resolve to 1e-8, or None.

    Rounding beta moves the price mu / (mu - beta)^2 by up to eps * mu / (mu - beta) relative,
    and 1e-8 is what :func:`verify_optimality` certifies by default.
    """
    codes = partition.codes
    mu = network.service_rates
    priced = (codes == SINK_CODE) | (codes == ACTIVE_CODE)
    blurred = np.flatnonzero(priced & (np.finfo(float).eps * mu > 1e-8 * (mu - beta)))
    return int(blurred[0]) if blurred.size else None


def _check_price_resolution(network: Network, solution: OptimalSolution, blurred: int | None) -> None:
    """Raise unless ``blurred``, the :func:`_blurred_node` of ``solution``, is None."""
    if blurred is not None:
        mu = network.service_rates[blurred]
        raise ConvergenceError(
            f"no finite alpha certifies the load: node {network.nodes[blurred].id!r} would run "
            f"{mu - solution.allocation.rates[blurred]:.3g} below its capacity {mu:.6g}, where rounding "
            f"blurs its marginal delay by more than 1e-8; total arrivals are within rounding of the "
            f"capacity that can absorb them", best=solution)


def _transfer_totals(network: Network, partition: NodePartition, beta: np.ndarray) -> tuple[float, float]:
    """Sink surplus, sum of beta - phi over sinks, and source deficit, sum of phi - beta over sources."""
    codes = partition.codes
    phi = network.arrival_rates
    sources = (codes == IDLE_CODE) | (codes == ACTIVE_CODE)
    return float((beta - phi)[codes == SINK_CODE].sum()), float((phi - beta)[sources].sum())


@dataclass(frozen=True)
class _Priced:
    """What the price pass at ``(comm_price, alpha)`` gives that no interconnect changes.

    The node state keeps the one of the last returned probe (``last_priced``):
    a later solve on the same nodes, by this network or a
    :meth:`Network.with_comm` copy, whose probe lands on the same prices
    reads its implied traffic and its answer from it instead of running the
    pass, building the roles and summing the node terms again.
    """

    comm_price: float
    alpha: float
    partition: NodePartition
    rates: tuple[float, ...]     # a tuple, so no caller can write into it
    node_sum: float              # network.node_sum of the rates
    mass_balance: float          # |sum(beta) - Phi|
    surplus: float               # see _transfer_totals
    deficit: float
    blurred: int | None          # see _blurred_node


def _priced(network: Network, probe: "_Probe") -> _Priced:
    """The :class:`_Priced` of ``probe`` from the masks and rates its price pass kept."""
    sink, band, priced_out, beta = probe.price_pass
    partition = _roles(network, sink, band, priced_out)
    surplus, deficit = _transfer_totals(network, partition, beta)
    return _Priced(
        comm_price=probe.comm_price,
        alpha=probe.alpha,
        partition=partition,
        rates=tuple(beta.tolist()),
        node_sum=node_sum(network, beta),
        mass_balance=abs(float(beta.sum()) - network.total_arrival_rate),
        surplus=surplus,
        deficit=deficit,
        blurred=_blurred_node(network, partition, beta),
    )


@dataclass(frozen=True)
class _KeepLocal:
    """The node-only part of the no-transfer candidate, built once per node state (``keep_local``)."""

    allocation: Allocation           # every node keeps its arrivals; no traffic
    partition: NodePartition         # all neutral
    alpha: float                     # the smallest marginal delay at arrivals
    loaded_marginals: np.ndarray     # f_i(phi_i) of the nodes with arrivals, read-only
    node_sum: float                  # network.node_sum of the arrivals


def _keep_local(network: Network) -> _KeepLocal:
    state = network._node_state
    if state.keep_local is None:
        phi = network.arrival_rates
        f_at_phi = network.marginal_at_arrivals
        loaded = f_at_phi[phi > 0]
        loaded.setflags(write=False)
        state.keep_local = _KeepLocal(
            allocation=Allocation(rates=tuple(phi.tolist()), transfer_rate=0.0),
            partition=NodePartition.from_codes(np.full(len(network), NEUTRAL_CODE)),
            alpha=float(f_at_phi.min()),
            loaded_marginals=loaded,
            node_sum=node_sum(network, phi),
        )
    return state.keep_local


def _no_transfer_solution(network: Network, iterations: int,
                          interior_objective: float | None) -> OptimalSolution:
    """The exact keep-everything-local assignment, as a solution value.

    ``alpha`` is presented as the smallest marginal delay at arrivals (a
    valid price whenever the neutral band is wide enough to hold every
    node).  When it is not — the interconnect's fixed cost is what makes
    staying local optimal — the solution is flagged so verification knows
    the price band does not certify it.  Only the comm price, that band
    test and the objective's comm term are computed per call.
    """
    local = _keep_local(network)
    comm_price = network.total_arrival_rate * network.comm.delay_derivative(0.0)
    band_ok = bool(np.all(local.loaded_marginals <= local.alpha + comm_price))
    return OptimalSolution(
        allocation=local.allocation,
        partition=local.partition,
        alpha=local.alpha,
        comm_price=comm_price,
        objective=float(local.node_sum + comm_term(network, 0.0)),
        iterations=iterations,
        residuals=SolutionResiduals(0.0, 0.0, 0.0, 0.0),
        no_transfer_override=not band_ok,
        interior_objective=interior_objective,
    )


@dataclass(frozen=True)
class _Probe:
    """One outer probe: the assumed traffic, its prices and the traffic they imply.

    ``price_pass`` holds what :func:`_price_pass` returned at the prices, or
    None when the node state's ``last_priced`` was at them and no pass ran.
    """

    traffic: float
    comm_price: float
    alpha: float
    implied: float
    price_pass: tuple | None = field(repr=False, compare=False)

    @property
    def gap(self) -> float:
        return self.implied - self.traffic


def _traffic_search(probe, start: _Probe, cap: float, floor: float,
                    max_probes: int) -> tuple[list[_Probe], str]:
    """Illinois (regula falsi) on the decreasing gap ``implied(lambda) - lambda`` over [0, cap].

    ``start`` is the probe at zero traffic, with a positive gap.  The cap is
    probed next: a nonnegative gap there makes the cap the answer.
    Otherwise the bracket shrinks until the gap or the bracket is at most
    ``floor``, or ``max_probes`` probes have run.  Returns every probe in
    order and why the search stopped.
    """
    probes = [start]
    cap_reason = f"it reached the probe cap max_outer={max_probes}"
    if max_probes < 2:
        return probes, cap_reason
    probes.append(probe(cap))
    if probes[-1].gap >= 0.0:
        return probes, "the fixed point is the traffic ceiling"
    lo, g_lo, hi, g_hi = start.traffic, start.gap, cap, probes[-1].gap
    moved = 0  # which end the last probe replaced: +1 low, -1 high
    while True:
        if abs(probes[-1].gap) <= floor:
            return probes, "the gap settled"
        if hi - lo <= floor:
            return probes, f"the bracket collapsed to width {hi - lo:.3g}"
        if len(probes) >= max_probes:
            return probes, cap_reason
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        probes.append(probe(x))
        gap = probes[-1].gap
        if gap > 0.0:
            lo, g_lo = x, gap
            if moved > 0:  # the high end is kept twice running: halve its gap
                g_hi *= 0.5
            moved = 1
        else:
            hi, g_hi = x, gap
            if moved < 0:
                g_lo *= 0.5
            moved = -1


def solve(network: Network, config: SolverConfig | None = None) -> OptimalSolution:
    """Optimal static allocation for ``network``; ``config`` only caps the outer probes.

    Outer search: the surcharge depends on the transfer traffic, so the
    traffic must solve the self-consistency equation
    ``implied_traffic(lambda) = lambda``.  The gap is positive at zero and
    decreasing up to the traffic ceiling (total arrivals, or just under
    the interconnect's saturation rate, where the surcharge explodes), so
    a bracketing search pins it without any contraction assumption — plain
    damped iteration can limit-cycle on steeply loaded channels.  The
    search is Illinois regula falsi, which converges superlinearly; models
    whose delay derivative does not vary with load need a single probe.
    Inner search: each probe finds ``alpha`` exactly by sorting the role
    breakpoints (:func:`_find_alpha`) and reads its implied traffic from
    one array pass, whose masks it keeps.  Roles are built once, from the
    masks of the probe returned, and what that probe priced is kept with
    the network's node state, so the next solve on these nodes at the
    same prices runs no pass at all (see :class:`_Priced`).  The interior
    candidate is compared against the exact no-transfer assignment because
    the objective may be discontinuous at zero traffic.

    The traffic search stops once the gap or its bracket is within the
    rounding noise of the implied-traffic sum, about eps * sum(mu), and the
    answer must leave a gap of at most 1e-9 * Phi, or the solve raises
    :class:`ConvergenceError`.
    """
    cfg = config or SolverConfig()
    phi_total = network.total_arrival_rate
    if phi_total == 0:
        return _no_transfer_solution(network, iterations=0, interior_objective=None)
    lam_tol = 1e-9 * phi_total
    comm = network.comm
    lam_cap = min(phi_total, comm.max_rate * (1.0 - 1e-9))  # Phi for an unbounded model
    phi = network.arrival_rates

    state = network._node_state
    kept = state.last_priced

    def probe(traffic: float) -> _Probe:
        comm_price = phi_total * comm.delay_derivative(traffic)
        alpha = _find_alpha(network, comm_price)
        if kept is not None and kept.comm_price == comm_price and kept.alpha == alpha:
            surplus, price_pass = kept.surplus, None
        else:
            price_pass = _price_pass(network, alpha, comm_price)
            sink, _, _, beta = price_pass
            surplus = float((beta - phi)[sink].sum())
        implied = min(surplus, lam_cap)
        log.debug("outer: traffic %.6g -> price %.6g, alpha %.6g, implied %.6g",
                  traffic, comm_price, alpha, implied)
        return _Probe(traffic, comm_price, alpha, implied, price_pass)

    # each sink's rate is rounded to about eps * mu and the implied traffic sums them
    noise = 4.0 * np.finfo(float).eps * float(network.service_rates.sum())
    probes, stopped = [probe(0.0)], None
    if not comm.derivative_is_constant and probes[0].implied > 0.0:
        # a floor above the gate would stop the search on a gap the gate then refuses
        floor = min(noise, lam_tol)
        probes, stopped = _traffic_search(probe, probes[0], lam_cap, floor, cfg.max_outer)
    best = min(probes, key=lambda p: abs(p.gap))

    priced = kept if best.price_pass is None else _priced(network, best)
    state.last_priced = priced
    lam = best.implied
    allocation = Allocation(rates=priced.rates, transfer_rate=lam)
    if lam < 0:  # a sink's rate rounded below its arrivals: aggregate_objective refuses that traffic
        aggregate_objective(network, allocation)
    interior = OptimalSolution(
        allocation=allocation,
        partition=priced.partition,
        alpha=best.alpha,
        comm_price=best.comm_price,
        objective=float(priced.node_sum + comm_term(network, lam)),
        iterations=len(probes),
        residuals=SolutionResiduals(
            mass_balance=priced.mass_balance,
            sink_surplus_gap=abs(lam - priced.surplus),
            source_deficit_gap=abs(lam - priced.deficit),
            lambda_step=abs(best.gap),
        ),
        no_transfer_override=False,
        interior_objective=None,
    )
    if stopped is not None and abs(best.gap) > lam_tol:
        searched = f"the search stopped after {len(probes)} probes because {stopped}"
        if abs(best.gap) <= noise:
            why = (f"cannot be settled in float64: the best gap {best.gap:.3g} is within the rounding "
                   f"noise of the implied traffic, 4*eps*sum(mu) = {noise:.3g}, which exceeds the "
                   f"settle gate 1e-9*Phi = {lam_tol:.3g} ({searched})")
        else:
            why = (f"did not settle: {searched}; last gap {probes[-1].gap:.3g}, best gap {best.gap:.3g}, "
                   f"tolerance {lam_tol:.3g}")
        raise ConvergenceError(f"transfer traffic fixed point {why}", best=interior)

    no_transfer = _no_transfer_solution(network, len(probes), interior_objective=interior.objective)
    # a no-transfer answer whose objective is inf certifies nothing, so then the interior is the answer
    if interior.allocation.transfer_rate > 0 and (interior.objective < no_transfer.objective
                                                  or no_transfer.objective == np.inf):
        _check_price_resolution(network, interior, priced.blurred)
        return interior
    if no_transfer.no_transfer_override and interior.allocation.transfer_rate == 0:
        # interior converged to no transfers on its own; the band must hold
        return replace(no_transfer, no_transfer_override=False, interior_objective=None)
    return no_transfer


@dataclass(frozen=True)
class KktReport:
    """Worst residual per optimality condition, all relative.

    For no-transfer solutions justified by the fixed-cost comparison
    (``no_transfer_override``), the neutral band's upper edge does not
    apply — the effective surcharge for the first transferred unit is
    unbounded — so the certificate is the recorded objective comparison
    instead, reported in ``override_margin`` (how much the returned
    objective beats the interior candidate by; nonnegative is good, and
    an override whose own objective is inf gets -inf).
    """

    sink_price: float
    source_price: float
    neutral_band: float
    idle_bound: float
    mass_balance: float
    transfer_identity: float
    comm_price_consistency: float
    structure_ok: bool
    override_margin: float | None = None

    def worst(self) -> float:
        parts = [self.sink_price, self.source_price, self.neutral_band,
                 self.idle_bound, self.mass_balance, self.transfer_identity,
                 self.comm_price_consistency]
        if self.override_margin is not None:
            parts.append(max(-self.override_margin, 0.0))
        if not self.structure_ok:
            parts.append(np.inf)
        return max(parts)

    def passed(self, tol: float = 1e-8) -> bool:
        return self.worst() <= tol


def verify_optimality(network: Network, solution: OptimalSolution, tol: float = 1e-8) -> KktReport:
    """Check the price conditions and flow identities of a solution.

    Relative residuals: price gaps are normalized by the price they are
    measured against, flow identities by the total arrival rate.
    """
    alpha = solution.alpha
    comm_price = solution.comm_price
    high = alpha + comm_price
    beta = np.asarray(solution.allocation.rates)
    lam = solution.allocation.transfer_rate
    phi_total = network.total_arrival_rate
    scale = max(phi_total, 1.0)

    phi = network.arrival_rates
    codes = solution.partition.codes
    sink = codes == SINK_CODE
    active = codes == ACTIVE_CODE
    neutral = codes == NEUTRAL_CODE
    idle = codes == IDLE_CODE
    f_beta = mm1_marginal_delay(network.service_rates, beta)
    alpha_scale = max(alpha, 1e-300)
    high_scale = max(high, 1e-300)

    def worst(values, where):
        return float(np.max(values, where=where, initial=0.0))

    sink_res = worst(np.abs(f_beta - alpha) / alpha_scale, sink)
    source_res = worst(np.abs(f_beta - high) / high_scale, active)
    low_gap = np.maximum(alpha - f_beta, 0.0) / alpha_scale
    high_gap = np.maximum(f_beta - high, 0.0) / high_scale
    # the band's upper edge binds neither nodes without arrivals nor an overridden answer
    upper_binds = (phi != 0) & (not solution.no_transfer_override)
    neutral_res = max(worst(low_gap, neutral), worst(high_gap, neutral & upper_binds))
    idle_res = worst(np.maximum(high - network.marginal_at_zero, 0.0) / high_scale, idle)
    # each node against its role's rate condition; relays never appear in optimal assignments
    structure_ok = bool(np.all(np.select(
        [sink, active, neutral, idle],
        [beta > phi, (0.0 < beta) & (beta < phi), np.abs(beta - phi) <= tol * scale, (beta == 0.0) & (phi > 0)],
        default=False)))

    mass_res = abs(float(beta.sum()) - phi_total) / scale
    surplus, deficit = _transfer_totals(network, solution.partition, beta)
    transfer_res = max(abs(lam - surplus), abs(lam - deficit)) / scale
    price_res = abs(comm_price - phi_total * network.comm.delay_derivative(lam)) / max(comm_price, 1.0)

    margin = None
    if solution.no_transfer_override:
        margin = 0.0
        if not np.isfinite(solution.objective):
            margin = -np.inf  # an inf objective certifies nothing, whatever it is compared to
        elif solution.interior_objective is not None and np.isfinite(solution.interior_objective):
            margin = float(solution.interior_objective - solution.objective)

    return KktReport(
        sink_price=sink_res,
        source_price=source_res,
        neutral_band=neutral_res,
        idle_bound=idle_res,
        mass_balance=float(mass_res),
        transfer_identity=float(transfer_res),
        comm_price_consistency=float(price_res),
        structure_ok=structure_ok,
        override_margin=margin,
    )
