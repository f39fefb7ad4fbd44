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
segment holding the root, which is then solved in closed form or by a few
monotone Newton steps (single-point water-filling, as in Tantawi & Towsley
1985 and Kim & Kameda 1992).  The surcharge depends on the traffic
``lambda``, and on a fixed role set both prices and ``lambda`` follow from
one scalar equation, so the outer search solves it on each price pass's
roles until a pass returns the roles it was priced for, usually on the
second to fourth pass (the active-set, or pegging, method: Bretthauer &
Shetty 2002, Patriksson 2008), after one breakpoint search at zero traffic.
A fixed interconnect cost at zero traffic makes the objective
discontinuous there, so the interior candidate is compared against the
exact no-transfer assignment, and a case the comparison (not the price
conditions) justifies is flagged.
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
    aggregate_objective,  # not called here; bench/tracing.py counts calls under this name
    comm_term,
    node_sum,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """The one solver setting: ``max_outer`` caps the outer passes; every search stops where float64 does."""

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

    Either ``max_outer`` passes did not settle the transfer traffic (the
    message says when the best gap is within the rounding noise that a
    large-mu sink lifts above the 1e-9*Phi gate), or total arrivals lie within
    rounding of the capacity that can absorb them, or a sink's rate rounds
    below its arrivals (as on nodes tied within rounding).  Carries the best
    iterate, where there is one, so callers can inspect or report it.
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

    Boundary ties classify as neutral, which keeps each node's rate continuous
    in ``alpha``.  Nodes without arrivals are never sources: priced out, they
    are neutral at zero load.
    """
    sink, band, priced_out, beta = _price_pass(network, alpha, comm_price)
    return NodePartition.from_codes(_roles(network, sink, band, priced_out)), beta


def _roles(network: Network, sink: np.ndarray, band: np.ndarray, priced_out: np.ndarray) -> np.ndarray:
    """The role codes that the masks of :func:`_price_pass` describe."""
    kept = band | (network.arrival_rates == 0.0)
    codes = np.where(sink, SINK_CODE, np.where(kept, NEUTRAL_CODE, np.where(priced_out, IDLE_CODE, ACTIVE_CODE)))
    return codes.astype(np.int8)


def flow_residual(network: Network, alpha: float, comm_price: float) -> float:
    """Total allocated rate at these prices minus total arrivals; non-decreasing in ``alpha``.

    It strictly increases above the smallest marginal delay at arrivals.
    """
    *_, beta = _price_pass(network, alpha, comm_price)
    return float(beta.sum()) - network.total_arrival_rate


def _find_alpha(network: Network, comm_price: float) -> float:
    """Exact breakpoint search (:func:`_search_alpha`) for inf{alpha : flow_residual > 0}.

    The answer depends on the nodes and ``comm_price`` only, so the node
    state's :class:`_Memo` keeps the last one for this network and its
    :meth:`Network.with_comm` copies; a search that raises keeps nothing.
    """
    memo = _memo(network)
    if memo.comm_price == comm_price:  # -0.0 and 0.0 give the same alpha bits
        return memo.alpha
    alpha = _search_alpha(network, comm_price)
    memo.comm_price, memo.alpha, memo.priced = comm_price, alpha, None
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
    breakpoint; the first positive one closes the segment holding the root,
    whose role set is summed again exactly and solved (:func:`_segment_root`).
    When every loaded node fits in the band at the smallest f_i(phi_i), that
    price is the answer, returned exactly: nodes tied with it are neutral.
    """
    memo = _memo(network)
    if memo.band_holds(comm_price):
        return memo.first_sink  # every node keeps its arrivals up to here, and a sink starts just above
    n = len(network)
    mu = network.service_rates
    phi = network.arrival_rates
    f_phi = network.marginal_at_arrivals
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


def _blurred_node(network: Network, codes: np.ndarray, beta: np.ndarray) -> int | None:
    """The first sink or active source whose price float64 does not resolve to 1e-8, or None.

    Rounding beta moves the price mu / (mu - beta)^2 by up to eps * mu / (mu - beta) relative,
    and 1e-8 is what :func:`verify_optimality` certifies by default.
    """
    mu = network.service_rates
    priced = (codes == SINK_CODE) | (codes == ACTIVE_CODE)
    blurred = np.flatnonzero(priced & (np.finfo(float).eps * mu > 1e-8 * (mu - beta)))
    return int(blurred[0]) if blurred.size else None


def _transfer_totals(network: Network, codes: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """Sink surplus, sum of beta - phi over sinks, and source deficit, sum of phi - beta over sources."""
    phi = network.arrival_rates
    sources = (codes == IDLE_CODE) | (codes == ACTIVE_CODE)
    return float((beta - phi)[codes == SINK_CODE].sum()), float((phi - beta)[sources].sum())


@dataclass(frozen=True)
class _Priced:
    """What the price pass of a returned answer gives that no interconnect changes."""

    partition: NodePartition
    rates: tuple[float, ...]     # a tuple, so no caller can write into it
    node_sum: float              # network.node_sum of the rates
    mass_balance: float          # |sum(beta) - Phi|
    surplus: float               # see _transfer_totals
    deficit: float
    blurred: int | None          # see _blurred_node


def _priced(network: Network, answer: "_Pass") -> _Priced:
    """The :class:`_Priced` of the pass ``answer`` from the rates and roles it gave."""
    beta, partition = answer.rates, NodePartition.from_codes(answer.codes)
    surplus, deficit = _transfer_totals(network, answer.codes, beta)
    return _Priced(
        partition=partition,
        rates=tuple(beta.tolist()),
        node_sum=node_sum(network, beta),
        mass_balance=abs(float(beta.sum()) - network.total_arrival_rate),
        surplus=surplus,
        deficit=deficit,
        blurred=_blurred_node(network, answer.codes, beta),
    )


class _Memo:
    """What the solver derives from one node state, kept there for every network on those nodes.

    * The no-transfer candidate's node-only half: the keep-local
      ``allocation``, its all-neutral ``partition``, ``first_sink`` (the
      smallest f_i(phi_i)), ``widest`` (the largest f_i(phi_i) of a loaded
      node, -inf without one) and ``local_sum``, the arrivals' node terms.
    * The last breakpoint search, ``alpha`` at ``comm_price``: on fixed nodes
      alpha is a function of the comm price c alone.
    * ``priced``: the :class:`_Priced` of an answer priced at that search's
      ``alpha`` and ``comm_price``, else None.
    """

    def __init__(self, network: Network):
        phi = network.arrival_rates
        f_phi = network.marginal_at_arrivals
        self.allocation = Allocation(rates=tuple(phi.tolist()), transfer_rate=0.0)
        self.partition = NodePartition.from_codes(np.full(len(network), NEUTRAL_CODE))
        self.first_sink = float(f_phi.min())
        self.widest = float(f_phi[phi > 0].max(initial=-np.inf))
        self.local_sum = float(node_sum(network, phi))
        self.comm_price: float | None = None
        self.alpha: float | None = None
        self.priced: _Priced | None = None

    def band_holds(self, comm_price: float) -> bool:
        """Whether every node with arrivals fits in the price band [first_sink, first_sink + comm_price]."""
        return self.widest <= self.first_sink + comm_price


def _memo(network: Network) -> _Memo:
    state = network._node_state
    if state.solver_memo is None:
        state.solver_memo = _Memo(network)
    return state.solver_memo


def _no_transfer_solution(network: Network, iterations: int, interior_objective: float | None) -> OptimalSolution:
    """The exact keep-everything-local assignment, as a solution value.

    ``alpha`` is the smallest marginal delay at arrivals, a valid price
    whenever the neutral band holds every node.  When it does not (the
    interconnect's fixed cost is what makes staying local optimal), the
    solution is flagged: the price band does not certify it.
    """
    memo = _memo(network)
    comm_price = network.total_arrival_rate * network.comm.delay_derivative(0.0)
    return OptimalSolution(
        allocation=memo.allocation,
        partition=memo.partition,
        alpha=memo.first_sink,
        comm_price=comm_price,
        objective=memo.local_sum,  # the comm term is 0 at zero traffic
        iterations=iterations,
        residuals=SolutionResiduals(0.0, 0.0, 0.0, 0.0),
        no_transfer_override=not memo.band_holds(comm_price),
        interior_objective=interior_objective,
    )


@dataclass(frozen=True)
class _Pass:
    """One outer pass: the traffic it assumed, its prices, the traffic they imply, its rates and roles.

    ``alpha`` is the breakpoint search's, or that of the roles the pass was
    priced for (:func:`_traffic_root`), and then the pass is ``balanced`` only
    if it returned them.  ``rates`` and ``codes`` are None on a memo hit.
    """

    traffic: float
    comm_price: float
    alpha: float
    implied: float
    balanced: bool
    rates: np.ndarray | None = field(repr=False, compare=False)
    codes: np.ndarray | None = field(repr=False, compare=False)

    @property
    def gap(self) -> float:
        return self.implied - self.traffic


def _traffic_root(network: Network, codes: np.ndarray, start: float) -> tuple[float, float] | None:
    """The traffic at which the roles ``codes`` are self-consistent and its ``alpha``, or None.

    Sinks run at beta = mu - sqrt(mu / alpha) and active sources at
    mu - sqrt(mu / (alpha + c)), so sink surplus = lambda gives
    sqrt(alpha) = S1 / (K1 - lambda) and source deficit = lambda gives
    sqrt(alpha + c) = S2 / (lambda - K2): S1 (S2) sums sqrt(mu) over sinks
    (active sources), K1 sums mu - phi over sinks, and K2 phi - mu over active
    sources plus the idle sources' arrivals.  With c = Phi G'(lambda), lambda
    is the root of g = (S2 / (lambda - K2))**2 - (S1 / (K1 - lambda))**2 - c on
    (max(K2, 0), min(K1, max_rate)), unique as every term falls with lambda,
    and K2 without active sources.  Newton steps from ``start`` (the comm
    term's slope by secant), bisecting where they would leave the bracket,
    stop where float64 stops them.
    """
    mu, phi, comm, phi_total = network.service_rates, network.arrival_rates, network.comm, network.total_arrival_rate
    sink, active = codes == SINK_CODE, codes == ACTIVE_CODE
    s1, k1, s2 = float(np.sqrt(mu[sink]).sum()), float((mu - phi)[sink].sum()), float(np.sqrt(mu[active]).sum())
    k2 = float((phi - mu)[active].sum() + phi[codes == IDLE_CODE].sum())
    lo, hi = max(k2, 0.0), min(k1, comm.max_rate)
    if s1 == 0.0 or not lo < hi or (s2 > 0.0 > k2 and (s2 / k2) ** 2 - (s1 / k1) ** 2
                                    <= phi_total * comm.delay_derivative(0.0)):
        return None  # no sink, an empty segment, or g(0) <= 0
    if s2 == 0.0:  # the idle sources ship exactly K2
        return k2, (s1 / (k1 - k2)) ** 2
    lam = start if lo < start < hi else 0.5 * (lo + hi)
    before = None  # the last iterate and its comm price, for the secant slope
    for _ in range(200):
        up, down = (s2 / (lam - k2)) ** 2, (s1 / (k1 - lam)) ** 2
        price = phi_total * comm.delay_derivative(lam)
        g = up - down - price
        if g == 0.0:
            break
        lo, hi = (lam, hi) if g > 0.0 else (lo, lam)
        slope = -2.0 * up / (lam - k2) - 2.0 * down / (k1 - lam)
        if before is not None:
            slope -= (price - before[1]) / (lam - before[0])
        before, step = (lam, price), lam - g / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == lam or not lo < step < hi:  # the root is resolved to adjacent floats
            break
        lam = step
    return lam, (s1 / (k1 - lam)) ** 2


def _settle_traffic(network: Network, passes: list[_Pass], priced_at, exact_at, max_passes: int,
                    lam_tol: float) -> str:
    """Append passes to ``passes``, which holds the exact pass at zero traffic, and say why they stopped.

    Each pass's roles give the next traffic and ``alpha`` (:func:`_traffic_root`)
    for ``priced_at``.  A pass that returns the roles it was priced for is the
    answer once its gap is within ``lam_tol``; only the rounding of its sinks'
    rates can leave it wider, and then the next pass keeps its ``alpha``, so its
    surplus, and prices the comm at that surplus.  Exact passes (``exact_at``)
    bracket the fixed point, as their gap falls while the traffic grows: a root
    outside it, roles without one or roles seen before cost one at its midpoint.
    """
    comm, phi_total = network.comm, network.total_arrival_rate
    lo, hi = 0.0, min(phi_total, comm.max_rate)
    seen = {passes[0].codes.tobytes()}
    settled = False  # whether the last pass returned the roles it was priced for
    while len(passes) < max_passes:
        last = passes[-1]
        segment = (last.implied, last.alpha) if settled else _traffic_root(network, last.codes, last.traffic)
        if segment is not None and (settled or lo <= segment[0] <= hi) and segment[0] < comm.max_rate:
            lam, alpha = segment
            passes.append(priced_at(lam, alpha, phi_total * comm.delay_derivative(lam), last.codes))
            settled = passes[-1].balanced
            if settled and abs(passes[-1].gap) <= lam_tol:
                return "a pass returned the roles it was priced for"
            key = passes[-1].codes.tobytes()
            if settled or key not in seen:
                seen.add(key)
                continue
            if len(passes) >= max_passes:
                break
        settled, mid = False, 0.5 * (lo + hi)
        if not lo < mid < hi:
            return f"the bracket on the traffic collapsed to [{lo!r}, {hi!r}]"
        passes.append(exact_at(mid))
        seen.add(passes[-1].codes.tobytes())
        lo, hi = (mid, hi) if passes[-1].gap > 0.0 else (lo, mid)
        if abs(passes[-1].gap) <= lam_tol:
            return "the gap settled"
    return f"it reached the pass cap max_outer={max_passes}"


def solve(network: Network, config: SolverConfig | None = None) -> OptimalSolution:
    """Optimal static allocation for ``network``; ``config`` only caps the outer passes.

    The first pass prices zero traffic exactly: the breakpoint search
    (:func:`_find_alpha`) at c0 = Phi G'(0), then one array pass
    (:func:`_price_pass`).  Models whose delay derivative does not vary with
    load stop there.  Otherwise each pass's roles give both prices in closed
    form until a pass returns the roles it was priced for
    (:func:`_settle_traffic`).  An answer priced at an exact search's price
    is kept in the node state's :class:`_Memo`, so the next solve on these
    nodes at that price runs no pass.  The interior candidate is compared
    against the exact no-transfer assignment, as the objective may be
    discontinuous at zero traffic.

    The returned traffic, the answer's sink surplus, must be within 1e-9 * Phi
    of the traffic its prices assumed, or the solve raises
    :class:`ConvergenceError`, as when ``max_outer`` passes did not settle.
    """
    phi_total = network.total_arrival_rate
    if phi_total == 0:
        return _no_transfer_solution(network, iterations=0, interior_objective=None)
    lam_tol = 1e-9 * phi_total
    comm, phi = network.comm, network.arrival_rates

    def priced_at(traffic: float, alpha: float, comm_price: float, assumed: np.ndarray | None = None) -> _Pass:
        sink, band, priced_out, beta = _price_pass(network, alpha, comm_price)
        surplus = float((beta - phi)[sink].sum())
        codes = _roles(network, sink, band, priced_out)
        log.debug("outer: traffic %.6g -> price %.6g, alpha %.6g, implied %.6g", traffic, comm_price, alpha, surplus)
        return _Pass(traffic, comm_price, alpha, surplus, assumed is None or np.array_equal(codes, assumed),
                      beta, codes)

    def exact_at(traffic: float) -> _Pass:
        comm_price = phi_total * comm.delay_derivative(traffic)
        return priced_at(traffic, _find_alpha(network, comm_price), comm_price)

    comm_price = phi_total * comm.delay_derivative(0.0)
    alpha = _find_alpha(network, comm_price)
    memo = _memo(network)
    kept = memo.priced  # a search that ran just now cleared it, so it is at this price
    moves = not comm.derivative_is_constant
    stopped = None
    if kept is not None and not (moves and kept.surplus > 0.0):
        passes = [_Pass(0.0, comm_price, alpha, kept.surplus, True, None, None)]
    else:
        passes = [priced_at(0.0, alpha, comm_price)]
        if moves and passes[0].implied > 0.0:
            max_passes = (config or SolverConfig()).max_outer
            stopped = _settle_traffic(network, passes, priced_at, exact_at, max_passes, lam_tol)
    best = min((p for p in passes if p.balanced), key=lambda p: abs(p.gap))

    priced = kept if best.rates is None else _priced(network, best)
    if (best.comm_price, best.alpha) == (memo.comm_price, memo.alpha):  # an exact search priced it
        memo.priced = priced
    lam = best.implied
    if lam < 0:
        raise ConvergenceError(f"a sink's rate rounded below its arrivals, so the implied transfer "
                               f"traffic is negative ({lam!r})")
    interior = OptimalSolution(
        allocation=Allocation(rates=priced.rates, transfer_rate=lam), partition=priced.partition,
        alpha=best.alpha, comm_price=best.comm_price, objective=float(priced.node_sum + comm_term(network, lam)),
        iterations=len(passes),
        residuals=SolutionResiduals(mass_balance=priced.mass_balance, sink_surplus_gap=abs(lam - priced.surplus),
                                    source_deficit_gap=abs(lam - priced.deficit), lambda_step=abs(best.gap)))
    if stopped is not None and abs(best.gap) > lam_tol:
        noise = 4.0 * np.finfo(float).eps * float(network.service_rates.sum())  # of the sinks' rates' sum
        searched = f"the search stopped after pass {len(passes)} because {stopped}"
        if abs(best.gap) <= noise:
            why = (f"cannot be settled in float64: the best gap {best.gap:.3g} is within the rounding "
                   f"noise of the implied traffic, 4*eps*sum(mu) = {noise:.3g}, which exceeds the "
                   f"settle gate 1e-9*Phi = {lam_tol:.3g} ({searched})")
        else:
            why = (f"did not settle: {searched}; last gap {passes[-1].gap:.3g}, best gap {best.gap:.3g}, "
                   f"tolerance {lam_tol:.3g}")
        raise ConvergenceError(f"transfer traffic fixed point {why}", best=interior)

    no_transfer = _no_transfer_solution(network, len(passes), interior_objective=interior.objective)
    # a no-transfer answer whose objective is inf certifies nothing, so then the interior is the answer
    if interior.allocation.transfer_rate > 0 and (interior.objective < no_transfer.objective
                                                  or no_transfer.objective == np.inf):
        if priced.blurred is not None:
            mu = network.service_rates[priced.blurred]
            raise ConvergenceError(
                f"no finite alpha certifies the load: node {network.nodes[priced.blurred].id!r} would run "
                f"{mu - priced.rates[priced.blurred]:.3g} below its capacity {mu:.6g}, where rounding blurs "
                f"its marginal delay by more than 1e-8; total arrivals are within rounding of the capacity "
                f"that can absorb them", best=interior)
        return interior
    if no_transfer.no_transfer_override and interior.allocation.transfer_rate == 0:
        # interior converged to no transfers on its own; the band must hold
        return replace(no_transfer, no_transfer_override=False, interior_objective=None)
    return no_transfer


@dataclass(frozen=True)
class KktReport:
    """Worst residual per optimality condition, all relative.

    A no-transfer answer justified by the fixed-cost comparison
    (``no_transfer_override``) is not bound by the neutral band's upper edge,
    as the first transferred unit's surcharge is unbounded; its certificate
    is ``override_margin``, how much it beats the interior candidate by
    (nonnegative is good; an override whose own objective is inf gets -inf).
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
    measured against, flow identities by the total arrival rate (by 1 for
    a network without arrivals), so a verdict does not change when every
    rate is scaled.
    """
    alpha = solution.alpha
    comm_price = solution.comm_price
    high = alpha + comm_price
    beta = np.asarray(solution.allocation.rates)
    lam = solution.allocation.transfer_rate
    phi_total = network.total_arrival_rate
    scale = phi_total if phi_total > 0 else 1.0

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
    surplus, deficit = _transfer_totals(network, codes, beta)
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
