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

Every probe classifies all nodes in one array pass over the M/M/1 closed
forms f(beta) = mu / (mu - beta)^2 and f^-1(p) = mu - sqrt(mu / p).
``alpha`` is pinned by conservation of load (the residual below is monotone
in ``alpha``, so bisection suffices) and ``lambda`` by a second bisection on
the self-consistency gap between assumed and implied transfer traffic,
since the surcharge itself depends on it.  Interconnect models with a
fixed cost at zero traffic make the objective discontinuous at the
no-transfer point; the solver compares the converged interior candidate
against the exact no-transfer assignment and returns the better, flagging
the case where the comparison (not the price conditions) is what
justifies the answer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .delays import mm1_inverse_marginal_delay, mm1_marginal_delay
from .network import (
    Allocation,
    Network,
    NodePartition,
    NodeRole,
    aggregate_objective,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for the scalar searches.

    ``lambda_tol`` of None means 1e-9 times the total arrival rate.
    """

    alpha_tol: float = 1e-10
    lambda_tol: float | None = None
    max_outer: int = 200

    def __post_init__(self) -> None:
        if self.alpha_tol <= 0:
            raise ValueError("alpha_tol must be > 0")
        if self.lambda_tol is not None and self.lambda_tol <= 0:
            raise ValueError("lambda_tol must be > 0")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


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
    """The fixed point on the transfer traffic did not settle.

    Carries the best iterate so callers can inspect or report it.
    """

    def __init__(self, message: str, best: OptimalSolution | None = None):
        super().__init__(message)
        self.best = best


#: the role of each code that :func:`partition_for_prices` assigns
_ROLES = np.array([NodeRole.SINK, NodeRole.NEUTRAL, NodeRole.IDLE_SOURCE, NodeRole.ACTIVE_SOURCE])


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
    codes = np.where(sink, 0, np.where(band | (network.arrival_rates == 0.0), 1, np.where(priced_out, 2, 3)))
    return NodePartition(roles=tuple(_ROLES[codes])), beta


def flow_residual(network: Network, alpha: float, comm_price: float) -> float:
    """Total allocated rate at these prices minus total arrivals.

    Non-decreasing in ``alpha``; strictly increasing wherever some node is
    a sink or an active source, which is guaranteed above the smallest
    marginal delay at arrivals.
    """
    *_, beta = _price_pass(network, alpha, comm_price)
    return float(beta.sum()) - network.total_arrival_rate


def _find_alpha(network: Network, comm_price: float, alpha_tol: float) -> float:
    """Bisection on the monotone residual.

    The lower end ``min_i f_i(0) - comm_price`` prices every node out, so
    the residual there is exactly -Phi; stability guarantees the residual
    turns positive for large enough alpha.
    """
    lo = float(np.min(1.0 / network.service_rates)) - comm_price
    hi = max(abs(lo) * 2, 1.0) + lo
    for _ in range(200):
        if flow_residual(network, hi, comm_price) > 0:
            break
        hi = lo + (hi - lo) * 2.0
    else:
        raise ConvergenceError("could not bracket the price search")
    for _ in range(200):
        if hi - lo <= alpha_tol * max(abs(hi), 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if flow_residual(network, mid, comm_price) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _transfer_totals(network: Network, partition: NodePartition, beta: np.ndarray) -> tuple[float, float]:
    """Sink surplus, sum of beta - phi over sinks, and source deficit, sum of phi - beta over sources."""
    roles = np.array(partition.roles)
    phi = network.arrival_rates
    sources = (roles == NodeRole.IDLE_SOURCE) | (roles == NodeRole.ACTIVE_SOURCE)
    return float((beta - phi)[roles == NodeRole.SINK].sum()), float((phi - beta)[sources].sum())


def _no_transfer_solution(network: Network, iterations: int,
                          interior_objective: float | None) -> OptimalSolution:
    """The exact keep-everything-local assignment, as a solution value.

    ``alpha`` is presented as the smallest marginal delay at arrivals (a
    valid price whenever the neutral band is wide enough to hold every
    node).  When it is not — the interconnect's fixed cost is what makes
    staying local optimal — the solution is flagged so verification knows
    the price band does not certify it.
    """
    phi = network.arrival_rates
    comm_price = network.total_arrival_rate * network.comm.delay_derivative(0.0)
    f_at_phi = network.marginal_at_arrivals
    alpha = float(f_at_phi.min())
    band_ok = bool(np.all(f_at_phi[phi > 0] <= alpha + comm_price))
    allocation = Allocation(rates=tuple(phi.tolist()), transfer_rate=0.0)
    return OptimalSolution(
        allocation=allocation,
        partition=NodePartition(roles=(NodeRole.NEUTRAL,) * len(network)),
        alpha=alpha,
        comm_price=comm_price,
        objective=aggregate_objective(network, allocation),
        iterations=iterations,
        residuals=SolutionResiduals(0.0, 0.0, 0.0, 0.0),
        no_transfer_override=not band_ok,
        interior_objective=interior_objective,
    )


def solve(network: Network, config: SolverConfig | None = None) -> OptimalSolution:
    """Optimal static allocation for ``network``.

    Outer loop: the surcharge depends on the transfer traffic, so the
    traffic must solve the self-consistency equation
    ``implied_traffic(lambda) = lambda``.  The gap is positive at zero and
    nonpositive at the traffic ceiling (total arrivals, or just under the
    interconnect's saturation rate, where the surcharge explodes), so
    bisection pins it without any contraction assumption — plain damped
    iteration can limit-cycle on steeply loaded channels.  Inner loop:
    bisection on ``alpha``, where each probe partitions all nodes in one
    array pass.  Models whose delay derivative does not vary
    with load need a single inner solve.  The converged interior candidate
    is compared against the exact no-transfer assignment because the
    objective may be discontinuous at zero traffic.
    """
    cfg = config or SolverConfig()
    phi_total = network.total_arrival_rate
    if phi_total == 0:
        return _no_transfer_solution(network, iterations=0, interior_objective=None)
    lam_tol = cfg.lambda_tol if cfg.lambda_tol is not None else 1e-9 * phi_total
    comm = network.comm
    lam_cap = phi_total
    if np.isfinite(comm.max_rate):
        lam_cap = min(lam_cap, comm.max_rate * (1.0 - 1e-9))

    def probe(lam_probe: float):
        comm_price = phi_total * comm.delay_derivative(lam_probe)
        alpha = _find_alpha(network, comm_price, cfg.alpha_tol)
        partition, beta = partition_for_prices(network, alpha, comm_price)
        implied = min(_transfer_totals(network, partition, beta)[0], lam_cap)
        log.debug("outer: traffic %.6g -> price %.6g, alpha %.6g, implied %.6g",
                  lam_probe, comm_price, alpha, implied)
        return alpha, comm_price, partition, beta, implied

    iterations = 1
    probed_at = 0.0
    state = probe(0.0)
    if not comm.derivative_is_constant and state[4] > 0.0:
        lo, hi = 0.0, lam_cap
        while iterations < cfg.max_outer and hi - lo > 1e-15 * max(phi_total, 1.0):
            iterations += 1
            probed_at = 0.5 * (lo + hi)
            state = probe(probed_at)
            if state[4] > probed_at:
                lo = probed_at
            else:
                hi = probed_at

    alpha, comm_price, partition, beta, lam = state
    lam_step = abs(lam - probed_at)
    converged = comm.derivative_is_constant or lam_step <= lam_tol
    allocation = Allocation(rates=tuple(beta.tolist()), transfer_rate=lam)
    surplus, deficit = _transfer_totals(network, partition, beta)
    interior = OptimalSolution(
        allocation=allocation,
        partition=partition,
        alpha=alpha,
        comm_price=comm_price,
        objective=aggregate_objective(network, allocation),
        iterations=iterations,
        residuals=SolutionResiduals(
            mass_balance=abs(float(beta.sum()) - phi_total),
            sink_surplus_gap=abs(lam - surplus),
            source_deficit_gap=abs(lam - deficit),
            lambda_step=lam_step,
        ),
        no_transfer_override=False,
        interior_objective=None,
    )
    if not converged:
        raise ConvergenceError(
            f"transfer traffic fixed point did not settle in {cfg.max_outer} iterations "
            f"(last step {lam_step:.3g})",
            best=interior,
        )

    no_transfer = _no_transfer_solution(network, iterations, interior_objective=interior.objective)
    if interior.allocation.transfer_rate > 0 and interior.objective < no_transfer.objective:
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
    objective beats the interior candidate by; nonnegative is good).
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
    roles = np.array(solution.partition.roles)
    sink = roles == NodeRole.SINK
    active = roles == NodeRole.ACTIVE_SOURCE
    neutral = roles == NodeRole.NEUTRAL
    idle = roles == NodeRole.IDLE_SOURCE
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
        if solution.interior_objective is not None and np.isfinite(solution.interior_objective):
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
