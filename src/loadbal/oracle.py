"""Brute-force minimizer over net transfers, for small instances.

This is the ground truth the price-based solver is judged against.  It
searches directly over per-node net transfers d_i (arrivals minus
processing), which is sufficient because an optimal assignment exists
with no relay nodes, and with a pairwise-uniform interconnect the
objective depends on the transfer matrix only through the processing
rates and the total shipped traffic sum(max(d_i, 0)).

The search grids the (n-1)-dimensional balanced slice, then repeatedly
halves the window around the incumbent and re-grids.  The exact
no-transfer point is always evaluated and seeds the incumbent, so ties
resolve toward keeping everything local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Allocation, Network, NodePartition, NodeRole, objective
from .solver import OptimalSolution

#: grid points scored per block; bounds the (rows, n) temporaries of the objective
_CHUNK_ROWS = 1 << 19


@dataclass(frozen=True)
class OracleResult:
    allocation: Allocation
    objective: float
    net_transfers: tuple[float, ...]
    resolution: float  # final grid cell size, max across axes


@dataclass(frozen=True)
class ComparisonReport:
    """Solver-versus-oracle verdict on one instance."""

    objective_gap: float        # solver objective minus oracle objective
    max_rate_deviation: float
    roles_agree: bool
    ok: bool                    # gap within tolerance
    solver_roles: str
    oracle_roles: str


def brute_force_optimum(network: Network, grid: int = 201, refine_rounds: int = 6) -> OracleResult:
    """Grid-search optimum of the aggregate objective over net transfers.

    Instances with more than 5 nodes are rejected: the search is
    exponential in n and meant for validation, not production sizing.
    """
    n = len(network)
    if n > 5:
        raise ValueError(f"oracle handles at most 5 nodes, got {n}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    phi = network.arrival_rates
    mu = network.service_rates
    best_val = float(objective(network, phi, 0.0))
    best_d = np.zeros(n)

    if n == 1:
        return OracleResult(
            allocation=Allocation(rates=(float(phi[0]),), transfer_rate=0.0),
            objective=best_val,
            net_transfers=(0.0,),
            resolution=0.0,
        )

    # each node's net transfer lives in (phi - mu, phi]; the last coordinate
    # is implied by balance and masked against its own box
    lo_box = phi - mu * (1.0 - 1e-9)
    hi_box = phi.copy()
    free = n - 1
    width = hi_box[:free] - lo_box[:free]
    lo = lo_box[:free].copy()

    for round_idx in range(refine_rounds + 1):
        axes = [np.linspace(lo[a], lo[a] + width[a], grid) for a in range(free)]
        val, d = _grid_min(network, axes, lo_box[-1], hi_box[-1])
        if val < best_val:
            best_val, best_d = val, d
        width = width * 0.5
        center = best_d[:free]
        lo = np.clip(center - width / 2.0, lo_box[:free], hi_box[:free] - width)

    shipped = float(np.maximum(best_d, 0.0).sum())
    beta = np.maximum(phi - best_d, 0.0)
    resolution = float((width * 2.0).max() / (grid - 1))  # width of the last round actually used
    return OracleResult(
        allocation=Allocation(rates=tuple(float(b) for b in beta), transfer_rate=shipped),
        objective=best_val,
        net_transfers=tuple(float(d) for d in best_d),
        resolution=resolution,
    )


def _grid_min(network: Network, axes: list[np.ndarray], last_lo: float, last_hi: float) -> tuple[float, np.ndarray]:
    """Minimum over the cartesian grid, first (lexicographic) occurrence wins."""
    shape = tuple(len(a) for a in axes)
    total = math.prod(shape)
    chunk = max(1, _CHUNK_ROWS // max(len(axes), 1))
    best_val = np.inf
    best_d = None
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        coords = np.unravel_index(flat, shape)
        d_free = np.stack([axes[a][coords[a]] for a in range(len(axes))], axis=1)
        d_last = -d_free.sum(axis=1)
        rows = np.concatenate([d_free, d_last[:, None]], axis=1)
        shipped = np.maximum(rows, 0.0).sum(axis=1)
        beta = network.arrival_rates - rows
        # rows with a negative rate or the last coordinate off its box are infeasible
        infeasible = np.any(beta < 0.0, axis=1) | (d_last < last_lo) | (d_last > last_hi)
        vals = objective(network, beta, shipped)
        vals[infeasible] = np.inf
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_d = rows[j].copy()
    return best_val, best_d


def _roles_from_transfers(network: Network, net_transfers, boundary: float) -> NodePartition:
    roles = []
    for i, d in enumerate(net_transfers):
        beta = network.arrival_rates[i] - d
        if d > boundary:
            roles.append(NodeRole.IDLE_SOURCE if beta <= boundary else NodeRole.ACTIVE_SOURCE)
        elif d < -boundary:
            roles.append(NodeRole.SINK)
        else:
            roles.append(NodeRole.NEUTRAL)
    return NodePartition(roles=tuple(roles))


def compare_solutions(solver_out: OptimalSolution, oracle_out: OracleResult,
                      network: Network, objective_tol: float = 1e-5) -> ComparisonReport:
    """Objective gap, rate deviation and role agreement, solver vs oracle.

    ``ok`` fails when the solver's objective is worse than the oracle's by
    more than ``objective_tol`` — in particular when the solver keeps load
    local although the oracle found a transfer plan that beats it.  Role
    boundaries are drawn at a few grid cells, since the oracle cannot place
    a node more precisely than its final resolution.
    """
    gap = solver_out.objective - oracle_out.objective
    solver_beta = np.asarray(solver_out.allocation.rates)
    oracle_beta = np.asarray(oracle_out.allocation.rates)
    max_dev = float(np.abs(solver_beta - oracle_beta).max())
    boundary = max(4.0 * oracle_out.resolution, 1e-9)
    oracle_partition = _roles_from_transfers(network, oracle_out.net_transfers, boundary)
    return ComparisonReport(
        objective_gap=float(gap),
        max_rate_deviation=max_dev,
        roles_agree=oracle_partition.roles == solver_out.partition.roles,
        ok=gap <= objective_tol,
        solver_roles=solver_out.partition.compact(),
        oracle_roles=oracle_partition.compact(),
    )
