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

Each grid is scored separably: a free node's term and shipped share depend
only on its own axis, so they are computed once per axis value and the
grid's sums are broadcast additions of those tables.  Only the implied last
node's term, the comm term and the last node's box are computed per grid
point, in blocks of at most ``_BLOCK_POINTS`` points.  Every grid value is
bit-identical to scoring its row with :func:`~loadbal.network.objective`.

One search allocates one workspace, a few block-sized float and bool rows,
and scores every block of every round into views of it with ``out=``.  A
block's float64 array is larger than glibc's 128 KiB mmap threshold, so
fresh arrays per block would be mapped, faulted in and unmapped thousands
of times per search, at a cost above that of the arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .network import Allocation, Network, comm_term, net_transfer_roles, node_terms, objective
from .solver import OptimalSolution

#: grid points scored per block; bounds each workspace row (256 KiB of float64),
#: small enough to stay in a core's cache
_BLOCK_POINTS = 1 << 15


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

    work = _workspace((grid,) * free)
    for round_idx in range(refine_rounds + 1):
        axes = [np.linspace(lo[a], lo[a] + width[a], grid) for a in range(free)]
        val, d = _grid_min(network, axes, lo_box[-1], work)
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


def _workspace(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Float and bool scratch rows for every block of a grid of ``shape`` (see :func:`_blocks`)."""
    points = min(_BLOCK_POINTS, math.prod(shape))
    return np.empty((4, points)), np.empty((2, points), dtype=bool)


def _grid_min(network: Network, axes: list[np.ndarray], last_lo: float,
              work: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[float, np.ndarray]:
    """Minimum over the cartesian grid of the free axes, first (lexicographic) occurrence wins.

    The last node's net transfer is implied by balance and must lie in
    ``[last_lo, phi_last]``; its upper end is exactly where its rate turns
    negative.  Each free axis a gets two tables of ``grid`` entries: its node
    term beta_a F_a(beta_a) (inf where beta_a < 0, an infeasible point) and
    its shipped share max(d_a, 0).  The node-term sum, the shipped traffic
    and the free transfers' sum are broadcast additions of tables, left to
    right as the row sums of :func:`objective` add them, so every grid value
    is bit-identical to scoring its row.  Per point only the last node's
    term, the comm term and the last node's box are computed.

    The grid is walked in C-ordered blocks of at most ``_BLOCK_POINTS``
    points (see :func:`_blocks`); ``argmin`` keeps the first minimum within
    a block and a strict ``<`` the first across blocks.  Every per-point
    array is a view of ``work`` (see :func:`_workspace`), which one search
    allocates once and reuses for every block of every round: a block's
    float64 arrays are above glibc's 128 KiB mmap threshold, so fresh ones
    would each be mapped, faulted in page by page and unmapped again.
    """
    phi = network.arrival_rates
    mu = network.service_rates
    shape = tuple(len(axis) for axis in axes)
    if work is None:
        work = _workspace(shape)
    node_tables, ship_tables = [], []
    for a, axis in enumerate(axes):
        beta = phi[a] - axis
        terms = node_terms(mu[a], beta)
        terms[beta < 0.0] = np.inf
        node_tables.append(terms)
        ship_tables.append(np.maximum(axis, 0.0))
    floats, bools = work
    best_val = np.inf
    best_d = None
    for index in _blocks(shape):
        block = tuple(len(axis[i]) for axis, i in zip(axes, index))
        points = math.prod(block)
        x, beta_last, vals, tmp = (row[:points].reshape(block) for row in floats)
        bad, past_box = (row[:points].reshape(block) for row in bools)
        # x = -d_last, so phi_last - d_last is phi_last + x and d_last < last_lo is x > -last_lo
        _block_sum(axes, index, x)
        np.add(phi[-1], x, out=beta_last)
        np.less(beta_last, 0.0, out=bad)
        np.greater(x, -last_lo, out=past_box)
        bad |= past_box
        _block_sum(node_tables, index, vals)
        vals += node_terms(mu[-1], beta_last, out=tmp)
        shipped, last_ship = tmp, beta_last
        _block_sum(ship_tables, index, shipped)
        np.negative(x, out=last_ship)
        np.maximum(last_ship, 0.0, out=last_ship)
        shipped += last_ship
        vals += comm_term(network, shipped, out=last_ship)
        np.copyto(vals, np.inf, where=bad)
        j = np.unravel_index(int(np.argmin(vals)), block)
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_d = np.array([axis[i][k] for axis, i, k in zip(axes, index, j)] + [-x[j]])
    return best_val, best_d


def _block_sum(tables: list[np.ndarray], index: tuple[slice, ...], out: np.ndarray) -> None:
    """Broadcast sum over one block of one entry per axis table, added left to right, into ``out``."""
    *head, last = np.ix_(*(t[i] for t, i in zip(tables, index)))
    if head:
        np.add(functools.reduce(operator.add, head), last, out=out)
    else:
        np.copyto(out, last)


def _blocks(shape: tuple[int, ...]):
    """Index slices, one per axis, of C-ordered sub-boxes of ``shape`` with at most ``_BLOCK_POINTS`` points.

    The trailing axes that fit stay whole, the axis before them is cut into
    runs, and the axes before that are walked one index at a time.
    """
    cut = len(shape)
    while cut > 0 and math.prod(shape[cut - 1:]) <= _BLOCK_POINTS:
        cut -= 1
    if cut == 0:
        yield tuple(slice(None) for _ in shape)
        return
    whole = tuple(slice(None) for _ in shape[cut:])
    run = _BLOCK_POINTS // math.prod(shape[cut:])  # >= 1: the whole trailing axes fit
    for lead in itertools.product(*(range(size) for size in shape[:cut - 1])):
        for start in range(0, shape[cut - 1], run):
            yield tuple(slice(i, i + 1) for i in lead) + (slice(start, start + run),) + whole


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
    oracle_partition = net_transfer_roles(network.arrival_rates, oracle_out.net_transfers, boundary, boundary)
    return ComparisonReport(
        objective_gap=float(gap),
        max_rate_deviation=max_dev,
        roles_agree=oracle_partition.roles == solver_out.partition.roles,
        ok=gap <= objective_tol,
        solver_roles=solver_out.partition.compact(),
        oracle_roles=oracle_partition.compact(),
    )
