"""Problem instances, flow matrices and the objective they are scored by.

The objective is a *mean response time*: per-job node delay weighted by the
share of load each node processes, plus the mean per-transfer communication
delay when any transfers happen at all.  The communication term is defined
as exactly zero at zero traffic; with interconnect models that have a fixed
cost this makes the objective discontinuous at the no-transfer point, which
the solver has to compare against explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .delays import INFINITE, CommDelayModel, MM1NodeDelay, mm1_delay, mm1_marginal_delay


class UnstableNetworkError(ValueError):
    """Total arrival rate at or beyond total service capacity."""


class InfeasibleFlowError(ValueError):
    """A flow matrix violates the balance or nonnegativity constraints."""


@dataclass(frozen=True)
class Node:
    """One host: external arrival rate plus its delay model."""

    id: str
    arrival_rate: float
    delay: MM1NodeDelay

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"node {self.id!r}: arrival_rate must be >= 0, got {self.arrival_rate}")


class Network:
    """An ordered set of nodes sharing one interconnect delay model.

    Construction rejects instances whose total arrival rate reaches total
    service capacity; no allocation could stabilize those.  The price search
    reads ``marginal_at_arrivals`` f_i(phi_i) (inf at saturation) and
    ``marginal_at_zero`` f_i(0) on every probe, so they are fixed here.
    """

    def __init__(self, nodes, comm: CommDelayModel):
        nodes = tuple(nodes)
        if not nodes:
            raise ValueError("a network needs at least one node")
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids: {ids}")
        self.nodes = nodes
        self.comm = comm
        self._arrival = np.array([n.arrival_rate for n in nodes], dtype=float)
        self._service = np.array([n.delay.service_rate for n in nodes], dtype=float)
        self.marginal_at_arrivals = mm1_marginal_delay(self._service, self._arrival)
        self.marginal_at_zero = mm1_marginal_delay(self._service, 0.0)
        for array in (self._arrival, self._service, self.marginal_at_arrivals, self.marginal_at_zero):
            array.setflags(write=False)
        self._total_arrival = float(self._arrival.sum())
        if self.total_arrival_rate >= self._service.sum():
            raise UnstableNetworkError(
                f"unstable network: total arrival rate {self.total_arrival_rate} "
                f">= total capacity {self._service.sum()}"
            )

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def arrival_rates(self) -> np.ndarray:
        return self._arrival

    @property
    def service_rates(self) -> np.ndarray:
        return self._service

    @property
    def total_arrival_rate(self) -> float:
        return self._total_arrival


class FlowMatrix:
    """Nonnegative off-diagonal transfer rates x[i][j] from node i to node j."""

    def __init__(self, rates):
        x = np.array(rates, dtype=float)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError(f"flow matrix must be square, got shape {x.shape}")
        if np.any(x < 0):
            raise ValueError("flow matrix entries must be >= 0")
        if np.any(np.diagonal(x) != 0):
            raise ValueError("flow matrix diagonal must be zero")
        x.setflags(write=False)
        self._x = x

    @classmethod
    def zero(cls, n: int) -> "FlowMatrix":
        return cls(np.zeros((n, n)))

    @property
    def matrix(self) -> np.ndarray:
        return self._x

    def __len__(self) -> int:
        return self._x.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, FlowMatrix) and np.array_equal(self._x, other._x)

    def __repr__(self) -> str:
        return f"FlowMatrix({self._x.tolist()!r})"

    @property
    def total_rate(self) -> float:
        """Total transfer traffic on the network."""
        return float(self._x.sum())

    def inflow(self) -> np.ndarray:
        return self._x.sum(axis=0)

    def outflow(self) -> np.ndarray:
        return self._x.sum(axis=1)


@dataclass(frozen=True)
class Allocation:
    """Per-node processing rates plus the transfer traffic that realizes them."""

    rates: tuple[float, ...]
    transfer_rate: float

    def validate(self, network: Network, rtol: float = 1e-9) -> None:
        beta = np.asarray(self.rates)
        if np.any(beta < 0):
            raise ValueError(f"processing rates must be >= 0, got {self.rates}")
        if np.any(beta >= network.service_rates):
            raise ValueError("some processing rate at or beyond its service rate")
        phi_total = network.total_arrival_rate
        if abs(float(beta.sum()) - phi_total) > rtol * max(phi_total, 1.0):
            raise ValueError(f"processing rates sum to {beta.sum()}, expected {phi_total}")
        if self.transfer_rate < 0:
            raise ValueError(f"transfer_rate must be >= 0, got {self.transfer_rate}")


class NodeRole(Enum):
    IDLE_SOURCE = "idle_source"
    ACTIVE_SOURCE = "active_source"
    NEUTRAL = "neutral"
    SINK = "sink"
    RELAY = "relay"  # diagnostic only; never part of an optimal assignment


_COMPACT = {
    NodeRole.IDLE_SOURCE: "I",
    NodeRole.ACTIVE_SOURCE: "A",
    NodeRole.NEUTRAL: "N",
    NodeRole.SINK: "S",
    NodeRole.RELAY: "R",
}


@dataclass(frozen=True)
class NodePartition:
    """Role of every node, with index views per role."""

    roles: tuple[NodeRole, ...]

    def indices(self, role: NodeRole) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is role)

    @property
    def sinks(self) -> tuple[int, ...]:
        return self.indices(NodeRole.SINK)

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles)
                     if r is NodeRole.IDLE_SOURCE or r is NodeRole.ACTIVE_SOURCE)

    @property
    def relays(self) -> tuple[int, ...]:
        return self.indices(NodeRole.RELAY)

    def compact(self) -> str:
        """Single-letter role string in node order, e.g. ``"A,S,N"``."""
        return ",".join(_COMPACT[r] for r in self.roles)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]
    processing_rates: tuple[float, ...]


def processing_rates(network: Network, flow: FlowMatrix) -> np.ndarray:
    """Rates implied by flow balance: beta = arrivals + inflow - outflow."""
    if len(flow) != len(network):
        raise ValueError(f"flow is {len(flow)}x{len(flow)} but network has {len(network)} nodes")
    return network.arrival_rates + flow.inflow() - flow.outflow()


def check_feasibility(network: Network, flow: FlowMatrix) -> FeasibilityReport:
    """Report every constraint violation of ``flow`` on ``network``.

    The flow matrix type already guarantees nonnegativity and a zero
    diagonal; this adds the balance-implied checks: nonnegative processing
    rates, conservation of total load, per-node stability, and transfer
    traffic inside the interconnect's admissible range.
    """
    beta = processing_rates(network, flow)
    phi_total = network.total_arrival_rate
    tol = 1e-9 * max(phi_total, 1.0)
    violations = []
    for i, b in enumerate(beta):
        if b < -tol:
            violations.append(f"node {i}: implied processing rate {b} < 0")
        if b >= network.service_rates[i]:
            violations.append(
                f"node {i}: implied processing rate {b} >= service rate {network.service_rates[i]}"
            )
    if abs(float(beta.sum()) - phi_total) > tol:
        violations.append(f"processing rates sum to {beta.sum()}, expected {phi_total}")
    lam = flow.total_rate
    if lam >= network.comm.max_rate:
        violations.append(f"transfer traffic {lam} saturates the interconnect ({network.comm.max_rate})")
    return FeasibilityReport(
        feasible=not violations,
        violations=tuple(violations),
        processing_rates=tuple(float(b) for b in beta),
    )


def objective(network: Network, rates, traffic):
    """Aggregate objective sum_i beta_i F_i(beta_i) + Phi * G(lambda), row by row.

    ``rates`` is one row of processing rates, shape (n,), with a scalar
    ``traffic``, or a block ``rates[k, n]`` with ``traffic[k]``.  The
    communication term is exactly 0 at zero traffic, so models with a fixed
    cost make the objective discontinuous there.  A saturated node or
    interconnect makes a row inf.  Rates must be >= 0.
    """
    beta = np.asarray(rates, dtype=float)
    lam = np.asarray(traffic, dtype=float)
    terms = mm1_delay(network.service_rates, beta)
    terms *= beta
    saturated = lam >= network.comm.max_rate
    per_transfer = network.comm.delay(np.where(saturated, 0.0, lam))
    comm_term = np.where(lam > 0.0, network.total_arrival_rate * per_transfer, 0.0)
    return terms.sum(axis=-1) + np.where(saturated, INFINITE, comm_term)


def mean_response_time(network: Network, flow: FlowMatrix) -> float:
    """Objective value of a flow assignment.

    Node part: sum over nodes of (beta_i / total arrivals) * F_i(beta_i).
    Communication part: the mean per-transfer delay G at the total traffic,
    or exactly 0 when there are no transfers.  Saturating a node or the
    interconnect costs inf; structurally infeasible flows (negative implied
    processing rates) raise.
    """
    beta = processing_rates(network, flow)
    phi_total = network.total_arrival_rate
    tol = 1e-9 * max(phi_total, 1.0)
    bad = np.flatnonzero(beta < -tol)
    if bad.size:
        raise InfeasibleFlowError(
            f"outflow exceeds arrivals plus inflow at nodes {bad.tolist()} (implied rates {beta[bad].tolist()})"
        )
    if phi_total == 0:
        return 0.0
    return float(objective(network, np.maximum(beta, 0.0), flow.total_rate)) / phi_total


def aggregate_objective(network: Network, allocation: Allocation) -> float:
    """Load-weighted form of the objective: sum beta_i F_i(beta_i) + Phi * G.

    Equals ``total arrivals * mean_response_time`` for consistent inputs,
    with the same zero-traffic convention for the communication term.
    Negative rates raise.
    """
    beta = np.asarray(allocation.rates, dtype=float)
    if np.any(beta < 0) or allocation.transfer_rate < 0:
        raise ValueError(f"rates must be >= 0, got {allocation}")
    return float(objective(network, beta, allocation.transfer_rate))


def classify_roles(network: Network, flow: FlowMatrix) -> NodePartition:
    """Classify each node from its transfers.

    Senders that receive nothing are sources (idle if they process nothing),
    receivers that send nothing are sinks, nodes with no transfers at all
    are neutral.  Nodes with transfers in *both* directions get the extra
    diagnostic RELAY role; optimal assignments never contain one.
    """
    report = check_feasibility(network, flow)
    if not report.feasible:
        raise InfeasibleFlowError("; ".join(report.violations))
    inflow = flow.inflow()
    outflow = flow.outflow()
    beta = np.asarray(report.processing_rates)
    atol = 1e-12 * max(network.total_arrival_rate, 1.0)
    roles = []
    for i in range(len(network)):
        has_in = inflow[i] > 0
        has_out = outflow[i] > 0
        if has_in and has_out:
            roles.append(NodeRole.RELAY)
        elif has_out:
            roles.append(NodeRole.IDLE_SOURCE if beta[i] <= atol else NodeRole.ACTIVE_SOURCE)
        elif has_in:
            roles.append(NodeRole.SINK)
        else:
            roles.append(NodeRole.NEUTRAL)
    return NodePartition(roles=tuple(roles))


def relay_count(flow: FlowMatrix) -> int:
    """Number of nodes with both positive inflow and positive outflow."""
    return int(np.sum((flow.inflow() > 0) & (flow.outflow() > 0)))
