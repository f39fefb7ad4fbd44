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
from typing import NamedTuple

import numpy as np

from .delays import INFINITE, CommDelayModel, MM1NodeDelay, mm1_delay, mm1_marginal_delay


class UnstableNetworkError(ValueError):
    """Total arrival rate at or beyond total service capacity, or an interconnect too slow for the overload.

    A node whose arrivals exceed its service rate must ship the excess, so
    no stable plan exists once lambda_min, the sum of those excesses,
    reaches the interconnect's saturation rate.
    """


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


class NodeColumns(NamedTuple):
    """A node list as three columns, as a config parse reads it: ids, arrival rates and service rates.

    The rates must satisfy what :class:`Node` and :class:`MM1NodeDelay`
    check (arrival rates >= 0, service rates > 0); a network built on
    columns that do not raises the error of the first node that fails.
    """

    ids: tuple[str, ...]
    arrival_rates: list[float]
    service_rates: list[float]


class _NodeState:
    """What a network derives from its nodes alone, shared by every :meth:`Network.with_comm` copy.

    It holds the node ids, read-only arrival, service and marginal-delay
    arrays, the total arrivals, the stability verdict and ``min_traffic``,
    the transfer traffic lambda_min that overloaded nodes must exceed.
    Built from :class:`NodeColumns`, it makes its ``Node`` tuple on first use
    of :attr:`nodes` and keeps it; built from nodes, it keeps their tuple.
    ``solver_memo`` belongs to the solver, which fills it on first use.
    """

    def __init__(self, nodes):
        if isinstance(nodes, NodeColumns):
            ids, arrival, service = nodes
            if not len(ids) == len(arrival) == len(service):
                raise ValueError(f"node columns differ in length: {len(ids)} ids, {len(arrival)} arrival "
                                 f"rates, {len(service)} service rates")
            self._nodes = None
        else:
            self._nodes = nodes = tuple(nodes)
            ids = [n.id for n in nodes]
            arrival = [n.arrival_rate for n in nodes]
            service = [n.delay.service_rate for n in nodes]
        self.ids = tuple(ids)
        if not self.ids:
            raise ValueError("a network needs at least one node")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError(f"duplicate node ids: {list(self.ids)}")
        self.arrival = np.array(arrival, dtype=float)
        self.service = np.array(service, dtype=float)
        if self._nodes is None and not (np.all(self.arrival >= 0) and np.all(self.service > 0)):
            self._nodes = self._make_nodes()  # raises the error of the first node that fails
        self.marginal_at_arrivals = mm1_marginal_delay(self.service, self.arrival)
        self.marginal_at_zero = mm1_marginal_delay(self.service, 0.0)
        for array in (self.arrival, self.service, self.marginal_at_arrivals, self.marginal_at_zero):
            array.setflags(write=False)
        self.total_arrival = float(self.arrival.sum())
        if self.total_arrival >= self.service.sum():
            raise UnstableNetworkError(
                f"unstable network: total arrival rate {self.total_arrival} "
                f">= total capacity {self.service.sum()}"
            )
        self.min_traffic = float(np.maximum(self.arrival - self.service, 0.0).sum())
        self.solver_memo = None

    def check_channel(self, comm: CommDelayModel) -> None:
        """Raise :class:`UnstableNetworkError` if ``comm`` saturates at or below ``min_traffic``."""
        if self.min_traffic >= comm.max_rate:
            over = np.flatnonzero(self.arrival > self.service)
            names = ", ".join(repr(self.ids[i]) for i in over[:5])
            if over.size > 5:
                names += f" and {over.size - 5} more"
            raise UnstableNetworkError(
                f"unstable network: nodes {names} must ship more than lambda_min = {self.min_traffic!r} in "
                f"total, their arrivals beyond their service rates, but the interconnect saturates at "
                f"max_rate = {comm.max_rate!r}")

    @property
    def nodes(self) -> tuple[Node, ...]:
        if self._nodes is None:
            self._nodes = self._make_nodes()
        return self._nodes

    def _make_nodes(self) -> tuple[Node, ...]:
        return tuple(Node(id=i, arrival_rate=a, delay=MM1NodeDelay(service_rate=s))
                     for i, a, s in zip(self.ids, self.arrival.tolist(), self.service.tolist()))


class Network:
    """An ordered set of nodes sharing one interconnect delay model.

    ``nodes`` is a sequence of :class:`Node`, kept as a tuple, or
    :class:`NodeColumns`, from which the ``Node`` tuple is built on first
    use of :attr:`nodes`; either way the network is the same.
    Construction (and :meth:`with_comm`) rejects instances whose total
    arrival rate reaches total service capacity, or whose interconnect
    saturates below the traffic the overloaded nodes must ship; no
    allocation could stabilize those.  The price search
    reads ``marginal_at_arrivals`` f_i(phi_i) (inf at saturation) and
    ``marginal_at_zero`` f_i(0) on every price pass, so they are fixed here.
    None of that depends on the interconnect, so :meth:`with_comm` moves a
    network to another interconnect without rebuilding it: the copies share
    the node state, and a solve on a copy answers bit for bit as on a
    fresh network.
    """

    def __init__(self, nodes, comm: CommDelayModel):
        self._node_state = _NodeState(nodes)
        self._node_state.check_channel(comm)
        self.comm = comm

    def with_comm(self, comm: CommDelayModel) -> "Network":
        """This network's nodes on interconnect ``comm``, sharing all of their state with this network."""
        self._node_state.check_channel(comm)
        twin = object.__new__(Network)
        twin._node_state = self._node_state
        twin.comm = comm
        return twin

    def __len__(self) -> int:
        return len(self._node_state.ids)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._node_state.nodes

    @property
    def arrival_rates(self) -> np.ndarray:
        return self._node_state.arrival

    @property
    def service_rates(self) -> np.ndarray:
        return self._node_state.service

    @property
    def marginal_at_arrivals(self) -> np.ndarray:
        return self._node_state.marginal_at_arrivals

    @property
    def marginal_at_zero(self) -> np.ndarray:
        return self._node_state.marginal_at_zero

    @property
    def total_arrival_rate(self) -> float:
        return self._node_state.total_arrival


class FlowMatrix:
    """Finite, nonnegative off-diagonal transfer rates x[i][j] from node i to node j."""

    def __init__(self, rates):
        x = np.array(rates, dtype=float)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError(f"flow matrix must be square, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("flow matrix entries must be finite")
        if np.any(x < 0):
            raise ValueError("flow matrix entries must be >= 0")
        if np.any(np.diagonal(x) != 0):
            raise ValueError("flow matrix diagonal must be zero")
        x.setflags(write=False)
        self._x = x

    @classmethod
    def _adopt(cls, x: np.ndarray) -> "FlowMatrix":
        """A flow matrix on ``x`` itself, without the copy and the checks.

        Only for builders whose ``x`` is a fresh float64 matrix that is square,
        finite and nonnegative with a zero diagonal by construction
        (``flows._fill``); everything else goes through the constructor.
        """
        x.setflags(write=False)
        flow = object.__new__(cls)
        flow._x = x
        return flow

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


#: NodePartition codes: the role of code k is ``_BY_CODE[k]`` and its letter ``_LETTERS[k]``
_BY_CODE = np.array([NodeRole.SINK, NodeRole.NEUTRAL, NodeRole.IDLE_SOURCE, NodeRole.ACTIVE_SOURCE,
                     NodeRole.RELAY])
SINK_CODE, NEUTRAL_CODE, IDLE_CODE, ACTIVE_CODE, RELAY_CODE = range(len(_BY_CODE))
_CODE_OF = {role: code for code, role in enumerate(_BY_CODE)}
_LETTERS = np.frombuffer(b"SNIAR", dtype=np.uint8)


@dataclass(frozen=True)
class NodePartition:
    """Role of every node, with index views per role.

    ``codes`` holds the same roles as a read-only int8 array (``SINK_CODE``,
    ``NEUTRAL_CODE``, ``IDLE_CODE``, ``ACTIVE_CODE``, ``RELAY_CODE``) for
    array code to compare against.  It is derived from ``roles``, or given
    by :meth:`from_codes`, and is not a field: ``==``, ``hash``, ``repr``,
    ``asdict`` and ``replace`` see ``roles`` alone.
    """

    roles: tuple[NodeRole, ...]

    def __post_init__(self) -> None:
        codes = np.array([_CODE_OF[r] for r in self.roles], dtype=np.int8)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_codes(cls, codes) -> "NodePartition":
        """The partition whose role codes are ``codes``, without a pass over role members."""
        codes = np.array(codes, dtype=np.int8)
        codes.setflags(write=False)
        partition = object.__new__(cls)
        object.__setattr__(partition, "roles", tuple(_BY_CODE[codes]))
        object.__setattr__(partition, "codes", codes)
        return partition

    def _where(self, mask: np.ndarray) -> tuple[int, ...]:
        return tuple(np.flatnonzero(mask).tolist())

    def indices(self, role: NodeRole) -> tuple[int, ...]:
        return self._where(self.codes == _CODE_OF[role])

    @property
    def sinks(self) -> tuple[int, ...]:
        return self.indices(NodeRole.SINK)

    @property
    def sources(self) -> tuple[int, ...]:
        return self._where((self.codes == IDLE_CODE) | (self.codes == ACTIVE_CODE))

    @property
    def relays(self) -> tuple[int, ...]:
        return self.indices(NodeRole.RELAY)

    def compact(self) -> str:
        """Single-letter role string in node order, e.g. ``"A,S,N"``."""
        return ",".join(_LETTERS[self.codes].tobytes().decode())


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


def node_terms(service_rate, rates, out=None) -> np.ndarray:
    """Node term beta * F(beta) elementwise; inf for a saturated node.

    Writes into ``out`` when given (it must not be ``rates``), else returns a new array.
    """
    terms = mm1_delay(service_rate, rates, out=out)
    terms *= rates
    return terms


def comm_term(network: Network, traffic, out=None) -> np.ndarray:
    """Communication term Phi * G(lambda) elementwise.

    Exactly 0 at zero traffic, so models with a fixed cost make the
    objective discontinuous there; inf at or beyond the interconnect's
    saturation rate.  Negative traffic raises.  Writes into ``out`` when
    given (it must not be ``traffic``), else returns a new array.
    """
    lam = np.asarray(traffic, dtype=float)
    low = lam.min(initial=INFINITE)
    if low < 0.0:
        raise ValueError(f"transfer rate must be >= 0, got {low}")
    comm = network.comm
    with np.errstate(divide="ignore", invalid="ignore"):  # saturated points are overwritten below
        term = np.asarray(comm.unchecked_delay(lam, out=out))
        term *= network.total_arrival_rate
    np.copyto(term, 0.0, where=~(lam > 0.0))
    np.copyto(term, INFINITE, where=lam >= comm.max_rate)
    return term


def net_transfer_roles(arrivals, net_transfers, boundary: float, idle_below: float) -> NodePartition:
    """Roles read off net transfers d = outflow - inflow.

    A node with d > ``boundary`` is a source, idle if its rate arrivals - d
    is at most ``idle_below``; one with d < -``boundary`` is a sink; the rest
    are neutral.  Relays are not visible in net transfers.
    """
    d = np.asarray(net_transfers, dtype=float)
    beta = arrivals - d
    source = np.where(beta <= idle_below, IDLE_CODE, ACTIVE_CODE)
    rest = np.where(d < -boundary, SINK_CODE, NEUTRAL_CODE)
    return NodePartition.from_codes(np.where(d > boundary, source, rest))


def objective(network: Network, rates, traffic):
    """Aggregate objective sum_i beta_i F_i(beta_i) + Phi * G(lambda), row by row.

    ``rates`` is one row of processing rates, shape (n,), with a scalar
    ``traffic``, or a block ``rates[k, n]`` with ``traffic[k]``.  The node
    terms are summed left to right, then the communication term is added
    (see :func:`node_terms` and :func:`comm_term`).  A saturated node or
    interconnect makes a row inf.  Rates must be >= 0.
    """
    return node_sum(network, rates) + comm_term(network, traffic)


def node_sum(network: Network, rates):
    """The node part of :func:`objective`, sum_i beta_i F_i(beta_i), row by row.

    Adding :func:`comm_term` to it gives the bits of :func:`objective`.
    """
    return node_terms(network.service_rates, np.asarray(rates, dtype=float)).sum(axis=-1)


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
    atol = 1e-12 * max(network.total_arrival_rate, 1.0)
    codes = net_transfer_roles(network.arrival_rates, outflow - inflow, 0.0, atol).codes
    return NodePartition.from_codes(np.where((inflow > 0) & (outflow > 0), RELAY_CODE, codes))


def relay_count(flow: FlowMatrix) -> int:
    """Number of nodes with both positive inflow and positive outflow."""
    return int(np.sum((flow.inflow() > 0) & (flow.outflow() > 0)))
