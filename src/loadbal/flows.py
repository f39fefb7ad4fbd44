"""Turning net allocations into explicit transfer matrices, and the
relay-elimination rewrite.

With a pairwise-uniform interconnect the objective depends on a flow
matrix only through the per-node net flows and the total traffic, so any
source-to-sink matching is equivalent; synthesis uses a deterministic
greedy fill in node-index order.  Relay elimination shortcuts any
two-hop pattern l -> k -> m into a direct l -> m transfer, never changing
net flows and never increasing total traffic.
"""

from __future__ import annotations

import numpy as np

from .delays import CommDelayModel
from .network import FlowMatrix, Network, NodePartition


def synthesize_flows(network: Network, partition: NodePartition, rates) -> FlowMatrix:
    """Explicit relay-free transfers realizing ``rates`` under ``partition``.

    Sources' surpluses (arrivals minus processing) are matched against
    sinks' deficits greedily in node-index order.  Surpluses and deficits
    must balance to within 1e-9 of the total arrival rate.
    """
    beta = np.asarray(rates, dtype=float)
    phi = network.arrival_rates
    n = len(network)
    if beta.shape != (n,):
        raise ValueError(f"expected {n} rates, got shape {beta.shape}")
    surplus = {i: phi[i] - beta[i] for i in partition.sources}
    deficit = {i: beta[i] - phi[i] for i in partition.sinks}
    bad = sorted(i for i, v in {**surplus, **deficit}.items() if v < -1e-12)
    if bad:
        raise ValueError(f"role/rate mismatch at nodes {bad}")
    tol = 1e-9 * max(network.total_arrival_rate, 1.0)
    if abs(sum(surplus.values()) - sum(deficit.values())) > tol:
        raise ValueError(
            f"source surplus {sum(surplus.values())} != sink deficit {sum(deficit.values())}"
        )
    x = np.zeros((n, n))
    senders = sorted(surplus)
    receivers = sorted(deficit)
    j = 0
    for i in senders:
        remaining = max(surplus[i], 0.0)
        while remaining > 0 and j < len(receivers):
            r = receivers[j]
            take = min(remaining, deficit[r])
            if take > 0:
                x[i, r] += take
                remaining -= take
                deficit[r] -= take
            if deficit[r] <= 0:
                j += 1
        if remaining > 0 and receivers:
            # rounding crumbs after the last sink fills: sources must empty
            # exactly or an idle source would keep a sliver of load
            x[i, receivers[-1]] += remaining
    return FlowMatrix(x)


def _next_rewrite(x: np.ndarray) -> tuple[int, int, int] | None:
    """Lowest-index relay k with its lowest-index inbound l and outbound m."""
    inflow = x.sum(axis=0)
    outflow = x.sum(axis=1)
    for k in range(x.shape[0]):
        if inflow[k] > 0 and outflow[k] > 0:
            l = int(np.argmax(x[:, k] > 0))
            m = int(np.argmax(x[k, :] > 0))
            return l, k, m
    return None


def _apply_rewrite(x: np.ndarray, l: int, k: int, m: int) -> None:
    """Shortcut min(x[l,k], x[k,m]) units of l -> k -> m into l -> m.

    When l == m the two legs cancel outright (a round trip moves nothing).
    At least one of the two legs drops to exactly zero.
    """
    shift = min(x[l, k], x[k, m])
    x[l, k] -= shift
    x[k, m] -= shift
    if l != m:
        x[l, m] += shift


def eliminate_relays(flow: FlowMatrix, comm: CommDelayModel | None = None) -> FlowMatrix:
    """Rewrite ``flow`` until no node both receives and sends.

    Net node flows are preserved and total traffic never increases, so for
    any non-decreasing interconnect delay the communication cost cannot go
    up (and with a non-decreasing G(x)/x this is exactly the guarantee the
    optimality argument needs).  Terminates because every rewrite zeroes at
    least one positive entry incident to the current relay and resolved
    nodes never regain both directions.

    ``comm``, when given, is checked: a ValueError is raised if the rewrite
    raised its per-transfer delay, which a delay falling with traffic can do.
    """
    x = flow.matrix.copy()
    lam_before = flow.total_rate
    while (step := _next_rewrite(x)) is not None:
        _apply_rewrite(x, *step)
    out = FlowMatrix(x)
    if comm is not None and lam_before > 0 and out.total_rate > 0:
        cost_before, cost_after = comm.delay(lam_before), comm.delay(out.total_rate)
        if not cost_after <= cost_before * (1 + 1e-12):
            raise ValueError(f"relay elimination raised the communication cost: traffic {lam_before!r} -> "
                             f"{out.total_rate!r}, per-transfer delay {cost_before!r} -> {cost_after!r}")
    return out
