"""Turning net transfers into explicit relay-free transfer matrices.

With a pairwise-uniform interconnect the objective depends on a flow
matrix only through each node's net transfer d_i = outflow - inflow and
the total traffic.  Every plan ships at least sum(max(d_i, 0)), and a
relay-free plan ships exactly that, so flow synthesis and relay
elimination build the same object: one deterministic greedy fill that
matches senders (d > 0) against receivers (d < 0) in node-index order.
"""

from __future__ import annotations

import math

import numpy as np

from .delays import CommDelayModel
from .network import FlowMatrix, Network, NodePartition, relay_count


def _fill(n: int, surplus: dict, deficit: dict) -> FlowMatrix:
    """Greedy match of senders' surpluses against receivers' deficits, in node-index order.

    Each sender empties exactly: rounding crumbs left after the last receiver
    fills go to that receiver.  The matching runs on Python floats and the
    matrix is written in one scatter.  Every entry is positive and no node
    both sends and receives, so a matrix with finite entries is handed to
    :class:`FlowMatrix` without its copy and checks; an infinite surplus or
    deficit still meets the constructor's finiteness check.
    """
    receivers = sorted(deficit)
    left = [float(deficit[r]) for r in receivers]
    entries: dict[tuple[int, int], float] = {}
    j = 0
    for i in sorted(surplus):
        remaining = max(float(surplus[i]), 0.0)
        while remaining > 0 and j < len(receivers):
            take = min(remaining, left[j])
            if take > 0:
                entries[i, receivers[j]] = take
                remaining -= take
                left[j] -= take
            if left[j] <= 0:
                j += 1
        if remaining > 0 and receivers:
            # rounding crumbs after the last sink fills: sources must empty
            # exactly or an idle source would keep a sliver of load
            key = i, receivers[-1]
            entries[key] = entries.get(key, 0.0) + remaining
    x = np.zeros((n, n))
    if entries:
        rows, cols = zip(*entries)
        x[rows, cols] = list(entries.values())
    return FlowMatrix._adopt(x) if all(map(math.isfinite, entries.values())) else FlowMatrix(x)


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
    if len(partition.roles) != n:
        raise ValueError(f"partition has {len(partition.roles)} roles but network has {n} nodes")
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
    return _fill(n, surplus, deficit)


def eliminate_relays(flow: FlowMatrix, comm: CommDelayModel | None = None) -> FlowMatrix:
    """A relay-free plan with the same net transfers as ``flow``.

    A relay-free ``flow`` is returned as it is.  Otherwise the greedy fill
    rebuilds the plan from d = outflow - inflow.  Any plan ships at least
    sum(max(d, 0)) and the result ships exactly that, so total traffic never
    increases, and for any non-decreasing interconnect delay the
    communication cost cannot go up (with a non-decreasing G(x)/x this is
    exactly the guarantee the optimality argument needs).

    ``comm``, when given, is checked: a ValueError is raised if the new plan
    raised its per-transfer delay, which a delay falling with traffic can do.
    """
    if relay_count(flow) == 0:
        return flow
    d = flow.outflow() - flow.inflow()
    out = _fill(len(flow), {i: d[i] for i in np.flatnonzero(d > 0)},
                {i: -d[i] for i in np.flatnonzero(d < 0)})
    lam_before = flow.total_rate
    if comm is not None and lam_before > 0 and out.total_rate > 0:
        cost_before, cost_after = comm.delay(lam_before), comm.delay(out.total_rate)
        if not cost_after <= cost_before * (1 + 1e-12):
            raise ValueError(f"relay elimination raised the communication cost: traffic {lam_before!r} -> "
                             f"{out.total_rate!r}, per-transfer delay {cost_before!r} -> {cost_after!r}")
    return out
