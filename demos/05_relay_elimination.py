#!/usr/bin/env python3
"""Relay elimination: any job routed through a middleman can go direct,
moving the same net load with strictly less network traffic."""

import numpy as np

import loadbal as lb

x = np.zeros((4, 4))
x[0, 1] = 0.30  # node 0 ships to node 1 ...
x[1, 2] = 0.25  # ... which forwards most of it to node 2 ...
x[2, 3] = 0.10  # ... which forwards a bit further
flow = lb.FlowMatrix(x)

print("transfer matrix with two relay nodes:")
print(flow.matrix)
print(f"total traffic {flow.total_rate:.2f}, relays: {lb.relay_count(flow)}")
print()

out = lb.eliminate_relays(flow)
print("after rebuilding the plan from its net transfers:")
print(out.matrix)
print(f"total traffic {out.total_rate:.2f}, relays: {lb.relay_count(out)}")
print()

before = flow.inflow() - flow.outflow()
after = out.inflow() - out.outflow()
print("per-node net flow (inflow - outflow), before vs after:")
print(" ", before)
print(" ", after)
print()

comm = lb.PolynomialCommDelay((0.0, 0.1))
print("with a load-proportional interconnect (G = 0.1 x) the communication")
print(f"cost drops from {comm.delay(flow.total_rate):.4f} to {comm.delay(out.total_rate):.4f} s per transfer,")
print("and every node still receives and sheds exactly the same net load.")
