#!/usr/bin/env python3
"""Delay models: node delay curves, marginal prices, and what makes an
interconnect model admissible for the optimality analysis."""

import numpy as np

import loadbal as lb

node = lb.MM1NodeDelay(service_rate=4.0)

print("A single-server node with service rate 4 jobs/s")
print(f"{'throughput':>10} {'delay':>10} {'marginal':>10}")
for beta in (0.0, 1.0, 2.0, 3.0, 3.6, 3.9):
    print(f"{beta:>10.2f} {node.delay(beta):>10.4f} {node.marginal_delay(beta):>10.4f}")
print("delay at saturation:", node.delay(4.0))
print()

print("The marginal delay is the price of one more unit of load; it is")
print("strictly increasing, so it can be inverted to answer: what rate")
print("does this node run at if the going price is y?")
for price in (0.25, 0.378698, 2.0):
    rate, clipped = node.inverse_marginal_delay(price)
    note = " (priced out, node idles)" if clipped else ""
    print(f"  price {price:<9g} -> rate {rate:.6f}{note}")
print()

print("Interconnect models give the mean per-transfer delay G as a function")
print("of total transfer traffic:")
models = {
    "constant":   lb.ConstantCommDelay(0.05),
    "channel":    lb.MM1ChannelCommDelay(transfer_time=0.05, capacity=10.0),
    "polynomial": lb.PolynomialCommDelay((0.0, 0.02, 0.005)),
}
grid = [0.5, 2.0, 5.0, 9.0]
print(f"{'model':>12} " + " ".join(f"G({g:>3})" for g in grid))
for name, model in models.items():
    print(f"{name:>12} " + " ".join(f"{model.delay(g):6.3f}" for g in grid))
print()

print("Theory wants G(x)/x non-decreasing (no fixed cost, superlinear growth).")
print("Verdicts, read off G(0):")
for name, model in models.items():
    net = lb.Network([lb.Node("probe", 0.5, lb.MM1NodeDelay(2.0))], model)
    report = lb.check_model_admissibility(net, max_rate=9.0, samples=1000)
    print(f"  {name:>12}: ratio non-decreasing = {report.ratio_nondecreasing}, "
          f"G non-decreasing = {report.comm_nondecreasing}")
print()
print("The constant and channel models carry a fixed cost at zero traffic,")
print("so the ratio test fails for them; relay elimination still never")
print("raises their cost here because the per-pair delay is uniform.")
