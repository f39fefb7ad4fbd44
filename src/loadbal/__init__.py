"""Optimal static load allocation for heterogeneous distributed systems.

The package computes, for a set of queueing nodes sharing one
interconnect, the processing rates that minimize the mean response time
objective; classifies every node as a source, sink or neutral; produces
explicit transfer matrices; and validates the result two independent
ways — a brute-force grid-search oracle on small instances and a seeded
discrete-event simulator.
"""

from .delays import (
    INFINITE,
    AdmissibilityReport,
    CommDelayModel,
    ConstantCommDelay,
    MM1ChannelCommDelay,
    MM1NodeDelay,
    PolynomialCommDelay,
    SaturationError,
    check_model_admissibility,
)
from .network import (
    Allocation,
    FeasibilityReport,
    FlowMatrix,
    InfeasibleFlowError,
    Network,
    Node,
    NodeColumns,
    NodePartition,
    NodeRole,
    UnstableNetworkError,
    aggregate_objective,
    check_feasibility,
    classify_roles,
    mean_response_time,
    processing_rates,
    relay_count,
)
from .flows import eliminate_relays, synthesize_flows
from .solver import (
    ConvergenceError,
    KktReport,
    OptimalSolution,
    SolverConfig,
    flow_residual,
    partition_for_prices,
    solve,
    verify_optimality,
)
from .oracle import ComparisonReport, OracleResult, brute_force_optimum, compare_solutions
from .sim import Policy, SimConfig, SimReport, simulate, simulate_dynamic, simulate_static
from .config import ConfigError, Scenario, load_config, network_to_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "Allocation",
    "CommDelayModel",
    "ComparisonReport",
    "ConfigError",
    "ConstantCommDelay",
    "ConvergenceError",
    "FeasibilityReport",
    "FlowMatrix",
    "INFINITE",
    "InfeasibleFlowError",
    "KktReport",
    "MM1ChannelCommDelay",
    "MM1NodeDelay",
    "Network",
    "Node",
    "NodeColumns",
    "NodePartition",
    "NodeRole",
    "OptimalSolution",
    "OracleResult",
    "Policy",
    "PolynomialCommDelay",
    "SaturationError",
    "Scenario",
    "SimConfig",
    "SimReport",
    "SolverConfig",
    "UnstableNetworkError",
    "aggregate_objective",
    "brute_force_optimum",
    "check_feasibility",
    "check_model_admissibility",
    "classify_roles",
    "compare_solutions",
    "eliminate_relays",
    "flow_residual",
    "load_config",
    "mean_response_time",
    "network_to_config",
    "parse_config",
    "partition_for_prices",
    "processing_rates",
    "relay_count",
    "simulate",
    "simulate_dynamic",
    "simulate_static",
    "solve",
    "synthesize_flows",
    "verify_optimality",
]
