"""Scenario config files: JSON schema, validation and round-tripping.

One file carries the network plus optional solver and simulation
sections, so a scenario is a single reproducible artifact::

    {
      "nodes": [{"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
                {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0}],
      "comm": {"model": "constant", "params": {"t": 0.05}},
      "solver": {"alpha_tol": 1e-10},
      "sim": {"total_jobs": 100000, "seed": 42}
    }

Validation errors name the offending path (e.g. ``nodes[1].service_rate``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .delays import (
    CommDelayModel,
    ConstantCommDelay,
    MM1ChannelCommDelay,
    MM1NodeDelay,
    PolynomialCommDelay,
)
from .network import Network, Node
from .sim import Policy, SimConfig
from .solver import SolverConfig


class ConfigError(ValueError):
    """Invalid scenario config; the message names the offending path."""


@dataclass(frozen=True)
class Scenario:
    network: Network
    solver: SolverConfig
    sim: dict  # raw sim settings; CLI flags fill in the rest


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}: missing required field")
    return data[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):  # JSON parsing accepts NaN and Infinity
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _comm_from_config(data, path: str) -> CommDelayModel:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    model = _require(data, "model", path)
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected an object")
    try:
        if model == "constant":
            return ConstantCommDelay(transfer_time=_number(_require(params, "t", f"{path}.params"), f"{path}.params.t"))
        if model == "mm1_channel":
            return MM1ChannelCommDelay(
                transfer_time=_number(_require(params, "t", f"{path}.params"), f"{path}.params.t"),
                capacity=_number(_require(params, "capacity", f"{path}.params"), f"{path}.params.capacity"),
            )
        if model == "polynomial":
            coeffs = _require(params, "coefficients", f"{path}.params")
            if not isinstance(coeffs, list):
                raise ConfigError(f"{path}.params.coefficients: expected a list")
            return PolynomialCommDelay(
                coefficients=tuple(_number(c, f"{path}.params.coefficients[{k}]") for k, c in enumerate(coeffs))
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}.params: {exc}") from exc
    raise ConfigError(f"{path}.model: unknown model {model!r} (expected constant, mm1_channel or polynomial)")


def parse_config(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    nodes_data = _require(data, "nodes", "config")
    if not isinstance(nodes_data, list) or not nodes_data:
        raise ConfigError("nodes: expected a non-empty list")
    nodes = []
    for k, nd in enumerate(nodes_data):
        path = f"nodes[{k}]"
        if not isinstance(nd, dict):
            raise ConfigError(f"{path}: expected an object")
        node_id = _require(nd, "id", path)
        if not isinstance(node_id, str):
            raise ConfigError(f"{path}.id: expected a string")
        arrival = _number(_require(nd, "arrival_rate", path), f"{path}.arrival_rate")
        service = _number(_require(nd, "service_rate", path), f"{path}.service_rate")
        try:
            nodes.append(Node(id=node_id, arrival_rate=arrival, delay=MM1NodeDelay(service_rate=service)))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    comm = _comm_from_config(_require(data, "comm", "config"), "comm")
    try:
        network = Network(nodes, comm)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc

    solver_data = data.get("solver", {})
    if not isinstance(solver_data, dict):
        raise ConfigError("solver: expected an object")
    allowed = {"alpha_tol", "lambda_tol", "max_outer"}
    unknown = set(solver_data) - allowed
    if unknown:
        raise ConfigError(f"solver.{sorted(unknown)[0]}: unknown field")
    try:
        solver = SolverConfig(**solver_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc

    sim_data = data.get("sim", {})
    if not isinstance(sim_data, dict):
        raise ConfigError("sim: expected an object")
    sim_allowed = {"total_jobs", "seed", "warmup_fraction", "policy"}
    sim_unknown = set(sim_data) - sim_allowed
    if sim_unknown:
        raise ConfigError(f"sim.{sorted(sim_unknown)[0]}: unknown field")
    if "policy" in sim_data:
        policy_from_name(sim_data["policy"], path="sim.policy")
    return Scenario(network=network, solver=solver, sim=dict(sim_data))


def load_config(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(data)


def policy_from_name(name, path: str = "policy") -> Policy:
    try:
        return Policy(name)
    except ValueError:
        valid = ", ".join(p.value for p in Policy)
        raise ConfigError(f"{path}: unknown policy {name!r} (expected one of {valid})") from None


def sim_config(scenario: Scenario, *, jobs: int | None = None, seed: int | None = None,
               policy: str | None = None) -> SimConfig:
    """Merge the scenario's sim section with CLI overrides."""
    raw = dict(scenario.sim)
    if jobs is not None:
        raw["total_jobs"] = jobs
    if seed is not None:
        raw["seed"] = seed
    if policy is not None:
        raw["policy"] = policy
    raw.setdefault("total_jobs", 100_000)
    raw.setdefault("seed", 1)
    raw["policy"] = policy_from_name(raw.get("policy", Policy.STATIC_OPTIMAL.value))
    try:
        return SimConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sim: {exc}") from exc


def network_to_config(network: Network) -> dict:
    """Config dict that re-parses to an identical instance."""
    comm = network.comm
    if isinstance(comm, ConstantCommDelay):
        comm_data = {"model": "constant", "params": {"t": comm.transfer_time}}
    elif isinstance(comm, MM1ChannelCommDelay):
        comm_data = {"model": "mm1_channel", "params": {"t": comm.transfer_time, "capacity": comm.capacity}}
    elif isinstance(comm, PolynomialCommDelay):
        comm_data = {"model": "polynomial", "params": {"coefficients": list(comm.coefficients)}}
    else:  # pragma: no cover
        raise TypeError(f"cannot serialize comm model {type(comm).__name__}")
    return {
        "nodes": [
            {"id": n.id, "arrival_rate": n.arrival_rate, "service_rate": n.delay.service_rate}
            for n in network.nodes
        ],
        "comm": comm_data,
    }
