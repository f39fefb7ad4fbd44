"""Scenario config files: JSON schema, validation and round-tripping.

One file carries the network plus optional solver and simulation
sections, so a scenario is a single reproducible artifact::

    {
      "nodes": [{"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
                {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0}],
      "comm": {"model": "constant", "params": {"t": 0.05}},
      "solver": {"max_outer": 200},
      "sim": {"total_jobs": 100000, "seed": 42}
    }

Validation errors name the offending path (e.g. ``nodes[1].service_rate``).
An unknown field at the top level or in ``solver``/``sim`` is an error too
(e.g. ``config.solvers: unknown field``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

from .delays import (
    CommDelayModel,
    ConstantCommDelay,
    MM1ChannelCommDelay,
    MM1NodeDelay,
    PolynomialCommDelay,
)
from .network import Network, Node, NodeColumns
from .sim import Policy, SimConfig
from .solver import SolverConfig


class ConfigError(ValueError):
    """Invalid scenario config; the message names the offending path."""


@dataclass(frozen=True)
class Scenario:
    network: Network
    solver: SolverConfig
    sim: SimConfig  # the sim section over ``_SIM_DEFAULTS``; CLI flags override it


#: simulation settings a config's ``sim`` section leaves out
_SIM_DEFAULTS = SimConfig(total_jobs=100_000, seed=1)


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


def _required_number(data: dict, key: str, path: str) -> float:
    return _number(_require(data, key, path), f"{path}.{key}")


def _known_fields(data: dict, names, path: str) -> dict:
    """``data``, unless it holds a key that is not in ``names``."""
    unknown = set(data) - set(names)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
    return data


def _section(data: dict, name: str, settings) -> dict:
    """The optional ``name`` object of the config, holding only fields of the ``settings`` dataclass."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    return _known_fields(section, [field.name for field in fields(settings)], name)


def _comm_from_config(data, path: str) -> CommDelayModel:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    model = _require(data, "model", path)
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected an object")
    try:
        if model == "constant":
            return ConstantCommDelay(transfer_time=_required_number(params, "t", f"{path}.params"))
        if model == "mm1_channel":
            return MM1ChannelCommDelay(transfer_time=_required_number(params, "t", f"{path}.params"),
                                       capacity=_required_number(params, "capacity", f"{path}.params"))
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


#: rate types read without a check of their own; a bool is neither
_PLAIN = (int, float)
#: the largest rate that converts to a finite float
_LARGEST = sys.float_info.max


def _nodes_from_config(data) -> NodeColumns:
    """The ``nodes`` list read into columns in one pass.

    A node of plain values (a dict with a ``str`` id and ``int`` or
    ``float`` rates in range) is read as it is; any other node goes through
    :func:`_checked_node`, which formats the ``nodes[k]`` error paths and
    raises on the first node the config's rules refuse.
    """
    if not isinstance(data, list) or not data:
        raise ConfigError("nodes: expected a non-empty list")
    ids, arrivals, services = [], [], []
    for nd in data:
        if type(nd) is dict:
            node_id, arrival, service = nd.get("id"), nd.get("arrival_rate"), nd.get("service_rate")
            if (type(node_id) is str and type(arrival) in _PLAIN and type(service) in _PLAIN
                    and 0 <= arrival <= _LARGEST and 0 < service <= _LARGEST):
                ids.append(node_id)
                arrivals.append(arrival)
                services.append(service)
                continue
        node_id, arrival, service = _checked_node(len(ids), nd)
        ids.append(node_id)
        arrivals.append(arrival)
        services.append(service)
    return NodeColumns(tuple(ids), arrivals, services)


def _checked_node(k: int, nd) -> tuple[str, float, float]:
    """Id, arrival rate and service rate of node ``k``, or the ``ConfigError`` naming its field."""
    path = f"nodes[{k}]"
    if not isinstance(nd, dict):
        raise ConfigError(f"{path}: expected an object")
    node_id = _require(nd, "id", path)
    if not isinstance(node_id, str):
        raise ConfigError(f"{path}.id: expected a string")
    arrival = _required_number(nd, "arrival_rate", path)
    service = _required_number(nd, "service_rate", path)
    try:
        Node(id=node_id, arrival_rate=arrival, delay=MM1NodeDelay(service_rate=service))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return node_id, arrival, service


def parse_config(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    _known_fields(data, ("nodes", "comm", "solver", "sim"), "config")
    return _parse_on(data, partial(Network, _nodes_from_config(_require(data, "nodes", "config"))))


def parse_sections(data: dict, base: Network) -> Scenario:
    """The scenario of config ``data`` on the nodes of the already parsed network ``base``.

    Only ``comm``, ``solver`` and ``sim`` are read from ``data``; the
    network is ``base.with_comm``, so it shares ``base``'s node state.
    """
    return _parse_on(data, base.with_comm)


def _parse_on(data: dict, network_on) -> Scenario:
    """The scenario of ``data`` whose network is ``network_on(comm)`` for the parsed ``comm``."""
    comm = _comm_from_config(_require(data, "comm", "config"), "comm")
    try:
        network = network_on(comm)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc

    solver_data = _section(data, "solver", SolverConfig)
    try:
        solver = SolverConfig(**solver_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc

    sim_data = dict(_section(data, "sim", SimConfig))
    if "policy" in sim_data:
        sim_data["policy"] = policy_from_name(sim_data["policy"], path="sim.policy")
    return Scenario(network=network, solver=solver, sim=_sim_settings(_SIM_DEFAULTS, sim_data))


def read_config(path: str | Path):
    """The decoded JSON of a config file, not yet validated."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def load_config(path: str | Path) -> Scenario:
    return parse_config(read_config(path))


def policy_from_name(name, path: str = "policy") -> Policy:
    try:
        return Policy(name)
    except ValueError:
        valid = ", ".join(p.value for p in Policy)
        raise ConfigError(f"{path}: unknown policy {name!r} (expected one of {valid})") from None


def _sim_settings(base: SimConfig, changes: dict) -> SimConfig:
    """``base`` with ``changes`` applied; a bad value is a ``ConfigError`` naming its field."""
    try:
        return replace(base, **changes)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc


def sim_config(scenario: Scenario, *, jobs: int | None = None, seed: int | None = None,
               policy: str | None = None) -> SimConfig:
    """The scenario's sim settings with the CLI overrides that are set."""
    flags = {"total_jobs": jobs, "seed": seed}
    if policy is not None:
        flags["policy"] = policy_from_name(policy)
    return _sim_settings(scenario.sim, {k: v for k, v in flags.items() if v is not None})


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
