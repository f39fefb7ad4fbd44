"""Config parsing: the node list's exact error messages and the network it builds."""

import copy

import numpy as np
import pytest

import loadbal as lb

BASE = {
    "nodes": [
        {"id": "a", "arrival_rate": 1.5, "service_rate": 4.0},
        {"id": "b", "arrival_rate": 0.0, "service_rate": 4.0},
    ],
    "comm": {"model": "constant", "params": {"t": 0.05}},
}


def with_node(k, **fields):
    """``BASE`` with node ``k``'s fields set, or removed where the value is ``_MISSING``."""
    data = copy.deepcopy(BASE)
    for key, value in fields.items():
        if value is _MISSING:
            del data["nodes"][k][key]
        else:
            data["nodes"][k][key] = value
    return data


_MISSING = object()

#: config -> the whole ConfigError message; each one was recorded with the node-by-node parser
#: that built a Node per entry, so the column parser must reproduce it byte for byte
NODE_LIST_ERRORS = {
    "not a list": ({**BASE, "nodes": {"a": 1}}, "nodes: expected a non-empty list"),
    "null": ({**BASE, "nodes": None}, "nodes: expected a non-empty list"),
    "empty": ({**BASE, "nodes": []}, "nodes: expected a non-empty list"),
    "missing": ({"comm": BASE["comm"]}, "config.nodes: missing required field"),
    "non-object node": ({**BASE, "nodes": [BASE["nodes"][0], 3]}, "nodes[1]: expected an object"),
    "list node": ({**BASE, "nodes": [["a"]]}, "nodes[0]: expected an object"),
    "missing id": (with_node(1, id=_MISSING), "nodes[1].id: missing required field"),
    "int id": (with_node(0, id=3), "nodes[0].id: expected a string"),
    "null id": (with_node(0, id=None), "nodes[0].id: expected a string"),
    "missing arrival": (with_node(1, arrival_rate=_MISSING), "nodes[1].arrival_rate: missing required field"),
    "missing service": (with_node(0, service_rate=_MISSING), "nodes[0].service_rate: missing required field"),
    "bool arrival": (with_node(0, arrival_rate=True), "nodes[0].arrival_rate: expected a number, got True"),
    "bool service": (with_node(1, service_rate=False), "nodes[1].service_rate: expected a number, got False"),
    "string arrival": (with_node(0, arrival_rate="1.5"),
                       "nodes[0].arrival_rate: expected a number, got '1.5'"),
    "string service": (with_node(1, service_rate="4"), "nodes[1].service_rate: expected a number, got '4'"),
    "null service": (with_node(0, service_rate=None), "nodes[0].service_rate: expected a number, got None"),
    "list arrival": (with_node(0, arrival_rate=[1.0]), "nodes[0].arrival_rate: expected a number, got [1.0]"),
    "numpy int arrival": (with_node(0, arrival_rate=np.int64(1)),
                          "nodes[0].arrival_rate: expected a number, got np.int64(1)"),
    "NaN arrival": (with_node(0, arrival_rate=float("nan")),
                    "nodes[0].arrival_rate: expected a finite number, got nan"),
    "infinite service": (with_node(1, service_rate=float("inf")),
                         "nodes[1].service_rate: expected a finite number, got inf"),
    "minus infinite arrival": (with_node(1, arrival_rate=float("-inf")),
                               "nodes[1].arrival_rate: expected a finite number, got -inf"),
    "negative arrival": (with_node(1, arrival_rate=-0.5),
                         "nodes[1]: node 'b': arrival_rate must be >= 0, got -0.5"),
    "negative int arrival": (with_node(1, arrival_rate=-1),
                             "nodes[1]: node 'b': arrival_rate must be >= 0, got -1.0"),
    "zero service": (with_node(0, service_rate=0.0), "nodes[0]: service_rate must be > 0, got 0.0"),
    "zero int service": (with_node(0, service_rate=0), "nodes[0]: service_rate must be > 0, got 0.0"),
    "negative service": (with_node(1, service_rate=-2.0), "nodes[1]: service_rate must be > 0, got -2.0"),
    "both rates bad": (with_node(0, arrival_rate=-1.0, service_rate=0.0),
                       "nodes[0]: service_rate must be > 0, got 0.0"),
    "duplicate ids": (with_node(1, id="a"), "network: duplicate node ids: ['a', 'a']"),
    # the comm section is read before the network is built, so its error comes first
    "duplicate ids, bad comm": ({**with_node(1, id="a"), "comm": {"model": "nope"}},
                                "comm.model: unknown model 'nope' (expected constant, mm1_channel or polynomial)"),
    "bad node, bad comm": ({**with_node(1, id=4), "comm": {"model": "nope"}}, "nodes[1].id: expected a string"),
    "unstable": (with_node(0, arrival_rate=9.0),
                 "network: unstable network: total arrival rate 9.0 >= total capacity 8.0"),
}


@pytest.mark.parametrize("case", list(NODE_LIST_ERRORS))
def test_node_list_error_message(case):
    data, message = NODE_LIST_ERRORS[case]
    with pytest.raises(lb.ConfigError) as info:
        lb.parse_config(data)
    assert str(info.value) == message


def test_huge_integer_rate_overflows_as_before():
    # float() of the value overflows before any range check, as it always has
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        lb.parse_config(with_node(0, arrival_rate=10 ** 400))


def eager_nodes(data):
    """The Node tuple a node-by-node parse builds: one Node per entry, rates through float()."""
    return tuple(lb.Node(id=nd["id"], arrival_rate=float(nd["arrival_rate"]),
                         delay=lb.MM1NodeDelay(service_rate=float(nd["service_rate"])))
                 for nd in data["nodes"])


class _Mapping(dict):
    pass


class _Name(str):
    pass


LAZY_CASES = {
    "floats": [("a", 1.5, 4.0), ("b", 0.0, 2.5), ("c", 0.1, 0.2)],
    "ints": [("a", 1, 4), ("b", 0, 3), ("c", 2 ** 60 + 1, 2 ** 61)],
    "numpy floats": [("a", np.float64(1.5), np.float64(4.0)), ("b", np.float64(0.0), np.float64(1e-3))],
    "mixed": [("a", 1, 4.0), ("b", np.float64(0.25), 3), ("c", -0.0, 1e150)],
}


@pytest.mark.parametrize("case", list(LAZY_CASES))
def test_lazy_nodes_equal_the_eager_tuple(case):
    data = {**BASE, "nodes": [{"id": i, "arrival_rate": a, "service_rate": s} for i, a, s in LAZY_CASES[case]]}
    network = lb.parse_config(data).network
    expected = eager_nodes(data)
    assert len(network) == len(expected)
    nodes = network.nodes
    assert nodes == expected and repr(nodes) == repr(expected)
    assert [type(n.arrival_rate) for n in nodes] == [float] * len(nodes)
    assert [float(n.arrival_rate).hex() for n in nodes] == [n.arrival_rate.hex() for n in expected]
    assert network.nodes is nodes  # built once, then kept
    assert network.with_comm(lb.ConstantCommDelay(0.0)).nodes is nodes


def test_subclassed_entries_parse_as_before():
    data = {**BASE, "nodes": [_Mapping(id=_Name("a"), arrival_rate=1.0, service_rate=4.0),
                              {"id": _Name("b"), "arrival_rate": 0.25, "service_rate": 3.0}]}
    nodes = lb.parse_config(data).network.nodes
    assert nodes == eager_nodes(data)
    assert all(type(n.id) is _Name for n in nodes)


@pytest.mark.parametrize("case", list(LAZY_CASES))
def test_network_to_config_round_trips(case):
    data = {**BASE, "nodes": [{"id": i, "arrival_rate": a, "service_rate": s} for i, a, s in LAZY_CASES[case]]}
    network = lb.parse_config(data).network
    config = lb.network_to_config(network)
    again = lb.parse_config(config).network
    assert again.nodes == network.nodes
    assert lb.network_to_config(again) == config
    assert again.arrival_rates.tobytes() == network.arrival_rates.tobytes()
    assert again.service_rates.tobytes() == network.service_rates.tobytes()


def test_network_keeps_the_node_tuple_it_is_given():
    nodes = eager_nodes(BASE)
    network = lb.Network(nodes, lb.ConstantCommDelay(0.05))
    assert network.nodes is nodes
    assert lb.Network(list(nodes), lb.ConstantCommDelay(0.05)).nodes == nodes


@pytest.mark.parametrize("arrivals, services, message", [
    ([1.0, -0.5], [2.0, 2.0], "node 'b': arrival_rate must be >= 0, got -0.5"),
    ([1.0, 0.5], [0.0, 2.0], "service_rate must be > 0, got 0.0"),
])
def test_columns_with_bad_rates_raise_the_node_error(arrivals, services, message):
    with pytest.raises(ValueError) as info:
        lb.Network(lb.NodeColumns(("a", "b"), arrivals, services), lb.ConstantCommDelay(0.05))
    assert str(info.value) == message


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="node columns differ in length: 2 ids, 3 arrival rates, 2 service rates"):
        lb.Network(lb.NodeColumns(("a", "b"), [1.0, 0.5, 0.0], [2.0, 2.0]), lb.ConstantCommDelay(0.05))
