"""Instances, flows, objectives, feasibility and role classification."""

import dataclasses

import numpy as np
import pytest

import loadbal as lb
from loadbal.network import ACTIVE_CODE, IDLE_CODE, NEUTRAL_CODE, RELAY_CODE, SINK_CODE, net_transfer_roles, objective

from conftest import headroom_network, make_network, random_feasible_flow


class TestConstruction:
    def test_rejects_unstable(self):
        with pytest.raises(lb.UnstableNetworkError):
            make_network([3.0, 2.0], [2.0, 2.0])

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            make_network([-0.5], [2.0])

    def test_rejects_duplicate_ids(self):
        node = lb.Node("a", 0.1, lb.MM1NodeDelay(2.0))
        with pytest.raises(ValueError):
            lb.Network([node, node], lb.ConstantCommDelay(0.05))

    def test_total_arrival_cached(self):
        net = make_network([1.0, 0.5], [2.0, 2.0])
        assert net.total_arrival_rate == 1.5

    def test_with_comm_shares_node_state(self):
        net = make_network([1.0, 0.5, 0.0], [2.0, 2.0, 3.0])
        comm = lb.MM1ChannelCommDelay(0.1, 4.0)
        twin = net.with_comm(comm)
        assert twin.comm is comm and net.comm == lb.ConstantCommDelay(0.05)
        assert twin.nodes is net.nodes and len(twin) == len(net)
        for name in ("arrival_rates", "service_rates", "marginal_at_arrivals", "marginal_at_zero"):
            assert getattr(twin, name) is getattr(net, name)
            assert not getattr(twin, name).flags.writeable
        assert twin.total_arrival_rate == net.total_arrival_rate

    @pytest.mark.parametrize("phi, mu, comm, names, lam_min", [
        # repro A: b must ship 2.5087 but the channel saturates at 1.2618
        ([0.0, 2.50872161, 0.0], [9.07381114, 3.98069110e-7, 3.17796365e-5],
         lb.MM1ChannelCommDelay(0.06916726420273384, 1.2618455189934136), "'n1'", 2.5087212119308897),
        # repro B: a must ship 1.5 through a channel of capacity 1.2
        ([2.5, 0.0], [1.0, 9.0], lb.MM1ChannelCommDelay(0.05, 1.2), "'n0'", 1.5),
        # the capacity equal to lambda_min is rejected as well: the overload must ship more than it
        ([3.0, 2.0, 0.0], [2.0, 1.0, 9.0], lb.MM1ChannelCommDelay(0.05, 2.0), "'n0', 'n1'", 2.0),
        ([2.0] * 7 + [0.0], [1.0] * 7 + [100.0], lb.MM1ChannelCommDelay(0.05, 7.0),
         "'n0', 'n1', 'n2', 'n3', 'n4' and 2 more", 7.0),
    ], ids=["reproA", "reproB", "at-capacity", "many"])
    def test_rejects_channel_infeasible(self, phi, mu, comm, names, lam_min):
        message = (f"unstable network: nodes {names} must ship more than lambda_min = {lam_min!r} in total, "
                   f"their arrivals beyond their service rates, but the interconnect saturates at "
                   f"max_rate = {comm.max_rate!r}")
        with pytest.raises(lb.UnstableNetworkError) as info:
            make_network(phi, mu, comm)
        assert str(info.value) == message
        net = make_network(phi, mu, lb.MM1ChannelCommDelay(0.05, 2.0 * lam_min))
        assert net._node_state.min_traffic == lam_min
        with pytest.raises(lb.UnstableNetworkError) as info:
            net.with_comm(comm)
        assert str(info.value) == message
        assert lb.verify_optimality(net, lb.solve(net)).passed()  # the network itself stays usable

    def test_flow_matrix_validation(self):
        with pytest.raises(ValueError):
            lb.FlowMatrix([[0.0, -0.1], [0.0, 0.0]])
        with pytest.raises(ValueError):
            lb.FlowMatrix([[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            lb.FlowMatrix([[0.0, 0.1, 0.0], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_flow_matrix_rejects_non_finite(self, entry):
        # a NaN used to pass as feasible and simulate as if it were 0; inf warned before it was rejected
        with pytest.raises(ValueError, match="finite"):
            lb.FlowMatrix([[0.0, entry], [0.0, 0.0]])

    def test_allocation_validation(self):
        net = make_network([1.0, 0.5], [2.0, 2.0])
        lb.Allocation(rates=(0.75, 0.75), transfer_rate=0.25).validate(net)
        with pytest.raises(ValueError):
            lb.Allocation(rates=(1.0, 1.0), transfer_rate=0.0).validate(net)  # sum != total
        with pytest.raises(ValueError):
            lb.Allocation(rates=(2.0, -0.5), transfer_rate=0.0).validate(net)


class TestObjective:
    def test_single_node(self):
        net = make_network([1.0], [2.0])
        assert lb.mean_response_time(net, lb.FlowMatrix.zero(1)) == pytest.approx(1.0)

    def test_symmetric_zero_flow(self, symmetric_pair):
        value = lb.mean_response_time(symmetric_pair, lb.FlowMatrix.zero(2))
        assert value == pytest.approx(2 / 3, abs=1e-5)

    def test_asymmetric_hand_value(self, asymmetric_pair):
        flow = lb.FlowMatrix([[0.0, 0.75], [0.0, 0.0]])
        # hand evaluation: both nodes at 0.75 of capacity 4 plus the flat transfer cost
        expected = 2 * 0.75 * (1 / 3.25) / 1.5 + 0.05
        assert expected == pytest.approx(0.35769, abs=1e-5)
        assert lb.mean_response_time(asymmetric_pair, flow) == pytest.approx(expected, rel=1e-12)

    def test_saturated_node_is_infinite(self):
        net = make_network([1.9, 0.0], [2.0, 4.0])
        flow = lb.FlowMatrix([[0.0, 0.0], [0.0, 0.0]])
        assert lb.mean_response_time(net, flow) != lb.INFINITE
        net2 = make_network([2.5, 0.0], [2.0, 4.0])
        assert lb.mean_response_time(net2, lb.FlowMatrix.zero(2)) == lb.INFINITE

    def test_aggregate_examples(self, asymmetric_pair):
        net1 = make_network([1.0], [2.0])
        assert lb.aggregate_objective(net1, lb.Allocation((1.0,), 0.0)) == pytest.approx(1.0)
        value = lb.aggregate_objective(asymmetric_pair, lb.Allocation((0.75, 0.75), 0.75))
        assert value == pytest.approx(0.53654, abs=1e-5)

    def test_zero_traffic_convention(self):
        # transfers cost nothing when there are none, even with a fixed-cost model
        net = make_network([1.0, 0.5], [2.0, 2.0], lb.ConstantCommDelay(10.0))
        expected = sum(p * 1 / (2 - p) for p in (1.0, 0.5))
        assert lb.aggregate_objective(net, lb.Allocation((1.0, 0.5), 0.0)) == pytest.approx(expected)

    def test_aggregate_equals_scaled_mean(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            net = headroom_network(rng, n)
            flow = random_feasible_flow(rng, net)
            beta = lb.processing_rates(net, flow)
            agg = lb.aggregate_objective(net, lb.Allocation(tuple(map(float, beta)), flow.total_rate))
            mean = lb.mean_response_time(net, flow)
            if np.isfinite(agg) and net.total_arrival_rate > 0:
                assert agg == pytest.approx(net.total_arrival_rate * mean, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        net = headroom_network(rng, 4, comm=lb.ConstantCommDelay(0.03))
        flow = random_feasible_flow(rng, net)
        perm = [2, 0, 3, 1]
        pnet = make_network(net.arrival_rates[perm], net.service_rates[perm], net.comm)
        pflow = lb.FlowMatrix(flow.matrix[np.ix_(perm, perm)])
        assert lb.mean_response_time(net, flow) == pytest.approx(
            lb.mean_response_time(pnet, pflow), rel=1e-12
        )

    def test_zero_flow_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            net = headroom_network(rng, 3)
            expected = sum(
                n.arrival_rate / net.total_arrival_rate * n.delay.delay(n.arrival_rate)
                for n in net.nodes
            )
            assert lb.mean_response_time(net, lb.FlowMatrix.zero(3)) == pytest.approx(expected, rel=1e-12)


class TestObjectiveBlock:
    @pytest.mark.parametrize("comm", [lb.ConstantCommDelay(0.3), lb.MM1ChannelCommDelay(0.1, 2.0)])
    @pytest.mark.parametrize("n", [3, 12])
    def test_block_equals_rows(self, comm, n):
        rng = np.random.default_rng(16)
        services = rng.uniform(1.0, 4.0, n)
        net = make_network(rng.uniform(0.0, 0.5, n), services, comm)
        rates = rng.uniform(0.0, 0.9, (24, n)) * services
        traffic = rng.uniform(0.0, 1.9, 24)
        rates[0, 1] = services[1]  # a saturated node
        traffic[1:3] = 2.0, 3.0    # at and above the channel's capacity
        traffic[3] = 0.0
        block = objective(net, rates, traffic)
        assert block.tolist() == [float(objective(net, r, t)) for r, t in zip(rates, traffic)]
        assert block[0] == lb.INFINITE
        assert np.isinf(block[1:3]).all() == np.isfinite(comm.max_rate)
        # zero traffic adds no communication term, even at a fixed cost t > 0
        assert block[3] == float((rates[3] * (1.0 / (services - rates[3]))).sum())


class TestFeasibility:
    def test_outflow_exceeds_arrivals(self):
        net = make_network([1.0, 0.0], [4.0, 4.0])
        report = lb.check_feasibility(net, lb.FlowMatrix([[0.0, 1.5], [0.0, 0.0]]))
        assert not report.feasible
        assert any("node 0" in v for v in report.violations)
        assert report.processing_rates[0] == pytest.approx(-0.5)

    def test_zero_flow_feasible(self):
        rng = np.random.default_rng(13)
        net = headroom_network(rng, 4)
        assert lb.check_feasibility(net, lb.FlowMatrix.zero(4)).feasible

    def test_relay_chain_feasible(self):
        net = make_network([1.0, 0.5, 0.0], [4.0, 4.0, 4.0])
        flow = lb.FlowMatrix([[0.0, 0.4, 0.0], [0.0, 0.0, 0.4], [0.0, 0.0, 0.0]])
        report = lb.check_feasibility(net, flow)
        assert report.feasible
        assert lb.relay_count(flow) == 1

    def test_tolerances_scale_with_arrivals(self):
        # a pair at micro rates: shipping 5e-10 more than node a's arrivals is 3.3e-4 of Phi,
        # far beyond the 1e-9 flow tolerance however small the rates are
        phi = 1.5e-6
        net = make_network([phi, 0.0], [4e-6, 4e-6])
        flow = lb.FlowMatrix([[0.0, phi + 5e-10], [0.0, 0.0]])
        report = lb.check_feasibility(net, flow)
        assert not report.feasible
        assert any("node 0" in v for v in report.violations)
        with pytest.raises(lb.InfeasibleFlowError):
            lb.mean_response_time(net, flow)
        with pytest.raises(ValueError, match="sum to"):
            lb.Allocation(rates=(0.0, phi + 5e-10), transfer_rate=phi).validate(net)
        sources_and_sink = lb.NodePartition((lb.NodeRole.IDLE_SOURCE, lb.NodeRole.SINK))
        with pytest.raises(ValueError, match="surplus"):
            lb.synthesize_flows(net, sources_and_sink, (0.0, phi + 5e-10))

    def test_comm_saturation_flagged(self):
        net = make_network([1.0, 0.0], [4.0, 4.0], lb.MM1ChannelCommDelay(0.1, 0.5))
        report = lb.check_feasibility(net, lb.FlowMatrix([[0.0, 0.8], [0.0, 0.0]]))
        assert not report.feasible
        assert any("saturates" in v for v in report.violations)


class TestRoles:
    def test_source_sink(self, asymmetric_pair):
        partition = lb.classify_roles(asymmetric_pair, lb.FlowMatrix([[0.0, 0.75], [0.0, 0.0]]))
        assert partition.roles == (lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK)

    def test_all_neutral(self, symmetric_pair):
        partition = lb.classify_roles(symmetric_pair, lb.FlowMatrix.zero(2))
        assert partition.roles == (lb.NodeRole.NEUTRAL, lb.NodeRole.NEUTRAL)
        assert partition.compact() == "N,N"

    def test_relay_diagnostic(self):
        net = make_network([1.0, 0.5, 0.0], [4.0, 4.0, 4.0])
        flow = lb.FlowMatrix([[0.0, 0.3, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
        partition = lb.classify_roles(net, flow)
        assert partition.roles[1] is lb.NodeRole.RELAY
        assert partition.relays == (1,)

    def test_idle_source(self):
        net = make_network([0.5, 0.0], [4.0, 4.0])
        partition = lb.classify_roles(net, lb.FlowMatrix([[0.0, 0.5], [0.0, 0.0]]))
        assert partition.roles == (lb.NodeRole.IDLE_SOURCE, lb.NodeRole.SINK)

    def test_infeasible_rejected(self):
        net = make_network([1.0, 0.0], [4.0, 4.0])
        with pytest.raises(lb.InfeasibleFlowError):
            lb.classify_roles(net, lb.FlowMatrix([[0.0, 1.5], [0.0, 0.0]]))

    def test_role_rate_relations_without_relays(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(300):
            net = headroom_network(rng, 4)
            # relay-free by construction: the first two nodes only send,
            # the last two only receive
            x = np.zeros((4, 4))
            for i in (0, 1):
                for j in (2, 3):
                    if rng.random() < 0.7:
                        x[i, j] = rng.uniform(0.0, net.arrival_rates[i] / 4)
            flow = lb.FlowMatrix(x)
            assert lb.relay_count(flow) == 0
            partition = lb.classify_roles(net, flow)
            beta = lb.processing_rates(net, flow)
            phi = net.arrival_rates
            for i, role in enumerate(partition.roles):
                if role is lb.NodeRole.IDLE_SOURCE:
                    assert beta[i] == pytest.approx(0.0, abs=1e-9)
                elif role is lb.NodeRole.ACTIVE_SOURCE:
                    assert 0.0 < beta[i] < phi[i]
                elif role is lb.NodeRole.NEUTRAL:
                    assert beta[i] == pytest.approx(phi[i], rel=1e-12, abs=1e-12)
                else:
                    assert beta[i] > phi[i]
            checked += 1
        assert checked > 50

    def test_relay_count_examples(self):
        chain2 = lb.FlowMatrix([[0.0, 0.3, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
        assert lb.relay_count(chain2) == 1
        assert lb.relay_count(lb.FlowMatrix.zero(3)) == 0
        chain4 = np.zeros((4, 4))
        chain4[0, 1] = chain4[1, 2] = chain4[2, 3] = 0.2
        assert lb.relay_count(lb.FlowMatrix(chain4)) == 2


#: the code of each role, as NodePartition.codes holds it
CODE_OF = {lb.NodeRole.SINK: SINK_CODE, lb.NodeRole.NEUTRAL: NEUTRAL_CODE, lb.NodeRole.IDLE_SOURCE: IDLE_CODE,
           lb.NodeRole.ACTIVE_SOURCE: ACTIVE_CODE, lb.NodeRole.RELAY: RELAY_CODE}
LETTER_OF = {lb.NodeRole.SINK: "S", lb.NodeRole.NEUTRAL: "N", lb.NodeRole.IDLE_SOURCE: "I",
             lb.NodeRole.ACTIVE_SOURCE: "A", lb.NodeRole.RELAY: "R"}


def assert_codes_agree(partition):
    """``codes`` is a read-only int8 view of ``roles``, invisible to ==, hash, repr and asdict."""
    assert partition.codes.dtype == np.int8 and not partition.codes.flags.writeable
    assert partition.codes.tolist() == [CODE_OF[r] for r in partition.roles]
    by_roles = lb.NodePartition(roles=partition.roles)
    assert partition == by_roles and hash(partition) == hash(by_roles)
    assert repr(partition) == f"NodePartition(roles={partition.roles!r})"
    assert dataclasses.asdict(partition) == {"roles": partition.roles}
    assert partition.compact() == ",".join(LETTER_OF[r] for r in partition.roles)
    assert partition.sinks == tuple(i for i, r in enumerate(partition.roles) if r is lb.NodeRole.SINK)
    assert partition.sources == tuple(i for i, r in enumerate(partition.roles)
                                      if r in (lb.NodeRole.IDLE_SOURCE, lb.NodeRole.ACTIVE_SOURCE))
    assert all(type(i) is int for i in partition.sinks + partition.sources)


class TestPartitionCodes:
    def test_hand_built(self):
        roles = tuple(lb.NodeRole)
        partition = lb.NodePartition(roles=roles + roles[::-1])
        assert_codes_agree(partition)
        assert partition.compact() == "I,A,N,S,R,R,S,N,A,I"
        assert_codes_agree(lb.NodePartition.from_codes(partition.codes))
        assert lb.NodePartition.from_codes(partition.codes) == partition
        assert_codes_agree(dataclasses.replace(partition, roles=roles))

    def test_solver_answers(self):
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(60):
            net = headroom_network(rng, int(rng.integers(2, 7)))
            solution = lb.solve(net)
            assert_codes_agree(solution.partition)
            seen.update(solution.partition.roles)
        assert seen == {lb.NodeRole.SINK, lb.NodeRole.NEUTRAL, lb.NodeRole.IDLE_SOURCE, lb.NodeRole.ACTIVE_SOURCE}

    def test_no_transfer_answer(self, symmetric_pair):
        solution = lb.solve(symmetric_pair)
        assert solution.partition.roles == (lb.NodeRole.NEUTRAL,) * 2
        assert_codes_agree(solution.partition)
        expensive = lb.solve(make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(5.0)))
        assert expensive.no_transfer_override
        assert_codes_agree(expensive.partition)

    def test_net_transfer_roles(self):
        d = np.array([0.5, 0.2, -0.7, 0.0, 1e-13, np.nan])
        partition = net_transfer_roles(np.array([0.5, 1.0, 0.0, 0.3, 0.2, 1.0]), d, 1e-12, 1e-12)
        assert partition.roles == (lb.NodeRole.IDLE_SOURCE, lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK,
                                   lb.NodeRole.NEUTRAL, lb.NodeRole.NEUTRAL, lb.NodeRole.NEUTRAL)
        assert_codes_agree(partition)

    def test_classify_roles_with_relay(self):
        net = make_network([1.0, 0.5, 0.0], [4.0, 4.0, 4.0])
        partition = lb.classify_roles(net, lb.FlowMatrix([[0.0, 0.3, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]]))
        assert partition.roles == (lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.RELAY, lb.NodeRole.SINK)
        assert partition.relays == (1,)
        assert_codes_agree(partition)
