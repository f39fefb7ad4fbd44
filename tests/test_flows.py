"""Flow synthesis and relay elimination."""

import numpy as np
import pytest

import loadbal as lb

from conftest import headroom_network, make_network, random_feasible_flow


class TestSynthesize:
    def test_single_pair(self, asymmetric_pair):
        partition = lb.NodePartition(roles=(lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK))
        flow = lb.synthesize_flows(asymmetric_pair, partition, (0.75, 0.75))
        assert flow.matrix.tolist() == [[0.0, 0.75], [0.0, 0.0]]

    def test_two_sources_one_sink(self):
        net = make_network([1.0, 0.7, 0.0], [4.0, 4.0, 4.0])
        partition = lb.NodePartition(
            roles=(lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK)
        )
        flow = lb.synthesize_flows(net, partition, (0.6, 0.5, 0.6))
        assert flow.matrix[0, 2] == pytest.approx(0.4)
        assert flow.matrix[1, 2] == pytest.approx(0.2)
        assert flow.total_rate == pytest.approx(0.6)

    def test_one_source_two_sinks(self):
        net = make_network([1.0, 0.2, 0.2], [4.0, 4.0, 4.0])
        partition = lb.NodePartition(roles=(lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK, lb.NodeRole.SINK))
        flow = lb.synthesize_flows(net, partition, (0.5, 0.5, 0.4))
        assert flow.matrix[0, 1] == pytest.approx(0.3)
        assert flow.matrix[0, 2] == pytest.approx(0.2)

    def test_partition_length_checked(self, asymmetric_pair):
        a, s, n = lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK, lb.NodeRole.NEUTRAL
        for roles in ((a, s, n), (a, s, s), (a,)):
            with pytest.raises(ValueError, match="roles but network has 2 nodes"):
                lb.synthesize_flows(asymmetric_pair, lb.NodePartition(roles=roles), (0.75, 0.75))

    def test_imbalance_rejected(self, asymmetric_pair):
        partition = lb.NodePartition(roles=(lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK))
        with pytest.raises(ValueError):
            lb.synthesize_flows(asymmetric_pair, partition, (0.75, 0.9))

    def test_roundtrip_with_solver(self):
        rng = np.random.default_rng(31)
        from conftest import random_network

        for _ in range(100):
            net = random_network(rng, int(rng.integers(2, 6)))
            solution = lb.solve(net)
            flow = lb.synthesize_flows(net, solution.partition, solution.allocation.rates)
            assert lb.relay_count(flow) == 0
            assert flow.total_rate == pytest.approx(solution.allocation.transfer_rate, abs=1e-9)
            classified = lb.classify_roles(net, flow)
            for want, got, rate, node in zip(
                solution.partition.roles, classified.roles, solution.allocation.rates, net.nodes
            ):
                if got is want:
                    continue
                # a priced node whose surplus rounds to nothing classifies neutral
                assert got is lb.NodeRole.NEUTRAL
                assert abs(rate - node.arrival_rate) < 1e-9


class TestEliminateRelays:
    def test_two_hop(self):
        flow = lb.FlowMatrix([[0.0, 0.3, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
        out = lb.eliminate_relays(flow)
        assert out.matrix[0, 1] == pytest.approx(0.1)
        assert out.matrix[1, 2] == 0.0
        assert out.matrix[0, 2] == pytest.approx(0.2)
        assert out.total_rate == pytest.approx(0.3)

    def test_relay_free_unchanged(self):
        flow = lb.FlowMatrix([[0.0, 0.3], [0.0, 0.0]])
        assert lb.eliminate_relays(flow) == flow
        # two sources, two sinks, paired 0 -> 3 and 1 -> 2: the greedy fill
        # would re-pair them 0 -> 2, 0 -> 3, 1 -> 3
        crossed = lb.FlowMatrix([[0.0, 0.0, 0.0, 0.4],
                                 [0.0, 0.0, 0.3, 0.0],
                                 [0.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0, 0.0]])
        assert lb.eliminate_relays(crossed) == crossed

    def test_chain_collapses(self):
        x = np.zeros((4, 4))
        x[0, 1] = x[1, 2] = x[2, 3] = 0.2
        out = lb.eliminate_relays(lb.FlowMatrix(x))
        expected = np.zeros((4, 4))
        expected[0, 3] = 0.2
        assert out.matrix.tolist() == expected.tolist()
        assert out.total_rate == pytest.approx(0.2)

    def test_cost_rise_raises(self):
        class FallingCommDelay:
            """Stub interconnect whose per-transfer delay falls as traffic grows."""

            def delay(self, rate):
                return 1.0 / (1.0 + rate)

        # shipping 0 -> 2 direct instead of 0 -> 1 -> 2 halves the traffic, so this delay rises
        flow = lb.FlowMatrix([[0.0, 0.4, 0.0], [0.0, 0.0, 0.4], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="raised the communication cost"):
            lb.eliminate_relays(flow, FallingCommDelay())

    def test_round_trip_cancels(self):
        flow = lb.FlowMatrix([[0.0, 0.3], [0.2, 0.0]])
        out = lb.eliminate_relays(flow)
        assert out.matrix.tolist() == [[0.0, pytest.approx(0.1)], [0.0, 0.0]]

    def test_properties_on_random_flows(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            net = headroom_network(rng, int(rng.integers(2, 7)))
            flow = random_feasible_flow(rng, net)
            out = lb.eliminate_relays(flow, net.comm)
            scale = max(flow.total_rate, 1.0)
            net_before = flow.inflow() - flow.outflow()
            net_after = out.inflow() - out.outflow()
            assert np.abs(net_after - net_before).max() <= 1e-9 * scale
            assert lb.relay_count(out) == 0
            assert out.total_rate <= flow.total_rate * (1 + 1e-12)
            shipped = np.maximum(-net_before, 0.0).sum()
            assert out.total_rate == pytest.approx(shipped, rel=1e-12)

    def test_comm_cost_never_rises_for_admissible_models(self):
        rng = np.random.default_rng(34)
        models = [
            lb.PolynomialCommDelay((0.0, 0.2)),
            lb.PolynomialCommDelay((0.0, 0.05, 0.1)),
            lb.PolynomialCommDelay((0.0, 0.0, 0.0, 0.3)),
        ]
        for model in models:
            probe = make_network([0.5], [2.0], model)
            assert lb.check_model_admissibility(probe, max_rate=20.0, samples=500).ratio_nondecreasing
        for _ in range(300):
            model = models[int(rng.integers(0, len(models)))]
            net = headroom_network(rng, int(rng.integers(2, 6)), comm=model)
            flow = random_feasible_flow(rng, net)
            out = lb.eliminate_relays(flow, model)
            cost_before = model.delay(flow.total_rate) if flow.total_rate > 0 else 0.0
            cost_after = model.delay(out.total_rate) if out.total_rate > 0 else 0.0
            assert cost_after <= cost_before * (1 + 1e-12) + 1e-15


class TestFillHandsOver:
    """The greedy fill hands its fresh matrix to FlowMatrix without the constructor's copy and checks."""

    def test_same_matrix_as_the_checked_constructor(self):
        from conftest import random_network

        rng = np.random.default_rng(53)
        flows = []
        for _ in range(60):
            net = random_network(rng, int(rng.integers(2, 8)))
            solution = lb.solve(net)
            flows.append(lb.synthesize_flows(net, solution.partition, solution.allocation.rates))
            flows.append(lb.eliminate_relays(random_feasible_flow(rng, headroom_network(rng, 6))))
        for flow in flows:
            checked = lb.FlowMatrix(flow.matrix)
            assert flow == checked and repr(flow) == repr(checked)
            assert flow.total_rate.hex() == checked.total_rate.hex()
            assert flow.matrix.dtype == np.float64 and not flow.matrix.flags.writeable

    def test_infinite_rates_still_meet_the_finiteness_check(self, asymmetric_pair):
        partition = lb.NodePartition(roles=(lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK))
        # inf - inf passes the balance check as NaN, so the fill meets the infinite surplus
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="flow matrix entries must be finite"):
            lb.synthesize_flows(asymmetric_pair, partition, (-np.inf, np.inf))

    def test_constructor_still_copies_and_checks(self):
        x = np.array([[0.0, 0.5], [0.0, 0.0]])
        flow = lb.FlowMatrix(x)
        x[0, 1] = 9.0
        assert flow.matrix[0, 1] == 0.5
        with pytest.raises(ValueError, match="diagonal"):
            lb.FlowMatrix([[0.1, 0.0], [0.0, 0.0]])
