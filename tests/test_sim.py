"""Simulator: analytic fidelity, determinism and policy behavior."""

import dataclasses
import math

import numpy as np
import pytest

import loadbal as lb

from conftest import make_network


def optimal_flow(network):
    solution = lb.solve(network)
    return solution, lb.synthesize_flows(network, solution.partition, solution.allocation.rates)


class TestStatic:
    def test_single_queue_matches_closed_form(self):
        net = make_network([1.0], [2.0])
        report = lb.simulate_static(net, lb.FlowMatrix.zero(1), lb.SimConfig(total_jobs=30_000, seed=5))
        assert report.mean_response_time == pytest.approx(1.0, rel=0.10)
        assert report.transfer_count == 0
        assert report.utilization[0] == pytest.approx(0.5, abs=0.03)

    def test_asymmetric_matches_prediction(self, asymmetric_pair):
        solution, flow = optimal_flow(asymmetric_pair)
        predicted = solution.objective / asymmetric_pair.total_arrival_rate
        report = lb.simulate_static(asymmetric_pair, flow, lb.SimConfig(total_jobs=60_000, seed=6))
        assert report.mean_response_time == pytest.approx(predicted, rel=0.05)
        assert report.transfer_count > 0

    def test_zero_flow_means_no_transfers(self, asymmetric_pair):
        report = lb.simulate_static(asymmetric_pair, lb.FlowMatrix.zero(2), lb.SimConfig(total_jobs=5_000, seed=7))
        assert report.transfer_count == 0

    def test_utilization_tracks_allocation(self, asymmetric_pair):
        solution, flow = optimal_flow(asymmetric_pair)
        report = lb.simulate_static(asymmetric_pair, flow, lb.SimConfig(total_jobs=60_000, seed=8))
        for util, rate, node in zip(report.utilization, solution.allocation.rates, asymmetric_pair.nodes):
            assert util == pytest.approx(rate / node.delay.service_rate, abs=0.03)

    def test_seed_reproducibility(self, asymmetric_pair):
        _, flow = optimal_flow(asymmetric_pair)
        cfg = lb.SimConfig(total_jobs=10_000, seed=99)
        a = lb.simulate_static(asymmetric_pair, flow, cfg)
        b = lb.simulate_static(asymmetric_pair, flow, cfg)
        assert a == b
        c = lb.simulate_static(asymmetric_pair, flow, lb.SimConfig(total_jobs=10_000, seed=100))
        assert a != c

    def test_balancing_beats_none_with_paired_seed(self, asymmetric_pair):
        _, flow = optimal_flow(asymmetric_pair)
        cfg = lb.SimConfig(total_jobs=60_000, seed=11)
        balanced = lb.simulate_static(asymmetric_pair, flow, cfg)
        idle = lb.simulate_static(asymmetric_pair, lb.FlowMatrix.zero(2), cfg)
        assert balanced.mean_response_time <= idle.mean_response_time + balanced.ci_halfwidth + idle.ci_halfwidth

    def test_saturated_assignment_rejected(self):
        net = make_network([1.9, 0.1], [2.0, 4.0])
        flow = lb.FlowMatrix([[0.0, 0.0], [0.1, 0.0]])
        with pytest.raises(ValueError):
            lb.simulate_static(net, flow, lb.SimConfig(total_jobs=100, seed=1))

    def test_relay_flow_rejected(self):
        net = make_network([1.0, 0.5, 0.0], [4.0, 4.0, 4.0])
        flow = lb.FlowMatrix([[0.0, 0.3, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            lb.simulate_static(net, flow, lb.SimConfig(total_jobs=100, seed=1))

    def test_infeasible_flow_rejected(self):
        net = make_network([1.0, 0.0], [4.0, 4.0])
        with pytest.raises(ValueError):
            lb.simulate_static(net, lb.FlowMatrix([[0.0, 1.5], [0.0, 0.0]]), lb.SimConfig(total_jobs=100, seed=1))


class TestDynamic:
    def test_thresholds_from_solver_help(self, asymmetric_pair):
        solution = lb.solve(asymmetric_pair)
        cfg = lb.SimConfig(total_jobs=60_000, seed=12)
        dyn = lb.simulate_dynamic(asymmetric_pair, (solution.alpha, solution.alpha + solution.comm_price), cfg)
        idle = lb.simulate_static(asymmetric_pair, lb.FlowMatrix.zero(2), cfg)
        assert dyn.mean_response_time <= idle.mean_response_time + dyn.ci_halfwidth + idle.ci_halfwidth
        assert dyn.transfer_count > 0

    def test_unreachable_threshold_reproduces_no_balancing(self, asymmetric_pair):
        cfg = lb.SimConfig(total_jobs=20_000, seed=13)
        dyn = lb.simulate_dynamic(asymmetric_pair, (0.3, math.inf), cfg)
        idle = lb.simulate_static(asymmetric_pair, lb.FlowMatrix.zero(2), cfg)
        assert dyn == idle
        assert dyn.transfer_count == 0

    def test_symmetric_rarely_transfers(self, symmetric_pair):
        solution = lb.solve(symmetric_pair)
        cfg = lb.SimConfig(total_jobs=20_000, seed=14)
        report = lb.simulate_dynamic(symmetric_pair, (solution.alpha, solution.alpha + solution.comm_price), cfg)
        assert report.transfer_count < 0.2 * 20_000

    def test_bad_thresholds_rejected(self, symmetric_pair):
        with pytest.raises(ValueError):
            lb.simulate_dynamic(symmetric_pair, (2.0, 1.0), lb.SimConfig(total_jobs=100, seed=1))


class TestBaselines:
    def test_queue_routing_policies_run(self, asymmetric_pair):
        for policy in (lb.Policy.SQ, lb.Policy.MED):
            cfg = lb.SimConfig(total_jobs=20_000, seed=15, policy=policy)
            report = lb.simulate(asymmetric_pair, cfg)
            assert 0.0 < report.mean_response_time < 1.0
            assert report.transfer_count > 0

    def test_med_prefers_faster_node(self):
        # same queue lengths: MED should prefer the much faster second node,
        # SQ is indifferent and stays local on ties
        net = make_network([1.0, 0.0], [1.5, 30.0], lb.ConstantCommDelay(0.001))
        sq = lb.simulate(net, lb.SimConfig(total_jobs=20_000, seed=16, policy=lb.Policy.SQ))
        med = lb.simulate(net, lb.SimConfig(total_jobs=20_000, seed=16, policy=lb.Policy.MED))
        assert med.transfer_count > sq.transfer_count

    def test_dispatch_validation(self, asymmetric_pair):
        with pytest.raises(ValueError):
            lb.simulate(asymmetric_pair, lb.SimConfig(total_jobs=10, seed=1, policy=lb.Policy.STATIC_OPTIMAL))
        with pytest.raises(ValueError):
            lb.simulate(asymmetric_pair, lb.SimConfig(total_jobs=10, seed=1, policy=lb.Policy.DYNAMIC_THRESHOLD))

    def test_no_balancing_policy(self, asymmetric_pair):
        report = lb.simulate(asymmetric_pair, lb.SimConfig(total_jobs=5_000, seed=17, policy=lb.Policy.NO_BALANCING))
        assert report.transfer_count == 0


class TestConfigValidation:
    def test_bad_sim_config(self):
        with pytest.raises(ValueError):
            lb.SimConfig(total_jobs=0, seed=1)

    def test_numpy_integers_accepted(self):
        assert lb.SimConfig(total_jobs=np.int64(10), seed=np.uint32(0)).seed == 0
        with pytest.raises(ValueError):
            lb.SimConfig(total_jobs=10, seed=1, warmup_fraction=1.0)

    def test_report_equality_is_exact(self, asymmetric_pair):
        cfg = lb.SimConfig(total_jobs=2_000, seed=18, policy=lb.Policy.NO_BALANCING)
        a = lb.simulate(asymmetric_pair, cfg)
        b = lb.simulate(asymmetric_pair, cfg)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


# Exact reports of every policy on one n=5 network, recorded before the routers shared
# one score protocol.  Nodes 2 and 3 are identical idle nodes, so SQ and MED ties between
# them pin lowest-index tie-breaking; the flow and thresholds are fixed so that only the
# simulator is under test.
GOLDEN_FLOW = [[0.0, 0.0, 0.78, 0.0, 0.0], [0.0, 0.0, 0.14, 0.62, 0.0], [0.0] * 5, [0.0] * 5,
               [0.0, 0.0, 0.0, 0.3, 0.0]]
GOLDEN_THRESHOLDS = (0.7, 0.8)
GOLDEN_REPORTS = {
    (31, "static_optimal"): lb.SimReport(mean_response_time=0.63283974618048, utilization=(0.20235937733149698, 0.09504987007987706, 0.3196009637858845, 0.3153496622332772, 0.0), transfer_count=2765, ci_halfwidth=0.02382717356839842),
    (31, "no_balancing"): lb.SimReport(mean_response_time=1.3756373484246334, utilization=(0.5788971481475812, 0.5911742133943679, 0.0, 0.0, 0.2973129909331047), transfer_count=0, ci_halfwidth=0.15500459246909692),
    (31, "sq"): lb.SimReport(mean_response_time=0.6354368476673321, utilization=(1.6831453994190168e-05, 1.2827582247411915e-05, 4.6491685395176165e-06, 1.2242077800681147e-06, 5.207377871282749e-07), transfer_count=2362, ci_halfwidth=0.014732687372939037),
    (31, "med"): lb.SimReport(mean_response_time=0.5477138622122397, utilization=(3.4942487778488805e-06, 1.6547948816861642e-06, 1.3743308513724894e-05, 7.439242953050754e-06, 0.0), transfer_count=3383, ci_halfwidth=0.02457727221516579),
    (31, "dynamic_threshold"): lb.SimReport(mean_response_time=0.5690705223882656, utilization=(1.2216487865110399e-05, 1.1814858257684981e-05, 7.71744975635615e-06, 2.679326374086879e-06, 8.093691467484197e-08), transfer_count=1640, ci_halfwidth=0.01912946869285947),
    (32, "static_optimal"): lb.SimReport(mean_response_time=0.6059091834071403, utilization=(0.20586441934726293, 0.10589112546601538, 0.30487190370116524, 0.30529367844762145, 0.0), transfer_count=2742, ci_halfwidth=0.029120151456806086),
    (32, "no_balancing"): lb.SimReport(mean_response_time=1.4785014047262803, utilization=(0.6334367965881545, 0.6038138876166972, 0.0, 0.0, 0.3022408591225524), transfer_count=0, ci_halfwidth=0.16711294461254317),
    (32, "sq"): lb.SimReport(mean_response_time=0.6557388573852371, utilization=(1.6502416360189617e-05, 1.287493596616172e-05, 4.743594391747329e-06, 1.592600591033731e-06, 9.59721036316164e-07), transfer_count=2405, ci_halfwidth=0.01736436794426913),
    (32, "med"): lb.SimReport(mean_response_time=0.5434185690745718, utilization=(0.1154980892671403, 0.04380900321407182, 0.4462003990832367, 0.25221351065361264, 0.0), transfer_count=3388, ci_halfwidth=0.020118368494074806),
    (32, "dynamic_threshold"): lb.SimReport(mean_response_time=0.5684031387457414, utilization=(0.3982007586685654, 0.4011290691073839, 0.2588598258669445, 0.09236019545431803, 0.005662107197193186), transfer_count=1651, ci_halfwidth=0.0199264372868278),
}


@pytest.mark.parametrize("seed, policy", sorted(GOLDEN_REPORTS))
def test_golden_trace(seed, policy):
    net = make_network([1.2, 0.9, 0.0, 0.0, 0.3], [2.0, 1.5, 3.0, 3.0, 1.0], lb.MM1ChannelCommDelay(0.05, 4.0))
    cfg = lb.SimConfig(total_jobs=4000, seed=seed, policy=lb.Policy(policy))
    report = lb.simulate(net, cfg, flow=lb.FlowMatrix(GOLDEN_FLOW), thresholds=GOLDEN_THRESHOLDS)
    assert report == GOLDEN_REPORTS[seed, policy]
