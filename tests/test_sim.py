"""Simulator: analytic fidelity, determinism and policy behavior."""

import dataclasses
import heapq
import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import loadbal as lb
from loadbal import sim

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

    @pytest.mark.parametrize("thresholds", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_thresholds_rejected(self, symmetric_pair, thresholds):
        with pytest.raises(ValueError, match="low <= high"):
            lb.simulate_dynamic(symmetric_pair, thresholds, lb.SimConfig(total_jobs=100, seed=1))


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

    @pytest.mark.parametrize("policy", ["static_optimal", "no_balancing", "bogus", None, 1])
    def test_policy_must_be_a_member(self, policy):
        with pytest.raises(ValueError, match="no_balancing, sq, med, dynamic_threshold"):
            lb.SimConfig(total_jobs=10, seed=1, policy=policy)

    @pytest.mark.parametrize("warmup", [False, True, "0.1", None, math.nan, -0.1, 1.0])
    def test_warmup_fraction_must_be_a_number_in_range(self, warmup):
        with pytest.raises(ValueError, match="warmup_fraction"):
            lb.SimConfig(total_jobs=10, seed=1, warmup_fraction=warmup)

    def test_report_equality_is_exact(self, asymmetric_pair):
        cfg = lb.SimConfig(total_jobs=2_000, seed=18, policy=lb.Policy.NO_BALANCING)
        a = lb.simulate(asymmetric_pair, cfg)
        b = lb.simulate(asymmetric_pair, cfg)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


# Exact reports of every policy on one n=5 network, recorded when every job's draws moved
# up front (one merged arrival stream; origin, routing uniform and work per job).  Nodes 2 and 3 are identical idle nodes, so SQ and MED ties between
# them pin lowest-index tie-breaking; the flow and thresholds are fixed so that only the
# simulator is under test.
GOLDEN_FLOW = [[0.0, 0.0, 0.78, 0.0, 0.0], [0.0, 0.0, 0.14, 0.62, 0.0], [0.0] * 5, [0.0] * 5,
               [0.0, 0.0, 0.0, 0.3, 0.0]]
GOLDEN_THRESHOLDS = (0.7, 0.8)
GOLDEN_REPORTS = {
    (31, "static_optimal"): lb.SimReport(mean_response_time=0.612245091154395, utilization=(0.2039464256450335, 0.10948427453853063, 0.31096894715626905, 0.30654081020446816, 0.0), transfer_count=2763, ci_halfwidth=0.030578434113768052),
    (31, "no_balancing"): lb.SimReport(mean_response_time=1.395389829290078, utilization=(0.5999976712326247, 0.6228590566154516, 0.0, 0.0, 0.2905088216124057), transfer_count=0, ci_halfwidth=0.2014077384728079),
    (31, "sq"): lb.SimReport(mean_response_time=0.6407791827873651, utilization=(0.5480441526193325, 0.43723611358286585, 0.16057541627309677, 0.0541405183661425, 0.028613487084989245), transfer_count=2377, ci_halfwidth=0.027900014830567973),
    (31, "med"): lb.SimReport(mean_response_time=0.5518748680414023, utilization=(0.1211707598200192, 0.04762168769286299, 0.4503255962549681, 0.25314993049928336, 0.0), transfer_count=3366, ci_halfwidth=0.02367326936420015),
    (31, "dynamic_threshold"): lb.SimReport(mean_response_time=0.5665791694855002, utilization=(0.3867059770064737, 0.4014999205870597, 0.25565200944398153, 0.09278894219113665, 0.0035626961584099936), transfer_count=1595, ci_halfwidth=0.026095946772625597),
    (32, "static_optimal"): lb.SimReport(mean_response_time=0.6294293943854186, utilization=(0.2275015113572616, 0.08354051082448534, 0.3041064499481362, 0.31980655223994675, 0.0), transfer_count=2770, ci_halfwidth=0.03516674790067247),
    (32, "no_balancing"): lb.SimReport(mean_response_time=1.5088637027344576, utilization=(0.6228252793238251, 0.611469716811042, 0.0, 0.0, 0.28868835607158805), transfer_count=0, ci_halfwidth=0.1858026376920825),
    (32, "sq"): lb.SimReport(mean_response_time=0.6557669717320256, utilization=(0.565549106063645, 0.4410941108727193, 0.15950614972326022, 0.049879287231675666, 0.03055477755220908), transfer_count=2417, ci_halfwidth=0.022024860745298094),
    (32, "med"): lb.SimReport(mean_response_time=0.5582336795807366, utilization=(3.866315102332459e-06, 1.4172589404310518e-06, 1.3577379354423062e-05, 7.49269653325297e-06, 0.0), transfer_count=3383, ci_halfwidth=0.018305692803810485),
    (32, "dynamic_threshold"): lb.SimReport(mean_response_time=0.5748229730812637, utilization=(0.3870570001447812, 0.40077922903999585, 0.26493441540527624, 0.09245183063485798, 0.00399725514412027), transfer_count=1634, ci_halfwidth=0.018625058997268035),
}


@pytest.mark.parametrize("seed, policy", sorted(GOLDEN_REPORTS))
def test_golden_trace(seed, policy):
    net = make_network([1.2, 0.9, 0.0, 0.0, 0.3], [2.0, 1.5, 3.0, 3.0, 1.0], lb.MM1ChannelCommDelay(0.05, 4.0))
    cfg = lb.SimConfig(total_jobs=4000, seed=seed, policy=lb.Policy(policy))
    report = lb.simulate(net, cfg, flow=lb.FlowMatrix(GOLDEN_FLOW), thresholds=GOLDEN_THRESHOLDS)
    assert report == GOLDEN_REPORTS[seed, policy]


def golden_network():
    """The network of test_golden_trace."""
    return make_network([1.2, 0.9, 0.0, 0.0, 0.3], [2.0, 1.5, 3.0, 3.0, 1.0], lb.MM1ChannelCommDelay(0.05, 4.0))


def n20_network():
    """Ten loaded nodes each shipping 30% of their capacity to a lightly loaded partner."""
    services = [2.0 + 0.25 * i for i in range(20)]
    arrivals = [0.8 * mu for mu in services[:10]] + [0.1 * mu for mu in services[10:]]
    flow = np.zeros((20, 20))
    for i in range(10):
        flow[i, i + 10] = 0.3 * services[i]
    return make_network(arrivals, services), lb.FlowMatrix(flow)


def n40_network():
    """Four groups of ten identical nodes: loaded, lightly loaded, idle slow and idle fast.

    Ties among identical nodes are the rule here, so a queue-state pick that
    broke them differently from the lowest index would show.  Each loaded node
    ships to its idle fast partner and each lightly loaded one to its idle
    slow partner.
    """
    arrivals = [1.6] * 10 + [0.3] * 10 + [0.0] * 20
    services = [2.0] * 10 + [3.0] * 10 + [1.0] * 10 + [4.0] * 10
    flow = np.zeros((40, 40))
    for i in range(10):
        flow[i, 30 + i] = 0.6
        flow[10 + i, 20 + i] = 0.1
    return make_network(arrivals, services, lb.MM1ChannelCommDelay(0.02, 100.0)), lb.FlowMatrix(flow)


N40_THRESHOLDS = (0.5, 1.0)


def golden_path_cases():
    """Engine paths the n=5 trace misses: a window from t=0, one job, one job
    per arriving node, and larger networks.  Each case is (id, network, cfg,
    flow, thresholds); golden_sim.json holds each ``repr(SimReport)``, recorded
    when every job's draws moved up front."""
    net5, flow5 = golden_network(), lb.FlowMatrix(GOLDEN_FLOW)
    net20, flow20 = n20_network()
    net40, flow40 = n40_network()
    for policy in lb.Policy:
        yield (f"warmup0-{policy.value}", net5,
               lb.SimConfig(total_jobs=2000, seed=33, warmup_fraction=0.0, policy=policy), flow5, GOLDEN_THRESHOLDS)
        for jobs in (1, 3):
            yield f"jobs{jobs}-{policy.value}", net5, lb.SimConfig(jobs, seed=34, policy=policy), flow5, GOLDEN_THRESHOLDS
        yield f"n20-{policy.value}", net20, lb.SimConfig(3000, seed=35, policy=policy), flow20, (0.6, 0.9)
        for seed in (7, 8):
            for warmup in (0.0, 0.1):
                cfg = lb.SimConfig(3000, seed=seed, warmup_fraction=warmup, policy=policy)
                yield f"n40-seed{seed}-warmup{warmup:g}-{policy.value}", net40, cfg, flow40, N40_THRESHOLDS


GOLDEN_PATHS = {case[0]: case[1:] for case in golden_path_cases()}
GOLDEN_PATH_REPORTS = json.loads((Path(__file__).parent / "golden_sim.json").read_text())


@pytest.mark.parametrize("case", list(GOLDEN_PATHS))
def test_golden_paths(case):
    net, cfg, flow, thresholds = GOLDEN_PATHS[case]
    assert repr(lb.simulate(net, cfg, flow=flow, thresholds=thresholds)) == GOLDEN_PATH_REPORTS[case]


@pytest.mark.parametrize("seed", [31, 32])
def test_unreachable_threshold_is_no_balancing_on_golden_network(seed):
    net = golden_network()
    dyn = lb.simulate_dynamic(net, (GOLDEN_THRESHOLDS[0], math.inf), lb.SimConfig(total_jobs=4000, seed=seed))
    idle = lb.simulate(net, lb.SimConfig(total_jobs=4000, seed=seed, policy=lb.Policy.NO_BALANCING))
    assert dyn == idle


def bench_sim_network(seed, n):
    """The network of the benchmark's simulate-policies workload, from bench/instances.py."""
    spec = importlib.util.spec_from_file_location("bench_instances", Path(__file__).parents[1] / "bench" / "instances.py")
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return lb.parse_config(instances.sim_scenario(seed, n)).network


@pytest.mark.parametrize("network", ["n40", "bench-n200"])
def test_unreachable_threshold_is_no_balancing_at_scale(network):
    # the event loop against the recurrence, on the same jobs
    net = n40_network()[0] if network == "n40" else bench_sim_network(1, 200)
    low = lb.solve(net).alpha
    for seed in (1, 2, 3):
        dyn = lb.simulate_dynamic(net, (low, math.inf), lb.SimConfig(total_jobs=5000, seed=seed))
        idle = lb.simulate(net, lb.SimConfig(total_jobs=5000, seed=seed, policy=lb.Policy.NO_BALANCING))
        assert dyn == idle


@pytest.mark.parametrize("network", ["n5", "n20", "n40", "bench-n200"])
def test_recurrence_matches_event_loop(network):
    """The static recurrence against the event loop routing the same jobs to the same
    targets: bit-identical reports for the network's optimal flow, its golden flow if it
    has one, and a zero flow."""
    net, *flows = {"n5": lambda: (golden_network(), lb.FlowMatrix(GOLDEN_FLOW)), "n20": n20_network,
                   "n40": n40_network, "bench-n200": lambda: (bench_sim_network(1, 200),)}[network]()
    transfers = 0
    for flow in (optimal_flow(net)[1], *flows, lb.FlowMatrix.zero(len(net))):
        for seed in range(5):
            for jobs, warmup in ((3000, 0.1), (3000, 0.0), (1, 0.1), (3, 0.1)):
                cfg = lb.SimConfig(jobs, seed=seed, warmup_fraction=warmup)
                report = lb.simulate_static(net, flow, cfg)
                assert report == static_engine(net, flow, cfg).run(), (seed, jobs, warmup)
                transfers += report.transfer_count
    assert transfers > 0


def static_engine(net, flow, cfg):
    """The event loop routing a static flow's jobs to their precomputed targets.

    The route reads each arrival's target in turn and every node scores 0.0.
    On a constant interconnect of G(flow total), the engine's running-rate
    delay prices every transfer at exactly the recurrence's constant.  The
    engine draws the jobs again from the seed: the same jobs.
    """
    target, comm = sim._static_routes(net, flow, sim._draw_jobs(net, cfg))
    targets = iter(target.tolist())
    router = (lambda engine, i: next(targets)), (lambda engine, j: 0.0)
    return sim._Engine(net.with_comm(lb.ConstantCommDelay(comm)), cfg, router)


def test_exact_departure_tie_goes_in_arrival_order():
    """Jobs 1 and 2 leave nodes 0 and 1 at the same float time, 1.0 + 0.3 == 0.5 + 0.8.
    The event loop queued job 2's departure first, at its arrival; both engines hand their
    times to one summary, which takes the tie in arrival order, and the order shows in the
    last bits of the mean."""
    net = make_network([0.5, 0.5], [1.0, 1.0])
    cfg = lb.SimConfig(total_jobs=3, seed=0, warmup_fraction=0.0)
    jobs = sim._Jobs(np.array([0.0, 0.25, 0.5]), np.array([0, 0, 1]), np.zeros(3), np.array([1.0, 0.3, 0.8]))
    engine = sim._Engine(net, cfg, ((lambda engine, i: i), (lambda engine, j: 0.0)))
    engine.jobs = jobs
    report = engine.run()
    assert report == sim._recurrence(net, cfg, jobs, jobs.origin, 0.0)
    tie = 1.0 + 0.3
    assert tie == 0.5 + 0.8
    arrival_order, loop_order = [1.0, tie - 0.25, tie - 0.5], [1.0, tie - 0.5, tie - 0.25]
    assert report.mean_response_time == np.mean(arrival_order) != np.mean(loop_order)


def test_jobs_are_drawn_up_front():
    # one generator, four arrays in a fixed order: the merged stream's gaps at rate Phi,
    # origins with weights phi_i / Phi, routing uniforms and service requirements
    net = golden_network()
    jobs = sim._draw_jobs(net, lb.SimConfig(total_jobs=500, seed=3))
    rng = np.random.default_rng(3)
    phi = net.arrival_rates
    np.testing.assert_array_equal(jobs.arrival, np.cumsum(rng.standard_exponential(500) / phi.sum()))
    np.testing.assert_array_equal(jobs.origin, np.searchsorted(np.cumsum(phi) / phi.sum(), rng.random(500), side="right"))
    np.testing.assert_array_equal(jobs.uniform, rng.random(500))
    np.testing.assert_array_equal(jobs.work, rng.standard_exponential(500))
    assert set(jobs.origin.tolist()) == {0, 1, 4}  # nodes without arrivals are never an origin


def test_report_statistics_match_the_plain_sums():
    # numpy sums pairwise: within a few ulps of one sum per batch in departure order.  One
    # node serves every job on arrival, two time units apart, for less than two units
    rng = np.random.default_rng(4)
    join = np.arange(2017) * 2.0
    depart = join + rng.uniform(0.5, 1.5, 2017)
    comm = np.where(rng.random(2017) < 0.3, 0.05, 0.0)
    jobs = sim._Jobs(join, np.zeros(2017, dtype=np.intp), np.zeros(2017), np.zeros(2017))
    report = sim._summary(1, lb.SimConfig(2017, seed=0, warmup_fraction=0.0), jobs, jobs.origin, join, join,
                          depart, comm)
    sojourns, comm = (depart - join).tolist(), comm.tolist()

    def composite(s, c):
        shipped = [x for x in c if x > 0]
        return sum(s) / len(s) + (sum(shipped) / len(shipped) if shipped else 0.0)
    per = len(sojourns) // 20
    means = [composite(sojourns[b * per:(b + 1) * per], comm[b * per:(b + 1) * per]) for b in range(20)]
    assert report.mean_response_time == pytest.approx(composite(sojourns, comm), rel=1e-13)
    assert report.ci_halfwidth == pytest.approx(sim._T_CRIT_19 * float(np.std(means, ddof=1)) / math.sqrt(20), rel=1e-9)
    assert report.utilization == (pytest.approx(sum(sojourns) / depart[-1], rel=1e-13),)


@pytest.mark.parametrize("policy", list(lb.Policy))
def test_network_without_arrivals_has_no_jobs(policy):
    net = make_network([0.0, 0.0], [1.0, 2.0])
    cfg = lb.SimConfig(total_jobs=10, seed=1, policy=policy)
    report = lb.simulate(net, cfg, flow=lb.FlowMatrix.zero(2), thresholds=(0.5, 1.0))
    assert report == lb.SimReport(mean_response_time=0.0, utilization=(0.0, 0.0), transfer_count=0,
                                  ci_halfwidth=math.inf)


def old_threshold_pick(scores, i, low, high):
    """The threshold policy's pick before the score heap: mask the origin with inf and scan."""
    if not scores[i] > high:
        return i
    masked = scores[:i] + [math.inf] + scores[i + 1:]
    best = min(masked)
    return masked.index(best) if best < low else i


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_ranked_pick_matches_scan(n):
    """Random score writes in the engine's protocol: every write pushes its entry, and
    the heap is rebuilt from the scores now and then.  Small ints make ties common."""
    rng = np.random.default_rng(n)
    scores = [0.0] * n
    engine = SimpleNamespace(scores=scores, ranked=[])
    sim._Engine._rerank(engine)
    route = sim._threshold_router(make_network([0.0] * n, [1.0] * n), 2.0, 3.0)[0]
    for _ in range(3000):
        j = int(rng.integers(n))
        kind = rng.random()
        s = float(rng.integers(6)) if kind < 0.6 else math.inf if kind < 0.7 else float(rng.uniform(0.0, 6.0))
        scores[j] = s
        heapq.heappush(engine.ranked, (s, j))
        if rng.random() < 0.01:
            sim._Engine._rerank(engine)
        i = int(rng.integers(n))
        assert sim._route_to_min(engine, i) == scores.index(min(scores))
        assert route(engine, i) == old_threshold_pick(scores, i, 2.0, 3.0)
        others = scores[:i] + [math.inf] + scores[i + 1:]
        if min(others) < math.inf:
            assert sim._best_other(engine, i) == others.index(min(others))
        elif n == 1:
            assert sim._best_other(engine, i) == i
        assert all((s, j) in engine.ranked for j, s in enumerate(scores))  # every node keeps a current entry


def test_single_node_threshold_pick_keeps_the_job():
    # the origin is the only node, so every pick sets it aside and finds the heap empty
    net = make_network([1.0], [2.0])
    cfg = lb.SimConfig(total_jobs=2000, seed=9)
    report = lb.simulate_dynamic(net, (0.0, 0.0), cfg)
    assert report == lb.simulate(net, dataclasses.replace(cfg, policy=lb.Policy.NO_BALANCING))


def test_score_heap_stays_bounded():
    net = n40_network()[0]
    cfg = lb.SimConfig(total_jobs=20_000, seed=10, policy=lb.Policy.SQ)
    engine = sim._Engine(net, cfg, sim._queue_state_router(net, expected_delay=False))
    assert engine.run() == lb.simulate(net, cfg)
    assert len(engine.ranked) <= sim._RERANK_PER_NODE * len(net)
