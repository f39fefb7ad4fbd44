"""Price-based solver: partitioning, residual, solve, verification."""

import dataclasses

import numpy as np
import pytest

import loadbal as lb

from conftest import make_network, random_network

ALPHA_ASYM = 4.0 / 3.25**2  # common sink price of the two-equal-server instance


class TestPartitionForPrices:
    def test_asymmetric_at_optimum(self, asymmetric_pair):
        partition, beta = lb.partition_for_prices(asymmetric_pair, ALPHA_ASYM, 0.0)
        assert partition.roles == (lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK)
        assert beta == pytest.approx([0.75, 0.75], abs=1e-12)

    def test_wide_band_all_neutral(self, symmetric_pair):
        f_at_phi = symmetric_pair.nodes[0].delay.marginal_delay(0.5)
        partition, beta = lb.partition_for_prices(symmetric_pair, f_at_phi * 0.999, 10.0)
        assert set(partition.roles) == {lb.NodeRole.NEUTRAL}
        assert beta == pytest.approx([0.5, 0.5])

    def test_idle_source(self):
        # marginal delay at zero load is 10, far above the price band
        net = make_network([0.05, 1.0], [0.1, 4.0])
        partition, beta = lb.partition_for_prices(net, 0.4, 0.1)
        assert partition.roles[0] is lb.NodeRole.IDLE_SOURCE
        assert beta[0] == 0.0

    def test_tie_goes_neutral(self, symmetric_pair):
        f_at_phi = symmetric_pair.nodes[0].delay.marginal_delay(0.5)
        partition, _ = lb.partition_for_prices(symmetric_pair, f_at_phi, 0.0)
        assert set(partition.roles) == {lb.NodeRole.NEUTRAL}

    def test_unloaded_node_never_source(self):
        # the second node has nothing to ship, so a high zero-load marginal
        # delay parks it at neutral rather than idle source
        net = make_network([1.0, 0.0], [4.0, 0.2])
        partition, beta = lb.partition_for_prices(net, 0.3, 0.5)
        assert partition.roles[1] is lb.NodeRole.NEUTRAL
        assert beta[1] == 0.0


class TestFlowResidual:
    def test_root_at_known_alpha(self, asymmetric_pair):
        assert abs(lb.flow_residual(asymmetric_pair, ALPHA_ASYM, 0.0)) < 1e-9

    def test_bracket_ends(self, asymmetric_pair):
        f0 = min(n.delay.min_marginal_delay for n in asymmetric_pair.nodes)
        assert lb.flow_residual(asymmetric_pair, f0 * 1.0001, 0.0) <= 0.0
        assert lb.flow_residual(asymmetric_pair, 1e6, 0.0) > 0.0

    def test_strictly_increasing_above_min_marginal(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 5)))
            comm_price = float(rng.uniform(0.0, 0.5))
            floor = min(
                n.delay.marginal_delay(n.arrival_rate)
                for n in net.nodes
                if n.arrival_rate < n.delay.service_rate
            )
            pairs = np.sort(rng.uniform(floor * 1.0001, floor * 4 + 1.0, (100, 2)), axis=1)
            for a1, a2 in pairs:
                if a1 == a2:
                    continue
                r1 = lb.flow_residual(net, float(a1), comm_price)
                r2 = lb.flow_residual(net, float(a2), comm_price)
                assert r1 < r2

    def test_nondecreasing_globally(self):
        rng = np.random.default_rng(22)
        net = random_network(rng, 4)
        comm_price = 0.2
        alphas = np.sort(rng.uniform(0.0, 3.0, 200))
        values = [lb.flow_residual(net, float(a), comm_price) for a in alphas]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


class TestSolve:
    def test_symmetric_stays_local(self, symmetric_pair):
        solution = lb.solve(symmetric_pair)
        assert solution.allocation.transfer_rate == 0.0
        assert solution.allocation.rates == (0.5, 0.5)
        assert set(solution.partition.roles) == {lb.NodeRole.NEUTRAL}
        assert not solution.no_transfer_override

    def test_asymmetric_balances(self, asymmetric_pair):
        solution = lb.solve(asymmetric_pair)
        assert solution.allocation.rates == pytest.approx([0.75, 0.75], abs=1e-8)
        assert solution.allocation.transfer_rate == pytest.approx(0.75, abs=1e-8)
        assert solution.alpha == pytest.approx(0.37870, abs=1e-5)
        assert solution.partition.roles == (lb.NodeRole.ACTIVE_SOURCE, lb.NodeRole.SINK)
        assert solution.objective / 1.5 == pytest.approx(0.35769, abs=1e-5)
        assert solution.objective / 1.5 < 0.4  # beats keeping everything local

    def test_expensive_transfer_stays_local(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(0.2))
        solution = lb.solve(net)
        assert solution.allocation.rates == (1.5, 0.0)
        assert solution.allocation.transfer_rate == 0.0
        assert solution.no_transfer_override
        assert solution.interior_objective is not None
        assert solution.objective <= solution.interior_objective
        assert solution.objective == pytest.approx(0.6)  # 0.4 mean * 1.5 jobs/s

    def test_crossover_location(self):
        # no-transfer wins exactly when the flat transfer cost exceeds
        # 0.4 - 1/3.25; check both sides of the boundary
        t_star = 0.4 - 1 / 3.25
        below = lb.solve(make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(t_star - 0.005)))
        above = lb.solve(make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(t_star + 0.005)))
        assert below.allocation.transfer_rate > 0
        assert above.allocation.transfer_rate == 0.0

    def test_zero_comm_cost(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(0.0))
        solution = lb.solve(net)
        assert solution.allocation.rates == pytest.approx([0.75, 0.75], abs=1e-8)

    def test_load_dependent_channel(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.MM1ChannelCommDelay(0.02, 2.0))
        solution = lb.solve(net)
        report = lb.verify_optimality(net, solution)
        assert report.worst() < 1e-8
        assert 0.0 < solution.allocation.transfer_rate < 0.75
        assert solution.comm_price > 0.0

    def test_unloaded_slow_node_stays_idle(self):
        net = make_network([1.0, 0.0], [4.0, 0.05], lb.ConstantCommDelay(0.01))
        solution = lb.solve(net)
        assert solution.allocation.rates[1] == 0.0
        assert solution.partition.roles[1] is lb.NodeRole.NEUTRAL
        assert lb.verify_optimality(net, solution).worst() < 1e-8

    def test_overloaded_node_must_shed(self):
        net = make_network([3.0, 0.0], [2.0, 4.0], lb.ConstantCommDelay(0.05))
        solution = lb.solve(net)
        assert solution.allocation.transfer_rate > 1.0
        assert solution.allocation.rates[0] < 2.0  # below its own capacity now
        assert solution.allocation.rates[1] < 4.0
        assert lb.verify_optimality(net, solution).worst() < 1e-8

    def test_non_convergence_carries_best(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.MM1ChannelCommDelay(0.02, 2.0))
        with pytest.raises(lb.ConvergenceError) as info:
            lb.solve(net, lb.SolverConfig(max_outer=2))
        assert info.value.best is not None
        assert info.value.best.allocation.transfer_rate >= 0.0

    def test_near_tie_raises_convergence_error(self):
        # the sink priced just below its tie rounds its rate below its arrivals, so the
        # implied traffic is negative: a typed error, not a ValueError from the objective
        net = make_network([0.2738928865148232, 0.27389288651482346], [2.090942092002429] * 2,
                           lb.ConstantCommDelay(0.05))
        for network in (net, net, net.with_comm(lb.ConstantCommDelay(0.5))):
            with pytest.raises(lb.ConvergenceError, match="rounded below its arrivals") as info:
                lb.solve(network)
            assert "-5.551115123125783e-17" in str(info.value)

    def test_determinism(self, asymmetric_pair):
        a = lb.solve(asymmetric_pair)
        b = lb.solve(asymmetric_pair)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_comm_cost_monotonicity(self):
        transfers = []
        for t in np.linspace(0.0, 0.18, 10):
            net = make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(float(t)))
            transfers.append(lb.solve(net).allocation.transfer_rate)
        assert all(b <= a + 1e-12 for a, b in zip(transfers, transfers[1:]))

    def test_conservation_and_price_ordering(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            net = random_network(rng, int(rng.integers(2, 6)))
            solution = lb.solve(net)
            beta = np.asarray(solution.allocation.rates)
            phi = net.arrival_rates
            phi_total = net.total_arrival_rate
            lam = solution.allocation.transfer_rate
            sinks = solution.partition.sinks
            sources = solution.partition.sources
            assert abs(beta.sum() - phi_total) <= 1e-8 * max(phi_total, 1.0)
            assert abs(lam - sum(beta[i] - phi[i] for i in sinks)) <= 1e-8 * max(phi_total, 1.0)
            assert abs(lam - sum(phi[i] - beta[i] for i in sources)) <= 1e-8 * max(phi_total, 1.0)
            if lam > 0 and sinks:
                sink_top = max(net.nodes[i].delay.marginal_delay(beta[i]) for i in sinks)
                rest = [
                    net.nodes[i].delay.marginal_delay(min(beta[i], net.nodes[i].delay.service_rate * (1 - 1e-12)))
                    for i in range(len(net)) if i not in sinks
                ]
                if rest:
                    assert sink_top <= min(rest) * (1 + 1e-8) + 1e-12


class TestVerifyOptimality:
    def test_solution_passes(self, asymmetric_pair):
        solution = lb.solve(asymmetric_pair)
        report = lb.verify_optimality(asymmetric_pair, solution)
        assert report.worst() < 1e-8
        assert report.passed()

    def test_perturbed_sink_fails(self, asymmetric_pair):
        solution = lb.solve(asymmetric_pair)
        sink_rate = solution.allocation.rates[1] * 1.01
        perturbed = dataclasses.replace(
            solution,
            allocation=lb.Allocation(rates=(1.5 - sink_rate, sink_rate), transfer_rate=sink_rate),
        )
        report = lb.verify_optimality(asymmetric_pair, perturbed)
        assert report.sink_price > 1e-4
        assert not report.passed()

    def test_all_neutral_band(self, symmetric_pair):
        solution = lb.solve(symmetric_pair)
        f_at_phi = symmetric_pair.nodes[0].delay.marginal_delay(0.5)
        assert solution.alpha == pytest.approx(f_at_phi)
        assert lb.verify_optimality(symmetric_pair, solution).worst() < 1e-8

    def test_override_certificate(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(0.2))
        solution = lb.solve(net)
        report = lb.verify_optimality(net, solution)
        assert solution.no_transfer_override
        assert report.override_margin is not None
        assert report.override_margin >= 0.0
        assert report.worst() < 1e-8

    def test_inf_objective_override_fails(self):
        # arrivals within rounding of capacity: node 1 is overloaded, so keeping load local is inf
        net = make_network([0.10292525252525252, 0.9810747474747474], [0.255, 0.829], lb.ConstantCommDelay(0.0))
        solution = lb.solver._no_transfer_solution(net, iterations=0, interior_objective=None)
        assert solution.no_transfer_override
        assert solution.objective == np.inf
        report = lb.verify_optimality(net, solution)
        assert report.override_margin == -np.inf
        assert not report.passed()


def bisect_alpha(net, comm_price, steps=200):
    """Reference for the price search: bisection on the residual's sign, to the last float."""
    lo = float(np.min(1.0 / net.service_rates)) - comm_price  # every node priced out
    hi = lo + 1.0
    while lb.flow_residual(net, hi, comm_price) <= 0:
        hi = lo + 2.0 * (hi - lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if lb.flow_residual(net, mid, comm_price) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def loaddep_network(rng, n, model):
    """Heterogeneous instance with load-dependent comm: services 10^-1.5..10^2,
    10% of nodes without arrivals, 6% nearly saturated, a channel scaled to the load."""
    mu = 10.0 ** rng.uniform(-1.5, 2.0, n)
    rho = rng.uniform(0.05, 0.9, n)
    order = rng.permutation(n)
    n_zero, n_sat = max(1, n // 10), max(1, (6 * n) // 100)
    rho[order[:n_zero]] = 0.0
    rho[order[n_zero:n_zero + n_sat]] = rng.uniform(0.95, 0.995, n_sat)
    phi = rho * mu
    total = float(phi.sum())
    t = float(np.median(1.0 / mu)) * float(rng.uniform(0.1, 1.0))
    if model == "mm1_channel":
        comm = lb.MM1ChannelCommDelay(t, total * float(rng.uniform(0.5, 3.0)))
    else:
        comm = lb.PolynomialCommDelay((0.0, t * float(rng.uniform(0.0, 1.0)) / total,
                                       t * float(rng.uniform(0.5, 2.0)) / total ** 2))
    return make_network(phi, mu, comm)


def wide_network(rng):
    """Instance far outside the acceptance range: services log-uniform on 1e-4..1e4,
    n <= 30, nodes loaded up to 1.2x their own capacity or without arrivals, any comm model."""
    n = int(rng.integers(1, 31))
    mu = 10.0 ** rng.uniform(-4.0, 4.0, n)
    rho = rng.uniform(0.0, 1.2, n)
    rho[rng.random(n) < 0.2] = 0.0
    phi = rho * mu
    if phi.sum() >= 0.95 * mu.sum():
        phi *= rng.uniform(0.3, 0.95) * mu.sum() / phi.sum()
    total = max(float(phi.sum()), 1e-12)
    t = float(np.median(1.0 / mu)) * 10.0 ** rng.uniform(-2.0, 1.0)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        comm = lb.ConstantCommDelay(t)
    elif kind == 1:
        comm = lb.MM1ChannelCommDelay(t, total * float(rng.uniform(0.2, 3.0)))
    else:
        head = t if rng.random() < 0.3 else 0.0
        comm = lb.PolynomialCommDelay((head, t * float(rng.uniform(0.0, 1.0)) / total,
                                       t * float(rng.uniform(0.0, 2.0)) / total ** 2))
    return make_network(phi, mu, comm)


class TestFindAlpha:
    def test_band_predicate_is_exact(self):
        # the search's all-neutral exit and the no-transfer band test are one predicate on the
        # same floats: every loaded f(phi) <= min f(phi) + c, checked here with numpy on draws
        # with unloaded, overloaded (f = inf) and tied nodes, and with one loaded node
        rng = np.random.default_rng(53)
        held = overrides = 0
        for k in range(400):
            n = int(rng.integers(2, 7))
            mu = 10.0 ** rng.uniform(-1.0, 1.0, n)
            phi = rng.uniform(0.0, 0.95, n) * mu
            phi[rng.random(n) < 0.3] = 0.0
            if k % 4 == 1:
                phi[1:] = 0.0
            elif k % 4 == 2:
                phi[:], mu[:] = phi[0], mu[0]
            elif k % 4 == 3:
                phi[0] = mu[0] * float(rng.uniform(1.0, 1.5))
                mu[-1], phi[-1] = 100.0, 0.0  # capacity left to keep the network stable
            total = float(phi.sum())
            comms = (lb.ConstantCommDelay(0.05), lb.MM1ChannelCommDelay(0.05, 2.0 * total + 1.0),
                     lb.PolynomialCommDelay((0.0, float(rng.uniform(0.0, 0.2)), 0.01)))
            base = make_network(phi, mu, comms[k % 3])
            f_phi = base.marginal_at_arrivals
            first_sink = f_phi.min()
            gap = float(f_phi[phi > 0].max(initial=-np.inf) - first_sink)
            for net in (base, base.with_comm(comms[(k + 1) % 3])):
                c0 = net.total_arrival_rate * net.comm.delay_derivative(0.0)
                for c in (c0, 0.0, gap, float(np.nextafter(gap, -np.inf)), float(rng.uniform(0.0, 0.5))):
                    if c >= 0.0 and np.all(f_phi[phi > 0] <= first_sink + c):
                        held += 1
                        assert lb.solver._find_alpha(net, c) == first_sink
                band = np.all(f_phi[phi > 0] <= first_sink + c0)
                override = lb.solver._no_transfer_solution(net, 1, None).no_transfer_override
                assert override == np.logical_not(band)
                overrides += override
        assert held > 500 and 0 < overrides < 800

    def test_residual_at_rounding_level_with_large_sinks(self):
        # idle nodes with mu up to 1e4 become sinks; a heavily loaded fast node
        # keeps the sum's own rounding step (about 2e-16 * mu) below the bound
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            mu = 10.0 ** rng.uniform(-1.0, 4.0, n)
            phi = rng.uniform(0.05, 0.9, n) * mu
            phi[rng.permutation(n)[: n // 3 + 1]] = 0.0
            phi[int(np.argmax(mu))] = 0.9 * mu.max()
            net = make_network(phi, mu)
            scale = max(net.total_arrival_rate, 1.0)
            for comm_price in (0.0, float(rng.uniform(0.0, 2.0)) / np.median(mu)):
                alpha = lb.solver._find_alpha(net, comm_price)
                assert abs(lb.flow_residual(net, alpha, comm_price)) <= 1e-12 * scale

    def test_all_neutral_returns_right_edge_of_zero_set(self):
        net = make_network([0.5, 1.0, 2.0], [2.0, 3.0, 5.0])
        f_phi = net.marginal_at_arrivals
        comm_price = float(f_phi.max() - f_phi.min()) + 0.1  # the band holds every node
        alpha = lb.solver._find_alpha(net, comm_price)
        assert alpha == f_phi.min()
        assert lb.flow_residual(net, alpha, comm_price) == 0.0
        assert lb.flow_residual(net, alpha * (1 - 1e-9), comm_price) == 0.0
        assert lb.flow_residual(net, alpha * (1 + 1e-9), comm_price) > 0.0
        partition, _ = lb.partition_for_prices(net, alpha, comm_price)
        assert set(partition.roles) == {lb.NodeRole.NEUTRAL}

    @pytest.mark.parametrize("comm_price", [0.0, 0.05, 0.3])
    def test_tied_breakpoints_match_bisection(self, comm_price):
        # equal nodes tie on all three breakpoints, zero-arrival nodes tie
        # f(phi) with f(0), and a zero surcharge ties f(phi) - c with f(phi)
        nets = [
            make_network([1.5, 1.5, 0.0, 0.0], [4.0, 4.0, 4.0, 4.0]),
            make_network([3.0, 3.0, 0.2, 0.0], [3.5, 3.5, 1.0, 1.0]),
            make_network([0.9, 0.9, 0.9], [1.0, 1.0, 1.0]),
            make_network([2.5, 0.0, 0.0], [2.0, 4.0, 4.0]),  # overloaded: one breakpoint only
        ]
        for net in nets:
            alpha = lb.solver._find_alpha(net, comm_price)
            assert alpha == pytest.approx(bisect_alpha(net, comm_price), rel=1e-12)
            assert lb.flow_residual(net, alpha, comm_price) == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("phi, mu, t", [
        ([0.10292525252525252, 0.9810747474747474], [0.255, 0.829], 0.0),
        ([1.0, 1.0 - 1e-15], [1.0, 1.0], 0.01),
    ], ids=["no-headroom", "headroom-below-resolution"])
    def test_capacity_within_rounding_raises(self, phi, mu, t):
        # arrivals fall 2e-16 short of capacity, where no finite price absorbs them,
        # or 9e-16 short, where no float rate certifies the balancing price (~4e30):
        # the solver refuses both instead of returning an answer that fails verification
        net = make_network(phi, mu, lb.ConstantCommDelay(t))
        with pytest.raises(lb.ConvergenceError, match="no finite alpha"):
            lb.solve(net)

    def test_near_capacity_raises_or_verifies(self):
        # total arrivals 1e-16..1e-4 short of capacity, nodes loaded up to 1.3x:
        # each answer verifies at 1e-8, or the solver says the headroom is below
        # float resolution
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            mu = 10.0 ** rng.uniform(-3.0, 3.0, n)
            phi = rng.uniform(0.0, 1.3, n) * mu
            phi *= (1.0 - 10.0 ** rng.uniform(-16.0, -4.0)) * mu.sum() / phi.sum()
            t = float(np.median(1.0 / mu)) * 10.0 ** rng.uniform(-2.0, 1.0)
            total = float(phi.sum())
            comm = (lb.ConstantCommDelay(t), lb.MM1ChannelCommDelay(t, total * float(rng.uniform(0.5, 3.0))),
                    lb.PolynomialCommDelay((0.0, t / total, t / total ** 2)))[int(rng.integers(0, 3))]
            try:
                net = make_network(phi, mu, comm)
            except lb.UnstableNetworkError:
                continue  # the sum rounded past capacity
            try:
                solution = lb.solve(net)
            except lb.ConvergenceError as exc:
                assert "within rounding of the capacity" in str(exc)
                continue
            assert lb.verify_optimality(net, solution).passed(), (mu, phi, comm)

    def test_with_comm_solves_like_a_fresh_network(self):
        # a copy sharing node state (and its last price search) answers bit for bit as a fresh build,
        # whichever network and comm model searched before it
        rng = np.random.default_rng(43)

        def outcome(net):
            try:
                solution = lb.solve(net)
            except lb.ConvergenceError as exc:
                return f"ConvergenceError({exc}, {exc.best!r})"
            return repr(solution) + repr(lb.verify_optimality(net, solution))

        raised = 0
        for _ in range(60):
            base = wide_network(rng)
            comms = [wide_network(rng).comm, base.comm, lb.ConstantCommDelay(0.0), base.comm]
            for comm in comms:
                expected = outcome(lb.Network(base.nodes, comm))
                assert outcome(base.with_comm(comm)) == expected
                raised += expected.startswith("ConvergenceError")
        assert raised > 0

    def test_with_comm_reuses_the_last_search(self, monkeypatch):
        prices = []
        search = lb.solver._search_alpha

        def counted(net, comm_price):
            prices.append(comm_price)
            return search(net, comm_price)

        monkeypatch.setattr(lb.solver, "_search_alpha", counted)
        net = make_network([1.5, 0.2, 0.0], [4.0, 2.0, 3.0], lb.ConstantCommDelay(0.05))
        first = lb.solve(net)
        second = lb.solve(net.with_comm(lb.ConstantCommDelay(0.5)))
        assert prices == [0.0]  # constant comm prices every probe at 0
        assert second.alpha == first.alpha or second.no_transfer_override
        lb.solve(net.with_comm(lb.MM1ChannelCommDelay(0.05, 4.0)))
        assert len(prices) > 1 and 0.0 not in prices[1:]  # new prices, new searches
        lb.solve(net)
        assert prices[-1] == 0.0  # only the last search is kept

    def test_raising_search_raises_again(self):
        # nothing is kept from a search that raised, so asking that price again searches again
        net = make_network([0.10292525252525252, 0.9810747474747474], [0.255, 0.829], lb.ConstantCommDelay(0.0))
        for network in (net, net, net.with_comm(lb.ConstantCommDelay(0.1))):
            with pytest.raises(lb.ConvergenceError, match="no finite alpha balances the load"):
                lb.solver._find_alpha(network, 0.0)


def fresh_outcome(net):
    """``repr`` of the solution and its KKT report, or of the ConvergenceError and its best iterate."""
    try:
        solution = lb.solve(net)
    except lb.ConvergenceError as exc:
        return f"ConvergenceError({exc}, {exc.best!r})"
    return repr(solution) + repr(lb.verify_optimality(net, solution))


def fresh(net):
    """The same nodes and comm model on a node state of its own, with nothing kept."""
    return lb.Network(net.nodes, net.comm)


class TestSolveCaches:
    """What the node state keeps (price search, priced probe, no-transfer part) never changes an answer."""

    @staticmethod
    def count_passes(monkeypatch):
        passes = []
        price_pass = lb.solver._price_pass

        def counted(*args):
            passes.append(args[1:])
            return price_pass(*args)

        monkeypatch.setattr(lb.solver, "_price_pass", counted)
        return passes

    def test_interleaved_prices(self, monkeypatch):
        # A and B price differently on the same nodes: A misses, B misses and takes the slot,
        # A misses again, and A once more is read from what the node state kept
        net = make_network([1.5, 0.2, 0.0, 0.9], [4.0, 2.0, 3.0, 1.5], lb.ConstantCommDelay(0.05))
        a, b = net, net.with_comm(lb.MM1ChannelCommDelay(0.05, 4.0))
        expected = {id(a): fresh_outcome(fresh(a)), id(b): fresh_outcome(fresh(b))}
        passes = self.count_passes(monkeypatch)
        counts = []
        for network in (a, b, a, a):
            before = len(passes)
            assert fresh_outcome(network) == expected[id(network)]
            counts.append(len(passes) - before)
        assert counts[0] == 1 and counts[1] > 1 and counts[2] == 1 and counts[3] == 0

    def test_with_comm_across_models(self):
        rng = np.random.default_rng(47)
        raised = 0
        for k in range(40):
            base = wide_network(rng) if k % 2 else loaddep_network(rng, 60, ("mm1_channel", "polynomial")[k % 4 // 2])
            total = max(base.total_arrival_rate, 1e-9)
            t = float(np.median(1.0 / base.service_rates))
            comms = [lb.ConstantCommDelay(t), lb.ConstantCommDelay(0.1 * t), lb.MM1ChannelCommDelay(t, 2.0 * total),
                     lb.PolynomialCommDelay((0.0, t / total, t / total ** 2)), lb.ConstantCommDelay(t),
                     lb.MM1ChannelCommDelay(t, 2.0 * total)]
            for comm in comms:
                network = base.with_comm(comm)
                expected = fresh_outcome(fresh(network))
                assert fresh_outcome(network) == expected
                assert fresh_outcome(network) == expected  # again, from what was kept
                raised += expected.startswith("ConvergenceError")
        assert raised < 40 * len(comms)  # most answers are solutions, not errors

    def test_override_answers(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.ConstantCommDelay(0.2))
        for network in (net, net, net.with_comm(lb.ConstantCommDelay(0.01)), net.with_comm(lb.ConstantCommDelay(0.3))):
            solution = lb.solve(network)
            assert fresh_outcome(network) == fresh_outcome(fresh(network))
        assert solution.no_transfer_override and solution.interior_objective is not None

    def test_interior_settles_on_no_transfer(self):
        # two nodes one rounding step apart: keeping everything local fails the band test,
        # but the interior rounds its sink's surplus to exactly 0, so the answer is the
        # no-transfer assignment without the override flag
        net = make_network([2.16782794575007, 2.1678279457500707], [2.6253515153750517] * 2,
                           lb.ConstantCommDelay(0.05))
        assert lb.solver._no_transfer_solution(net, 1, None).no_transfer_override
        for network in (net, net, net.with_comm(lb.ConstantCommDelay(0.5))):
            solution = lb.solve(network)
            assert solution.allocation.transfer_rate == 0.0 and not solution.no_transfer_override
            assert solution.interior_objective is None
            assert fresh_outcome(network) == fresh_outcome(fresh(network))

    def test_zero_total_arrivals(self):
        net = make_network([0.0, 0.0, 0.0], [1.0, 2.0, 0.5], lb.MM1ChannelCommDelay(0.1, 1.0))
        for network in (net, net, net.with_comm(lb.ConstantCommDelay(0.0))):
            solution = lb.solve(network)
            assert solution.allocation.rates == (0.0, 0.0, 0.0) and solution.objective == 0.0
            assert fresh_outcome(network) == fresh_outcome(fresh(network))

    def test_convergence_errors_repeat(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.MM1ChannelCommDelay(0.02, 2.0))
        capped = lb.SolverConfig(max_outer=3)

        def outcome(network):
            with pytest.raises(lb.ConvergenceError) as info:
                lb.solve(network, capped)
            return f"{info.value} {info.value.best!r}"

        expected = outcome(fresh(net))
        assert outcome(net) == expected
        assert outcome(net) == expected
        assert outcome(net.with_comm(net.comm)) == expected

    def test_kept_values_are_immutable(self):
        net = make_network([1.5, 0.2, 0.0, 0.9], [4.0, 2.0, 3.0, 1.5], lb.ConstantCommDelay(0.05))
        solution = lb.solve(net)
        memo = net._node_state.solver_memo
        assert isinstance(memo, lb.solver._Memo) and memo.comm_price == solution.comm_price
        assert solution.allocation.rates is memo.priced.rates and type(memo.priced.rates) is tuple
        assert solution.partition is memo.priced.partition
        assert type(memo.allocation.rates) is tuple
        for array in (memo.priced.partition.codes, memo.partition.codes):
            assert not array.flags.writeable


class TestTrafficSearch:
    def test_few_probes_at_n200(self):
        rng = np.random.default_rng(41)
        for k in range(8):
            net = loaddep_network(rng, 200, ("mm1_channel", "polynomial")[k % 2])
            solution = lb.solve(net)
            assert solution.iterations <= 12
            assert lb.verify_optimality(net, solution).passed()

    def test_fixed_point_at_traffic_cap(self):
        # the fast node takes everything: the traffic ceiling Phi is the fixed point
        net = make_network([1.0, 0.0], [1.05, 100.0], lb.PolynomialCommDelay((0.0, 0.0, 1e-6)))
        solution = lb.solve(net)
        assert solution.allocation.transfer_rate == net.total_arrival_rate
        assert solution.iterations == 2
        assert solution.partition.roles == (lb.NodeRole.IDLE_SOURCE, lb.NodeRole.SINK)
        assert lb.verify_optimality(net, solution).passed()

    def test_convergence_error_reports_probes_run(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.MM1ChannelCommDelay(0.02, 2.0))
        with pytest.raises(lb.ConvergenceError) as info:
            lb.solve(net, lb.SolverConfig(max_outer=3))
        message = str(info.value)
        assert f"after {info.value.best.iterations} probes" in message
        assert info.value.best.iterations == 3
        assert "probe cap max_outer=3" in message
        assert "last gap" in message

    def test_stops_at_the_gaps_rounding_noise(self):
        # the 285th wide draw of seed 2 reaches the rounding noise of its implied-traffic
        # sum after 10 probes; a stop floor below that noise kept probing it to 18
        rng = np.random.default_rng(2)
        for _ in range(285):
            net = wide_network(rng)
        assert len(net) == 11 and isinstance(net.comm, lb.PolynomialCommDelay)
        solution = lb.solve(net)
        assert solution.iterations <= 12
        assert lb.verify_optimality(net, solution).passed()

    def test_gap_within_rounding_noise_names_it(self):
        # the 228th wide draw of seed 12: an unloaded mu=7947.5 sink blurs the implied traffic
        # by ~7e-12, far above its 1e-9*Phi gate of 9e-14, so the gate refuses a best
        # iterate that verifies; the error must say so rather than blame the search
        rng = np.random.default_rng(12)
        for _ in range(228):
            net = wide_network(rng)
        assert len(net) == 2 and isinstance(net.comm, lb.MM1ChannelCommDelay)
        with pytest.raises(lb.ConvergenceError) as info:
            lb.solve(net)
        message = str(info.value)
        assert "cannot be settled in float64" in message
        assert "rounding noise of the implied traffic, 4*eps*sum(mu) = 7.06e-12" in message
        assert "settle gate 1e-9*Phi = 8.97e-14" in message
        assert "did not settle" not in message
        assert lb.verify_optimality(net, info.value.best).passed()

    def test_noise_above_the_gate_keeps_probing(self):
        # an unloaded mu=3750 sink blurs the implied traffic by ~3e-12, above the
        # 1e-9 * Phi gate (2.9e-14): the search must not stop on that noise and then raise
        net = make_network([0.0, 0.0, 2.89e-05], [0.0284, 3750.0, 6.07e-04],
                           lb.MM1ChannelCommDelay(85.75, 7.7e-05))
        solution = lb.solve(net)
        assert solution.residuals.lambda_step <= 1e-9 * net.total_arrival_rate
        assert lb.verify_optimality(net, solution).passed()

    def test_wide_range_fuzz_gate(self):
        # every instance must verify at 1e-8; a documented typed error would be
        # admissible too, but the solver needs none on this set, so none is let through
        rng = np.random.default_rng(2024)
        for _ in range(400):
            net = wide_network(rng)
            solution = lb.solve(net)
            report = lb.verify_optimality(net, solution)
            assert report.passed(), (net.service_rates, net.arrival_rates, net.comm, report)
