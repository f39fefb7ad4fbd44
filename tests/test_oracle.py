"""Grid-search oracle: examples, sanity, determinism, comparisons."""

import dataclasses
import itertools

import numpy as np
import pytest

import loadbal as lb
from loadbal import oracle
from loadbal.network import objective

from conftest import make_network, random_network


class TestBruteForce:
    def test_symmetric_no_transfer(self, symmetric_pair):
        result = lb.brute_force_optimum(symmetric_pair, grid=101, refine_rounds=5)
        assert result.net_transfers == (0.0, 0.0)
        # aggregate of keeping both local: 2 * 0.5 / 1.5
        assert result.objective == pytest.approx(2 / 3, abs=1e-6)

    def test_asymmetric_hand_value(self, asymmetric_pair):
        result = lb.brute_force_optimum(asymmetric_pair)
        assert result.net_transfers[0] == pytest.approx(0.75, abs=1e-3)
        assert result.net_transfers[1] == pytest.approx(-0.75, abs=1e-3)
        assert result.objective == pytest.approx(0.53654, abs=1e-5)

    def test_single_node(self):
        net = make_network([1.0], [2.0])
        result = lb.brute_force_optimum(net)
        assert result.net_transfers == (0.0,)
        assert result.objective == pytest.approx(1.0)

    def test_size_guard(self):
        net = make_network([0.1] * 6, [1.0] * 6)
        with pytest.raises(ValueError):
            lb.brute_force_optimum(net)

    def test_deterministic(self, asymmetric_pair):
        a = lb.brute_force_optimum(asymmetric_pair, grid=51, refine_rounds=4)
        b = lb.brute_force_optimum(asymmetric_pair, grid=51, refine_rounds=4)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_identical_nodes_stay_put(self):
        net = make_network([0.8, 0.8, 0.8], [3.0, 3.0, 3.0])
        result = lb.brute_force_optimum(net, grid=51, refine_rounds=4)
        assert result.net_transfers == (0.0, 0.0, 0.0)

    def test_optimum_beats_random_feasible_points(self):
        rng = np.random.default_rng(41)
        net = random_network(rng, 3)
        result = lb.brute_force_optimum(net, grid=101, refine_rounds=5)
        phi = net.arrival_rates
        mu = net.service_rates
        tried = 0
        while tried < 100:
            d_free = rng.uniform(phi[:2] - mu[:2], phi[:2])
            d_last = -d_free.sum()
            if not (phi[2] - mu[2] < d_last <= phi[2]):
                continue
            d = np.append(d_free, d_last)
            beta = phi - d
            lam = float(np.maximum(d, 0.0).sum())
            if lam >= net.comm.max_rate:
                continue
            value = lb.aggregate_objective(net, lb.Allocation(tuple(map(float, beta)), lam))
            assert result.objective <= value + 1e-12
            tried += 1

    def test_respects_saturating_channel(self):
        # channel capacity below what unconstrained balancing would ship
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.MM1ChannelCommDelay(0.01, 0.5))
        result = lb.brute_force_optimum(net, grid=101, refine_rounds=6)
        assert result.allocation.transfer_rate < 0.5


class TestCompare:
    def test_agreeing_solutions(self, asymmetric_pair):
        solution = lb.solve(asymmetric_pair)
        result = lb.brute_force_optimum(asymmetric_pair)
        report = lb.compare_solutions(solution, result, asymmetric_pair)
        assert report.ok
        assert report.roles_agree
        assert abs(report.objective_gap) < 1e-5
        assert report.max_rate_deviation < 1e-3
        assert report.solver_roles == "A,S"

    def test_fail_flag_when_solver_stays_local(self, asymmetric_pair):
        # hand-build a bogus keep-local solution; the oracle knows better
        bogus = dataclasses.replace(
            lb.solve(asymmetric_pair),
            allocation=lb.Allocation(rates=(1.5, 0.0), transfer_rate=0.0),
            partition=lb.NodePartition(roles=(lb.NodeRole.NEUTRAL, lb.NodeRole.NEUTRAL)),
            objective=lb.aggregate_objective(asymmetric_pair, lb.Allocation((1.5, 0.0), 0.0)),
        )
        report = lb.compare_solutions(bogus, lb.brute_force_optimum(asymmetric_pair), asymmetric_pair)
        assert not report.ok
        assert not report.roles_agree
        assert report.objective_gap > 1e-3


COMMS = {
    "constant": lb.ConstantCommDelay(0.05),
    "mm1_channel": lb.MM1ChannelCommDelay(0.03, 1.5),
    "polynomial": lb.PolynomialCommDelay((0.01, 0.1, 0.04)),
}


def last_lo(net):
    return float(net.arrival_rates[-1] - net.service_rates[-1] * (1.0 - 1e-9))


def box_axes(net, grid):
    """The oracle's first-round axes: each free node's whole net-transfer box."""
    phi, mu = net.arrival_rates, net.service_rates
    return [np.linspace(phi[a] - mu[a] * (1.0 - 1e-9), phi[a], grid) for a in range(len(net) - 1)]


def row_by_row(net, axes):
    """Reference grid minimum: ``objective`` on each row, in ``itertools.product`` order.

    Returns the minimum, its row (first occurrence) and every row's value.
    """
    phi = net.arrival_rates
    best_val, best_d, values = np.inf, None, []
    for point in itertools.product(*axes):
        d_free = np.array(point)
        d = np.append(d_free, -d_free.sum())
        beta = phi - d
        value = float(objective(net, beta, np.maximum(d, 0.0).sum()))
        if np.any(beta < 0.0) or not last_lo(net) <= d[-1] <= phi[-1]:
            value = np.inf
        values.append(value)
        if value < best_val:
            best_val, best_d = value, d
    return best_val, best_d, np.array(values)


def assert_same_minimum(net, axes, work=None):
    """``_grid_min`` returns exactly the reference's minimum and row; returns every row's value."""
    ref_val, ref_d, values = row_by_row(net, axes)
    val, d = oracle._grid_min(net, axes, last_lo(net), work)
    assert val == ref_val
    assert d.tobytes() == ref_d.tobytes()
    return values


class TestGridMin:
    """The separable grid scores every row bit-identically to ``objective``."""

    @pytest.mark.parametrize("comm", list(COMMS))
    @pytest.mark.parametrize("n, grid", [(2, 41), (3, 15), (4, 8), (5, 6)])
    def test_matches_row_by_row(self, n, grid, comm):
        rng = np.random.default_rng(10 * n + list(COMMS).index(comm))
        base = random_network(rng, n)
        net = make_network(base.arrival_rates, base.service_rates, COMMS[comm])
        assert_same_minimum(net, box_axes(net, grid))
        # a refinement-style window near the box's minimum, off the box's grid
        _, d, _ = row_by_row(net, box_axes(net, grid))
        mu = net.service_rates[:-1]
        center = d[:-1] + rng.uniform(-0.03, 0.03, n - 1) * mu
        values = assert_same_minimum(net, [np.linspace(c - 0.1 * m, c + 0.1 * m, grid)
                                           for c, m in zip(center, mu)])
        assert np.isfinite(values).any()

    def test_saturating_channel(self):
        net = make_network([1.5, 0.0], [4.0, 4.0], lb.MM1ChannelCommDelay(0.01, 0.5))
        values = assert_same_minimum(net, box_axes(net, 101))
        # rows shipping 0.5 or more sit on the channel's pole
        assert np.isinf(values).sum() > 0 and np.isfinite(values).sum() > 0

    def test_window_leaves_the_box(self):
        # the window crosses d_0 = phi_0 (a negative rate) and the last coordinate's box on both sides
        net = make_network([0.6, 0.4, 0.2], [2.0, 1.5, 1.0], COMMS["mm1_channel"])
        axes = [np.linspace(-1.3, 0.7, 12), np.linspace(-1.0, 0.4, 12)]
        d_last = -np.add.outer(axes[0], axes[1])
        assert (axes[0] > 0.6).any()
        assert (d_last < last_lo(net)).any() and (d_last > net.arrival_rates[-1]).any()
        values = assert_same_minimum(net, axes)
        assert np.isinf(values).any()

    @pytest.mark.parametrize("phi, mu, point", [
        # d_last falls 1e-9 below its box, where the last node's term is still finite
        ([2.0, 0.5], [3.0, 2.0], [1.5 - 1e-9]),
        # node 0 ships 1e-9 more than it receives, a negative rate with a finite term
        ([2.0, 0.5, 0.5], [3.0, 3.0, 1.0], [2.0 + 1e-9, -2.0]),
    ], ids=["last-below-box", "negative-free-rate"])
    def test_finite_row_off_the_box_is_infeasible(self, phi, mu, point):
        net = make_network(phi, mu, COMMS["constant"])
        axes = [np.array([d]) for d in point]
        d = np.append(point, -sum(point))
        assert np.isfinite(objective(net, net.arrival_rates - d, np.maximum(d, 0.0).sum()))
        assert oracle._grid_min(net, axes, last_lo(net)) == (np.inf, None)
        assert row_by_row(net, axes)[1] is None

    def test_exact_ties_keep_the_first_row(self):
        # equal nodes: shipping 0.1 either way scores the same sum in the other order
        net = make_network([1.0, 1.0], [3.0, 3.0], lb.ConstantCommDelay(0.02))
        values = assert_same_minimum(net, [np.array([-0.3, -0.1, 0.1, 0.3])])
        assert (values == values.min()).sum() == 2
        three = make_network([0.8, 0.8, 0.8], [3.0, 3.0, 3.0], COMMS["polynomial"])
        assert_same_minimum(three, box_axes(three, 13))

    @pytest.mark.parametrize("points", [1, 3, 7, 40])
    def test_several_blocks(self, monkeypatch, points):
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", points)
        shape = (5, 4, 6)
        blocks = list(oracle._blocks(shape))
        assert len(blocks) > 1
        # the blocks tile the grid once, in C order
        flat = np.arange(np.prod(shape)).reshape(shape)
        assert np.array_equal(np.concatenate([flat[b].ravel() for b in blocks]), flat.ravel())
        assert max(flat[b].size for b in blocks) <= points
        tie = make_network([1.0, 1.0], [3.0, 3.0], lb.ConstantCommDelay(0.02))
        assert_same_minimum(tie, [np.array([-0.3, -0.1, 0.1, 0.3])])
        rng = np.random.default_rng(7)
        for comm in COMMS.values():
            base = random_network(rng, 4)
            net = make_network(base.arrival_rates, base.service_rates, comm)
            assert_same_minimum(net, box_axes(net, 6))

    def test_ragged_last_block(self, monkeypatch):
        # 7 x 6 points in runs of 3 rows: the last block is one row, a third of the workspace
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 18)
        assert [np.ones((7, 6))[b].size for b in oracle._blocks((7, 6))] == [18, 18, 6]
        net = make_network([0.2, 0.3, 1.8], [2.0, 2.5, 2.2], COMMS["polynomial"])
        work = poisoned_workspace((7, 6))
        # node 2 sheds load toward the top of both axes, so the minimum lies in the last block
        axes = [np.linspace(-1.2, -0.4, 7), np.linspace(-1.0, -0.2, 6)]
        values = assert_same_minimum(net, axes, work).reshape(7, 6)
        assert np.argmin(values) // 6 == 6

    def test_channel_pole_inside_the_grid(self, monkeypatch):
        # capacity 1.0 cuts through the box, so blocks hold rows on both sides of the pole
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 40)
        base = make_network([1.6, 0.2, 0.4], [3.0, 2.0, 2.5], lb.PolynomialCommDelay((0.0, 0.03)))
        net = make_network(base.arrival_rates, base.service_rates, lb.MM1ChannelCommDelay(0.03, 1.0))
        axes = box_axes(net, 15)
        assert len(list(oracle._blocks((15, 15)))) > 1
        values = assert_same_minimum(net, axes, poisoned_workspace((15, 15)))
        unbounded = row_by_row(base, axes)[2]
        assert np.isinf(values).sum() > np.isinf(unbounded).sum()
        assert np.isfinite(values).any()
        shipped = [max(p, 0.0) + max(q, 0.0) + max(-p - q, 0.0) for p, q in itertools.product(*axes)]
        assert np.isinf(values[np.array(shipped) >= 1.0]).all()

    def test_one_workspace_across_rounds(self):
        # shrinking windows of different sizes, as refinement rounds score them, share one workspace
        rng = np.random.default_rng(23)
        for comm in COMMS.values():
            base = random_network(rng, 4)
            net = make_network(base.arrival_rates, base.service_rates, comm)
            work = poisoned_workspace((8, 8, 8))
            assert_same_minimum(net, box_axes(net, 8), work)
            _, d, _ = row_by_row(net, box_axes(net, 8))
            mu = net.service_rates[:-1]
            for grid, scale in [(5, 0.2), (8, 0.1), (3, 0.02), (7, 0.05)]:
                center = d[:-1] + rng.uniform(-0.5, 0.5, 3) * scale * mu
                window = [np.linspace(c - scale * m, c + scale * m, grid) for c, m in zip(center, mu)]
                assert np.isfinite(assert_same_minimum(net, window, work)).any()


def poisoned_workspace(shape):
    """A workspace whose every entry would win a minimum if a block read it before writing it."""
    floats, bools = oracle._workspace(shape)
    floats.fill(-np.inf)
    bools.fill(False)
    return floats, bools


class TestBlockSize:
    """The block size bounds memory, never the answer."""

    @pytest.mark.parametrize("comm", list(COMMS))
    @pytest.mark.parametrize("n, grid, rounds", [(3, 41, 4), (4, 13, 3)])
    def test_same_result_at_every_block_size(self, monkeypatch, n, grid, rounds, comm):
        rng = np.random.default_rng(100 * n + list(COMMS).index(comm))
        results = []
        for _ in range(2):
            base = random_network(rng, n)
            net = make_network(base.arrival_rates, base.service_rates, COMMS[comm])
            by_size = []
            for points in (7, 1000, oracle._BLOCK_POINTS):
                monkeypatch.setattr(oracle, "_BLOCK_POINTS", points)
                by_size.append(repr(lb.brute_force_optimum(net, grid=grid, refine_rounds=rounds)))
            assert by_size[0] == by_size[1] == by_size[2]
            results.append(by_size[0])
        assert results[0] != results[1]

