"""Node and interconnect delay models: values, derivatives, inverses."""

import math

import numpy as np
import pytest

import loadbal as lb
from loadbal.delays import mm1_delay, mm1_inverse_marginal_delay, mm1_marginal_delay

from conftest import make_network


def central_difference(fn, x: float, step: float = 1e-6) -> float:
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def bisect_increasing(fn, target: float, lo: float, hi: float, tol: float = 1e-10) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNodeDelay:
    def test_value_examples(self):
        model = lb.MM1NodeDelay(service_rate=2.0)
        assert model.delay(1.0) == 1.0
        assert model.delay(0.0) == 0.5
        assert model.delay(2.0) == lb.INFINITE
        assert model.delay(5.0) == lb.INFINITE

    def test_negative_rate_rejected(self):
        model = lb.MM1NodeDelay(service_rate=2.0)
        with pytest.raises(ValueError):
            model.delay(-0.1)
        with pytest.raises(ValueError):
            model.marginal_delay(-0.1)

    def test_marginal_examples(self):
        assert lb.MM1NodeDelay(2.0).marginal_delay(1.0) == 2.0
        assert lb.MM1NodeDelay(4.0).marginal_delay(0.0) == 0.25
        assert lb.MM1NodeDelay(4.0).marginal_delay(4.0) == lb.INFINITE

    def test_marginal_matches_finite_difference(self):
        # oracle: central difference of beta * F(beta)
        model = lb.MM1NodeDelay(4.0)
        fd = central_difference(lambda b: b * model.delay(b), 0.75)
        assert fd == pytest.approx(0.37870, abs=1e-5)
        assert model.marginal_delay(0.75) == pytest.approx(fd, rel=1e-5)

    def test_marginal_finite_difference_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            mu = float(rng.uniform(0.2, 20.0))
            beta = float(rng.uniform(0.0, 0.95)) * mu
            model = lb.MM1NodeDelay(mu)
            step = 1e-6 * mu
            if beta < step:
                beta = step
            fd = (central_difference(lambda b: b * model.delay(b), beta, step))
            assert model.marginal_delay(beta) == pytest.approx(fd, rel=1e-5)

    def test_inverse_examples(self):
        assert lb.MM1NodeDelay(2.0).inverse_marginal_delay(2.0) == (1.0, False)
        beta, clipped = lb.MM1NodeDelay(4.0).inverse_marginal_delay(0.25)
        assert beta == 0.0 and not clipped

    def test_inverse_matches_bisection_oracle(self):
        model = lb.MM1NodeDelay(4.0)
        expected = bisect_increasing(model.marginal_delay, 0.37870, 0.0, 4.0 * (1 - 1e-12))
        assert expected == pytest.approx(0.75, abs=1e-3)
        beta, clipped = model.inverse_marginal_delay(0.37870)
        assert not clipped
        assert beta == pytest.approx(expected, abs=1e-8)

    def test_inverse_below_floor_flags(self):
        beta, clipped = lb.MM1NodeDelay(4.0).inverse_marginal_delay(0.1)
        assert beta == 0.0 and clipped

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            mu = float(rng.uniform(0.2, 20.0))
            beta = float(rng.uniform(0.0, 0.95)) * mu
            model = lb.MM1NodeDelay(mu)
            back, _ = model.inverse_marginal_delay(model.marginal_delay(beta))
            assert back == pytest.approx(beta, abs=1e-8)

    def test_marginal_strictly_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            mu = float(rng.uniform(0.2, 20.0))
            b1, b2 = sorted(rng.uniform(0.0, 0.95 * mu, 2))
            if b1 == b2:
                continue
            model = lb.MM1NodeDelay(mu)
            assert model.marginal_delay(b1) < model.marginal_delay(b2)

    @pytest.mark.parametrize("method", ["delay", "marginal_delay", "inverse_marginal_delay"])
    def test_scalar_views_match_array_forms(self, method):
        # service rate 3: rates reach and pass saturation, prices start below f(0) = 1/3
        betas = (0.0, 1.0, 2.9, 3.0 * (1 - 1e-12), 3.0, 5.0)
        prices = (-1.0, 0.0, 0.3, np.nextafter(1 / 3, 0.0), 1 / 3, 0.5, 2.0, 1e12, math.inf)
        array_form, grid = {
            "delay": (mm1_delay, betas),
            "marginal_delay": (mm1_marginal_delay, betas),
            "inverse_marginal_delay": (mm1_inverse_marginal_delay, prices),
        }[method]
        out = array_form(3.0, np.array(grid))
        expected = list(zip(*(a.tolist() for a in out))) if isinstance(out, tuple) else out.tolist()
        model = lb.MM1NodeDelay(3.0)
        assert [getattr(model, method)(float(x)) for x in grid] == expected

    def test_delay_matches_masked_divide(self):
        # the masked form: divide only the unsaturated points, then store inf at the rest
        def masked(service_rate, beta, out=None):
            out = np.asarray(np.subtract(service_rate, beta, out=out, dtype=float))
            saturated = out <= 0.0
            np.divide(1.0, out, out=out, where=~saturated)
            out[saturated] = lb.INFINITE
            return out

        rng = np.random.default_rng(19)
        mu = rng.uniform(0.5, 10.0, 4000)
        beta = mu * rng.uniform(0.0, 1.5, mu.size)  # about a third past saturation
        beta[::7] = mu[::7]                         # exactly saturated
        beta[::11] = np.nextafter(mu[::11], 0.0)    # one ulp short
        beta[::13] = np.nan
        beta[::17] = 0.0
        cases = [(mu, beta), (mu[:50], beta[:50]), (mu, np.minimum(beta, 0.5 * mu)), (mu, mu + 1.0),
                 (3.0, 3.0), (3.0, 5.0), (3.0, 1.0), (3.0, np.nan)]
        for service_rate, rates in cases:
            expected = masked(service_rate, rates)
            assert mm1_delay(service_rate, rates).tobytes() == expected.tobytes()
            into = np.empty(np.shape(rates))
            assert mm1_delay(service_rate, rates, out=into) is into
            assert into.tobytes() == expected.tobytes()


class TestCommDelay:
    @pytest.mark.parametrize("model", [
        lb.ConstantCommDelay(0.05),
        lb.MM1ChannelCommDelay(0.1, 10.0),
        lb.PolynomialCommDelay((0.01, 0.2, 0.05)),
    ], ids=["constant", "mm1_channel", "polynomial"])
    def test_float_in_float_out(self, model):
        # the CLI and CSV writers print these with repr, which differs for np.float64
        for rate in (0.0, 2.5):
            assert type(model.delay(rate)) is float
            assert type(model.unchecked_delay(rate)) is float
        node = lb.MM1NodeDelay(2.0)
        assert type(node.delay(1.0)) is float
        assert type(node.delay(2.0)) is float

    def test_constant(self):
        model = lb.ConstantCommDelay(0.05)
        assert model.delay(0.75) == 0.05
        assert model.delay_derivative(0.75) == 0.0

    def test_channel_values(self):
        model = lb.MM1ChannelCommDelay(transfer_time=0.1, capacity=10.0)
        assert model.delay(5.0) == pytest.approx(0.2)
        fd = central_difference(model.delay, 5.0)
        assert fd == pytest.approx(0.04, rel=1e-5)
        assert model.delay_derivative(5.0) == pytest.approx(fd, rel=1e-5)

    def test_channel_saturation(self):
        model = lb.MM1ChannelCommDelay(0.1, 10.0)
        with pytest.raises(lb.SaturationError):
            model.delay(10.0)
        with pytest.raises(ValueError):
            model.delay(-1.0)

    def test_polynomial(self):
        model = lb.PolynomialCommDelay((0.0, 0.2, 0.1))
        assert model.delay(2.0) == pytest.approx(0.2 * 2 + 0.1 * 4)
        assert model.delay_derivative(2.0) == pytest.approx(0.2 + 0.4)
        with pytest.raises(ValueError):
            lb.PolynomialCommDelay((0.1, -0.2))

    @pytest.mark.parametrize("build", [
        lambda: lb.ConstantCommDelay(math.nan),
        lambda: lb.ConstantCommDelay(math.inf),
        lambda: lb.PolynomialCommDelay((0.0, math.nan)),
        lambda: lb.PolynomialCommDelay((math.inf,)),
        lambda: lb.MM1ChannelCommDelay(math.inf, 2.0),
        lambda: lb.MM1ChannelCommDelay(0.1, math.inf),
        lambda: lb.MM1ChannelCommDelay(0.1, math.nan),
    ], ids=["constant-nan", "constant-inf", "polynomial-nan", "polynomial-inf", "channel-inf-t",
            "channel-inf-capacity", "channel-nan-capacity"])
    def test_non_finite_parameters_rejected(self, build):
        # the library refuses what a config parse refuses: a NaN or infinite parameter
        with pytest.raises(ValueError, match="must be finite"):
            build()

    def test_derivative_constant_detection(self):
        assert lb.ConstantCommDelay(0.1).derivative_is_constant
        assert lb.PolynomialCommDelay((0.1, 0.2)).derivative_is_constant
        assert lb.PolynomialCommDelay((0.1, 0.2, 0.0)).derivative_is_constant  # trailing zero trimmed
        assert not lb.PolynomialCommDelay((0.0, 0.0, 0.3)).derivative_is_constant
        assert not lb.MM1ChannelCommDelay(0.1, 10.0).derivative_is_constant

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        models = [
            lb.ConstantCommDelay(0.07),
            lb.MM1ChannelCommDelay(0.1, 10.0),
            lb.PolynomialCommDelay((0.01, 0.2, 0.05)),
        ]
        for model in models:
            top = 9.0 if math.isfinite(model.max_rate) else 5.0
            for _ in range(200):
                lam = float(rng.uniform(0.01, top))
                fd = central_difference(model.delay, lam, 1e-6)
                assert model.delay_derivative(lam) == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestAdmissibility:
    def test_constant_ratio_fails(self):
        net = make_network([0.5], [2.0], lb.ConstantCommDelay(0.05))
        report = lb.check_model_admissibility(net, max_rate=1.0, samples=100)
        assert not report.ratio_nondecreasing
        assert report.comm_nondecreasing
        assert report.triangle_inequality

    def test_linear_ratio_holds(self):
        net = make_network([0.5], [2.0], lb.PolynomialCommDelay((0.0, 0.2)))
        report = lb.check_model_admissibility(net, max_rate=1.0, samples=100)
        assert report.ratio_nondecreasing
        assert report.comm_ok

    def test_channel_ratio(self):
        # independent oracle: dense ratio grid over (0, 9]; G/x falls toward
        # capacity/2 before rising again, so the property fails
        model = lb.MM1ChannelCommDelay(0.1, 10.0)
        grid = np.linspace(9.0 / 1000, 9.0, 1000)
        ratios = model.delay(grid) / grid
        expected = bool(np.all(np.diff(ratios) >= -1e-15))
        assert expected is False
        net = make_network([0.5], [2.0], model)
        report = lb.check_model_admissibility(net, max_rate=9.0, samples=1000)
        assert report.ratio_nondecreasing is expected
        assert report.comm_nondecreasing

    @pytest.mark.parametrize("max_rate", [50.0, 200.0])
    def test_fixed_cost_fails_at_any_range(self, max_rate):
        # G(x)/x = 0.01/x + x is least at x = 0.1, below the first of 1,000 samples of (0, 200]
        net = make_network([0.5], [2.0], lb.PolynomialCommDelay((0.01, 0.0, 1.0)))
        report = lb.check_model_admissibility(net, max_rate=max_rate)
        assert not report.ratio_nondecreasing
        assert not report.comm_ok

    def test_argument_validation(self):
        net = make_network([0.5], [2.0])
        with pytest.raises(ValueError):
            lb.check_model_admissibility(net, max_rate=0.0)
        with pytest.raises(ValueError):
            lb.check_model_admissibility(net, max_rate=1.0, samples=1)
