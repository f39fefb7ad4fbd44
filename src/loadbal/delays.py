"""Delay models for nodes and for the interconnect.

Node models map a processing rate beta (jobs/s) to a mean time in system
F(beta); the interconnect models map the total transfer traffic on the
network to a mean per-transfer delay G.  The solver works with the
*marginal* node delay f(beta) = d/dbeta [beta * F(beta)], the price of
pushing one more unit of load through a node, and with its inverse.

All models are immutable values; every method is a pure function.  The
M/M/1 curves are array functions of (service rate, rate or price), and every
interconnect ``delay`` takes a float or an array (a float in gives a float out).
Each interconnect's formula is its ``unchecked_delay``: ``delay`` checks the
rate and calls it, and callers that know their rates are in range (the
simulator, the oracle's grid blocks) call it directly, optionally writing
into an ``out`` array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

INFINITE = math.inf


class SaturationError(ValueError):
    """A rate is at or beyond a model's stability limit."""


# ---------------------------------------------------------------------------
# node delay
# ---------------------------------------------------------------------------

def mm1_delay(service_rate, beta, out=None) -> np.ndarray:
    """F(beta) = 1 / (service_rate - beta) elementwise; inf at and beyond saturation.

    Writes into ``out`` when given, else returns a new array, which the
    caller may overwrite.
    """
    out = np.asarray(np.subtract(service_rate, beta, out=out, dtype=float))
    saturated = out <= 0.0
    with np.errstate(divide="ignore"):  # saturated points are overwritten below
        np.divide(1.0, out, out=out)
    np.copyto(out, INFINITE, where=saturated)
    return out


def mm1_marginal_delay(service_rate, beta) -> np.ndarray:
    """f(beta) = service_rate / (service_rate - beta)^2 elementwise; inf at and beyond saturation."""
    head = np.subtract(service_rate, beta, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(head > 0.0, service_rate / (head * head), INFINITE)


def mm1_inverse_marginal_delay(service_rate, price) -> tuple[np.ndarray, np.ndarray]:
    """Rates beta >= 0 with f(beta) == price elementwise, and where the price is below f(0).

    f(beta) = price solves to beta = service_rate - sqrt(service_rate / price).
    Prices below f(0) = 1/service_rate cannot be met by any nonnegative rate:
    those elements get rate 0 and a True flag.  The rates are a new array.
    """
    floor = 1.0 / service_rate
    priced_out = price < floor
    # clamping at the floor keeps the square root real; clamped elements are zeroed below
    beta = np.asarray(service_rate - np.sqrt(service_rate / np.maximum(price, floor)))
    np.maximum(beta, 0.0, out=beta)
    beta[priced_out] = 0.0
    return beta, priced_out


@dataclass(frozen=True)
class MM1NodeDelay:
    """Single FIFO server with exponential service at ``service_rate``.

    F(beta) = 1 / (service_rate - beta) on [0, service_rate), infinite at
    and beyond saturation.  F is finite, positive, increasing and convex
    on its domain, which is what the optimality analysis requires.
    """

    service_rate: float

    def __post_init__(self) -> None:
        if not self.service_rate > 0:
            raise ValueError(f"service_rate must be > 0, got {self.service_rate}")

    def delay(self, beta: float) -> float:
        """Mean time in system at throughput ``beta``; inf when saturated."""
        if beta < 0:
            raise ValueError(f"processing rate must be >= 0, got {beta}")
        return float(mm1_delay(self.service_rate, beta))

    def marginal_delay(self, beta: float) -> float:
        """d/dbeta of beta * F(beta) = service_rate / (service_rate - beta)^2.

        Strictly increasing on [0, service_rate); equals F(0) at beta = 0.
        Plain Python: the simulator's threshold score calls it per join and departure.
        """
        if beta < 0:
            raise ValueError(f"processing rate must be >= 0, got {beta}")
        if beta >= self.service_rate:
            return INFINITE
        head = self.service_rate - beta
        return self.service_rate / (head * head)

    @property
    def min_marginal_delay(self) -> float:
        """Marginal delay of the first unit of load, f(0) = 1/service_rate."""
        return 1.0 / self.service_rate

    def inverse_marginal_delay(self, price: float) -> tuple[float, bool]:
        """Rate beta with marginal_delay(beta) == price.

        Returns ``(beta, at_lower_bound)``.  Prices below f(0) cannot be met
        by any nonnegative rate; those return ``(0.0, True)`` so the caller
        can treat the node as priced out (it idles rather than errors).
        """
        beta, priced_out = mm1_inverse_marginal_delay(self.service_rate, price)
        return float(beta), bool(priced_out)


# ---------------------------------------------------------------------------
# communication delay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCommDelay:
    """Fixed per-transfer delay, independent of network load."""

    transfer_time: float

    #: the derivative is identically zero, so price iterations are exact
    derivative_is_constant = True

    def __post_init__(self) -> None:
        if self.transfer_time < 0:
            raise ValueError(f"transfer_time must be >= 0, got {self.transfer_time}")

    @property
    def max_rate(self) -> float:
        return INFINITE

    def delay(self, rate: float | np.ndarray) -> float | np.ndarray:
        _check_rate(rate, self.max_rate)
        return self.unchecked_delay(rate)

    def unchecked_delay(self, rate, out=None):
        """G(rate) with no rate check, into ``out`` when given (see :meth:`delay`)."""
        acc = 0.0 * rate if out is None else np.multiply(rate, 0.0, out=out)  # the shape of ``rate``
        acc += self.transfer_time  # rebinds a float, writes an array in place
        return acc

    def delay_derivative(self, rate: float) -> float:
        _check_rate(rate, self.max_rate)
        return 0.0


@dataclass(frozen=True)
class MM1ChannelCommDelay:
    """Shared channel modeled as a single queue.

    ``transfer_time`` is the mean transfer time of an empty channel and
    ``capacity`` its saturation rate: G(rate) = transfer_time / (1 - rate/capacity).
    """

    transfer_time: float
    capacity: float

    derivative_is_constant = False

    def __post_init__(self) -> None:
        if not self.transfer_time > 0:
            raise ValueError(f"transfer_time must be > 0, got {self.transfer_time}")
        if not self.capacity > 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")

    @property
    def max_rate(self) -> float:
        return self.capacity

    def delay(self, rate: float | np.ndarray) -> float | np.ndarray:
        _check_rate(rate, self.capacity)
        return self.unchecked_delay(rate)

    def unchecked_delay(self, rate, out=None):
        """G(rate) with no rate check, into ``out`` when given (see :meth:`delay`)."""
        if out is None:
            return self.transfer_time / (1.0 - rate / self.capacity)
        np.divide(rate, self.capacity, out=out)
        np.subtract(1.0, out, out=out)
        return np.divide(self.transfer_time, out, out=out)

    def delay_derivative(self, rate: float) -> float:
        _check_rate(rate, self.capacity)
        head = 1.0 - rate / self.capacity
        return (self.transfer_time / self.capacity) / (head * head)


@dataclass(frozen=True)
class PolynomialCommDelay:
    """G(rate) = sum_k coefficients[k] * rate**k with nonnegative coefficients.

    Nonnegative coefficients make G nonnegative, non-decreasing and convex
    on [0, inf).  Trailing zero coefficients are dropped so degree checks
    are meaningful.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if any(c < 0 for c in coeffs):
            raise ValueError(f"coefficients must be >= 0, got {coeffs}")
        while coeffs and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def derivative_is_constant(self) -> bool:
        return len(self.coefficients) <= 2  # degree <= 1

    @property
    def max_rate(self) -> float:
        return INFINITE

    def delay(self, rate: float | np.ndarray) -> float | np.ndarray:
        _check_rate(rate, self.max_rate)
        return self.unchecked_delay(rate)

    def unchecked_delay(self, rate, out=None):
        """G(rate) by Horner's rule with no rate check, into ``out`` when given (see :meth:`delay`)."""
        acc = 0.0 * rate if out is None else np.multiply(rate, 0.0, out=out)  # the shape of ``rate``
        for c in reversed(self.coefficients):
            acc *= rate  # rebinds a float, writes an array in place
            acc += c
        return acc

    def delay_derivative(self, rate: float) -> float:
        _check_rate(rate, self.max_rate)
        out = 0.0
        for k in range(len(self.coefficients) - 1, 0, -1):
            out = out * rate + k * self.coefficients[k]
        return out


CommDelayModel = ConstantCommDelay | MM1ChannelCommDelay | PolynomialCommDelay


def _check_rate(rate, max_rate: float) -> None:
    """Reject negative or saturating transfer rates in a float or an array."""
    if isinstance(rate, np.ndarray):
        low, high = rate.min(initial=INFINITE), rate.max(initial=-INFINITE)
    else:
        low = high = rate
    if low < 0:
        raise ValueError(f"transfer rate must be >= 0, got {low}")
    if high >= max_rate:
        raise SaturationError(f"transfer rate {high} at or beyond saturation {max_rate}")


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """The interconnect assumptions the optimality results lean on.

    ``ratio_nondecreasing`` is the load-proportionality property of the
    interconnect (G(x)/x non-decreasing): it fails for any model with a
    fixed cost at zero load, e.g. the constant model.  Relay elimination
    is only guaranteed not to raise communication cost for models where
    it holds.  ``triangle_inequality`` is automatic here because the
    per-transfer delay does not depend on the endpoint pair (G + G >= G
    as long as G >= 0).
    """

    ratio_nondecreasing: bool
    comm_nondecreasing: bool
    triangle_inequality: bool

    @property
    def comm_ok(self) -> bool:
        return self.ratio_nondecreasing and self.comm_nondecreasing and self.triangle_inequality


def check_model_admissibility(network: "Network", max_rate: float, samples: int = 1000) -> AdmissibilityReport:
    """Report the interconnect assumptions over (0, max_rate], read off G(0).

    Every model the constructors accept has a G that is nonnegative,
    non-decreasing and convex on its domain, so ``comm_nondecreasing`` and
    ``triangle_inequality`` hold by construction.  For such a G, G(x)/x is
    non-decreasing on (0, max_rate] exactly when G(0) = 0: a convex G with
    G(0) = 0 has a non-decreasing chord slope from the origin, and one with
    G(0) > 0 has G(x)/x -> inf as x -> 0.  The verdicts are exact for any
    ``max_rate``; it and ``samples`` are only checked for range.  Node
    delays need no check: the only node model is M/M/1, whose
    F(beta) = 1 / (mu - beta) is increasing and convex in closed form.
    """
    if not max_rate > 0:
        raise ValueError(f"max_rate must be > 0, got {max_rate}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    return AdmissibilityReport(
        ratio_nondecreasing=network.comm.delay(0.0) == 0.0,
        comm_nondecreasing=True,
        triangle_inequality=True,
    )
