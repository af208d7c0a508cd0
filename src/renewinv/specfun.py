"""Special functions used throughout the package.

Log-gamma, the regularized incomplete gamma function, and the cumulative
distribution of a negative binomial with real (non-integer) shape.  The
negative-binomial CDF is the workhorse of the lattice discretization: for
gamma-distributed claim amounts the discretized equilibrium weights are
scaled negative-binomial survival probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 600


@dataclass(frozen=True)
class RealShape:
    """Negative-binomial parameters: ``alpha`` successes with probability ``rho``.

    ``alpha`` may be any positive real; ``rho`` lies in (0, 1].
    """

    alpha: float
    rho: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"shape alpha must be positive, got {self.alpha}")
        if not 0 < self.rho <= 1:
            raise DomainError(f"success probability rho must be in (0, 1], got {self.rho}")


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for positive real ``x``."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _lower_series(alpha, x):
    # P(alpha, x) by the ascending series, reliable for x < alpha + 1.
    ap = alpha
    total = 1.0 / alpha
    delta = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            break
    return total * math.exp(-x + alpha * math.log(x) - math.lgamma(alpha))


def _upper_contfrac(alpha, x):
    # Q(alpha, x) by the Lentz continued fraction, reliable for x >= alpha + 1.
    b = x + 1.0 - alpha
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - alpha)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + alpha * math.log(x) - math.lgamma(alpha))


def reg_inc_gamma_lower(alpha: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(alpha, x).

    Series expansion for x < alpha + 1, continued fraction otherwise.
    """
    if not alpha > 0:
        raise DomainError(f"reg_inc_gamma_lower requires alpha > 0, got {alpha}")
    if x < 0:
        raise DomainError(f"reg_inc_gamma_lower requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < alpha + 1.0:
        return _lower_series(alpha, x)
    return 1.0 - _upper_contfrac(alpha, x)


def reg_inc_gamma_upper(alpha: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(alpha, x) = 1 - P(alpha, x).

    Computed directly by the continued fraction for x >= alpha + 1 so the
    tail is accurate without cancellation.
    """
    if not alpha > 0:
        raise DomainError(f"reg_inc_gamma_upper requires alpha > 0, got {alpha}")
    if x < 0:
        raise DomainError(f"reg_inc_gamma_upper requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < alpha + 1.0:
        return 1.0 - _lower_series(alpha, x)
    return _upper_contfrac(alpha, x)


def negbin_pmf_terms(k_max: int, shape: RealShape) -> np.ndarray:
    """Probability masses P(N = j), j = 0..k_max, of the negative binomial.

    Term recursion term_{j+1} = term_j * (alpha + j) / (j + 1) * (1 - rho),
    seeded with rho**alpha evaluated in log space and run as one cumulative
    product, which multiplies in the same order as the scalar recursion.
    Avoids cancellation and supports real alpha.
    """
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    alpha, rho = shape.alpha, shape.rho
    j = np.arange(k_max, dtype=float)
    factors = np.empty(k_max + 1)
    factors[0] = math.exp(alpha * math.log(rho))
    factors[1:] = (alpha + j) / (j + 1.0) * (1.0 - rho)
    return np.cumprod(factors)


def negbin_logpmf(k: int, shape: RealShape) -> float:
    """Log of the negative-binomial mass at ``k``; never overflows.

    Safe for k up to at least 10**6 since everything stays in log space.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"k must be a nonnegative integer, got {k}")
    alpha, rho = shape.alpha, shape.rho
    if rho == 1.0:
        return 0.0 if k == 0 else -math.inf
    k = int(k)
    return (
        math.lgamma(alpha + k)
        - math.lgamma(alpha)
        - math.lgamma(k + 1.0)
        + k * math.log1p(-rho)
        + alpha * math.log(rho)
    )


def negbin_cdf(k: int, shape: RealShape) -> float:
    """CDF of a negative binomial with real shape: sum of masses 0..k."""
    if k < 0 or k != int(k):
        raise DomainError(f"k must be a nonnegative integer, got {k}")
    terms = negbin_pmf_terms(int(k), shape)
    return min(1.0, math.fsum(terms))


def negbin_survival(k: int, shape: RealShape) -> float:
    """P(N > k) for the negative binomial; complement of :func:`negbin_cdf`."""
    return max(0.0, 1.0 - negbin_cdf(k, shape))
