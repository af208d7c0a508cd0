"""Special functions used throughout the package.

The regularized incomplete gamma function and the masses of a negative
binomial with real (non-integer) shape.

The incomplete gamma has one elementwise kernel, a series and a continued
fraction.  A float runs as a one-element array, about 0.3 ms a call against
a few microseconds for a scalar loop, so pass many points as one array.

The negative-binomial masses are the workhorse of the lattice
discretization: for gamma-distributed claim amounts they are the
normalized transform-derivative weights, and the discretized equilibrium
weights are their scaled tail sums.
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


def _lower_series(alpha, x):
    # P(alpha, x) by the ascending series, reliable for x < alpha + 1.
    # Converged elements leave the active set; unconverged ones stay NaN.
    out = np.full(x.size, math.nan)
    active = np.arange(x.size)
    xa = x
    ap = alpha
    total = np.full(x.size, 1.0 / alpha)
    delta = total.copy()
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        ap += 1.0
        delta *= xa / ap
        total += delta
        done = np.abs(delta) < np.abs(total) * _EPS
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, xa, total, delta = active[keep], xa[keep], total[keep], delta[keep]
    return out * np.exp(-x + alpha * np.log(x) - math.lgamma(alpha))


def _upper_contfrac(alpha, x):
    # Q(alpha, x) by the Lentz continued fraction, reliable for x >= alpha + 1.
    # Converged elements leave the active set; unconverged ones stay NaN.
    out = np.full(x.size, math.nan)
    active = np.arange(x.size)
    b = x + 1.0 - alpha
    c = np.full(x.size, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_ITER):
        if not active.size:
            break
        an = -i * (i - alpha)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[active[done]] = h[done]
            keep = ~done
            active, b, c, d, h = active[keep], b[keep], c[keep], d[keep], h[keep]
    return out * np.exp(-x + alpha * np.log(x) - math.lgamma(alpha))


def _inc_gamma(name, alpha, x, upper):
    # P(alpha, x), or Q(alpha, x) if ``upper``, shaped like x: a float x is
    # a one-element array that comes back as a float.
    if not 0 < alpha < math.inf:
        raise DomainError(f"{name} requires finite alpha > 0, got {alpha}")
    xs = np.asarray(x, dtype=float)
    bad = ~(xs >= 0)
    if bad.any():
        raise DomainError(f"{name} requires x >= 0, got {xs[bad][0]}")
    series = (xs > 0.0) & (xs < alpha + 1.0)
    contfrac = (xs >= alpha + 1.0) & (xs < math.inf)
    out = np.where(xs == 0.0, 1.0, 0.0) if upper else np.where(xs == math.inf, 1.0, 0.0)
    lower = _lower_series(alpha, xs[series])
    tail = _upper_contfrac(alpha, xs[contfrac])
    out[series] = 1.0 - lower if upper else lower
    out[contfrac] = tail if upper else 1.0 - tail
    unconverged = np.isnan(out)
    if unconverged.any():
        raise DomainError(
            f"{name}({alpha}, {xs[unconverged][0]}) did not converge to "
            f"{_EPS} within {_MAX_ITER} terms"
        )
    return float(out) if np.ndim(x) == 0 else out


def reg_inc_gamma_lower(alpha: float, x):
    """Regularized lower incomplete gamma function P(alpha, x).

    Series expansion for x < alpha + 1, continued fraction otherwise, run
    elementwise over ``x``, a float or an array; a float comes back as a
    float.  P(alpha, inf) = 1.  NaN or negative x, and a recurrence that
    does not converge within 600 terms (at x = alpha, from alpha of about
    5.4e3), raise :class:`DomainError`.
    """
    return _inc_gamma("reg_inc_gamma_lower", alpha, x, upper=False)


def reg_inc_gamma_upper(alpha: float, x):
    """Regularized upper incomplete gamma function Q(alpha, x) = 1 - P(alpha, x).

    Computed directly by the continued fraction for x >= alpha + 1 so the
    tail is accurate without cancellation.  ``x`` and the errors are as
    for :func:`reg_inc_gamma_lower`; Q(alpha, inf) = 0.
    """
    return _inc_gamma("reg_inc_gamma_upper", alpha, x, upper=True)


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
