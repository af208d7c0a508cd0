"""Scalar loop references for the claim law's elementwise kernels.

The package runs the incomplete gamma and the gamma-mixture functions over
arrays, a float being a one-element array.  These run the same recurrences
and formulas one point at a time in plain floats, with exact (fsum) sums
over components, so the tests can check the array kernel against them and
patch them into ``renewinv.transforms`` where a reference must not share
that kernel.  ``equilibrium_cdf`` has no package counterpart: with
``survival`` it gives the Volterra oracle its inputs (``oracles.py``).
"""

import math

# the package's convergence constants; FPMIN guards the Lentz loop
EPS = 1e-16
FPMIN = 1e-300
MAX_ITER = 600


def prefactor(alpha, x):
    """exp(-x) x**alpha / Gamma(alpha), which scales both recurrences."""
    return math.exp(-x + alpha * math.log(x) - math.lgamma(alpha))


def series(alpha, x):
    """P(alpha, x) / prefactor by the ascending series, tested every term."""
    ap = alpha
    total = 1.0 / alpha
    delta = total
    for _ in range(MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * EPS:
            break
    return total


def contfrac(alpha, x):
    """Q(alpha, x) / prefactor by the forward (modified Lentz) continued fraction."""
    b = x + 1.0 - alpha
    c = 1.0 / FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, MAX_ITER):
        an = -i * (i - alpha)
        b += 2.0
        d = an * d + b
        if abs(d) < FPMIN:
            d = FPMIN
        c = b + an / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return h


def lower_series(alpha, x):
    """P(alpha, x) by the ascending series, reliable for x < alpha + 1."""
    return series(alpha, x) * prefactor(alpha, x)


def upper_contfrac(alpha, x):
    """Q(alpha, x) by the Lentz continued fraction, reliable for x >= alpha + 1."""
    return contfrac(alpha, x) * prefactor(alpha, x)


def reg_inc_gamma_lower(alpha, x):
    """P(alpha, x) at one point x >= 0."""
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < alpha + 1.0:
        return lower_series(alpha, x)
    return 1.0 - upper_contfrac(alpha, x)


def reg_inc_gamma_upper(alpha, x):
    """Q(alpha, x) at one point x >= 0."""
    x = float(x)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < alpha + 1.0:
        return 1.0 - lower_series(alpha, x)
    return upper_contfrac(alpha, x)


def cdf(mixture, u):
    if u <= 0:
        return 0.0
    return math.fsum(
        p * reg_inc_gamma_lower(alpha, beta * u) for p, alpha, beta in mixture.components
    )


def survival(mixture, u):
    if u <= 0:
        return 1.0
    return math.fsum(
        p * reg_inc_gamma_upper(alpha, beta * u) for p, alpha, beta in mixture.components
    )


def density(mixture, u):
    if u < 0 or u == math.inf:
        return 0.0
    total = 0.0
    for p, alpha, beta in mixture.components:
        if u == 0.0:
            if alpha == 1.0:
                total += p * beta
            continue
        total += p * beta * math.exp(
            -beta * u + (alpha - 1.0) * math.log(beta * u) - math.lgamma(alpha)
        )
    return total


def equilibrium_cdf(mixture, u):
    if u <= 0:
        return 0.0
    if u == math.inf:
        return 1.0
    total = 0.0
    for p, alpha, beta in mixture.components:
        z = beta * u
        partial = z * reg_inc_gamma_upper(alpha, z) + alpha * reg_inc_gamma_lower(alpha + 1.0, z)
        total += p * partial / beta
    return min(1.0, total / mixture.mean)
