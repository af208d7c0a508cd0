"""Special functions used throughout the package.

The regularized incomplete gamma function, its log-space kernel
x**p e^(-x) / Gamma(alpha), and the masses of a negative binomial with real
(non-integer) shape.

The incomplete gamma has one elementwise kernel with four regimes: the
ascending series below x = alpha + 1 and, above it, the continued fraction
evaluated bottom-up to a depth set per point; and, for the upper function
at 0 < x < 700, two finite sums of positive terms: for an integer shape
n <= 20 the Poisson sum Q(n, x) = e^-x sum_{k<n} x**k / k!, and for a
shape n + 1/2 with 1 <= n <= 20 the sum Q(n + 1/2, x) = erfc(sqrt x) +
e^-x sum_{k<n} x**(k+1/2) / Gamma(k + 3/2), whose erfc is ``math.erfc``
mapped over the points (numpy has none), about 75 ns a point.  Both
results are clipped onto [0, 1].  A float runs as a one-element array:
about 0.1-0.2 ms a call on the recurrences, 25-40 us in the finite sums
for n <= 4 and about 80 us at n = 20, against a few microseconds for a
scalar loop, so pass many points as one array.

The negative-binomial masses are the workhorse of the lattice
discretization: for gamma-distributed claim amounts they are the
normalized transform-derivative weights, and the discretized equilibrium
weights are their scaled tail sums.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import DomainError

_EPS = 1e-16
_MAX_ITER = 600
_SERIES_BLOCK = 4


# Most weights one oracle call returns, and so the most points an order-2
# lattice approximation puts on its fine lattice {k/(2t)}: 2K <= 2**20.
# The operators of renewinv.inversion check it before any oracle call;
# every oracle and negbin_pmf_terms check it again before any array.
MAX_FINE_LATTICE = 2**20
# Smallest log seed rho**alpha of the negative-binomial masses: below it the
# subnormal spacing 2**-1074 exceeds 1e-9 of the seed, and every later term
# inherits that relative error through the term recursion.
_MIN_LOG_SEED = math.log(math.ldexp(1.0, -1074) / 1e-9)
# Least shape at which _gamma_kernel forms its exponent near the peak from
# Stirling's series; below it the plain exponent errs by at most ~1e-14.
_STIRLING_MIN_SHAPE = 20.0
# Largest shape n or n + 1/2, and the bound on x, of the finite sum for
# Q(alpha, x): below x = 700, e^-x is a normal float.
_FINITE_SUM_MAX_SHAPE = 20.5
_FINITE_SUM_MAX_X = 700.0


def _require_weight_count(n: int, what: str) -> None:
    if n > MAX_FINE_LATTICE:
        raise DomainError(
            f"{what} needs {n} oracle weights, more than the limit {MAX_FINE_LATTICE}"
        )


def _require_index(k, what: str, least: int = 0) -> int:
    """k as an int; DomainError unless k is an integer (``numbers.Integral``) >= least."""
    if not isinstance(k, (int, numbers.Integral)) or k < least:  # int skips the ABC check
        raise DomainError(f"{what} must be an integer >= {least}, got {k!r}")
    return int(k)


def _require_weight_index(k_max) -> None:
    k_max = _require_index(k_max, "k_max")
    _require_weight_count(k_max + 1, f"k_max = {k_max}")


def _real_point(x, what: str = "point u") -> float:
    """x as a float: float64 bits for a float32 x, inf of its sign for a real beyond
    the floats (for the caller's range check).  A non-real x raises DomainError."""
    if not isinstance(x, (float, int, numbers.Real)):  # these skip the ~0.3 us ABC check
        raise DomainError(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _require_finite(x, what: str) -> float:
    """x as a float; DomainError unless x is a real number other than NaN and +-inf."""
    x = _real_point(x, what)
    if not math.isfinite(x):
        raise DomainError(f"{what} must be finite, got {x}")
    return x


def _require_kind(x, kind: type, what: str) -> None:
    """DomainError unless x is an instance of ``kind``: a part of the wrong type is
    refused where it is built, not at its first use."""
    if not isinstance(x, kind):
        raise DomainError(f"{what} must be a {kind.__name__}, got {x!r}")


def _real_array(x, what: str) -> np.ndarray:
    """x as a float64 array, not copied if it is one.  DomainError unless its dtype is
    bool, integer or float: complex, str, bytes, object and datetime are refused."""
    xs = np.asarray(x)
    if xs.dtype.kind not in "biuf":
        raise DomainError(f"{what} must be real numbers, got dtype {xs.dtype}")
    return xs.astype(float, copy=False)


def _lattice_values(values, what: str) -> np.ndarray:
    """A fresh float64 copy of values; DomainError unless a nonempty 1-d array of finite reals."""
    vals = _real_array(values, what)
    if vals.ndim != 1 or vals.size == 0:
        raise DomainError(f"{what} must be a nonempty 1-d array")
    if not np.isfinite(vals).all():
        raise DomainError(f"{what} must be finite")
    return vals.copy()


def _shaped_like(x: np.ndarray, values):
    # A 0-d point array gives a float back; any other shape gives an array.
    return float(values) if x.ndim == 0 else values


def _require_positive(x, what: str = "lattice rate t") -> float:
    """x as a float; DomainError unless x is a real number in (0, inf)."""
    x = _real_point(x, what)
    if not 0 < x < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {x}")
    return x


def _require_negbin_parameters(alpha, rho) -> tuple[float, float]:
    alpha = _require_positive(alpha, "shape alpha")
    rho = _real_point(rho, "success probability rho")
    if not 0 < rho <= 1:
        raise DomainError(f"success probability rho must be in (0, 1], got {rho}")
    return alpha, rho


def _stirling_series(alpha: float) -> float:
    # lgamma(alpha) - (alpha - 1/2) log(alpha) + alpha - log(2 pi) / 2, five
    # terms of 1/(12 alpha) - 1/(360 alpha**3) + ...: below 1e-17 from alpha = 20
    r = 1.0 / (alpha * alpha)
    series = 1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))
    return series / alpha


def _gamma_kernel(alpha: float, power: float, x):
    """x**power * e^(-x) / Gamma(alpha), formed in log space; 0**0 is 1.

    Large shapes stay finite where x**power and Gamma(alpha) alone
    overflow.  At power = alpha it scales both recurrences below.  The
    exponent -x + power log x - lgamma(alpha) cancels terms of size
    |alpha log x| down to O(log alpha) near the peak x ~ alpha, and errs
    there by 3e-12 to 9e-12 relative for alpha from 1457 to 4000.  So from
    alpha = ``_STIRLING_MIN_SHAPE``, at |d| <= 1/2 with d = x / alpha - 1,
    the exponent is taken with that cancellation done by hand, as
    alpha (log1p(d) - d) - stirling(alpha) + log(alpha / 2 pi) / 2
    + (power - alpha) log x; its error, about alpha |d| eps, is within
    3e-14 of mpmath at |d| <= 0.1 and 1.5e-13 at |d| <= 1/2 up to
    alpha = 4000.  Every other case keeps the plain exponent.
    """
    if power == 0.0:
        return np.exp(-x - math.lgamma(alpha))
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    exponent = -x + power * log_x - math.lgamma(alpha)
    if alpha >= _STIRLING_MIN_SHAPE:
        d = (x - alpha) / alpha  # x - alpha is exact where |d| <= 1/2
        near = np.abs(d) <= 0.5
        d = np.where(near, d, 0.0)
        peak = alpha * (np.log1p(d) - d)
        peak += 0.5 * math.log(alpha / (2.0 * math.pi)) - _stirling_series(alpha)
        if power != alpha:
            peak += (power - alpha) * log_x
        exponent = np.where(near, peak, exponent)
    return np.exp(exponent)


def _series(alpha, x):
    # P(alpha, x) / _gamma_kernel(alpha, alpha, x) by the ascending
    # series, reliable for x < alpha + 1.  The terms are positive;
    # convergence is tested once every _SERIES_BLOCK terms, where
    # converged elements leave the active set.  Unconverged ones stay NaN.
    out = np.full(x.size, math.nan)
    active = np.arange(x.size)
    xa = x
    ap = alpha
    total = np.full(x.size, 1.0 / alpha)
    delta = total.copy()
    for _ in range(_MAX_ITER // _SERIES_BLOCK):
        for _ in range(_SERIES_BLOCK):
            ap += 1.0
            delta *= xa / ap
            total += delta
        done = delta < total * _EPS
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, xa, total, delta = active[keep], xa[keep], total[keep], delta[keep]
            if not active.size:
                break
    return out


def _contfrac_depth(alpha, x, cap):
    # First depth tried at each point, a function of (alpha, x) only: a fit
    # to the least depth at which the depth-N and depth-(N-1) values agree,
    # over alpha in [0.05, 5000].  Points it falls short at double it.  From
    # alpha ~ 1e49 the denominator rounds to 0 at x = alpha, and the depth of
    # inf is clipped to the cap.
    with np.errstate(divide="ignore"):
        depth = np.ceil(5.0 + 95.0 / x + 9.0 * alpha / (alpha ** (2.0 / 3.0) + x - alpha))
    return np.clip(depth, 1, cap).astype(np.int16)


def _contfrac_tails(alpha, b0, depth):
    # t_0 of the fraction at each point's depth N and at N - 1, bottom-up
    # from t_N = b_N by t_i = b_i + a_{i+1} / t_{i+1}.  The 2n evaluations
    # are sorted by depth, descending, so level i works on the prefix of
    # those at least i deep; starting from t = inf makes a_{i+1} / t
    # vanish at an evaluation's own depth.
    n = b0.size
    levels = np.concatenate([depth, depth - 1])
    order = np.argsort(-levels, kind="stable")
    b = np.concatenate([b0, b0])[order]
    active = np.cumsum(np.bincount(levels)[::-1])[::-1].tolist()
    t = np.full(2 * n, math.inf)
    for i in range(len(active) - 1, -1, -1):
        s = t[: active[i]]
        np.divide(-(i + 1.0) * (i + 1.0 - alpha), s, out=s)
        s += b[: active[i]]
        s += 2.0 * i
    out = np.empty(2 * n)
    out[order] = t
    return out[:n], out[n:]


def _contfrac(alpha, x):
    # Q(alpha, x) / _gamma_kernel(alpha, alpha, x) by the continued fraction
    # 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))), b_i = x + 1 - alpha + 2i,
    # a_i = -i(i - alpha), reliable for x >= alpha + 1 and evaluated
    # bottom-up.  b_0 is taken as x - (alpha - 1), which is exact near
    # x = alpha + 1 once alpha >= 2, where x + 1 - alpha rounds.
    #
    # A point is accepted when its depth-N and depth-(N-1) values agree to
    # one rounding, machine epsilon relative; the others double their depth
    # up to _MAX_ITER and stay NaN past it.  For an integer alpha a_alpha = 0 ends the fraction, and the depth
    # is capped there.  For x >= alpha + 1 every t_i >= i + 1, by induction
    # down from t_N = b_N: t_i >= b_i where a_{i+1} >= 0, and
    # t_i >= b_i - (i + 1 - alpha) = x + i otherwise; so no denominator
    # vanishes.
    cap = min(_MAX_ITER, int(alpha)) if float(alpha).is_integer() else _MAX_ITER
    out = np.full(x.size, math.nan)
    todo = np.arange(x.size)
    depth = _contfrac_depth(alpha, x, cap)
    while todo.size:
        deep, shallow = _contfrac_tails(alpha, x[todo] - (alpha - 1.0), depth)
        done = np.abs(deep - shallow) <= np.finfo(float).eps * deep
        out[todo[done]] = 1.0 / deep[done]
        retry = ~done & (depth < cap)
        todo, depth = todo[retry], np.minimum(2 * depth[retry], cap)
    return out


def _finite_sum(alpha, x):
    # Q(alpha, x) for alpha = n + s, n >= 1, s = 0 or 1/2, as a seed plus
    # the positive terms e^-x x**(k+s) / Gamma(k+s+1), k < n, taken upward
    # by term *= x / (k + s): no 1 - P.  For s = 0 this is the Poisson sum
    # e^-x sum_{k<n} x**k / k! (DLMF 8.4.10), seeded with its first term
    # e^-x; for s = 1/2 the seed is Q(1/2, x) = erfc(sqrt x) (DLMF 8.4.6),
    # one math.erfc per point, and the first term 2 sqrt(x / pi) e^-x
    # (DLMF 8.8.6: Q(a + 1, x) = Q(a, x) + x**a e^-x / Gamma(a + 1)).
    n = int(alpha)
    s = alpha - n
    term = np.exp(-x)
    if s:
        term *= 2.0 * np.sqrt(x / math.pi)
        total = np.fromiter(map(math.erfc, np.sqrt(x).tolist()), float, x.size)
        total += term
    else:
        total = term.copy()
    for k in range(1, n):
        term *= x / (k + s)
        total += term
    return total


def _inc_gamma(name, alpha, x, upper):
    # P(alpha, x), or Q(alpha, x) if ``upper``, shaped like x: a float x is
    # a one-element array that comes back as a float.
    alpha = _require_positive(alpha, "shape alpha")
    if alpha < sys.float_info.min:  # 1 / alpha, the series' first term, may overflow
        raise DomainError(f"{name} shape alpha {alpha!r} is not a positive normal float")
    xs = _real_array(x, f"{name} point x")
    bad = ~(xs >= 0)
    if bad.any():
        raise DomainError(f"{name} requires x >= 0, got {xs[bad][0]}")
    inner = (xs > 0.0) & (xs < math.inf)
    out = np.where(xs == 0.0, 1.0, 0.0) if upper else np.where(xs == math.inf, 1.0, 0.0)
    if upper and 1.0 <= alpha <= _FINITE_SUM_MAX_SHAPE and (2.0 * alpha).is_integer():
        finite = inner & (xs < _FINITE_SUM_MAX_X)
        if finite.any():
            out[finite] = _finite_sum(alpha, xs[finite])
            inner &= ~finite
    series = inner & (xs < alpha + 1.0)
    contfrac = inner & (xs >= alpha + 1.0)
    if series.any():
        xp = xs[series]
        lower = _series(alpha, xp) * _gamma_kernel(alpha, alpha, xp)
        out[series] = 1.0 - lower if upper else lower
    if contfrac.any():
        xp = xs[contfrac]
        tail = _contfrac(alpha, xp) * _gamma_kernel(alpha, alpha, xp)
        out[contfrac] = tail if upper else 1.0 - tail
    unconverged = np.isnan(out)
    if unconverged.any():
        raise DomainError(
            f"{name}({alpha}, {xs[unconverged][0]}) did not converge to "
            f"{_EPS} within {_MAX_ITER} terms"
        )
    # 1 - P carries P's rounding, |lgamma(alpha)| eps at a tiny alpha; [0, 1]
    # holds the true value, so clipping onto it moves no result away from it
    np.clip(out, 0.0, 1.0, out=out)
    return _shaped_like(xs, out)


def reg_inc_gamma_lower(alpha: float, x):
    """Regularized lower incomplete gamma function P(alpha, x).

    Series expansion for x < alpha + 1, continued fraction otherwise, run
    elementwise over ``x``, a float or an array; a float comes back as a
    float.  A point's value depends on that point alone, and lies in [0, 1].
    P(alpha, inf) = 1.  A shape that is not a positive normal float (below
    ``sys.float_info.min`` the series' first term 1 / alpha may overflow),
    non-real (str, None, complex), NaN or negative x, and a recurrence not
    converged within 600 terms, raise :class:`DomainError`: the series at
    x = alpha from alpha of about 5.4e3, the fraction just above alpha + 1 from about 2.8e5.
    """
    return _inc_gamma("reg_inc_gamma_lower", alpha, x, upper=False)


def reg_inc_gamma_upper(alpha: float, x):
    """Regularized upper incomplete gamma function Q(alpha, x) = 1 - P(alpha, x).

    Four regimes.  At 0 < x < 700, where e^-x is a normal float, two
    shapes take a finite sum of positive terms, within 2e-15 relative of
    mpmath: an integer n <= 20 the Poisson sum e^-x sum_{k<n} x**k / k!
    (DLMF 8.4.10), and n + 1/2 with 1 <= n <= 20 the sum erfc(sqrt x) +
    e^-x sum_{k<n} x**(k+1/2) / Gamma(k + 3/2) (DLMF 8.4.6, 8.8.6), with
    one ``math.erfc`` per point.  Either costs n - 1 or n multiply-adds, so
    a float call takes 25-40 us for n <= 4 and about 80 us at n = 20.
    Otherwise Q is computed directly by the continued fraction for
    x >= alpha + 1, so the tail is accurate without cancellation, and as
    1 - P by the series below it.  Shape 1/2 keeps the recurrences: its
    erfc(sqrt x) alone carries the rounding of sqrt x, about x eps.
    ``x`` and the errors are as for :func:`reg_inc_gamma_lower`, and a
    shape that is not a positive normal float raises :class:`DomainError`;
    Q(alpha, inf) = 0.
    """
    return _inc_gamma("reg_inc_gamma_upper", alpha, x, upper=True)


def negbin_pmf_terms(k_max: int, alpha: float, rho: float) -> np.ndarray:
    """Probability masses P(N = j), j = 0..k_max, of the negative binomial.

    Term recursion term_{j+1} = term_j * (alpha + j) / (j + 1) * (1 - rho),
    seeded with rho**alpha evaluated in log space and run as one cumulative
    product, which multiplies in the same order as the scalar recursion.
    Avoids cancellation and supports real alpha.  Raises :class:`DomainError`,
    before any array, unless alpha > 0 is finite, rho is in (0, 1], ``k_max``
    is an integer in [0, ``MAX_FINE_LATTICE``) and rho**alpha >= exp(``_MIN_LOG_SEED``).
    """
    _require_weight_index(k_max)
    alpha, rho = _require_negbin_parameters(alpha, rho)
    log_seed = alpha * math.log(rho)
    if log_seed < _MIN_LOG_SEED:
        raise DomainError(
            f"negative-binomial seed rho**alpha = exp({log_seed:.1f}) underflows at "
            f"alpha={alpha}, rho={rho}: below exp({_MIN_LOG_SEED:.1f}) its subnormal "
            "rounding exceeds 1e-9"
        )
    j = np.arange(k_max, dtype=float)
    factors = np.empty(k_max + 1)
    factors[0] = math.exp(log_seed)
    # (alpha + j) / (j + 1) * (1 - rho), formed in place
    ratios = np.add(j, alpha, out=factors[1:])
    j += 1.0
    ratios /= j
    ratios *= 1.0 - rho
    return np.cumprod(factors, out=factors)


def negbin_logpmf(k: int, alpha: float, rho: float) -> float:
    """Log of the negative-binomial mass at ``k``, in log space throughout.

    Safe for k up to at least 10**6; an index whose log-gamma leaves the
    floats (k above about 2.5e305, or beyond the floats) raises
    ``DomainError``.  ``alpha`` and ``rho`` are refused as in
    :func:`negbin_pmf_terms`.
    """
    k = _require_index(k, "index k")
    alpha, rho = _require_negbin_parameters(alpha, rho)
    if rho == 1.0:
        return 0.0 if k == 0 else -math.inf
    try:
        return (
            math.lgamma(alpha + k)
            - math.lgamma(alpha)
            - math.lgamma(k + 1.0)
            + k * math.log1p(-rho)
            + alpha * math.log(rho)
        )
    except OverflowError:  # int to float, or lgamma past ~2.5e305
        raise DomainError(
            f"index k of {k.bit_length()} bits is too large: its log-gamma overflows the floats"
        ) from None
