import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import scalar_reference
from renewinv import (
    DomainError,
    negbin_logpmf,
    negbin_pmf_terms,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
    specfun,
)

# high-precision references computed with mpmath at 40 digits
REG_GAMMA_REFERENCE = [
    (0.5, 0.25, 0.5204998778130465376827),
    (1.5, 2.0, 0.7385358700508893777972),
    (2.0, 1.0, 0.264241117657115356809),
    (3.7, 3.7, 0.5691729352471954108327),
    (10.0, 4.0, 0.00813224279693386315568),
    (10.0, 25.0, 0.9997785233617512164188),
    (0.5, 10.0, 0.9999922557835689559164),
    (25.0, 12.0, 0.0006856332013882278025113),
]


def negbin_cdf(k, alpha, rho):
    """P(N <= k): the masses 0..k summed exactly."""
    return math.fsum(negbin_pmf_terms(k, alpha, rho))


def negbin_terms_allocating(k_max, alpha, rho):
    """The kernel's arithmetic in allocating form: a fresh array per operation."""
    j = np.arange(k_max, dtype=float)
    factors = np.empty(k_max + 1)
    factors[0] = math.exp(alpha * math.log(rho))
    factors[1:] = (alpha + j) / (j + 1.0) * (1.0 - rho)
    return np.cumprod(factors)


def negbin_terms_loop(k_max, alpha, rho):
    """Scalar term recursion, the reference for the cumulative-product kernel."""
    out = np.zeros(k_max + 1)
    out[0] = math.exp(alpha * math.log(rho))
    q = 1.0 - rho
    term = out[0]
    for j in range(k_max):
        term *= (alpha + j) / (j + 1.0) * q
        out[j + 1] = term
    return out


class TestRegIncGamma:
    def test_exponential_cdf_identity(self):
        for x in [0.01, 0.5, 1.0, 3.0, 10.0, 40.0]:
            assert reg_inc_gamma_lower(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-13)

    def test_shape_two_closed_form(self):
        assert reg_inc_gamma_lower(2.0, 1.0) == pytest.approx(1.0 - 2.0 / math.e, rel=1e-12)

    def test_zero_argument(self):
        assert reg_inc_gamma_lower(0.5, 0.0) == 0.0
        assert reg_inc_gamma_upper(0.5, 0.0) == 1.0

    def test_erf_identity(self):
        for x in [0.1, 0.5, 1.0, 2.0, 5.0]:
            assert reg_inc_gamma_lower(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), rel=1e-12)

    @pytest.mark.parametrize("alpha,x,expected", REG_GAMMA_REFERENCE)
    def test_reference_values(self, alpha, x, expected):
        assert reg_inc_gamma_lower(alpha, x) == pytest.approx(expected, rel=1e-12)

    def test_complement_identity(self):
        for alpha in [0.3, 1.0, 1.5, 4.0, 25.0, 120.0]:
            for x in [0.1, 1.0, alpha, 2.0 * alpha + 3.0]:
                total = reg_inc_gamma_lower(alpha, x) + reg_inc_gamma_upper(alpha, x)
                assert total == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_x(self):
        xs = [0.0, 0.2, 1.0, 2.5, 7.0, 20.0]
        vals = [reg_inc_gamma_lower(3.2, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(1.0, -1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_upper(-2.0, 1.0)
        for alpha in (math.inf, math.nan):
            with pytest.raises(DomainError):
                reg_inc_gamma_lower(alpha, 1.0)

    def test_limit_at_infinity(self):
        assert reg_inc_gamma_lower(1.5, math.inf) == 1.0
        assert reg_inc_gamma_upper(1.5, math.inf) == 0.0
        x = np.array([0.0, math.inf])
        assert np.array_equal(reg_inc_gamma_lower(1.5, x), [0.0, 1.0])
        assert np.array_equal(reg_inc_gamma_upper(1.5, x), [1.0, 0.0])

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    @pytest.mark.parametrize("x", [math.nan, -1.0, np.array([1.0, math.nan]), np.array([2.0, -1e-300])])
    def test_nan_or_negative_raises(self, fn, x):
        with pytest.raises(DomainError):
            fn(1.5, x)


# x = alpha + 1 splits the series from the continued fraction; at x = 700
# the upper tail is near the bottom of the normal range, at 1e3 it is 0
ARRAY_ALPHAS = [0.5, 1.0, 1.5, 2.0, 4.0]


def array_points(alpha):
    split = alpha + 1.0
    return np.array([
        0.0, 1e-12, 1e-3, 0.5 * split, np.nextafter(split, 0.0), split,
        np.nextafter(split, math.inf), 2.0 * split, 30.0, 700.0, 1e3,
    ])


# the scalar loop reference of each package function
SCALAR_REFERENCE = {
    reg_inc_gamma_lower: scalar_reference.reg_inc_gamma_lower,
    reg_inc_gamma_upper: scalar_reference.reg_inc_gamma_upper,
}


def mpmath_upper(alpha, x):
    """Q(alpha, x) by mpmath at 40 digits, rounded to floats, at each point of x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return np.array([
            float(mpmath.gammainc(a, mpmath.mpf(v), mpmath.inf, regularized=True))
            for v in np.ravel(x).tolist()
        ])


def takes_finite_sum(fn, alpha, x):
    """Where fn takes the finite sum: the upper function at a shape n or n + 1/2
    from 1 to 20.5 and 0 < x < 700."""
    x = np.asarray(x, dtype=float)
    if fn is not reg_inc_gamma_upper or not 1.0 <= alpha <= 20.5 or not (2.0 * alpha).is_integer():
        return np.zeros(x.shape, dtype=bool)
    return (x > 0.0) & (x < 700.0)


def kernel_reference(fn, alpha, x):
    """The scalar loop at each point of x, and mpmath where fn takes the finite
    sum: there the loop's own exponent rounding, up to about x eps, exceeds the
    sum's error (at alpha = 1, x = 168 the loop errs by 1.2e-14 relative)."""
    x = np.asarray(x, dtype=float)
    ref = np.array([SCALAR_REFERENCE[fn](alpha, v) for v in x.tolist()])
    finite = takes_finite_sum(fn, alpha, x)
    if finite.any():
        ref[finite] = mpmath_upper(alpha, x[finite])
    return ref


class TestRegIncGammaArray:
    """The elementwise kernel matches the scalar loop reference, float calls
    included; the finite sum of shapes n and n + 1/2 matches mpmath."""

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    @pytest.mark.parametrize("alpha", ARRAY_ALPHAS)
    def test_matches_scalar_path(self, fn, alpha):
        x = array_points(alpha)
        scalar = kernel_reference(fn, alpha, x)
        np.testing.assert_allclose(fn(alpha, x), scalar, rtol=1e-14, atol=0.0)
        # a float is a one-element array of the same kernel and comes back a float
        floats = [fn(alpha, v) for v in [*x.tolist(), math.inf]]
        assert all(type(value) is float for value in floats)
        np.testing.assert_array_equal(floats[:-1], fn(alpha, x))

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    def test_shape_is_kept(self, fn):
        x = np.array([[0.0, 1.0, 5.0], [40.0, 0.2, math.inf]])
        out = fn(2.5, x)
        assert out.shape == x.shape
        assert np.array_equal(out.ravel(), fn(2.5, x.ravel()))

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    def test_empty_array(self, fn):
        assert fn(1.5, np.array([])).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.5, 4.0),
        xs=st.lists(st.floats(0.0, 800.0), min_size=1, max_size=40),
    )
    # np.log and math.log round log x one ulp apart there, and the shared
    # prefactor exp(alpha log x - ...) carries it: P differs by 1.41e-14
    # relative, and mpmath puts the true value between the two paths
    @example(alpha=2.0, xs=[2.1053271533568435e-19])
    # the scalar loop's exponent -x + log x - lgamma(1) rounds there, and its
    # value errs by 1.2e-14 relative, past the 1.1e-14 tolerance; the Poisson
    # sum is read against mpmath
    @example(alpha=1.0, xs=[168.0])
    @example(alpha=1.5, xs=[0.25, 2.5, 699.0])
    def test_matches_scalar_path_random(self, alpha, xs):
        x = np.array(xs)
        # widened per point only by the prefactor's conditioning |alpha log x| eps
        log_x = np.log(np.where(x > 0.0, x, 1.0))
        rtol = 1e-14 + np.abs(alpha * log_x) * 2.0**-52
        for fn in (reg_inc_gamma_lower, reg_inc_gamma_upper):
            scalar = kernel_reference(fn, alpha, x)
            got = fn(alpha, x)
            assert np.all(np.abs(got - scalar) <= rtol * np.abs(scalar)), (fn.__name__, got, scalar)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.7, 10.0])
    def test_against_scipy(self, alpha):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(0.01, 3.0 * alpha + 20.0, 400)
        np.testing.assert_allclose(reg_inc_gamma_lower(alpha, x), special.gammainc(alpha, x),
                                   rtol=1e-13)
        np.testing.assert_allclose(reg_inc_gamma_upper(alpha, x), special.gammaincc(alpha, x),
                                   rtol=1e-13)


# shapes of the accuracy gate: the table shapes, a seeded-mixture shape
# (seed 11) and large ones, where the fraction converges slowest near the split
ACCURACY_ALPHAS = [0.5, 1.0, 1.5, 2.8044950728700724, 7.3, 30.0, 200.0, 1000.0]
ULP = 2.0**-52


def accuracy_points(alpha):
    split = alpha + 1.0
    below = split * np.array([1e-6, 0.01, 0.1, 0.3, 0.5, 0.8, 0.95, 0.99, 0.999999])
    near = [np.nextafter(split, 0.0), split, np.nextafter(split, math.inf)]
    above = split + np.array([1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    far = split * np.array([1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0])
    return np.concatenate([below, near, above, far])


def rel_err(value, exact):
    return float(abs((value - exact) / exact))


class TestRegIncGammaAccuracy:
    """The array kernel is no less accurate than the scalar loop, against mpmath."""

    @pytest.mark.parametrize("alpha", ACCURACY_ALPHAS)
    def test_no_less_accurate_than_scalar_loop(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        x = accuracy_points(alpha)
        series = x < alpha + 1.0
        recurrence = np.empty(x.size)
        recurrence[series] = specfun._series(alpha, x[series])
        recurrence[~series] = specfun._contfrac(alpha, x[~series])
        publics = [
            (reg_inc_gamma_lower, reg_inc_gamma_lower(alpha, x), False),
            (reg_inc_gamma_upper, reg_inc_gamma_upper(alpha, x), True),
        ]
        worst = {fn: [0.0, 0.0] for fn, _, _ in publics}
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            for j, v in enumerate(x.tolist()):
                xv = mpmath.mpf(v)
                lower = mpmath.gammainc(a, 0, xv)
                upper = mpmath.gammainc(a, xv, mpmath.inf)
                # each recurrence has the prefactor exp(-x) x**alpha / Gamma(alpha)
                # divided out; its rounding, shared by both paths and growing
                # like |alpha log x| eps, would otherwise swamp theirs
                exact = (lower if series[j] else upper) * mpmath.exp(xv) / xv**a
                loop = scalar_reference.series if series[j] else scalar_reference.contfrac
                err, ref_err = rel_err(recurrence[j], exact), rel_err(loop(alpha, v), exact)
                assert err <= ref_err + 2 * ULP, (loop.__name__, alpha, v, err, ref_err)
                for fn, values, up in publics:
                    exact = (upper if up else lower) / mpmath.gamma(a)
                    worst[fn][0] = max(worst[fn][0], rel_err(values[j], exact))
                    worst[fn][1] = max(worst[fn][1], rel_err(SCALAR_REFERENCE[fn](alpha, v), exact))
        # through the public functions, prefactor included, the worst error
        # over the points is no larger than the scalar loop's
        for fn, (err, ref_err) in worst.items():
            assert err <= ref_err + 2 * ULP, (fn.__name__, alpha, err, ref_err)


def poisson_points(n):
    """Points below, at and above the split n + 1, up to 699.99."""
    split = n + 1.0
    below = split * np.array([1e-300, 1e-6, 0.01, 0.3, 0.9, 0.999999])
    near = [np.nextafter(split, 0.0), split, np.nextafter(split, math.inf)]
    above = np.array([1.000001 * split, 1.5 * split, 3.0 * split, 100.0, 300.0, 600.0, 699.99])
    return np.concatenate([below, near, above])


def spy_recurrences(monkeypatch):
    """Record (name, alpha, points) of each call to the series or the fraction."""
    calls = []
    for name in ("_series", "_contfrac"):
        def counted(alpha, x, real=getattr(specfun, name), name=name):
            calls.append((name, alpha, x.size))
            return real(alpha, x)

        monkeypatch.setattr(specfun, name, counted)
    return calls


def recurrence_upper(alpha, x):
    """Q(alpha, x) at points 0 < x < inf as the series and fraction take it."""
    series = x < alpha + 1.0
    out = np.empty(x.size)
    out[series] = 1.0 - specfun._series(alpha, x[series]) * specfun._gamma_kernel(alpha, alpha, x[series])
    out[~series] = specfun._contfrac(alpha, x[~series]) * specfun._gamma_kernel(alpha, alpha, x[~series])
    return out


class TestRegIncGammaPoissonSum:
    """An integer shape n <= 20 takes Q(n, x) below x = 700 as the finite sum
    e^-x sum_{k<n} x**k / k!; every other point keeps the recurrences."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_accuracy_against_mpmath(self, n):
        x = poisson_points(n)
        got = reg_inc_gamma_upper(float(n), x)
        np.testing.assert_allclose(got, mpmath_upper(float(n), x), rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1.0, 4.0, 20.0])
    def test_no_recurrence_below_700(self, n, monkeypatch):
        calls = spy_recurrences(monkeypatch)
        reg_inc_gamma_upper(n, poisson_points(n))
        reg_inc_gamma_upper(n, 5.0)
        assert calls == []

    @pytest.mark.parametrize("alpha", [0.5, 1.25, 21.0, 21.5])
    def test_other_shapes_keep_the_recurrences(self, alpha, monkeypatch):
        x = poisson_points(alpha)
        expected = recurrence_upper(alpha, x)
        calls = spy_recurrences(monkeypatch)
        assert np.array_equal(reg_inc_gamma_upper(alpha, x), expected)
        assert {name for name, _, _ in calls} == {"_series", "_contfrac"}

    def test_lower_keeps_the_recurrences(self, monkeypatch):
        calls = spy_recurrences(monkeypatch)
        reg_inc_gamma_lower(1.0, poisson_points(1.0))
        assert {name for name, _, _ in calls} == {"_series", "_contfrac"}

    @pytest.mark.parametrize("n", [1.0, 20.0])
    def test_both_sides_of_700(self, n, monkeypatch):
        below, at = np.nextafter(700.0, 0.0), np.array([700.0, 700.5, 745.0, 800.0])
        np.testing.assert_allclose(reg_inc_gamma_upper(n, below), mpmath_upper(n, below), rtol=2e-15)
        expected = recurrence_upper(n, at)
        calls = spy_recurrences(monkeypatch)
        assert np.array_equal(reg_inc_gamma_upper(n, at), expected)
        assert calls == [("_contfrac", n, at.size)]

    def test_shape_20_against_21(self):
        # Q(21, x) = Q(20, x) + e^-x x**20 / 20!: the sum at 20 and the
        # recurrences at 21 agree with that step
        x = np.array([0.5, 10.0, 21.0, 22.0, 40.0, 200.0])
        step = np.exp(-x + 20.0 * np.log(x) - math.lgamma(21.0))
        np.testing.assert_allclose(reg_inc_gamma_upper(21.0, x), reg_inc_gamma_upper(20.0, x) + step,
                                   rtol=1e-13)

    def test_limits_floats_and_shapes(self):
        assert_limits_floats_and_shapes(3, math.exp(-2.5) * (1.0 + 2.5 + 2.5**2 / 2.0))


def assert_limits_floats_and_shapes(alpha, q_at_2_5):
    """Q(alpha, 0) = 1 and Q(alpha, inf) = 0; a float point gives a float,
    Q(alpha, 2.5) to 2e-15 relative; a 2-d array keeps its shape, and each
    point has the value it has flat and alone."""
    assert reg_inc_gamma_upper(alpha, 0.0) == 1.0
    assert reg_inc_gamma_upper(alpha, math.inf) == 0.0
    value = reg_inc_gamma_upper(alpha, 2.5)
    assert type(value) is float
    assert value == pytest.approx(q_at_2_5, rel=2e-15)
    x = np.array([[0.0, 1.0, 5.0], [40.0, 699.0, math.inf], [700.0, 0.2, 1e3]])
    out = reg_inc_gamma_upper(alpha, x)
    assert out.shape == x.shape
    assert np.array_equal(out.ravel(), reg_inc_gamma_upper(alpha, x.ravel()))
    assert np.array_equal(out.ravel(), [reg_inc_gamma_upper(alpha, v) for v in x.ravel()])


HALF_INTEGER_SHAPES = [n + 0.5 for n in range(1, 21)]


class TestRegIncGammaHalfIntegerSum:
    """A shape n + 1/2 with 1 <= n <= 20 takes Q below x = 700 as
    erfc(sqrt x) + e^-x sum_{k<n} x**(k+1/2) / Gamma(k + 3/2); shape 1/2,
    other shapes, the lower function and x >= 700 keep the recurrences."""

    @pytest.mark.parametrize("alpha", HALF_INTEGER_SHAPES)
    def test_accuracy_against_mpmath(self, alpha):
        x = np.concatenate([poisson_points(alpha), np.geomspace(1e-12, 699.99, 60)])
        exact = mpmath_upper(alpha, x)
        got = reg_inc_gamma_upper(alpha, x)
        np.testing.assert_allclose(got, exact, rtol=2e-15, atol=0.0)
        # and no point further from mpmath than the recurrences, beyond 1e-15
        recurrence_err = np.abs(recurrence_upper(alpha, x) - exact) / exact
        assert np.all(np.abs(got - exact) / exact <= recurrence_err + 1e-15)

    @pytest.mark.parametrize("alpha", [1.5, 20.5])
    def test_no_recurrence_below_700(self, alpha, monkeypatch):
        calls = spy_recurrences(monkeypatch)
        reg_inc_gamma_upper(alpha, poisson_points(alpha))
        reg_inc_gamma_upper(alpha, 5.0)
        assert calls == []

    def test_lower_keeps_the_recurrences(self, monkeypatch):
        calls = spy_recurrences(monkeypatch)
        reg_inc_gamma_lower(1.5, poisson_points(1.0))
        assert {name for name, _, _ in calls} == {"_series", "_contfrac"}

    @pytest.mark.parametrize("alpha", [1.5, 20.5])
    def test_both_sides_of_700(self, alpha, monkeypatch):
        below, at = np.nextafter(700.0, 0.0), np.array([700.0, 700.5, 745.0, 800.0])
        np.testing.assert_allclose(reg_inc_gamma_upper(alpha, below), mpmath_upper(alpha, below),
                                   rtol=2e-15)
        expected = recurrence_upper(alpha, at)
        calls = spy_recurrences(monkeypatch)
        assert np.array_equal(reg_inc_gamma_upper(alpha, at), expected)
        assert calls == [("_contfrac", alpha, at.size)]

    def test_shape_20_5_against_21_5(self):
        # Q(21.5, x) = Q(20.5, x) + e^-x x**20.5 / Gamma(21.5) (DLMF 8.8.6): the
        # sum at 20.5 and the recurrences at 21.5 agree with that step
        x = np.array([0.5, 10.0, 21.5, 22.5, 40.0, 200.0])
        step = np.exp(-x + 20.5 * np.log(x) - math.lgamma(21.5))
        np.testing.assert_allclose(reg_inc_gamma_upper(21.5, x), reg_inc_gamma_upper(20.5, x) + step,
                                   rtol=1e-13)

    def test_limits_floats_and_shapes(self):
        q = math.erfc(math.sqrt(2.5)) + 2.0 * math.sqrt(2.5 / math.pi) * math.exp(-2.5)
        assert_limits_floats_and_shapes(1.5, q)


class TestRegIncGammaTinyShapes:
    """1 - P carries |lgamma(alpha)| eps of P's rounding: both results are
    clipped onto [0, 1], which holds the true value."""

    @pytest.mark.parametrize("alpha", [1e-300, 1e-200, 1e-20])
    def test_within_unit_interval_against_mpmath(self, alpha):
        x = np.array([1e-300, 1e-200, 1e-20, 1e-5, 0.5, 1.0, 3.0, 40.0])
        upper = mpmath_upper(alpha, x)
        for got, exact in ((reg_inc_gamma_lower(alpha, x), 1.0 - upper),
                           (reg_inc_gamma_upper(alpha, x), upper)):
            assert np.all((got >= 0.0) & (got <= 1.0)), got
            np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-13)

    def test_reported_points(self):
        # these read 1.0000000000000235, -2.35e-14 and 1.000000000000003
        assert reg_inc_gamma_lower(1e-300, 1e-300) == 1.0
        assert reg_inc_gamma_upper(1e-300, 1e-300) == 0.0
        assert reg_inc_gamma_lower(1e-200, 1e-5) == 1.0


class TestRegIncGammaIndependence:
    """A point's value depends on the point alone, not on the array around it."""

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.8044950728700724, 30.0])
    def test_point_value_is_independent_of_neighbours(self, fn, alpha):
        rng = np.random.default_rng(12)
        grid = np.linspace(0.0, 6.0 * (alpha + 1.0), 4096)
        on_grid = fn(alpha, grid)
        perm = rng.permutation(grid.size)
        assert np.array_equal(fn(alpha, grid[perm]), on_grid[perm])
        # the whole grid again, in 64 random chunks among as many random points
        cuts = np.sort(rng.choice(np.arange(1, grid.size), 63, replace=False))
        for chunk in np.split(perm, cuts):
            others = rng.uniform(0.0, 8.0 * (alpha + 1.0), chunk.size)
            mixed = fn(alpha, np.concatenate([grid[chunk], others]))
            assert np.array_equal(mixed[: chunk.size], on_grid[chunk])
        picks = [*rng.choice(grid.size, 12, replace=False), int(np.searchsorted(grid, alpha + 1.0))]
        for k in picks:
            others = rng.uniform(0.0, 8.0 * (alpha + 1.0), 300)
            at = int(rng.integers(0, others.size + 1))
            inside = fn(alpha, np.insert(others, at, grid[k]))[at]
            alone = fn(alpha, float(grid[k]))
            assert alone == on_grid[k] == inside, (grid[k], alone, on_grid[k], inside)


class TestRegIncGammaConvergence:
    """A recurrence that runs out of terms raises; it never answers silently."""

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    @pytest.mark.parametrize("x", [1e5, np.array([1.0, 1e5, 2e5])])
    def test_unconverged_raises(self, fn, x):
        # the series at x = alpha = 1e5 needs about 2,700 terms, the limit is 600
        with pytest.raises(DomainError, match="did not converge"):
            fn(1e5, x)

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    @pytest.mark.parametrize("x", [2.25 + 1e-6, np.array([1.0, 2.25 + 1e-6, 40.0])])
    def test_unconverged_contfrac_raises(self, fn, x, monkeypatch):
        # at alpha = 1.25 just above the split the fraction needs depth ~39;
        # with an 8-term limit the doubling stops at 8 and the point raises
        # (a shape outside the finite sum, which needs no fraction below 700)
        monkeypatch.setattr(specfun, "_MAX_ITER", 8)
        with pytest.raises(DomainError, match="did not converge.*within 8 terms"):
            fn(1.25, x)

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    @pytest.mark.parametrize("alpha", [1e49, 1e50, 1e300])
    def test_huge_shapes_refuse_without_a_warning(self, fn, alpha):
        # from alpha ~ 1e49, alpha**(2/3) + x - alpha rounds to 0 at x = alpha,
        # and the first-depth fit's division by it warned before the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="did not converge"):
                fn(alpha, alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.25, 7.3, 200.0])
    def test_depth_doubling_converges(self, alpha, monkeypatch):
        # every point starts at depth 1 and doubles until its depth-N and
        # depth-(N-1) values agree, several rounds deep; the answers match
        # the fitted first depths' to rounding
        x = (alpha + 1.0) * np.array([1.0, 1.0 + 1e-6, 1.01, 1.3, 2.0, 5.0, 40.0])
        fitted = reg_inc_gamma_upper(alpha, x)
        rounds = []
        tails = specfun._contfrac_tails

        def counted(a, b0, depth):
            rounds.append(int(depth.max()))
            return tails(a, b0, depth)

        monkeypatch.setattr(specfun, "_contfrac_depth", lambda a, v, cap: np.ones(v.size, np.int16))
        monkeypatch.setattr(specfun, "_contfrac_tails", counted)
        np.testing.assert_allclose(reg_inc_gamma_upper(alpha, x), fitted, rtol=1e-15, atol=0.0)
        assert rounds[:4] == [1, 2, 4, 8]

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    @pytest.mark.parametrize("alpha", [1e-320, 5e-324, 1e-308])
    @pytest.mark.parametrize("x", [0.5, 5e-324, np.array([5e-324, 0.5, 3.0])])
    def test_subnormal_shape_refused_without_a_warning(self, fn, alpha, x):
        # below the normal floats the series' first term 1 / alpha can
        # overflow: at 1e-320 it did, and the call warned at x = 5e-324 and
        # refused as "did not converge"; every subnormal shape is refused by name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = re.escape(f"shape alpha {alpha!r} is not a positive normal float")
            with pytest.raises(DomainError, match=message):
                fn(alpha, x)

    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    def test_smallest_normal_shape_answers(self, fn):
        value = fn(sys.float_info.min, np.array([5e-324, 0.5, 3.0]))
        assert np.all((value >= 0.0) & (value <= 1.0))

    @pytest.mark.parametrize("alpha", [0.5, 10.0, 100.0, 1e3])
    def test_large_shapes_against_scipy(self, alpha):
        # the log prefactor -x + alpha log x - lgamma(alpha) cancels terms of
        # size ~7 alpha, so the absolute error grows with alpha: 3.9e-13 at 1e3
        special = pytest.importorskip("scipy.special")
        x = np.linspace(0.5 * alpha, 2.0 * alpha + 2.0, 301)
        np.testing.assert_allclose(reg_inc_gamma_lower(alpha, x), special.gammainc(alpha, x),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(reg_inc_gamma_upper(alpha, x), special.gammaincc(alpha, x),
                                   rtol=0.0, atol=1e-12)


def inc_gamma_reference(name, alpha, x, upper):
    """``specfun._inc_gamma`` as it was before it skipped the masks of regimes
    that hold no point and clipped in place.

    Verbatim but for the ``specfun.`` prefixes: the series and fraction
    masks, their ``any()`` calls and the NaN scan run on every call, and the
    result is clipped by ``np.clip``.  The reference both incomplete gammas
    must equal bit for bit.
    """
    alpha = specfun._require_positive(alpha, "shape alpha")
    if alpha < sys.float_info.min:  # 1 / alpha, the series' first term, may overflow
        raise DomainError(f"{name} shape alpha {alpha!r} is not a positive normal float")
    xs = specfun._real_array(x, f"{name} point x")
    bad = ~(xs >= 0)
    if bad.any():
        raise DomainError(f"{name} requires x >= 0, got {xs[bad][0]}")
    inner = (xs > 0.0) & (xs < math.inf)
    out = np.where(xs == 0.0, 1.0, 0.0) if upper else np.where(xs == math.inf, 1.0, 0.0)
    if upper and 1.0 <= alpha <= specfun._FINITE_SUM_MAX_SHAPE and (2.0 * alpha).is_integer():
        finite = inner & (xs < specfun._FINITE_SUM_MAX_X)
        if finite.any():
            out[finite] = specfun._finite_sum(alpha, xs[finite])
            inner &= ~finite
    series = inner & (xs < alpha + 1.0)
    contfrac = inner & (xs >= alpha + 1.0)
    if series.any():
        xp = xs[series]
        lower = specfun._series(alpha, xp) * specfun._gamma_kernel(alpha, alpha, xp)
        out[series] = 1.0 - lower if upper else lower
    if contfrac.any():
        xp = xs[contfrac]
        tail = specfun._contfrac(alpha, xp) * specfun._gamma_kernel(alpha, alpha, xp)
        out[contfrac] = tail if upper else 1.0 - tail
    unconverged = np.isnan(out)
    if unconverged.any():
        raise DomainError(
            f"{name}({alpha}, {xs[unconverged][0]}) did not converge to "
            f"{specfun._EPS} within {specfun._MAX_ITER} terms"
        )
    # 1 - P carries P's rounding, |lgamma(alpha)| eps at a tiny alpha; [0, 1]
    # holds the true value, so clipping onto it moves no result away from it
    np.clip(out, 0.0, 1.0, out=out)
    return specfun._shaped_like(xs, out)


BITS_SHAPES = [1e-300, 0.5, 1.25] + [k / 2.0 for k in range(2, 42)] + [21.0, 21.5, 100.0, 4000.0]


def outcome(fn, *args):
    """(type, shape, bytes) of fn's value, or (type, message) of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), np.shape(value), np.asarray(value).tobytes()


class TestRegIncGammaBits:
    """Both incomplete gammas equal ``inc_gamma_reference`` bit for bit, and
    raise what it raises, on floats, 0-d, 1-d and 2-d arrays, arrays whose
    points all lie in one regime and mixed arrays."""

    @pytest.mark.parametrize("alpha", BITS_SHAPES)
    @pytest.mark.parametrize("fn", [reg_inc_gamma_lower, reg_inc_gamma_upper])
    def test_equals_reference(self, fn, alpha):
        upper = fn is reg_inc_gamma_upper
        points = [0.0, 5e-324, 0.5, alpha - 1.0, alpha + 1.0, 699.99, 700.0, 1e4, math.inf]
        refused = [math.nan, -1.0] + [x for x in points if x < 0.0]
        points = [x for x in points if x >= 0.0]
        xs = np.array(points)
        inner = (xs > 0.0) & (xs < math.inf)
        regimes = [
            xs[~inner],  # 0 and inf only
            xs[inner & (xs < 700.0)],  # all in the finite sum, where the shape takes it
            xs[inner & (xs < alpha + 1.0)],  # all in the series range
            xs[inner & (xs >= alpha + 1.0)],  # all in the fraction range
            np.array([]),
        ]
        cases = (
            points + refused + [np.array(x) for x in points + refused] + regimes
            + [xs, xs[::-1], xs.reshape(1, -1), np.array([points, points[::-1]]),
               np.array([[0.5, math.nan]]), np.array([1.0, -1.0])]
        )
        for x in cases:
            expected = outcome(inc_gamma_reference, fn.__name__, alpha, x, upper)
            assert outcome(fn, alpha, x) == expected, x


class TestNegbinCdf:
    def test_geometric_first_term(self):
        assert negbin_cdf(0, 1.0, 1.0 / 6.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_degenerate_rho_one(self):
        for k in [0, 1, 5, 50]:
            assert negbin_cdf(k, 2.5, 1.0) == 1.0

    def test_real_shape_three_terms(self):
        # direct 3-term sum with real binomial coefficients:
        # rho^a (1 + a(1-rho) + a(a+1)/2 (1-rho)^2) at a=1.5, rho=0.5
        expected = 0.5**1.5 * (1.0 + 1.5 * 0.5 + (1.5 * 2.5 / 2.0) * 0.25)
        assert negbin_cdf(2, 1.5, 0.5) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.7844465853788261598822, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1, 2, 5])
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_brute_force_integer_shape(self, alpha, rho):
        for k in range(0, 201, 20):
            brute = math.fsum(
                math.comb(alpha + j - 1, j) * (1.0 - rho) ** j * rho**alpha
                for j in range(k + 1)
            )
            assert abs(negbin_cdf(k, float(alpha), rho) - brute) < 1e-12

    def test_increments_are_nonnegative(self):
        prev = negbin_cdf(0, 1.5, 0.2)
        for k in range(1, 80):
            cur = negbin_cdf(k, 1.5, 0.2)
            assert cur - prev >= 0.0
            prev = cur

    def test_tends_to_one(self):
        assert negbin_cdf(400, 3.3, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_logpmf_no_overflow_at_huge_k(self):
        val = negbin_logpmf(10**6, 1.5, 0.2)
        assert math.isfinite(val)
        # consistency with the recursion at moderate k
        terms = negbin_pmf_terms(50, 1.5, 0.2)
        assert math.exp(negbin_logpmf(50, 1.5, 0.2)) == pytest.approx(
            terms[50], rel=1e-12
        )

    def test_survival_complement(self):
        terms = negbin_pmf_terms(400, 2.2, 0.4)
        for k in [0, 3, 17]:
            assert math.fsum(terms[k + 1:]) == pytest.approx(
                1.0 - negbin_cdf(k, 2.2, 0.4), abs=1e-15
            )

    @pytest.mark.parametrize(
        "k_max,alpha,rho,match",
        [
            (3, 0.0, 0.5, "alpha"),
            (3, math.inf, 0.5, "alpha"),
            (3, math.nan, 0.5, "alpha"),
            (3, 1.0, 0.0, "rho"),
            (3, 1.0, 1.5, "rho"),
            (3, 1.0, math.nan, "rho"),
            (-1, 1.0, 0.5, ">= 0"),
            (2.5, 1.0, 0.5, "must be an integer"),
            (None, 1.0, 0.5, "must be an integer"),
            (specfun.MAX_FINE_LATTICE, 1.0, 0.5, "more than the limit"),
            # once asked numpy for 7.28 TiB
            (10**12, 1.0, 0.5, "more than the limit"),
            # 101**-200 = exp(-923.0): its terms used to come back all zero
            (0, 200.0, 1.0 / 101.0, "underflow"),
            (10000, 400.0, 0.1, "underflow"),
        ],
    )
    def test_invalid_shape(self, monkeypatch, k_max, alpha, rho, match):
        # refused before the kernel touches numpy, so before any array
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} reached before the refusal")

        monkeypatch.setattr(specfun, "np", NoArrays())
        with pytest.raises(DomainError, match=match):
            negbin_pmf_terms(k_max, alpha, rho)

    @pytest.mark.parametrize(
        "alpha,rho", [(math.inf, 0.5), (math.nan, 0.5), (0.0, 0.5), (1.0, 0.0), (1.0, 1.5)]
    )
    def test_logpmf_invalid_shape(self, alpha, rho):
        # alpha = inf used to give a NaN log mass
        with pytest.raises(DomainError):
            negbin_logpmf(3, alpha, rho)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -1, 2.5])
    def test_logpmf_invalid_index(self, k):
        # NaN and inf used to raise raw ValueError and OverflowError from int()
        with pytest.raises(DomainError, match="an integer >= 0"):
            negbin_logpmf(k, 1.5, 0.5)

    @pytest.mark.parametrize("k", [10**400, int(1.7e308)], ids=["10**400", "1.7e308"])
    def test_logpmf_index_past_the_floats_refused(self, k):
        # 10**400 used to raise a raw OverflowError converting alpha + k to a
        # float, 1.7e308 one from math.lgamma, which overflows past ~2.5e305
        with pytest.raises(DomainError, match="index k of .* bits is too large"):
            negbin_logpmf(k, 1.5, 0.5)

    def test_logpmf_large_index_below_the_limit(self):
        assert negbin_logpmf(10**305, 1.5, 0.5) == pytest.approx(1e305 * math.log(0.5), rel=1e-12)

    @pytest.mark.parametrize(
        "k_max,alpha,rho",
        [(0, 1.5, 0.2), (40, 2.5, 1.0), (1, 1.0, 0.5), (5000, 1.5, 1e-3)],
    )
    def test_terms_bitwise_equal_loop(self, k_max, alpha, rho):
        got = negbin_pmf_terms(k_max, alpha, rho)
        assert np.array_equal(got, negbin_terms_loop(k_max, alpha, rho))
        assert np.array_equal(got, negbin_terms_allocating(k_max, alpha, rho))

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 300.0),
        rho=st.floats(1e-4, 1.0),
        k=st.integers(0, 3000),
    )
    def test_terms_bitwise_equal_loop_random(self, alpha, rho, k):
        # the seeds the kernel accepts; test_underflowing_seed_refused_random
        # draws the rest
        assume(alpha * math.log(rho) >= specfun._MIN_LOG_SEED)
        got = negbin_pmf_terms(k, alpha, rho)
        assert np.array_equal(got, negbin_terms_loop(k, alpha, rho))
        assert np.array_equal(got, negbin_terms_allocating(k, alpha, rho))

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(1e-300, 0.999),
        excess=st.floats(1.0 + 1e-9, 10.0),
        k=st.integers(0, 3000),
    )
    def test_underflowing_seed_refused_random(self, rho, excess, k):
        # alpha * log(rho) = excess * _MIN_LOG_SEED, below the smallest log seed
        alpha = excess * specfun._MIN_LOG_SEED / math.log(rho)
        with pytest.raises(DomainError, match="underflow"):
            negbin_pmf_terms(k, alpha, rho)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 50.0),
        rho=st.floats(0.01, 1.0),
        k=st.integers(0, 150),
    )
    def test_cdf_is_a_probability(self, alpha, rho, k):
        # the exact sum of rounded masses may pass 1 by a few ulp (6.4e-15
        # seen over 20,000 random draws in this range)
        val = negbin_cdf(k, alpha, rho)
        assert 0.0 <= val <= 1.0 + 1e-12
        assert val >= negbin_cdf(max(k - 1, 0), alpha, rho) - 1e-12
