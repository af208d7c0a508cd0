import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewinv import (
    DomainError,
    log_gamma,
    negbin_cdf,
    negbin_logpmf,
    negbin_pmf_terms,
    negbin_survival,
    RealShape,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
)

# high-precision references computed with mpmath at 40 digits
LGAMMA_REFERENCE = [
    (0.001, 6.907178885383853682512),
    (0.5, 0.5723649429247000870717),
    (1.5, -0.1207822376352452223455),
    (3.7, 1.428072326665387921872),
    (12.25, 18.11566950571089261902),
    (100.5, 361.4355404677776215553),
    (1e6, 12815504.56914761165998),
]

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


def negbin_terms_loop(k_max, shape):
    """Scalar term recursion, the reference for the cumulative-product kernel."""
    alpha, rho = shape.alpha, shape.rho
    out = np.zeros(k_max + 1)
    out[0] = math.exp(alpha * math.log(rho))
    q = 1.0 - rho
    term = out[0]
    for j in range(k_max):
        term *= (alpha + j) / (j + 1.0) * q
        out[j + 1] = term
    return out


class TestLogGamma:
    def test_gamma_of_one_is_exact(self):
        assert log_gamma(1.0) == 0.0

    def test_factorial_identity(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_half_integer_identity(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    @pytest.mark.parametrize("x,expected", LGAMMA_REFERENCE)
    def test_reference_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, rel=1e-13)

    def test_integer_battery_against_exact_factorials(self):
        for n in range(2, 171):
            ref = math.log(math.factorial(n - 1))
            assert log_gamma(float(n)) == pytest.approx(ref, rel=1e-13)

    def test_half_integer_battery(self):
        # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
        for n in range(1, 120):
            ref = (
                math.log(math.factorial(2 * n))
                - n * math.log(4.0)
                - math.log(math.factorial(n))
                + 0.5 * math.log(math.pi)
            )
            assert log_gamma(n + 0.5) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


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


class TestNegbinCdf:
    def test_geometric_first_term(self):
        assert negbin_cdf(0, RealShape(1.0, 1.0 / 6.0)) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_degenerate_rho_one(self):
        for k in [0, 1, 5, 50]:
            assert negbin_cdf(k, RealShape(2.5, 1.0)) == 1.0

    def test_real_shape_three_terms(self):
        # direct 3-term sum with real binomial coefficients:
        # rho^a (1 + a(1-rho) + a(a+1)/2 (1-rho)^2) at a=1.5, rho=0.5
        expected = 0.5**1.5 * (1.0 + 1.5 * 0.5 + (1.5 * 2.5 / 2.0) * 0.25)
        assert negbin_cdf(2, RealShape(1.5, 0.5)) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.7844465853788261598822, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1, 2, 5])
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_brute_force_integer_shape(self, alpha, rho):
        shape = RealShape(float(alpha), rho)
        for k in range(0, 201, 20):
            brute = math.fsum(
                math.comb(alpha + j - 1, j) * (1.0 - rho) ** j * rho**alpha
                for j in range(k + 1)
            )
            assert abs(negbin_cdf(k, shape) - brute) < 1e-12

    def test_increments_are_nonnegative(self):
        shape = RealShape(1.5, 0.2)
        prev = negbin_cdf(0, shape)
        for k in range(1, 80):
            cur = negbin_cdf(k, shape)
            assert cur - prev >= 0.0
            prev = cur

    def test_tends_to_one(self):
        shape = RealShape(3.3, 0.3)
        assert negbin_cdf(400, shape) == pytest.approx(1.0, abs=1e-12)

    def test_logpmf_no_overflow_at_huge_k(self):
        val = negbin_logpmf(10**6, RealShape(1.5, 0.2))
        assert math.isfinite(val)
        # consistency with the recursion at moderate k
        terms = negbin_pmf_terms(50, RealShape(1.5, 0.2))
        assert math.exp(negbin_logpmf(50, RealShape(1.5, 0.2))) == pytest.approx(
            terms[50], rel=1e-12
        )

    def test_survival_complement(self):
        shape = RealShape(2.2, 0.4)
        for k in [0, 3, 17]:
            assert negbin_survival(k, shape) == pytest.approx(
                1.0 - negbin_cdf(k, shape), abs=1e-15
            )

    def test_invalid_shape(self):
        with pytest.raises(DomainError):
            RealShape(0.0, 0.5)
        with pytest.raises(DomainError):
            RealShape(1.0, 0.0)
        with pytest.raises(DomainError):
            RealShape(1.0, 1.5)
        with pytest.raises(DomainError):
            negbin_cdf(-1, RealShape(1.0, 0.5))

    @pytest.mark.parametrize(
        "k_max,alpha,rho",
        [(0, 1.5, 0.2), (0, 200.0, 1.0 / 101.0), (40, 2.5, 1.0), (1, 1.0, 0.5), (5000, 1.5, 1e-3)],
    )
    def test_terms_bitwise_equal_loop(self, k_max, alpha, rho):
        shape = RealShape(alpha, rho)
        assert np.array_equal(negbin_pmf_terms(k_max, shape), negbin_terms_loop(k_max, shape))

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 300.0),
        rho=st.floats(1e-4, 1.0),
        k=st.integers(0, 3000),
    )
    def test_terms_bitwise_equal_loop_random(self, alpha, rho, k):
        shape = RealShape(alpha, rho)
        assert np.array_equal(negbin_pmf_terms(k, shape), negbin_terms_loop(k, shape))

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 50.0),
        rho=st.floats(0.01, 1.0),
        k=st.integers(0, 150),
    )
    def test_cdf_is_a_probability(self, alpha, rho, k):
        val = negbin_cdf(k, RealShape(alpha, rho))
        assert 0.0 <= val <= 1.0
        assert val >= negbin_cdf(max(k - 1, 0), RealShape(alpha, rho)) - 1e-12
