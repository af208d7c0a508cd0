import math

import numpy as np
import pytest

import oracles
from oracles import (
    closed_form_lstar_exponential_ruin,
    convolution_renewal_solve,
    exact_nonruin_integer_gamma,
    ruin_renewal_inputs,
)
from renewinv import (
    approximate_nonruin,
    Component,
    DomainError,
    exact_nonruin_exponential,
    GammaMixture,
    renewal_data_from_model,
    RiskModel,
    ruin_bound_report,
)


class TestRuinRenewalInputs:
    def test_exponential_inputs(self, exp_mixture):
        f, v = ruin_renewal_inputs(RiskModel(exp_mixture, 0.9))
        for u in [0.0, 0.5, 2.0]:
            assert f(u) == pytest.approx(math.exp(-u), rel=1e-12)
            assert v(u) == pytest.approx(0.9 * math.exp(-u), rel=1e-12)

    def test_v_at_origin_is_phi(self, all_table_mixtures):
        for mix in all_table_mixtures.values():
            _, v = ruin_renewal_inputs(RiskModel(mix, 0.7))
            assert v(0.0) == pytest.approx(0.7, rel=1e-14)

    def test_gamma_2_1_equilibrium_law(self):
        # equilibrium density (1 + u) e^-u / 2, equilibrium survival (2 + u) e^-u / 2
        f, v = ruin_renewal_inputs(RiskModel(GammaMixture((Component(1.0, 2.0, 1.0),)), 0.9))
        for u in [0.0, 1.0, 4.0]:
            assert f(u) == pytest.approx((1.0 + u) * math.exp(-u) / 2.0, rel=1e-12)
            assert v(u) == pytest.approx(0.9 * (2.0 + u) * math.exp(-u) / 2.0, rel=1e-12)


    def test_limits_at_infinity(self, all_table_mixtures):
        for mix in all_table_mixtures.values():
            for g in ruin_renewal_inputs(RiskModel(mix, 0.9)):
                assert g(math.inf) == 0.0
                assert np.array_equal(g(np.array([math.inf, math.inf])), [0.0, 0.0])

    def test_f_matches_package_survival(self, all_table_mixtures):
        # the scalar loops and the package's array kernel give the same f
        u = np.concatenate([[0.0, 1e-12], np.linspace(0.01, 60.0, 300)])
        for mix in all_table_mixtures.values():
            f, _ = ruin_renewal_inputs(RiskModel(mix, 0.9))
            np.testing.assert_allclose(f(u), mix.survival(u) / mix.mean, rtol=1e-14, atol=0.0)

    def test_v_integrates_f(self, all_table_mixtures):
        # v(u) = phi (1 - int_0^u f): the closed-form equilibrium CDF against quadrature
        integrate = pytest.importorskip("scipy.integrate")
        for mix in all_table_mixtures.values():
            f, v = ruin_renewal_inputs(RiskModel(mix, 0.9))
            for u in [0.5, 3.0, 15.0]:
                mass, _ = integrate.quad(f, 0.0, u, epsabs=0.0, epsrel=1e-13, limit=200)
                assert v(u) == pytest.approx(0.9 * (1.0 - mass), rel=1e-11, abs=1e-15)

    @pytest.mark.parametrize("name", ["f", "v"])
    def test_transform_matches_package_oracle(self, all_table_mixtures, name):
        # int_0^inf e^-tu g(u) du by quadrature is the package oracle's zeroth weight
        integrate = pytest.importorskip("scipy.integrate")
        for mix in all_table_mixtures.values():
            model = RiskModel(mix, 0.9)
            g = dict(zip("fv", ruin_renewal_inputs(model)))[name]
            oracle = getattr(renewal_data_from_model(model), f"{name}_oracle")
            for t in [0.5, 5.0]:
                value, _ = integrate.quad(
                    lambda u: math.exp(-t * u) * g(u), 0.0, math.inf, epsabs=0.0, epsrel=1e-13,
                    limit=200,
                )
                assert value == pytest.approx(oracle.weights(t, 0)[0], rel=1e-11)


class TestExactNonruinIntegerGamma:
    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("beta", [0.2, 1.0, 3.0])
    def test_exponential_closed_form(self, beta, phi):
        model = RiskModel(GammaMixture((Component(1.0, 1.0, beta),)), phi)
        u = np.linspace(0.0, 60.0, 601)
        exact = [exact_nonruin_exponential(phi, beta, x) for x in u]
        assert np.max(np.abs(exact_nonruin_integer_gamma(model)(u) - exact)) <= 1e-15

    def test_erlang_2_2_against_volterra(self):
        # the trapezoidal solve of the renewal equation gives the ruin
        # probability to O(h^2) on independent scalar-loop inputs
        model = RiskModel(GammaMixture((Component(1.0, 2.0, 2.0),)), 0.9)
        f, v = ruin_renewal_inputs(model)
        grid, m = convolution_renewal_solve(f, v, 0.9, 10.0, 1e-3)
        nonruin = exact_nonruin_integer_gamma(model)(grid)
        assert np.max(np.abs(1.0 - m - nonruin)) < 2e-7

    def test_shared_rate_mixture_against_volterra(self):
        # 1/2 Exp(1) + 1/2 Erlang(2, 1): the two components share the pole -1
        model = RiskModel(GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 2.0, 1.0))), 0.5)
        f, v = ruin_renewal_inputs(model)
        grid, m = convolution_renewal_solve(f, v, 0.5, 10.0, 1e-3)
        nonruin = exact_nonruin_integer_gamma(model)(grid)
        assert np.max(np.abs(1.0 - m - nonruin)) < 1e-8

    def test_split_component_merges(self):
        # two halves of one Erlang(2, 1) share rate and shape; without the
        # merge the denominator would square and every root be double
        whole = RiskModel(GammaMixture((Component(1.0, 2.0, 1.0),)), 0.7)
        halves = RiskModel(GammaMixture((Component(0.5, 2.0, 1.0), Component(0.5, 2.0, 1.0))), 0.7)
        u = np.linspace(0.0, 30.0, 301)
        np.testing.assert_allclose(
            exact_nonruin_integer_gamma(halves)(u), exact_nonruin_integer_gamma(whole)(u),
            rtol=0.0, atol=1e-15,
        )

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    def test_value_at_origin(self, phi):
        mix = GammaMixture((Component(0.9, 4.0, 4.0), Component(0.1, 1.0, 0.2)))
        nonruin = exact_nonruin_integer_gamma(RiskModel(mix, phi))
        assert nonruin(0.0) == pytest.approx(1.0 - phi, abs=1e-13)
        assert nonruin(2000.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_derivatives_match_differences(self, k):
        # central differences of the (k-1)-th derivative
        mix = GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 2.0, 1.0)))
        nonruin = exact_nonruin_integer_gamma(RiskModel(mix, 0.9))
        u, h = np.linspace(0.5, 20.0, 40), 1e-5
        slope = (nonruin(u + h, k - 1) - nonruin(u - h, k - 1)) / (2.0 * h)
        np.testing.assert_allclose(nonruin(u, k), slope, rtol=1e-6, atol=1e-10)

    def test_rejects_non_integer_shape(self, gamma32_mixture):
        with pytest.raises(DomainError, match="not an integer"):
            exact_nonruin_integer_gamma(RiskModel(gamma32_mixture, 0.9))

    def test_roots_are_checked_against_mpmath(self, monkeypatch):
        # a numpy root moved by 1e-9 relative must not pass the 30-digit check
        roots = oracles.Polynomial.roots
        monkeypatch.setattr(oracles.Polynomial, "roots", lambda self: roots(self) * (1.0 + 1e-9))
        model = RiskModel(GammaMixture((Component(1.0, 2.0, 2.0),)), 0.9)
        with pytest.raises(AssertionError, match="mpmath"):
            exact_nonruin_integer_gamma(model)


class TestVolterraSolver:
    def test_exponential_ruin_closed_form(self, exp_mixture):
        f, v = ruin_renewal_inputs(RiskModel(exp_mixture, 0.9))
        grid, m = convolution_renewal_solve(f, v, 0.9, 5.0, 1e-3)
        assert grid[-1] == pytest.approx(5.0, rel=1e-12)
        assert m[-1] == pytest.approx(0.9 * math.exp(-0.5), abs=1e-6)
        exact = 0.9 * np.exp(-0.1 * grid)
        assert float(np.max(np.abs(m - exact))) < 1e-6

    def test_zero_defect_returns_forcing_term(self):
        grid, m = convolution_renewal_solve(np.exp, np.cos, 0.0, 2.0, 1e-2)
        assert np.allclose(m, np.cos(grid), atol=1e-12)

    def test_zero_forcing_returns_zero(self):
        grid, m = convolution_renewal_solve(lambda y: np.exp(-y), lambda u: 0.0, 0.7, 3.0, 1e-2)
        assert np.all(m == 0.0)

    def test_coarse_step_warns(self):
        with pytest.warns(UserWarning, match="too coarse"):
            convolution_renewal_solve(lambda y: np.exp(-y), lambda u: 0.5, 0.5, 2.0, 0.5)

    def test_coarse_step_warns_on_every_call(self):
        # the calibration error is memoized per step; the warning is not
        for _ in range(3):
            with pytest.warns(UserWarning, match="too coarse"):
                convolution_renewal_solve(lambda y: np.exp(-y), lambda u: 0.5, 0.5, 2.0, 0.25)

    def test_gamma32_pipeline_envelope(self, gamma32_mixture):
        # sanity envelope: the integral-equation solution and the
        # accelerated pipeline must agree within a few bound-widths
        model = RiskModel(gamma32_mixture, 0.9)
        f, v = ruin_renewal_inputs(model)
        h = 1e-3
        grid, m = convolution_renewal_solve(f, v, 0.9, 10.0, h)
        approx = approximate_nonruin(model, 5.0, 10.0)
        _, report = ruin_bound_report(model)
        sup = 0.0
        for k in range(approx.lattice.truncation_index + 1):
            u = k / 5.0
            volterra_nonruin = 1.0 - m[int(round(u / h))]
            sup = max(sup, abs(float(approx.lattice.values[k]) - volterra_nonruin))
        assert sup < 3.0 * (report.total_bound(5.0) + 100.0 * h * h)

    def test_gamma32_disputed_cell(self, gamma32_mixture):
        # two independent routes agree that the non-ruin value at u = 15 is
        # 0.7292, not the 0.7248 printed in the 4-decimal reference table
        model = RiskModel(gamma32_mixture, 0.9)
        f, v = ruin_renewal_inputs(model)
        grid, m = convolution_renewal_solve(f, v, 0.9, 15.0, 1e-3)
        volterra_value = 1.0 - m[-1]
        approx = approximate_nonruin(model, 5.0, 15.0)
        assert volterra_value == pytest.approx(0.72922, abs=5e-5)
        assert approx.nonruin(15.0) == pytest.approx(volterra_value, abs=5e-5)
        assert abs(approx.nonruin(15.0) - 0.7248) > 4e-3


class TestClosedFormLstar:
    def test_value_at_08(self):
        expected = 1.0 - 0.9 * (5.0 / 5.1) ** 5
        assert closed_form_lstar_exponential_ruin(0.9, 5.0, 0.8) == pytest.approx(
            expected, rel=1e-15
        )

    def test_origin_matches_compound_base_case(self):
        # at u = 0 the closed form equals the Panjer mass at zero
        assert closed_form_lstar_exponential_ruin(0.9, 5.0, 0.0) == pytest.approx(
            0.1 / 0.85, rel=1e-13
        )

    def test_operator_converges_pointwise(self):
        for u in [0.5, 1.0, 7.0]:
            val = closed_form_lstar_exponential_ruin(0.9, 1e4, u)
            assert abs(val - exact_nonruin_exponential(0.9, 1.0, u)) < 1e-4
