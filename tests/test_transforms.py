import math

import numpy as np
import pytest

from renewinv import (
    Component,
    ConstantLST,
    DomainError,
    ExponentialDecayLST,
    GammaMixture,
    GammaMixtureLST,
    renewal_ratio_derivs,
    RenewalRatioLST,
    ScaledLST,
    SingularityError,
    SumLST,
    survival_to_density_oracle,
    SurvivalLST,
)
from renewinv.ruin import renewal_data_from_model, RiskModel


class TestGammaMixture:
    def test_validation(self):
        with pytest.raises(DomainError):
            GammaMixture(())
        with pytest.raises(DomainError):
            GammaMixture((Component(0.7, 1.0, 1.0),))
        with pytest.raises(DomainError):
            GammaMixture((Component(1.0, -1.0, 1.0),))
        with pytest.raises(DomainError):
            GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5 + 1e-6, 1.0, 2.0)))

    def test_moments_gamma_2_1(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        assert mix.mean == pytest.approx(2.0, rel=1e-15)
        assert mix.raw_moment(2) == pytest.approx(6.0, rel=1e-15)
        assert mix.raw_moment(3) == pytest.approx(24.0, rel=1e-15)

    def test_survival_gamma_2_1(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        for u in [0.1, 1.0, 5.0]:
            assert mix.survival(u) == pytest.approx((1.0 + u) * math.exp(-u), rel=1e-12)

    def test_equilibrium_exponential_is_itself(self, exp_mixture):
        for u in [0.0, 0.3, 2.0, 10.0]:
            assert exp_mixture.equilibrium_cdf(u) == pytest.approx(-math.expm1(-u), abs=1e-13)
            assert exp_mixture.equilibrium_density(u) == pytest.approx(math.exp(-u), rel=1e-12)

    def test_equilibrium_density_gamma_2_1(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        for u in [0.0, 0.5, 3.0]:
            assert mix.equilibrium_density(u) == pytest.approx(
                (1.0 + u) * math.exp(-u) / 2.0, rel=1e-12
            )


class TestGammaMixtureLST:
    def test_exponential_value(self, exp_mixture):
        derivs = GammaMixtureLST(exp_mixture).derivs(5.0, 1)
        assert derivs[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert derivs[1] == pytest.approx(-1.0 / 36.0, rel=1e-14)

    def test_value_is_probability_transform(self, half_mixture):
        for t in [0.5, 1.0, 5.0, 50.0]:
            val = GammaMixtureLST(half_mixture).value(t)
            assert 0.0 < val < 1.0

    def test_closed_form_derivatives(self, gamma32_mixture):
        # Phi^(j)(t) = (-1)^j Gamma(a+j)/Gamma(a) b^a / (t+b)^(a+j)
        t, alpha, beta = 3.0, 1.5, 1.0
        derivs = GammaMixtureLST(gamma32_mixture).derivs(t, 20)
        for j in range(21):
            expected = (-1.0) ** j * math.exp(
                math.lgamma(alpha + j)
                - math.lgamma(alpha)
                + alpha * math.log(beta)
                - (alpha + j) * math.log(t + beta)
            )
            assert derivs[j] == pytest.approx(expected, rel=1e-12)

    def test_single_exponential_weights_are_geometric(self):
        mix = GammaMixture.exponential(2.0)
        t = 5.0
        w = GammaMixtureLST(mix).weights(t, 100)
        ratio = t / (t + 2.0)
        for k in [0, 1, 7, 50, 100]:
            assert w[k] == pytest.approx(ratio**k * (2.0 / (t + 2.0)), rel=1e-14)

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
    def test_sign_alternation_up_to_200(self, all_table_mixtures, t):
        # (-1)^k Phi^(k)(t) > 0 is equivalent to positive normalized weights
        for mix in all_table_mixtures.values():
            w = GammaMixtureLST(mix).weights(t, 200)
            assert np.all(w > 0.0)

    def test_domain_error(self, exp_mixture):
        with pytest.raises(DomainError):
            GammaMixtureLST(exp_mixture).weights(0.0, 3)
        with pytest.raises(DomainError):
            GammaMixtureLST(exp_mixture).weights(-1.0, 3)


class TestBuildingBlocks:
    def test_constant_oracle(self):
        w = ConstantLST(3.0).weights(4.0, 5)
        assert np.allclose(w, 0.75, rtol=1e-15)

    def test_exp_decay_matches_mixture_route(self):
        # the Exp(a) law's transform is a/(t+a), i.e. a times the transform
        # of the bare function exp(-a u)
        a = 0.7
        w1 = ExponentialDecayLST(a).weights(5.0, 40)
        w2 = GammaMixtureLST(GammaMixture.exponential(a)).weights(5.0, 40)
        assert np.allclose(a * w1, w2, rtol=1e-13)

    def test_survival_of_exponential(self, exp_mixture):
        # survival of Exp(1) is exp(-u), with transform 1/(1+t)
        oracle = SurvivalLST(GammaMixtureLST(exp_mixture))
        t = 4.0
        assert oracle.value(t) == pytest.approx(1.0 / (1.0 + t), rel=1e-13)

    def test_scaled_and_sum(self):
        t = 2.0
        combo = SumLST(ConstantLST(1.0), ScaledLST(-0.9, ExponentialDecayLST(0.1)))
        w = combo.weights(t, 10)
        expected = 1.0 / t - 0.9 * (t / (t + 0.1)) ** np.arange(11) / (t + 0.1)
        assert np.allclose(w, expected, rtol=1e-14)


class TestEquilibriumOracle:
    def test_exponential_fixed_point(self, exp_mixture):
        oracle = survival_to_density_oracle(exp_mixture)
        assert oracle.value(5.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_gamma_2_1_value(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        oracle = survival_to_density_oracle(mix)
        assert oracle.value(5.0) == pytest.approx(35.0 / 360.0, rel=1e-13)

    def test_is_probability_transform(self, half_mixture):
        oracle = survival_to_density_oracle(half_mixture)
        for t in [0.5, 5.0, 20.0]:
            assert 0.0 < oracle.value(t) < 1.0


class TestRenewalRatio:
    def test_base_case_is_plain_ratio(self, exp_mixture):
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.9))
        t = 5.0
        m0 = renewal_ratio_derivs(data.v_oracle, data.f_oracle, 0.9, t, 0)[0]
        v0 = data.v_oracle.value(t)
        f0 = data.f_oracle.value(t)
        assert m0 == pytest.approx(v0 / (1.0 - 0.9 * f0), rel=1e-14)

    def test_zero_defect_reduces_to_v(self, exp_mixture):
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.5))
        t = 3.0
        got = renewal_ratio_derivs(data.v_oracle, data.f_oracle, 0.0, t, 12)
        expected = data.v_oracle.derivs(t, 12)
        assert np.allclose(got, expected, rtol=1e-14)

    def test_exponential_ruin_closed_form(self, exp_mixture):
        # ruin transform for unit-mean exponential claims at phi = 0.9:
        # m~^(k)(t) = 0.9 (-1)^k k! / (t + 0.1)^(k+1)
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.9))
        t = 5.0
        derivs = renewal_ratio_derivs(data.v_oracle, data.f_oracle, 0.9, t, 60)
        for k in range(61):
            expected = 0.9 * (-1.0) ** k * math.factorial(k) / (t + 0.1) ** (k + 1)
            assert derivs[k] == pytest.approx(expected, rel=1e-9)

    def test_singularity_error(self):
        # a non-probability "density" with transform 2/(t+1) hits
        # 1 - phi f~(t) = 0 at t = 0.8 when phi = 0.9
        fake_density = ScaledLST(2.0, ExponentialDecayLST(1.0))
        oracle = RenewalRatioLST(ConstantLST(1.0), fake_density, 0.9)
        with pytest.raises(SingularityError):
            oracle.weights(0.8, 3)

    def test_weights_stay_positive_for_ruin(self, half_mixture):
        data = renewal_data_from_model(RiskModel(half_mixture, 0.9))
        ratio = RenewalRatioLST(data.v_oracle, data.f_oracle, 0.9)
        w = ratio.weights(5.0, 200)
        assert np.all(w >= 0.0)
