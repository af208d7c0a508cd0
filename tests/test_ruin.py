import math
import time

import numpy as np
import pytest

from renewinv import (
    AdmissibilityError,
    approximate_nonruin,
    Component,
    ConstantLST,
    DomainError,
    exact_nonruin_exponential,
    GammaMixture,
    lstar_nonruin,
    m2_lattice,
    renewal_data_from_model,
    RenewalRatioLST,
    RiskModel,
    ruin_bound_report,
    ScaledLST,
    SumLST,
)
from renewinv.oracles import closed_form_lstar_exponential_ruin
from renewinv.ruin import MAX_FINE_LATTICE


class TestRiskModel:
    @pytest.mark.parametrize("phi", [0.0, 1.0, -0.2, 1.5])
    def test_net_profit_condition(self, exp_mixture, phi):
        with pytest.raises(AdmissibilityError):
            RiskModel(exp_mixture, phi)

    def test_from_rates(self, exp_mixture):
        model = RiskModel.from_rates(exp_mixture, arrival_rate=1.8, premium_rate=2.0)
        assert model.phi == 0.9

    def test_rate_pairs_with_same_loading_are_bit_identical(self, gamma32_mixture):
        # mean is 1.5, so (lambda=0.3, c=0.5) and (lambda=0.6, c=1.0) both give phi=0.9
        m1 = RiskModel.from_rates(gamma32_mixture, 0.3, 0.5)
        m2 = RiskModel.from_rates(gamma32_mixture, 0.6, 1.0)
        assert m1.phi == m2.phi
        a1 = approximate_nonruin(m1, 5.0, 10.0)
        a2 = approximate_nonruin(m2, 5.0, 10.0)
        assert np.array_equal(a1.lattice.values, a2.lattice.values)


class TestExactNonruinExponential:
    def test_at_origin(self):
        assert exact_nonruin_exponential(0.9, 1.0, 0.0) == pytest.approx(0.1, rel=1e-15)

    def test_at_one(self):
        assert exact_nonruin_exponential(0.9, 1.0, 1.0) == pytest.approx(
            1.0 - 0.9 * math.exp(-0.1), rel=1e-15
        )

    def test_no_ruin_limit(self):
        assert exact_nonruin_exponential(0.9, 1.0, 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(AdmissibilityError):
            exact_nonruin_exponential(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            exact_nonruin_exponential(0.9, 0.0, 1.0)


class TestApproximateNonruin:
    def test_origin_is_one_minus_phi(self, all_table_mixtures):
        for mix in all_table_mixtures.values():
            approx = approximate_nonruin(RiskModel(mix, 0.9), 5.0, 5.0)
            assert approx.nonruin(0.0) == 1.0 - 0.9

    def test_lattice_monotone_and_in_range(self, all_table_mixtures):
        for mix in all_table_mixtures.values():
            approx = approximate_nonruin(RiskModel(mix, 0.9), 5.0, 40.0)
            vals = approx.lattice.values
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals.min() >= 0.1 - 1e-9
            assert vals.max() <= 1.0 + 1e-9

    def test_matches_exact_exponential(self, exp_mixture):
        approx = approximate_nonruin(RiskModel(exp_mixture, 0.9), 5.0, 40.0)
        K = approx.lattice.truncation_index
        worst = max(
            abs(float(approx.lattice.values[k]) - exact_nonruin_exponential(0.9, 1.0, k / 5.0))
            for k in range(K + 1)
        )
        assert worst < 5e-5

    def test_beta_scaling_against_pipeline(self):
        # rate-2 exponential claims: closed form 1 - phi exp(-2 (1-phi) u)
        mix = GammaMixture.exponential(2.0)
        approx = approximate_nonruin(RiskModel(mix, 0.9), 10.0, 20.0)
        K = approx.lattice.truncation_index
        worst = max(
            abs(float(approx.lattice.values[k]) - exact_nonruin_exponential(0.9, 2.0, k / 10.0))
            for k in range(K + 1)
        )
        assert worst < 1e-4

    def test_ruin_accessor(self, exp_mixture):
        approx = approximate_nonruin(RiskModel(exp_mixture, 0.9), 5.0, 10.0)
        assert approx.ruin(1.0) == pytest.approx(1.0 - approx.nonruin(1.0), rel=1e-15)

    def test_no_silent_extrapolation(self, exp_mixture):
        approx = approximate_nonruin(RiskModel(exp_mixture, 0.9), 5.0, 10.0)
        with pytest.raises(DomainError):
            approx.nonruin(10.0 + 1e-3)

    def test_domain_errors(self, exp_mixture):
        model = RiskModel(exp_mixture, 0.9)
        with pytest.raises(DomainError):
            approximate_nonruin(model, 0.0, 10.0)
        with pytest.raises(DomainError):
            approximate_nonruin(model, 5.0, 0.0)

    @pytest.mark.parametrize(
        "t,u_max", [(math.inf, 40.0), (5.0, math.inf), (math.nan, 40.0), (5.0, math.nan)]
    )
    def test_non_finite_rate_or_horizon(self, exp_mixture, t, u_max):
        with pytest.raises(DomainError):
            approximate_nonruin(RiskModel(exp_mixture, 0.9), t, u_max)

    def test_non_finite_query(self, exp_mixture):
        approx = approximate_nonruin(RiskModel(exp_mixture, 0.9), 5.0, 10.0)
        with pytest.raises(DomainError):
            approx.nonruin(math.nan)

    @pytest.mark.parametrize("t,u_max", [(1e6, 40.0), (1.0, MAX_FINE_LATTICE / 2 + 1)])
    def test_lattice_size_cap(self, exp_mixture, t, u_max):
        with pytest.raises(DomainError, match="fine lattice"):
            approximate_nonruin(RiskModel(exp_mixture, 0.9), t, u_max)

    @pytest.mark.parametrize(
        "alpha,t,u_max",
        [
            # rho**alpha = 101**-200 underflows at t=100, which used to turn
            # the equilibrium law uniform and return nonruin(300) = 1.0
            pytest.param(200.0, 100.0, 300.0, id="gamma200-t100"),
            # subnormal seed 101**-159.7 = 8.1e-321, which used to run a
            # truncation search for about 5 s before failing
            pytest.param(159.7, 100.0, 300.0, id="gamma159.7-t100"),
            # only the fine-lattice seed 201**-140 underflows
            pytest.param(140.0, 100.0, 40.0, id="gamma140-t100"),
        ],
    )
    def test_negbin_underflow_is_an_error(self, alpha, t, u_max):
        model = RiskModel(GammaMixture((Component(1.0, alpha, 1.0),)), 0.5)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="underflow"):
            approximate_nonruin(model, t, u_max)
        assert time.perf_counter() - start < 0.5

    def test_negbin_seed_above_underflow_answers(self):
        gamma200 = RiskModel(GammaMixture((Component(1.0, 200.0, 1.0),)), 0.5)
        assert approximate_nonruin(gamma200, 5.0, 300.0).nonruin(300.0) == pytest.approx(
            0.897096, abs=1e-6
        )
        # fine-lattice seed 201**-133 = 1.4e-306 is still a normal double
        gamma133 = RiskModel(GammaMixture((Component(1.0, 133.0, 1.0),)), 0.5)
        fine = approximate_nonruin(gamma133, 100.0, 40.0)
        coarse = approximate_nonruin(gamma133, 50.0, 40.0)
        worst = max(abs(fine.nonruin(k / 50.0) - coarse.lattice.values[k]) for k in range(2001))
        assert worst < 1e-9

    def test_rate_500_gamma32(self, gamma32_mixture):
        # t = 500 used to fail the truncation search's 1e-12 mass tolerance
        model = RiskModel(gamma32_mixture, 0.9)
        fine = approximate_nonruin(model, 500.0, 40.0)
        vals = fine.lattice.values
        assert vals.min() >= 1.0 - 0.9 and vals.max() <= 1.0
        assert np.all(np.diff(vals) >= 0.0)
        ref = approximate_nonruin(model, 200.0, 40.0).lattice.values
        worst = max(abs(fine.nonruin(k / 200.0) - ref[k]) for k in range(ref.size))
        _, report = ruin_bound_report(model)
        assert worst <= report.total_bound(200.0)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    def test_against_transform_route(self, gamma32_mixture, phi):
        # completely different evaluation route: accelerated operator driven
        # by the ratio-recursion transform of 1 - ruin, no Panjer involved
        model = RiskModel(gamma32_mixture, phi)
        data = renewal_data_from_model(model)
        nonruin_oracle = SumLST(
            ConstantLST(1.0),
            ScaledLST(-1.0, RenewalRatioLST(data.v_oracle, data.f_oracle, phi)),
        )
        t, u_max = 5.0, 10.0
        direct = m2_lattice(nonruin_oracle, t, int(t * u_max), 1.0 - phi)
        pipeline = approximate_nonruin(model, t, u_max)
        assert np.allclose(direct.values, pipeline.lattice.values, atol=1e-10)


class TestLstarNonruin:
    @pytest.mark.parametrize("t", [5.0, 100.0])
    def test_exponential_closed_form(self, exp_mixture, t):
        K = int(40 * t)
        curve = lstar_nonruin(RiskModel(exp_mixture, 0.9), t, K)
        assert curve.truncation_index == K
        worst = max(
            abs(float(curve.values[k]) - closed_form_lstar_exponential_ruin(0.9, t, k / t))
            for k in range(K + 1)
        )
        assert worst < 1e-9


class TestRenewalData:
    def test_exponential_ingredients(self, exp_mixture):
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.9))
        for u in [0.0, 0.5, 2.0]:
            assert data.f(u) == pytest.approx(math.exp(-u), rel=1e-12)
            assert data.v(u) == pytest.approx(0.9 * math.exp(-u), rel=1e-12)

    def test_v_at_origin_is_phi(self, all_table_mixtures):
        for mix in all_table_mixtures.values():
            data = renewal_data_from_model(RiskModel(mix, 0.7))
            assert data.v(0.0) == pytest.approx(0.7, rel=1e-14)

    def test_gamma_2_1_equilibrium_density(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        data = renewal_data_from_model(RiskModel(mix, 0.9))
        for u in [0.0, 1.0, 4.0]:
            assert data.f(u) == pytest.approx((1.0 + u) * math.exp(-u) / 2.0, rel=1e-12)
