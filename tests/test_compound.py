import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewinv import (
    compound_cdf,
    discretize_equilibrium,
    DomainError,
    GammaMixture,
    LatticePMF,
    negbin_logpmf,
    NegativeWeightError,
    panjer_geometric,
    RealShape,
)
from renewinv.oracles import closed_form_lstar_exponential_ruin
from renewinv.transforms import Component


def panjer_reference(severity, phi, K):
    """Panjer's recursion for the geometric compound, the O(K^2) reference."""
    f = severity.weights
    denom = 1.0 - phi * float(f[0])
    out = np.zeros(K + 1)
    out[0] = (1.0 - phi) / denom
    k_sev = severity.truncation_index
    for k in range(1, K + 1):
        j_hi = min(k, k_sev)
        acc = float(np.dot(f[1 : j_hi + 1], out[k - 1 :: -1][:j_hi]))
        out[k] = phi * acc / denom
    return out


def equilibrium_weights_lgamma(mixture, t, K):
    """Equilibrium lattice masses from lgamma negative-binomial masses.

    Shares no code with the transform oracle: each mass is exp of
    ``negbin_logpmf``, not a term of the cumulative-product recursion.
    """
    out = np.zeros(K + 1)
    for p, alpha, beta in mixture.components:
        shape = RealShape(alpha, beta / (t + beta))
        masses = np.array([math.exp(negbin_logpmf(k, shape)) for k in range(K + 1)])
        out += p * (1.0 - np.cumsum(masses))
    return out / (t * mixture.mean)


def assert_matches_reference(severity, phi, K):
    got = panjer_geometric(severity, phi, K).weights
    want = panjer_reference(severity, phi, K)
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= 1e-12
    assert float(np.max(np.abs(np.cumsum(got) - np.cumsum(want)))) <= 1e-12


class TestDiscretizeEquilibrium:
    def test_exponential_geometric_weights(self, exp_mixture):
        # equilibrium of Exp(1) at t=5 discretizes to (1/6)(5/6)^k
        pmf = discretize_equilibrium(exp_mixture, 5.0, 200)
        assert pmf.weights[0] == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert pmf.weights[1] == pytest.approx(5.0 / 36.0, rel=1e-13)
        for k in [0, 3, 40, 200]:
            assert pmf.weights[k] == pytest.approx((5.0 / 6.0) ** k / 6.0, rel=5e-13)

    def test_gamma_2_1_first_weight(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        pmf = discretize_equilibrium(mix, 5.0, 10)
        assert pmf.weights[0] == pytest.approx(35.0 / 360.0, rel=1e-13)

    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_mass_accounting(self, all_table_mixtures, t):
        for mix in all_table_mixtures.values():
            pmf = discretize_equilibrium(mix, t, int(40 * t))
            total = math.fsum(pmf.weights.tolist())
            assert pmf.mass_deficit < 1e-10
            assert abs(total + pmf.mass_deficit - 1.0) < 1e-12

    def test_single_component_weights_nonincreasing(self, gamma32_mixture):
        pmf = discretize_equilibrium(gamma32_mixture, 5.0, 300)
        diffs = np.diff(pmf.weights)
        assert np.all(diffs <= 1e-15)

    def test_domain_errors(self, exp_mixture):
        with pytest.raises(DomainError):
            discretize_equilibrium(exp_mixture, 0.0, 10)
        with pytest.raises(DomainError):
            discretize_equilibrium(exp_mixture, 5.0, -1)


class TestDiscretizeGeneral:
    """The general formula P(L = k/t) = sum_i p_i P(N_i > k) / (t * mean),
    N_i negative binomial, from lgamma masses against the oracle weights."""

    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_agrees_with_equilibrium_path(self, all_table_mixtures, t):
        for mix in all_table_mixtures.values():
            a = discretize_equilibrium(mix, t, 400)
            b = equilibrium_weights_lgamma(mix, t, 400)
            assert float(np.max(np.abs(a.weights - b))) < 1e-10


class TestLatticePMF:
    def test_rejects_material_negative(self):
        with pytest.raises(NegativeWeightError):
            LatticePMF(1.0, np.array([0.5, -1e-6]))

    def test_clamps_noise_negative(self):
        pmf = LatticePMF(1.0, np.array([0.5, -1e-15]))
        assert pmf.weights[1] == 0.0


class TestPanjerGeometric:
    def test_base_case(self, exp_mixture):
        sev = discretize_equilibrium(exp_mixture, 5.0, 50)
        comp = panjer_geometric(sev, 0.9, 50)
        assert comp.weights[0] == pytest.approx(0.1 / 0.85, rel=1e-13)

    def test_tiny_defect_is_point_mass(self, exp_mixture):
        sev = discretize_equilibrium(exp_mixture, 5.0, 20)
        comp = panjer_geometric(sev, 1e-12, 20)
        assert comp.weights[0] == pytest.approx(1.0, abs=1e-11)
        assert float(np.sum(comp.weights[1:])) < 1e-11

    def test_point_mass_severity(self):
        sev = LatticePMF(5.0, np.array([1.0]))
        comp = panjer_geometric(sev, 0.9, 10)
        assert comp.weights[0] == pytest.approx(1.0, rel=1e-14)
        assert np.all(comp.weights[1:] == 0.0)

    def test_mass_preservation_bound(self, exp_mixture):
        phi, t = 0.9, 5.0
        K = int(40 * t)
        sev = discretize_equilibrium(exp_mixture, t, K)
        comp = panjer_geometric(sev, phi, K)
        missing = 1.0 - math.fsum(comp.weights.tolist())
        closed_tail = phi * (t / (t + 1.0 - phi)) ** (K + 1)
        assert 0.0 <= missing <= phi * sev.mass_deficit / (1.0 - phi) + closed_tail + 1e-12

    @pytest.mark.parametrize("excess, raises", [(2e-9, True), (5e-10, False)])
    def test_excess_mass_check(self, excess, raises):
        # a one-point severity w0 makes the compound a point mass of
        # (1 - phi) / (1 - phi w0), chosen here to be 1 + excess
        phi = 0.5
        w0 = (1.0 - (1.0 - phi) / (1.0 + excess)) / phi
        sev = LatticePMF(1.0, np.array([w0]))
        if raises:
            with pytest.raises(DomainError, match="above 1 \\+"):
                panjer_geometric(sev, phi, 10)
        else:
            comp = panjer_geometric(sev, phi, 10)
            assert float(np.sum(comp.weights)) == pytest.approx(1.0 + excess, rel=1e-15)
            assert comp.mass_deficit == 0.0

    def test_phi_validation(self, exp_mixture):
        sev = discretize_equilibrium(exp_mixture, 5.0, 10)
        for phi in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                panjer_geometric(sev, phi, 10)


class TestPanjerAgainstReference:
    @pytest.mark.parametrize("phi", [1e-12, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("sev_len", ["short", "long"])
    @pytest.mark.parametrize(
        "K", [0, 1, 2, 255, 256, 257, 1023, 1024, 1025, 4000, 8191, 8192, 8193]
    )
    def test_table_mixture(self, half_mixture, K, sev_len, phi):
        # lattice rate scaled so the severity covers u up to 10 (short, fewer
        # than K+1 points) or 40 (long, more than K+1 points); K = 8191 and
        # 8193 halve through odd sizes, and at K = 8192 the last pass's
        # cyclic length is its target size
        t = max(K, 4) / 20.0
        k_sev = K // 2 if sev_len == "short" else 2 * K + 1
        assert_matches_reference(discretize_equilibrium(half_mixture, t, k_sev), phi, K)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sev=st.integers(1, 2500),
        K=st.integers(0, 1500),
        phi=st.floats(1e-12, 0.99),
        zero_frac=st.floats(0.0, 0.9),
    )
    def test_random_severity(self, seed, n_sev, K, phi, zero_frac):
        rng = np.random.default_rng(seed)
        w = rng.random(n_sev) ** 3
        w[rng.random(n_sev) < zero_frac] = 0.0
        total = w.sum()
        w = w / total if total > 0 else w
        assert_matches_reference(LatticePMF(1.0, w), phi, K)


class TestCompoundCdf:
    def test_point_mass_gives_constant_one(self):
        cdf = compound_cdf(LatticePMF(5.0, np.array([1.0, 0.0, 0.0])))
        assert np.all(cdf.values == 1.0)

    def test_monotone(self, half_mixture):
        sev = discretize_equilibrium(half_mixture, 5.0, 300)
        cdf = compound_cdf(panjer_geometric(sev, 0.9, 300))
        assert np.all(np.diff(cdf.values) >= 0.0)
        assert cdf.values[-1] <= 1.0

    @pytest.mark.parametrize("t", [5.0, 10.0, 100.0])
    def test_exponential_closed_form_identity(self, exp_mixture, t):
        # the compound CDF must equal the closed-form operator image of the
        # exponential non-ruin function at every lattice point
        phi = 0.9
        K = int(40 * t)
        sev = discretize_equilibrium(exp_mixture, t, K)
        cdf = compound_cdf(panjer_geometric(sev, phi, K))
        worst = max(
            abs(float(cdf.values[k]) - closed_form_lstar_exponential_ruin(phi, t, k / t))
            for k in range(K + 1)
        )
        assert worst < 1e-9

    def test_spot_value_at_u_08(self, exp_mixture):
        # closed form 1 - 0.9 (5/5.1)^5 at u = 0.8, t = 5
        sev = discretize_equilibrium(exp_mixture, 5.0, 50)
        cdf = compound_cdf(panjer_geometric(sev, 0.9, 50))
        assert cdf(0.8) == pytest.approx(1.0 - 0.9 * (5.0 / 5.1) ** 5, rel=1e-12)
