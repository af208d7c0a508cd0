import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewinv import (
    AdmissibilityError,
    approximate_nonruin,
    BoundReport,
    chain_derivative_bounds,
    chain_high_order_bounds,
    Component,
    DomainError,
    equilibrium_moments,
    exact_nonruin_exponential,
    f_second_integrals,
    GammaMixture,
    NormLedger,
    RiskModel,
    ruin_bound_report,
    ruin_w_functions,
)
from renewinv import bounds
from renewinv.bounds import _component_i_fpp


import functools


def component_i_fpp_upper(alpha, i):
    """Componentwise upper bound of int u^i |F_a''| du for a unit-rate gamma CDF.

    Bounds |alpha - 1 - u| by (alpha - 1) + u, which is tight at alpha = 1;
    the reference the exact split integrals are checked against.
    """
    if alpha == 1.0:
        return float(math.factorial(i))
    first = (alpha - 1.0) * math.exp(math.lgamma(alpha - 1.0 + i) - math.lgamma(alpha))
    return first + math.exp(math.lgamma(alpha + i) - math.lgamma(alpha))


def sup_norm_reference(fn, decay_start):
    """The loop-based sup-norm search, one scalar ``fn`` call per grid point.

    Reference for the array grid passes of ``bounds._sup_norm``: same grid,
    doubling rule, stopping test and golden-section refinement.
    """
    u_hi = max(2.0 * decay_start, 4.0)
    while True:
        grid = np.linspace(0.0, u_hi, bounds._GRID_POINTS)
        vals = np.array([abs(fn(u)) for u in grid])
        peak = float(vals.max())
        if vals[-1] <= bounds._TAIL_RTOL * max(peak, 1e-300) or u_hi > 1e9:
            break
        u_hi *= 2.0
    interior = [
        i
        for i in range(1, bounds._GRID_POINTS - 1)
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
    ]
    interior.sort(key=lambda i: -vals[i])
    best = peak
    for i in interior[:4]:
        best = max(best, bounds._golden_max(fn, grid[i - 1], grid[i + 1]))
    best = max(best, bounds._golden_max(fn, grid[0], grid[1]))
    return best


def seeded_admissible_mixture(seed):
    """1-3 components, shapes in [1, 4], rates in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n))
    return GammaMixture(tuple(
        Component(float(p), float(a), float(b))
        for p, a, b in zip(weights, rng.uniform(1.0, 4.0, n), rng.uniform(0.5, 2.0, n))
    ))


@st.composite
def admissible_mixtures(draw):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    total = math.fsum(raw)
    return GammaMixture(tuple(
        Component(w / total, draw(st.floats(1.0, 4.0)), draw(st.floats(0.5, 2.0))) for w in raw
    ))


LEDGER_MIXTURES = {
    "exponential": GammaMixture.exponential(),
    "gamma_3_2": GammaMixture((Component(1.0, 1.5, 1.0),)),
    "mixture": GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0))),
    # seeds 11, 12, 13 draw 1, 2 and 3 components
    **{f"seed{seed}": seeded_admissible_mixture(seed) for seed in (11, 12, 13)},
}


@functools.lru_cache(maxsize=None)
def exp_ledger(phi=0.9):
    return ruin_w_functions(RiskModel(GammaMixture.exponential(), phi))


class TestWFunctions:
    def test_exponential_closed_form_norms(self):
        ledger = exp_ledger(0.9)
        # w1 = -0.09 exp(-u): sup at 0, u-weighted sup at 1, u^2-weighted at 2
        assert ledger.w1_norm == pytest.approx(0.09, rel=1e-10)
        assert ledger.uw1_norm == pytest.approx(0.09 / math.e, rel=1e-9)
        assert ledger.u2w1_norm == pytest.approx(0.09 * 4.0 * math.exp(-2.0), rel=1e-9)
        # w2 = 0.009 exp(-u) for unit-rate exponential claims
        assert ledger.w2_norm == pytest.approx(0.009, rel=1e-10)
        assert ledger.uw2_norm == pytest.approx(0.009 / math.e, rel=1e-9)
        assert ledger.u2w2_norm == pytest.approx(0.009 * 4.0 * math.exp(-2.0), rel=1e-9)
        # second derivatives: |u^2 w1''| = 0.09 u^2 e^-u; triangle bound for w2''
        assert ledger.u2w1pp_norm == pytest.approx(0.09 * 4.0 * math.exp(-2.0), rel=1e-9)
        expected_w2pp = 0.9 * 0.09 * 4.0 * math.exp(-2.0) + 0.09 * 4.0 * math.exp(-2.0)
        assert ledger.u2w2pp_norm == pytest.approx(expected_w2pp, rel=1e-9)

    def test_admissibility(self):
        mix = GammaMixture((Component(1.0, 0.5, 1.0),))
        with pytest.raises(AdmissibilityError):
            ruin_w_functions(RiskModel(mix, 0.9))

    def test_moment_entries_match_direct_ops(self, half_mixture):
        ledger = ruin_w_functions(RiskModel(half_mixture, 0.9))
        ez, ez2 = equilibrium_moments(half_mixture)
        i0, i1, i2, f0, f1_0 = f_second_integrals(half_mixture)
        assert (ledger.ez, ledger.ez2) == (ez, ez2)
        assert (ledger.i0_fpp, ledger.i1_fpp, ledger.i2_fpp) == (i0, i1, i2)
        assert (ledger.f0, ledger.f1_0) == (f0, f1_0)


class TestSupNormKernel:
    @pytest.mark.parametrize("name", LEDGER_MIXTURES)
    def test_ledger_matches_loop_reference(self, monkeypatch, name):
        model = RiskModel(LEDGER_MIXTURES[name], 0.9)
        ledger, _ = ruin_bound_report(model)
        monkeypatch.setattr(bounds, "_sup_norm", sup_norm_reference)
        reference, _ = ruin_bound_report(model)
        for field in dataclasses.fields(NormLedger):
            assert getattr(ledger, field.name) == pytest.approx(
                getattr(reference, field.name), rel=1e-12, abs=0.0
            ), field.name

    @pytest.mark.parametrize("deriv", [bounds._u2_cdf_deriv2, bounds._u2_cdf_deriv3])
    def test_derivative_terms_take_arrays(self, deriv):
        u = np.linspace(0.0, 30.0, 301)
        for mix in LEDGER_MIXTURES.values():
            scalar = np.array([deriv(mix, float(v)) for v in u])
            np.testing.assert_allclose(deriv(mix, u), scalar, rtol=1e-14, atol=1e-300)

    @settings(max_examples=15, deadline=None)
    @given(mix=admissible_mixtures(), phi=st.floats(0.5, 0.95))
    def test_bound_covers_gap_between_rates(self, mix, phi):
        # sup |M2_5 - M2_40| <= bound(5) + bound(40) must hold if the bound
        # holds at both rates; it needs neither range nor monotonicity
        model = RiskModel(mix, phi)
        _, report = ruin_bound_report(model)
        coarse = approximate_nonruin(model, 5.0, 40.0).lattice.values
        fine = approximate_nonruin(model, 40.0, 40.0).lattice.values[::8]
        assert coarse.shape == fine.shape
        gap = float(np.max(np.abs(coarse - fine)))
        assert gap <= report.total_bound(5.0) + report.total_bound(40.0)


class TestEquilibriumMoments:
    def test_exponential(self, exp_mixture):
        ez, ez2 = equilibrium_moments(exp_mixture)
        assert ez == pytest.approx(1.0, rel=1e-14)
        assert ez2 == pytest.approx(2.0, rel=1e-14)

    def test_gamma_2_1(self):
        ez, ez2 = equilibrium_moments(GammaMixture((Component(1.0, 2.0, 1.0),)))
        assert ez == pytest.approx(1.5, rel=1e-14)
        assert ez2 == pytest.approx(4.0, rel=1e-14)

    def test_jensen(self, all_table_mixtures):
        for mix in all_table_mixtures.values():
            ez, ez2 = equilibrium_moments(mix)
            assert ez * ez <= ez2 * (1.0 + 1e-12)


class TestFSecondIntegrals:
    def test_exponential_exact(self, exp_mixture):
        i0, i1, i2, f0, f1_0 = f_second_integrals(exp_mixture)
        assert (i0, i1, i2) == pytest.approx((1.0, 1.0, 2.0), rel=1e-12)
        assert f0 == pytest.approx(1.0, rel=1e-14)
        assert f1_0 == pytest.approx(-1.0, rel=1e-14)

    def test_beta_scaling(self):
        # Exp(2): f = equilibrium density = 2 exp(-2u); I_i = 4 * i! / 2^i
        mix = GammaMixture.exponential(2.0)
        i0, i1, i2, f0, f1_0 = f_second_integrals(mix)
        assert (i0, i1, i2) == pytest.approx((4.0, 2.0, 2.0), rel=1e-12)
        assert f0 == pytest.approx(2.0, rel=1e-14)
        assert f1_0 == pytest.approx(-4.0, rel=1e-14)

    def test_shape_above_one_kills_density_slope_at_origin(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        *_, f1_0 = f_second_integrals(mix)
        assert f1_0 == 0.0

    def test_bound_mode_tight_at_shape_one(self):
        for i in range(3):
            assert component_i_fpp_upper(1.0, i) == _component_i_fpp(1.0, i)

    @pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5, 2.0, 3.0, 5.5, 10.0])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_exact_never_exceeds_bound_mode(self, alpha, i):
        assert _component_i_fpp(alpha, i) <= component_i_fpp_upper(alpha, i) * (1 + 1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.7])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_exact_against_quadrature(self, alpha, i):
        # independent check: trapezoid quadrature of u^i |F_a''(u)| after the
        # substitution u = s^2, which removes the integrable singularity at 0
        s = np.linspace(0.0, math.sqrt(120.0), 400_001)
        power = 2.0 * (i + alpha) - 3.0
        integrand = 2.0 * s**power * np.exp(-(s**2)) * np.abs(alpha - 1.0 - s**2)
        integrand /= math.gamma(alpha)
        integral = np.trapezoid(integrand, s)
        assert _component_i_fpp(alpha, i) == pytest.approx(integral, rel=1e-5)

    def test_admissibility(self):
        mix = GammaMixture((Component(0.5, 0.9, 1.0), Component(0.5, 2.0, 1.0)))
        with pytest.raises(AdmissibilityError):
            f_second_integrals(mix)


class TestChainDerivativeBounds:
    def test_first_norm_exponential(self):
        report = chain_derivative_bounds(exp_ledger(0.9), 0.9)
        assert report.m1_norm == pytest.approx(0.9, rel=1e-9)

    def test_chain_arithmetic(self):
        ledger = exp_ledger(0.9)
        report = chain_derivative_bounds(ledger, 0.9)
        m1 = ledger.w1_norm / 0.1
        um1 = (0.9 * ledger.ez * m1 + ledger.uw1_norm) / 0.1
        u2m1 = (0.9 * (2.0 * ledger.ez * um1 + ledger.ez2 * m1) + ledger.u2w1_norm) / 0.1
        assert report.um1_norm == pytest.approx(um1, rel=1e-14)
        assert report.u2m1_norm == pytest.approx(u2m1, rel=1e-14)

    def test_zero_defect_collapses_to_w_norms(self):
        ledger = exp_ledger(0.9)
        report = chain_derivative_bounds(ledger, 0.0)
        assert report.m1_norm == ledger.w1_norm
        assert report.m2_norm == ledger.w2_norm

    def test_true_derivative_is_dominated(self):
        # |d/du nonruin| = 0.09 exp(-0.1 u) has sup 0.09, below the bound 0.9
        report = chain_derivative_bounds(exp_ledger(0.9), 0.9)
        assert 0.09 <= report.m1_norm


class TestChainHighOrderBounds:
    def test_zero_defect(self):
        ledger = exp_ledger(0.9)
        partial = chain_derivative_bounds(ledger, 0.0)
        full = chain_high_order_bounds(partial, ledger, 0.0)
        assert full.u2m3_norm == ledger.u2w1pp_norm

    def test_dominates_true_third_derivative(self):
        # u^2 |d^3/du^3 ruin| = 0.0009 u^2 exp(-0.1u), sup 0.0009 * 400 e^-2
        ledger = exp_ledger(0.9)
        full = chain_high_order_bounds(chain_derivative_bounds(ledger, 0.9), ledger, 0.9)
        true_sup = 0.0009 * 400.0 * math.exp(-2.0)
        assert full.u2m3_norm >= true_sup

    def test_um3_equals_u2m4(self):
        ledger = exp_ledger(0.9)
        full = chain_high_order_bounds(chain_derivative_bounds(ledger, 0.9), ledger, 0.9)
        assert full.um3_norm == full.u2m4_norm

    @settings(max_examples=40, deadline=None)
    @given(
        bumps=st.lists(st.floats(0.0, 2.0), min_size=15, max_size=15),
        phi=st.floats(0.05, 0.95),
    )
    def test_monotone_in_every_ledger_entry(self, bumps, phi):
        base = exp_ledger(0.9)
        fields = [f.name for f in dataclasses.fields(NormLedger)]
        bumped_vals = {}
        for name, bump in zip(fields, bumps):
            value = getattr(base, name)
            bumped_vals[name] = value + (0.0 if name == "f1_0" else bump)
        # keep the moment pair consistent so validation passes
        bumped_vals["ez2"] = max(bumped_vals["ez2"], bumped_vals["ez"] ** 2)
        bumped = NormLedger(**bumped_vals)
        lo = chain_high_order_bounds(chain_derivative_bounds(base, phi), base, phi)
        hi = chain_high_order_bounds(chain_derivative_bounds(bumped, phi), bumped, phi)
        for name in ("m1_norm", "um1_norm", "u2m1_norm", "m2_norm", "um2_norm",
                     "u2m2_norm", "u2m3_norm", "u2m4_norm", "um3_norm"):
            assert getattr(hi, name) >= getattr(lo, name) - 1e-12


class TestTheoremBound:
    def test_zero_norms_give_zero(self):
        report = BoundReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert report.total_bound(3.0) == 0.0

    def test_quarters_when_rate_doubles(self):
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        assert report.total_bound(10.0) == pytest.approx(report.total_bound(5.0) / 4.0, rel=1e-14)

    def test_scaling_law(self):
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        consts = [report.total_bound(t) * t * t for t in (1.0, 2.0, 5.0, 10.0, 100.0)]
        spread = (max(consts) - min(consts)) / max(consts)
        assert spread < 1e-14

    @pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
    def test_non_finite_rate_rejected(self, t):
        # C / inf**2 = 0 would read as an exact approximation
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        with pytest.raises(DomainError, match="finite"):
            report.total_bound(t)

    def test_incomplete_report_rejected(self):
        partial = chain_derivative_bounds(exp_ledger(0.9), 0.9)
        with pytest.raises(DomainError):
            partial.total_bound(5.0)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_validity_against_observed_error(self, phi, t):
        model = RiskModel(GammaMixture.exponential(), phi)
        _, report = ruin_bound_report(model)
        approx = approximate_nonruin(model, t, 40.0)
        K = approx.lattice.truncation_index
        observed = max(
            abs(float(approx.lattice.values[k]) - exact_nonruin_exponential(phi, 1.0, k / t))
            for k in range(K + 1)
        )
        assert report.total_bound(t) >= observed

    def test_upper_integral_mode_is_looser(self, gamma32_mixture):
        # the chain is monotone in the ledger, so the componentwise upper
        # integrals can only loosen the bound
        model = RiskModel(gamma32_mixture, 0.9)
        ledger, exact_report = ruin_bound_report(model)
        mu = gamma32_mixture.mean
        i0, i1, i2 = (
            math.fsum(p * beta ** (1 - i) * component_i_fpp_upper(alpha, i)
                      for p, alpha, beta in gamma32_mixture.components) / mu
            for i in range(3)
        )
        upper = dataclasses.replace(ledger, i0_fpp=i0, i1_fpp=i1, i2_fpp=i2)
        upper_report = chain_high_order_bounds(chain_derivative_bounds(upper, 0.9), upper, 0.9)
        assert upper_report.total_bound(5.0) >= exact_report.total_bound(5.0)


class TestNormLedgerValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            NormLedger(-1.0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0)

    def test_rejects_moment_inversion(self):
        with pytest.raises(DomainError):
            NormLedger(0, 0, 0, 0, 0, 0, 0, 0, 2.0, 1.0, 0, 0, 0, 1, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            NormLedger(math.inf, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0)
