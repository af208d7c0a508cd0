import math
import random
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import closed_form_lstar_exponential_ruin, exact_nonruin_integer_gamma, ReadOnlyLST
from renewinv import (
    AdmissibilityError,
    approximate_nonruin,
    Component,
    ConstantLST,
    DomainError,
    exact_nonruin_exponential,
    GammaMixture,
    inversion,
    lstar_nonruin,
    m2_lattice,
    renewal_data_from_model,
    RenewalRatioLST,
    RiskModel,
    ruin,
    ruin_bound_report,
    ScaledLST,
    SumLST,
)
from renewinv.compound import discretize_equilibrium, panjer_geometric
from renewinv.inversion import covering_index, MAX_FINE_LATTICE


def _must_not_run(*args):
    raise AssertionError("the lattice cap must refuse before any oracle call")


def count_compound_expansions(monkeypatch):
    """List of (rate, K) of every compound expansion the non-ruin oracle runs from now on."""
    calls = []

    def counting(severity, phi, K):
        calls.append((severity.t, K))
        return panjer_geometric(severity, phi, K)

    monkeypatch.setattr(ruin, "panjer_geometric", counting)
    return calls


def compound_cdf_reference(mixture, phi, t, K):
    """Clamped CDF of the geometric compound of the equilibrium law at rate t, to index K."""
    pmf = panjer_geometric(discretize_equilibrium(mixture, t, K), phi, K)
    return np.minimum(np.cumsum(pmf.weights), 1.0)


def ratio_nonruin(model):
    """1 - psi, with psi the renewal ratio over the model's renewal ingredients."""
    data = renewal_data_from_model(model)
    psi = RenewalRatioLST(data.v_oracle, data.f_oracle, data.phi)
    return SumLST(ConstantLST(1.0), ScaledLST(-1.0, psi))


def unprojected_nonruin(model, t, u_max):
    """M2 of the non-ruin oracle as approximate_nonruin has it before its projection."""
    return m2_lattice(ruin._NonruinLST(model), t, covering_index(t, u_max), 1.0 - model.phi).values


def assert_nondecreasing_in_range(values, phi):
    assert values[0] == 1.0 - phi
    assert values.min() >= 1.0 - phi and values.max() <= 1.0
    assert np.all(np.diff(values) >= 0.0)


def wrong_answers_from_shuffled_threads(calls):
    """(seed, t) of each answer that differs from its cold one, or (seed, exception).

    Each of six threads runs ``calls`` three times over in its own shuffled order,
    with the interpreter switching threads every microsecond; the cold
    answers come from a cleared memo, one call at a time.
    """
    cold = {}
    for model, t in calls:
        inversion._memoized_pass.cache_clear()
        cold[model, t] = approximate_nonruin(model, t, 40.0).lattice.values.tobytes()
    wrong = []

    def work(seed):
        order = calls * 3
        random.Random(seed).shuffle(order)
        try:
            for model, t in order:
                if approximate_nonruin(model, t, 40.0).lattice.values.tobytes() != cold[model, t]:
                    wrong.append((seed, t))
        except Exception as exc:  # a raise in a thread must fail the test, not vanish
            wrong.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return wrong


class TestRiskModel:
    @pytest.mark.parametrize("phi", [0.0, 1.0, -0.2, 1.5])
    def test_net_profit_condition(self, exp_mixture, phi):
        with pytest.raises(AdmissibilityError):
            RiskModel(exp_mixture, phi)

    def test_nan_loading_is_a_domain_error(self, exp_mixture):
        # NaN fails every comparison, so it is no violation of the net-profit condition
        with pytest.raises(DomainError, match="loading factor phi"):
            RiskModel(exp_mixture, math.nan)


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

    def test_nan_loading_is_a_domain_error(self):
        with pytest.raises(DomainError, match="loading factor phi"):
            exact_nonruin_exponential(math.nan, 1.0, 1.0)

    @pytest.mark.parametrize("beta,u", [(1.0, math.nan), (math.inf, 0.0), (math.inf, 1.0)])
    def test_nan_capital_or_infinite_rate(self, beta, u):
        # exp(nan) and, at the origin, inf * 0 would give nan
        with pytest.raises(DomainError):
            exact_nonruin_exponential(0.5, beta, u)

    def test_infinite_capital_is_certain_survival(self):
        assert exact_nonruin_exponential(0.9, 2.0, math.inf) == 1.0

    @pytest.mark.parametrize("phi,beta", [(0.9, 1.0), (0.5, 0.75), (0.3, 40.0)])
    def test_array_matches_scalar_form(self, phi, beta):
        # beta (1 - phi) u overflows at u = 1e308 for beta = 40
        u = np.concatenate([np.linspace(0.0, 60.0, 1201), [1e308, math.inf]]).reshape(-1, 1)
        got = exact_nonruin_exponential(phi, beta, u)
        assert got.shape == u.shape and got.dtype == np.float64
        for x, g in zip(u.ravel().tolist(), got.ravel()):
            scalar = exact_nonruin_exponential(phi, beta, x)
            assert type(scalar) is float and scalar == g, x
            # np.exp and math.exp differ by at most an ulp of exp; values lie in [1 - phi, 1]
            assert abs(g - (1.0 - phi * math.exp(-beta * (1.0 - phi) * x))) <= math.ulp(1.0), x

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_array_refuses_the_first_bad_point(self, bad):
        with pytest.raises(DomainError, match=f"initial capital u must be >= 0, got {bad}"):
            exact_nonruin_exponential(0.9, 1.0, [0.0, 2.0, bad, -5.0])


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

    def test_infinite_horizon_refused_by_its_own_check(self, monkeypatch, exp_mixture):
        # an infinite u_max used to pass its check and be refused by lattice_index
        monkeypatch.setattr(ruin, "discretize_equilibrium", _must_not_run)
        with pytest.raises(DomainError, match="u_max must be positive and finite, got inf"):
            approximate_nonruin(RiskModel(exp_mixture, 0.9), 5.0, math.inf)

    def test_float32_rate_answers_as_its_float64_value(self, exp_mixture):
        # a float32 rate used to reach the oracle as float32: at t = 5 the
        # equilibrium weights summed to 1 + 1.2e-5 and were refused, and
        # t * u_max = 0.1 * 40 rounded to 4 in float32, where the float64
        # value of that rate needs K = 5 to reach u = 40
        model = RiskModel(exp_mixture, 0.9)
        for t, K in [(5.0, 200), (0.1, 5)]:
            rate = np.float32(t)
            approx = approximate_nonruin(model, rate, 40.0)
            assert approx.lattice.truncation_index == K
            expected = approximate_nonruin(model, float(rate), 40.0).lattice.values
            assert approx.lattice.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t", ["5", None, 5j])
    def test_rate_that_is_not_real_refused(self, exp_mixture, t):
        with pytest.raises(DomainError, match="lattice rate t must be a real number"):
            approximate_nonruin(RiskModel(exp_mixture, 0.9), t, 40.0)

    def test_non_finite_query(self, exp_mixture):
        approx = approximate_nonruin(RiskModel(exp_mixture, 0.9), 5.0, 10.0)
        with pytest.raises(DomainError):
            approx.nonruin(math.nan)

    @pytest.mark.parametrize("t,u_max", [(1e6, 40.0), (1.0, MAX_FINE_LATTICE / 2 + 1)])
    def test_lattice_size_cap(self, monkeypatch, exp_mixture, t, u_max):
        # refused before the oracle discretizes anything
        monkeypatch.setattr(ruin, "discretize_equilibrium", _must_not_run)
        with pytest.raises(
            DomainError, match=f"on the fine lattice needs .* more than the limit {MAX_FINE_LATTICE}"
        ):
            approximate_nonruin(RiskModel(exp_mixture, 0.9), t, u_max)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("t", [5.0, 100.0, 200.0])
    def test_matches_two_curve_combine(self, all_table_mixtures, phi, t):
        # the order-2 combine written out on two clamped compound CDFs,
        # 2 L*_{2t}[1::2] - L*_t; the oracle route divides each CDF by its
        # rate and multiplies back, which moves a value by a few ulps
        for mix in all_table_mixtures.values():
            approx = approximate_nonruin(RiskModel(mix, phi), t, 40.0)
            K = approx.lattice.truncation_index
            fine = compound_cdf_reference(mix, phi, 2.0 * t, 2 * K - 1)
            coarse = compound_cdf_reference(mix, phi, t, K - 1)
            assert approx.lattice.values[0] == 1.0 - phi
            assert np.max(np.abs(approx.lattice.values[1:] - (2.0 * fine[1::2] - coarse))) <= 1e-15
            plain = lstar_nonruin(RiskModel(mix, phi), t, K).values
            assert np.max(np.abs(plain - compound_cdf_reference(mix, phi, t, K))) <= 1e-15

    def test_two_compound_expansions_per_call(self, monkeypatch, gamma32_mixture):
        calls = count_compound_expansions(monkeypatch)
        approximate_nonruin(RiskModel(gamma32_mixture, 0.9), 2.0, 40.0)
        assert sorted(calls) == [(2.0, 79), (4.0, 159)]

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

    def test_small_claims_excess_mass_is_an_error(self):
        # mean claim 1e-5, so t * mean = 1e-4 on the fine lattice: the
        # 1 - cumsum rounding floor of SurvivalLST, divided by t * mean,
        # leaves the equilibrium weights about 1e-10 above 1, and the
        # compound step at phi = 0.999 multiplies that by about 1/(1 - phi)
        model = RiskModel(GammaMixture((Component(1.0, 0.01, 1000.0),)), 0.999)
        with pytest.raises(
            DomainError,
            match=r"t=10\.0 sum to 1\.000000079\d*, above 1 \+ 1e-09: the claims are small "
            "against the lattice spacing 1/t",
        ):
            approximate_nonruin(model, 5.0, 10.0)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("beta", [10**10.5, 1e15, 1e20], ids=["1e10.5", "1e15", "1e20"])
    def test_tiny_claims_are_refused(self, beta, phi):
        # 1 - cumsum rounds the first equilibrium tail, about t / beta: at
        # beta = 10**10.5 the sup error was 1.7e-7 (phi 0.5) and 1.6e-6 (phi 0.9),
        # at 1e15 8.0e-4 and 7.1e-3, and from 1e20 the answer was 1 - phi at
        # every u, not 1.  M2 over 1 - psi from the renewal ratio read the same
        # tails unguarded (sup error 7.1e-3 at 1e15, phi 0.9), and refuses alike
        model = RiskModel(GammaMixture.exponential(beta), phi)
        with pytest.raises(DomainError, match="first equilibrium tail at t=10.0 rounds to") as compound:
            approximate_nonruin(model, 5.0, 2.0)
        with pytest.raises(DomainError) as ratio:
            m2_lattice(ratio_nonruin(model), 5.0, covering_index(5.0, 2.0), 1.0 - phi)
        assert str(ratio.value) == str(compound.value)

    @pytest.mark.parametrize(
        "components, causes",
        [
            (((1.0, 1.0, 1e15),), r"t \* mean claim = 1\.0000000000000002e-14, smallest t/beta = 1e-14"),
            # mean 1, so the claims are not small: beta/(t + beta) rounds to 1
            (((1.0, 1e20, 1e20),), r"t \* mean claim = 10\.0, smallest t/beta = 1e-19"),
        ],
        ids=["exp_1e15", "gamma_1e20_1e20"],
    )
    def test_first_tail_refusal_reports_its_causes(self, components, causes):
        model = RiskModel(GammaMixture(components), 0.9)
        with pytest.raises(
            DomainError,
            match=r"^the first equilibrium tail at t=10\.0 rounds to \S+ against \S+: 1 - cumsum "
            rf"loses more than 1e-09 of it \({causes}\)$",
        ):
            approximate_nonruin(model, 5.0, 2.0)

    def test_small_claims_excess_mass_is_refused_by_the_renewal_ratio(self):
        # the ratio route read these tails unguarded, with weights summing to 1 + 6.7e-9
        mixture = GammaMixture((Component(1.0, 0.01, 1000.0),))
        with pytest.raises(DomainError, match=r"t=5\.0 sum to 1\.0000000066") as compound:
            discretize_equilibrium(mixture, 5.0, 3000)
        data = renewal_data_from_model(RiskModel(mixture, 0.9))
        with pytest.raises(DomainError) as ratio:
            RenewalRatioLST(data.v_oracle, data.f_oracle, 0.9).weights(5.0, 3000)
        assert str(ratio.value) == str(compound.value)

    def test_small_claims_just_under_the_first_tail_tolerance_answer(self):
        # first-tail gaps 4.5e-10 at t = 10 and 4.9e-10 at t = 5, under 1e-9
        model = RiskModel(GammaMixture.exponential(1e8), 0.5)
        values = approximate_nonruin(model, 5.0, 2.0).lattice.values
        exact = exact_nonruin_exponential(0.5, 1e8, np.arange(values.size) / 5.0)
        assert np.max(np.abs(values - exact)) < 1e-12

    def test_first_tail_guard_warns_nothing_over_the_claim_rates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in np.logspace(-300, 300, 61):
                try:
                    approximate_nonruin(RiskModel(GammaMixture.exponential(beta), 0.9), 5.0, 2.0)
                except DomainError:
                    pass

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


class TestProjection:
    """approximate_nonruin projects M2 onto nondecreasing curves in [1 - phi, 1]."""

    @pytest.mark.parametrize(
        "alpha,beta,phi,excess",
        [
            pytest.param(1.0, 1000.0, 0.9, 2.7981e-2, id="exp1000-phi0.9"),
            pytest.param(1.0, 1000.0, 0.5, 4.566e-3, id="exp1000-phi0.5"),
            pytest.param(3.0, 300.0, 0.9, 1.0806e-2, id="gamma3-300-phi0.9"),
            pytest.param(1.1913, 1.9530, 0.503, 4.26e-10, id="gamma1.19-1.95-phi0.503"),
        ],
    )
    def test_curve_that_leaves_the_range_is_projected(self, alpha, beta, phi, excess):
        # M2 at t = 5 exceeds 1 by `excess` and then falls back, which it used to return
        model = RiskModel(GammaMixture((Component(1.0, alpha, beta),)), phi)
        raw = unprojected_nonruin(model, 5.0, 40.0)
        assert raw.max() - 1.0 == pytest.approx(excess, rel=1e-3)
        got = approximate_nonruin(model, 5.0, 40.0).lattice.values
        assert_nondecreasing_in_range(got, phi)
        want = np.maximum.accumulate(np.clip(raw, 1.0 - phi, 1.0))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [5.0, 20.0, 200.0])
    def test_curve_in_range_is_returned_as_m2_gave_it(self, all_table_mixtures, t):
        rng = np.random.default_rng(11)
        models = [RiskModel(mix, phi) for mix in all_table_mixtures.values() for phi in (0.5, 0.9)]
        for n in (1, 2, 3, 2):
            p = rng.uniform(0.1, 1.0, n)
            comps = zip(p / p.sum(), rng.uniform(1.0, 4.0, n), rng.uniform(0.5, 2.0, n))
            models.append(RiskModel(GammaMixture(tuple(comps)), rng.uniform(0.5, 0.95)))
        for model in models:
            raw = unprojected_nonruin(model, t, 40.0)
            assert_nondecreasing_in_range(raw, model.phi)
            got = approximate_nonruin(model, t, 40.0).lattice.values
            assert got.tobytes() == raw.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        components=st.lists(
            st.tuples(st.floats(0.1, 1.0), st.floats(0.25, 4.0), st.floats(-0.7, 7.6)),
            min_size=1,
            max_size=3,
        ),
        phi=st.floats(0.05, 0.95),
        t=st.floats(1.0, 20.0),
    )
    def test_random_mixture_nonruin_is_nondecreasing_in_range(self, components, phi, t):
        # claim rates from 0.5 to 2000 (log-uniform), so claims also come small
        # against the lattice spacing 1/t, where M2 leaves the range
        total = math.fsum(p for p, _, _ in components)
        mix = GammaMixture(
            tuple(Component(p / total, alpha, math.exp(log_beta)) for p, alpha, log_beta in components)
        )
        values = approximate_nonruin(RiskModel(mix, phi), t, 10.0).lattice.values
        assert_nondecreasing_in_range(values, phi)


class TestPassMemo:
    """m2_lattice shares the non-ruin oracle's passes between calls; answers never depend on it."""

    def test_doubling_ladder_shares_passes(self, monkeypatch, gamma32_mixture):
        # M2 at 2t reads M2-at-t's fine pass (4t, 159) again: 4 passes, not 6
        model = RiskModel(gamma32_mixture, 0.9)
        calls = count_compound_expansions(monkeypatch)
        warm = [approximate_nonruin(model, t, 40.0).lattice.values for t in (2.0, 4.0, 8.0)]
        assert calls == [(4.0, 159), (2.0, 79), (8.0, 319), (16.0, 639)]
        memo = inversion._memoized_pass.cache_info()
        assert memo.currsize == memo.maxsize == 3
        for t, values in zip((2.0, 4.0, 8.0), warm):
            inversion._memoized_pass.cache_clear()
            assert approximate_nonruin(model, t, 40.0).lattice.values.tobytes() == values.tobytes()

    def test_equal_model_with_int_parameters_hits_the_memo(self, monkeypatch):
        floats = RiskModel(GammaMixture((Component(1.0, 2.0, 1.0),)), 0.9)
        ints = RiskModel(GammaMixture((Component(1, 2, 1),)), 0.9)
        cold_floats = approximate_nonruin(floats, 5.0, 40.0).lattice.values
        plain_floats = lstar_nonruin(floats, 5.0, 200).values
        inversion._memoized_pass.cache_clear()
        cold_ints = approximate_nonruin(ints, 5, 40).lattice.values
        plain_ints = lstar_nonruin(ints, 5, 200).values
        assert cold_ints.tobytes() == cold_floats.tobytes()
        assert plain_ints.tobytes() == plain_floats.tobytes()
        calls = count_compound_expansions(monkeypatch)
        warm = approximate_nonruin(RiskModel(GammaMixture((Component(1.0, 2.0, 1.0),)), 0.9), 5.0, 40.0)
        assert calls == []
        assert warm.lattice.values.tobytes() == cold_floats.tobytes()

    def test_refusals_raise_on_every_call(self):
        model = RiskModel(GammaMixture((Component(1.0, 0.01, 1000.0),)), 0.999)
        for _ in range(2):
            with pytest.raises(DomainError, match="the claims are small against the lattice"):
                approximate_nonruin(model, 5.0, 10.0)
        assert inversion._memoized_pass.cache_info().currsize == 0

    def test_m2_lattice_never_writes_memoized_weights(self, exp_mixture):
        # the oracle hands out read-only arrays, so any write into a memoized
        # pass would raise; M2 at 5 reads M2-at-2.5's fine pass from the memo
        model = RiskModel(exp_mixture, 0.9)
        shared = ReadOnlyLST(ruin._NonruinLST(model))
        got = [m2_lattice(shared, t, covering_index(t, 8.0), 1.0 - model.phi).values for t in (2.5, 5.0)]
        assert inversion._memoized_pass.cache_info().hits == 1
        assert sorted(shared.handed_out) == [(2.5, 19), (5.0, 39), (10.0, 79)]
        assert shared.untouched()
        for t, values in zip((2.5, 5.0), got):
            assert values.tobytes() == approximate_nonruin(model, t, 8.0).lattice.values.tobytes()

    def test_concurrent_callers_get_cold_answers(self, all_table_mixtures):
        # more threads than cores share the memo, each running the ladders in its own order
        calls = [(RiskModel(mix, 0.9), t) for mix in all_table_mixtures.values() for t in (2.0, 4.0, 8.0)]
        assert wrong_answers_from_shuffled_threads(calls) == []

    def test_concurrent_fft_ladders_get_cold_answers(self, all_table_mixtures):
        # fine lattices of 2000-8000 weights take long FFT passes, at cyclic
        # lengths 2048-8192: each thread reuses its kept FFT work arrays
        # across lengths in both orders, while the threads share the memo
        calls = [(RiskModel(mix, 0.9), t) for mix in all_table_mixtures.values() for t in (25.0, 50.0, 100.0)]
        assert wrong_answers_from_shuffled_threads(calls) == []

    def test_refused_point_is_checked_before_the_memo(self, exp_mixture):
        oracle = ruin._NonruinLST(RiskModel(exp_mixture, 0.9))
        m2_lattice(oracle, 5.0, 21, 0.1)
        with pytest.raises(DomainError, match="truncation index K must be an integer"):
            m2_lattice(oracle, 5.0, 21.0, 0.1)
        with pytest.raises(DomainError, match="k_max must be an integer"):
            oracle.weights(5.0, 20.0)


class TestLstarNonruin:
    def test_weight_cap(self, monkeypatch, exp_mixture):
        # 2**20 + 1 weights, one over the cap; refused before any array is built
        monkeypatch.setattr(ruin, "discretize_equilibrium", _must_not_run)
        with pytest.raises(DomainError, match=f"more than the limit {MAX_FINE_LATTICE}"):
            lstar_nonruin(RiskModel(exp_mixture, 0.9), 1.0, MAX_FINE_LATTICE)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, "5", None])
    def test_bad_rate(self, exp_mixture, t):
        with pytest.raises(DomainError):
            lstar_nonruin(RiskModel(exp_mixture, 0.9), t, 3)

    def test_float32_rate_answers_as_its_float64_value(self, exp_mixture):
        # at float32 t = 5 the equilibrium weights summed to 1 + 1.2e-5 and
        # were refused
        model = RiskModel(exp_mixture, 0.9)
        curve = lstar_nonruin(model, np.float32(5.0), 200)
        assert type(curve.t) is float
        assert curve.values.tobytes() == lstar_nonruin(model, 5.0, 200).values.tobytes()

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
    """The package's transform oracles of f and v, against closed forms.

    Weights at t are w_k = (-t)^k / k! g~^(k)(t); the transform 1/(1+s)^j
    of u^(j-1) e^-u / (j-1)! has w_k = C(k+j-1, k) t^k / (1+t)^(k+j).
    """

    def test_exponential_ingredients(self, exp_mixture):
        # f = e^-u and v = 0.9 e^-u
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.9))
        for t in [1.0, 5.0]:
            k = np.arange(21)
            expected = t**k / (1.0 + t) ** (k + 1)
            np.testing.assert_allclose(data.f_oracle.weights(t, 20), expected, rtol=1e-12)
            np.testing.assert_allclose(data.v_oracle.weights(t, 20), 0.9 * expected, rtol=1e-12)

    def test_v_at_origin_is_phi(self, all_table_mixtures):
        # v~(t) = phi (1 - f~(t)) / t, so t v~(t) tends to v(0) = phi
        for mix in all_table_mixtures.values():
            data = renewal_data_from_model(RiskModel(mix, 0.7))
            for t in [10.0, 1e3, 1e6]:
                f0 = data.f_oracle.weights(t, 0)[0]
                assert t * data.v_oracle.weights(t, 0)[0] == pytest.approx(
                    0.7 * (1.0 - f0), rel=1e-14
                )
            assert 1e8 * data.v_oracle.weights(1e8, 0)[0] == pytest.approx(0.7, rel=1e-7)

    def test_gamma_2_1_equilibrium_density(self):
        # f = (1 + u) e^-u / 2 and v = 0.9 (2 + u) e^-u / 2
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        data = renewal_data_from_model(RiskModel(mix, 0.9))
        t = 5.0
        k = np.arange(21)
        first = t**k / (1.0 + t) ** (k + 1)
        second = (k + 1) * t**k / (1.0 + t) ** (k + 2)
        np.testing.assert_allclose(data.f_oracle.weights(t, 20), (first + second) / 2.0, rtol=1e-12)
        np.testing.assert_allclose(
            data.v_oracle.weights(t, 20), 0.9 * (2.0 * first + second) / 2.0, rtol=1e-12
        )


class TestConvergenceOrder:
    """The uniform order of M2 is min(2, 1 + alpha) on Gamma(alpha, alpha) claims.

    The order is log2 of the sup error at t = 160 over that at t = 320, on
    u <= 10.  Below alpha = 1 it is lost in a boundary layer at u = 0, where
    m'' carries phi m(0) f'(u) with f' ~ u^(alpha - 1); on u >= 0.5 the order
    is 2 at every shape.  The reference is the exact sum of exponentials for
    an integer shape, and M2 at t = 5120 otherwise, whose error is 16^-1.5
    = 1/64 of the error at t = 320 or less.
    """

    U_MAX = 10.0
    T_REF = 5120.0

    def sup_errors(self, model, t, reference):
        values = approximate_nonruin(model, t, self.U_MAX).lattice.values[: int(self.U_MAX * t) + 1]
        u = np.arange(values.size) / t
        err = np.abs(values - reference(u))
        return err.max(), err[u >= 0.5].max()

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.0])
    def test_order_follows_the_shape(self, alpha, phi):
        model = RiskModel(GammaMixture((Component(1.0, alpha, alpha),)), phi)
        if alpha.is_integer():
            reference = exact_nonruin_integer_gamma(model)
        else:
            ref = approximate_nonruin(model, self.T_REF, self.U_MAX).lattice.values
            reference = lambda u: ref[np.rint(u * self.T_REF).astype(int)]
        (coarse, coarse_away), (fine, fine_away) = (
            self.sup_errors(model, t, reference) for t in (160.0, 320.0)
        )
        assert math.log2(coarse / fine) == pytest.approx(min(2.0, 1.0 + alpha), abs=0.05)
        assert math.log2(coarse_away / fine_away) == pytest.approx(2.0, abs=0.05)
