import math
import re

import numpy as np
import pytest

from renewinv import (
    Component,
    ConstantLST,
    DomainError,
    ExponentialDecayLST,
    GammaMixture,
    inversion,
    l_star,
    lattice_index,
    LatticeFunction,
    m2_lattice,
    post_widder,
    renewal_data_from_model,
    RenewalRatioLST,
    RiskModel,
    ScaledLST,
    SingularityError,
    stehfest2,
    SumLST,
)
from renewinv.inversion import covering_index, MAX_FINE_LATTICE
from renewinv import transforms
from renewinv.transforms import TransformOracle


class Untouchable(TransformOracle):
    """Oracle that fails the test if any operator asks it for weights."""

    def weights(self, t, k_max):
        raise AssertionError("oracle called past the lattice cap")


class LinearRampLST(TransformOracle):
    """Oracle for g(u) = u, with transform 1/t^2 and weights (k+1)/t^2."""

    def weights(self, t, k_max):
        self._require_valid_point(t, k_max)
        return (np.arange(k_max + 1) + 1.0) / (t * t)


def tf_oracle(p):
    return SumLST(ConstantLST(1.0), ScaledLST(-(1.0 - p), ExponentialDecayLST(p)))


def tf_exact(p, u):
    return 1.0 - (1.0 - p) * math.exp(-p * u)


class TestLatticeIndex:
    def test_exact_products(self):
        assert lattice_index(5.0, 0.8) == (4, 0.0)
        assert lattice_index(5.0, 2.0) == (10, 0.0)

    def test_snaps_from_below(self):
        # 3 * (1/3) rounds to 0.999... in binary; must land on index 1
        assert lattice_index(3.0, 1.0 / 3.0) == (1, 0.0)

    def test_true_fraction(self):
        k, frac = lattice_index(5.0, 0.9)
        assert k == 4 and frac == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "t,u", [(math.inf, 40.0), (5.0, math.inf), (5.0, math.nan), (math.nan, 1.0), (0.0, math.inf)]
    )
    def test_non_finite_product_raises(self, t, u):
        with pytest.raises(DomainError):
            lattice_index(t, u)


    @pytest.mark.parametrize(
        "t,u,K", [(5.0, 0.8, 4), (5.0, 0.9, 5), (3.0, 1.0 / 3.0, 1), (5.0, 0.01, 1), (5.0, 0.0, 1)]
    )
    def test_covering_index(self, t, u, K):
        # smallest K >= 1 with K/t >= u, after the snap of lattice_index
        assert covering_index(t, u) == K


class TestLStar:
    @pytest.mark.parametrize("t,u", [(1.0, 0.0), (5.0, 0.8), (5.0, 7.3), (10.0, 40.0)])
    def test_constant_function(self, t, u):
        assert l_star(ConstantLST(1.0), t, u) == pytest.approx(1.0, rel=1e-14)

    def test_exponential_closed_form(self):
        # L*_t exp(-a u) = (t/(t+a))**([tu]+1)
        a, t = 0.1, 5.0
        for u in [0.0, 0.8, 1.0, 3.33, 17.2]:
            k = lattice_index(t, u)[0]
            expected = (t / (t + a)) ** (k + 1)
            assert l_star(ExponentialDecayLST(a), t, u) == pytest.approx(expected, rel=1e-13)
        assert l_star(ExponentialDecayLST(a), t, 0.8) == pytest.approx(
            (5.0 / 5.1) ** 5, rel=1e-14
        )

    def test_linear_ramp_mean_identity(self):
        # the operator returns the mean ([tu]+1)/t of the underlying gamma
        for t, u in [(5.0, 0.8), (2.0, 3.1), (10.0, 0.05)]:
            k = lattice_index(t, u)[0]
            assert l_star(LinearRampLST(), t, u) == pytest.approx((k + 1) / t, rel=1e-13)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_point(self, u):
        with pytest.raises(DomainError):
            l_star(ConstantLST(1.0), 5.0, u)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            l_star(ConstantLST(1.0), 5.0, -0.1)
        with pytest.raises(DomainError):
            l_star(ConstantLST(1.0), 0.0, 1.0)

    def test_weight_cap_before_any_oracle_call(self):
        # t*u = 2**20 - 1 reads weights 0..2**20 - 1, exactly the cap
        assert l_star(ConstantLST(1.0), 1.0, MAX_FINE_LATTICE - 1.0) == 1.0
        with pytest.raises(DomainError, match="oracle weights"):
            l_star(Untouchable(), 1.0, float(MAX_FINE_LATTICE))

    def test_cdf_image_is_a_cdf(self):
        # for a CDF source the operator value is itself a distribution
        # function on the lattice: within [0, 1] and nondecreasing in u
        from renewinv import Component, CumulativeLST, GammaMixture, GammaMixtureLST

        mix = GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0)))
        oracle = CumulativeLST(GammaMixtureLST(mix))
        t = 5.0
        values = [l_star(oracle, t, k / t) for k in range(0, 120)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


class TestM2Lattice:
    def test_constant_is_reproduced_exactly(self):
        lattice = m2_lattice(ConstantLST(2.5), 5.0, 20, 2.5)
        assert np.allclose(lattice.values, 2.5, rtol=1e-14)

    def test_test_function_value_at_one(self):
        # 2 (1 - 0.9 (10/10.1)**10) - (1 - 0.9 (5/5.1)**5) at t=5, k=5
        oracle = tf_oracle(0.1)
        lattice = m2_lattice(oracle, 5.0, 5, 0.1)
        expected = 2.0 * (1.0 - 0.9 * (10.0 / 10.1) ** 10) - (1.0 - 0.9 * (5.0 / 5.1) ** 5)
        assert lattice.values[5] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.185641, abs=5e-7)

    def test_first_lattice_point_bookkeeping(self):
        oracle = tf_oracle(0.1)
        t = 5.0
        lattice = m2_lattice(oracle, t, 3, 0.1)
        expected = 2.0 * l_star(oracle, 2.0 * t, 1.0 / (2.0 * t)) - l_star(oracle, t, 0.0)
        assert lattice.values[1] == pytest.approx(expected, rel=1e-14)

    def test_origin_uses_supplied_value(self):
        lattice = m2_lattice(tf_oracle(0.1), 5.0, 2, 0.123)
        assert lattice.values[0] == 0.123

    def test_needs_positive_truncation(self):
        with pytest.raises(DomainError):
            m2_lattice(ConstantLST(1.0), 5.0, 0, 1.0)

    @pytest.mark.parametrize("K", [2.5, np.float64(3.0)])
    def test_non_integer_truncation_refused_before_any_oracle_call(self, K):
        # K = 2.5 was refused as "k_max must be an integer >= 0, got 4.0",
        # a value the caller never passed
        with pytest.raises(DomainError, match=re.escape(f"K must be an integer >= 1, got {K!r}")):
            m2_lattice(Untouchable(), 5.0, K, 1.0)

    @pytest.mark.parametrize("t", ["5", None, 5j, 10**400], ids=["str", "None", "complex", "huge_int"])
    def test_rate_that_is_not_a_float_refused_before_any_oracle_call(self, t):
        with pytest.raises(DomainError, match="lattice rate t"):
            m2_lattice(Untouchable(), t, 10, 1.0)

    @pytest.mark.parametrize("g0", [math.nan, math.inf])
    def test_non_finite_origin_value_refused(self, g0):
        # g0 = NaN used to give the values [nan, 1, 1, 1]
        with pytest.raises(DomainError, match="finite"):
            m2_lattice(ConstantLST(1.0), 5.0, 3, g0)

    def test_fine_lattice_cap_before_any_oracle_call(self):
        m2_lattice(ConstantLST(1.0), 5.0, MAX_FINE_LATTICE // 2, 1.0)
        with pytest.raises(DomainError, match="fine lattice"):
            m2_lattice(Untouchable(), 5.0, MAX_FINE_LATTICE // 2 + 1, 1.0)

    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_acceleration_beats_plain_operator(self, t):
        oracle = tf_oracle(0.1)
        K = int(40 * t)
        lattice = m2_lattice(oracle, t, K, 0.1)
        err_m2 = max(
            abs(lattice.values[k] - tf_exact(0.1, k / t)) for k in range(K + 1)
        )
        err_l = max(
            abs(l_star(oracle, t, k / t) - tf_exact(0.1, k / t)) for k in range(K + 1)
        )
        assert err_m2 <= err_l

    def test_empirical_order_near_two(self):
        oracle = tf_oracle(0.1)
        errs = {}
        for t in (5.0, 10.0):
            K = int(40 * t)
            lattice = m2_lattice(oracle, t, K, 0.1)
            errs[t] = max(
                abs(lattice.values[k] - tf_exact(0.1, k / t)) for k in range(K + 1)
            )
        assert 1.6 <= math.log2(errs[5.0] / errs[10.0]) <= 2.6


def ratio_nonruin_oracle(mixture, phi):
    """1 - m for the ruin function m, built afresh from the renewal ratio."""
    data = renewal_data_from_model(RiskModel(mixture, phi))
    return SumLST(ConstantLST(1.0), ScaledLST(-1.0, RenewalRatioLST(data.v_oracle, data.f_oracle, phi)))


def count_series_quotients(monkeypatch):
    """List of the denominator sizes of every series division run from now on."""
    calls = []
    divide = transforms._series_quotient

    def counting(v, a):
        calls.append(a.size)
        return divide(v, a)

    monkeypatch.setattr(transforms, "_series_quotient", counting)
    return calls


class TestPassMemo:
    """m2_lattice memoizes passes by oracle value; answers never depend on it."""

    MIXTURE = GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0)))

    def test_ratio_ladder_shares_passes(self, monkeypatch):
        # M2 at 2t reads M2-at-t's fine pass again: 4 divisions, not 6
        oracle = ratio_nonruin_oracle(self.MIXTURE, 0.9)
        calls = count_series_quotients(monkeypatch)
        warm = [m2_lattice(oracle, t, covering_index(t, 10.0), 0.1).values for t in (10.0, 20.0, 40.0)]
        assert calls == [200, 100, 400, 800]
        for t, values in zip((10.0, 20.0, 40.0), warm):
            inversion._memoized_pass.cache_clear()
            cold = m2_lattice(oracle, t, covering_index(t, 10.0), 0.1).values
            assert cold.tobytes() == values.tobytes()

    def test_fresh_equal_oracle_hits(self, monkeypatch):
        cold = m2_lattice(ratio_nonruin_oracle(self.MIXTURE, 0.9), 10.0, 100, 0.1).values
        calls = count_series_quotients(monkeypatch)
        warm = m2_lattice(ratio_nonruin_oracle(GammaMixture(self.MIXTURE.components), 0.9), 10.0, 100, 0.1)
        assert calls == []
        assert warm.values.tobytes() == cold.tobytes()

    def test_user_oracle_hits_only_on_the_same_instance(self):
        ramp = LinearRampLST()
        first = m2_lattice(ramp, 5.0, 10, 0.0).values
        assert m2_lattice(ramp, 5.0, 10, 0.0).values.tobytes() == first.tobytes()
        assert inversion._memoized_pass.cache_info()[:2] == (2, 2)  # hits, misses
        m2_lattice(LinearRampLST(), 5.0, 10, 0.0)
        assert inversion._memoized_pass.cache_info()[:2] == (2, 4)

    def test_singularity_is_refused_on_every_call(self):
        # the fine rate 2t = 1 lies above the singularity at t = 0.8, the coarse
        # rate 0.5 below it; only the fine pass is memoized
        oracle = RenewalRatioLST(ConstantLST(1.0), ScaledLST(2.0, ExponentialDecayLST(1.0)), 0.9)
        for _ in range(2):
            with pytest.raises(SingularityError):
                m2_lattice(oracle, 0.5, 4, 1.0)
        memo = inversion._memoized_pass.cache_info()
        assert (memo.hits, memo.misses, memo.currsize) == (1, 3, 1)

    def test_unhashable_oracle_refused_before_any_oracle_call(self):
        class UnhashableLST(Untouchable):
            def __eq__(self, other):
                return self is other

        with pytest.raises(DomainError, match="UnhashableLST is not hashable"):
            m2_lattice(UnhashableLST(), 5.0, 10, 1.0)
        with pytest.raises(DomainError, match="ConstantLST is not hashable"):
            m2_lattice(ConstantLST(np.array(1.0)), 5.0, 10, 1.0)
        assert inversion._memoized_pass.cache_info().misses == 0

    def test_float32_rate_gives_the_float64_bytes_cold_or_warm(self):
        # np.float32(5.0) hashes equal to 5.0; the memo key must not carry a
        # float32 rate into the oracle, whose weights would then move by 4e-8
        oracle = ExponentialDecayLST(1.0)
        reference = m2_lattice(oracle, 5.0, 10, 1.0).values
        inversion._memoized_pass.cache_clear()
        cold = m2_lattice(oracle, np.float32(5.0), 10, 1.0)
        warm = m2_lattice(oracle, np.float32(5.0), 10, 1.0)
        assert inversion._memoized_pass.cache_info()[:2] == (2, 2)  # hits, misses
        assert type(cold.t) is float
        assert cold.values.tobytes() == warm.values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "make", [ConstantLST, lambda c: ScaledLST(c, ExponentialDecayLST(1.0))], ids=["constant", "scaled"]
    )
    def test_signed_zero_twins_give_the_same_bytes(self, make):
        # twins compare equal, so M2 at 10 over one reads the coarse pass M2 at 5
        # over the other memoized; -0.0 fine weights less +0.0 coarse ones
        # would give -0.0 where a cold call gives 0.0
        cold = m2_lattice(make(-0.0), 10.0, 20, 0.0).values
        assert not np.signbit(cold).any()
        for warm_with, read_with in ((make(-0.0), make(0.0)), (make(0.0), make(-0.0))):
            inversion._memoized_pass.cache_clear()
            m2_lattice(warm_with, 5.0, 10, 0.0)
            warm = m2_lattice(read_with, 10.0, 20, 0.0).values
            assert inversion._memoized_pass.cache_info().hits == 1
            assert warm.tobytes() == cold.tobytes()


class TestLatticeFunction:
    def test_lattice_points_bit_exact(self):
        values = np.array([0.0, 0.25, 0.5, 0.9])
        f = LatticeFunction(4.0, values)
        for k in range(4):
            assert f(k / 4.0) == values[k]

    def test_midpoint_is_neighbor_mean(self):
        values = np.array([0.0, 1.0, 0.2])
        f = LatticeFunction(2.0, values)
        assert f(0.25) == pytest.approx(0.5, rel=1e-12)
        assert f(0.75) == pytest.approx(0.6, rel=1e-12)

    def test_general_interpolation(self):
        f = LatticeFunction(5.0, np.array([1.0, 2.0]))
        # u = 0.13: frac = 0.65
        assert f(0.13) == pytest.approx(0.35 * 1.0 + 0.65 * 2.0, rel=1e-12)

    def test_no_extrapolation(self):
        f = LatticeFunction(5.0, np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            f(0.2 + 1e-6)
        with pytest.raises(DomainError):
            f(-0.01)
        assert f(0.2) == 2.0

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0])
    def test_rejects_bad_rate(self, t):
        with pytest.raises(DomainError, match="lattice rate"):
            LatticeFunction(t, [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value(self, bad):
        with pytest.raises(DomainError, match="finite"):
            LatticeFunction(1.0, [1.0, bad])

    def test_values_are_immutable(self):
        f = LatticeFunction(1.0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestPostWidder:
    def test_constant(self):
        for n in [1, 3, 10]:
            assert post_widder(ConstantLST(1.0), n, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_exponential_closed_form(self):
        # W_n exp(-a u) = (1 + a u / n)**(-n)
        a = 1.0
        for n, u in [(1, 0.5), (10, 1.0), (64, 3.0)]:
            expected = (1.0 + a * u / n) ** (-n)
            assert post_widder(ExponentialDecayLST(a), n, u) == pytest.approx(expected, rel=1e-13)
        assert post_widder(ExponentialDecayLST(1.0), 10, 1.0) == pytest.approx(
            1.1**-10, rel=1e-14
        )

    def test_converges_to_target(self):
        val = post_widder(ExponentialDecayLST(1.0), 10_000, 1.0)
        assert abs(val - math.exp(-1.0)) < 1e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            post_widder(ConstantLST(1.0), 0, 1.0)
        with pytest.raises(DomainError):
            post_widder(ConstantLST(1.0), 3, 0.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5])
    def test_order_must_be_a_finite_integer(self, n):
        # NaN and inf used to raise raw ValueError and OverflowError from int()
        with pytest.raises(DomainError, match="positive integer"):
            post_widder(Untouchable(), n, 1.0)

    def test_weight_cap_before_any_oracle_call(self):
        assert post_widder(ConstantLST(1.0), MAX_FINE_LATTICE, 2.0) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(DomainError, match="oracle weights"):
            post_widder(Untouchable(), MAX_FINE_LATTICE + 1, 2.0)


class TestStehfest2:
    def test_constant(self):
        assert stehfest2(ConstantLST(4.2), 5, 1.0) == pytest.approx(4.2, rel=1e-14)

    def test_exponential_composition(self):
        a, n, u = 1.0, 5, 10.0
        expected = 2.0 * (1.0 + a * u / (2 * n)) ** (-2 * n) - (1.0 + a * u / n) ** (-n)
        assert stehfest2(ExponentialDecayLST(a), n, u) == pytest.approx(expected, rel=1e-13)

    def test_weight_cap_before_any_oracle_call(self):
        # the order-2n term alone passes the cap
        with pytest.raises(DomainError, match="oracle weights"):
            stehfest2(Untouchable(), MAX_FINE_LATTICE // 2 + 1, 2.0)

    def test_test_function_composition(self):
        p, n, u = 0.1, 5, 10.0
        expected = 2.0 * (1.0 - 0.9 * (1.0 + p * u / (2 * n)) ** (-2 * n)) - (
            1.0 - 0.9 * (1.0 + p * u / n) ** (-n)
        )
        assert stehfest2(tf_oracle(p), n, u) == pytest.approx(expected, rel=1e-13)
