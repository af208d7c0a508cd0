import math
import re

import numpy as np
import pytest

from oracles import CountingLST
from renewinv import (
    approximate_nonruin,
    Component,
    ConstantLST,
    CumulativeLST,
    DomainError,
    ExponentialDecayLST,
    GammaMixture,
    GammaMixtureLST,
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


def _prefix_stable_oracles():
    mix = GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0)))
    return {
        "exp_decay": ExponentialDecayLST(1.3),
        "constant": ConstantLST(2.5),
        "test_function": tf_oracle(0.1),
        "scaled": ScaledLST(-0.7, ExponentialDecayLST(0.4)),
        "gamma_cdf": CumulativeLST(GammaMixtureLST(mix)),
    }


class TestLStarArray:
    """One oracle pass for an array of points, read at each point's lattice index."""

    U = np.array([0.0, 0.37, 40.0, 1.0 / 3.0, 7.25, 12.6, 0.8, 40.0])

    @pytest.mark.parametrize("t", [5.0, 100.0])
    @pytest.mark.parametrize("name", list(_prefix_stable_oracles()))
    def test_equals_per_point_calls_bit_for_bit(self, name, t):
        oracle = _prefix_stable_oracles()[name]
        got = l_star(oracle, t, self.U)
        want = np.array([l_star(oracle, t, float(u)) for u in self.U])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [5.0, 20.0, 100.0])
    def test_renewal_ratio_within_one_rounding_of_per_point_calls(self, t):
        # the series division at a longer pass moves a weight by about 1e-16
        model = RiskModel(GammaMixture((Component(1.0, 1.5, 1.0),)), 0.9)
        data = renewal_data_from_model(model)
        oracle = RenewalRatioLST(data.v_oracle, data.f_oracle, model.phi)
        got = l_star(oracle, t, self.U)
        want = np.array([l_star(oracle, t, float(u)) for u in self.U])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_one_pass_per_array_to_the_largest_index(self):
        oracle = CountingLST(ExponentialDecayLST(1.0))
        l_star(oracle, 5.0, self.U)
        assert oracle.passes == [(5.0, 200)]

    def test_keeps_the_shape_and_gives_a_float_for_a_float(self):
        got = l_star(ConstantLST(1.0), 5.0, self.U.reshape(2, 4))
        assert got.shape == (2, 4)
        assert type(l_star(ConstantLST(1.0), 5.0, np.float64(0.8))) is float
        assert type(l_star(ConstantLST(1.0), 5.0, np.array(0.8))) is float

    def test_float32_point_gives_a_float_with_the_float64_bits(self):
        u = np.float32(0.37)
        got = l_star(ExponentialDecayLST(1.0), 5.0, u)
        assert type(got) is float
        assert got == l_star(ExponentialDecayLST(1.0), 5.0, float(u))

    def test_empty_array_gives_an_empty_array(self):
        got = l_star(ExponentialDecayLST(1.0), 5.0, np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == np.float64

    def test_first_negative_point_is_refused_before_any_oracle_call(self):
        with pytest.raises(DomainError, match=r"l_star requires u >= 0, got -0\.5$"):
            l_star(Untouchable(), 5.0, [1.0, -0.5, 2.0, -3.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_point_keeps_the_lattice_index_refusal(self, bad):
        with pytest.raises(DomainError, match="lattice position t\\*u must be finite"):
            l_star(Untouchable(), 5.0, [1.0, bad])

    def test_weight_cap_on_the_largest_point_before_any_oracle_call(self):
        with pytest.raises(DomainError, match="oracle weights"):
            l_star(Untouchable(), 1.0, [0.5, float(MAX_FINE_LATTICE), 2.0])

    @pytest.mark.parametrize("u", [1e300, 2e18, [0.5, 1e300]], ids=["1e300", "2e18", "array"])
    def test_index_past_the_machine_integers_is_refused_by_the_cap(self, u):
        # t*u >= 2**63 has no intp index, so the cap is checked on the Python ints
        with pytest.raises(DomainError, match="oracle weights"):
            l_star(Untouchable(), 5.0, u)


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

    @pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf])
    def test_non_finite_origin_value_refused_before_any_oracle_call(self, g0):
        # a NaN g0 ran both passes and failed in LatticeFunction, naming no g0
        with pytest.raises(DomainError, match="value g0 must be finite"):
            m2_lattice(Untouchable(), 5.0, 3, g0)

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
        with pytest.raises(DomainError, match="ScaledLST is not hashable"):
            m2_lattice(ScaledLST(1.0, UnhashableLST()), 5.0, 10, 1.0)
        with pytest.raises(DomainError, match="constant factor c must be a real number"):
            ConstantLST(np.array(1.0))
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


class TestLatticeFunctionArray:
    """An array of points is read by the snapping rule of lattice_index, once."""

    F = LatticeFunction(5.0, np.array([1.0, 0.5, 0.25, 0.125]))

    @pytest.mark.parametrize("name", ["exponential", "gamma_3_2", "mixture"])
    def test_equals_float_calls_bit_for_bit(self, all_table_mixtures, name):
        # every lattice point and 7 points per cell of the table curves
        approx = approximate_nonruin(RiskModel(all_table_mixtures[name], 0.9), 5.0, 40.0)
        K = approx.lattice.truncation_index
        cells = (np.arange(K)[:, None] + np.arange(1, 8) / 8.0) / 5.0
        u = np.concatenate([np.arange(K + 1) / 5.0, cells.ravel()])
        want = np.array([approx.lattice(float(x)) for x in u])
        assert approx.lattice(u).tobytes() == want.tobytes()
        assert approx.nonruin(u).tobytes() == want.tobytes()

    def test_empty_and_2d_arrays_keep_their_shapes(self):
        empty = self.F(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == np.float64
        u = np.array([[0.0, 0.1, 0.2], [0.37, 0.5, 0.6]])
        got = self.F(u)
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == [self.F(float(x)) for x in u.ravel()]
        assert type(self.F(np.array(0.1))) is float

    def test_first_negative_point_is_refused(self):
        with pytest.raises(DomainError, match=r"defined on u >= 0, got -0\.5$"):
            self.F([0.1, -0.5, 0.2, -3.0])

    def test_first_point_past_the_truncation_is_refused(self):
        with pytest.raises(DomainError, match=r"u=0\.7 beyond the lattice truncation 0\.6; refusing"):
            self.F([0.1, 0.6, 0.7, 0.9])

    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "lattice position t\\*u must be finite, got t=5.0, u=nan"),
         (math.inf, "lattice position t\\*u must be finite, got t=5.0, u=inf"),
         (-math.inf, "defined on u >= 0, got -inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_point_keeps_the_float_refusal(self, bad, message):
        for u in (bad, [0.1, bad]):
            with pytest.raises(DomainError, match=message):
                self.F(u)

    def test_lattice_index_is_the_kernel_read_as_int_and_float(self):
        t = 3.0
        u = np.array([0.0, 1.0 / 3.0, 0.4, 2.0 / 3.0 - 1e-12, 7.25, 1e300])
        ks, fracs = inversion._lattice_split(t, u)
        for x, k, frac in zip(u.tolist(), ks.tolist(), fracs.tolist()):
            got = lattice_index(t, x)
            assert type(got[0]) is int and type(got[1]) is float
            assert got == (int(k), frac)


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

    def test_infinite_point_is_refused_before_any_oracle_call(self):
        # an infinite u used to pass its check and reach the oracle at rate 0
        with pytest.raises(DomainError, match="point u must be positive and finite, got inf"):
            post_widder(Untouchable(), 3, math.inf)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5])
    def test_order_must_be_a_finite_integer(self, n):
        # NaN and inf used to raise raw ValueError and OverflowError from int()
        with pytest.raises(DomainError, match="an integer >= 1"):
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
