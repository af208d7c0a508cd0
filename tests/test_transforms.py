import dataclasses
import math
import re
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from oracles import ReadOnlyLST
from renewinv import (
    approximate_nonruin,
    Component,
    ConstantLST,
    CumulativeLST,
    DomainError,
    ExponentialDecayLST,
    GammaMixture,
    GammaMixtureLST,
    m2_lattice,
    RenewalRatioLST,
    ScaledLST,
    SingularityError,
    SumLST,
    survival_to_density_oracle,
    SurvivalLST,
    TransformOracle,
)
from renewinv.inversion import covering_index, MAX_FINE_LATTICE
from renewinv import bounds, ruin, transforms
from renewinv.ruin import renewal_data_from_model, RiskModel
from renewinv.transforms import _DIRECT_MAX, _series_quotient

# every size 1-1100, then 2**k - 1, 2**k and 2**k + 1 up to 2**16 + 1: the
# Newton passes change from direct to FFT above 512 terms, and each power
# of two starts a new cyclic length
RECIPROCAL_SIZES = sorted(
    set(range(1, 1101)) | {2**k + d for k in range(1, 17) for d in (-1, 0, 1)}
)
# the quotient's last pass starts from ceil(N / 2) terms, so it turns from
# direct to FFT products between 1024 and 1025 terms; 2048 -> 2049 moves its
# cyclic length from 2048 to 4096
QUOTIENT_SIZES = [1, 2, 3, 1023, 1024, 1025, 2047, 2048, 2049]


def ratio_reference(v_oracle, f_oracle, phi, t, k_max):
    """Renewal-ratio weights by the O(K^2) recursion with fsum inner sums, the reference."""
    fw = f_oracle.weights(t, k_max)
    vw = v_oracle.weights(t, k_max)
    denom = 1.0 - phi * fw[0]
    out = np.empty(k_max + 1)
    out[0] = vw[0] / denom
    for k in range(1, k_max + 1):
        inner = math.fsum((out[:k] * fw[k:0:-1]).tolist())
        out[k] = (vw[k] + phi * inner) / denom
    return out


def quotient_reference(v, a):
    """v / a as power series, by long division with fsum inner sums: the reference."""
    q = np.empty(a.size)
    for k in range(a.size):
        q[k] = math.fsum([v[k], *(-a[k:0:-1] * q[:k]).tolist()]) / a[0]
    return q


def record_fft_lengths(monkeypatch):
    """The length argument of every np.fft.rfft and irfft call, in call order."""
    lengths = []

    def recording(fn):
        def wrapped(x, n=None, *args, **kwargs):
            lengths.append(n)
            return fn(x, n, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", recording(np.fft.irfft))
    return lengths


def density_denominator(rng, size, phi):
    """1 - phi f for a random lattice density f of ``size`` terms."""
    f = rng.random(size) ** 3
    a = -phi * f / f.sum()
    a[0] += 1.0
    return a


def reciprocal_reference(a):
    """The Newton reciprocal in allocating form, the bit-for-bit reference for the kernel.

    Full-mode convolutions, one concatenation per pass and a fresh array
    from every transform and product: the expressions whose roundings the
    kernel reproduces.  The correction's product names its operand order,
    h^ r^, as the kernel does: numpy may evaluate ``h_hat * rfft(r)`` in
    place into its temporary right operand, as r^ h^.
    """
    sizes = [a.size]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    h = np.array([1.0 / a[0]])
    for n, m in zip(sizes[-1:0:-1], sizes[-2::-1]):
        if n <= _DIRECT_MAX:
            residual = np.convolve(a[:m], h)[n:m]
            step = np.convolve(h, residual)[: m - n]
        else:
            size = 1 << (m - 1).bit_length()
            h_hat = np.fft.rfft(h, size)
            residual = np.fft.irfft(np.fft.rfft(a[:m], size) * h_hat, size)[n:m]
            step = np.fft.irfft(np.multiply(h_hat, np.fft.rfft(residual, size)), size)[: m - n]
        h = np.concatenate((h, -step))
    return h


def newton_quotient_reference(v, a):
    """The Newton quotient v / a in allocating form, the bit-for-bit reference for the kernel.

    ``reciprocal_reference`` to ceil(a.size / 2) terms, then the last pass
    with the numerator: low = v h mod z**n, and the high half h times the
    slice [n, a.size) of v - a low.  Full convolutions in the direct case,
    fresh transforms at one cyclic length, the smallest power of two >=
    a.size, in the long case, each product naming the kernel's operand order.
    """
    size, n = a.size, (a.size + 1) // 2
    h = reciprocal_reference(a[:n])
    if size == 1:
        return v[:1] * h
    if n <= _DIRECT_MAX:
        low = np.convolve(v[:n], h)[:n]
        residual = v[n:size] - np.convolve(a[:size], low)[n:size]
        return np.concatenate((low, np.convolve(h, residual)[: size - n]))
    length = 1 << (size - 1).bit_length()
    h_hat = np.fft.rfft(h, length)
    low = np.fft.irfft(np.multiply(np.fft.rfft(v[:n], length), h_hat), length)[:n]
    product = np.multiply(np.fft.rfft(a[:size], length), np.fft.rfft(low, length))
    residual = v[n:size] - np.fft.irfft(product, length)[n:size]
    high = np.fft.irfft(np.multiply(h_hat, np.fft.rfft(residual, length)), length)[: size - n]
    return np.concatenate((low, high))


def survival_reference(inner, t, k_max):
    """SurvivalLST's weights in allocating form, the bit-for-bit reference."""
    return np.maximum(1.0 - np.cumsum(inner.weights(t, k_max)), 0.0) / t


class ReferenceNonruinLST(TransformOracle):
    """1 - m for the ruin function m, with ``ratio_reference`` as its kernel."""

    def __init__(self, model):
        self.data = renewal_data_from_model(model)

    def weights(self, t, k_max):
        data = self.data
        return 1.0 / t - ratio_reference(data.v_oracle, data.f_oracle, data.phi, t, k_max)


@st.composite
def admissible_mixtures(draw):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    total = math.fsum(raw)
    return GammaMixture(tuple(
        Component(w / total, draw(st.floats(1.0, 4.0)), draw(st.floats(0.5, 2.0))) for w in raw
    ))


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["p", "alpha", "beta"])
    def test_non_finite_parameters_rejected(self, field, bad):
        comp = Component(1.0, 1.5, 2.0)._replace(**{field: bad})
        with pytest.raises(DomainError, match="finite"):
            GammaMixture((comp,))

    def test_moments_gamma_2_1(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        assert mix.mean == pytest.approx(2.0, rel=1e-15)
        assert mix.raw_moment(2) == pytest.approx(6.0, rel=1e-15)
        assert mix.raw_moment(3) == pytest.approx(24.0, rel=1e-15)

    @pytest.mark.parametrize("name", ["exponential", "gamma_3_2", "mixture"])
    def test_table_moments_keep_every_bit(self, all_table_mixtures, name):
        # against the rising factorial over beta**n that the moments used to take
        mix = all_table_mixtures[name]
        for n in range(5):
            old = 0.0
            for p, alpha, beta in mix.components:
                rising = 1.0
                for j in range(n):
                    rising *= alpha + j
                old += p * rising / beta**n
            assert mix.raw_moment(n) == old

    def test_moments_of_extreme_rates_stay_finite(self):
        # each factor (alpha + j) / beta is near 1, where beta**3 is not
        mix = GammaMixture((Component(1.0, 1e200, 1e200),))
        assert mix.raw_moment(3) == pytest.approx(1.0, rel=1e-12)
        assert GammaMixture.exponential(1e-150).raw_moment(2) == pytest.approx(2e300, rel=1e-12)

    @pytest.mark.parametrize(
        "beta, n", [(1e-150, 3), (1e-120, 3), (1e110, 3), (1e150, 3), (1e-300, 2)]
    )
    def test_unrepresentable_moment_is_a_domain_error(self, beta, n):
        # E[X**n] = n! / beta**n overflows or underflows; beta**n used to
        # raise a raw ZeroDivisionError or OverflowError
        rate = re.escape(f"{beta:g}")
        with pytest.raises(DomainError, match=rf"E\[X\*\*{n}\].*{rate}"):
            GammaMixture.exponential(beta).raw_moment(n)

    @pytest.mark.parametrize("n", [2.5, 2.0, -1, None])
    def test_moment_order_must_be_a_nonnegative_integer(self, n):
        # n = 2.5 used to raise a raw TypeError from range()
        with pytest.raises(DomainError, match="moment order"):
            GammaMixture.exponential().raw_moment(n)

    @pytest.mark.parametrize("n", [10**8, 10**400], ids=["10**8", "10**400"])
    def test_huge_moment_order_refused_at_once(self, n):
        # n! overflows at the 171st factor; the loop used to run all n of
        # them first, about 5 s for n = 10**8; the last factor of 10**400
        # is taken at the largest float, not converted from the int
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"= inf is not a finite positive float"):
            GammaMixture.exponential().raw_moment(n)
        assert time.perf_counter() - start < 1.0

    def test_underflowed_product_still_meets_an_infinite_factor(self):
        # the second component's product is 0 after its first factor, and its
        # third factor 2 / 1e-308 is inf: 0 * inf is NaN, refused as before
        mix = GammaMixture((Component(1.0, 1.0, 1.0), Component(1e-320, 1e-320, 1e-308)))
        assert mix.raw_moment(2) == 2.0
        for n in (3, 10**8):
            with pytest.raises(DomainError, match=r"= nan is not a finite positive float"):
                mix.raw_moment(n)

    def test_survival_gamma_2_1(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        for u in [0.1, 1.0, 5.0]:
            assert mix.survival(u) == pytest.approx((1.0 + u) * math.exp(-u), rel=1e-12)

    def test_equilibrium_exponential_is_itself(self):
        # survival / mean of Exp(beta) is its density, so the two transforms
        # agree up to SurvivalLST's absolute floor (a few ulp of 1/t)
        for beta in [1.0, 2.5]:
            mix = GammaMixture.exponential(beta)
            for t in [5.0, 50.0]:
                np.testing.assert_allclose(
                    survival_to_density_oracle(mix).weights(t, 20),
                    GammaMixtureLST(mix).weights(t, 20),
                    rtol=1e-12,
                    atol=1e-15,
                )

    def test_equilibrium_density_gamma_2_1(self):
        # (1 + u) e^-u / 2 has transform (1/(1+s) + 1/(1+s)^2) / 2; the
        # tails past k ~ 10 at t = 0.5 sit on SurvivalLST's absolute floor
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        k = np.arange(21)
        for t in [0.5, 5.0, 50.0]:
            expected = (t**k / (1.0 + t) ** (k + 1) + (k + 1) * t**k / (1.0 + t) ** (k + 2)) / 2.0
            np.testing.assert_allclose(
                survival_to_density_oracle(mix).weights(t, 20), expected, rtol=1e-12, atol=1e-15
            )


SKEWED_MIXTURE = GammaMixture((Component(0.3, 2.5, 0.7), Component(0.7, 1.0, 1.9)))
ARRAY_FUNCTIONS = ["cdf", "survival"]


class TestGammaMixtureArrays:
    """One body per function matches the scalar loop reference; limits and NaN alike."""

    @pytest.mark.parametrize("name", ARRAY_FUNCTIONS)
    def test_matches_scalar_path(self, all_table_mixtures, name):
        u = np.concatenate([[-1.0, 0.0, 1e-12], np.linspace(0.01, 60.0, 300)])
        reference = getattr(scalar_reference, name)
        for mix in [*all_table_mixtures.values(), SKEWED_MIXTURE]:
            fn = getattr(mix, name)
            scalar = np.array([reference(mix, float(v)) for v in u])
            np.testing.assert_allclose(fn(u), scalar, rtol=1e-14, atol=0.0)
            # a float is a one-element array of the same body and comes back a float
            floats = [fn(float(v)) for v in u]
            assert all(type(value) is float for value in floats)
            np.testing.assert_array_equal(floats, fn(u))

    @pytest.mark.parametrize(
        "name,limit",
        [("cdf", 1.0), ("survival", 0.0)],
    )
    def test_limit_at_infinity(self, all_table_mixtures, name, limit):
        for mix in all_table_mixtures.values():
            fn = getattr(mix, name)
            assert fn(math.inf) == limit
            assert np.array_equal(fn(np.array([math.inf, math.inf])), [limit, limit])

    @pytest.mark.parametrize("name", ARRAY_FUNCTIONS)
    def test_nan_raises(self, half_mixture, name):
        with pytest.raises(DomainError):
            getattr(half_mixture, name)(math.nan)

    @pytest.mark.parametrize("name", ARRAY_FUNCTIONS)
    def test_nan_in_array_raises(self, half_mixture, name):
        with pytest.raises(DomainError):
            getattr(half_mixture, name)(np.array([1.0, math.nan]))

    def test_density_at_origin(self, exp_mixture, gamma32_mixture, half_mixture):
        # the claim density is the bound ledger's own piece: at kappa = 0 the
        # second row holds p_i d_i(u) per component
        origin = np.array([0.0, 1.0])

        def density(mix):
            return bounds._component_pieces(mix, 0.0, origin)[1].sum(axis=0)

        assert density(exp_mixture)[0] == 1.0  # p * beta for alpha = 1
        assert density(GammaMixture.exponential(2.5))[0] == 2.5
        assert density(gamma32_mixture)[0] == 0.0  # alpha > 1
        assert density(GammaMixture((Component(1.0, 3.0, 2.0),)))[0] == 0.0
        assert density(half_mixture)[0] == 0.5
        assert density(SKEWED_MIXTURE)[0] == 0.7 * 1.9


class TestGammaMixtureLST:
    def test_exponential_value(self, exp_mixture):
        # w_0 = Phi(5) = 1/6 and w_1 = -5 Phi'(5) = 5/36
        w = GammaMixtureLST(exp_mixture).weights(5.0, 1)
        assert w[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert w[1] == pytest.approx(5.0 / 36.0, rel=1e-14)

    def test_value_is_probability_transform(self, half_mixture):
        for t in [0.5, 1.0, 5.0, 50.0]:
            val = GammaMixtureLST(half_mixture).weights(t, 0)[0]
            assert 0.0 < val < 1.0

    def test_closed_form_derivatives(self, gamma32_mixture):
        # (-t)^j/j! Phi^(j)(t) = Gamma(a+j)/(Gamma(a) j!) b^a t^j / (t+b)^(a+j),
        # the negative-binomial mass at j with success probability b/(t+b)
        t, alpha, beta = 3.0, 1.5, 1.0
        w = GammaMixtureLST(gamma32_mixture).weights(t, 20)
        for j in range(21):
            expected = math.exp(
                math.lgamma(alpha + j)
                - math.lgamma(alpha)
                - math.lgamma(j + 1.0)
                + alpha * math.log(beta)
                + j * math.log(t)
                - (alpha + j) * math.log(t + beta)
            )
            assert w[j] == pytest.approx(expected, rel=1e-12)

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
        # an overflowed point, e.g. the Post-Widder s = n/u at a subnormal u
        with pytest.raises(DomainError, match="finite"):
            GammaMixtureLST(exp_mixture).weights(math.inf, 2)


class TestValueOracles:
    """The built-in oracles are frozen values: equal numbers give equal, equally hashed oracles."""

    @staticmethod
    def builds(mixture):
        data = renewal_data_from_model(RiskModel(mixture, 0.9))
        return [
            GammaMixtureLST(mixture),
            ExponentialDecayLST(0.5),
            ConstantLST(2.0),
            ScaledLST(3.0, ConstantLST()),
            SumLST(ConstantLST(), ExponentialDecayLST()),
            CumulativeLST(GammaMixtureLST(mixture)),
            SurvivalLST(GammaMixtureLST(mixture)),
            RenewalRatioLST(data.v_oracle, data.f_oracle, 0.9),
            ruin._NonruinLST(RiskModel(mixture, 0.9)),
        ]

    def test_fresh_builds_compare_and_hash_equal(self):
        floats = self.builds(GammaMixture((Component(1.0, 2.0, 1.0),)))
        ints = self.builds(GammaMixture((Component(1, 2, 1),)))
        for a, b in zip(floats, ints):
            assert a == b and hash(a) == hash(b)
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.extra = 1
        others = self.builds(GammaMixture((Component(1.0, 2.0, 2.0),)))
        assert [a == b for a, b in zip(floats, others)] == [False] + [True] * 4 + [False] * 4

    def test_sum_keeps_its_call_form(self):
        parts = (ConstantLST(1.0), ExponentialDecayLST(0.5), ConstantLST(2.0))
        assert SumLST(*parts).oracles == parts
        assert SumLST(*parts) != SumLST(*parts[:2])

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0])
    def test_zero_constant_is_stored_as_positive_zero(self, zero):
        for oracle in (ConstantLST(zero), ScaledLST(zero, ConstantLST())):
            assert oracle.c == 0.0 and math.copysign(1.0, oracle.c) == 1.0
            assert not np.signbit(oracle.weights(2.0, 3)).any()


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
        assert oracle.weights(t, 0)[0] == pytest.approx(1.0 / (1.0 + t), rel=1e-13)

    @pytest.mark.parametrize("name", ["exponential", "gamma_3_2", "mixture"])
    @pytest.mark.parametrize("t", [5.0, 200.0])
    def test_survival_matches_allocating_form(self, all_table_mixtures, name, t):
        inner = GammaMixtureLST(all_table_mixtures[name])
        got = SurvivalLST(inner).weights(t, 5000)
        assert np.array_equal(got, survival_reference(inner, t, 5000))

    def test_read_only_inner_weights(self, half_mixture):
        # no wrapper writes into an array another oracle returned; 1500
        # weights take the reciprocal through FFT passes
        t, k_max, phi = 20.0, 1500, 0.9
        density = survival_to_density_oracle(half_mixture)
        shared = ReadOnlyLST(density)

        def ratio(f):
            return RenewalRatioLST(ScaledLST(phi, SurvivalLST(f)), f, phi)

        for wrap in (
            lambda f: ScaledLST(2.0, f),
            SurvivalLST,
            CumulativeLST,
            lambda f: SumLST(f, f, f),
            ratio,
        ):
            assert np.array_equal(wrap(shared).weights(t, k_max), wrap(density).weights(t, k_max))
        got = m2_lattice(ratio(shared), t, k_max, phi).values
        assert np.array_equal(got, m2_lattice(ratio(density), t, k_max, phi).values)
        assert shared.untouched()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ExponentialDecayLST(bad)
        with pytest.raises(DomainError, match="finite"):
            ConstantLST(bad)
        with pytest.raises(DomainError, match="finite"):
            ScaledLST(bad, ConstantLST(1.0))

    def test_scaled_and_sum(self):
        t = 2.0
        combo = SumLST(ConstantLST(1.0), ScaledLST(-0.9, ExponentialDecayLST(0.1)))
        w = combo.weights(t, 10)
        expected = 1.0 / t - 0.9 * (t / (t + 0.1)) ** np.arange(11) / (t + 0.1)
        assert np.allclose(w, expected, rtol=1e-14)


class TestOracleCallBounds:
    @staticmethod
    def oracle(name, mixture):
        if name == "ratio":
            data = renewal_data_from_model(RiskModel(mixture, 0.9))
            return RenewalRatioLST(data.v_oracle, data.f_oracle, 0.9)
        return {
            "gamma_mixture": GammaMixtureLST(mixture),
            "constant": ConstantLST(1.0),
            "exp_decay": ExponentialDecayLST(0.5),
            "equilibrium": survival_to_density_oracle(mixture),
        }[name]

    NAMES = ["gamma_mixture", "constant", "exp_decay", "equilibrium", "ratio"]

    @pytest.mark.parametrize("k_max", [MAX_FINE_LATTICE, 10**12])
    @pytest.mark.parametrize("name", NAMES)
    def test_too_many_weights_refused(self, half_mixture, name, k_max):
        # 10**12 weights once asked numpy for 7.28 TiB
        with pytest.raises(DomainError, match=f"more than the limit {MAX_FINE_LATTICE}"):
            self.oracle(name, half_mixture).weights(1.0, k_max)

    @pytest.mark.parametrize("k_max", [2.5, 3.0, "3", None])
    @pytest.mark.parametrize("name", NAMES)
    def test_non_integer_k_max_refused(self, half_mixture, name, k_max):
        with pytest.raises(DomainError, match="must be an integer"):
            self.oracle(name, half_mixture).weights(1.0, k_max)

    def test_limits_accepted(self, half_mixture):
        assert ConstantLST(2.0).weights(1.0, MAX_FINE_LATTICE - 1).size == MAX_FINE_LATTICE
        oracle = GammaMixtureLST(half_mixture)
        assert np.array_equal(oracle.weights(5.0, np.int64(40)), oracle.weights(5.0, 40))


class TestEquilibriumOracle:
    def test_exponential_fixed_point(self, exp_mixture):
        oracle = survival_to_density_oracle(exp_mixture)
        assert oracle.weights(5.0, 0)[0] == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_gamma_2_1_value(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        oracle = survival_to_density_oracle(mix)
        assert oracle.weights(5.0, 0)[0] == pytest.approx(35.0 / 360.0, rel=1e-13)

    def test_is_probability_transform(self, half_mixture):
        oracle = survival_to_density_oracle(half_mixture)
        for t in [0.5, 5.0, 20.0]:
            assert 0.0 < oracle.weights(t, 0)[0] < 1.0


class TestRenewalRatio:
    def test_base_case_is_plain_ratio(self, exp_mixture):
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.9))
        t = 5.0
        m0 = RenewalRatioLST(data.v_oracle, data.f_oracle, 0.9).weights(t, 0)[0]
        v0 = data.v_oracle.weights(t, 0)[0]
        f0 = data.f_oracle.weights(t, 0)[0]
        assert m0 == pytest.approx(v0 / (1.0 - 0.9 * f0), rel=1e-14)

    def test_exponential_ruin_closed_form(self, exp_mixture):
        # ruin transform for unit-mean exponential claims at phi = 0.9 is
        # m~(t) = 0.9 / (t + 0.1), with weights 0.9 t^k / (t + 0.1)^(k+1)
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.9))
        t = 5.0
        w = RenewalRatioLST(data.v_oracle, data.f_oracle, 0.9).weights(t, 60)
        for k in range(61):
            expected = 0.9 * t**k / (t + 0.1) ** (k + 1)
            assert w[k] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("t", [10.0, 20.0])
    def test_exponential_absolute_error_floor(self, exp_mixture, t, phi):
        # the error is absolute, set by the tail sums of SurvivalLST, so
        # weights below ~1e-14 are noise; over k <= 1599 it measured 1.5e-15
        # and 2.5e-15 at phi = 0.5, 7.2e-15 and 1.3e-14 at phi = 0.9 (t = 10, 20)
        data = renewal_data_from_model(RiskModel(exp_mixture, phi))
        w = RenewalRatioLST(data.v_oracle, data.f_oracle, phi).weights(t, 1599)
        exact = phi * (t / (t + 1.0 - phi)) ** np.arange(1600) / (t + 1.0 - phi)
        assert float(np.max(np.abs(w - exact))) <= 3e-14

    # a non-probability "density" with transform 2/(t+1) hits
    # 1 - phi f~(t) = 0 at t = 0.8 when phi = 0.9, and goes negative below
    FAKE_DENSITY = ScaledLST(2.0, ExponentialDecayLST(1.0))

    @pytest.mark.parametrize("t", [0.5, 0.79, 0.8])
    def test_singularity_error(self, t):
        # below the singularity the series once came back as alternating
        # weights, [-10, 10, -23.3, 32.2, -60.4] at t = 0.5
        oracle = RenewalRatioLST(ConstantLST(1.0), self.FAKE_DENSITY, 0.9)
        with pytest.raises(SingularityError, match="at or below"):
            oracle.weights(t, 4)

    def test_answers_just_above_singularity(self):
        # m~(t) = (t + 1) / (t (t - 0.8)): 223.5 at t = 0.81, weights growing like 81**k
        got = RenewalRatioLST(ConstantLST(1.0), self.FAKE_DENSITY, 0.9).weights(0.81, 4)
        want = ratio_reference(ConstantLST(1.0), self.FAKE_DENSITY, 0.9, 0.81, 4)
        assert got[0] == pytest.approx(1.81 / (0.81 * 0.01), rel=1e-12)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_nan_denominator_refused(self):
        class NanLST(TransformOracle):
            def weights(self, t, k_max):
                return np.full(k_max + 1, math.nan)

        with pytest.raises(SingularityError):
            RenewalRatioLST(ConstantLST(1.0), NanLST(), 0.9).weights(1.0, 4)

    def test_m2_lattice_below_singularity_refused(self):
        # the fine rate 2t = 1 lies above the singularity, the coarse rate t = 0.5 below it
        oracle = RenewalRatioLST(ConstantLST(1.0), self.FAKE_DENSITY, 0.9)
        with pytest.raises(SingularityError):
            m2_lattice(oracle, 0.5, 4, 1.0)

    def test_weights_stay_positive_for_ruin(self, half_mixture):
        data = renewal_data_from_model(RiskModel(half_mixture, 0.9))
        ratio = RenewalRatioLST(data.v_oracle, data.f_oracle, 0.9)
        w = ratio.weights(5.0, 200)
        assert np.all(w >= 0.0)


class TestRenewalRatioAgainstReference:
    @pytest.mark.parametrize("k_max", [0, 1, 511, 512, 513, 1023, 1024, 1025, 1599])
    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("t", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("name", ["exponential", "gamma_3_2", "mixture"])
    def test_table_models(self, all_table_mixtures, name, t, phi, k_max):
        # k_max = 1023, 1024, 1025 straddle the quotient's switch from direct
        # to FFT products, at 512 and 513 terms of the reciprocal
        data = renewal_data_from_model(RiskModel(all_table_mixtures[name], phi))
        got = RenewalRatioLST(data.v_oracle, data.f_oracle, phi).weights(t, k_max)
        want = ratio_reference(data.v_oracle, data.f_oracle, phi, t, k_max)
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(
        mix=admissible_mixtures(),
        phi=st.floats(0.05, 0.99),
        t=st.floats(1.0, 50.0),
        k_max=st.integers(0, 1200),
    )
    def test_random_admissible_mixtures(self, mix, phi, t, k_max):
        # the division amplifies rounding by up to 1/(1 - phi), the sum of
        # the reciprocal series' coefficients
        data = renewal_data_from_model(RiskModel(mix, phi))
        got = RenewalRatioLST(data.v_oracle, data.f_oracle, phi).weights(t, k_max)
        want = ratio_reference(data.v_oracle, data.f_oracle, phi, t, k_max)
        scale = float(np.max(np.abs(want))) / (1.0 - phi)
        assert float(np.max(np.abs(got - want))) <= 1e-15 * scale

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("t", [10.0, 20.0])
    @pytest.mark.parametrize("name", ["exponential", "gamma_3_2", "mixture"])
    def test_reference_renewal_oracle_matches_pipeline(self, all_table_mixtures, name, t, phi):
        # M2 over 1 - m with the fsum kernel against the compound route, so
        # the two sides share no convolution kernel
        model = RiskModel(all_table_mixtures[name], phi)
        K = covering_index(t, 40.0)
        got = m2_lattice(ReferenceNonruinLST(model), t, K, 1.0 - model.phi).values
        want = approximate_nonruin(model, t, 40.0).lattice.values
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) <= 1e-10


class TestSeriesReciprocalKernel:
    @pytest.mark.parametrize("size", [1026, 4000, 8192, 8193, 16000])
    def test_fft_passes_stay_cyclic(self, monkeypatch, size):
        # every transform of a Newton pass is taken at one cyclic length,
        # never above the smallest power of two >= a.size, five per pass
        lengths = record_fft_lengths(monkeypatch)
        a = density_denominator(np.random.default_rng(size), size, 0.9)
        h = _series_quotient(None, a)

        sizes = [size]
        while sizes[-1] > 1:
            sizes.append((sizes[-1] + 1) // 2)
        fft_passes = sum(1 for n in sizes[1:] if n > _DIRECT_MAX)
        assert fft_passes >= 1
        assert None not in lengths
        assert max(lengths) <= 1 << (size - 1).bit_length()
        per_length = {n: lengths.count(n) for n in lengths}
        assert len(per_length) == fft_passes
        assert max(per_length.values()) <= 5
        unit = np.zeros(size)
        unit[0] = 1.0
        assert float(np.max(np.abs(np.convolve(a, h)[:size] - unit))) <= 1e-13

    @pytest.mark.parametrize("source", ["random", "severity"])
    def test_matches_allocating_reference(self, exp_mixture, source):
        # bit for bit: the buffered transforms, the "valid" residual and the
        # in-place products round exactly as the allocating form does
        rng = np.random.default_rng(18)
        largest = RECIPROCAL_SIZES[-1]
        if source == "random":
            a = rng.uniform(-1.0, 1.0, largest) / largest
            a[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        else:
            # 1 - phi f for the equilibrium severity; a prefix of its
            # weights is the weights of the shorter call
            a = -0.9 * survival_to_density_oracle(exp_mixture).weights(100.0, largest - 1)
            a[0] += 1.0
        differ = [
            size for size in RECIPROCAL_SIZES
            if not np.array_equal(_series_quotient(None, a[:size]), reciprocal_reference(a[:size]))
        ]
        assert differ == []

    def test_read_only_input_is_left_unchanged(self):
        rng = np.random.default_rng(3000)
        a = rng.uniform(-1.0, 1.0, 3000) / 3000
        a[0] = 1.0
        saved = a.copy()
        a.flags.writeable = False
        assert np.array_equal(_series_quotient(None, a), reciprocal_reference(saved))
        assert np.array_equal(a, saved)


def in_fresh_thread(fn):
    """fn() run in a new thread, which starts with no kept FFT work arrays."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


class TestSeriesWorkspace:
    # the last passes of these sizes are long, at cyclic lengths 2048-16384
    SIZES = [1025, 3000, 8193, 16000]

    def test_poisoned_work_arrays_give_the_same_bytes(self):
        # every slice a kernel reads it wrote in the same call, so NaN left
        # in the kept arrays never reaches an answer, whatever length came before
        rng = np.random.default_rng(29)
        cases = [(density_denominator(rng, size, 0.9), rng.uniform(-1.0, 1.0, size)) for size in self.SIZES]
        clean = [(_series_quotient(None, a).tobytes(), _series_quotient(v, a).tobytes()) for a, v in cases]

        def poison():
            for array in transforms._workspace.arrays:
                array.fill(np.nan)

        for (a, v), want in zip(cases[::-1] + cases, clean[::-1] + clean):
            poison()
            h = _series_quotient(None, a).tobytes()
            poison()
            assert (h, _series_quotient(v, a).tobytes()) == want

    def test_warm_reciprocal_allocates_little_beyond_its_answer(self):
        # the three ~128 KiB work arrays of cyclic length 16384 are kept, not made per call
        a = density_denominator(np.random.default_rng(16000), 16000, 0.9)
        _series_quotient(None, a)
        tracemalloc.start()
        try:
            h = _series_quotient(None, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= h.nbytes + 32 * 1024

    def test_kept_arrays_grow_to_the_longest_length_used(self):
        rng = np.random.default_rng(30)

        def kept_sizes():
            sizes = []
            for size in (1000, 3000, 1025, 16000, 8193):
                _series_quotient(None, density_denominator(rng, size, 0.9))
                sizes.append(getattr(transforms._workspace, "arrays", (np.empty(0),))[0].size)
            return sizes

        # 1000 terms take only direct passes; 3000 need cyclic length 4096
        assert in_fresh_thread(kept_sizes) == [0, 2049, 2049, 8193, 8193]

    def test_call_above_the_cap_leaves_the_kept_arrays(self):
        rng = np.random.default_rng(31)
        size = transforms._KEPT_CYCLIC_MAX + 1  # cyclic length 2 * cap
        a = density_denominator(rng, size, 0.9)
        v = rng.uniform(-1.0, 1.0, size)

        def run():
            _series_quotient(None, a[:16000])
            kept = transforms._workspace.arrays
            saved = [array.copy() for array in kept]
            h = _series_quotient(None, a)
            assert transforms._workspace.arrays is kept
            assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(kept, saved))
            # the quotient fetches its arrays once, at cyclic length 2**17
            q = _series_quotient(v, a)
            assert transforms._workspace.arrays is kept
            assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(kept, saved))
            return h, q

        h, q = in_fresh_thread(run)
        assert np.array_equal(h, reciprocal_reference(a))
        product = np.fft.irfft(np.fft.rfft(v, 4 * size) * np.fft.rfft(h, 4 * size), 4 * size)[:size]
        assert float(np.max(np.abs(product - q))) <= 1e-12

    def test_threads_keep_separate_arrays(self):
        a = density_denominator(np.random.default_rng(32), 3000, 0.9)
        _series_quotient(None, a)
        mine = transforms._workspace.arrays

        def run():
            assert getattr(transforms._workspace, "arrays", None) is None
            _series_quotient(None, a)
            return transforms._workspace.arrays

        theirs = in_fresh_thread(run)
        assert not any(np.shares_memory(x, y) for x in mine for y in theirs)


class TestSeriesQuotientKernel:
    @pytest.mark.parametrize("size", QUOTIENT_SIZES)
    def test_matches_long_division(self, size):
        # |q_k| <= max|v| / (1 - phi), the sum of the reciprocal's coefficients
        rng = np.random.default_rng(size)
        phi = 0.9
        a = density_denominator(rng, size, phi)
        v = rng.uniform(-1.0, 1.0, size)
        got = _series_quotient(v, a)
        want = quotient_reference(v, a)
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) <= 1e-15 * float(np.max(np.abs(v))) / (1.0 - phi)

    @pytest.mark.parametrize("size", QUOTIENT_SIZES + [3000, 8193, 16000])
    def test_matches_allocating_reference(self, size):
        # bit for bit, so that a change in the kernel's rounding shows; the
        # long division above checks the quotient only to 1e-15
        rng = np.random.default_rng(size)
        a = density_denominator(rng, size, 0.9)
        v = rng.uniform(-1.0, 1.0, size)
        assert np.array_equal(_series_quotient(v, a), newton_quotient_reference(v, a))

    @pytest.mark.parametrize("size", QUOTIENT_SIZES)
    def test_last_pass_stays_cyclic(self, monkeypatch, size):
        # a long last pass takes eight transforms, all at the smallest power
        # of two >= size; the reciprocal's passes run at shorter lengths
        lengths = record_fft_lengths(monkeypatch)
        _series_quotient(np.ones(size), density_denominator(np.random.default_rng(size), size, 0.9))
        length = 1 << (size - 1).bit_length()
        assert None not in lengths
        assert lengths.count(length) == (8 if (size + 1) // 2 > _DIRECT_MAX else 0)
        assert all(n < length for n in lengths if n != length)
