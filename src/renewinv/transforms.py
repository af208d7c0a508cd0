"""Laplace-transform derivative oracles.

Every oracle exposes, as its numerically stable primitive, the *normalized*
derivative weights

    w_k(t) = (-t)**k / k! * g~^(k)(t),   k = 0, 1, ...

where ``g~`` is the Laplace transform of the source function, so w_0(t) is
g~(t) itself.  For a probability density these weights are exactly the
lattice masses P(X^(t-grid) = k/t), so they live in [0, 1] and never
overflow, while the raw derivatives grow like k! and die around k ~ 300 in
doubles.  A gamma-mixture claim law (:class:`GammaMixture`) gives its CDF
and survival pointwise; the equilibrium law is reached through its
transform only (:func:`survival_to_density_oracle`).
"""

from __future__ import annotations

import abc
import math
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError
from .specfun import _real_array, _real_point, _require_index, _require_positive
from .specfun import _require_weight_index, _shaped_like
from .specfun import negbin_pmf_terms, reg_inc_gamma_lower, reg_inc_gamma_upper

_SINGULARITY_TOL = 1e-12
# np.convolve and a zero-padded FFT product of two n-term series cost about
# the same at n ~ 512 (48-53 against 42-56 us; numpy 2.4, one core of a
# shared 2-vCPU Xeon VM, best of 15 repeats).  A Newton pass from n to 2n
# terms, with its residual taken as a "valid" convolution, ties with the
# wrap-around FFT pass at n ~ 450-500, and at n = 512 the FFT pass is ~20 us
# faster (57-70 against 77-89 us): too little in one pass per reciprocal
# to keep a second threshold.  Moving it moves the results: at 256 the
# table models' non-ruin values move by up to 8.0e-15.
_DIRECT_MAX = 512
# Longest cyclic length whose FFT work arrays a thread keeps between series
# kernel calls: three half spectra of 2**15 + 1 complex values, 1.5 MiB.
# Made and freed per call, the ~128 KiB arrays of cyclic length 16384 would
# sit on glibc's default 128 KiB mmap threshold and fault their pages in
# again on every call, about 270 minor faults per warm ruin-fine op.  A
# longer pass, taken only past 2**16 terms, allocates its arrays for the
# call, so the peak of the largest lattices does not grow.
_KEPT_CYCLIC_MAX = 2**16
_workspace = threading.local()


class TransformOracle(abc.ABC):
    """Supplies the normalized derivative weights of a transform at finite t > 0.

    Every source function built here grows at most polynomially, so its
    transform is defined for all t > 0.  Oracles are immutable and safe for
    concurrent use.

    The weights depend only on the oracle's value and on (t, k_max), and an
    oracle is hashable: :func:`~renewinv.inversion.m2_lattice` memoizes
    passes under the key (oracle, t, k_max).  The built-in oracles are
    frozen dataclasses that compare and hash by value, so a freshly built
    equal oracle hits the same entry; a subclass that defines neither
    ``__eq__`` nor ``__hash__`` compares by identity.
    """

    @abc.abstractmethod
    def weights(self, t: float, k_max: int) -> np.ndarray:
        """Normalized weights (-t)**k / k! * g~^(k)(t) for k = 0..k_max."""

    def _require_valid_point(self, t: float, k_max: int) -> float:
        """t as a float, after refusing a t outside (0, inf) or a bad ``k_max``."""
        t = _require_positive(t)
        _require_weight_index(k_max)
        return t


class Component(NamedTuple):
    """One gamma-mixture component: weight ``p``, shape ``alpha``, rate ``beta``."""

    p: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class GammaMixture:
    """Claim-amount model: finite mixture of gamma distributions.

    Weights must sum to one (tolerance 1e-9); weights, shapes and rates
    must be positive finite reals, and are stored as floats.  Moments and
    transform derivatives are available in closed form, which keeps the
    downstream error bounds exact.

    ``cdf`` is the exact column of ``renewinv invert --transform
    gamma_mixture``.  ``survival`` stays only because the benchmark harness
    binds it by name; the bound ledger takes its own density and survival
    pieces (``bounds._component_pieces``).
    """

    components: tuple[Component, ...]

    def __post_init__(self):
        labels = ("mixture weight p", "gamma shape alpha", "gamma rate beta")
        comps = tuple(
            Component(*map(_require_positive, Component(*c), labels)) for c in self.components
        )
        object.__setattr__(self, "components", comps)
        if not comps:
            raise DomainError("mixture needs at least one component")
        total = math.fsum(p for p, _, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"mixture weights sum to {total}, expected 1")

    @classmethod
    def exponential(cls, beta: float = 1.0) -> "GammaMixture":
        return cls((Component(1.0, 1.0, beta),))

    @property
    def min_alpha(self) -> float:
        return min(c.alpha for c in self.components)

    @property
    def mean(self) -> float:
        return math.fsum(p * alpha / beta for p, alpha, beta in self.components)

    def raw_moment(self, n: int) -> float:
        """E[X**n] = sum_i p_i * alpha_i (alpha_i+1) ... (alpha_i+n-1) / beta_i**n.

        Each factor (alpha_i + j) / beta_i is taken on its own, so no power
        of a rate overflows or underflows on the way; a moment that is not
        a finite positive float raises ``DomainError``.  The factors grow
        with j, so once a component's product reaches 0 or inf only the last
        factor can still move it (0 to NaN, if that factor is inf): the loop
        takes it and stops, and a huge n is refused after a few hundred steps.
        """
        n = _require_index(n, "moment order n")
        total = 0.0
        for p, alpha, beta in self.components:
            term = p
            for j in range(n):
                term *= (alpha + j) / beta
                if term == 0.0 or term == math.inf:
                    term *= (alpha + min(n - 1, sys.float_info.max)) / beta
                    break
            total += term
        if not (total > 0.0 and math.isfinite(total)):
            rates = ", ".join(f"{beta:g}" for _, _, beta in self.components)
            raise DomainError(
                f"moment E[X**{n}] = {total!r} is not a finite positive float"
                f" for claim rates {rates}"
            )
        return total

    def cdf(self, u):
        """P(X <= u) at a float or an array of points; 1 at u = inf."""
        return self._incomplete_gamma_sum(reg_inc_gamma_lower, u, 0.0)

    def survival(self, u):
        """P(X > u) at a float or an array of points; 0 at u = inf."""
        return self._incomplete_gamma_sum(reg_inc_gamma_upper, u, 1.0)

    def _incomplete_gamma_sum(self, fn, u, at_or_below_zero):
        # sum_i p_i fn(alpha_i, beta_i u); fn raises on NaN
        u = _real_array(u, "point u")
        x = np.maximum(u, 0.0)
        total = sum(p * fn(alpha, beta * x) for p, alpha, beta in self.components)
        return _shaped_like(u, np.where(u <= 0, at_or_below_zero, total))


@dataclass(frozen=True)
class GammaMixtureLST(TransformOracle):
    """Laplace-Stieltjes transform of a gamma mixture.

    Phi(t) = sum_i p_i (beta_i / (t + beta_i))**alpha_i; the normalized
    weights are mixtures of negative-binomial masses with success
    probability beta_i / (t + beta_i).
    """

    mixture: GammaMixture

    def weights(self, t, k_max):
        """Mixture of the components' negative-binomial masses.

        :func:`~renewinv.specfun.negbin_pmf_terms` refuses a seed
        (beta/(t+beta))**alpha in the subnormal range.
        """
        t = self._require_valid_point(t, k_max)
        out = np.zeros(k_max + 1)
        for p, alpha, beta in self.mixture.components:
            terms = negbin_pmf_terms(k_max, alpha, beta / (t + beta))
            terms *= p
            out += terms
        return out


def _finite_constant(c: float) -> float:
    # -0.0 equals and hashes as 0.0 but gives -0.0 weights, so equal oracles
    # would not give equal bits; a zero of either sign is kept as 0.0
    c = _real_point(c, "constant factor c")
    if not math.isfinite(c):
        raise DomainError(f"constant factor must be finite, got {c}")
    return 0.0 if c == 0 else c


@dataclass(frozen=True)
class ExponentialDecayLST(TransformOracle):
    """Transform oracle for g(u) = exp(-a u), a >= 0 (a = 0 gives g == 1).

    g~(t) = 1/(t+a); the normalized weights form the geometric sequence
    t**k / (t+a)**(k+1).
    """

    a: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _real_point(self.a, "decay rate a"))
        if not 0 <= self.a < math.inf:
            raise DomainError(f"decay rate must be finite and >= 0, got {self.a}")

    def weights(self, t, k_max):
        t = self._require_valid_point(t, k_max)
        ratio = t / (t + self.a)
        return ratio ** np.arange(k_max + 1) / (t + self.a)


@dataclass(frozen=True)
class ConstantLST(TransformOracle):
    """Transform oracle for the constant function g == c (g~(t) = c/t)."""

    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", _finite_constant(self.c))

    def weights(self, t, k_max):
        t = self._require_valid_point(t, k_max)
        return np.full(k_max + 1, self.c / t)


@dataclass(frozen=True)
class ScaledLST(TransformOracle):
    """c * g for an existing oracle of g."""

    c: float
    inner: TransformOracle

    def __post_init__(self):
        object.__setattr__(self, "c", _finite_constant(self.c))

    def weights(self, t, k_max):
        return self.c * self.inner.weights(t, k_max)


@dataclass(frozen=True, init=False)
class SumLST(TransformOracle):
    """Pointwise sum of several source functions, built as ``SumLST(*oracles)``."""

    oracles: tuple[TransformOracle, ...]

    def __init__(self, *oracles: TransformOracle):
        if not oracles:
            raise DomainError("SumLST needs at least one oracle")
        object.__setattr__(self, "oracles", oracles)

    def weights(self, t, k_max):
        total = self.oracles[0].weights(t, k_max).copy()
        for oracle in self.oracles[1:]:
            total += oracle.weights(t, k_max)
        return total


@dataclass(frozen=True)
class CumulativeLST(TransformOracle):
    """Transform of G(u) = int_0^u g, i.e. g~(t)/t, from the oracle of g.

    Normalized weights are the scaled partial sums of the inner weights.
    """

    inner: TransformOracle

    def weights(self, t, k_max):
        return np.cumsum(self.inner.weights(t, k_max)) / t


@dataclass(frozen=True)
class SurvivalLST(TransformOracle):
    """Transform of 1 - int_0^u g, i.e. (1 - g~(t))/t, for a density oracle g.

    The weights are (1 - partial sums)/t, the scaled tail masses of the
    inner discretization; tiny negative values from cancellation are
    clamped to zero.  The rounding error of the partial sums stays as an
    absolute floor, so tails below ~1e-14 are noise (see RenewalRatioLST).
    """

    inner: TransformOracle

    def weights(self, t, k_max):
        tails = np.cumsum(self.inner.weights(t, k_max))
        np.subtract(1.0, tails, out=tails)
        np.maximum(tails, 0.0, out=tails)
        tails /= t
        return tails


def survival_to_density_oracle(mixture: GammaMixture) -> TransformOracle:
    """Oracle for the equilibrium density f = survival(X)/mean.

    Its transform is (1 - Phi_X(t)) / (t * mean), the integration-by-parts
    identity for the equilibrium law.
    """
    return ScaledLST(1.0 / mixture.mean, SurvivalLST(GammaMixtureLST(mixture)))


def _series_quotient(v: np.ndarray | None, a: np.ndarray) -> np.ndarray:
    """v(z) / a(z) mod z**a.size by Newton iteration, for a[0] != 0 and v.size >= a.size.

    ``v=None`` stands for the numerator 1, so the call returns 1 / a(z).
    Each pass h <- h + h (1 - a h) doubles the number of correct terms of
    h = 1 / a (Brent & Kung, J. ACM 25, 1978).  The target sizes are halved
    down from a.size, rounding up, so a pass goes from n correct terms to
    m = 2n or 2n - 1 and the last one lands on a.size.  A numerator rides in
    the last pass (Karp & Markstein, ACM TOMS 23, 1997): its low half is
    low = v h mod z**n, and its residual the slice [n, m) of v - a low.
    Every other pass has low = h and the residual -(a h)[n:m].  Each pass
    then writes h times its residual as the terms [n, m).

    Short passes (n <= ``_DIRECT_MAX``) convolve directly, and take
    (a low)[n:m] as the "valid" convolution of a[1:m] with low: each of its
    m - n terms is the same full-overlap dot product of n terms that a full
    a[:m] low would form at that index, so it is bit for bit the same, at
    about half the multiply-adds.  Long passes take every transform at one
    cyclic length L, the smallest power of two >= m, with the wrap-around
    middle product of Harvey ("Faster algorithms for the square root and
    reciprocal of power series", Math. Comp. 80, 2011): a[:m] low has
    degree m + n - 2 < L + n, so its cyclic product folds the terms from L
    up onto indices below n - 1, which the pass discards, and the slice
    [n, m) comes out exact.  The correction h * residual has degree m - 2
    < L, so it is exact at the same length and reuses the transform of h:
    five real transforms of length L per pass, and eight in a last pass
    with a numerator, where a zero-padded linear product would need three
    of length about 2L for the first product alone.

    Memory: every pass writes its new terms into the one output array (no
    concatenation per pass), and the long passes write their transforms and
    products through ``out=`` into prefix views of three complex FFT work
    arrays, fetched once per call at the last pass's length: two half
    spectra and a real view of the third.  Up to cyclic length
    ``_KEPT_CYCLIC_MAX`` the calling thread keeps them between calls, grown
    to the longest length used, at most 1.5 MiB, so a warm call allocates
    little beyond what it returns and takes no page faults; a longer call
    makes its own and leaves the kept ones as they are.  Every pass writes
    each slice it reads, the call only reads ``v`` and ``a``, and threads
    keep separate arrays, so no state passes between calls.  Operand order
    matters: the vectorized complex product is not bitwise commutative, and
    swapping a factor pair moves coefficients by about 1e-17.  The low
    half's spectrum is always v^ h^, the residual's a^ low^ and the
    correction's h^ r^.
    """
    sizes = [a.size]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    q = np.empty(a.size)
    q[0] = 1.0 / a[0]
    if v is not None and a.size == 1:
        q[0] *= v[0]
    if a.size > 2 * _DIRECT_MAX:  # the last pass, from ceil(a.size / 2) terms, is long
        longest = 1 << (a.size - 1).bit_length()
        work = getattr(_workspace, "arrays", None)
        if work is None or work[0].size <= longest // 2:
            work = tuple(np.empty(longest // 2 + 1, dtype=complex) for _ in range(3))
            if longest <= _KEPT_CYCLIC_MAX:
                _workspace.arrays = work
        h_hat_buf, x_hat_buf, y_hat_buf = work
        real_buf = y_hat_buf.view(float)
    for n, m in zip(sizes[-1:0:-1], sizes[-2::-1]):
        numerator = v is not None and m == a.size
        direct = n <= _DIRECT_MAX
        if direct:
            low = np.convolve(v[:n], q[:n])[:n] if numerator else q[:n]
            product = np.convolve(a[1:m], low, "valid")
        else:
            length = 1 << (m - 1).bit_length()
            half, real = length // 2 + 1, real_buf[:length]
            h_hat = low_hat = np.fft.rfft(q[:n], length, out=h_hat_buf[:half])
            if numerator:  # h lives on as h_hat, so the low half takes its place in q
                x_hat = np.fft.rfft(v[:n], length, out=x_hat_buf[:half])
                np.multiply(x_hat, h_hat, out=x_hat)
                q[:n] = np.fft.irfft(x_hat, length, out=real)[:n]
                low_hat = np.fft.rfft(q[:n], length, out=y_hat_buf[:half])
            x_hat = np.fft.rfft(a[:m], length, out=x_hat_buf[:half])
            np.multiply(x_hat, low_hat, out=x_hat)
            product = np.fft.irfft(x_hat, length, out=real)[n:m]
        residual = q[n:m]
        if numerator:
            np.subtract(v[n:m], product, out=residual)
        else:
            np.negative(product, out=residual)
        if direct:
            q[n:m] = np.convolve(q[:n], residual)[: m - n]
            if numerator:  # only now, as the correction read h from q[:n]
                q[:n] = low
        else:
            np.multiply(h_hat, np.fft.rfft(residual, length, out=x_hat), out=x_hat)
            q[n:m] = np.fft.irfft(x_hat, length, out=real)[: m - n]
    return q


@dataclass(frozen=True)
class RenewalRatioLST(TransformOracle):
    """Transform of the renewal solution, m~(t) = v~(t) / (1 - phi f~(t)).

    The normalized weights satisfy the convolution recursion

        W_k(m) = (W_k(v) + phi * sum_{j<k} W_j(m) W_{k-j}(f)) / (1 - phi f~(t))

    which is the Leibniz rule for m~ (1 - phi f~) = v~ rescaled so no
    binomial coefficients appear.  Read as power series in z, it is the
    division W(m) = W(v) / (1 - phi W(f)), which the weights take in
    O(K log K) by one call of ``_series_quotient``: the Newton reciprocal
    of the denominator (Brent & Kung, J. ACM 25, 1978) with the numerator
    folded into its last pass, the kernel that the compound step runs
    with the numerator 1.  The
    division adds an absolute error of about 1e-16 / (1 - phi) of the
    largest weight for a density f, whose reciprocal series has
    coefficients summing to up to 1 / (1 - phi); the tests check it
    against ``ratio_reference``, the O(K^2) recursion above with exact
    (fsum) inner sums.  Raises :class:`SingularityError` at or below the
    singularity, where 1 - phi f~(t) <= 1e-12 (never for a density f).

    For ruin the SurvivalLST tail sums in v and f set a larger absolute
    floor, so ruin weights below ~1e-14 are noise: 7.2e-15 is the error
    against the exact exponential-claims weights at phi = 0.9, t = 10.
    """

    v_oracle: TransformOracle
    f_oracle: TransformOracle
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _real_point(self.phi, "defect phi"))
        if not 0 < self.phi < 1:
            raise DomainError(f"defect phi must be in (0, 1), got {self.phi}")

    def weights(self, t, k_max):
        t = self._require_valid_point(t, k_max)
        fw = self.f_oracle.weights(t, k_max)
        vw = self.v_oracle.weights(t, k_max)
        denom = 1.0 - self.phi * fw[0]
        if not denom > _SINGULARITY_TOL:  # also refuses NaN
            raise SingularityError(
                f"1 - phi*f~(t) = {denom} at t={t}: at or below the defective-equation singularity"
            )
        a = -self.phi * fw
        a[0] = denom
        return _series_quotient(vw, a)
