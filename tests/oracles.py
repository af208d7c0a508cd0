"""Independent verification oracles for the test suite.

Slow, simple or closed-form routes that the tests cross-check the
package's pipeline against, a transform oracle that catches writes into
the arrays it hands out and one that counts its passes; nothing in the
package uses them.
"""

from __future__ import annotations

import functools
import warnings
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

import scalar_reference
from renewinv import DomainError, lattice_index
from renewinv.transforms import TransformOracle


class CountingLST(TransformOracle):
    """Delegates to an inner oracle and records each pass (t, k_max) it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.passes = []

    def weights(self, t, k_max):
        self.passes.append((t, k_max))
        return self.inner.weights(t, k_max)


class ReadOnlyLST(TransformOracle):
    """Hands out one read-only array per (t, k_max), the same object on every call."""

    def __init__(self, inner):
        self.inner = inner
        self.handed_out = {}

    def weights(self, t, k_max):
        if (t, k_max) not in self.handed_out:
            w = self.inner.weights(t, k_max)
            w.flags.writeable = False
            self.handed_out[(t, k_max)] = (w, w.copy())
        return self.handed_out[(t, k_max)][0]

    def untouched(self):
        return all(np.array_equal(w, saved) for w, saved in self.handed_out.values())


def ruin_renewal_inputs(model) -> tuple[Callable, Callable]:
    """Pointwise f and v of the ruin function's renewal equation.

    f is the equilibrium density survival / mean of the claim law and
    v = phi (1 - F_eq) the forcing term, each taking a float or an array of
    points.  Both come from the scalar loops of ``scalar_reference``, so a
    solve on them shares no kernel with the package's pipeline.
    """
    mix, phi = model.claims, model.phi
    f = np.vectorize(lambda u: scalar_reference.survival(mix, u) / mix.mean, otypes=[float])
    v = np.vectorize(
        lambda u: phi * (1.0 - scalar_reference.equilibrium_cdf(mix, u)), otypes=[float]
    )
    return f, v


def exact_nonruin_integer_gamma(model) -> Callable:
    """Exact non-ruin probability for claims mixing integer-shape gammas.

    With Q(s) = prod over distinct rates b of (s + b)^n_b, n_b the largest
    shape at rate b, the claim transform is N(s)/Q(s) with
    N = sum_i p_i b_i^n_i Q / (s + b_i)^n_i; sharing Q across equal rates
    keeps it the least common denominator, so no pole cancels.  The non-ruin
    probability then has the Laplace transform (1 - phi) mu Q(s) / P(s),
    P = (mu s - phi) Q + phi N (Asmussen & Albrecher, *Ruin Probabilities*,
    2nd ed., 2010, ch. IX), and is the finite sum of exponentials over the
    roots of P.  P(0) = 0, and that root has residue 1, so

        nonruin(u) = 1 + sum_r (1 - phi) mu Q(r) / P'(r) e^(r u)

    over the other roots r, found by numpy as the roots of P(s)/s.  The
    roots must be simple, must agree with ``mpmath.polyroots`` at 30 digits
    to 1e-12 relative, and the sum must give nonruin(0) = 1 - phi to 1e-13;
    otherwise this raises ``AssertionError``.  A shape that is not an
    integer raises ``DomainError``.

    Returns ``nonruin(u, k=0)``: the k-th derivative in u at a finite float
    or an array of finite points.
    """
    import mpmath

    mix, phi = model.claims, model.phi
    shapes = {}
    for _, alpha, beta in mix.components:
        if alpha != int(alpha):
            raise DomainError(f"shape {alpha} is not an integer")
        shapes[beta] = max(shapes.get(beta, 0), int(alpha))
    factor = {beta: Polynomial([beta, 1.0]) ** n for beta, n in shapes.items()}
    q = functools.reduce(Polynomial.__mul__, factor.values())
    n_poly = Polynomial([0.0])
    for p, alpha, beta in mix.components:
        others = [f for b, f in factor.items() if b != beta]
        lift = Polynomial([beta, 1.0]) ** (shapes[beta] - int(alpha))
        n_poly += p * beta ** int(alpha) * functools.reduce(Polynomial.__mul__, others, lift)
    mu = mix.mean
    big_p = Polynomial([-phi, mu]) * q + phi * n_poly
    roots = Polynomial(big_p.coef[1:]).roots()
    with mpmath.workdps(30):
        precise = mpmath.polyroots(big_p.coef[:0:-1].tolist(), maxsteps=200, extraprec=60)
        for r in roots:
            gap = min(abs(mpmath.mpc(r) - x) for x in precise)
            assert gap <= 1e-12 * max(abs(r), 1.0), f"root {r} is {float(gap):.3g} from mpmath's"
    spread = np.abs(roots[:, None] - roots[None, :]) + np.eye(roots.size)
    assert spread.min() > 1e-6, f"roots are not simple: {roots}"
    coeffs = (1.0 - phi) * mu * q(roots) / big_p.deriv()(roots)
    at_zero = 1.0 + float(coeffs.sum().real)
    assert abs(at_zero - (1.0 - phi)) <= 1e-13, f"nonruin(0) = {at_zero}, not 1 - phi"

    def nonruin(u, k=0):
        u = np.asarray(u, dtype=float)
        terms = coeffs * roots**k * np.exp(np.multiply.outer(u, roots))
        return float(k == 0) + terms.sum(axis=-1).real

    return nonruin


def convolution_renewal_solve(
    f: Callable[[np.ndarray], np.ndarray],
    v: Callable[[np.ndarray], np.ndarray],
    phi: float,
    u_max: float,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve m(u) = phi * int_0^u m(u-y) f(y) dy + v(u) by trapezoidal stepping.

    ``f`` and ``v`` are each called once, on the array of grid points, and
    return an array of values or one constant.  Returns (grid, values) on
    the uniform grid of step h.  Local accuracy is O(h^2); this is a
    cross-check oracle, not a production solver.  Each new step size is
    calibrated once against the exponential closed form (the result is
    memoized per h), and every call whose step disagrees by more than 1e-4
    emits a warning.
    """
    if not 0 <= phi < 1:
        raise DomainError(f"defect phi must be in [0, 1), got {phi}")
    if not u_max > 0 or not h > 0:
        raise DomainError("u_max and h must be positive")
    _warn_if_step_too_coarse(h)
    return _volterra_grid(f, v, phi, u_max, h)


def _volterra_grid(f, v, phi, u_max, h):
    n = int(round(u_max / h))
    grid = np.arange(n + 1) * h
    fv = np.broadcast_to(np.asarray(f(grid), dtype=float), grid.shape)
    vv = np.broadcast_to(np.asarray(v(grid), dtype=float), grid.shape)
    m = np.empty(n + 1)
    m[0] = vv[0]
    lead = 1.0 - phi * h * fv[0] / 2.0
    for i in range(1, n + 1):
        inner = float(np.dot(m[1:i][::-1], fv[1:i])) if i > 1 else 0.0
        m[i] = (phi * h * (inner + 0.5 * m[0] * fv[i]) + vv[i]) / lead
    return grid, m


@functools.lru_cache
def _calibration_error(h: float) -> float:
    """Sup error of the step-h solve against the exponential closed form on [0, 5]."""
    phi = 0.9
    grid, m = _volterra_grid(lambda y: np.exp(-y), lambda u: phi * np.exp(-u), phi, 5.0, h)
    exact = phi * np.exp(-(1.0 - phi) * grid)
    return float(np.max(np.abs(m - exact)))


def _warn_if_step_too_coarse(h: float) -> None:
    error = _calibration_error(h)
    if error > 1e-4:
        warnings.warn(
            f"step h={h} too coarse: exponential calibration error {error:.3e} exceeds 1e-4",
            stacklevel=3,
        )


def closed_form_lstar_exponential_ruin(phi: float, t: float, u: float) -> float:
    """Gamma-operator value of the exponential-claims non-ruin probability.

    For mean-one exponential claims the non-ruin function is
    1 - phi exp(-(1-phi) u), whose operator image at lattice rate t is
    1 - phi (t / (t + 1 - phi))**([tu]+1) in closed form.
    """
    if not 0 < phi < 1:
        raise DomainError(f"phi must be in (0, 1), got {phi}")
    if not t > 0 or u < 0:
        raise DomainError("requires t > 0 and u >= 0")
    k, _ = lattice_index(t, u)
    return 1.0 - phi * (t / (t + 1.0 - phi)) ** (k + 1)
