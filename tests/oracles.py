"""Independent verification oracles for the test suite.

Slow, simple or closed-form routes that the tests cross-check the
package's pipeline against; nothing in the package uses them.
"""

from __future__ import annotations

import functools
import warnings
from typing import Callable

import numpy as np

import scalar_reference
from renewinv import DomainError, lattice_index


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
