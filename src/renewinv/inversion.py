"""Inversion operators built on transform-derivative oracles.

Four operators are provided: the gamma-type operator ``l_star`` (expectation
of g at a gamma point S([tu]+1)/t), its order-2 accelerated lattice variant
``m2_lattice``, the Post-Widder operator ``post_widder`` and its order-2
Stehfest combination ``stehfest2``.

In terms of the normalized oracle weights w_k(t) = (-t)**k/k! g~^(k)(t):

    L*_t g(u)  = t * w_[tu](t)
    W_n g(u)   = s * w_{n-1}(s),   s = n/u

so both reduce to a single weight lookup and never touch raw factorials.

``m2_lattice`` reads both of its passes through one memo, keyed by
(oracle, t, k_max).  Oracles compare and hash by value (see
:class:`~renewinv.transforms.TransformOracle`), so a freshly built equal
oracle hits the same entry, and an oracle that cannot be hashed is refused
with :class:`DomainError` before any oracle call.  M2 at rate s reads the
pass at (2s, 2K - 1) that M2 at 2s reads again, so calls at t, 2t, ...,
2^L t run L + 2 passes, not 2(L + 1).  The memo holds the 3 most recently
used passes, at most 3 x 8 MiB at ``MAX_FINE_LATTICE`` weights.  The memo's
arrays are only read, and never handed to a caller; refusals are not
memoized and raise on every call.
It is safe for concurrent use: two threads that miss on one key both
compute it and get equal arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .specfun import _lattice_values, _real_array, _real_point, _require_finite, _require_index
from .specfun import _require_positive, _require_weight_count, _shaped_like, MAX_FINE_LATTICE  # noqa: F401 (callers import the cap from here)
from .transforms import TransformOracle

_SNAP = 1e-9


def _lattice_split(t: float, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The one snapping rule of the lattice, over a float64 array of points:
    # (index [tu], fraction tu - [tu]) as two float arrays of the points' shape,
    # with a product within _SNAP of an integer snapped to it.
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN: refused just below
        x = t * us
    if not np.isfinite(x).all():
        raise DomainError(f"lattice position t*u must be finite, got t={t}, u={us[~np.isfinite(x)][0]}")
    k = np.floor(x)
    frac = x - k
    up = frac > 1.0 - _SNAP
    return k + up, np.where(up | (frac < _SNAP), 0.0, frac)


def lattice_index(t: float, u: float) -> tuple[int, float]:
    """Split t*u into integer lattice index and fractional part.

    Products within 1e-9 of an integer snap to it, so u = k/t computed in
    floating point lands exactly on index k.  t and u are taken as floats;
    a t that is not a real in (0, inf), a non-real u, or a non-finite
    product raises :class:`DomainError`.
    This is the package's one snapping rule: :class:`LatticeFunction` and
    :func:`l_star` apply it to arrays of points, with the same bits.
    """
    k, frac = _lattice_split(_require_positive(t), np.array(_real_point(u)))
    return int(k), float(frac)


def covering_index(t: float, u: float) -> int:
    """Smallest lattice index K >= 1 whose point K/t reaches u.

    ceil(t*u) with the snapping of :func:`lattice_index`, at least 1; the
    truncation index of a lattice that must cover [0, u].  t and u are
    refused as :func:`lattice_index` refuses them.
    """
    k, frac = lattice_index(t, u)
    return max(k if frac == 0.0 else k + 1, 1)


@dataclass(frozen=True)
class LatticeFunction:
    """Real values on the grid {k/t, k = 0..K} with linear interpolation.

    Off-lattice points u in (0, K/t) evaluate to the convex combination
    (tu - [tu]) * val([tu]+1) + ([tu]+1 - tu) * val([tu]), and lattice
    points, snapped by the rule of :func:`lattice_index`, to their stored
    value.  A call takes a float or an array of points by the package's one
    array rule and returns a result of its shape (a float for a float); an
    array call has the bits of float calls on its points.  A negative, NaN or
    infinite point, or one beyond K/t, raises :class:`DomainError` rather
    than extrapolating.  t is stored as a float, and the values, a nonempty
    1-d array of finite reals, as a read-only float64 copy.
    """

    t: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "t", _require_positive(self.t))
        vals = _lattice_values(self.values, "lattice values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def truncation_index(self) -> int:
        return self.values.size - 1

    @property
    def u_max(self) -> float:
        return self.truncation_index / self.t

    def __call__(self, u):
        us = _real_array(u, "point u")
        if (us < 0).any():
            raise DomainError(f"lattice functions are defined on u >= 0, got {us[us < 0][0]}")
        k, frac = _lattice_split(self.t, us)
        hi = k + (frac > 0.0)  # k itself at a lattice point, which reads 0 * val(k) + val(k)
        if (hi > self.truncation_index).any():
            raise DomainError(f"u={us[hi > self.truncation_index][0]} beyond the lattice "
                              f"truncation {self.u_max}; refusing to extrapolate")
        lo, hi = k.astype(np.intp), hi.astype(np.intp)
        return _shaped_like(us, frac * self.values[hi] + (1.0 - frac) * self.values[lo])


def l_star(oracle: TransformOracle, t: float, u):
    """Gamma-operator approximation of g(u) from transform derivatives at t.

    Equals E g(S([tu]+1)/t) with S(n) a standard Gamma(n, 1) variable; for
    a CDF source this is the CDF of the lattice-discretized variable.
    t is taken as a float; u, a float or an array of points, is read by the
    package's one array rule, and the result has its shape (a float for a
    float, an empty array for an empty array).  Each index [tu] is snapped
    by the rule of :func:`lattice_index`, and all points are read from one
    oracle pass to the largest index.  That gives each point the bits of a
    call on it alone for every oracle whose weights do not depend on the
    pass length; the renewal ratio's series division moves them by about
    1e-16.  Raises :class:`DomainError`, before any oracle call, at the
    first negative point, at a NaN or infinite one, and when the
    [t max u] + 1 weights exceed ``MAX_FINE_LATTICE``.
    """
    t, us = _require_positive(t), _real_array(u, "point u")
    if (us < 0).any():
        raise DomainError(f"l_star requires u >= 0, got {us[us < 0][0]}")
    ks = _lattice_split(t, us)[0]
    k_max = int(ks.max(initial=0.0))  # a Python int, capped before the indices become intp
    _require_weight_count(k_max + 1, f"l_star at t*u = {t * us.max(initial=0.0)}")
    return _shaped_like(us, t * oracle.weights(t, k_max)[ks.astype(np.intp)])


# M2 at rate s reads the passes (2s, 2K - 1) and then (s, K - 1); M2 at 2s
# reads (4s, 4K - 1) before (2s, 2K - 1).  Run after M2 at s, it inserts one
# pass before it reads the shared one again, so 3 is the smallest size that
# still holds the shared pass then.
@functools.lru_cache(maxsize=3)
def _memoized_pass(oracle: TransformOracle, t: float, k_max: int) -> np.ndarray:
    return oracle.weights(t, k_max)


def m2_lattice(oracle: TransformOracle, t: float, K: int, g0: float) -> LatticeFunction:
    """Order-2 accelerated approximation on the lattice {k/t, k = 0..K}.

    Value at k/t is 2 L*_{2t} g((2k-1)/(2t)) - L*_t g((k-1)/t) for k >= 1
    and the caller-supplied g(0) at k = 0.  Oracle calls are batched per
    lattice rate and memoized (module docstring), with t taken as a float.
    Raises :class:`DomainError`, before any oracle call, when t is not a positive
    finite real, K not an integer >= 1, g0 not a finite real number, the fine lattice
    would exceed ``MAX_FINE_LATTICE`` points or the oracle is not hashable.
    """
    t = _require_positive(t)
    K = _require_index(K, "truncation index K", 1)
    g0 = _require_finite(g0, "value g0")
    _require_weight_count(2 * K, f"K = {K} on the fine lattice")
    try:
        hash(oracle)
    except TypeError as exc:
        raise DomainError(
            f"m2_lattice memoizes passes by oracle value, and {type(oracle).__name__} "
            f"is not hashable: {exc}"
        ) from None
    w_fine = _memoized_pass(oracle, 2.0 * t, 2 * K - 1)
    w_coarse = _memoized_pass(oracle, t, K - 1)
    vals = np.empty(K + 1)
    vals[0] = g0
    # indices 1,3,...,2K-1 on the 2t-lattice pair with 0,...,K-1 on the t-lattice
    np.multiply(4.0 * t, w_fine[1::2], out=vals[1:])
    vals[1:] -= t * w_coarse
    return LatticeFunction(t, vals)


def post_widder(oracle: TransformOracle, n: int, u: float) -> float:
    """Post-Widder approximation of g(u) of integer order n >= 1.

    Equals E g(u S(n)/n); uses the (n-1)-th transform derivative at n/u,
    with u taken as a float.  Raises :class:`DomainError` unless n is an
    integer (5.0 is refused) whose n weights fit in ``MAX_FINE_LATTICE``
    and u is positive and finite.
    """
    n = _require_index(n, "Post-Widder order n", 1)
    u = _require_positive(u, "point u")
    _require_weight_count(n, f"Post-Widder order {n}")
    s = n / u
    w = oracle.weights(s, n - 1)
    return s * float(w[n - 1])


def stehfest2(oracle: TransformOracle, n: int, u: float) -> float:
    """Order-2 Stehfest acceleration of Post-Widder: 2 W_{2n} g(u) - W_n g(u)."""
    n = _require_index(n, "Post-Widder order n", 1)
    return 2.0 * post_widder(oracle, 2 * n, u) - post_widder(oracle, n, u)
