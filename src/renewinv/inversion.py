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
used passes, at most 3 x 8 MiB at ``MAX_FINE_LATTICE`` weights; beside it
the one series kernel of :mod:`~renewinv.transforms`, which divides for
both the compound step and the renewal ratio, keeps at most 1.5 MiB of
FFT work arrays per thread.  The memo's arrays are only read, and never
handed to a caller; refusals are not memoized and raise on every call.
It is safe for concurrent use: two threads that miss on one key both
compute it and get equal arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .specfun import _lattice_values, _real_point, _require_index, _require_positive
from .specfun import _require_weight_count, MAX_FINE_LATTICE
from .transforms import TransformOracle

_SNAP = 1e-9


def lattice_index(t: float, u: float) -> tuple[int, float]:
    """Split t*u into integer lattice index and fractional part.

    Products within 1e-9 of an integer snap to it, so u = k/t computed in
    floating point lands exactly on index k.  t and u are taken as floats;
    a non-real t or u, or a non-finite product, raises :class:`DomainError`.
    """
    x = _real_point(t, "lattice rate t") * _real_point(u)
    if not math.isfinite(x):
        raise DomainError(f"lattice position t*u must be finite, got t={t}, u={u}")
    k = math.floor(x)
    frac = x - k
    if frac > 1.0 - _SNAP:
        return k + 1, 0.0
    if frac < _SNAP:
        return k, 0.0
    return k, frac


def covering_index(t: float, u: float) -> int:
    """Smallest lattice index K >= 1 whose point K/t reaches u.

    ceil(t*u) with the snapping of :func:`lattice_index`, at least 1; the
    truncation index of a lattice that must cover [0, u].
    """
    k, frac = lattice_index(t, u)
    return max(k if frac == 0.0 else k + 1, 1)


@dataclass(frozen=True)
class LatticeFunction:
    """Real values on the grid {k/t, k = 0..K} with linear interpolation.

    Off-lattice points u in (0, K/t) evaluate to the convex combination
    (tu - [tu]) * val([tu]+1) + ([tu]+1 - tu) * val([tu]).  Evaluation
    beyond K/t raises rather than extrapolating.  t is stored as a float, and
    the values, a nonempty 1-d array of finite reals, as a read-only float64 copy.
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

    def __call__(self, u: float) -> float:
        u = _real_point(u)
        if u < 0:
            raise DomainError(f"lattice functions are defined on u >= 0, got {u}")
        k, frac = lattice_index(self.t, u)
        if k > self.truncation_index or (k == self.truncation_index and frac > 0.0):
            raise DomainError(
                f"u={u} beyond the lattice truncation {self.u_max}; refusing to extrapolate"
            )
        if frac == 0.0:
            return float(self.values[k])
        return frac * float(self.values[k + 1]) + (1.0 - frac) * float(self.values[k])


def l_star(oracle: TransformOracle, t: float, u: float) -> float:
    """Gamma-operator approximation of g(u) from transform derivatives at t.

    Equals E g(S([tu]+1)/t) with S(n) a standard Gamma(n, 1) variable; for
    a CDF source this is the CDF of the lattice-discretized variable.
    t and u are taken as floats.  Raises :class:`DomainError` when the
    k + 1 weights it reads exceed ``MAX_FINE_LATTICE``.
    """
    t, u = _require_positive(t), _real_point(u)
    if u < 0:
        raise DomainError(f"l_star requires u >= 0, got {u}")
    k, _ = lattice_index(t, u)
    _require_weight_count(k + 1, f"l_star at t*u = {t * u}")
    w = oracle.weights(t, k)
    return t * float(w[k])


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
    finite real, K not an integer >= 1, g0 not a real number, the fine lattice
    would exceed ``MAX_FINE_LATTICE`` points or the oracle is not hashable.
    """
    t = _require_positive(t)
    K = _require_index(K, "truncation index K", 1)
    g0 = _real_point(g0, "value g0")
    if 2 * K > MAX_FINE_LATTICE:
        raise DomainError(
            f"K = {K} needs {2 * K} points on the fine lattice, "
            f"more than the limit {MAX_FINE_LATTICE}"
        )
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
    integer (5.0 is refused) whose n weights fit in ``MAX_FINE_LATTICE``.
    """
    n = _require_index(n, "Post-Widder order n", 1)
    u = _real_point(u)
    if not u > 0:
        raise DomainError(f"post_widder requires u > 0, got {u}")
    _require_weight_count(n, f"Post-Widder order {n}")
    s = n / u
    w = oracle.weights(s, n - 1)
    return s * float(w[n - 1])


def stehfest2(oracle: TransformOracle, n: int, u: float) -> float:
    """Order-2 Stehfest acceleration of Post-Widder: 2 W_{2n} g(u) - W_n g(u)."""
    n = _require_index(n, "Post-Widder order n", 1)
    return 2.0 * post_widder(oracle, 2 * n, u) - post_widder(oracle, n, u)
