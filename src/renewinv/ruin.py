"""Classical risk model: end-to-end non-ruin probability approximation.

The non-ruin probability is the CDF of a geometric sum of equilibrium-law
claims.  Its transform-derivative weights at t are that CDF on the lattice
{k/t} divided by t, as the lattice discretization of a sum is the sum of the
discretized claims.  The private oracle ``_NonruinLST`` computes them: it
discretizes the equilibrium law at exactly the K+1 points used, expands the
compound geometric PMF with :func:`~renewinv.compound.panjer_geometric`
(the Newton series division of :mod:`renewinv.transforms`, with the
numerator 1) and takes
cumulative sums.  :func:`lstar_nonruin` (L*_t) and
:func:`approximate_nonruin` (one :func:`~renewinv.inversion.m2_lattice`
call) read it like any other oracle.  The renewal ingredients f and v of the
ruin function come as transform oracles only, from
:func:`renewal_data_from_model`.  Both routes read the equilibrium law from
:func:`~renewinv.transforms.survival_to_density_oracle`, whose refusals of
rounded tails they therefore share.

The oracle is a frozen value holding its :class:`RiskModel`, and models and
claim laws hash by value, so the pass memo of
:func:`~renewinv.inversion.m2_lattice` serves a fresh model with equal
numbers (int or float): :func:`approximate_nonruin` at t, 2t, ..., 2^L t
runs L + 2 passes, not 2(L + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compound import discretize_equilibrium, panjer_geometric
from .errors import AdmissibilityError, DomainError
from .inversion import covering_index, LatticeFunction, m2_lattice
from .specfun import _real_array, _real_point, _require_kind, _require_positive, _shaped_like
from .transforms import (
    GammaMixture,
    ScaledLST,
    SurvivalLST,
    survival_to_density_oracle,
    TransformOracle,
)

import numpy as np


def _net_profit_loading(phi) -> float:
    """phi as a float; DomainError for NaN, AdmissibilityError outside (0, 1), where
    ruin is certain."""
    phi = _real_point(phi, "loading factor phi")
    if math.isnan(phi):
        raise DomainError(f"loading factor phi must be a number, got {phi}")
    if not 0 < phi < 1:
        raise AdmissibilityError(f"net-profit condition violated: phi must be in (0, 1), got {phi}")
    return phi


@dataclass(frozen=True)
class RiskModel:
    """Claim law plus loading factor phi = (arrival rate * mean claim) / premium rate.

    The net-profit condition 0 < phi < 1 is enforced at construction (a NaN
    phi raises :class:`DomainError`), and phi is stored as a float, as the
    claim law's parameters are.
    """

    claims: GammaMixture
    phi: float

    def __post_init__(self):
        _require_kind(self.claims, GammaMixture, "claim law")
        object.__setattr__(self, "phi", _net_profit_loading(self.phi))


@dataclass(frozen=True)
class RuinApproximation:
    """Accelerated lattice approximation of the non-ruin probability.

    ``lattice`` holds the non-ruin values at {k/t}; off-lattice queries
    interpolate linearly and queries beyond the truncation raise.
    :meth:`nonruin` forwards a float or an array of points to it unchanged,
    and so follows :class:`~renewinv.inversion.LatticeFunction`'s array rule.
    """

    lattice: LatticeFunction

    def nonruin(self, u):
        return self.lattice(u)


@dataclass(frozen=True)
class RenewalIngredients:
    """Defective-renewal data (f, v, phi) of a risk model, as transform oracles.

    f is the equilibrium density of the claim law and v is phi times the
    equilibrium survival; the ruin probability solves
    m(u) = phi * int_0^u m(u-y) f(y) dy + v(u).
    """

    phi: float
    f_oracle: TransformOracle
    v_oracle: TransformOracle


@dataclass(frozen=True)
class _NonruinLST(TransformOracle):
    """Transform oracle of the non-ruin probability of a risk model.

    Weights at t: the CDF (clamped at 1) of the geometric compound of the
    equilibrium law discretized at rate t, to index k_max, divided by t.
    """

    model: RiskModel

    def weights(self, t, k_max):
        t = self._require_valid_point(t, k_max)
        severity = discretize_equilibrium(self.model.claims, t, k_max)
        pmf = panjer_geometric(severity, self.model.phi, k_max)
        cdf = np.cumsum(pmf.weights)
        np.minimum(cdf, 1.0, out=cdf)
        cdf /= t
        return cdf


def lstar_nonruin(model: RiskModel, t: float, K: int) -> LatticeFunction:
    """Gamma-operator approximation L*_t of the non-ruin probability on {k/t, k = 0..K}.

    t is taken as a float.  Raises :class:`DomainError` when t is not a
    positive finite real, and the oracle when the K + 1 weights exceed
    ``MAX_FINE_LATTICE``, before any array is built.
    """
    weights = _NonruinLST(model).weights(t, K)
    weights *= t
    return LatticeFunction(t, weights)


def approximate_nonruin(model: RiskModel, t: float, u_max: float) -> RuinApproximation:
    """Order-2 accelerated non-ruin approximation on {k/t} up to u_max.

    One :func:`~renewinv.inversion.m2_lattice` call over the non-ruin
    oracle at rates t and 2t; the k = 0 value is pinned to the exact
    1 - phi since the accelerated operator is defined to take the true
    value at the origin.  t and u_max are taken as floats.  Raises
    :class:`DomainError` unless t and u_max are positive and finite and
    t * u_max finite, and for a lattice beyond ``MAX_FINE_LATTICE``.

    The non-ruin probability m is nondecreasing in [1 - phi, 1], and M2 need
    not be: with claims small against 1/t it can exceed 1.  So the values a_k
    are clamped to [1 - phi, 1] and then replaced by their running maximum.
    Neither step moves a value further from m.  Clamping to an interval that
    holds m_k moves a_k toward m_k.  If |a_i - m_i| <= e for i <= k, the
    running maximum b_k = a_j, j <= k, has m_k - e <= a_k <= b_k and
    b_k <= m_j + e <= m_k + e.  So the sup error is not increased; the
    projection bounds the range, it does not make a coarse answer accurate.
    A curve already in range and nondecreasing is its own projection, and is
    returned as M2 gave it.
    """
    t, u_max = _require_positive(t), _require_positive(u_max, "u_max")
    lattice = m2_lattice(_NonruinLST(model), t, covering_index(t, u_max), 1.0 - model.phi)
    values = lattice.values
    # values[0] is 1 - phi, so a nondecreasing curve is in range if it ends at or below 1
    if not (values[-1] <= 1.0 and (values[1:] >= values[:-1]).all()):
        clamped = np.clip(values, 1.0 - model.phi, 1.0)
        lattice = LatticeFunction(t, np.maximum.accumulate(clamped, out=clamped))
    return RuinApproximation(lattice)


def exact_nonruin_exponential(phi: float, beta: float, u):
    """Closed-form non-ruin probability for exponential claims with rate beta.

    1 - phi * exp(-beta (1-phi) u) at a float or an array of points u;
    reduces to the mean-one formula 1 - phi * exp(-(1-phi) u) at beta = 1,
    and is 1 at u = inf.  phi is refused as in :class:`RiskModel`; a
    non-real argument, a beta outside (0, inf) or a NaN or negative u
    raises :class:`DomainError`, which names the first such u.
    """
    phi, beta = _net_profit_loading(phi), _require_positive(beta, "claim rate beta")
    u = _real_array(u, "initial capital u")
    bad = u[~(u >= 0)]
    if bad.size:
        raise DomainError(f"initial capital u must be >= 0, got {bad[0]}")
    with np.errstate(over="ignore"):  # a product past the floats is inf, and exp(-inf) = 0
        return _shaped_like(u, 1.0 - phi * np.exp(-beta * (1.0 - phi) * u))


def renewal_data_from_model(model: RiskModel) -> RenewalIngredients:
    """Defective-renewal ingredients of a risk model.

    The oracles of f, the claim law's equilibrium density, and of
    v(u) = phi * (1 - F_eq(u)), for :class:`~renewinv.transforms.RenewalRatioLST`.
    v is ``ScaledLST(phi, SurvivalLST(f))``, so the ratio forms the ruin
    forcing from the pass of f it has just made, and a ratio pass evaluates
    the claim law once.
    """
    f_oracle = survival_to_density_oracle(model.claims)
    return RenewalIngredients(model.phi, f_oracle, ScaledLST(model.phi, SurvivalLST(f_oracle)))
