"""Classical risk model: end-to-end non-ruin probability approximation.

The non-ruin probability is the CDF of a geometric sum of equilibrium-law
claims.  Its transform-derivative weights at t are that CDF on the lattice
{k/t} divided by t, as the lattice discretization of a sum is the sum of the
discretized claims.  The private oracle ``_NonruinLST`` computes them: it
discretizes the equilibrium law at exactly the K+1 points used, expands the
compound geometric PMF with :func:`~renewinv.compound.panjer_geometric`
(the Newton series reciprocal of :mod:`renewinv.transforms`) and takes
cumulative sums.  :func:`lstar_nonruin` (L*_t) and
:func:`approximate_nonruin` (one :func:`~renewinv.inversion.m2_lattice`
call) read it like any other oracle.  The renewal ingredients f and v of the
ruin function come as transform oracles only, from
:func:`renewal_data_from_model`.

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
from .inversion import _real_rate, covering_index, LatticeFunction, m2_lattice
from .transforms import (
    GammaMixture,
    ScaledLST,
    SurvivalLST,
    survival_to_density_oracle,
    TransformOracle,
)

import numpy as np


@dataclass(frozen=True)
class RiskModel:
    """Claim law plus loading factor phi = (arrival rate * mean claim) / premium rate.

    The net-profit condition 0 < phi < 1 is enforced at construction; ruin
    would be certain otherwise.
    """

    claims: GammaMixture
    phi: float

    def __post_init__(self):
        if not 0 < self.phi < 1:
            raise AdmissibilityError(
                f"net-profit condition violated: phi must be in (0, 1), got {self.phi}"
            )


@dataclass(frozen=True)
class RuinApproximation:
    """Accelerated lattice approximation of the non-ruin probability.

    ``lattice`` holds the non-ruin values at {k/t}; off-lattice queries
    interpolate linearly and queries beyond the truncation raise.
    """

    lattice: LatticeFunction

    def nonruin(self, u: float) -> float:
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
        self._require_valid_point(t, k_max)
        severity = discretize_equilibrium(self.model.claims, t, k_max)
        pmf = panjer_geometric(severity, self.model.phi, k_max)
        cdf = np.cumsum(pmf.weights)
        np.minimum(cdf, 1.0, out=cdf)
        cdf /= t
        return cdf


def lstar_nonruin(model: RiskModel, t: float, K: int) -> LatticeFunction:
    """Gamma-operator approximation L*_t of the non-ruin probability on {k/t, k = 0..K}.

    t is taken as a float.  Raises :class:`DomainError` when t is not a
    real number, and the oracle when the K + 1 weights exceed
    ``MAX_FINE_LATTICE``, before any array is built.
    """
    t = _real_rate(t)
    weights = _NonruinLST(model).weights(t, K)
    weights *= t
    return LatticeFunction(t, weights)


def approximate_nonruin(model: RiskModel, t: float, u_max: float) -> RuinApproximation:
    """Order-2 accelerated non-ruin approximation on {k/t} up to u_max.

    One :func:`~renewinv.inversion.m2_lattice` call over the non-ruin
    oracle at rates t and 2t; the k = 0 value is pinned to the exact
    1 - phi since the accelerated operator is defined to take the true
    value at the origin.  t is taken as a float before the lattice is
    sized.  Raises :class:`DomainError` for t that is not a real number, a
    non-finite t * u_max and a lattice beyond ``MAX_FINE_LATTICE``.
    """
    t = _real_rate(t)
    if not t > 0:
        raise DomainError(f"lattice rate t must be positive, got {t}")
    if not u_max > 0:
        raise DomainError(f"u_max must be positive, got {u_max}")
    lattice = m2_lattice(_NonruinLST(model), t, covering_index(t, u_max), 1.0 - model.phi)
    return RuinApproximation(lattice)


def exact_nonruin_exponential(phi: float, beta: float, u: float) -> float:
    """Closed-form non-ruin probability for exponential claims with rate beta.

    1 - phi * exp(-beta (1-phi) u); reduces to the mean-one formula
    1 - phi * exp(-(1-phi) u) at beta = 1, and is 1 at u = inf.  A NaN u
    or a non-finite beta raises :class:`DomainError`.
    """
    if not 0 < phi < 1:
        raise AdmissibilityError(f"phi must be in (0, 1), got {phi}")
    if not 0 < beta < math.inf:
        raise DomainError(f"claim rate beta must be positive and finite, got {beta}")
    if not u >= 0:
        raise DomainError(f"initial capital must be >= 0, got {u}")
    return 1.0 - phi * math.exp(-beta * (1.0 - phi) * u)


def renewal_data_from_model(model: RiskModel) -> RenewalIngredients:
    """Defective-renewal ingredients of a risk model.

    The oracles of f, the claim law's equilibrium density, and of
    v(u) = phi * (1 - F_eq(u)), for :class:`~renewinv.transforms.RenewalRatioLST`.
    """
    f_oracle = survival_to_density_oracle(model.claims)
    return RenewalIngredients(model.phi, f_oracle, ScaledLST(model.phi, SurvivalLST(f_oracle)))
