"""Classical risk model: end-to-end non-ruin probability approximation.

The non-ruin probability is the CDF of a geometric sum of equilibrium-law
claims.  :func:`lstar_nonruin` is the one assembly of that sum on a lattice
{k/t}: it discretizes the equilibrium law at exactly the K+1 points used,
expands the compound geometric PMF with
:func:`~renewinv.compound.panjer_geometric` (a Newton series reciprocal in
O(K log K), the kernel defined in :mod:`renewinv.transforms` that the
renewal-ratio oracle also divides with), and takes cumulative sums, which is
the gamma-operator value L*_t.  :func:`approximate_nonruin` runs it at rates
t and 2t and combines the two curves into the order-2 accelerated lattice
approximation.  The fine lattice is capped at ``MAX_FINE_LATTICE`` points,
checked before any array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .compound import compound_cdf, discretize_equilibrium, panjer_geometric
from .errors import AdmissibilityError, DomainError
from .inversion import covering_index, LatticeFunction, MAX_FINE_LATTICE
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

    @classmethod
    def from_rates(cls, claims: GammaMixture, arrival_rate: float, premium_rate: float) -> "RiskModel":
        if not arrival_rate > 0 or not premium_rate > 0:
            raise DomainError("arrival and premium rates must be positive")
        return cls(claims, arrival_rate * claims.mean / premium_rate)


@dataclass(frozen=True)
class RuinApproximation:
    """Accelerated lattice approximation of the non-ruin probability.

    ``lattice`` holds the non-ruin values at {k/t}; off-lattice queries
    interpolate linearly and queries beyond the truncation raise.
    """

    t: float
    phi: float
    lattice: LatticeFunction

    def nonruin(self, u: float) -> float:
        return self.lattice(u)

    def ruin(self, u: float) -> float:
        return 1.0 - self.lattice(u)


@dataclass(frozen=True)
class RenewalIngredients:
    """Defective-renewal data (f, v, phi) carried by a risk model.

    ``f`` is the equilibrium density of the claim law, ``v`` is phi times
    the equilibrium survival, both at a float or an array of points; the
    ruin probability solves m(u) = phi * int_0^u m(u-y) f(y) dy + v(u).
    Oracles expose the transforms for the ratio recursion and the
    inversion operators.
    """

    phi: float
    f_oracle: TransformOracle
    v_oracle: TransformOracle
    f: Callable
    v: Callable


def lstar_nonruin(model: RiskModel, t: float, K: int) -> LatticeFunction:
    """Gamma-operator approximation L*_t of the non-ruin probability on {k/t, k = 0..K}.

    The CDF of the geometric compound of the equilibrium law discretized at
    rate t; both steps stop at index K.
    """
    severity = discretize_equilibrium(model.claims, t, K)
    return compound_cdf(panjer_geometric(severity, model.phi, K))


def approximate_nonruin(model: RiskModel, t: float, u_max: float) -> RuinApproximation:
    """Run the full discretize -> compound -> accelerate pipeline up to u_max.

    Both lattice rates t and 2t are processed; the k = 0 value is pinned to
    the exact 1 - phi since the accelerated operator is defined to take the
    true value at the origin.  Raises :class:`DomainError` for a non-finite
    t * u_max and for a lattice beyond ``MAX_FINE_LATTICE``.
    """
    if not t > 0:
        raise DomainError(f"lattice rate t must be positive, got {t}")
    if not u_max > 0:
        raise DomainError(f"u_max must be positive, got {u_max}")
    K = covering_index(t, u_max)
    if 2 * K > MAX_FINE_LATTICE:
        raise DomainError(
            f"t*u_max = {t * u_max:g} needs {2 * K} points on the fine lattice, "
            f"more than the limit {MAX_FINE_LATTICE}"
        )
    phi = model.phi
    cdf_coarse = lstar_nonruin(model, t, K - 1)
    cdf_fine = lstar_nonruin(model, 2.0 * t, 2 * K - 1)

    vals = np.empty(K + 1)
    vals[0] = 1.0 - phi
    vals[1:] = 2.0 * cdf_fine.values[1::2] - cdf_coarse.values
    return RuinApproximation(t=t, phi=phi, lattice=LatticeFunction(t, vals))


def exact_nonruin_exponential(phi: float, beta: float, u: float) -> float:
    """Closed-form non-ruin probability for exponential claims with rate beta.

    1 - phi * exp(-beta (1-phi) u); reduces to the mean-one formula
    1 - phi * exp(-(1-phi) u) at beta = 1.
    """
    if not 0 < phi < 1:
        raise AdmissibilityError(f"phi must be in (0, 1), got {phi}")
    if not beta > 0:
        raise DomainError(f"claim rate beta must be positive, got {beta}")
    if u < 0:
        raise DomainError(f"initial capital must be >= 0, got {u}")
    return 1.0 - phi * math.exp(-beta * (1.0 - phi) * u)


def renewal_data_from_model(model: RiskModel) -> RenewalIngredients:
    """Defective-renewal ingredients of a risk model.

    f is the claim law's equilibrium density, v(u) = phi * (1 - F_eq(u));
    both come with transform oracles for the ratio recursion and the
    bound calculators.
    """
    mix, phi = model.claims, model.phi
    f_oracle = survival_to_density_oracle(mix)
    v_oracle = ScaledLST(phi, SurvivalLST(f_oracle))
    return RenewalIngredients(
        phi=phi,
        f_oracle=f_oracle,
        v_oracle=v_oracle,
        f=mix.equilibrium_density,
        v=lambda u: phi * (1.0 - mix.equilibrium_cdf(u)),
    )
