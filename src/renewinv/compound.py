"""Lattice discretization of equilibrium distributions and the compound
geometric sum.

The equilibrium law of a gamma mixture discretizes onto the grid {k/t} with
weights proportional to negative-binomial survival probabilities; those are
the normalized weights of :func:`~renewinv.transforms.survival_to_density_oracle`,
so ``discretize_equilibrium`` takes them from that oracle at exactly the
K+1 points the compound step reads.  The compound geometric distribution of
those lattice variables has the generating function
(1 - phi) / (1 - phi F(z)), F being the severity's; its first K+1
coefficients come from a Newton iteration for the reciprocal power series,
with products by direct convolution in the short passes and wrap-around
(cyclic) real FFT products in the long ones, in O(K log K) instead of the
O(K^2) of Panjer's recursion.  That series kernel lives in
:mod:`renewinv.transforms`: one Newton division, called here with the
numerator 1 and by the renewal ratio with its numerator, which folds into
the last pass.  The function keeps the name ``panjer_geometric`` because
it returns the same coefficients and its callers and the benchmark tracer
refer to it by that name.  The non-ruin oracle of :mod:`renewinv.ruin`
reads both functions: its weights are the cumulative sums of the compound
PMF divided by t, the normalized transform-derivative weights of the
non-ruin probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NegativeWeightError
from .specfun import _lattice_values, _real_point, _require_index, _require_positive
from .transforms import _series_quotient, GammaMixture, survival_to_density_oracle

_NEGATIVE_TOL = 1e-12
_EXCESS_TOL = 1e-9
_FIRST_TAIL_TOL = 1e-9


@dataclass(frozen=True)
class LatticePMF:
    """Probability weights on the grid {k/t, k = 0..K}.

    t and the weights are checked and stored as by LatticeFunction.  Weights below
    -1e-12 raise :class:`NegativeWeightError`; higher negatives are clamped to zero.
    """

    t: float
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "t", _require_positive(self.t))
        w = _lattice_values(self.weights, "lattice weights")
        if w.min() < -_NEGATIVE_TOL:
            raise NegativeWeightError(f"weight {w.min()} below -{_NEGATIVE_TOL}")
        np.maximum(w, 0.0, out=w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def truncation_index(self) -> int:
        return self.weights.size - 1

    @property
    def mass_deficit(self) -> float:
        """1 - sum(weights) clamped at 0: an equilibrium discretization's tail beyond K."""
        return max(0.0, 1.0 - float(np.sum(self.weights)))


def _fresh_pmf(t: float, weights: np.ndarray) -> LatticePMF:
    # np.sum adds pairwise: on MAX_FINE_LATTICE points its error, below 6e-15, is
    # five orders under _EXCESS_TOL, so the check fires as an exact sum would
    total = float(np.sum(weights))
    if total > 1.0 + _EXCESS_TOL:
        raise DomainError(
            f"lattice weights at t={t} sum to {total!r}, above 1 + {_EXCESS_TOL}: "
            "the claims are small against the lattice spacing 1/t, so the rounding "
            "floor of the equilibrium tail sums, divided by t * mean claim, passes the "
            "tolerance, and a compound step multiplies that excess by about 1/(1 - phi)"
        )
    return LatticePMF(t, weights)


def discretize_equilibrium(mixture: GammaMixture, t: float, K: int) -> LatticePMF:
    """Lattice masses of the discretized equilibrium law of a gamma mixture.

    P(L = k/t) = sum_i p_i * P(NB(alpha_i, beta_i/(t+beta_i)) > k) divided
    by t * mean, for k = 0..K: the normalized weights of the
    equilibrium-density oracle.  The total over all k is exactly one, so
    the deficit is the tail beyond K.

    The oracle takes the tails as 1 - cumsum, whose rounding is absolute:
    with claims small against 1/t the first tail P(NB > 0), about
    t * mean, loses its digits (all of them from beta of about 1e20 at
    t = 5), and the answer is silently wrong.  So the first weight, times
    t * mean, is held against the exact first tail
    -sum_i p_i expm1(-alpha_i log1p(t / beta_i)), and a relative gap past
    ``_FIRST_TAIL_TOL`` raises :class:`DomainError`.  The later tails
    carry the same absolute floor.  Non-ruin answers that pass this check
    and the sum check below were off from answers built on exact tails by
    under 2.3e-8, on Exp(beta) claims with beta from 1 to 10**13.5, t 5
    to 100, u_max 0.2 to 20 and phi 0.5 and 0.9; a tolerance of 1e-6
    let errors up to 8.9e-6 through.

    Both this check and the 1 + 1e-9 check on the sum of the weights
    are needed: neither catches all that the other does.  A first tail
    that loses every digit rounds the sum down, and the sum check sees
    nothing; a first tail that happens to round well can sit under later
    tails whose errors add past 1e-9 (alpha 0.3, beta 1e6, t 0.5, K 1).
    """
    t = _require_positive(t)
    weights = survival_to_density_oracle(mixture).weights(t, K)
    got = float(weights[0]) * t * mixture.mean
    exact = -math.fsum(p * math.expm1(-alpha * math.log1p(t / beta))
                       for p, alpha, beta in mixture.components)
    if not abs(got - exact) < _FIRST_TAIL_TOL * exact:
        raise DomainError(
            f"the first equilibrium tail at t={t} rounds to {got!r} against {exact!r}: the "
            "claims are small against the lattice spacing 1/t, so 1 - cumsum loses more than "
            f"{_FIRST_TAIL_TOL} of it"
        )
    return _fresh_pmf(t, weights)


def panjer_geometric(severity: LatticePMF, phi: float, K: int) -> LatticePMF:
    """PMF of the geometric compound of a lattice severity, to index K.

    The count is geometric with P(M = n) = (1-phi) phi**n, so the PGF of the
    compound is (1 - phi) / (1 - phi F(z)) with F the severity PGF.  The
    reciprocal series is taken by Newton iteration in O(K log K) (Brent &
    Kung, J. ACM 25, 1978), with F truncated or zero-padded to K+1 terms:
    the series division of :mod:`renewinv.transforms` with no numerator,
    the kernel that :class:`~renewinv.transforms.RenewalRatioLST` runs
    with one.
    The coefficients are those of Panjer's recursion, whose name the
    function keeps; the O(K^2) recursion is the reference in the tests.
    """
    phi = _real_point(phi, "compound-geometric parameter phi")
    if not 0 < phi < 1:
        raise DomainError(f"compound-geometric parameter phi must be in (0, 1), got {phi}")
    K = _require_index(K, "truncation index K")
    f = severity.weights[: K + 1]
    a = np.zeros(K + 1)
    np.multiply(f, -phi, out=a[: f.size])
    a[0] += 1.0
    pmf = _series_quotient(None, a)
    pmf *= 1.0 - phi
    return _fresh_pmf(severity.t, pmf)
