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
:mod:`renewinv.transforms`; the renewal-ratio division there runs it to
half the terms and folds its numerator into the last Newton pass.  The
function keeps the name ``panjer_geometric`` because it returns the same
coefficients and its callers and the benchmark tracer refer to it by that
name.  The non-ruin oracle of :mod:`renewinv.ruin` reads both functions:
its weights are the cumulative sums of the compound PMF divided by t, the
normalized transform-derivative weights of the non-ruin probability.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NegativeWeightError
from .transforms import _series_reciprocal, GammaMixture, survival_to_density_oracle

_NEGATIVE_TOL = 1e-12
_EXCESS_TOL = 1e-9


@dataclass(frozen=True)
class LatticePMF:
    """Probability weights on the grid {k/t, k = 0..K} plus truncated mass.

    ``mass_deficit`` is 1 - sum(weights), clamped at zero: for an
    equilibrium discretization, the true mass of the tail beyond K.  It is
    informational; the compound kernel reads only the weights up to its own
    index and never this field.
    """

    t: float
    weights: np.ndarray = field(repr=False)
    mass_deficit: float = 0.0

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise DomainError(f"lattice rate t must be positive and finite, got {self.t}")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a nonempty 1-d array")
        if not np.isfinite(w).all():
            raise DomainError("lattice weights must be finite")
        if w.min() < -_NEGATIVE_TOL:
            raise NegativeWeightError(f"weight {w.min()} below -{_NEGATIVE_TOL}")
        w = np.maximum(w, 0.0)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def truncation_index(self) -> int:
        return self.weights.size - 1


def _fresh_pmf(t: float, weights: np.ndarray) -> LatticePMF:
    # np.sum adds pairwise (serial runs of at most 16 terms inside blocks
    # of 128, then halving), so each weight passes through fewer than 50
    # roundings for the n <= 2**20 + 1 points of MAX_FINE_LATTICE.  For
    # nonnegative weights the error is then below 50 * 2**-53 * total,
    # about 6e-15 and more than five orders under _EXCESS_TOL: the check
    # fires on the same inputs as an exact sum, and the deficit moves by
    # at most that much.
    total = float(np.sum(weights))
    if total > 1.0 + _EXCESS_TOL:
        raise DomainError(
            f"lattice weights at t={t} sum to {total!r}, above 1 + {_EXCESS_TOL}: "
            "the claims are small against the lattice spacing 1/t, so the rounding "
            "floor of the equilibrium tail sums, divided by t * mean claim, passes the "
            "tolerance, and a compound step multiplies that excess by about 1/(1 - phi)"
        )
    deficit = max(0.0, 1.0 - total)
    return LatticePMF(t=t, weights=weights, mass_deficit=deficit)


def discretize_equilibrium(mixture: GammaMixture, t: float, K: int) -> LatticePMF:
    """Lattice masses of the discretized equilibrium law of a gamma mixture.

    P(L = k/t) = sum_i p_i * P(NB(alpha_i, beta_i/(t+beta_i)) > k) divided
    by t * mean, for k = 0..K: the normalized weights of the
    equilibrium-density oracle.  The total over all k is exactly one, so
    the stored deficit is the tail beyond K.
    """
    return _fresh_pmf(t, survival_to_density_oracle(mixture).weights(t, K))


def panjer_geometric(severity: LatticePMF, phi: float, K: int) -> LatticePMF:
    """PMF of the geometric compound of a lattice severity, to index K.

    The count is geometric with P(M = n) = (1-phi) phi**n, so the PGF of the
    compound is (1 - phi) / (1 - phi F(z)) with F the severity PGF.  The
    reciprocal series is taken by Newton iteration in O(K log K) (Brent &
    Kung, J. ACM 25, 1978), with F truncated or zero-padded to K+1 terms;
    the kernel, defined in :mod:`renewinv.transforms`, is also the first
    half of :class:`~renewinv.transforms.RenewalRatioLST`'s division.
    The coefficients are those of Panjer's recursion, whose name the
    function keeps; the O(K^2) recursion is the reference in the tests.
    """
    if not 0 < phi < 1:
        raise DomainError(f"compound-geometric parameter phi must be in (0, 1), got {phi}")
    if not isinstance(K, numbers.Integral) or K < 0:
        raise DomainError(f"truncation index must be an integer >= 0, got {K!r}")
    f = severity.weights[: K + 1]
    a = np.zeros(K + 1)
    np.multiply(f, -phi, out=a[: f.size])
    a[0] += 1.0
    pmf = _series_reciprocal(a)
    pmf *= 1.0 - phi
    return _fresh_pmf(severity.t, pmf)
