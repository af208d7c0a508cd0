"""Lattice discretization of equilibrium distributions and the compound
geometric sum.

The equilibrium law of a gamma mixture discretizes onto the grid {k/t} with
weights proportional to negative-binomial survival probabilities; those are
the normalized weights of :func:`~renewinv.transforms.survival_to_density_oracle`,
so ``discretize_equilibrium`` takes them from that oracle at exactly the
K+1 points the compound step reads, with the oracle's refusals of tails
that 1 - cumsum has rounded: the renewal ratio reads the same oracle and
refuses the same inputs.  The compound geometric distribution of
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
non-ruin probability.  The one check of the module's own is the compound
PMF's mass: the 1/(1 - phi) of the compound step can carry equilibrium
weights that pass their own sum check past 1 + 1e-9, and
``panjer_geometric`` refuses them by the equilibrium oracle's rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NegativeWeightError
from .specfun import _lattice_values, _real_point, _require_index, _require_positive
from .transforms import _require_mass_at_most_one, _series_quotient, GammaMixture
from .transforms import survival_to_density_oracle

_NEGATIVE_TOL = 1e-12


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


def discretize_equilibrium(mixture: GammaMixture, t: float, K: int) -> LatticePMF:
    """Lattice masses of the discretized equilibrium law of a gamma mixture.

    P(L = k/t) = sum_i p_i * P(NB(alpha_i, beta_i/(t+beta_i)) > k) divided
    by t * mean, for k = 0..K: the normalized weights of the
    equilibrium-density oracle, with its refusals of a rounded first tail
    and of weights summing above 1 + 1e-9
    (:func:`~renewinv.transforms.survival_to_density_oracle`).  The total
    over all k is exactly one, so the deficit is the tail beyond K.
    """
    return LatticePMF(t, survival_to_density_oracle(mixture).weights(t, K))


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
    return LatticePMF(severity.t, _require_mass_at_most_one(pmf, severity.t))
