"""Gamma-operator Laplace-transform inversion for defective renewal equations.

Approximates functions from the derivatives of their Laplace transforms via
a gamma-type operator and its order-2 accelerated lattice variant, with a
classical-risk-model ruin pipeline and an a-priori error-bound calculator.
The non-ruin probability is one more transform oracle (negative-binomial
lattice discretization plus a compound geometric series reciprocal, then
cumulative sums) read by the same operators.
"""

from .bounds import (
    BoundReport,
    chain_bounds,
    NormLedger,
    ruin_bound_report,
    ruin_w_functions,
)
from .compound import discretize_equilibrium, LatticePMF, panjer_geometric
from .errors import (
    AdmissibilityError,
    DomainError,
    NegativeWeightError,
    RenewinvError,
    SingularityError,
)
from .inversion import l_star, lattice_index, LatticeFunction, m2_lattice, post_widder, stehfest2
from .ruin import (
    approximate_nonruin,
    exact_nonruin_exponential,
    lstar_nonruin,
    renewal_data_from_model,
    RenewalIngredients,
    RiskModel,
    RuinApproximation,
)
from .specfun import (
    negbin_logpmf,
    negbin_pmf_terms,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
)
from .transforms import (
    Component,
    ConstantLST,
    CumulativeLST,
    ExponentialDecayLST,
    GammaMixture,
    GammaMixtureLST,
    RenewalRatioLST,
    ScaledLST,
    SumLST,
    survival_to_density_oracle,
    SurvivalLST,
    TransformOracle,
)

__version__ = "0.1.0"
