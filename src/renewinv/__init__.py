"""Gamma-operator Laplace-transform inversion for defective renewal equations.

Approximates functions from the derivatives of their Laplace transforms via
a gamma-type operator and its order-2 accelerated lattice variant, with a
complete classical-risk-model ruin pipeline (negative-binomial lattice
discretization plus a compound geometric series reciprocal) and a rigorous
a-priori error-bound calculator.
"""

from .bounds import (
    BoundReport,
    chain_derivative_bounds,
    chain_high_order_bounds,
    equilibrium_moments,
    f_second_integrals,
    NormLedger,
    ruin_bound_report,
    ruin_w_functions,
)
from .compound import (
    compound_cdf,
    discretize_equilibrium,
    LatticePMF,
    panjer_geometric,
)
from .errors import (
    AdmissibilityError,
    DomainError,
    NegativeWeightError,
    RenewinvError,
    SingularityError,
)
from .inversion import l_star, lattice_index, LatticeFunction, m2_lattice, post_widder, stehfest2
from .oracles import closed_form_lstar_exponential_ruin, convolution_renewal_solve
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
    log_gamma,
    negbin_cdf,
    negbin_logpmf,
    negbin_pmf_terms,
    negbin_survival,
    RealShape,
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
    renewal_ratio_derivs,
    RenewalRatioLST,
    ScaledLST,
    SumLST,
    survival_to_density_oracle,
    SurvivalLST,
    TransformOracle,
)

__version__ = "0.1.0"
