"""One check per scalar kind across the package.

Every model, oracle and special-function parameter is taken through one of
three checks of ``renewinv.specfun``: a real number, a positive finite real,
or an integer index.  A str, None or complex argument raises DomainError.
A real parameter is stored and computed as its float64 value, so a float32
argument gives the float64 call's bits, on a cold pass memo and on a warm
one.  An index refuses any float, an integral one too.  Out-of-range values
refuse as before, with the same exception class.  The lattice rate t and
the point u of the operators are covered in ``test_rates.py``, but for the
points of ``l_star`` and of a LatticeFunction, which are array arguments here.

Array arguments are taken through one dtype check: bool, integer and float
arrays are read as float64, and any other dtype (str, complex, object)
raises DomainError, scalars of those kinds too.
"""

import dataclasses
import math

import numpy as np
import pytest

from renewinv import (
    AdmissibilityError,
    approximate_nonruin,
    BoundReport,
    chain_bounds,
    Component,
    ConstantLST,
    discretize_equilibrium,
    DomainError,
    exact_nonruin_exponential,
    ExponentialDecayLST,
    GammaMixture,
    inversion,
    l_star,
    lattice_index,
    LatticeFunction,
    LatticePMF,
    m2_lattice,
    negbin_logpmf,
    negbin_pmf_terms,
    panjer_geometric,
    post_widder,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
    renewal_data_from_model,
    RenewalRatioLST,
    RiskModel,
    ruin_bound_report,
    ruin_w_functions,
    RuinApproximation,
    ScaledLST,
    stehfest2,
    SumLST,
)
from renewinv.inversion import covering_index

MIXTURE = GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0)))
MODEL = RiskModel(MIXTURE, 0.9)
DATA = renewal_data_from_model(MODEL)
DECAY = ExponentialDecayLST(1.0)
SEVERITY = discretize_equilibrium(MIXTURE, 5.0, 20)
LEDGER = ruin_w_functions(MODEL)
POINTS = np.linspace(0.0, 10.0, 11)


def _mixture(p=0.5, alpha=1.5, beta=1.3):
    return GammaMixture(((p, 1.0, 1.7), (0.5, alpha, beta)))


def _nonruin(mixture, phi=0.9):
    return approximate_nonruin(RiskModel(mixture, phi), 5.0, 4.0)


# name -> (call of the parameter, an in-range value, an out-of-range value and its error).
# 1 - x is exact in float32 for x in [0.5, 2], so the probabilities are taken
# below 0.5, at 0.35, where 1 - float32(0.35) rounds in float32.
REAL_PARAMETERS = {
    "GammaMixture.p": (lambda x: _nonruin(_mixture(p=x)), 0.5, -0.5, DomainError),
    "GammaMixture.alpha": (lambda x: _nonruin(_mixture(alpha=x)), 1.7, 0.0, DomainError),
    "GammaMixture.beta": (lambda x: _nonruin(_mixture(beta=x)), 1.3, math.inf, DomainError),
    "RiskModel.phi": (lambda x: _nonruin(MIXTURE, phi=x), 0.35, 1.0, AdmissibilityError),
    "exact_nonruin_exponential.phi": (
        lambda x: exact_nonruin_exponential(x, 1.0, 2.0), 0.35, 1.5, AdmissibilityError
    ),
    "exact_nonruin_exponential.beta": (
        lambda x: exact_nonruin_exponential(0.9, x, 2.0), 1.3, 0.0, DomainError
    ),
    "exact_nonruin_exponential.u": (
        lambda x: exact_nonruin_exponential(0.9, 1.0, x), 2.3, -1.0, DomainError
    ),
    "negbin_pmf_terms.alpha": (lambda x: negbin_pmf_terms(50, x, 0.4), 1.7, -1.0, DomainError),
    "negbin_pmf_terms.rho": (lambda x: negbin_pmf_terms(50, 1.5, x), 0.35, 1.5, DomainError),
    "negbin_logpmf.alpha": (lambda x: negbin_logpmf(7, x, 0.4), 1.7, math.nan, DomainError),
    "negbin_logpmf.rho": (lambda x: negbin_logpmf(7, 1.5, x), 0.35, 0.0, DomainError),
    "reg_inc_gamma_lower.alpha": (lambda x: reg_inc_gamma_lower(x, POINTS), 1.7, 0.0, DomainError),
    "reg_inc_gamma_upper.alpha": (
        lambda x: reg_inc_gamma_upper(x, POINTS), 1.7, math.inf, DomainError
    ),
    "panjer_geometric.phi": (
        lambda x: panjer_geometric(SEVERITY, x, 20), 0.35, 1.0, DomainError
    ),
    "RenewalRatioLST.phi": (
        lambda x: m2_lattice(RenewalRatioLST(DATA.v_oracle, DATA.f_oracle, x), 5.0, 10, 0.0),
        0.35, 1.0, DomainError,
    ),
    "chain_bounds.phi": (lambda x: chain_bounds(LEDGER, x), 0.35, 1.0, DomainError),
    "m2_lattice.g0": (lambda x: m2_lattice(DECAY, 5.0, 10, x), 0.37, math.nan, DomainError),
    "ConstantLST.c": (
        lambda x: m2_lattice(SumLST(DECAY, ConstantLST(x)), 3.0, 10, 1.0), 2.7, math.inf,
        DomainError,
    ),
    "ScaledLST.c": (
        lambda x: m2_lattice(ScaledLST(x, DECAY), 5.0, 10, 0.0), 2.3, math.nan, DomainError
    ),
    "ExponentialDecayLST.a": (
        lambda x: m2_lattice(ExponentialDecayLST(x), 5.0, 10, 1.0), 1.3, -1.0, DomainError
    ),
    "lattice_index.t": (lambda x: lattice_index(x, 1.7), 2.3, math.inf, DomainError),
    "lattice_index.u": (lambda x: lattice_index(2.3, x), 1.7, math.nan, DomainError),
    "covering_index.t": (lambda x: covering_index(x, 1.7), 2.3, math.inf, DomainError),
    "covering_index.u": (lambda x: covering_index(2.3, x), 1.7, math.nan, DomainError),
}

# name -> (call of the index, an in-range value, the least value it takes)
INDEX_PARAMETERS = {
    "TransformOracle.weights.k_max": (lambda k: DECAY.weights(5.0, k), 7, 0),
    "negbin_pmf_terms.k_max": (lambda k: negbin_pmf_terms(k, 1.5, 0.4), 7, 0),
    "negbin_logpmf.k": (lambda k: negbin_logpmf(k, 1.5, 0.4), 7, 0),
    "panjer_geometric.K": (lambda k: panjer_geometric(SEVERITY, 0.9, k), 7, 0),
    "m2_lattice.K": (lambda k: m2_lattice(DECAY, 5.0, k, 1.0), 7, 1),
    "post_widder.n": (lambda k: post_widder(DECAY, k, 1.3), 7, 1),
    "stehfest2.n": (lambda k: stehfest2(DECAY, k, 1.3), 7, 1),
    "GammaMixture.raw_moment.n": (lambda k: MIXTURE.raw_moment(k), 3, 0),
}

NOT_REAL = {"str": "5", "None": None, "complex": 5j}

# name -> call of an array argument, all of whose values here are in range
ARRAY_PARAMETERS = {
    "reg_inc_gamma_lower.x": lambda x: reg_inc_gamma_lower(1.5, x),
    "reg_inc_gamma_upper.x": lambda x: reg_inc_gamma_upper(1.5, x),
    "GammaMixture.cdf.u": lambda u: MIXTURE.cdf(u),
    "GammaMixture.survival.u": lambda u: MIXTURE.survival(u),
    "exact_nonruin_exponential.u": lambda u: exact_nonruin_exponential(0.9, 1.0, u),
    "LatticeFunction.values": lambda v: LatticeFunction(5.0, v),
    "LatticePMF.weights": lambda w: LatticePMF(5.0, w),
    "l_star.u": lambda u: l_star(DECAY, 5.0, u),
    "LatticeFunction.u": lambda u: LatticeFunction(5.0, np.linspace(1.0, 0.0, 16))(u),
}

# each used to be read as numbers, to refuse as NaN, or to raise ComplexWarning or TypeError
NOT_REAL_ARRAYS = {
    "str": "2",
    "str_list": ["1", "2"],
    "None": None,
    "complex": 2 + 0j,
    "complex128": np.complex128(2 + 3j),
    "complex_array": np.array([1 + 2j, 3]),
    "object_array": np.array([1, 2**70], dtype=object),
}


def _bits(result) -> bytes:
    """The float64 bytes of a result; every float in it must be a Python float or float64."""
    if isinstance(result, RuinApproximation):
        result = result.lattice
    if isinstance(result, LatticeFunction):
        result = result.values
    elif isinstance(result, LatticePMF):
        result = result.weights
    elif isinstance(result, BoundReport):
        result = dataclasses.astuple(result)
    if isinstance(result, (tuple, float, int)):
        values = result if isinstance(result, tuple) else (result,)
        assert all(type(v) in (float, int) for v in values), values
        result = np.array(values, dtype=float)
    assert result.dtype == np.float64
    return result.tobytes()


@pytest.mark.parametrize("bad", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("name", [*REAL_PARAMETERS, *INDEX_PARAMETERS])
def test_parameter_that_is_not_real_is_refused(name, bad):
    call = (REAL_PARAMETERS.get(name) or INDEX_PARAMETERS[name])[0]
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize("name", REAL_PARAMETERS)
def test_real_parameter_out_of_range_is_refused_as_before(name):
    call, _, bad, error = REAL_PARAMETERS[name]
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("name", REAL_PARAMETERS)
def test_float32_parameter_gives_the_float64_bits_cold_and_warm(name):
    call, value, _, _ = REAL_PARAMETERS[name]
    x32 = np.float32(value)
    x64 = float(x32)
    inversion._memoized_pass.cache_clear()
    cold32 = _bits(call(x32))
    warm64 = _bits(call(x64))
    inversion._memoized_pass.cache_clear()
    cold64 = _bits(call(x64))
    warm32 = _bits(call(x32))
    assert cold32 == cold64
    assert warm32 == warm64 == cold64


@pytest.mark.parametrize("bad", NOT_REAL_ARRAYS.values(), ids=NOT_REAL_ARRAYS.keys())
@pytest.mark.parametrize("name", ARRAY_PARAMETERS)
def test_array_that_is_not_real_is_refused(name, bad):
    with pytest.raises(DomainError, match="must be real numbers, got dtype"):
        ARRAY_PARAMETERS[name](bad)


@pytest.mark.parametrize("name", ARRAY_PARAMETERS)
def test_float32_array_gives_the_float64_bits(name):
    x32 = np.array([0.35, 1.7, 2.3], dtype=np.float32)
    assert _bits(ARRAY_PARAMETERS[name](x32)) == _bits(ARRAY_PARAMETERS[name](x32.astype(float)))


@pytest.mark.parametrize("values", [[True, False, True], [0, 1, 3]], ids=["bool", "int"])
@pytest.mark.parametrize("name", ARRAY_PARAMETERS)
def test_bool_and_int_arrays_answer_as_their_floats(name, values):
    call = ARRAY_PARAMETERS[name]
    assert _bits(call(np.array(values))) == _bits(call(np.array(values, dtype=float)))


@pytest.mark.parametrize("k", [2.0, 2.5, math.nan, math.inf], ids=["2.0", "2.5", "nan", "inf"])
@pytest.mark.parametrize("name", INDEX_PARAMETERS)
def test_index_that_is_not_an_integer_is_refused(name, k):
    call = INDEX_PARAMETERS[name][0]
    with pytest.raises(DomainError, match="must be an integer >= "):
        call(k)


@pytest.mark.parametrize("name", INDEX_PARAMETERS)
def test_index_below_its_least_value_is_refused(name):
    call, _, least = INDEX_PARAMETERS[name]
    with pytest.raises(DomainError, match=f"must be an integer >= {least}, got {least - 1}"):
        call(least - 1)


@pytest.mark.parametrize("name", INDEX_PARAMETERS)
def test_numpy_integer_index_answers_as_its_int(name):
    call, value, _ = INDEX_PARAMETERS[name]
    assert _bits(call(np.int64(value))) == _bits(call(value))


class TestFloat32Defects:
    """The float32 parameters that gave wrong numbers or wrong refusals."""

    def test_gamma_claims_match_the_float64_model(self):
        # Gamma(float32 1.5, float32 1.3) at phi 0.9 was off by 4.0e-5 at t = 5
        # and refused at t = 20 and 100 ("weights sum to 1.0000243", "claims are small")
        f32 = RiskModel(GammaMixture(((1.0, np.float32(1.5), np.float32(1.3)),)), 0.9)
        f64 = RiskModel(GammaMixture(((1.0, 1.5, float(np.float32(1.3))),)), 0.9)
        for t in (5.0, 20.0, 100.0):
            inversion._memoized_pass.cache_clear()
            got = approximate_nonruin(f32, t, 40.0).lattice.values
            inversion._memoized_pass.cache_clear()
            want = approximate_nonruin(f64, t, 40.0).lattice.values
            assert got.tobytes() == want.tobytes()

    def test_bound_report_takes_phi_as_a_float(self):
        # a float32 phi gave numpy.float32 norms, C 2.4e-7 relative below its float64 value
        phi = np.float32(0.9)
        got = ruin_bound_report(RiskModel(MIXTURE, phi))
        want = ruin_bound_report(RiskModel(MIXTURE, float(phi)))
        for g, w in zip(got, want):
            values = dataclasses.astuple(g)
            assert all(type(v) is float for v in values)
            assert values == dataclasses.astuple(w)

    def test_decay_rate_weights(self):
        # 1.1e-4 relative off at k = 2000
        a = np.float32(1.3)
        got = ExponentialDecayLST(a).weights(5.0, 2000)
        assert got.tobytes() == ExponentialDecayLST(float(a)).weights(5.0, 2000).tobytes()

    def test_constant_weights(self):
        c = np.float32(2.7)
        got = ConstantLST(c).weights(5.0, 10)
        assert got.dtype == np.float64
        assert got.tobytes() == ConstantLST(float(c)).weights(5.0, 10).tobytes()

    def test_negbin_masses(self):
        # 9.2e-6 relative off at rho = float32(0.35)
        rho = np.float32(0.35)
        got = negbin_pmf_terms(200, 1.5, rho)
        assert got.tobytes() == negbin_pmf_terms(200, 1.5, float(rho)).tobytes()
