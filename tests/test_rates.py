"""One lattice-rate rule across the package.

Every public entry point that takes a lattice rate t refuses anything but a
positive finite real with DomainError, and takes t as a float, so a NumPy
float32 rate answers with the bits of its float64 value.  The Post-Widder
operators take their point u the same way; ``l_star`` and LatticeFunction
take their points as an array argument (``test_scalars.py``).
"""

import dataclasses
import math

import numpy as np
import pytest

from renewinv import (
    approximate_nonruin,
    BoundReport,
    Component,
    ConstantLST,
    CumulativeLST,
    discretize_equilibrium,
    DomainError,
    ExponentialDecayLST,
    GammaMixture,
    GammaMixtureLST,
    l_star,
    lattice_index,
    LatticeFunction,
    LatticePMF,
    lstar_nonruin,
    m2_lattice,
    post_widder,
    renewal_data_from_model,
    RenewalRatioLST,
    RiskModel,
    ScaledLST,
    stehfest2,
    SumLST,
    survival_to_density_oracle,
    SurvivalLST,
)
from renewinv.inversion import covering_index
from renewinv.ruin import _NonruinLST

MIXTURE = GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0)))
MODEL = RiskModel(MIXTURE, 0.9)
DATA = renewal_data_from_model(MODEL)
DECAY = ExponentialDecayLST(1.0)

ORACLES = {
    "GammaMixtureLST": GammaMixtureLST(MIXTURE),
    "ExponentialDecayLST": DECAY,
    "ConstantLST": ConstantLST(2.0),
    "ScaledLST": ScaledLST(-0.5, DECAY),
    "SumLST": SumLST(ConstantLST(1.0), DECAY),
    "CumulativeLST": CumulativeLST(GammaMixtureLST(MIXTURE)),
    "SurvivalLST": SurvivalLST(GammaMixtureLST(MIXTURE)),
    "survival_to_density_oracle": survival_to_density_oracle(MIXTURE),
    "RenewalRatioLST": RenewalRatioLST(DATA.v_oracle, DATA.f_oracle, MODEL.phi),
    "_NonruinLST": _NonruinLST(MODEL),
}

REPORT = BoundReport(**{f.name: 1.0 for f in dataclasses.fields(BoundReport)})


def _values(x):
    if isinstance(x, (float, int, tuple)):  # an index, or an (index, fraction) pair
        return np.array(x, dtype=np.float64)
    if isinstance(x, (LatticeFunction, LatticePMF)):
        assert type(x.t) is float
        return x.values if isinstance(x, LatticeFunction) else x.weights
    if hasattr(x, "lattice"):
        return _values(x.lattice)
    return x


RATE_ENTRY_POINTS = {
    "l_star": lambda t: l_star(DECAY, t, 1.3),
    "lattice_index": lambda t: lattice_index(t, 1.3),
    "covering_index": lambda t: covering_index(t, 1.3),
    "m2_lattice": lambda t: m2_lattice(DECAY, t, 10, 1.0),
    "lstar_nonruin": lambda t: lstar_nonruin(MODEL, t, 10),
    "approximate_nonruin": lambda t: approximate_nonruin(MODEL, t, 2.0),
    **{f"{name}.weights": (lambda o: lambda t: o.weights(t, 10))(o) for name, o in ORACLES.items()},
    "LatticeFunction": lambda t: LatticeFunction(t, [1.0, 0.5]),
    "LatticePMF": lambda t: LatticePMF(t, [0.5, 0.25]),
    "discretize_equilibrium": lambda t: discretize_equilibrium(MIXTURE, t, 10),
    "total_bound": lambda t: REPORT.total_bound(t),
}

BAD_RATES = {
    "str": "5",
    "None": None,
    "complex": 5j,
    "huge_int": 10**400,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0,
    "negative": -1,
}


@pytest.mark.parametrize("t", BAD_RATES.values(), ids=BAD_RATES.keys())
@pytest.mark.parametrize("call", RATE_ENTRY_POINTS.values(), ids=RATE_ENTRY_POINTS.keys())
def test_rate_outside_the_positive_reals_is_refused(call, t):
    with pytest.raises(DomainError, match="lattice rate t"):
        call(t)


@pytest.mark.parametrize("call", RATE_ENTRY_POINTS.values(), ids=RATE_ENTRY_POINTS.keys())
def test_float32_rate_gives_the_float64_bits(call):
    rate = np.float32(2.3)
    got, want = _values(call(rate)), _values(call(float(rate)))
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


POINT_ENTRY_POINTS = {
    "post_widder": lambda u: post_widder(DECAY, 10, u),
    "stehfest2": lambda u: stehfest2(DECAY, 10, u),
}


@pytest.mark.parametrize("u", ["1", None, 1j], ids=["str", "None", "complex"])
@pytest.mark.parametrize("call", POINT_ENTRY_POINTS.values(), ids=POINT_ENTRY_POINTS.keys())
def test_point_that_is_not_real_is_refused(call, u):
    with pytest.raises(DomainError, match="point u must be a real number"):
        call(u)


@pytest.mark.parametrize("call", POINT_ENTRY_POINTS.values(), ids=POINT_ENTRY_POINTS.keys())
def test_float32_point_gives_the_float64_bits(call):
    u = np.float32(0.37)
    got, want = call(u), call(float(u))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_huge_point_is_refused_as_a_domain_error():
    with pytest.raises(DomainError):
        l_star(DECAY, 5.0, 10**400)
    with pytest.raises(DomainError):
        post_widder(DECAY, 10, -(10**400))
