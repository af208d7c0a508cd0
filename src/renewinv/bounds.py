"""A-priori sup-norm error bounds for the accelerated approximation.

For the ruin solution m of the defective renewal equation, the uniform
error of the order-2 lattice operator obeys

    ||M2_t m - m|| <= ||m''||/(8 t^2) + ||u m'''||/(6 t^2) + 9 ||u^2 m''''||/(16 t^2)

whenever m is four times differentiable with bounded m'' and u^2 m''''.
The derivative norms are never known directly; they are chained from
computable quantities of the model: sup norms of the forcing functions
w1 = phi m(0) f + v' and w2 = phi m'(0) f + w1', equilibrium moments, and
weighted integrals of f''.  Gamma mixtures with every shape >= 1 are the
admissible claim class.

Every coefficient of the chain (:func:`chain_bounds`) is nonnegative, so
the chain is monotone in the ledger: the chained norms, and with them the
constant C of :meth:`BoundReport.total_bound`, are upper bounds whenever
every ledger entry is one.  The moments, the integrals of f'' and f(0),
f'(0) are closed forms; the eight sup norms are not certified.  They are
maxima of samples, a grid search refined around its best points, so each
is a lower estimate of its sup and can step over a narrow peak: for claims
mixing Gamma(4000, 4000/42.46) and Gamma(1, 1e-3) half and half at
phi = 0.5, the ledger's ||w2|| is 2.2e-7 where dense sampling finds 1.4e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError
from .ruin import RiskModel
from .specfun import _gamma_kernel, reg_inc_gamma_lower
from .transforms import GammaMixture

_TAIL_RTOL = 1e-15
_GRID_POINTS = 4096
_HALF = _GRID_POINTS // 2
_REFINE_POINTS = 65
_REFINE_RTOL = 1e-9


@dataclass(frozen=True)
class NormLedger:
    """Computable norms of the renewal ingredients for one risk model.

    Sup norms ||u^j w_i|| for j = 0, 1, 2 and i = 1, 2; sup norms of
    u^2 w_i''; the equilibrium mean ``ez`` and second moment ``ez2``;
    weighted integrals i_k = int u^k |f''| du; and the boundary data
    f(0), f'(0).
    """

    w1_norm: float
    uw1_norm: float
    u2w1_norm: float
    w2_norm: float
    uw2_norm: float
    u2w2_norm: float
    u2w1pp_norm: float
    u2w2pp_norm: float
    ez: float
    ez2: float
    i0_fpp: float
    i1_fpp: float
    i2_fpp: float
    f0: float
    f1_0: float

    def __post_init__(self):
        for name in (
            "w1_norm", "uw1_norm", "u2w1_norm", "w2_norm", "uw2_norm", "u2w2_norm",
            "u2w1pp_norm", "u2w2pp_norm", "ez", "ez2", "i0_fpp", "i1_fpp", "i2_fpp", "f0",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise DomainError(f"ledger entry {name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.f1_0):
            raise DomainError(f"ledger entry f1_0 must be finite, got {self.f1_0}")
        if self.ez**2 > self.ez2 * (1.0 + 1e-12):
            raise DomainError("equilibrium moments violate ez^2 <= ez2")


@dataclass(frozen=True)
class BoundReport:
    """Chained derivative-norm bounds of the renewal solution (see :func:`chain_bounds`)."""

    m1_norm: float
    um1_norm: float
    u2m1_norm: float
    m2_norm: float
    um2_norm: float
    u2m2_norm: float
    u2m3_norm: float
    u2m4_norm: float
    um3_norm: float

    def total_bound(self, t: float) -> float:
        """Uniform error bound of the order-2 operator at lattice rate t.

        Exactly C / t^2 with C fixed by the chained norms; a non-finite t
        raises rather than report the limit 0 as if it were a bound.
        """
        if not 0 < t < math.inf:
            raise DomainError(f"lattice rate t must be positive and finite, got {t}")
        coeff = self.m2_norm / 8.0 + self.um3_norm / 6.0 + 9.0 * self.u2m4_norm / 16.0
        return coeff / (t * t)


def _require_admissible(mixture: GammaMixture) -> None:
    if mixture.min_alpha < 1.0:
        raise AdmissibilityError(
            f"error bounds require every gamma shape >= 1, got min alpha {mixture.min_alpha}"
        )


def _grow_tables(law, tables: dict, ends) -> None:
    """Give every grid end in ``ends`` a table (grid, law values on it).

    ``tables`` maps each grid end E already evaluated to its grid
    ``np.linspace(0, E, 4096)`` and the law's arrays there.  The lower
    half of the grid to 2E is, bit for bit, the even points of the grid to
    E: both are k * fl(2E/4095) = 2k * fl(E/4095), as doubling is exact.
    So a new end whose half has a table, or gets one in this call, takes
    its lower half, points and law values, from that table's even entries,
    and the law sees only the 2048 points above; an end with no half table
    gets a full grid.  The ends ``_sup_norms`` passes are powers of two,
    so the tables form one nested family; where the first ends lie within
    one octave of each other, as the ledger's rows do, no grid point
    reaches the law twice.  One ``law`` call covers the new points of every
    end, and every table is built from the points the law saw.
    """
    new = sorted(end for end in ends if end not in tables)
    halves = set(tables).union(new)
    fresh = [
        np.linspace(0.0, end, _GRID_POINTS)[_HALF if end / 2.0 in halves else 0:] for end in new
    ]
    if not fresh:
        return
    at = law(np.concatenate(fresh))
    k = 0
    # ascending, so a half made in this call has its table before its double
    for end, pts in zip(new, fresh):
        cut = slice(k, k + pts.size)
        k += pts.size
        values = [a[cut] for a in at]
        if pts.size < _GRID_POINTS:
            low, low_at = tables[end / 2.0]
            pts = np.concatenate([low[::2], pts])
            values = [np.concatenate([a_low[::2], a]) for a_low, a in zip(low_at, values)]
        tables[end] = pts, values


def _first_end(start: float) -> float:
    """The end of a row's first grid: the least power of two >= max(2 start, 4)."""
    frac, exp = math.frexp(max(2.0 * start, 4.0))
    return math.ldexp(1.0, exp - 1 if frac == 0.5 else exp)


def _sup_norms(law, rows, starts) -> list[float]:
    """Sup of |row| on [0, inf) for every row, all searched in lockstep.

    Each row is a function ``row(u, *law(u))`` of an array of points and
    the claim-law values there, with a gamma-type decaying tail that sets
    in near its ``starts`` entry.  A row's grid has 4096 points over
    [0, u_hi]; u_hi starts at the least power of two >= max(2 start, 4)
    and doubles until the endpoint value is negligible against the grid
    maximum, or u_hi passes 1e9.  Then the brackets of the row's four
    largest interior local maxima and its first grid cell are refined:
    each round evaluates ``_REFINE_POINTS`` evenly spaced points of every
    bracket and shrinks each bracket to the two cells around its best
    point, until the brackets are ``_REFINE_RTOL`` of their starting width
    (7 rounds with the defaults).

    Every row keeps its own stopping rule and brackets, so its norm is the
    one a search of that row alone finds.  The grids come from one nested
    family, ``np.linspace(0, 2^k, 4096)``: rows whose starts share an
    octave share every grid, and a row's doubled grid reuses the lower
    half of the grid it doubles, whichever row made it.  What the rows
    share is ``law``: each grid pass calls it once, on the grid points no
    earlier pass evaluated (see ``_grow_tables``), and each refinement
    round once, over the brackets of every row.
    """
    u_hi = [_first_end(start) for start in starts]
    tables: dict = {}
    grids: list = [None] * len(rows)
    vals: list = [None] * len(rows)
    doubling = list(range(len(rows)))
    while doubling:
        _grow_tables(law, tables, {u_hi[i] for i in doubling})
        still = []
        for i in doubling:
            grids[i], at = tables[u_hi[i]]
            vals[i] = np.abs(rows[i](grids[i], *at))
            if vals[i][-1] > _TAIL_RTOL * max(float(vals[i].max()), 1e-300) and u_hi[i] <= 1e9:
                u_hi[i] *= 2.0
                still.append(i)
        doubling = still

    best = [float(v.max()) for v in vals]
    lo, hi, owned = [], [], []
    for grid, v in zip(grids, vals):
        mid = v[1:-1]
        interior = np.flatnonzero((mid >= v[:-2]) & (mid >= v[2:])) + 1
        top = interior[np.argsort(-v[interior], kind="stable")][:4]
        k = sum(a.size for a in lo)
        owned.append(slice(k, k + top.size + 1))
        lo.append(np.append(grid[top - 1], grid[0]))
        hi.append(np.append(grid[top + 1], grid[1]))
    lo, hi = np.concatenate(lo), np.concatenate(hi)

    steps = np.linspace(0.0, 1.0, _REFINE_POINTS)
    brackets = np.arange(lo.size)
    width = 1.0
    while True:
        pts = lo[:, None] + (hi - lo)[:, None] * steps
        at = [a.reshape(pts.shape) for a in law(pts.ravel())]
        vals = np.empty(pts.shape)
        for i, cut in enumerate(owned):
            vals[cut] = np.abs(rows[i](pts[cut], *(a[cut] for a in at)))
            best[i] = max(best[i], float(vals[cut].max()))
        if width <= _REFINE_RTOL:
            return best
        j = np.clip(vals.argmax(axis=1), 1, _REFINE_POINTS - 2)
        lo, hi = pts[brackets, j - 1], pts[brackets, j + 1]
        width *= 2.0 / (_REFINE_POINTS - 1)


def _u2_cdf_deriv2(mixture: GammaMixture, u):
    """u^2 * F_X''(u) for a gamma mixture at a float or an array of points.

    Per component, x^alpha e^(-x) / Gamma(alpha) * (alpha - 1 - x) at
    x = beta u; exact at u = 0.
    """
    total = 0.0
    for p, alpha, beta in mixture.components:
        x = beta * u
        total += p * _gamma_kernel(alpha, alpha, x) * (alpha - 1.0 - x)
    return total


def _u2_cdf_deriv3(mixture: GammaMixture, u):
    """u^2 * F_X'''(u) for a gamma mixture at a float or an array of points.

    Per component, beta x^(alpha-1) e^(-x) / Gamma(alpha) times
    (alpha-1)(alpha-2) - 2(alpha-1) x + x^2 at x = beta u; the power is
    nonnegative for alpha >= 1.
    """
    total = 0.0
    for p, alpha, beta in mixture.components:
        x = beta * u
        poly = (alpha - 1.0) * (alpha - 2.0) - 2.0 * (alpha - 1.0) * x + x * x
        total += p * beta * _gamma_kernel(alpha, alpha - 1.0, x) * poly
    return total


def _decay_start(mixture: GammaMixture, j: int) -> float:
    return max((c.alpha + j + 4.0) / c.beta for c in mixture.components)


def ruin_w_functions(model: RiskModel) -> NormLedger:
    """Complete norm ledger for a risk model's renewal ingredients.

    For ruin, w1(u) = -phi (1-phi) survival(u) / mean and
    w2(u) = (phi/mean) w1(u) + phi (1-phi) density(u) / mean.  Their
    six weighted sup norms come from one lockstep grid search with
    gamma-tail cutoffs.  Its grids all come from one power-of-two family,
    so the claim law runs once per grid point across all six rows, and
    once per refinement round for all six; u^2 w1'' and u^2 F_X''', which
    read no claim law, come from a second lockstep search.  The norm of u^2 w2'' uses the triangle bound
    through ||u^2 w1''|| and ||u^2 F_X'''||.
    """
    mix, phi = model.claims, model.phi
    _require_admissible(mix)
    mu = mix.mean
    c1 = phi * (1.0 - phi) / mu

    def law(u):
        return mix.survival(u), mix.density(u)

    def w1_weighted(j):
        return lambda u, surv, dens: c1 * u**j * surv

    def w2_weighted(j):
        return lambda u, surv, dens: u**j * c1 * (dens - (phi / mu) * surv)

    rows = [*(w1_weighted(j) for j in range(3)), *(w2_weighted(j) for j in range(3))]
    starts = [_decay_start(mix, j) for j in range(3)] * 2
    w1_0, w1_1, w1_2, w2_0, w2_1, w2_2 = _sup_norms(law, rows, starts)
    # these two rows read no claim law: searched apart, under a law that
    # returns no arrays, their grids and brackets cost no law points
    deriv_rows = [lambda u: c1 * _u2_cdf_deriv2(mix, u), lambda u: _u2_cdf_deriv3(mix, u)]
    u2w1pp, u2_d3 = _sup_norms(lambda u: (), deriv_rows, [_decay_start(mix, 2)] * 2)
    u2w2pp = (phi / mu) * u2w1pp + c1 * u2_d3

    ez, ez2 = equilibrium_moments(mix)
    i0, i1, i2, f0, f1_0 = f_second_integrals(mix)
    return NormLedger(
        w1_norm=w1_0, uw1_norm=w1_1, u2w1_norm=w1_2,
        w2_norm=w2_0, uw2_norm=w2_1, u2w2_norm=w2_2,
        u2w1pp_norm=u2w1pp, u2w2pp_norm=u2w2pp,
        ez=ez, ez2=ez2, i0_fpp=i0, i1_fpp=i1, i2_fpp=i2, f0=f0, f1_0=f1_0,
    )


def equilibrium_moments(mixture: GammaMixture) -> tuple[float, float]:
    """Mean and second moment of the equilibrium law: EX^2/(2 EX), EX^3/(3 EX)."""
    m1 = mixture.raw_moment(1)
    return mixture.raw_moment(2) / (2.0 * m1), mixture.raw_moment(3) / (3.0 * m1)


def _component_i_fpp(alpha: float) -> tuple[float, float, float]:
    """Weighted integrals int u^i |F_a''| du, i = 0, 1, 2, for a unit-rate gamma CDF.

    Splits |F''| at its single sign change u = c = alpha - 1 and integrates
    each piece by incomplete gamma: integral i reads P(s, c) and
    Gamma(s) / Gamma(alpha) at s = s_i and s_{i+1}, where s_j = c + j.  A
    call evaluates both once at each of the four shapes s_0, ..., s_3.
    """
    if alpha == 1.0:
        return 1.0, 1.0, 2.0
    c = alpha - 1.0
    shapes = [c + j for j in range(4)]
    ratio = [math.exp(math.lgamma(s) - math.lgamma(alpha)) for s in shapes]
    lower = [reg_inc_gamma_lower(s, c) for s in shapes]
    return tuple(
        ratio[i + 1] - c * ratio[i]
        + 2.0 * c * ratio[i] * lower[i] - 2.0 * ratio[i + 1] * lower[i + 1]
        for i in range(3)
    )


def f_second_integrals(mixture: GammaMixture) -> tuple[float, float, float, float, float]:
    """(I0, I1, I2 of f'', f(0), f'(0)) for the equilibrium density f.

    f'' = -F_X''/mean, so each gamma component with rate beta contributes
    beta**(1-i) times its unit-rate integral.
    """
    _require_admissible(mixture)
    mu = mixture.mean
    parts = [(p, beta, _component_i_fpp(alpha)) for p, alpha, beta in mixture.components]
    integrals = [
        math.fsum(p * beta ** (1 - i) * fpp[i] for p, beta, fpp in parts) / mu for i in range(3)
    ]
    f0 = 1.0 / mu
    # 0.0 - x is +0.0 when no component has alpha = 1, where -x is -0.0
    f1_0 = 0.0 - math.fsum(p * beta for p, alpha, beta in mixture.components if alpha == 1.0) / mu
    return integrals[0], integrals[1], integrals[2], f0, f1_0


def chain_bounds(ledger: NormLedger, phi: float) -> BoundReport:
    """All nine derivative-norm bounds of the renewal solution m, in one pass.

    With p = 1 - phi, Z the equilibrium variable (E Z = ``ez``,
    E Z^2 = ``ez2``), I_k = int u^k |f''| du (``i<k>_fpp``) and ||.|| the
    sup norm on [0, inf), the chain is

        ||m'||         <= ||w1|| / p
        ||u m'||       <= (phi E Z ||m'|| + ||u w1||) / p
        ||u^2 m'||     <= (phi (2 E Z ||u m'|| + E Z^2 ||m'||) + ||u^2 w1||) / p
        ||m''||        <= ||w2|| / p
        ||u m''||      <= (phi E Z ||m''|| + ||u w2||) / p
        ||u^2 m''||    <= (phi (2 E Z ||u m''|| + E Z^2 ||m''||) + ||u^2 w2||) / p
        ||u^2 m'''||   <= phi ((I0 + |f'(0)|) ||u^2 m'|| + 2 I1 ||u m'|| + I2 ||m'||)
                          + phi f(0) ||u^2 m''|| + ||u^2 w1''||
        ||u^2 m''''||  <= phi ((I0 + |f'(0)|) ||u^2 m''|| + 2 I1 ||u m''|| + I2 ||m''||)
                          + phi f(0) ||u^2 m'''|| + ||u^2 w2''||
        ||u m'''||     <= ||u^2 m''''||

    each right side read from the ledger and the lines above it.  The
    first six are the weighted renewal equations for m' and m''; the
    third- and fourth-order lines come from the convolution structure of
    the differentiated equation; the last holds as m''' vanishes at
    infinity, so |u m'''(u)| <= u int_u^inf ||u^2 m''''|| / s^2 ds.  Every
    coefficient is nonnegative, so every entry is nondecreasing in every
    ledger entry.
    """
    if not 0 <= phi < 1:
        raise DomainError(f"defect phi must be in [0, 1), got {phi}")
    p = 1.0 - phi
    m1 = ledger.w1_norm / p
    um1 = (phi * ledger.ez * m1 + ledger.uw1_norm) / p
    u2m1 = (phi * (2.0 * ledger.ez * um1 + ledger.ez2 * m1) + ledger.u2w1_norm) / p
    m2 = ledger.w2_norm / p
    um2 = (phi * ledger.ez * m2 + ledger.uw2_norm) / p
    u2m2 = (phi * (2.0 * ledger.ez * um2 + ledger.ez2 * m2) + ledger.u2w2_norm) / p
    lead = ledger.i0_fpp + abs(ledger.f1_0)
    u2m3 = (
        phi * (lead * u2m1 + 2.0 * ledger.i1_fpp * um1 + ledger.i2_fpp * m1)
        + phi * ledger.f0 * u2m2
        + ledger.u2w1pp_norm
    )
    u2m4 = (
        phi * (lead * u2m2 + 2.0 * ledger.i1_fpp * um2 + ledger.i2_fpp * m2)
        + phi * ledger.f0 * u2m3
        + ledger.u2w2pp_norm
    )
    return BoundReport(
        m1_norm=m1, um1_norm=um1, u2m1_norm=u2m1,
        m2_norm=m2, um2_norm=um2, u2m2_norm=u2m2,
        u2m3_norm=u2m3, u2m4_norm=u2m4, um3_norm=u2m4,
    )


def ruin_bound_report(model: RiskModel) -> tuple[NormLedger, BoundReport]:
    """Ledger plus fully chained bound report for a risk model."""
    ledger = ruin_w_functions(model)
    return ledger, chain_bounds(ledger, model.phi)
