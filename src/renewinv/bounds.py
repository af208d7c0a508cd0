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
f'(0) are closed forms; the integrals of f'' are taken by parts, so each
gamma shape takes one kernel value and one upper incomplete gamma
(:func:`_component_i_fpp`).  The eight sup norms are certified enclosures
(:func:`_sup_enclosures`): each row is a sum over the mixture's components
of pieces that are monotone between closed-form breakpoints, so the values
at the ends of a cell bound the row on the whole cell.  A cell whose bound
is too far above the samples is cut into n equal parts: its excess over
its end samples is first order in its width, so n is set by that excess
over the room left below the tolerance, n = clamp(ceil(2 excess / room),
2, 256), and the table models need one such round.  A round forms
c u^j once per distinct (j, c), from u and one shared u * u; it skips
the flagging arithmetic of a row whose largest cell bound is within the
tolerance, and stops before the cut bookkeeping when no row flags a
cell.  Both skips leave out only work that would flag or add nothing, so
the entries keep their bits; a NaN bound is not within the tolerance, so
a row with a NaN cell still has its other cells cut.  Each entry is at
least its row's sup, up to the rounding of the special functions (the
gamma kernel's is within 3e-14 relative near its peak for shapes up to
4000, see ``specfun._gamma_kernel``), and at most ``_SUP_RTOL`` = 1e-3
relative above it, so a narrow peak cannot be stepped over.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import AdmissibilityError, DomainError
from .ruin import RiskModel
from .specfun import _gamma_kernel, _real_point, _require_positive
from .specfun import reg_inc_gamma_upper
from .transforms import GammaMixture

_SUP_RTOL = 1e-3


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
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            if name == "f1_0":  # the last field, and the one signed entry
                if not math.isfinite(value):
                    raise DomainError(f"ledger entry f1_0 must be finite, got {value}")
            elif not math.isfinite(value) or value < 0:
                raise DomainError(f"ledger entry {name} must be finite and >= 0, got {value}")
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

        C / t^2 with C fixed by the chained norms, for t taken as a float;
        a non-finite t raises rather than report the limit 0 as a bound, and
        so does a t small enough that C / t^2 is past the floats.
        """
        t = _require_positive(t)
        coeff = self.m2_norm / 8.0 + self.um3_norm / 6.0 + 9.0 * self.u2m4_norm / 16.0
        # t * t keeps all 53 bits down to t ~ 1.5e-154; below, it is subnormal or 0
        bound = coeff / (t * t) if t * t >= sys.float_info.min else coeff / t / t
        if not math.isfinite(bound):
            raise DomainError(f"error bound C / t^2 with C = {coeff} overflows at t = {t}")
        return bound


def _require_admissible(mixture: GammaMixture) -> None:
    if mixture.min_alpha < 1.0:
        raise AdmissibilityError(
            f"error bounds require every gamma shape >= 1, got min alpha {mixture.min_alpha}"
        )


def _component_pieces(mixture: GammaMixture, kappa: float, u: np.ndarray) -> np.ndarray:
    """The ledger's monotone pieces of every component at the points ``u``.

    An array of shape (4, components, points): for component i, with
    weight p_i and x = beta_i u, the rows are p_i times S_i(u), the
    survival; d_i(u) - kappa S_i(u), d_i the density; u^2 F_i''(u) =
    u d_i(u) (alpha_i - 1 - x); and u^2 F_i'''(u) = d_i(u) ((alpha_i - 1)
    (alpha_i - 2) - 2 (alpha_i - 1) x + x^2).  Exact at u = 0.
    """
    out = np.empty((4, len(mixture.components), u.size))
    for i, (p, alpha, beta) in enumerate(mixture.components):
        x = beta * u
        # a density past the floats is inf, and NormLedger refuses an entry that is not finite
        with np.errstate(over="ignore"):
            dens = beta * _gamma_kernel(alpha, alpha - 1.0, x)
        surv = reg_inc_gamma_upper(alpha, x)
        out[0, i] = p * surv
        out[1, i] = p * (dens - kappa * surv)
        out[2, i] = p * u * dens * (alpha - 1.0 - x)
        # where dens has underflowed to 0, x * x may overflow, and 0 * inf is nan
        x = np.where(dens > 0.0, x, 0.0)
        out[3, i] = p * dens * ((alpha - 1.0) * (alpha - 2.0) - 2.0 * (alpha - 1.0) * x + x * x)
    return out


def _breakpoints(mixture: GammaMixture, kappa: float) -> list[float]:
    """Every u > 0 where a piece of :func:`_component_pieces` can turn.

    With x = beta u: S has none; d - kappa S, whose derivative is
    d ((alpha - 1)/u - beta + kappa), turns only at u = (alpha - 1)/(beta -
    kappa), and only when beta > kappa; u^2 F'', whose x-derivative is
    x^(alpha-1) e^(-x) (x^2 - 2 alpha x + alpha (alpha - 1)) / Gamma(alpha),
    turns at x = alpha -+ sqrt(alpha); u^2 F''', whose x-derivative is a
    positive multiple of -(x - (alpha - 1)) (x^2 - 2 alpha x + (alpha - 1)
    (alpha - 2)), turns at x = alpha - 1 and x = alpha -+ sqrt(3 alpha - 2).
    """
    points = []
    for _, alpha, beta in mixture.components:
        root2, root3 = math.sqrt(alpha), math.sqrt(3.0 * alpha - 2.0)
        for x in (alpha - root2, alpha + root2, alpha - 1.0, alpha - root3, alpha + root3):
            points.append(x / beta)
        if beta > kappa:
            points.append((alpha - 1.0) / (beta - kappa))
    return [point for point in points if point > 0.0]


def _sup_enclosures(mixture: GammaMixture, kappa: float, rows) -> list[float]:
    """A certified upper bound of sup |row| on [0, inf) for every row.

    Each row is a triple (k, j, c) and stands for c u^j sum_i P_ki(u),
    where P_ki is row k of :func:`_component_pieces`, j is 0, 1 or 2 and
    c >= 0.  Every piece is monotone between consecutive
    :func:`_breakpoints`, so:

    - Cells.  [0, E] is cut into 256 uniform cells plus every breakpoint,
      where E = max(2 max breakpoint, max_i (alpha_i + 6)/beta_i).  On a
      cell [a, b] every piece lies between its values at a and b; with L
      and H the sums over i of the pieces' smaller and larger end values,
      |c u^j sum_i P_ki(u)| <= c b^j max(|L|, |H|) for u in [a, b].
    - Tail.  Past E, every |u^j P_ki| is nonincreasing: u^j d_i from x =
      alpha_i - 1 + j; u^j S_i from there too, as S_i(u) <= u d_i(u) /
      (x - alpha_i + 1) for alpha_i >= 1; |u^2 F_i''| from x = alpha_i +
      sqrt(alpha_i) and |u^2 F_i'''| from x = alpha_i + sqrt(3 alpha_i - 2).
      So, with |d_i - kappa S_i| <= d_i + kappa S_i,
      |c u^j sum_i P_ki(u)| <= c E^j sum_i |P_ki(E)| for u >= E, where
      |P_1i(E)| reads p_i (d_i(E) + kappa S_i(E)).
    - Refinement.  A cell whose bound for some row exceeds (1 +
      ``_SUP_RTOL``) times the largest |row| sampled at the points is cut
      into n equal cells, until no cell is, or no cut falls strictly inside
      its cell.  The bound exceeds the cell's larger weighted end sample by
      an excess e that is first order in the cell's width, as the pieces'
      end values differ by their slope times the width; cutting into n
      leaves about e/n to each part.  So n = clamp(ceil(2 e / s), 2, 256),
      with s the room (1 + ``_SUP_RTOL``) times the best sample minus that
      end sample, the factor 2 covering what the linear estimate misses;
      the largest n over the rows is taken.  A tail bound that exceeds the
      tolerance moves E to 2E, past which the pieces stay monotone: where
      d_i and kappa S_i nearly cancel, as for exponential claims at phi
      near 1, the triangle bound at the first E can exceed the sup.  Each
      round makes one :func:`_component_pieces` call, shared by all rows.
      Any subdivision leaves every cell's bound valid, so the cut count
      only decides how soon the rounds stop.
    - Skips.  Each round forms c u^j at the cells' right ends and at the
      points once per distinct (j, c), and the products (c u^j) times the
      envelope and the samples in the order a row would form them, so each
      bound keeps its bits.  u^0 is the scalar 1 and u^2 one shared u * u,
      which is what numpy's ``u**2`` computes, with no ``**`` call.  A row
      whose largest cell bound is <= its tolerance has no cell above it,
      and skips the flagging arithmetic, which would flag nothing.  The test asks for <=, not for "not >": a
      NaN bound fails it, so a row with a NaN cell still takes the
      flagging arithmetic, which cuts its other cells above the tolerance
      (the NaN cell compares false and stays uncut).  A round that flags
      no cell and not the tail returns before the cut bookkeeping, which
      would add no point; the certifying round of the table models is such
      a round.

    Each result is the largest bound over the final cells and the tail:
    at least the row's sup, up to the rounding of the pieces, and at most
    (1 + ``_SUP_RTOL``) times its largest sampled value.
    """
    breaks = _breakpoints(mixture, kappa)
    end = max([2.0 * point for point in breaks] + [(a + 6.0) / b for _, a, b in mixture.components])
    pts = np.sort(np.concatenate([np.linspace(0.0, end, 257), breaks]))
    vals = _component_pieces(mixture, kappa, pts)
    while True:
        sampled = np.abs(vals.sum(axis=1))
        lo, hi = vals[..., :-1], vals[..., 1:]
        low, high = np.minimum(lo, hi).sum(axis=1), np.maximum(lo, hi).sum(axis=1)
        at_end = np.abs(vals[..., -1])
        at_end[1] = vals[1, :, -1] + 2.0 * kappa * vals[0, :, -1]
        # per piece kind, max(|L|, |H|) of every cell, then the tail's sum at
        # E; each is weighted by c u^j at the cell's right end, the tail's at E
        envelope = np.column_stack([np.maximum(np.abs(low), np.abs(high)), at_end.sum(axis=1)])
        ends = np.append(pts[1:], pts[-1])
        # c u^j at the cells' right ends and at the points, once per distinct (j, c),
        # from u^0 = 1, u and one shared u * u, the bits of numpy's u**2
        powers = (1.0, 1.0), (ends, pts), (ends * ends, pts * pts)
        scales = {(j, c): (c * powers[j][0], c * powers[j][1]) for j, c in {(j, c) for _, j, c in rows}}
        parts = np.zeros(pts.size)
        found = []
        for k, j, c in rows:
            bound = scales[j, c][0] * envelope[k]
            weighted = scales[j, c][1] * sampled[k]
            allowed = (1.0 + _SUP_RTOL) * weighted.max()
            found.append(float(bound.max()))
            # no cell above the tolerance; a NaN bound fails this test (Skips)
            if found[-1] <= allowed:
                continue
            flagged = np.flatnonzero(bound > allowed)
            near = np.maximum(weighted, np.append(weighted[1:], 0.0))[flagged]
            excess, room = bound[flagged] - near, allowed - near
            # a flagged cell has excess > room >= 0, so the count is at least
            # 3; the floor excess/128 guards the division and caps it at 256
            # (fmax leaves a cell whose bound is infinite uncut)
            parts[flagged] = np.fmax(
                parts[flagged], np.ceil(2.0 * excess / np.maximum(room, excess / 128.0))
            )
        if not parts.any():
            return found
        cells = np.flatnonzero(parts[:-1])
        count = parts[cells].astype(np.intp)
        inner = count - 1
        # point m of the inner points of cell i is a_i + (b_i - a_i) m / n_i
        cell = np.repeat(cells, inner)
        step = np.arange(inner.sum()) - np.repeat(np.cumsum(inner) - inner, inner) + 1
        a, b = pts[cell], pts[cell + 1]
        new = a + (b - a) * (step / np.repeat(count, inner))
        new = new[(new > a) & (new < b)]
        if parts[-1]:
            new = np.append(new, 2.0 * pts[-1])
        if new.size == 0:
            return found
        pts = np.concatenate([pts, new])
        order = np.argsort(pts, kind="stable")
        pts = pts[order]
        vals = np.concatenate([vals, _component_pieces(mixture, kappa, new)], axis=2)[..., order]


def ruin_w_functions(model: RiskModel) -> NormLedger:
    """Complete norm ledger for a risk model's renewal ingredients.

    For ruin, w1(u) = -phi (1-phi) survival(u) / mean,
    w2(u) = (phi/mean) w1(u) + phi (1-phi) density(u) / mean and
    u^2 w1''(u) = phi (1-phi) u^2 F_X''(u) / mean.  Their seven sup norms
    and that of u^2 F_X''' are the eight rows of one certified search
    (:func:`_sup_enclosures`).  The norm of u^2 w2'' uses the triangle
    bound through ||u^2 w1''|| and ||u^2 F_X'''||.
    """
    mix, phi = model.claims, model.phi
    _require_admissible(mix)
    mu = mix.mean
    c1 = phi * (1.0 - phi) / mu
    kappa = phi / mu
    rows = [(0, j, c1) for j in range(3)] + [(1, j, c1) for j in range(3)]
    rows += [(2, 0, c1), (3, 0, 1.0)]
    # first, so that a moment no float can hold refuses before the search
    ez, ez2 = equilibrium_moments(mix)
    w1_0, w1_1, w1_2, w2_0, w2_1, w2_2, u2w1pp, u2_d3 = _sup_enclosures(mix, kappa, rows)
    u2w2pp = kappa * u2w1pp + c1 * u2_d3
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

    F'' = f', with f the gamma density, changes sign only at the mode
    c = alpha - 1, and f(0) = 0 for alpha > 1.  Integrating each side of c
    by parts, int_0^c u^i f' = c^i f(c) - i int_0^c u^(i-1) f and
    int_c^inf u^i f' = -c^i f(c) - i int_c^inf u^(i-1) f, so with u f_alpha
    = alpha f_{alpha+1}, Q0 = Q(alpha, c) and Q1 = Q(alpha + 1, c):

        I0 = 2 f(c),  I1 = 2 c f(c) - 1 + 2 Q0,  I2 = 2 c^2 f(c) + 2 alpha (2 Q1 - 1).

    These are the forms 1 - 2 P with P = 1 - Q, and as well conditioned.
    One kernel value f(c) and one upper incomplete gamma Q1 give all three,
    as Q0 = Q1 - (c / alpha) f(c) (DLMF 8.8.6); a shape whose alpha + 1 is
    n or n + 1/2 up to 20.5 takes Q1 as a finite sum, with no series (see
    :func:`~renewinv.specfun.reg_inc_gamma_upper`).  Exponential claims
    (alpha = 1, where f(0) = 1) read (1, 1, 2) directly.
    """
    if alpha == 1.0:
        return 1.0, 1.0, 2.0
    c = alpha - 1.0
    f_c = float(_gamma_kernel(alpha, c, c))
    q1 = reg_inc_gamma_upper(alpha + 1.0, c)
    q0 = q1 - c / alpha * f_c
    return 2.0 * f_c, 2.0 * c * f_c - 1.0 + 2.0 * q0, 2.0 * c * c * f_c + 2.0 * alpha * (2.0 * q1 - 1.0)


def f_second_integrals(mixture: GammaMixture) -> tuple[float, float, float, float, float]:
    """(I0, I1, I2 of f'', f(0), f'(0)) for the equilibrium density f.

    f'' = -F_X''/mean, so each gamma component with rate beta contributes
    beta**(1-i) times its unit-rate integral, which takes one kernel value
    and one upper incomplete gamma per shape, Q1 = Q(alpha + 1, alpha - 1),
    with Q(alpha, alpha - 1) = Q1 - (alpha - 1)**alpha e^(1 - alpha) /
    Gamma(alpha + 1) (DLMF 8.8.6); none for exponential claims.
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
    phi = _real_point(phi, "defect phi")
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
