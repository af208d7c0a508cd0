import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_reference
from oracles import exact_nonruin_integer_gamma
from renewinv import (
    AdmissibilityError,
    approximate_nonruin,
    BoundReport,
    chain_bounds,
    Component,
    DomainError,
    exact_nonruin_exponential,
    GammaMixture,
    NormLedger,
    RiskModel,
    ruin_bound_report,
    ruin_w_functions,
)
from renewinv import bounds, specfun
from renewinv.bounds import _component_i_fpp, equilibrium_moments, f_second_integrals
from renewinv.specfun import _gamma_kernel


def component_i_fpp_upper(alpha, i):
    """Componentwise upper bound of int u^i |F_a''| du for a unit-rate gamma CDF.

    Bounds |alpha - 1 - u| by (alpha - 1) + u, which is tight at alpha = 1;
    the reference the exact split integrals are checked against.
    """
    if alpha == 1.0:
        return float(math.factorial(i))
    first = (alpha - 1.0) * math.exp(math.lgamma(alpha - 1.0 + i) - math.lgamma(alpha))
    return first + math.exp(math.lgamma(alpha + i) - math.lgamma(alpha))


def golden_max(fn, a, b, iters=60):
    """Largest |fn| seen by a golden-section search on [a, b], one point a call."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = abs(fn(c)), abs(fn(d))
    best = max(fc, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = abs(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = abs(fn(d))
        best = max(best, fc, fd)
    return best


REFERENCE_GRID_POINTS = 4096
REFERENCE_TAIL_RTOL = 1e-15


def decay_start(mixture, j):
    """Where u^j times every component's gamma tail has set in: max_i (alpha_i + j + 4)/beta_i."""
    return max((c.alpha + j + 4.0) / c.beta for c in mixture.components)


def sup_norm_reference(fn, decay_start):
    """The loop-based sup-norm search of one function, one scalar ``fn`` call per point.

    4096-point grids over [0, u_hi], u_hi doubling from the least power of
    two >= max(2 decay_start, 4) until the endpoint value is 1e-15 of the
    grid maximum or u_hi passes 1e9; then a golden-section search in the
    brackets of the four largest interior local maxima and in the first
    cell.  A sample maximum, so a lower estimate of the sup.
    """
    u_hi = 4.0
    while u_hi < 2.0 * decay_start:
        u_hi *= 2.0
    while True:
        grid = np.linspace(0.0, u_hi, REFERENCE_GRID_POINTS)
        vals = np.array([abs(fn(u)) for u in grid])
        peak = float(vals.max())
        if vals[-1] <= REFERENCE_TAIL_RTOL * max(peak, 1e-300) or u_hi > 1e9:
            break
        u_hi *= 2.0
    interior = [
        i
        for i in range(1, REFERENCE_GRID_POINTS - 1)
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
    ]
    interior.sort(key=lambda i: -vals[i])
    best = peak
    for i in interior[:4]:
        best = max(best, golden_max(fn, grid[i - 1], grid[i + 1]))
    best = max(best, golden_max(fn, grid[0], grid[1]))
    return best


def u2_cdf_derivs(mixture, u):
    """(u^2 F'', u^2 F''') of the claim law, summed over components the way the ledger's pieces are.

    Per component, with x = beta u and d the density: u d (alpha - 1 - x)
    and d ((alpha - 1)(alpha - 2) - 2 (alpha - 1) x + x^2).
    """
    d2 = d3 = 0.0
    for p, alpha, beta in mixture.components:
        x = beta * u
        dens = beta * _gamma_kernel(alpha, alpha - 1.0, x)
        d2 = d2 + p * u * dens * (alpha - 1.0 - x)
        d3 = d3 + p * dens * ((alpha - 1.0) * (alpha - 2.0) - 2.0 * (alpha - 1.0) * x + x * x)
    return d2, d3


def claim_density(mixture, u):
    """The claim density at an array of points u >= 0, ``scalar_reference.density`` over arrays.

    Each component adds p beta exp(-x + (alpha - 1) log x - lgamma(alpha)),
    x = beta u, written out here so that the reference shares no code with
    the ledger's ``_gamma_kernel``; at u = 0 an alpha = 1 component adds
    p beta and a larger shape 0.  In doubles that exponent errs by about
    |alpha log x| eps, 3e-12 relative at alpha = 1457, so from alpha = 20
    it is taken in long double (64-bit mantissa on x86-64 Linux), with
    lgamma(alpha) from mpmath.
    """
    total = np.zeros(np.shape(u))
    for p, alpha, beta in mixture.components:
        x = beta * u
        with np.errstate(divide="ignore", invalid="ignore"):
            if alpha < 20.0:
                kernel = np.exp(-x + (alpha - 1.0) * np.log(x) - math.lgamma(alpha))
            else:
                import mpmath

                with mpmath.workdps(30):
                    lgamma = np.longdouble(mpmath.nstr(mpmath.loggamma(alpha), 25))
                xl = np.asarray(x, dtype=np.longdouble)
                log_kernel = -xl + (np.longdouble(alpha) - 1) * np.log(xl) - lgamma
                kernel = np.exp(log_kernel).astype(float)
        total += p * beta * np.where(x == 0.0, float(alpha == 1.0), kernel)
    return total


def dense_ledger_maxima(mixture, phi, u):
    """Largest |row| over the points ``u`` for each sup norm of the ledger.

    The w rows read the mixture's own survival and :func:`claim_density`; u^2 w2'' is
    c1 (kappa u^2 F'' + u^2 F'''), whose sup the ledger's triangle bound
    must cover.
    """
    mu = mixture.mean
    c1, kappa = phi * (1.0 - phi) / mu, phi / mu
    surv, dens = mixture.survival(u), claim_density(mixture, u)
    d2, d3 = u2_cdf_derivs(mixture, u)
    w2 = dens - kappa * surv
    rows = {
        "w1_norm": c1 * surv, "uw1_norm": c1 * u * surv, "u2w1_norm": c1 * u * u * surv,
        "w2_norm": c1 * w2, "uw2_norm": c1 * u * w2, "u2w2_norm": c1 * u * u * w2,
        "u2w1pp_norm": c1 * d2, "u2w2pp_norm": c1 * (kappa * d2 + d3),
    }
    return {name: float(np.abs(row).max()) for name, row in rows.items()}


def seeded_admissible_mixture(seed):
    """1-3 components, shapes in [1, 4], rates in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n))
    return GammaMixture(tuple(
        Component(float(p), float(a), float(b))
        for p, a, b in zip(weights, rng.uniform(1.0, 4.0, n), rng.uniform(0.5, 2.0, n))
    ))


@st.composite
def admissible_mixtures(draw):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    total = math.fsum(raw)
    return GammaMixture(tuple(
        Component(w / total, draw(st.floats(1.0, 4.0)), draw(st.floats(0.5, 2.0))) for w in raw
    ))


LEDGER_MIXTURES = {
    "exponential": GammaMixture.exponential(),
    "gamma_3_2": GammaMixture((Component(1.0, 1.5, 1.0),)),
    "mixture": GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0))),
    # seeds 11, 12, 13 draw 1, 2 and 3 components
    **{f"seed{seed}": seeded_admissible_mixture(seed) for seed in (11, 12, 13)},
}


INTEGER_SHAPE_MIXTURES = {
    "erlang_2_2": GammaMixture((Component(1.0, 2.0, 2.0),)),
    "half_exp_half_erlang_2_1": GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 2.0, 1.0))),
    "erlang_4_4_exp_0_2": GammaMixture((Component(0.9, 4.0, 4.0), Component(0.1, 1.0, 0.2))),
}


@functools.lru_cache(maxsize=None)
def exp_ledger(phi=0.9):
    return ruin_w_functions(RiskModel(GammaMixture.exponential(), phi))


class TestWFunctions:
    def test_exponential_closed_form_norms(self):
        # unit exponential claims at phi = 0.9: w1 = -c1 e^-u and
        # w2 = c1 (1 - phi) e^-u with c1 = phi (1 - phi), whose u^j-weighted
        # sups sit at u = j; |u^2 w1''| = c1 u^2 e^-u, |u^2 F'''| = u^2 e^-u,
        # and the ledger bounds ||u^2 w2''|| by the triangle inequality.  Each
        # entry encloses its sup from above, within the enclosure's tolerance
        ledger = exp_ledger(0.9)
        c1, phi = 0.9 * (1.0 - 0.9), 0.9
        peak = [1.0, 1.0 / math.e, 4.0 * math.exp(-2.0)]
        exact = {
            "w1_norm": c1 * peak[0], "uw1_norm": c1 * peak[1], "u2w1_norm": c1 * peak[2],
            "w2_norm": c1 * (1.0 - phi) * peak[0], "uw2_norm": c1 * (1.0 - phi) * peak[1],
            "u2w2_norm": c1 * (1.0 - phi) * peak[2],
            "u2w1pp_norm": c1 * peak[2], "u2w2pp_norm": phi * c1 * peak[2] + c1 * peak[2],
        }
        for name, value in exact.items():
            entry = getattr(ledger, name)
            assert value <= entry <= value * (1.0 + bounds._SUP_RTOL), name

    def test_admissibility(self):
        mix = GammaMixture((Component(1.0, 0.5, 1.0),))
        with pytest.raises(AdmissibilityError):
            ruin_w_functions(RiskModel(mix, 0.9))

    def test_moment_entries_match_direct_ops(self, half_mixture):
        ledger = ruin_w_functions(RiskModel(half_mixture, 0.9))
        ez, ez2 = equilibrium_moments(half_mixture)
        i0, i1, i2, f0, f1_0 = f_second_integrals(half_mixture)
        assert (ledger.ez, ledger.ez2) == (ez, ez2)
        assert (ledger.i0_fpp, ledger.i1_fpp, ledger.i2_fpp) == (i0, i1, i2)
        assert (ledger.f0, ledger.f1_0) == (f0, f1_0)


class TestSupNormKernel:
    @pytest.mark.parametrize("name", LEDGER_MIXTURES)
    def test_ledger_matches_loop_reference(self, name):
        # the reference runs the scalar claim law, one float at a time
        # through the scalar incomplete-gamma loops, under the loop search:
        # a sample maximum, which no entry may undershoot beyond rounding
        # and none may exceed by more than the enclosure's tolerance
        mix, phi = LEDGER_MIXTURES[name], 0.9
        mu = mix.mean
        c1, kappa = phi * (1.0 - phi) / mu, phi / mu

        @functools.lru_cache(maxsize=None)
        def law(u):
            return scalar_reference.survival(mix, u), scalar_reference.density(mix, u)

        def u2_cdf_deriv(u, order):
            total = 0.0
            for p, alpha, beta in mix.components:
                x = beta * u
                if x == 0.0:
                    continue
                if order == 2:
                    kernel = math.exp(-x + alpha * math.log(x) - math.lgamma(alpha))
                    total += p * kernel * (alpha - 1.0 - x)
                else:
                    kernel = math.exp(-x + (alpha - 1.0) * math.log(x) - math.lgamma(alpha))
                    poly = (alpha - 1.0) * (alpha - 2.0) - 2.0 * (alpha - 1.0) * x + x * x
                    total += p * beta * kernel * poly
            return total

        rows = {
            **{
                field: (lambda u, j=j: c1 * u**j * law(u)[0], j)
                for j, field in enumerate(("w1_norm", "uw1_norm", "u2w1_norm"))
            },
            **{
                field: (lambda u, j=j: c1 * u**j * (law(u)[1] - kappa * law(u)[0]), j)
                for j, field in enumerate(("w2_norm", "uw2_norm", "u2w2_norm"))
            },
            "u2w1pp_norm": (lambda u: c1 * u2_cdf_deriv(u, 2), 2),
            "u2_cdf_deriv3": (lambda u: u2_cdf_deriv(u, 3), 2),
        }
        reference = {
            field: sup_norm_reference(fn, decay_start(mix, j)) for field, (fn, j) in rows.items()
        }
        reference["u2w2pp_norm"] = (
            kappa * reference["u2w1pp_norm"] + c1 * reference.pop("u2_cdf_deriv3")
        )
        ledger = ruin_w_functions(RiskModel(mix, phi))
        for field, ref in reference.items():
            entry = getattr(ledger, field)
            assert ref * (1.0 - 1e-12) <= entry <= ref * (1.0 + bounds._SUP_RTOL), field

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    def test_piece_evaluations_per_report_are_capped(self, monkeypatch, phi):
        # the first cells and every refinement round take one evaluation of
        # the pieces, shared by all eight rows; a flagged cell is cut by its
        # own excess, so these models need 2 evaluations and 943 to 1,465
        # points
        sizes = []
        pieces = bounds._component_pieces

        def counted(mixture, kappa, u):
            sizes.append(u.size)
            return pieces(mixture, kappa, u)

        monkeypatch.setattr(bounds, "_component_pieces", counted)
        for name, mix in LEDGER_MIXTURES.items():
            sizes.clear()
            ruin_bound_report(RiskModel(mix, phi))
            assert len(sizes) <= 2 and sum(sizes) <= 1_600, (name, sizes)

    def test_underflowed_density_gives_a_zero_piece(self):
        # where Exp(1e100)'s density has underflowed to 0, x * x has overflowed,
        # and u^2 F''' formed as dens * (... + x * x) read 0 * inf = nan
        mix = GammaMixture((Component(0.5, 1.0, 1e-100), Component(0.5, 1.0, 1e100)))
        ledger, report = ruin_bound_report(RiskModel(mix, 0.9))
        assert all(math.isfinite(v) for v in dataclasses.astuple(ledger))
        assert ledger.u2w2pp_norm > 0
        assert 0 < report.total_bound(1.0) < math.inf

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    def test_narrow_spike_is_enclosed(self, phi):
        # the Exp(1e-3) component stretches [0, E] to 7000, and 256 uniform
        # cells of width 27 would step over the Gamma(4000) spike at u ~ 42.5,
        # of width 0.67; its breakpoints and the refinement must catch it
        mix = GammaMixture((Component(0.5, 4000.0, 4000.0 / 42.46), Component(0.5, 1.0, 1e-3)))
        ledger = ruin_w_functions(RiskModel(mix, phi))
        u = np.concatenate([np.linspace(30.0, 55.0, 200_001), np.linspace(0.0, 2e4, 200_001)])
        for field, dense in dense_ledger_maxima(mix, phi, u).items():
            entry = getattr(ledger, field)
            assert entry >= dense * (1.0 - 1e-12), f"{field} {entry:.5g} < dense max {dense:.5g}"

    @settings(max_examples=30, deadline=None)
    @given(
        components=st.lists(
            st.tuples(st.floats(0.05, 1.0), st.floats(1.0, 4000.0), st.floats(-3.0, 3.0)),
            min_size=1, max_size=3,
        ),
        phi=st.floats(0.05, 0.99),
    )
    @example(components=[(0.5, 4000.0, math.log10(4000.0 / 42.46)), (0.5, 1.0, -3.0)], phi=0.9)
    # large shapes, where entries fell 1.2e-12 to 3.0e-12 relative short of
    # the dense maxima while the gamma kernel and claim_density formed their
    # exponents plainly
    @example(components=[(1.0, 3532.8665488191878, 0.0)], phi=0.5)
    @example(components=[(1.0, 2498.53125, 0.0)], phi=0.5)
    @example(components=[(1.0, 1456.640625, 0.0)], phi=0.9140196691920436)
    def test_entries_dominate_dense_samples(self, components, phi):
        # shapes up to 4000 and rates 1e-3 to 1e3 mix narrow spikes with
        # long tails; each row is sampled densely around every component's
        # bulk and geometrically out to 1e7
        total = math.fsum(w for w, _, _ in components)
        mix = GammaMixture(tuple(
            Component(w / total, alpha, 10.0**rate) for w, alpha, rate in components
        ))
        ledger = ruin_w_functions(RiskModel(mix, phi))
        u = np.concatenate([np.geomspace(1e-9, 1e7, 20_001), [0.0]] + [
            np.linspace(max(alpha - 12.0 * math.sqrt(alpha) - 5.0, 0.0) / beta,
                        (alpha + 12.0 * math.sqrt(alpha) + 40.0) / beta, 20_001)
            for _, alpha, beta in mix.components
        ])
        for field, dense in dense_ledger_maxima(mix, phi, u).items():
            entry = getattr(ledger, field)
            assert entry >= dense * (1.0 - 1e-12), f"{field} {entry:.5g} < dense max {dense:.5g}"

    @pytest.mark.parametrize("name", LEDGER_MIXTURES)
    def test_claim_density_matches_scalar_reference(self, name):
        # the dense samples' density is the scalar loop's, point for point
        mix = LEDGER_MIXTURES[name]
        u = np.concatenate([[0.0, 1e-12], np.linspace(0.01, 60.0, 300), [1e3]])
        scalar = [scalar_reference.density(mix, float(v)) for v in u]
        np.testing.assert_allclose(claim_density(mix, u), scalar, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.7, 140.0])
    def test_derivative_terms_match_density_differences(self, alpha):
        # the u^2 F'' and u^2 F''' pieces are u^2 f' and u^2 f'' by central
        # differences of the density, a route independent of the pieces
        mix = GammaMixture((Component(1.0, alpha, 2.0),))
        u = np.linspace(0.25, 4.0 * (alpha + 4.0) / 2.0, 200)
        h = 1e-4 * u
        f_lo, f_mid, f_hi = (claim_density(mix, x) for x in (u - h, u, u + h))
        pieces = bounds._component_pieces(mix, 0.0, u)
        d2, d3 = pieces[2, 0], pieces[3, 0]
        first = u**2 * (f_hi - f_lo) / (2.0 * h)
        second = u**2 * (f_hi - 2.0 * f_mid + f_lo) / h**2
        np.testing.assert_allclose(d2, first, rtol=0, atol=1e-6 * np.abs(d2).max())
        np.testing.assert_allclose(d3, second, rtol=0, atol=1e-4 * np.abs(d3).max())

    @pytest.mark.parametrize("row", [2, 3], ids=["_u2_cdf_deriv2", "_u2_cdf_deriv3"])
    def test_derivative_terms_take_arrays(self, row):
        # the u^2 F'' and u^2 F''' terms, summed over the components, are the
        # same whether the points come as one array or one at a time
        u = np.linspace(0.0, 30.0, 301)
        for mix in LEDGER_MIXTURES.values():
            term = bounds._component_pieces(mix, 0.0, u)[row].sum(axis=0)
            scalar = np.array([
                bounds._component_pieces(mix, 0.0, np.array([v]))[row].sum() for v in u
            ])
            np.testing.assert_allclose(term, scalar, rtol=1e-14, atol=1e-300)

    def test_pieces_depend_on_each_point_alone(self):
        # a refinement round merges the pieces of its new points with those
        # of earlier rounds, so a point's pieces must not depend on the rest
        # of the array it is evaluated in
        u = np.linspace(0.0, 30.0, 301)
        for mix in LEDGER_MIXTURES.values():
            together = bounds._component_pieces(mix, 0.3, u)
            alone = [bounds._component_pieces(mix, 0.3, u[k:k + 1]) for k in range(u.size)]
            assert together.tobytes() == np.concatenate(alone, axis=2).tobytes()

    @settings(max_examples=15, deadline=None)
    @given(mix=admissible_mixtures(), phi=st.floats(0.5, 0.95))
    def test_bound_covers_gap_between_rates(self, mix, phi):
        # sup |M2_5 - M2_40| <= bound(5) + bound(40) must hold if the bound
        # holds at both rates; it needs neither range nor monotonicity
        model = RiskModel(mix, phi)
        _, report = ruin_bound_report(model)
        coarse = approximate_nonruin(model, 5.0, 40.0).lattice.values
        fine = approximate_nonruin(model, 40.0, 40.0).lattice.values[::8]
        assert coarse.shape == fine.shape
        gap = float(np.max(np.abs(coarse - fine)))
        assert gap <= report.total_bound(5.0) + report.total_bound(40.0)


def sup_enclosures_loop_reference(mixture, kappa, rows):
    """``bounds._sup_enclosures`` as it was before it skipped rows and rounds that cut nothing.

    Verbatim but for the ``bounds.`` prefixes: every round forms every
    row's weights and flagging arithmetic, and the cut bookkeeping runs
    even when no cell is flagged.  The reference the skipping search must
    equal bit for bit.
    """
    breaks = bounds._breakpoints(mixture, kappa)
    end = max([2.0 * point for point in breaks] + [(a + 6.0) / b for _, a, b in mixture.components])
    pts = np.sort(np.concatenate([np.linspace(0.0, end, 257), breaks]))
    vals = bounds._component_pieces(mixture, kappa, pts)
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
        parts = np.zeros(pts.size)
        found = []
        for k, j, c in rows:
            bound = c * ends**j * envelope[k]
            weighted = c * pts**j * sampled[k]
            allowed = (1.0 + bounds._SUP_RTOL) * weighted.max()
            flagged = np.flatnonzero(bound > allowed)
            near = np.maximum(weighted, np.append(weighted[1:], 0.0))[flagged]
            excess, room = bound[flagged] - near, allowed - near
            # a flagged cell has excess > room >= 0, so the count is at least
            # 3; the floor excess/128 guards the division and caps it at 256
            # (fmax leaves a cell whose bound is infinite uncut)
            parts[flagged] = np.fmax(
                parts[flagged], np.ceil(2.0 * excess / np.maximum(room, excess / 128.0))
            )
            found.append(float(bound.max()))
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
        vals = np.concatenate([vals, bounds._component_pieces(mixture, kappa, new)], axis=2)[..., order]


def ledger_search(mixture, phi):
    """(kappa, rows) of the ledger's one sup search, as ``ruin_w_functions`` builds them."""
    mu = mixture.mean
    c1 = phi * (1.0 - phi) / mu
    rows = [(0, j, c1) for j in range(3)] + [(1, j, c1) for j in range(3)]
    return phi / mu, rows + [(2, 0, c1), (3, 0, 1.0)]


NARROW_SPIKE = GammaMixture((Component(0.5, 4000.0, 94.20631182289213), Component(0.5, 1.0, 1e-3)))


class NumpyFlatnonzeroSpy:
    """numpy, recording of each ``flatnonzero`` call whether its argument was
    a mask (the flagging arithmetic) and how many indices it returned."""

    numpy = np  # bound here, so that the spy may stand in for this module's np too

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.numpy, name)

    def flatnonzero(self, a):
        out = self.numpy.flatnonzero(a)
        self.calls.append((a.dtype == bool, out.size))
        return out


class TestSupSearchSkips:
    # the search skips the flagging arithmetic of a row with no cell above the
    # tolerance, and the cut bookkeeping of a round that flags nothing; the
    # loop reference runs both everywhere, and the two must agree bit for bit,
    # with the same evaluations of the pieces at the same sizes

    @staticmethod
    def same_as_reference(monkeypatch, mixture, kappa, rows, inject=None):
        sizes = []
        pieces = bounds._component_pieces

        def recorded(mixture, kappa, u):
            out = pieces(mixture, kappa, u)
            if inject is not None:
                inject(len(sizes), out)
            sizes.append(u.size)
            return out

        monkeypatch.setattr(bounds, "_component_pieces", recorded)
        found = bounds._sup_enclosures(mixture, kappa, rows)
        searched = sizes[:]
        sizes.clear()
        reference = sup_enclosures_loop_reference(mixture, kappa, rows)
        assert repr(found) == repr(reference)
        assert searched == sizes
        return found, searched

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("name", [*LEDGER_MIXTURES, "narrow_spike"])
    def test_ledger_search_equals_loop_reference(self, monkeypatch, name, phi):
        mix = NARROW_SPIKE if name == "narrow_spike" else LEDGER_MIXTURES[name]
        found, _ = self.same_as_reference(monkeypatch, mix, *ledger_search(mix, phi))
        ledger = ruin_w_functions(RiskModel(mix, phi))
        assert dataclasses.astuple(ledger)[:7] == tuple(found[:7])

    def test_tail_only_round_equals_loop_reference(self, monkeypatch):
        # Exp(1) at phi 0.999999: d and kappa S nearly cancel, and the third
        # round adds only the tail point 2E = 28
        mix = GammaMixture.exponential()
        _, sizes = self.same_as_reference(monkeypatch, mix, *ledger_search(mix, 0.999999))
        assert sizes == [259, 685, 1]

    @settings(max_examples=30, deadline=None)
    @given(mix=admissible_mixtures(), phi=st.sampled_from([0.5, 0.9]))
    def test_admissible_mixtures_equal_loop_reference(self, mix, phi):
        kappa, rows = ledger_search(mix, phi)
        found = bounds._sup_enclosures(mix, kappa, rows)
        assert repr(found) == repr(sup_enclosures_loop_reference(mix, kappa, rows))

    def test_infinite_piece_equals_loop_reference(self, monkeypatch):
        # an inf in the w2 pieces makes its rows' tolerance inf, so no cell
        # of theirs is above it; inf <= inf skips them
        def inf_at_middle(call, out):
            out[1, 0, out.shape[2] // 2] = np.inf

        mix = LEDGER_MIXTURES["mixture"]
        found, _ = self.same_as_reference(monkeypatch, mix, *ledger_search(mix, 0.9), inf_at_middle)
        assert math.isinf(found[3]) and all(math.isfinite(v) for v in found[:3] + found[6:])

    @pytest.mark.parametrize("name", ["exponential", "gamma_3_2", "mixture"])
    def test_nan_bound_still_cuts_its_other_cells(self, monkeypatch, name):
        # a NaN survival piece at E reaches the w2 rows only through their
        # tail bound, so their tolerance stays finite while their largest
        # cell bound is NaN; their other cells above the tolerance (u w2 and
        # u^2 w2 have 14 to 26 in the first round) must still be cut, which
        # a skip on `not top > allowed` would leave uncut
        def nan_at_end(call, out):
            if call == 0:
                out[0, 0, -1] = np.nan

        mix = LEDGER_MIXTURES[name]
        found, sizes = self.same_as_reference(monkeypatch, mix, *ledger_search(mix, 0.9), nan_at_end)
        assert [math.isnan(v) for v in found] == [True] * 6 + [False] * 2
        assert len(sizes) == 2

    @pytest.mark.parametrize("name", ["exponential", "gamma_3_2", "mixture"])
    def test_flagging_runs_only_for_rows_that_cut(self, monkeypatch, name):
        # flatnonzero of a mask is the first call of a row's flagging
        # arithmetic.  The search takes it only for rows with a cell above
        # the tolerance, which are the rows whose mask the loop reference
        # finds non-empty, and it makes none after the second evaluation of
        # the pieces: the certifying round flags nothing.  The reference
        # makes 18 calls a report, 8 rows and 1 cut count in each of 2 rounds
        mix = LEDGER_MIXTURES[name]
        kappa, rows = ledger_search(mix, 0.9)
        marks = []
        pieces = bounds._component_pieces

        def marked(mixture, kappa, u):
            marks.append(len(spy.calls))
            return pieces(mixture, kappa, u)

        monkeypatch.setattr(bounds, "_component_pieces", marked)
        spy = NumpyFlatnonzeroSpy()
        monkeypatch.setitem(sup_enclosures_loop_reference.__globals__, "np", spy)
        sup_enclosures_loop_reference(mix, kappa, rows)
        reference, first_round = spy.calls, marks[1]
        assert len(reference) == 18
        cutting = [size for is_mask, size in reference[:first_round] if is_mask and size]
        assert all(size == 0 for is_mask, size in reference[first_round:] if is_mask)
        marks.clear()
        spy = NumpyFlatnonzeroSpy()
        monkeypatch.setattr(bounds, "np", spy)
        ruin_bound_report(RiskModel(mix, 0.9))
        assert marks == [0, len(cutting) + 1]
        assert spy.calls == [(True, size) for size in cutting] + [(False, spy.calls[-1][1])]


HALF_INTEGER_SHAPE_MIXTURES = {
    "gamma_3_2": GammaMixture((Component(1.0, 1.5, 1.0),)),
    "table_mixture": GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0))),
    "gamma_2_5_2": GammaMixture((Component(1.0, 2.5, 2.0),)),
    "half_gamma_1_5_half_gamma_4_5_3": GammaMixture((Component(0.5, 1.5, 1.0), Component(0.5, 4.5, 3.0))),
}


class TestFiniteSumLedger:
    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("name", HALF_INTEGER_SHAPE_MIXTURES)
    def test_ledger_matches_recurrence_route(self, name, phi, monkeypatch):
        # shapes n and n + 1/2 take Q as a finite sum below x = 700; with the
        # sum's range emptied, Q runs through the series and the fraction as
        # before the sum, and every entry agrees to 1e-14 relative
        model = RiskModel(HALF_INTEGER_SHAPE_MIXTURES[name], phi)
        ledger = ruin_w_functions(model)
        monkeypatch.setattr(specfun, "_FINITE_SUM_MAX_X", 0.0)
        recurrences = ruin_w_functions(model)
        np.testing.assert_allclose(dataclasses.astuple(ledger), dataclasses.astuple(recurrences),
                                   rtol=1e-14, atol=0.0)


class TestEquilibriumMoments:
    def test_exponential(self, exp_mixture):
        ez, ez2 = equilibrium_moments(exp_mixture)
        assert ez == pytest.approx(1.0, rel=1e-14)
        assert ez2 == pytest.approx(2.0, rel=1e-14)

    def test_gamma_2_1(self):
        ez, ez2 = equilibrium_moments(GammaMixture((Component(1.0, 2.0, 1.0),)))
        assert ez == pytest.approx(1.5, rel=1e-14)
        assert ez2 == pytest.approx(4.0, rel=1e-14)

    def test_jensen(self, all_table_mixtures):
        for mix in all_table_mixtures.values():
            ez, ez2 = equilibrium_moments(mix)
            assert ez * ez <= ez2 * (1.0 + 1e-12)


def component_i_fpp_lower_reference(alpha):
    """``bounds._component_i_fpp`` as it was when it read the lower function.

    Verbatim but for the ``bounds.`` and ``specfun.`` prefixes: P1 = P(alpha +
    1, c) from ``reg_inc_gamma_lower``, P0 = P1 + (c / alpha) f(c) and the
    forms 1 - 2 P.  The reference the upper-function integrals must agree with.
    """
    if alpha == 1.0:
        return 1.0, 1.0, 2.0
    c = alpha - 1.0
    f_c = float(bounds._gamma_kernel(alpha, c, c))
    p1 = specfun.reg_inc_gamma_lower(alpha + 1.0, c)
    p0 = p1 + c / alpha * f_c
    return 2.0 * f_c, 2.0 * c * f_c + 1.0 - 2.0 * p0, 2.0 * c * c * f_c + 2.0 * alpha * (1.0 - 2.0 * p1)


# 19.5 is the last shape whose alpha + 1 (20.5) takes the finite sum, 20.0 the
# first whose alpha + 1 (21) does not
CLOSED_FORM_SHAPES = [
    1.01, 1.5, 2.0, 2.5, 3.0, 7.5, 19.5, 20.0, 20.5, 40.0, 100.0, 1000.0, 3000.0, 4000.0,
] + [c.alpha for seed in range(100, 106) for c in seeded_admissible_mixture(seed).components]


class TestFSecondIntegrals:
    def test_exponential_exact(self, exp_mixture):
        i0, i1, i2, f0, f1_0 = f_second_integrals(exp_mixture)
        assert (i0, i1, i2) == pytest.approx((1.0, 1.0, 2.0), rel=1e-12)
        assert f0 == pytest.approx(1.0, rel=1e-14)
        assert f1_0 == pytest.approx(-1.0, rel=1e-14)

    def test_beta_scaling(self):
        # Exp(2): f = equilibrium density = 2 exp(-2u); I_i = 4 * i! / 2^i
        mix = GammaMixture.exponential(2.0)
        i0, i1, i2, f0, f1_0 = f_second_integrals(mix)
        assert (i0, i1, i2) == pytest.approx((4.0, 2.0, 2.0), rel=1e-12)
        assert f0 == pytest.approx(2.0, rel=1e-14)
        assert f1_0 == pytest.approx(-4.0, rel=1e-14)

    def test_shape_above_one_kills_density_slope_at_origin(self):
        mix = GammaMixture((Component(1.0, 2.0, 1.0),))
        *_, f1_0 = f_second_integrals(mix)
        assert f1_0 == 0.0

    def test_bound_mode_tight_at_shape_one(self):
        for i in range(3):
            assert component_i_fpp_upper(1.0, i) == _component_i_fpp(1.0)[i]

    @pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5, 2.0, 3.0, 5.5, 10.0])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_exact_never_exceeds_bound_mode(self, alpha, i):
        assert _component_i_fpp(alpha)[i] <= component_i_fpp_upper(alpha, i) * (1 + 1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.7])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_exact_against_quadrature(self, alpha, i):
        # independent check: trapezoid quadrature of u^i |F_a''(u)| after the
        # substitution u = s^2, which removes the integrable singularity at 0
        s = np.linspace(0.0, math.sqrt(120.0), 400_001)
        power = 2.0 * (i + alpha) - 3.0
        integrand = 2.0 * s**power * np.exp(-(s**2)) * np.abs(alpha - 1.0 - s**2)
        integrand /= math.gamma(alpha)
        integral = np.trapezoid(integrand, s)
        assert _component_i_fpp(alpha)[i] == pytest.approx(integral, rel=1e-5)

    def test_one_incomplete_gamma_per_shape(self, monkeypatch, gamma32_mixture):
        # Q(alpha + 1, c) = Q(c + 2, c) is the only incomplete gamma; Q(alpha, c)
        # follows from it and the kernel value f(c), and a second call
        # evaluates it afresh.  For Gamma(3/2), Q(5/2, .) is a finite sum, so
        # the series never runs
        calls = []
        upper = bounds.reg_inc_gamma_upper

        def counted(alpha, x):
            calls.append((alpha, x))
            return upper(alpha, x)

        def series(alpha, x):
            raise AssertionError(f"series called at shape {alpha}")

        monkeypatch.setattr(bounds, "reg_inc_gamma_upper", counted)
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_series", series)
            f_second_integrals(gamma32_mixture)
        assert calls == [(2.5, 0.5)]
        f_second_integrals(gamma32_mixture)
        assert len(calls) == 2
        del calls[:]
        f_second_integrals(GammaMixture.exponential())
        assert calls == []
        for seed in range(100, 106):
            del calls[:]
            mix = seeded_admissible_mixture(seed)
            f_second_integrals(mix)
            assert len(calls) == sum(c.alpha != 1.0 for c in mix.components)

    @pytest.mark.parametrize("alpha", CLOSED_FORM_SHAPES)
    def test_against_mpmath_closed_form(self, alpha):
        # int_0^c u^(s-1) (c - u) e^-u du + int_c^inf u^(s-1) (u - c) e^-u du
        # over Gamma(alpha), s = c + i, by incomplete gammas at 50 digits;
        # the by-parts forms read the gamma kernel once, at its peak, where its
        # Stirling exponent holds from shape 20; an lgamma-difference route
        # erred by up to 7e-12 at shape 4000
        mpmath = pytest.importorskip("mpmath")
        got = _component_i_fpp(alpha)
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            c = a - 1
            for i in range(3):
                s = c + i
                below = c * mpmath.gammainc(s, 0, c) - mpmath.gammainc(s + 1, 0, c)
                above = mpmath.gammainc(s + 1, c) - c * mpmath.gammainc(s, c)
                exact = (below + above) / mpmath.gamma(a)
                assert abs(got[i] - exact) <= 1e-14 * exact, i

    def test_admissibility(self):
        mix = GammaMixture((Component(0.5, 0.9, 1.0), Component(0.5, 2.0, 1.0)))
        with pytest.raises(AdmissibilityError):
            f_second_integrals(mix)


# the entries that read the f'' integrals, in the ledger and in the chained report
FPP_ENTRIES = {"i1_fpp", "i2_fpp", "u2m3_norm", "u2m4_norm", "um3_norm"}


class TestFSecondIntegralsAgreement:
    # the integrals from Q(alpha + 1, c) agree with the lower-function forms
    # they replace, and every other ledger and report entry keeps its bits

    @pytest.mark.parametrize("alpha", CLOSED_FORM_SHAPES)
    def test_upper_agrees_with_lower_reference(self, alpha):
        np.testing.assert_allclose(_component_i_fpp(alpha), component_i_fpp_lower_reference(alpha),
                                   rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("name", [*LEDGER_MIXTURES, "narrow_spike"])
    def test_report_equals_lower_reference_report(self, monkeypatch, name, phi):
        model = RiskModel(NARROW_SPIKE if name == "narrow_spike" else LEDGER_MIXTURES[name], phi)
        got = ruin_bound_report(model)
        monkeypatch.setattr(bounds, "_component_i_fpp", component_i_fpp_lower_reference)
        expected = ruin_bound_report(model)
        for new, old in zip(got, expected):
            for field in dataclasses.fields(new):
                value, reference = getattr(new, field.name), getattr(old, field.name)
                if field.name in FPP_ENTRIES:
                    assert value == pytest.approx(reference, rel=1e-14, abs=0.0), field.name
                else:
                    assert repr(value) == repr(reference), field.name


# a ledger whose entries all differ, so a misplaced term changes the result
DISTINCT_LEDGER = NormLedger(
    w1_norm=0.31, uw1_norm=0.37, u2w1_norm=0.41, w2_norm=0.43, uw2_norm=0.47,
    u2w2_norm=0.53, u2w1pp_norm=0.59, u2w2pp_norm=0.61, ez=1.3, ez2=2.9,
    i0_fpp=0.67, i1_fpp=0.71, i2_fpp=0.73, f0=0.79, f1_0=-0.83,
)


class TestChainBounds:
    def test_first_norm_exponential(self):
        report = chain_bounds(exp_ledger(0.9), 0.9)
        assert report.m1_norm == pytest.approx(0.9, rel=1e-9)

    def test_chain_arithmetic(self):
        ledger = exp_ledger(0.9)
        report = chain_bounds(ledger, 0.9)
        m1 = ledger.w1_norm / 0.1
        um1 = (0.9 * ledger.ez * m1 + ledger.uw1_norm) / 0.1
        u2m1 = (0.9 * (2.0 * ledger.ez * um1 + ledger.ez2 * m1) + ledger.u2w1_norm) / 0.1
        assert report.um1_norm == pytest.approx(um1, rel=1e-14)
        assert report.u2m1_norm == pytest.approx(u2m1, rel=1e-14)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.9])
    def test_high_order_arithmetic(self, phi):
        # every entry written out from the ledger alone, as in the docstring
        lg = DISTINCT_LEDGER
        p = 1.0 - phi
        m1 = lg.w1_norm / p
        um1 = (phi * lg.ez * m1 + lg.uw1_norm) / p
        u2m1 = (phi * (2.0 * lg.ez * um1 + lg.ez2 * m1) + lg.u2w1_norm) / p
        m2 = lg.w2_norm / p
        um2 = (phi * lg.ez * m2 + lg.uw2_norm) / p
        u2m2 = (phi * (2.0 * lg.ez * um2 + lg.ez2 * m2) + lg.u2w2_norm) / p
        lead = lg.i0_fpp + abs(lg.f1_0)
        u2m3 = (
            phi * (lead * u2m1 + 2.0 * lg.i1_fpp * um1 + lg.i2_fpp * m1)
            + phi * lg.f0 * u2m2
            + lg.u2w1pp_norm
        )
        u2m4 = (
            phi * (lead * u2m2 + 2.0 * lg.i1_fpp * um2 + lg.i2_fpp * m2)
            + phi * lg.f0 * u2m3
            + lg.u2w2pp_norm
        )
        r = chain_bounds(lg, phi)
        assert (r.m1_norm, r.um1_norm, r.u2m1_norm) == (m1, um1, u2m1)
        assert (r.m2_norm, r.um2_norm, r.u2m2_norm) == (m2, um2, u2m2)
        assert (r.u2m3_norm, r.u2m4_norm, r.um3_norm) == (u2m3, u2m4, u2m4)

    def test_zero_defect_collapses_to_w_norms(self):
        ledger = exp_ledger(0.9)
        report = chain_bounds(ledger, 0.0)
        assert report.m1_norm == ledger.w1_norm
        assert report.m2_norm == ledger.w2_norm

    def test_zero_defect(self):
        ledger = exp_ledger(0.9)
        full = chain_bounds(ledger, 0.0)
        assert full.u2m3_norm == ledger.u2w1pp_norm

    def test_true_derivative_is_dominated(self):
        # |d/du nonruin| = 0.09 exp(-0.1 u) has sup 0.09, below the bound 0.9
        report = chain_bounds(exp_ledger(0.9), 0.9)
        assert 0.09 <= report.m1_norm

    def test_dominates_true_third_derivative(self):
        # u^2 |d^3/du^3 ruin| = 0.0009 u^2 exp(-0.1u), sup 0.0009 * 400 e^-2
        full = chain_bounds(exp_ledger(0.9), 0.9)
        true_sup = 0.0009 * 400.0 * math.exp(-2.0)
        assert full.u2m3_norm >= true_sup

    def test_um3_equals_u2m4(self):
        full = chain_bounds(exp_ledger(0.9), 0.9)
        assert full.um3_norm == full.u2m4_norm

    @pytest.mark.parametrize("phi", [-0.1, 1.0, math.nan])
    def test_rejects_defect_outside_unit_interval(self, phi):
        with pytest.raises(DomainError, match="defect phi"):
            chain_bounds(DISTINCT_LEDGER, phi)

    @settings(max_examples=40, deadline=None)
    @given(
        bumps=st.lists(st.floats(0.0, 2.0), min_size=15, max_size=15),
        phi=st.floats(0.05, 0.95),
    )
    def test_monotone_in_every_ledger_entry(self, bumps, phi):
        base = exp_ledger(0.9)
        fields = [f.name for f in dataclasses.fields(NormLedger)]
        bumped_vals = {}
        for name, bump in zip(fields, bumps):
            value = getattr(base, name)
            bumped_vals[name] = value + (0.0 if name == "f1_0" else bump)
        # keep the moment pair consistent so validation passes
        bumped_vals["ez2"] = max(bumped_vals["ez2"], bumped_vals["ez"] ** 2)
        bumped = NormLedger(**bumped_vals)
        lo = chain_bounds(base, phi)
        hi = chain_bounds(bumped, phi)
        for name in ("m1_norm", "um1_norm", "u2m1_norm", "m2_norm", "um2_norm",
                     "u2m2_norm", "u2m3_norm", "u2m4_norm", "um3_norm"):
            assert getattr(hi, name) >= getattr(lo, name) - 1e-12


class TestTheoremBound:
    def test_zero_norms_give_zero(self):
        report = BoundReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert report.total_bound(3.0) == 0.0

    def test_quarters_when_rate_doubles(self):
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        assert report.total_bound(10.0) == pytest.approx(report.total_bound(5.0) / 4.0, rel=1e-14)

    def test_scaling_law(self):
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        consts = [report.total_bound(t) * t * t for t in (1.0, 2.0, 5.0, 10.0, 100.0)]
        spread = (max(consts) - min(consts)) / max(consts)
        assert spread < 1e-14

    @pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
    def test_non_finite_rate_rejected(self, t):
        # C / inf**2 = 0 would read as an exact approximation
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        with pytest.raises(DomainError, match="finite"):
            report.total_bound(t)

    @pytest.mark.parametrize("t", [1e-160, 1e-170])
    def test_bound_past_the_floats_rejected(self, t):
        # t * t underflowed to 0 (a raw ZeroDivisionError) from t ~ 1e-162,
        # and C / (t * t) overflowed to inf before that
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        with pytest.raises(DomainError, match=f"overflows at t = {t}"):
            report.total_bound(t)

    def test_smallest_rates_keep_c_over_t_squared(self):
        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        assert report.total_bound(1e-150) == pytest.approx(report.total_bound(1.0) * 1e300, rel=1e-15)
        # C = 1e-20: t * t is subnormal at 1e-160, where C / t^2 is still a float
        tiny = dataclasses.replace(BoundReport(*[0.0] * 9), m2_norm=8e-20)
        assert tiny.total_bound(1e-160) == pytest.approx(1e300, rel=1e-15)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_validity_against_observed_error(self, phi, t):
        model = RiskModel(GammaMixture.exponential(), phi)
        _, report = ruin_bound_report(model)
        approx = approximate_nonruin(model, t, 40.0)
        K = approx.lattice.truncation_index
        observed = max(
            abs(float(approx.lattice.values[k]) - exact_nonruin_exponential(phi, 1.0, k / t))
            for k in range(K + 1)
        )
        assert report.total_bound(t) >= observed

    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 0.99])
    def test_chain_covers_exponential_closed_form(self, phi):
        # unit exponential claims: m(u) = phi e^(-r u), r = 1 - phi, so
        # |m^(k)(u)| = phi r^k e^(-r u) and sup u^j e^(-r u) = (j/(r e))^j;
        # the ratio chained/exact says how loose each entry is
        r = 1.0 - phi

        def exact(k, j):
            return phi * r**k * (j / (r * math.e)) ** j

        _, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), phi))
        closed = {
            "m1_norm": exact(1, 0), "um1_norm": exact(1, 1), "u2m1_norm": exact(1, 2),
            "m2_norm": exact(2, 0), "um2_norm": exact(2, 1), "u2m2_norm": exact(2, 2),
            "u2m3_norm": exact(3, 2), "u2m4_norm": exact(4, 2), "um3_norm": exact(3, 1),
        }
        assert set(closed) == {field.name for field in dataclasses.fields(BoundReport)}
        entries = {name: getattr(report, name) for name in closed}
        closed["C"] = BoundReport(**closed).total_bound(1.0)
        entries["C"] = report.total_bound(1.0)
        for name, chained in entries.items():
            ratio = chained / closed[name]
            assert chained >= closed[name], f"{name}: chained/exact = {ratio:.3g}"

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("name", INTEGER_SHAPE_MIXTURES)
    def test_bound_covers_exact_error(self, name, phi):
        # the sup error on u <= 40 against the exact non-ruin probability
        model = RiskModel(INTEGER_SHAPE_MIXTURES[name], phi)
        exact = exact_nonruin_integer_gamma(model)
        _, report = ruin_bound_report(model)
        for t in (5.0, 10.0, 20.0, 40.0, 80.0):
            lattice = approximate_nonruin(model, t, 40.0).lattice
            k = np.arange(lattice.truncation_index + 1)
            k = k[k / t <= 40.0]
            observed = float(np.max(np.abs(lattice.values[k] - exact(k / t))))
            assert report.total_bound(t) >= observed, t

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("name", INTEGER_SHAPE_MIXTURES)
    def test_chain_covers_exact_integer_gamma_norms(self, name, phi):
        # the exponential closed-form gate above, on integer-shape mixtures:
        # the exact solution's norms, sampled densely (a sample maximum is a
        # lower estimate), out to u = 2000, past every peak of u^2 |m^(k)|
        model = RiskModel(INTEGER_SHAPE_MIXTURES[name], phi)
        exact = exact_nonruin_integer_gamma(model)
        _, report = ruin_bound_report(model)
        u = np.concatenate([np.linspace(0.0, 20.0, 40_001), np.geomspace(20.0, 2000.0, 40_000)])
        d = {k: np.abs(exact(u, k)) for k in (1, 2, 3, 4)}
        sampled = {
            "m1_norm": d[1], "um1_norm": u * d[1], "u2m1_norm": u * u * d[1],
            "m2_norm": d[2], "um2_norm": u * d[2], "u2m2_norm": u * u * d[2],
            "u2m3_norm": u * u * d[3], "u2m4_norm": u * u * d[4], "um3_norm": u * d[3],
        }
        assert set(sampled) == {field.name for field in dataclasses.fields(BoundReport)}
        sampled = {entry: float(values.max()) for entry, values in sampled.items()}
        entries = {entry: getattr(report, entry) for entry in sampled}
        sampled["C"] = BoundReport(**sampled).total_bound(1.0)
        entries["C"] = report.total_bound(1.0)
        for entry, chained in entries.items():
            ratio = chained / sampled[entry]
            assert chained >= sampled[entry], f"{entry}: chained/exact = {ratio:.3g}"

    def test_upper_integral_mode_is_looser(self, gamma32_mixture):
        # the chain is monotone in the ledger, so the componentwise upper
        # integrals can only loosen the bound
        model = RiskModel(gamma32_mixture, 0.9)
        ledger, exact_report = ruin_bound_report(model)
        mu = gamma32_mixture.mean
        i0, i1, i2 = (
            math.fsum(p * beta ** (1 - i) * component_i_fpp_upper(alpha, i)
                      for p, alpha, beta in gamma32_mixture.components) / mu
            for i in range(3)
        )
        upper = dataclasses.replace(ledger, i0_fpp=i0, i1_fpp=i1, i2_fpp=i2)
        upper_report = chain_bounds(upper, 0.9)
        assert upper_report.total_bound(5.0) >= exact_report.total_bound(5.0)


class TestNormLedgerValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            NormLedger(-1.0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0)

    def test_rejects_moment_inversion(self):
        with pytest.raises(DomainError):
            NormLedger(0, 0, 0, 0, 0, 0, 0, 0, 2.0, 1.0, 0, 0, 0, 1, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            NormLedger(math.inf, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0)
