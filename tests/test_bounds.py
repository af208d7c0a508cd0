import collections
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
    equilibrium_moments,
    exact_nonruin_exponential,
    f_second_integrals,
    GammaMixture,
    NormLedger,
    RiskModel,
    ruin_bound_report,
    ruin_w_functions,
)
from renewinv import bounds, transforms
from renewinv.bounds import _component_i_fpp


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


def sup_norm_reference(fn, decay_start):
    """The loop-based sup-norm search of one function, one scalar ``fn`` call per point.

    Reference for one row of ``bounds._sup_norms``: same grid, doubling
    rule, stopping test and brackets, refined by golden-section search
    instead of the batched refinement.  The first end is found by doubling
    from 4, not by ``math.frexp``.
    """
    u_hi = 4.0
    while u_hi < 2.0 * decay_start:
        u_hi *= 2.0
    while True:
        grid = np.linspace(0.0, u_hi, bounds._GRID_POINTS)
        vals = np.array([abs(fn(u)) for u in grid])
        peak = float(vals.max())
        if vals[-1] <= bounds._TAIL_RTOL * max(peak, 1e-300) or u_hi > 1e9:
            break
        u_hi *= 2.0
    interior = [
        i
        for i in range(1, bounds._GRID_POINTS - 1)
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
    ]
    interior.sort(key=lambda i: -vals[i])
    best = peak
    for i in interior[:4]:
        best = max(best, golden_max(fn, grid[i - 1], grid[i + 1]))
    best = max(best, golden_max(fn, grid[0], grid[1]))
    return best


def sup_norms_reference(law, rows, starts):
    """``sup_norm_reference`` row by row, the claim law called at one point at a time.

    The law is memoized by point: rows with a common start share their grids.
    """
    law = functools.lru_cache(maxsize=None)(law)
    return [
        sup_norm_reference(lambda u, row=row: row(u, *law(u)), start)
        for row, start in zip(rows, starts)
    ]


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
        ledger = exp_ledger(0.9)
        # w1 = -0.09 exp(-u): sup at 0, u-weighted sup at 1, u^2-weighted at 2
        assert ledger.w1_norm == pytest.approx(0.09, rel=1e-10)
        assert ledger.uw1_norm == pytest.approx(0.09 / math.e, rel=1e-9)
        assert ledger.u2w1_norm == pytest.approx(0.09 * 4.0 * math.exp(-2.0), rel=1e-9)
        # w2 = 0.009 exp(-u) for unit-rate exponential claims
        assert ledger.w2_norm == pytest.approx(0.009, rel=1e-10)
        assert ledger.uw2_norm == pytest.approx(0.009 / math.e, rel=1e-9)
        assert ledger.u2w2_norm == pytest.approx(0.009 * 4.0 * math.exp(-2.0), rel=1e-9)
        # second derivatives: |u^2 w1''| = 0.09 u^2 e^-u; triangle bound for w2''
        assert ledger.u2w1pp_norm == pytest.approx(0.09 * 4.0 * math.exp(-2.0), rel=1e-9)
        expected_w2pp = 0.9 * 0.09 * 4.0 * math.exp(-2.0) + 0.09 * 4.0 * math.exp(-2.0)
        assert ledger.u2w2pp_norm == pytest.approx(expected_w2pp, rel=1e-9)

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
    def test_ledger_matches_loop_reference(self, monkeypatch, name):
        # the reference evaluates the claim law one float at a time through
        # the scalar incomplete-gamma loops, independent of the array kernel
        model = RiskModel(LEDGER_MIXTURES[name], 0.9)
        ledger, _ = ruin_bound_report(model)
        monkeypatch.setattr(bounds, "_sup_norms", sup_norms_reference)
        monkeypatch.setattr(transforms, "reg_inc_gamma_lower", scalar_reference.reg_inc_gamma_lower)
        monkeypatch.setattr(transforms, "reg_inc_gamma_upper", scalar_reference.reg_inc_gamma_upper)
        reference, _ = ruin_bound_report(model)
        for field in dataclasses.fields(NormLedger):
            assert getattr(ledger, field.name) == pytest.approx(
                getattr(reference, field.name), rel=1e-12, abs=0.0
            ), field.name

    def test_lockstep_rows_match_rows_searched_alone(self):
        # starts 6 and 5 both round up to a first end of 16, so the rows
        # share every grid; the u-weighted exponential row stops doubling at
        # 64, one pass before the u^2-weighted Gamma(4, 0.5) row.  Each row
        # must see the points and law values it sees alone, and so keep its
        # norm to the last bit.  After the first pass the law sees only the
        # upper half of each doubled grid: 2048 points at 32, 64 and 128,
        # then the first refinement round's 65 points in each of the four
        # brackets (one interior maximum and the first cell per row).
        expo = GammaMixture.exponential()
        gamma4 = GammaMixture((Component(1.0, 4.0, 0.5),))
        sizes = []

        def law(u):
            sizes.append(u.size)
            return expo.survival(u), gamma4.density(u)

        def recording_rows(seen):
            def expo_row(u, surv, dens):
                seen[0].append((u.copy(), surv.copy()))
                return u * surv

            def gamma_row(u, surv, dens):
                seen[1].append((u.copy(), dens.copy()))
                return u**2 * dens

            return [expo_row, gamma_row]

        starts = [6.0, 5.0]
        seen_together, seen_alone = ([], []), ([], [])
        together = bounds._sup_norms(law, recording_rows(seen_together), starts)
        grid = bounds._GRID_POINTS
        assert sizes[:5] == [grid, grid // 2, grid // 2, grid // 2, 4 * bounds._REFINE_POINTS]
        alone = [
            bounds._sup_norms(law, [row], [start])[0]
            for row, start in zip(recording_rows(seen_alone), starts)
        ]
        assert together == alone
        for calls_together, calls_alone in zip(seen_together, seen_alone):
            assert len(calls_together) == len(calls_alone)
            for (u, value), (u_alone, value_alone) in zip(calls_together, calls_alone):
                assert np.array_equal(u, u_alone) and np.array_equal(value, value_alone)

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    def test_claim_law_runs_once_per_round(self, monkeypatch, phi):
        # one survival and one density call per grid pass and refinement
        # round, shared by all eight rows
        calls = collections.Counter()
        for name in ("survival", "density"):
            def counted(self, u, _name=name, _method=getattr(GammaMixture, name)):
                calls[_name] += 1
                return _method(self, u)

            monkeypatch.setattr(GammaMixture, name, counted)
        for name, mix in LEDGER_MIXTURES.items():
            calls.clear()
            ruin_bound_report(RiskModel(mix, phi))
            assert calls["survival"] == calls["density"] <= 11, name

    def test_doubled_grid_lower_half_is_even_points(self):
        # every end the search produces is a power of two from 4 up, and it
        # doubles an end only while that end is <= 1e9 < 2^30; the lower
        # half of each doubled grid must be the even points of the grid it
        # doubles, bit for bit
        half = bounds._GRID_POINTS // 2
        for end in (2.0**power for power in range(2, 31)):
            low = np.linspace(0.0, end, bounds._GRID_POINTS)[::2]
            doubled = np.linspace(0.0, 2.0 * end, bounds._GRID_POINTS)[:half]
            assert low.tobytes() == doubled.tobytes(), end

    @settings(max_examples=100, deadline=None)
    @given(starts=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=6))
    @example(starts=[2.0, 8.0, 1e9])
    def test_grid_ends_are_powers_of_two(self, starts):
        # every end handed to _grow_tables is an exact power of two, and
        # each row's first end lies in [b, 2b) for b = max(2 start, 4)
        calls = []
        grow = bounds._grow_tables

        def recording(law, tables, ends):
            calls.append(set(ends))
            grow(law, tables, ends)

        rows = [lambda u, s=start: np.exp(-u / s) for start in starts]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_grow_tables", recording)
            bounds._sup_norms(lambda u: (), rows, starts)
        assert all(math.frexp(end)[0] == 0.5 for ends in calls for end in ends), calls
        floors = [max(2.0 * start, 4.0) for start in starts]
        for floor in floors:
            assert len([end for end in calls[0] if floor <= end < 2.0 * floor]) == 1, floor
        assert all(any(b <= end < 2.0 * b for b in floors) for end in calls[0]), calls[0]

    def test_rows_straddling_an_octave_share_one_family(self, monkeypatch):
        # Exp(0.75) claims: the w-row starts 20/3, 8 and 28/3 give first
        # ends 16, 16 (2 * 8 is already a power of two) and 32, and the
        # 32-end takes its lower half from the 16 table made in the same
        # pass: the law sees 4096 + 2048 points there, not 2 * 4096
        mix = GammaMixture((Component(1.0, 1.0, 0.75),))
        starts = [bounds._decay_start(mix, j) for j in range(3)]
        assert [bounds._first_end(start) for start in starts] == [16.0, 16.0, 32.0]
        passes = []
        grow = bounds._grow_tables

        def recording(law, tables, ends):
            sizes = []

            def counted(u):
                sizes.append(u.size)
                return law(u)

            grow(counted, tables, ends)
            passes.append((sorted(set(ends)), sizes, tables))

        monkeypatch.setattr(bounds, "_grow_tables", recording)
        ruin_w_functions(RiskModel(mix, 0.9))
        ends, sizes, tables = passes[0]
        assert ends == [16.0, 32.0]
        assert sizes == [bounds._GRID_POINTS + bounds._HALF]
        low, low_at = tables[16.0]
        high, high_at = tables[32.0]
        grid = np.linspace(0.0, 32.0, bounds._GRID_POINTS)
        assert high.tobytes() == grid.tobytes()
        assert high[: bounds._HALF].tobytes() == low[::2].tobytes()
        for a_low, a_high, direct in zip(low_at, high_at, (mix.survival(grid), mix.density(grid))):
            assert a_high[: bounds._HALF].tobytes() == a_low[::2].tobytes()
            assert a_high.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("name", LEDGER_MIXTURES)
    def test_row_grids_match_direct_law(self, monkeypatch, name, phi):
        # each row's grid, and the law values it reads there, are what a
        # fresh law(np.linspace(0, u_hi, 4096)) gives, bit for bit, although
        # doubled grids take their lower half from an earlier pass
        seen = []
        search = bounds._sup_norms

        def recording(law, rows, starts):
            def watched(row):
                def recorded(u, *at):
                    if u.ndim == 1:
                        seen.append((law, u.copy(), [a.copy() for a in at]))
                    return row(u, *at)

                return recorded

            return search(law, [watched(row) for row in rows], starts)

        monkeypatch.setattr(bounds, "_sup_norms", recording)
        ruin_w_functions(RiskModel(LEDGER_MIXTURES[name], phi))
        assert seen
        for law, u, at in seen:
            grid = np.linspace(0.0, u[-1], bounds._GRID_POINTS)
            assert u.tobytes() == grid.tobytes()
            direct = law(grid)
            assert len(at) == len(direct)
            assert all(a.tobytes() == d.tobytes() for a, d in zip(at, direct))

    def test_grid_phase_law_points(self, monkeypatch):
        # the Gamma(3/2) w-row starts 5.5, 6.5 and 7.5 give first ends 11,
        # 13 and 15, each rounded up to 16, so all three rows share one
        # table per pass: a fresh 4096-point grid at 16, then 2048-point
        # upper halves at 32 and 64, 4096 + 2 * 2048 = 8,192 survival
        # points.  Unrounded ends 11, 13 and 15 (and their doublings) never
        # nest and took 3 * (4096 + 2 * 2048) = 24,576
        mix = LEDGER_MIXTURES["gamma_3_2"]
        grid_phase, points = [False], []
        grow = bounds._grow_tables
        survival = GammaMixture.survival

        def growing(*args):
            grid_phase[0] = True
            try:
                grow(*args)
            finally:
                grid_phase[0] = False

        def counted(self, u):
            if grid_phase[0]:
                points.append(np.size(u))
            return survival(self, u)

        monkeypatch.setattr(bounds, "_grow_tables", growing)
        monkeypatch.setattr(GammaMixture, "survival", counted)
        ruin_w_functions(RiskModel(mix, 0.9))
        assert sum(points) == 8_192

    @pytest.mark.parametrize("name", LEDGER_MIXTURES)
    def test_claim_law_sees_only_w_row_points(self, monkeypatch, name):
        # the u^2 F'' and u^2 F''' rows read no claim law, so a report must
        # evaluate it at exactly the points a search of the six w-rows
        # alone needs, grids and brackets alike
        mix, phi = LEDGER_MIXTURES[name], 0.9
        mu = mix.mean
        c1 = phi * (1.0 - phi) / mu
        alone = []

        def law(u):
            alone.append(u.size)
            return mix.survival(u), mix.density(u)

        rows = [
            *(lambda u, surv, dens, j=j: c1 * u**j * surv for j in range(3)),
            *(lambda u, surv, dens, j=j: u**j * c1 * (dens - (phi / mu) * surv) for j in range(3)),
        ]
        starts = [bounds._decay_start(mix, j) for j in range(3)] * 2
        norms = bounds._sup_norms(law, rows, starts)
        seen = []
        survival = GammaMixture.survival

        def counted(self, u):
            seen.append(np.size(u))
            return survival(self, u)

        monkeypatch.setattr(GammaMixture, "survival", counted)
        ledger = ruin_w_functions(RiskModel(mix, phi))
        assert sum(seen) == sum(alone)
        assert norms == [
            ledger.w1_norm, ledger.uw1_norm, ledger.u2w1_norm,
            ledger.w2_norm, ledger.uw2_norm, ledger.u2w2_norm,
        ]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="sampled sup norms can undershoot: the Exp(1e-3) component puts the "
        "first grid end at 2^14 and its spacing near 4, which steps over the Gamma(4000) "
        "spike at u ~ 42.5 "
        "(ROADMAP item 6, certified sup norms)",
    )
    def test_known_defect_grid_steps_over_narrow_spike(self):
        mix = GammaMixture((Component(0.5, 4000.0, 4000.0 / 42.46), Component(0.5, 1.0, 1e-3)))
        phi = 0.5
        mu = mix.mean
        ledger = ruin_w_functions(RiskModel(mix, phi))
        u = np.linspace(30.0, 55.0, 200_001)
        w2 = phi * (1.0 - phi) / mu * (mix.density(u) - (phi / mu) * mix.survival(u))
        dense = float(np.abs(w2).max())
        assert ledger.w2_norm >= dense, f"w2_norm {ledger.w2_norm:.5g} < dense max {dense:.5g}"

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.7, 140.0])
    def test_derivative_terms_match_density_differences(self, alpha):
        # u^2 F'' = u^2 f' and u^2 F''' = u^2 f'' by central differences of
        # the density, a route independent of the log-space kernel
        mix = GammaMixture((Component(1.0, alpha, 2.0),))
        u = np.linspace(0.25, 4.0 * (alpha + 4.0) / 2.0, 200)
        h = 1e-4 * u
        f_lo, f_mid, f_hi = mix.density(u - h), mix.density(u), mix.density(u + h)
        d2 = bounds._u2_cdf_deriv2(mix, u)
        d3 = bounds._u2_cdf_deriv3(mix, u)
        first = u**2 * (f_hi - f_lo) / (2.0 * h)
        second = u**2 * (f_hi - 2.0 * f_mid + f_lo) / h**2
        np.testing.assert_allclose(d2, first, rtol=0, atol=1e-6 * np.abs(d2).max())
        np.testing.assert_allclose(d3, second, rtol=0, atol=1e-4 * np.abs(d3).max())

    @pytest.mark.parametrize("deriv", [bounds._u2_cdf_deriv2, bounds._u2_cdf_deriv3])
    def test_derivative_terms_take_arrays(self, deriv):
        u = np.linspace(0.0, 30.0, 301)
        for mix in LEDGER_MIXTURES.values():
            scalar = np.array([deriv(mix, float(v)) for v in u])
            np.testing.assert_allclose(deriv(mix, u), scalar, rtol=1e-14, atol=1e-300)

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

    def test_shared_shapes_evaluated_once_per_call(self, monkeypatch, gamma32_mixture):
        # alpha = 1.5 needs P(s, 0.5) at the four shapes 0.5, 1.5, 2.5, 3.5
        # for its three integrals; a second call evaluates them afresh
        calls = []
        lower = bounds.reg_inc_gamma_lower

        def counted(alpha, x):
            calls.append((alpha, x))
            return lower(alpha, x)

        monkeypatch.setattr(bounds, "reg_inc_gamma_lower", counted)
        f_second_integrals(gamma32_mixture)
        assert sorted(calls) == [(0.5, 0.5), (1.5, 0.5), (2.5, 0.5), (3.5, 0.5)]
        f_second_integrals(gamma32_mixture)
        assert len(calls) == 8

    @pytest.mark.parametrize("seed", range(100, 106))
    def test_shared_shapes_keep_every_bit(self, seed):
        # against each integral computed on its own, both incomplete gammas
        # called afresh at the shapes alpha + i - 1 and alpha + i
        def alone(alpha, i):
            if alpha == 1.0:
                return float(math.factorial(i))
            c, a = alpha - 1.0, alpha + i - 1.0
            r_hi = math.exp(math.lgamma(a + 1.0) - math.lgamma(alpha))
            r_lo = math.exp(math.lgamma(a) - math.lgamma(alpha))
            return (r_hi - c * r_lo + 2.0 * c * r_lo * bounds.reg_inc_gamma_lower(a, c)
                    - 2.0 * r_hi * bounds.reg_inc_gamma_lower(a + 1.0, c))

        mix = seeded_admissible_mixture(seed)
        for alpha in (1.0, 1.5, *(c.alpha for c in mix.components)):
            assert _component_i_fpp(alpha) == tuple(alone(alpha, i) for i in range(3))

    def test_admissibility(self):
        mix = GammaMixture((Component(0.5, 0.9, 1.0), Component(0.5, 2.0, 1.0)))
        with pytest.raises(AdmissibilityError):
            f_second_integrals(mix)


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
