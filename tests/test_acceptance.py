"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 1 and 2 check the published 4-decimal reference table (phi = 0.9,
lattice rate 5, three claim models).  Where each column comes from:

- The exponential column holds the order-5 Stehfest-2 comparator
  ``2 W_10 g(u) - W_5 g(u)`` (Stehfest, CACM 13, 1970, case N = 2) applied
  to the exact non-ruin function ``g(u) = 1 - 0.9 exp(-0.1 u)``, not the M2
  pipeline values: ``renewinv invert --transform test_function --p 0.1
  --method stehfest2 --t 5`` reproduces all seven digits within 4.1e-5
  (4-decimal rounding), while M2, L*_5 and order-5 Post-Widder miss them by
  up to 1.9e-3, 1.5e-2 and 4.4e-2.  The M2 column instead matches the exact
  formula to 1.5e-5 over the whole lattice, which criterion 1 checks
  separately.
- The gamma-3/2 and mixture columns are M2 pipeline values, with one
  misprint: gamma-3/2 at u = 15 is printed 0.7248, but M2 at t = 5 gives
  0.729211, M2 at t = 100 gives 0.729219 and the trapezoidal Volterra solve
  at h = 0.01 gives 0.729221.  Stehfest-2 orders 1-10, Post-Widder, L*_5,
  M2 at t in {1, 2, 2.5, 3, 4, 5} and phi in [0.85, 0.92] all miss 0.7248;
  the true curve reaches it only near u = 14.8.  The cell is corrected to
  0.7292 in ``PUBLISHED_ERRATA``, and criterion 2 checks the correction
  against the Volterra oracle before it uses it.
"""

import math
import time

import numpy as np
import pytest

from renewinv import (
    approximate_nonruin,
    closed_form_lstar_exponential_ruin,
    compound_cdf,
    convolution_renewal_solve,
    discretize_equilibrium,
    exact_nonruin_exponential,
    GammaMixture,
    log_gamma,
    negbin_cdf,
    negbin_logpmf,
    panjer_geometric,
    RealShape,
    renewal_data_from_model,
    renewal_ratio_derivs,
    RiskModel,
    ruin_bound_report,
)
from renewinv.cli import main

U_POINTS = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0)

# published 4-decimal reference digits for phi = 0.9, lattice rate 5
PUBLISHED_EXPONENTIAL = (0.1856, 0.4538, 0.6677, 0.7975, 0.8766, 0.9553, 0.9854)
PUBLISHED_GAMMA_3_2 = (0.1648, 0.3940, 0.5949, 0.7248, 0.8190, 0.9191, 0.9639)
PUBLISHED_MIXTURE = (0.1726, 0.4159, 0.6225, 0.7560, 0.8423, 0.9341, 0.9725)

# corrections to misprinted published cells, keyed by (column, u); the
# evidence for each is in the module docstring, and criterion 2 checks it
PUBLISHED_ERRATA = {("gamma_3_2", 15.0): 0.7292}


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] acceptance {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table1_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "table1.csv"
    start = time.perf_counter()
    code = main(["table1", "--format", "csv", "--out", str(out)])
    elapsed = time.perf_counter() - start
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    table = {
        "u": [float(r[0]) for r in rows],
        "exponential": [float(r[1]) for r in rows],
        "gamma_3_2": [float(r[2]) for r in rows],
        "mixture": [float(r[3]) for r in rows],
        "exact": [float(r[4]) for r in rows],
    }
    return code, elapsed, table


def test_criterion_1_exponential_column_vs_exact_formula(table1_csv):
    code, elapsed, table = table1_csv
    worst = max(abs(v - e) for v, e in zip(table["exponential"], table["exact"]))
    _report(
        "1 (exponential column vs exact formula, tol 5e-5; runtime < 1 s)",
        code == 0 and elapsed < 1.0 and worst <= 5e-5,
        f"max |dev| = {worst:.2e}, runtime = {elapsed:.2f}s",
    )


def test_criterion_1_exponential_column_vs_published_digits(tmp_path):
    out = tmp_path / "stehfest2.csv"
    code = main([
        "invert", "--transform", "test_function", "--p", "0.1",
        "--method", "stehfest2", "--t", "5",
        "--u", ",".join(f"{u:g}" for u in U_POINTS), "--out", str(out),
    ])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    us = tuple(float(r[0]) for r in rows)
    devs = [abs(float(r[1]) - p) for r, p in zip(rows, PUBLISHED_EXPONENTIAL)]
    _report(
        "1 (exponential column vs published digits via order-5 Stehfest-2, tol 5e-5)",
        code == 0 and us == U_POINTS and max(devs) <= 5e-5,
        f"max |Stehfest-2 - published| = {max(devs):.2e} over {len(devs)} cells",
    )


def test_criterion_2_gamma_and_mixture_columns(table1_csv, all_table_mixtures):
    _, _, table = table1_csv
    published = {"gamma_3_2": list(PUBLISHED_GAMMA_3_2), "mixture": list(PUBLISHED_MIXTURE)}
    problems, notes = [], []
    h = 0.01
    for (name, u), corrected in PUBLISHED_ERRATA.items():
        # an erratum must be confirmed by the Volterra oracle, not by the
        # pipeline under test: the corrected digit within 1e-4 of the
        # oracle, the printed one more than 1e-4 away
        data = renewal_data_from_model(RiskModel(all_table_mixtures[name], 0.9))
        _, m = convolution_renewal_solve(data.f, data.v, 0.9, u, h)
        oracle = 1.0 - float(m[-1])
        i = U_POINTS.index(u)
        printed = published[name][i]
        notes.append(
            f"erratum {name}@u={u:g}: printed {printed}, corrected {corrected}, "
            f"Volterra (h={h:g}) {oracle:.6f}"
        )
        if abs(corrected - oracle) > 1e-4 or abs(printed - oracle) <= 1e-4:
            problems.append(f"erratum {name}@u={u:g} not confirmed by the oracle")
        published[name][i] = corrected
    worst = 0.0
    for name, column in published.items():
        for u, got, ref in zip(table["u"], table[name], column):
            worst = max(worst, abs(got - ref))
            if abs(got - ref) > 1e-4:
                problems.append(f"{name}@u={u:g}: got {got:.5f}, published {ref}")
    _report(
        "2 (gamma-3/2 and mixture columns vs published digits with errata, tol 1e-4)",
        not problems,
        "; ".join(problems + notes + [f"max |dev| = {worst:.2e} over 14 cells"]),
    )


def test_criterion_3_discretization_normalization(all_table_mixtures):
    worst_total, worst_deficit = 0.0, 0.0
    for mix in all_table_mixtures.values():
        for t in (5.0, 10.0):
            pmf = discretize_equilibrium(mix, t, int(40 * t))
            total = math.fsum(pmf.weights.tolist()) + pmf.mass_deficit
            worst_total = max(worst_total, abs(total - 1.0))
            worst_deficit = max(worst_deficit, pmf.mass_deficit)
    _report(
        "3 (sum + deficit = 1 within 1e-12; deficit < 1e-10; three models, t in {5,10})",
        worst_total < 1e-12 and worst_deficit < 1e-10,
        f"worst |sum+deficit-1| = {worst_total:.2e}, worst deficit = {worst_deficit:.2e}",
    )


def test_criterion_4_two_path_equivalence(all_table_mixtures):
    exp_mix = all_table_mixtures["exponential"]
    worst_cdf = 0.0
    for t in (5.0, 10.0):
        K = int(40 * t)
        sev = discretize_equilibrium(exp_mix, t, K)
        cdf = compound_cdf(panjer_geometric(sev, 0.9, K))
        worst_cdf = max(
            worst_cdf,
            max(
                abs(float(cdf.values[k]) - closed_form_lstar_exponential_ruin(0.9, t, k / t))
                for k in range(K + 1)
            ),
        )
    # second route: per-component survival from lgamma negative-binomial
    # masses, sharing no code with the transform oracle's term recursion
    worst_pair = 0.0
    for mix in all_table_mixtures.values():
        for t in (5.0, 10.0):
            a = discretize_equilibrium(mix, t, 400)
            b = np.zeros(401)
            for p, alpha, beta in mix.components:
                shape = RealShape(alpha, beta / (t + beta))
                masses = np.array([math.exp(negbin_logpmf(k, shape)) for k in range(401)])
                b += p * (1.0 - np.cumsum(masses))
            b /= t * mix.mean
            worst_pair = max(worst_pair, float(np.max(np.abs(a.weights - b))))
    _report(
        "4 (Panjer CDF = closed form within 1e-9; lgamma survival = oracle weights within 1e-10)",
        worst_cdf < 1e-9 and worst_pair < 1e-10,
        f"closed-form dev = {worst_cdf:.2e}, two-route weight dev = {worst_pair:.2e}",
    )


def test_criterion_5_convergence_order(all_table_mixtures):
    model = RiskModel(all_table_mixtures["exponential"], 0.9)
    errs = {}
    for t in (5.0, 10.0):
        approx = approximate_nonruin(model, t, 40.0)
        K = approx.lattice.truncation_index
        errs[t] = max(
            abs(float(approx.lattice.values[k]) - exact_nonruin_exponential(0.9, 1.0, k / t))
            for k in range(K + 1)
        )
    order = math.log2(errs[5.0] / errs[10.0])
    _report(
        "5 (empirical order log2(e(5)/e(10)) in [1.6, 2.6])",
        1.6 <= order <= 2.6,
        f"e(5) = {errs[5.0]:.2e}, e(10) = {errs[10.0]:.2e}, order = {order:.3f}",
    )


def test_criterion_6_bound_validity_and_scaling(all_table_mixtures):
    exp_mix = all_table_mixtures["exponential"]
    valid = True
    details = []
    for phi in (0.5, 0.9):
        model = RiskModel(exp_mix, phi)
        _, report = ruin_bound_report(model)
        for t in (5.0, 10.0):
            approx = approximate_nonruin(model, t, 40.0)
            K = approx.lattice.truncation_index
            observed = max(
                abs(float(approx.lattice.values[k]) - exact_nonruin_exponential(phi, 1.0, k / t))
                for k in range(K + 1)
            )
            bound = report.total_bound(t)
            valid = valid and bound >= observed
            details.append(f"phi={phi},t={t}: bound {bound:.2e} >= obs {observed:.2e}")
        consts = [report.total_bound(t) * t * t for t in (1.0, 2.0, 5.0, 10.0, 100.0)]
        spread = (max(consts) - min(consts)) / max(consts)
        valid = valid and spread < 1e-14
        details.append(f"phi={phi}: t^2-scaling spread {spread:.1e}")
    _report("6 (bound >= observed error; bound * t^2 constant to 1e-14)",
            valid, "; ".join(details))


def test_criterion_7_special_functions():
    worst_nb = 0.0
    for alpha in (1, 2, 5):
        for rho in (0.1, 0.5, 0.9):
            shape = RealShape(float(alpha), rho)
            for k in range(0, 201, 8):
                brute = math.fsum(
                    math.comb(alpha + j - 1, j) * (1.0 - rho) ** j * rho**alpha
                    for j in range(k + 1)
                )
                worst_nb = max(worst_nb, abs(negbin_cdf(k, shape) - brute))
    lg_checks = [
        (1.0, 0.0),
        (5.0, math.log(24.0)),
        (0.5, 0.5 * math.log(math.pi)),
        (12.0, math.log(math.factorial(11))),
        (100.5, 361.4355404677776215553),
    ]
    worst_lg = max(
        abs(log_gamma(x) - ref) / max(1.0, abs(ref)) for x, ref in lg_checks
    )
    _report(
        "7 (negative-binomial CDF vs brute force within 1e-12; log-gamma within 1e-13)",
        worst_nb < 1e-12 and worst_lg < 1e-13,
        f"nb dev = {worst_nb:.2e}, log-gamma rel dev = {worst_lg:.2e}",
    )


def test_criterion_8_ratio_oracle(all_table_mixtures):
    data = renewal_data_from_model(RiskModel(all_table_mixtures["exponential"], 0.9))
    t = 5.0
    derivs = renewal_ratio_derivs(data.v_oracle, data.f_oracle, 0.9, t, 60)
    worst = 0.0
    for k in range(61):
        expected = 0.9 * (-1.0) ** k * math.factorial(k) / (t + 0.1) ** (k + 1)
        worst = max(worst, abs(derivs[k] - expected) / abs(expected))
    _report(
        "8 (renewal-ratio derivatives vs closed form, rel 1e-9, k <= 60)",
        worst < 1e-9,
        f"worst rel dev = {worst:.2e}",
    )
