"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Every workload runs the paper's three table models at phi = 0.9
(exponential, gamma(3/2), and the 50/50 mixture of the two), in an order
drawn from the seed.  They carry the accuracy metrics, which must not
depend on the seed: ``sup_err`` comes from the exponential model, whose
non-ruin probability is known in closed form, and ``bound_coeff`` averages
t^2 * total_bound(t) over the three.  sweep-coarse adds seeded random
admissible mixtures.

Checks run outside the timed region and return a list of problems; an empty
list means the op's output is correct.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Package functions are looked up on the package at call time, so that the
# traced run's wrappers, which patch the package namespaces, see the calls.
import renewinv as rv
from renewinv import cli, Component, GammaMixture

U_MAX = 40.0
TABLE_PHI = 0.9
ROUTE_TOL = 1e-10
# ruin-fine is compared with the ratio route on u <= 10 only: that route's
# fsum loop is O(K^2) in Python, ~2.4 s per model on the whole lattice at
# t = 100 and four times that at t = 200, about 37 s per run.  Both routes
# give each lattice value from the prefix up to it, so a prefix comparison
# is exact for the points it covers.
RUIN_FINE_CHECK_U = 10.0
BOUND_CHECK_T = (5.0, 40.0)
RANDOM_MIXTURES = 60
# Loading factors of the random mixtures.  Below 0.85 the lightest claims
# drawn (exponential, rate 2) bring the non-ruin curve within 1e-9 of 1
# before u = 40, where the known M2 tail defect (perfbench/README.md) makes
# it exceed 1 and decrease.  At 0.85 the ruin probability at u = 40 is at
# least 0.85 exp(-0.15 * 2 * 40) = 5.2e-6 for any mixture drawn.
RANDOM_PHI = (0.85, 0.95)
_BLOCK = 6  # random mixtures are drawn in Latin-hypercube blocks of this size


@dataclass(frozen=True)
class Case:
    """One input of a workload: a named claim model and loading factor."""

    name: str
    mixture: GammaMixture
    phi: float
    spec_path: str | None = None

    @property
    def model(self) -> rv.RiskModel:
        return rv.RiskModel(self.mixture, self.phi)

    def describe(self) -> str:
        comps = ", ".join(f"({p!r}, {a!r}, {b!r})" for p, a, b in self.mixture.components)
        return f"{self.name} phi={self.phi!r} components=[{comps}]"


TABLE_NAMES = ("exponential", "gamma_3_2", "mixture")


def table_cases() -> list[Case]:
    return [
        Case("exponential", GammaMixture.exponential(), TABLE_PHI),
        Case("gamma_3_2", GammaMixture((Component(1.0, 1.5, 1.0),)), TABLE_PHI),
        Case("mixture", GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0))), TABLE_PHI),
    ]


def _lhs_column(rng: random.Random, n: int) -> list[float]:
    col = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(col)
    return col


def random_cases(seed: int, n: int = RANDOM_MIXTURES) -> list[Case]:
    """Seeded admissible mixtures: 1-3 components, alpha in [1, 4], beta in
    [0.5, 2], phi in RANDOM_PHI.

    Component counts cycle 1, 2, 3 and each parameter is a Latin-hypercube
    column within blocks of six, so that even a short run covers the
    parameter ranges evenly and its cost does not hinge on a few draws.
    """
    rng = random.Random(seed)
    cases = []
    for start in range(0, n, _BLOCK):
        size = min(_BLOCK, n - start)
        alpha = [_lhs_column(rng, size) for _ in range(3)]
        beta = [_lhs_column(rng, size) for _ in range(3)]
        weight = [_lhs_column(rng, size) for _ in range(3)]
        phi = _lhs_column(rng, size)
        for j in range(size):
            k = 1 + (start + j) % 3
            raw = [0.5 + weight[c][j] for c in range(k)]
            total = math.fsum(raw)
            comps = tuple(
                Component(raw[c] / total, 1.0 + 3.0 * alpha[c][j], 0.5 + 1.5 * beta[c][j])
                for c in range(k)
            )
            phi_lo, phi_hi = RANDOM_PHI
            cases.append(Case(f"random{start + j}", GammaMixture(comps),
                              phi_lo + (phi_hi - phi_lo) * phi[j]))
    return cases


def write_specs(cases: list[Case], workdir: Path) -> list[Case]:
    """Write each case's mixture as a CLI spec file and return cases that name it."""
    out = []
    for case in cases:
        path = workdir / f"{case.name}.json"
        payload = {
            "name": case.name,
            "components": [{"p": p, "alpha": a, "beta": b} for p, a, b in case.mixture.components],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        out.append(Case(case.name, case.mixture, case.phi, str(path)))
    return out


def lattice_size(t: float) -> int:
    k, frac = rv.lattice_index(t, U_MAX)
    return max(k if frac == 0.0 else k + 1, 1)


def nonruin_oracle(case: Case):
    """1 - m for the ruin function m, whose transform is the renewal ratio."""
    data = rv.renewal_data_from_model(case.model)
    ruin = rv.RenewalRatioLST(data.v_oracle, data.f_oracle, case.phi)
    return rv.SumLST(rv.ConstantLST(1.0), rv.ScaledLST(-1.0, ruin))


def curve_problems(values: np.ndarray, phi: float, label: str) -> list[str]:
    """Non-ruin values must be finite, lie in [1 - phi, 1] and not decrease in u."""
    problems = []
    if not np.all(np.isfinite(values)):
        problems.append(f"{label}: non-finite value")
        return problems
    lo, hi = float(values.min()), float(values.max())
    if lo < 1.0 - phi or hi > 1.0:
        problems.append(f"{label}: value outside [1-phi, 1]: min {lo!r}, max {hi!r}")
    steps = np.diff(values)
    if steps.size and steps.min() < 0.0:
        k = int(np.argmin(steps))
        problems.append(f"{label}: decreases by {float(-steps[k])!r} at k={k + 1}")
    return problems


class Checker:
    """Checks op outputs against independent routes and the error bound.

    Caches one reference per distinct input, so each costs once per run,
    and collects the accuracy metrics.
    """

    def __init__(self):
        self._refs: dict[tuple, object] = {}
        self._bounds: dict[str, object] = {}
        self.sup_errs: list[float] = []

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def bound_report(self, case: Case):
        if case.name not in self._bounds:
            self._bounds[case.name] = rv.ruin_bound_report(case.model)[1]
        return self._bounds[case.name]

    def record_bound(self, case: Case, report) -> None:
        self._bounds.setdefault(case.name, report)

    def bound_coeff(self) -> float:
        """t^2 * total_bound(t), averaged over the three table models."""
        return float(np.mean([self.bound_report(c).total_bound(1.0) for c in table_cases()]))

    def exponential_problems(self, case: Case, t: float, values: np.ndarray) -> list[str]:
        """The exponential model must stay within total_bound(t) of the exact formula."""
        if case.name != "exponential":
            return []
        u = np.arange(values.size) / t
        exact = 1.0 - case.phi * np.exp(-(1.0 - case.phi) * u)
        err = float(np.max(np.abs(values - exact)))
        self.sup_errs.append(err)
        bound = self.bound_report(case).total_bound(t)
        if not err <= bound:
            return [f"exponential t={t}: error {err!r} exceeds total_bound {bound!r}"]
        return []

    def ratio_route(self, case: Case, t: float, K: int) -> tuple[np.ndarray, np.ndarray]:
        """(M2 values, plain L values) on {k/t, k <= K} by the renewal-ratio route."""

        def make():
            oracle = nonruin_oracle(case)
            m2 = rv.m2_lattice(oracle, t, K, 1.0 - case.phi).values
            plain = t * oracle.weights(t, K)
            return m2, plain

        return self._ref(("ratio", case.name, t, K), make)

    def panjer_route(self, case: Case, t: float) -> np.ndarray:
        return self._ref(
            ("panjer", case.name, t), lambda: rv.approximate_nonruin(case.model, t, U_MAX).lattice.values
        )


def _route_problems(label: str, got: np.ndarray, ref: np.ndarray) -> list[str]:
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} != reference {ref.shape}"]
    diff = float(np.max(np.abs(got - ref)))
    if not diff <= ROUTE_TOL:
        return [f"{label}: differs from the independent route by {diff!r} > {ROUTE_TOL}"]
    return []


class Workload:
    """A named input set, the op timed on each input, and its checks."""

    name = ""
    tail_pct = 50.0  # highest tail percentile reported; see run.tail_percentile
    reference = "interpreter"  # reference loop for op latencies; see run.REFERENCES

    def build(self, seed: int, workdir: Path) -> list[Case]:
        """The table models, in an order drawn from the seed."""
        cases = table_cases()
        random.Random(seed).shuffle(cases)
        return cases

    def op(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, result, checker: Checker) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, result) -> bytes:
        """Exact byte image of an op's output."""
        return b"".join(np.asarray(v).tobytes() for v in result)

    def output_bytes(self, result) -> int:
        return 0


class RuinFine(Workload):
    """approximate_nonruin on the table models at t = 100 and t = 200."""

    name = "ruin-fine"
    tail_pct = 75.0
    rates = (100.0, 200.0)

    def op(self, case):
        return [rv.approximate_nonruin(case.model, t, U_MAX).lattice.values for t in self.rates]

    def check(self, case, result, checker):
        problems = []
        for t, values in zip(self.rates, result):
            label = f"t={t}"
            problems += curve_problems(values, case.phi, label)
            problems += checker.exponential_problems(case, t, values)
            K = lattice_size(t)
            if values.size != K + 1:
                problems.append(f"{label}: {values.size} lattice values, expected {K + 1}")
                continue
            k_check = int(round(RUIN_FINE_CHECK_U * t))
            ref, _ = checker.ratio_route(case, t, k_check)
            problems += _route_problems(f"{label} vs ratio route", values[: k_check + 1], ref)
        return problems


class RenewalOracle(Workload):
    """m2_lattice over 1 - RenewalRatioLST on the table models at t = 10 and 20."""

    name = "renewal-oracle"
    tail_pct = 90.0
    rates = (10.0, 20.0)

    def op(self, case):
        return [
            rv.m2_lattice(nonruin_oracle(case), t, lattice_size(t), 1.0 - case.phi).values
            for t in self.rates
        ]

    def check(self, case, result, checker):
        problems = []
        for t, values in zip(self.rates, result):
            label = f"t={t}"
            problems += curve_problems(values, case.phi, label)
            problems += checker.exponential_problems(case, t, values)
            problems += _route_problems(f"{label} vs Panjer route", values, checker.panjer_route(case, t))
        return problems


class SweepCoarse(Workload):
    """In-process ``renewinv ruin`` at t = 5 on the table models and random mixtures."""

    name = "sweep-coarse"
    tail_pct = 99.0
    reference = "mixed"
    t = 5.0
    header = "u,nonruin_M2,ruin_M2,nonruin_L"

    def build(self, seed, workdir):
        return write_specs(table_cases() + random_cases(seed), workdir)

    def op(self, case):
        out = io.StringIO()
        argv = ["ruin", "--spec", case.spec_path, "--phi", repr(case.phi),
                "--t", repr(self.t), "--u-max", repr(U_MAX)]
        with redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def fingerprint(self, result):
        return repr(result[0]).encode() + result[1].encode("utf-8")

    def output_bytes(self, result):
        return len(result[1].encode("utf-8"))

    def check(self, case, result, checker):
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        lines = text.splitlines()
        if not lines or lines[0] != self.header:
            return [f"unexpected CSV header {lines[:1]!r}"]
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        K = lattice_size(self.t)
        if table.shape != (K + 1, 4):
            return [f"CSV has shape {table.shape}, expected {(K + 1, 4)}"]
        u, m2, ruin, plain = table.T
        problems = []
        if not np.array_equal(u, np.arange(K + 1) / self.t):
            problems.append("u column is not the lattice k/t")
        if not np.array_equal(ruin, 1.0 - m2):
            problems.append("ruin_M2 is not 1 - nonruin_M2")
        problems += curve_problems(m2, case.phi, "nonruin_M2")
        problems += curve_problems(plain, case.phi, "nonruin_L")
        problems += checker.exponential_problems(case, self.t, m2)
        ref_m2, ref_plain = checker.ratio_route(case, self.t, K)
        problems += _route_problems("nonruin_M2 vs ratio route", m2, ref_m2)
        problems += _route_problems("nonruin_L vs ratio route", plain, ref_plain)
        return problems


class BoundLedger(Workload):
    """ruin_bound_report on the table models.

    Not on random mixtures: their reports take 0.8-4.2 s, in steps set by
    how many grid passes the sup-norm search needs, so the dozen ops that
    fit in a run gave medians 24-31% apart from seed to seed.
    """

    name = "bound-ledger"
    tail_pct = 50.0

    def op(self, case):
        return rv.ruin_bound_report(case.model)

    def fingerprint(self, result):
        return repr(result).encode()  # dataclass reprs print every float exactly

    def check(self, case, result, checker):
        """The report must be finite and cover the error seen on the lattice.

        For the exponential model the error is against the exact formula.
        Otherwise sup |M2_5 - M2_40| <= bound(5) + bound(40) is a necessary
        condition of the bound holding at both rates.
        """
        _, report = result
        checker.record_bound(case, report)
        coeff = report.total_bound(1.0)
        if not (math.isfinite(coeff) and coeff > 0.0):
            return [f"t^2 * total_bound is {coeff!r}"]
        lo, hi = BOUND_CHECK_T
        curve_lo = checker.panjer_route(case, lo)
        if case.name == "exponential":
            return checker.exponential_problems(case, lo, curve_lo)
        curve_hi = checker.panjer_route(case, hi)[:: int(hi / lo)]
        seen = float(np.max(np.abs(curve_lo - curve_hi)))
        allowed = report.total_bound(lo) + report.total_bound(hi)
        if not seen <= allowed:
            return [f"|M2_{lo} - M2_{hi}| = {seen!r} exceeds bound sum {allowed!r}"]
        return []


WORKLOADS = {w.name: w for w in (RuinFine(), SweepCoarse(), BoundLedger(), RenewalOracle())}

