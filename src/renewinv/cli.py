"""Command-line front end.

Subcommands: ``table1`` (reference non-ruin table for three claim models),
``ruin`` (full pipeline to CSV), ``invert`` (generic operator evaluation on
built-in transforms), ``bound`` (a-priori error-bound report as JSON) and
``convergence`` (empirical order study).

Exit codes: 0 success, 1 table check failed, 2 usage or parse error,
3 admissibility error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bounds import ruin_bound_report
from .errors import AdmissibilityError, DomainError, NegativeWeightError, SingularityError
from .inversion import covering_index, l_star, m2_lattice, post_widder, stehfest2
from .ruin import approximate_nonruin, exact_nonruin_exponential, lstar_nonruin, RiskModel
from .transforms import (
    Component,
    CumulativeLST,
    ExponentialDecayLST,
    GammaMixture,
    GammaMixtureLST,
    ScaledLST,
    SumLST,
    ConstantLST,
)

TABLE1_U = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0)
TABLE1_PHI = 0.9
TABLE1_T = 5.0


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc}") from exc


def _csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_mixture(path: str) -> GammaMixture:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"spec file {path} is not valid JSON: {exc}") from exc
    comps = raw.get("components") if isinstance(raw, dict) else None
    if not isinstance(comps, list) or not comps:
        raise _UsageError("spec must be an object with a nonempty 'components' array")
    parsed = []
    for entry in comps:
        try:
            p, alpha, beta = float(entry["p"]), float(entry["alpha"]), float(entry["beta"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"component {entry!r} needs numeric fields p, alpha, beta") from exc
        if not alpha > 0 or not beta > 0:
            raise _UsageError(f"component {entry!r} has non-positive alpha or beta")
        if not p > 0:
            raise _UsageError(f"component {entry!r} has non-positive weight")
        parsed.append((p, alpha, beta))
    total = math.fsum(p for p, _, _ in parsed)
    if abs(total - 1.0) > 1e-9:
        raise _UsageError(f"component weights sum to {total}, expected 1 within 1e-9")
    return GammaMixture(tuple(Component(p / total, a, b) for p, a, b in parsed))


def _lattice_values(approx, u_values):
    return [approx.lattice(u) for u in u_values]


def cmd_table1(args) -> int:
    models = {
        "exponential": GammaMixture.exponential(),
        "gamma_3_2": GammaMixture((Component(1.0, 1.5, 1.0),)),
        "mixture": GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0))),
    }
    columns = {}
    for name, mix in models.items():
        approx = approximate_nonruin(RiskModel(mix, TABLE1_PHI), TABLE1_T, max(TABLE1_U))
        columns[name] = _lattice_values(approx, TABLE1_U)
    exact = [exact_nonruin_exponential(TABLE1_PHI, 1.0, u) for u in TABLE1_U]
    dev = [abs(a - b) for a, b in zip(columns["exponential"], exact)]

    header = ["u", "exponential", "gamma_3_2", "mixture", "exact_exponential", "abs_dev_exponential"]
    rows = [
        [u, columns["exponential"][i], columns["gamma_3_2"][i], columns["mixture"][i], exact[i], dev[i]]
        for i, u in enumerate(TABLE1_U)
    ]
    if args.format == "csv":
        _write(_csv(header, rows), args.out)
    elif args.format == "json":
        payload = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        width = 22
        lines = ["| " + " | ".join(h.ljust(width) for h in header) + " |"]
        lines.append("|" + "|".join("-" * (width + 2) for _ in header) + "|")
        for row in rows:
            cells = [f"{row[0]:g}".ljust(width)] + [f"{x:.4f}".ljust(width) for x in row[1:-1]]
            cells.append(f"{row[-1]:.2e}".ljust(width))
            lines.append("| " + " | ".join(cells) + " |")
        _write("\n".join(lines) + "\n", args.out)
    if max(dev) > 1e-4:
        print(f"exponential column deviates from the exact formula by {max(dev):.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_ruin(args) -> int:
    if not args.u_max > 0:
        raise _UsageError(f"--u-max must be positive, got {args.u_max}")
    if not args.t > 0:
        raise _UsageError(f"--t must be positive, got {args.t}")
    model = RiskModel(_load_mixture(args.spec), args.phi)
    approx = approximate_nonruin(model, args.t, args.u_max)

    K = approx.lattice.truncation_index
    plain = lstar_nonruin(model, args.t, K)

    rows = []
    for k in range(K + 1):
        u = k / args.t
        nonruin = float(approx.lattice.values[k])
        rows.append([u, nonruin, 1.0 - nonruin, float(plain.values[k])])
    _write(_csv(["u", "nonruin_M2", "ruin_M2", "nonruin_L"], rows), args.out)
    return 0


def _build_transform(args):
    if args.transform == "exp_decay":
        a = args.a if args.a is not None else 1.0
        oracle = ExponentialDecayLST(a)
        return oracle, (lambda u: math.exp(-a * u)), 1.0
    if args.transform == "test_function":
        p = args.p if args.p is not None else 0.1
        if not 0 < p < 1:
            raise _UsageError(f"--p must be in (0, 1), got {p}")
        oracle = SumLST(ConstantLST(1.0), ScaledLST(-(1.0 - p), ExponentialDecayLST(p)))
        return oracle, (lambda u: 1.0 - (1.0 - p) * math.exp(-p * u)), p
    if args.transform == "gamma_mixture":
        if args.spec is None:
            raise _UsageError("--spec is required for the gamma_mixture transform")
        mix = _load_mixture(args.spec)
        return CumulativeLST(GammaMixtureLST(mix)), mix.cdf, 0.0
    raise _UsageError(f"unknown transform {args.transform!r}")


def cmd_invert(args) -> int:
    oracle, exact_fn, g0 = _build_transform(args)
    try:
        u_values = [float(tok) for tok in args.u.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"--u must be a comma-separated list of reals: {exc}") from exc
    if not u_values:
        raise _UsageError("--u must contain at least one value")

    if args.method in ("postwidder", "stehfest2"):
        if not math.isfinite(args.t) or args.t <= 0 or args.t != int(args.t):
            raise _UsageError(f"--t must be a positive integer for {args.method}, got {args.t}")
        n = int(args.t)
        op = post_widder if args.method == "postwidder" else stehfest2
        values = [op(oracle, n, u) for u in u_values]
    elif args.method == "lstar":
        values = [l_star(oracle, args.t, u) for u in u_values]
    elif args.method == "m2":
        lattice = m2_lattice(oracle, args.t, covering_index(args.t, max(u_values)), g0)
        values = [lattice(u) for u in u_values]
    else:
        raise _UsageError(f"unknown method {args.method!r}")

    rows = [
        [u, val, exact_fn(u), abs(val - exact_fn(u))]
        for u, val in zip(u_values, values)
    ]
    _write(_csv(["u", args.method, "exact", "abs_error"], rows), args.out)
    return 0


def cmd_bound(args) -> int:
    if not 0 < args.t < math.inf:
        raise _UsageError(f"--t must be positive and finite, got {args.t}")
    mix = _load_mixture(args.spec)
    model = RiskModel(mix, args.phi)
    ledger, report = ruin_bound_report(model)
    payload = {
        "phi": args.phi,
        "t": args.t,
        **dataclasses.asdict(ledger),
        **{f"{name}_bound": value for name, value in dataclasses.asdict(report).items()},
        "total_bound": report.total_bound(args.t),
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_convergence(args) -> int:
    if not args.u_max > 0:
        raise _UsageError(f"--u-max must be positive, got {args.u_max}")
    try:
        t_list = [float(tok) for tok in args.t_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"--t-list must be a comma-separated list of reals: {exc}") from exc
    if not t_list or any(t <= 0 for t in t_list):
        raise _UsageError("--t-list needs at least one positive rate")
    mix = _load_mixture(args.spec)
    model = RiskModel(mix, args.phi)

    comps = mix.components
    if len(comps) == 1 and comps[0].alpha == 1.0:
        beta = comps[0].beta
        reference = lambda u: exact_nonruin_exponential(args.phi, beta, u)
    else:
        # the coarse lattices end at K/t >= u_max, so the reference must reach the last of them
        u_ref = max(covering_index(t, args.u_max) / t for t in t_list)
        reference = approximate_nonruin(model, 8.0 * max(t_list), u_ref).lattice

    errors = {}
    for t in t_list:
        approx = approximate_nonruin(model, t, args.u_max)
        K = approx.lattice.truncation_index
        sup = max(
            abs(float(approx.lattice.values[k]) - reference(k / t)) for k in range(K + 1)
        )
        errors[t] = sup

    lines = ["t,sup_error,order_vs_double"]
    for t in t_list:
        doubled = next((s for s in t_list if abs(s - 2.0 * t) < 1e-12), None)
        if doubled is not None and errors[doubled] > 0:
            order = _fmt(math.log2(errors[t] / errors[doubled]))
        else:
            order = ""
        lines.append(f"{_fmt(t)},{_fmt(errors[t])},{order}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewinv",
        description="Gamma-operator Laplace inversion for renewal equations and ruin probabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reference non-ruin table for three claim models")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("ruin", help="non-ruin pipeline over a lattice, to CSV")
    p.add_argument("--spec", required=True, help="gamma-mixture JSON file")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--u-max", type=float, required=True, dest="u_max")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ruin)

    p = sub.add_parser("invert", help="evaluate an inversion operator on a built-in transform")
    p.add_argument("--transform", choices=("exp_decay", "test_function", "gamma_mixture"), required=True)
    p.add_argument("--a", type=float, default=None, help="decay rate for exp_decay")
    p.add_argument("--p", type=float, default=None, help="parameter for test_function")
    p.add_argument("--spec", default=None, help="mixture JSON for gamma_mixture")
    p.add_argument("--method", choices=("lstar", "m2", "postwidder", "stehfest2"), required=True)
    p.add_argument("--t", type=float, required=True,
                   help="lattice rate (lstar, m2) or integer order (postwidder, stehfest2)")
    p.add_argument("--u", required=True, help="comma-separated evaluation points")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("bound", help="a-priori error-bound report as JSON")
    p.add_argument("--spec", required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("convergence", help="empirical order study across lattice rates")
    p.add_argument("--spec", required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--t-list", required=True, dest="t_list")
    p.add_argument("--u-max", type=float, required=True, dest="u_max")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return 3
    except (NegativeWeightError, SingularityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
