"""Command-line front end.

Subcommands: ``table1`` (reference non-ruin table for three claim models),
``ruin`` (full pipeline to CSV), ``invert`` (generic operator evaluation on
built-in transforms), ``bound`` (a-priori error-bound report as JSON) and
``convergence`` (empirical order study).

Exit codes: 0 success, 1 table check failed, 2 usage, parse or domain
error, 3 admissibility error, 4 numerical failure.

The module parses and prints: the rules on a spec and on an operator's
arguments are the library's own checks, whose ``DomainError`` exits 2 with
the ``error:`` prefix of a usage error.  A spec's p, alpha and beta must
be JSON numbers and go to :class:`GammaMixture` as they are; the
Post-Widder ``--t`` goes to the operator as an int when it is integral,
and as given otherwise.  ``invert`` hands its ``--u`` points to the library
as one array for the exact column, for ``lstar``, whose points share one
oracle pass, and for ``m2``'s lattice; Post-Widder runs one pass per point
at n/u.  ``table1`` reads each model's lattice in one call, and
``convergence`` reads its reference lattice as it reads any other.

The argument parser is built once, at import, and serves every :func:`main`
call in the process.  :func:`main` dispatches by command name to the
module's current ``cmd_<command>`` binding, so a ``cmd_*`` function replaced
on the module after import is the one that runs.  CSV output (``ruin``,
``invert``, ``table1 --format csv``) is formatted from float columns a block
of rows at a time, each cell as ``f"{x:.17g}"``, and each block is written as
soon as it is formatted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Iterator

import numpy as np

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

# rows per formatted CSV block: large enough that the per-block cost vanishes,
# small enough that a 2^20-row table never exists as Python floats or text
_CSV_BLOCK_ROWS = 4096


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(chunks, out_path: str | None) -> None:
    """Write an iterable of text chunks to ``out_path``, or to stdout when it is None."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc}") from exc


def _csv(header: list[str], columns) -> Iterator[str]:
    """Yield a CSV of equal-length float columns: the header line, then blocks of rows.

    Every cell reads ``f"{x:.17g}"``.  A block of ``_CSV_BLOCK_ROWS`` rows
    is formatted by one ``%`` over its values, so a caller that writes each
    chunk as it comes holds one block of Python floats and text at a time.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    yield ",".join(header) + "\n"
    for start in range(0, columns[0].size, _CSV_BLOCK_ROWS):
        block = np.column_stack([col[start:start + _CSV_BLOCK_ROWS] for col in columns])
        yield row * len(block) % tuple(block.ravel().tolist())


def _load_mixture(path: str) -> GammaMixture:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read spec file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise _UsageError(f"spec file {path} is not valid JSON: {exc}") from exc
    comps = raw.get("components") if isinstance(raw, dict) else None
    if not isinstance(comps, list) or not comps:
        raise _UsageError("spec must be an object with a nonempty 'components' array")
    parsed = []
    for entry in comps:
        fields = [(entry if isinstance(entry, dict) else {}).get(k) for k in ("p", "alpha", "beta")]
        # JSON numbers only: float() would also read a string or a boolean
        if not all(type(x) in (int, float) for x in fields):
            raise _UsageError(f"component {entry!r} needs numeric fields p, alpha, beta")
        try:
            parsed.append(tuple(map(float, fields)))
        except OverflowError as exc:
            raise _UsageError(f"component {entry!r} has an integer field beyond the floats") from exc
    return GammaMixture(tuple(parsed))


def _reals(text: str, flag: str) -> list[float]:
    """The reals of a comma-separated list; empty items are skipped."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"{flag} must be a comma-separated list of reals: {exc}") from exc
    if not values:
        raise _UsageError(f"{flag} must contain at least one value")
    return values


def cmd_table1(args) -> int:
    models = {
        "exponential": GammaMixture.exponential(),
        "gamma_3_2": GammaMixture((Component(1.0, 1.5, 1.0),)),
        "mixture": GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0))),
    }
    columns = {"u": list(TABLE1_U)}
    for name, mix in models.items():
        approx = approximate_nonruin(RiskModel(mix, TABLE1_PHI), TABLE1_T, max(TABLE1_U))
        columns[name] = approx.lattice(np.array(TABLE1_U)).tolist()
    exact = exact_nonruin_exponential(TABLE1_PHI, 1.0, TABLE1_U).tolist()
    dev = [abs(a - b) for a, b in zip(columns["exponential"], exact)]
    columns["exact_exponential"] = exact
    columns["abs_dev_exponential"] = dev

    header = list(columns)
    if args.format == "csv":
        _write(_csv(header, columns.values()), args.out)
    elif args.format == "json":
        _write((json.dumps(columns, indent=2) + "\n",), args.out)
    else:
        width = 22
        lines = ["| " + " | ".join(h.ljust(width) for h in header) + " |"]
        lines.append("|" + "|".join("-" * (width + 2) for _ in header) + "|")
        for row in zip(*columns.values()):
            cells = [f"{row[0]:g}".ljust(width)] + [f"{x:.4f}".ljust(width) for x in row[1:-1]]
            cells.append(f"{row[-1]:.2e}".ljust(width))
            lines.append("| " + " | ".join(cells) + " |")
        _write(("\n".join(lines) + "\n",), args.out)
    if max(dev) > 1e-4:
        print(f"exponential column deviates from the exact formula by {max(dev):.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_ruin(args) -> int:
    model = RiskModel(_load_mixture(args.spec), args.phi)
    approx = approximate_nonruin(model, args.t, args.u_max)

    K = approx.lattice.truncation_index
    plain = lstar_nonruin(model, args.t, K)

    m2 = approx.lattice.values
    columns = [np.arange(K + 1) / args.t, m2, 1.0 - m2, plain.values]
    _write(_csv(["u", "nonruin_M2", "ruin_M2", "nonruin_L"], columns), args.out)
    return 0


def _build_transform(args):
    a, p = args.a, args.p
    if args.transform == "exp_decay":
        return ExponentialDecayLST(a), (lambda u: np.exp(-a * u)), 1.0
    if args.transform == "test_function":
        if not 0 < p < 1:
            raise _UsageError(f"--p must be in (0, 1), got {p}")
        oracle = SumLST(ConstantLST(1.0), ScaledLST(-(1.0 - p), ExponentialDecayLST(p)))
        return oracle, (lambda u: 1.0 - (1.0 - p) * np.exp(-p * u)), p
    if args.spec is None:  # gamma_mixture, the last of the parser's choices
        raise _UsageError("--spec is required for the gamma_mixture transform")
    mix = _load_mixture(args.spec)
    return CumulativeLST(GammaMixtureLST(mix)), mix.cdf, 0.0


def cmd_invert(args) -> int:
    oracle, exact_fn, g0 = _build_transform(args)
    u_values = np.array(_reals(args.u, "--u"))

    if args.method in ("postwidder", "stehfest2"):
        # any --t but an integral one goes on as given, for the operator to refuse
        n = int(args.t) if args.t.is_integer() else args.t
        op = post_widder if args.method == "postwidder" else stehfest2
        values = [op(oracle, n, u) for u in u_values]
    elif args.method == "lstar":
        values = l_star(oracle, args.t, u_values)
    else:  # m2, the last of the parser's choices
        values = m2_lattice(oracle, args.t, covering_index(args.t, max(u_values)), g0)(u_values)

    with np.errstate(over="ignore"):  # a product past the floats is inf, and exp(-inf) = 0
        exact = exact_fn(u_values)
    error = np.abs(np.subtract(values, exact))
    _write(_csv(["u", args.method, "exact", "abs_error"], [u_values, values, exact, error]), args.out)
    return 0


def cmd_bound(args) -> int:
    model = RiskModel(_load_mixture(args.spec), args.phi)
    ledger, report = ruin_bound_report(model)
    payload = {
        "phi": args.phi,
        "t": args.t,
        **dataclasses.asdict(ledger),
        **{f"{name}_bound": value for name, value in dataclasses.asdict(report).items()},
        "total_bound": report.total_bound(args.t),
    }
    _write((json.dumps(payload, indent=2) + "\n",), args.out)
    return 0


def cmd_convergence(args) -> int:
    t_list = _reals(args.t_list, "--t-list")
    model = RiskModel(_load_mixture(args.spec), args.phi)

    # ascending rates let M2 at 2t reuse the pass at 2t that M2 at t has just run
    curves = {t: approximate_nonruin(model, t, args.u_max).lattice.values
              for t in sorted(set(t_list))}
    comps = model.claims.components
    if len(comps) == 1 and comps[0].alpha == 1.0:
        reference = lambda u: exact_nonruin_exponential(args.phi, comps[0].beta, u)
    else:
        # the coarse lattices end at K/t >= u_max, so the reference must reach the last of
        # them; it is read at every coarse point by one lattice call per rate
        u_ref = max((values.size - 1) / t for t, values in curves.items())
        reference = approximate_nonruin(model, 8.0 * max(t_list), u_ref).lattice

    errors = {t: float(np.max(np.abs(values - reference(np.arange(values.size) / t))))
              for t, values in curves.items()}

    lines = ["t,sup_error,order_vs_double"]
    for t in t_list:
        doubled = next((s for s in t_list if abs(s - 2.0 * t) < 1e-12), None)
        if doubled is not None and errors[doubled] > 0:
            order = _fmt(math.log2(errors[t] / errors[doubled]))
        else:
            order = ""
        lines.append(f"{_fmt(t)},{_fmt(errors[t])},{order}")
    _write(("\n".join(lines) + "\n",), args.out)
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

    p = sub.add_parser("ruin", help="non-ruin pipeline over a lattice, to CSV")
    p.add_argument("--spec", required=True, help="gamma-mixture JSON file")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--u-max", type=float, required=True, dest="u_max")
    p.add_argument("--out", default=None)

    p = sub.add_parser("invert", help="evaluate an inversion operator on a built-in transform")
    p.add_argument("--transform", choices=("exp_decay", "test_function", "gamma_mixture"), required=True)
    p.add_argument("--a", type=float, default=1.0, help="decay rate for exp_decay")
    p.add_argument("--p", type=float, default=0.1, help="parameter for test_function")
    p.add_argument("--spec", default=None, help="mixture JSON for gamma_mixture")
    p.add_argument("--method", choices=("lstar", "m2", "postwidder", "stehfest2"), required=True)
    p.add_argument("--t", type=float, required=True,
                   help="lattice rate (lstar, m2) or integer order (postwidder, stehfest2)")
    p.add_argument("--u", required=True, help="comma-separated evaluation points")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bound", help="a-priori error-bound report as JSON")
    p.add_argument("--spec", required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("convergence", help="empirical order study across lattice rates")
    p.add_argument("--spec", required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--t-list", required=True, dest="t_list")
    p.add_argument("--u-max", type=float, required=True, dest="u_max")
    p.add_argument("--out", default=None)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (_UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return 3
    except (NegativeWeightError, SingularityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
