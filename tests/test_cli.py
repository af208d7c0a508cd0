import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from renewinv import BoundReport, GammaMixture, NormLedger, RiskModel, ruin_bound_report
from renewinv import cli, inversion, ruin
from renewinv.cli import main
from renewinv.ruin import approximate_nonruin, lstar_nonruin


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_csv(header, rows):
    """The CSV as a per-value join of f"{x:.17g}" cells, the reference for cli._csv."""
    lines = [",".join(header)]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def assert_same_lines(got, want):
    """Assert two texts are equal, naming the first differing line.

    pytest's diff of two texts thousands of lines long takes minutes.
    """
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got_lines[first]!r} != {want_lines[first]!r}"
    assert len(got_lines) == len(want_lines)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [[tok for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestTable1:
    def test_markdown_runs_clean(self, capsys):
        code, out, err = run(["table1"], capsys)
        assert code == 0
        assert out.startswith("| u")
        assert len([ln for ln in out.splitlines() if ln.startswith("|")]) == 9

    def test_csv_cells_track_exact_formula(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code, _, _ = run(["table1", "--format", "csv", "--out", str(out_path)], capsys)
        assert code == 0
        header, rows = parse_csv(out_path.read_text())
        assert header == ["u", "exponential", "gamma_3_2", "mixture",
                          "exact_exponential", "abs_dev_exponential"]
        assert len(rows) == 7
        for row in rows:
            u = float(row[0])
            expo = float(row[1])
            exact = 1.0 - 0.9 * math.exp(-0.1 * u)
            assert abs(expo - exact) < 1e-4
            assert float(row[4]) == pytest.approx(exact, rel=1e-15)

    def test_deterministic_output(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["table1", "--format", "csv", "--out", str(p1)], capsys)
        run(["table1", "--format", "csv", "--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()


class TestRuin:
    def test_row_count_and_monotonicity(self, write_spec, tmp_path, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        out = tmp_path / "ruin.csv"
        code, _, _ = run(
            ["ruin", "--spec", spec, "--phi", "0.9", "--t", "5", "--u-max", "40",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["u", "nonruin_M2", "ruin_M2", "nonruin_L"]
        assert len(rows) == 201
        nonruin = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(nonruin, nonruin[1:]))
        assert nonruin[0] == pytest.approx(0.1, rel=1e-12)

    def test_seventeen_digit_round_trip(self, write_spec, tmp_path, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        out = tmp_path / "ruin.csv"
        run(["ruin", "--spec", spec, "--phi", "0.9", "--t", "5", "--u-max", "2",
             "--out", str(out)], capsys)
        text = out.read_text()
        _, rows = parse_csv(text)
        rebuilt = [[f"{float(tok):.17g}" for tok in row] for row in rows]
        assert rebuilt == [row for row in rows]

    def test_net_profit_violation_exits_3(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        code, _, err = run(
            ["ruin", "--spec", spec, "--phi", "1.0", "--t", "5", "--u-max", "40"], capsys
        )
        assert code == 3
        assert "net-profit" in err

    def test_zero_u_max_is_usage_error(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        code, _, _ = run(
            ["ruin", "--spec", spec, "--phi", "0.9", "--t", "5", "--u-max", "0"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value", [("--u-max", "inf"), ("--u-max", "nan"), ("--t", "inf"), ("--t", "1e6")]
    )
    def test_non_finite_or_oversized_lattice_exits_2(self, write_spec, capsys, flag, value):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        args = {"--phi": "0.9", "--t": "5", "--u-max": "40", flag: value}
        argv = ["ruin", "--spec", spec] + [tok for pair in args.items() for tok in pair]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "alpha,argv",
        [
            pytest.param(200.0, ["ruin", "--phi", "0.5", "--t", "100", "--u-max", "300"],
                         id="ruin-gamma200-t100"),
            pytest.param(159.7, ["ruin", "--phi", "0.5", "--t", "100", "--u-max", "300"],
                         id="ruin-gamma159.7-t100"),
            pytest.param(140.0, ["ruin", "--phi", "0.5", "--t", "100", "--u-max", "40"],
                         id="ruin-gamma140-t100"),
            # all-zero masses used to give L*(100) = 0 where the CDF is ~1; u = 100
            # keeps the 1e6 + 1 weights under the cap that refuses u = 300
            pytest.param(200.0, ["invert", "--transform", "gamma_mixture", "--method", "lstar",
                                 "--t", "1e4", "--u", "100"], id="invert-gamma200-t1e4"),
        ],
    )
    def test_negbin_underflow_exits_2(self, write_spec, capsys, alpha, argv):
        spec = write_spec([(1.0, alpha, 1.0)], "gamma")
        start = time.perf_counter()
        code, _, err = run(argv + ["--spec", spec], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert "underflow" in err and "Traceback" not in err

    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(
            ["ruin", "--spec", str(bad), "--phi", "0.9", "--t", "5", "--u-max", "1"], capsys
        )
        assert code == 2

    def test_weights_must_sum_to_one(self, tmp_path, capsys):
        spec = tmp_path / "half.json"
        spec.write_text(json.dumps({"components": [{"p": 0.5, "alpha": 1.0, "beta": 1.0}]}))
        code, _, _ = run(
            ["ruin", "--spec", str(spec), "--phi", "0.9", "--t", "5", "--u-max", "1"], capsys
        )
        assert code == 2


SPEC_COMMANDS = {
    "ruin": ["--phi", "0.9", "--t", "5", "--u-max", "10"],
    "bound": ["--phi", "0.9", "--t", "5"],
    "convergence": ["--phi", "0.9", "--t-list", "5,10", "--u-max", "10"],
}


class TestSpecValidation:
    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    @pytest.mark.parametrize(
        "components",
        [
            [(1.0, 1.0, math.inf)],
            [(1.0, math.inf, 1.0)],
            [(1.0, 1.5, math.nan)],
            [(0.5, 1.0, 1.0), (0.5, 2.0, math.inf)],
            [(math.inf, 1.0, 1.0)],
            [(1.0, -1.0, 1.0)],
            [(1.5, 1.0, 1.0), (-0.5, 2.0, 1.0)],
            [("1", True, " 2.0 ")],
            [(1.0, False, 1.0)],
            [(1.0, 1.0, "2")],
            [(1.0, 1.0, 10**400)],
        ],
    )
    def test_bad_claim_parameters_exit_2(self, write_spec, capsys, command, components):
        # JSON Infinity and NaN parse to floats, which the mixture refuses;
        # a string, a boolean or an integer beyond the floats is refused
        # as it is read
        spec = write_spec(components)
        code, out, err = run([command, "--spec", spec, *SPEC_COMMANDS[command]], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json refuses to convert an integer of more than 4300 digits with a
        # ValueError that is not a JSONDecodeError
        spec = tmp_path / "long.json"
        spec.write_text('{"components": [{"p": 1, "alpha": 1, "beta": ' + "9" * 5000 + "}]}")
        code, out, err = run(["ruin", "--spec", str(spec), *SPEC_COMMANDS["ruin"]], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestInvert:
    def test_m2_test_function(self, capsys):
        code, out, _ = run(
            ["invert", "--transform", "test_function", "--p", "0.1", "--method", "m2",
             "--t", "5", "--u", "1"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        expected = 2.0 * (1.0 - 0.9 * (10.0 / 10.1) ** 10) - (1.0 - 0.9 * (5.0 / 5.1) ** 5)
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)

    def test_lstar_constant(self, capsys):
        code, out, _ = run(
            ["invert", "--transform", "exp_decay", "--a", "0", "--method", "lstar",
             "--t", "5", "--u", "0,1,2.5,10"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r[1]) == pytest.approx(1.0, rel=1e-13) for r in rows)

    def test_postwidder_value(self, capsys):
        code, out, _ = run(
            ["invert", "--transform", "exp_decay", "--a", "1", "--method", "postwidder",
             "--t", "10", "--u", "1"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.1**-10, rel=1e-13)

    def test_stehfest2_composition(self, capsys):
        code, out, _ = run(
            ["invert", "--transform", "test_function", "--p", "0.1", "--method", "stehfest2",
             "--t", "5", "--u", "10"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        expected = 2.0 * (1.0 - 0.9 * 1.1**-10) - (1.0 - 0.9 * 1.2**-5)
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)

    def test_gamma_mixture_cdf_inversion(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.5, 1.0)], "g32")
        code, out, _ = run(
            ["invert", "--transform", "gamma_mixture", "--spec", spec, "--method", "m2",
             "--t", "10", "--u", "0.5,1,2"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) < 5e-3

    def test_postwidder_requires_integer_order(self, capsys):
        code, _, _ = run(
            ["invert", "--transform", "exp_decay", "--a", "1", "--method", "postwidder",
             "--t", "2.5", "--u", "1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("method", ["postwidder", "stehfest2"])
    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_order_exits_2(self, capsys, method, t):
        code, _, err = run(
            ["invert", "--transform", "exp_decay", "--a", "1", "--method", method,
             "--t", t, "--u", "1"],
            capsys,
        )
        assert code == 2
        assert "positive integer" in err and "Traceback" not in err

    def test_m2_lattice_cap_exits_2(self, capsys):
        # t*u = 4e7 would put 8e7 points on the fine lattice
        code, _, err = run(
            ["invert", "--transform", "exp_decay", "--method", "m2", "--t", "1e6", "--u", "40"],
            capsys,
        )
        assert code == 2
        assert "fine lattice" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "method,t,u",
        [
            ("lstar", "1e4", "300"),  # 3e6 + 1 weights to print one value
            ("postwidder", "2000000", "1"),
            ("stehfest2", "600000", "1"),  # order 2n = 1.2e6
        ],
    )
    def test_single_point_weight_cap_exits_2(self, write_spec, capsys, method, t, u):
        spec = write_spec([(1.0, 200.0, 1.0)], "gamma")
        code, _, err = run(
            ["invert", "--transform", "gamma_mixture", "--spec", spec, "--method", method,
             "--t", t, "--u", u],
            capsys,
        )
        assert code == 2
        assert "oracle weights" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["postwidder", "stehfest2"])
    @pytest.mark.parametrize("transform", ["gamma_mixture", "exp_decay"])
    def test_overflowing_transform_point_exits_2(self, write_spec, capsys, method, transform):
        # s = n/u overflows to inf at a subnormal u, a point no oracle accepts
        spec = write_spec([(1.0, 1.5, 1.0)], "gamma")
        code, out, err = run(
            ["invert", "--transform", transform, "--spec", spec, "--method", method,
             "--t", "1", "--u", "5e-324"],
            capsys,
        )
        assert code == 2
        assert out == "" and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["lstar", "m2", "postwidder", "stehfest2"])
    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_decay_rate_exits_2(self, capsys, method, a):
        # a NaN rate once printed NaN rows and exited 0
        code, out, err = run(
            ["invert", "--transform", "exp_decay", "--a", a, "--method", method,
             "--t", "5", "--u", "1,2"],
            capsys,
        )
        assert code == 2
        assert out == "" and "decay rate must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["lstar", "m2"])
    @pytest.mark.parametrize("u", ["nan", "inf", "1,nan"])
    def test_non_finite_u_exits_2(self, capsys, method, u):
        code, _, _ = run(
            ["invert", "--transform", "exp_decay", "--a", "1", "--method", method,
             "--t", "5", "--u", u],
            capsys,
        )
        assert code == 2

    def test_unknown_method_rejected_by_parser(self, capsys):
        code, _, _ = run(
            ["invert", "--transform", "exp_decay", "--method", "talbot", "--t", "5",
             "--u", "1"],
            capsys,
        )
        assert code == 2

    def test_unknown_transform_rejected_by_parser(self, capsys):
        code, _, err = run(
            ["invert", "--transform", "gamma", "--method", "m2", "--t", "5", "--u", "1"],
            capsys,
        )
        assert code == 2
        assert "invalid choice: 'gamma'" in err


class TestBound:
    def test_report_fields(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        code, out, _ = run(["bound", "--spec", spec, "--phi", "0.9", "--t", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["m1_norm_bound"] == pytest.approx(0.9, rel=1e-9)
        assert payload["total_bound"] > 0

    def test_doubling_t_quarters_bound(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        _, out5, _ = run(["bound", "--spec", spec, "--phi", "0.9", "--t", "5"], capsys)
        _, out10, _ = run(["bound", "--spec", spec, "--phi", "0.9", "--t", "10"], capsys)
        b5 = json.loads(out5)["total_bound"]
        b10 = json.loads(out10)["total_bound"]
        assert b10 == pytest.approx(b5 / 4.0, rel=1e-12)

    def test_keys_follow_ledger_and_report_fields(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        code, out, _ = run(["bound", "--spec", spec, "--phi", "0.9", "--t", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        ledger_keys = [f.name for f in dataclasses.fields(NormLedger)]
        report_keys = [f.name for f in dataclasses.fields(BoundReport)]
        assert list(payload) == (
            ["phi", "t"] + ledger_keys + [f"{k}_bound" for k in report_keys] + ["total_bound"]
        )
        ledger, report = ruin_bound_report(RiskModel(GammaMixture.exponential(), 0.9))
        assert [payload[k] for k in ledger_keys] == [getattr(ledger, k) for k in ledger_keys]
        assert [payload[f"{k}_bound"] for k in report_keys] == [
            getattr(report, k) for k in report_keys
        ]
        assert payload["total_bound"] == report.total_bound(5.0)

    def test_f1_0_is_positive_zero_without_exponential_component(self, write_spec, capsys):
        spec = write_spec([(1.0, 3.0, 2.0)], "gamma3")
        code, out, _ = run(["bound", "--spec", spec, "--phi", "0.9", "--t", "5"], capsys)
        assert code == 0
        assert '"f1_0": 0.0' in out
        assert math.copysign(1.0, json.loads(out)["f1_0"]) == 1.0

    @pytest.mark.parametrize("t", ["inf", "nan", "0"])
    def test_non_finite_or_non_positive_rate_exits_2(self, write_spec, capsys, t):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        code, out, err = run(["bound", "--spec", spec, "--phi", "0.9", "--t", t], capsys)
        assert code == 2
        assert out == ""
        assert "positive and finite" in err and "Traceback" not in err

    def test_large_shape_ledger_is_finite(self, write_spec, capsys):
        # x**alpha and Gamma(alpha) overflow on their own at alpha = 140
        spec = write_spec([(1.0, 140.0, 1.0)], "gamma140")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["bound", "--spec", spec, "--phi", "0.5", "--t", "5"], capsys)
        assert code == 0, err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        payload = json.loads(out)
        assert all(math.isfinite(v) for v in payload.values())
        assert payload["u2w1pp_norm"] > 0 and payload["total_bound"] > 0

    @pytest.mark.parametrize("beta", [1e-150, 1e-120, 1e110, 1e150])
    def test_unrepresentable_moment_exits_2(self, write_spec, capsys, beta):
        # E[X^3] = 6 / beta^3 overflows or underflows; beta**3 alone used to
        # raise a raw ZeroDivisionError or OverflowError
        spec = write_spec([(1.0, 1.0, beta)], "extreme")
        code, out, err = run(["bound", "--spec", spec, "--phi", "0.5", "--t", "5"], capsys)
        assert code == 2
        assert out == ""
        assert "E[X**3]" in err and f"{beta:g}" in err and "Traceback" not in err

    def test_inadmissible_shape_exits_3(self, write_spec, capsys):
        spec = write_spec([(1.0, 0.5, 1.0)], "heavy")
        code, _, err = run(["bound", "--spec", spec, "--phi", "0.9", "--t", "5"], capsys)
        assert code == 3
        assert "shape" in err


class TestConvergence:
    def test_exponential_order(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        code, out, _ = run(
            ["convergence", "--spec", spec, "--phi", "0.9", "--t-list", "5,10",
             "--u-max", "40"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "sup_error", "order_vs_double"]
        order = float(rows[0][2])
        assert 1.6 <= order <= 2.6
        assert rows[1][2] == ""

    def test_single_rate_leaves_order_empty(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        code, out, _ = run(
            ["convergence", "--spec", spec, "--phi", "0.9", "--t-list", "5",
             "--u-max", "10"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0][2] == ""
        assert float(rows[0][1]) > 0

    def test_degenerate_spec_rejected(self, tmp_path, capsys):
        spec = tmp_path / "zero.json"
        spec.write_text(json.dumps({"components": []}))
        code, _, _ = run(
            ["convergence", "--spec", str(spec), "--phi", "0.9", "--t-list", "5",
             "--u-max", "10"],
            capsys,
        )
        assert code == 2

    def test_reference_covers_last_coarse_point(self, write_spec, capsys):
        # t = 3 covers u_max = 1.1 up to 4/3, past the 8t reference lattice
        # built only to ceil(24 * 1.1)/24 = 1.125
        spec = write_spec([(1.0, 1.5, 1.0)], "g32")
        code, out, err = run(
            ["convergence", "--spec", spec, "--phi", "0.9", "--t-list", "3",
             "--u-max", "1.1"],
            capsys,
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        assert 0.0 < float(rows[0][1]) < 1e-3

    @pytest.mark.parametrize("t_list", ["5,10,20", "20,10,5", "10,5,20"])
    def test_doubling_rates_share_passes_in_any_order(self, write_spec, monkeypatch, capsys, t_list):
        # 2 compound expansions for the reference at t = 160 and 4 for the rows,
        # whatever the order; rows print in the order given
        spec = write_spec([(1.0, 1.5, 1.0)], "g32")
        argv = ["convergence", "--spec", spec, "--phi", "0.9", "--u-max", "10", "--t-list"]
        _, ascending, _ = run(argv + ["5,10,20"], capsys)
        inversion._memoized_pass.cache_clear()
        calls = []
        expand = ruin.panjer_geometric

        def counting(severity, phi, K):
            calls.append(severity.t)
            return expand(severity, phi, K)

        monkeypatch.setattr(ruin, "panjer_geometric", counting)
        code, out, err = run(argv + [t_list], capsys)
        assert code == 0, err
        assert sorted(calls) == [5.0, 10.0, 20.0, 40.0, 160.0, 320.0]
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == t_list.split(",")
        assert sorted(rows) == sorted(parse_csv(ascending)[1])

    @pytest.mark.parametrize("components", [[(1.0, 1.0, 1.0)], [(1.0, 1.5, 1.0)]], ids=["exp", "g32"])
    @pytest.mark.parametrize(
        "flag,value", [("--u-max", "0"), ("--t-list", "5,-5"), ("--t-list", "0")]
    )
    def test_rate_or_u_max_outside_the_positive_reals_exits_2(
        self, write_spec, capsys, components, flag, value
    ):
        # left to the library's DomainError, for the exact and the M2 reference alike
        spec = write_spec(components)
        args = {"--phi": "0.9", "--t-list": "5,10", "--u-max": "10", flag: value}
        argv = ["convergence", "--spec", spec] + [tok for pair in args.items() for tok in pair]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "positive" in err and "Traceback" not in err

    def test_self_reference_for_non_exponential(self, write_spec, capsys):
        spec = write_spec([(1.0, 1.5, 1.0)], "g32")
        code, out, _ = run(
            ["convergence", "--spec", spec, "--phi", "0.9", "--t-list", "2,4",
             "--u-max", "10"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert 1.2 <= float(rows[0][2]) <= 3.0


class TestOutPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["ruin", "--phi", "0.9", "--t", "5", "--u-max", "2"],
            ["invert", "--transform", "exp_decay", "--method", "m2", "--t", "5", "--u", "1"],
            ["bound", "--phi", "0.9", "--t", "5"],
            ["convergence", "--phi", "0.9", "--t-list", "5", "--u-max", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "is-dir"])
    def test_unwritable_out_exits_2(self, write_spec, tmp_path, capsys, argv, target):
        spec = write_spec([(1.0, 1.0, 1.0)], "exp")
        out = tmp_path / "nowhere" / "out.csv" if target == "missing-dir" else tmp_path
        spec_args = [] if argv[0] in ("table1", "invert") else ["--spec", spec]
        code, _, err = run(argv + spec_args + ["--out", str(out)], capsys)
        assert code == 2
        assert "cannot write" in err and "Traceback" not in err


class TestCsvWriter:
    SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1 - 2**-53, math.inf, math.nan]

    def test_special_values_match_reference(self):
        values = self.SPECIAL + [-x for x in self.SPECIAL]
        columns = [values, values[::-1], [3.0 * x for x in values]]
        text = "".join(cli._csv(["a", "b", "c"], columns))
        assert text == reference_csv(["a", "b", "c"], zip(*columns))

    @pytest.mark.parametrize(
        "rows", [1, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1]
    )
    def test_block_edges_match_reference(self, rows):
        rng = np.random.default_rng(rows)
        columns = [
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
            rng.random(rows),
            np.arange(rows) / 7.0,
            -rng.random(rows),
        ]
        chunks = list(cli._csv(["u", "x", "y", "z"], columns))
        assert len(chunks) == 1 + math.ceil(rows / cli._CSV_BLOCK_ROWS)
        assert_same_lines("".join(chunks), reference_csv(["u", "x", "y", "z"], zip(*columns)))

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("t,u_max", [(5.0, 40.0), (50.0, 82.0)])  # K = 200 and 4100 rows
    def test_ruin_matches_library(self, all_table_mixtures, write_spec, capsys, phi, t, u_max):
        for name, mix in all_table_mixtures.items():
            spec = write_spec([(c.p, c.alpha, c.beta) for c in mix.components], name)
            code, out, _ = run(
                ["ruin", "--spec", spec, "--phi", repr(phi), "--t", repr(t), "--u-max", repr(u_max)],
                capsys,
            )
            assert code == 0
            model = RiskModel(mix, phi)
            m2 = approximate_nonruin(model, t, u_max).lattice.values
            K = m2.size - 1
            plain = lstar_nonruin(model, t, K).values
            rows = [[k / t, float(m2[k]), 1.0 - float(m2[k]), float(plain[k])] for k in range(K + 1)]
            assert_same_lines(out, reference_csv(["u", "nonruin_M2", "ruin_M2", "nonruin_L"], rows))


class TestParserReuse:
    def test_errors_leave_later_calls_unchanged(self, write_spec, tmp_path, capsys):
        spec = write_spec([(0.5, 1.0, 1.0), (0.5, 1.5, 1.0)], "mixture")
        argv = ["ruin", "--spec", spec, "--phi", "0.9", "--t", "5", "--u-max", "3"]
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        alone = subprocess.run([sys.executable, "-m", "renewinv.cli", *argv], env=env,
                               capture_output=True, check=True, text=True).stdout

        code, out, _ = run(["ruin", "--spec", spec, "--phi", "0.9"], capsys)
        assert (code, out) == (2, "")
        code, out, err = run(argv + ["--out", str(tmp_path / "nowhere" / "r.csv")], capsys)
        assert (code, out) == (2, "") and "cannot write" in err
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == alone

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["table1", "--format", "csv"],
            ["table1", "--format", "json"],
            ["ruin", "--phi", "0.9", "--t", "5", "--u-max", "4"],
            ["invert", "--transform", "gamma_mixture", "--method", "m2", "--t", "5",
             "--u", "0.5,2"],
            ["bound", "--phi", "0.9", "--t", "5"],
            ["convergence", "--phi", "0.9", "--t-list", "2,4", "--u-max", "4"],
        ],
        ids=["table1-md", "table1-csv", "table1-json", "ruin", "invert", "bound", "convergence"],
    )
    def test_each_command_twice_gives_identical_output(self, write_spec, capsys, argv):
        spec = write_spec([(1.0, 1.5, 1.0)], "g32")
        spec_args = [] if argv[0] == "table1" else ["--spec", spec]
        first = run(argv + spec_args, capsys)
        second = run(argv + spec_args, capsys)
        assert first[0] == 0 and first[1]
        assert first == second

    @pytest.mark.parametrize("command", ["table1", "ruin", "invert", "bound", "convergence"])
    def test_main_calls_current_module_binding(self, monkeypatch, command):
        argv = {
            "table1": ["table1"],
            "ruin": ["ruin", "--spec", "s.json", "--phi", "0.9", "--t", "5", "--u-max", "1"],
            "invert": ["invert", "--transform", "exp_decay", "--method", "m2", "--t", "5",
                       "--u", "1"],
            "bound": ["bound", "--spec", "s.json", "--phi", "0.9", "--t", "5"],
            "convergence": ["convergence", "--spec", "s.json", "--phi", "0.9", "--t-list", "5",
                            "--u-max", "1"],
        }[command]
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert [args.command for args in seen] == [command]


def test_invert_evaluates_exact_once_per_point(monkeypatch, capsys):
    calls = []
    build = cli._build_transform

    def counting_build(args):
        oracle, exact_fn, g0 = build(args)
        return oracle, (lambda u: calls.append(u) or exact_fn(u)), g0

    monkeypatch.setattr(cli, "_build_transform", counting_build)
    code, out, _ = run(
        ["invert", "--transform", "exp_decay", "--method", "lstar", "--t", "5", "--u", "0,1,2.5"],
        capsys,
    )
    assert code == 0
    assert calls == [0.0, 1.0, 2.5]
    _, rows = parse_csv(out)
    assert [float(r[3]) for r in rows] == [abs(float(r[1]) - float(r[2])) for r in rows]
