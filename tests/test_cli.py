import dataclasses
import json
import math
import time
import warnings

import pytest

from renewinv import BoundReport, GammaMixture, NormLedger, RiskModel, ruin_bound_report
from renewinv.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ],
    )
    def test_bad_claim_parameters_exit_2(self, write_spec, capsys, command, components):
        # JSON Infinity and NaN parse to floats; the mixture refuses them
        spec = write_spec(components)
        code, out, err = run([command, "--spec", spec, *SPEC_COMMANDS[command]], capsys)
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
