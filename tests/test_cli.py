"""CLI surface: exit codes, CSV schema and determinism, JSON output."""

import dataclasses
import functools
import json
import math
import warnings

import pytest

import unclab.cli
from unclab.cli import (
    EXIT_DIVERGENT_ROWS,
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_NO_UNIQUE_DOMINANT,
    EXIT_NOT_ATTAINABLE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from unclab.quadrature import ComparisonRow
from unclab.spectrum import DEFAULT_N_MAX, DEFAULT_REL_TOL

SINGLE_MODE_SPEC = {
    "name": "single",
    "symmetric": True,
    "real": True,
    "entries": [{"n": 0, "expr": "exp"}],
}


class TestSweep:
    def test_exponential_csv_brackets_the_hr_crossing(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(
            [
                "sweep", "--family", "exp", "--min", "0.05", "--max", "5",
                "--steps", "200", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "alpha,var_phi,var_lz,product,hr_bound,state_bound"
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 200
        alphas = [float(r[0]) for r in rows]
        assert alphas == sorted(alphas)
        above = [a for a, r in zip(alphas, rows) if float(r[3]) > 0.5]
        below = [a for a, r in zip(alphas, rows) if float(r[3]) < 0.5]
        assert max(above) < 1.29639 < min(below)
        assert all(r[4] == "0.5" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--family", "exp", "--min", "0.1", "--max", "3",
                "--steps", "30", "--scale", "log"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_polynomial_approaches_limit(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = main(
            [
                "sweep", "--family", "poly", "--min", "1.6", "--max", "50",
                "--steps", "40", "--scale", "log", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = [
            ln.split(",")
            for ln in out.read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        products = [float(r[3]) for r in rows]
        limit = math.sqrt(math.pi**2 / 3.0 + 0.5)
        assert abs(products[-1] - limit) < 1e-3
        # tail of the profile climbs back up to the limit after the dip
        third = len(products) // 3
        tail = products[-third:]
        assert all(x <= y + 1e-12 for x, y in zip(tail, tail[1:]))
        assert min(products) > 1.0

    def test_divergent_rows_marked_with_keep_going(self, capsys):
        rc = main(
            ["sweep", "--family", "poly", "--min", "1.2", "--max", "2.4",
             "--steps", "3", "--keep-going"]
        )
        assert rc == EXIT_DIVERGENT_ROWS
        outerr = capsys.readouterr()
        div_rows = [ln for ln in outerr.out.splitlines() if ",div," in ln]
        assert div_rows and div_rows[0].startswith("1.2,")

    @pytest.mark.parametrize("family, lo, hi", [("exp", "0.05", "5"), ("poly", "0.9", "3"),
                                                ("custom", "0.5", "2")])
    def test_each_cell_is_its_17_digit_format(self, family, lo, hi, tmp_path, capsys):
        # cell by cell, as format(x, ".17g"), and "div" for a divergent
        # cell; a "nan" in the family name stays in the header
        spec = tmp_path / "banana.json"
        spec.write_text(json.dumps(dict(SINGLE_MODE_SPEC, name="banana")))
        main(["sweep", "--family", family, "--spec", str(spec), "--min", lo, "--max", hi,
              "--steps", "23", "--keep-going"])
        lines = capsys.readouterr().out.splitlines()
        fam = {"exp": unclab.exponential_family, "poly": unclab.polynomial_family,
               "custom": functools.partial(unclab.load_family, spec)}[family]()
        rows = unclab.sweep(fam, float(lo), float(hi), 23, keep_going=True)
        want = [
            ",".join("div" if math.isnan(x) else format(x, ".17g")
                     for x in (r.alpha, r.var_phi, r.var_lz, r.product, r.hr_bound, r.state_bound))
            for r in rows
        ]
        assert lines[-23:] == want
        assert f"# family: {fam.name}" in lines

    def test_divergent_aborts_without_keep_going(self, capsys):
        rc = main(
            ["sweep", "--family", "poly", "--min", "1.2", "--max", "2.4",
             "--steps", "3"]
        )
        assert rc == EXIT_DIVERGENT_ROWS
        assert "divergent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, engine",
        [
            ("exp", "closed forms"),
            ("poly", "closed forms: zeta ratio var_lz, polylogarithm series var_phi"),
            (
                "custom",
                f"generic series at rel_tol={DEFAULT_REL_TOL}, n_max={DEFAULT_N_MAX}",
            ),
        ],
    )
    def test_engine_line_names_the_tolerances(self, family, engine, tmp_path, capsys):
        spec = tmp_path / "single.json"
        spec.write_text(json.dumps(SINGLE_MODE_SPEC))
        rc = main(["sweep", "--family", family, "--spec", str(spec),
                   "--min", "2", "--max", "3", "--steps", "2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("# engine:")] == [
            f"# engine: {engine}"
        ]

    @pytest.mark.parametrize("name", ["exp", "poly"])
    def test_json_family_with_a_builtin_name_runs_the_generic_engine(
        self, name, tmp_path, capsys
    ):
        spec = tmp_path / "named.json"
        spec.write_text(json.dumps(dict(SINGLE_MODE_SPEC, name=name)))
        rc = main(["sweep", "--family", "custom", "--spec", str(spec),
                   "--min", "2", "--max", "3", "--steps", "2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert f"# family: {name}" in lines
        assert [ln for ln in lines if ln.startswith("# engine:")] == [
            f"# engine: generic series at rel_tol={DEFAULT_REL_TOL}, "
            f"n_max={DEFAULT_N_MAX}"
        ]

    def test_support_past_n_max_is_a_clean_error(self, tmp_path, capsys):
        # the amplitudes at +-3000000 underflow, but the window cannot hold them
        entries = [{"n": n, "expr": "exp"} for n in (0, 3_000_000, -3_000_000)]
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps(dict(SINGLE_MODE_SPEC, name="far", entries=entries)))
        rc = main(["sweep", "--family", "custom", "--spec", str(spec),
                   "--min", "1", "--max", "2", "--steps", "2"])
        assert rc == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: family 'far' at alpha=1.0: the support |n| <= 3000000 "
            f"exceeds n_max={DEFAULT_N_MAX}\n"
        )

    def test_exponential_beyond_cosh_overflow(self, capsys):
        rc = main(["sweep", "--family", "exp", "--min", "1", "--max", "800",
                   "--steps", "2"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1].startswith("800,")

    def test_invalid_range(self, capsys):
        rc = main(["sweep", "--family", "exp", "--min", "1", "--max", "1",
                   "--steps", "2"])
        assert rc == EXIT_INVALID
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_exponential_dominant(self, capsys):
        rc = main(["check", "--family", "exp"])
        assert rc == EXIT_OK
        assert "dominant k=0" in capsys.readouterr().out

    def test_polynomial_no_unique_dominant(self, capsys):
        rc = main(["check", "--family", "poly", "--grid-min", "2",
                   "--grid-max", "50", "--eps", "5"])
        assert rc == EXIT_NO_UNIQUE_DOMINANT
        assert "no unique dominant" in capsys.readouterr().out

    def test_polynomial_default_grid_json(self, capsys):
        # sigma_Lz diverges on the grid's first points; condition (i) reads
        # sigma_phi there, and alpha = 0.5 has no normalizable state
        rc = main(["check", "--family", "poly", "--json"])
        assert rc == EXIT_NO_UNIQUE_DOMINANT
        payload = json.loads(capsys.readouterr().out)
        assert payload["dominance"]["verdict"] == "no_unique_dominant"
        adm = payload["admissibility"]
        assert adm["cond_ii"] is False and adm["max_tail"] is None
        assert adm["inf_var_phi"] == 0.4936958934924366  # at alpha = 0.6394...
        assert "no normalizable state at alpha in [0.5]" in adm["notes"]

    def test_grid_with_no_normalizable_state_is_valid_json(self, capsys):
        rc = main(["check", "--family", "poly", "--grid-min", "0.01", "--grid-max", "0.5",
                   "--grid-points", "8", "--json"])
        assert rc == EXIT_NO_UNIQUE_DOMINANT
        # strict JSON: a NaN or an inf would reach parse_constant
        adm = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)["admissibility"]
        assert adm["inf_var_phi"] is None and adm["cond_i"] is False

    def test_custom_single_mode_dominant(self, tmp_path, capsys):
        spec = tmp_path / "single.json"
        spec.write_text(json.dumps(SINGLE_MODE_SPEC))
        rc = main(["check", "--family", "custom", "--spec", str(spec)])
        assert rc == EXIT_OK
        assert "dominant k=0" in capsys.readouterr().out

    def test_single_mode_off_zero_is_dominant(self, tmp_path, capsys):
        # the mode's var_lz cancels to a negative rounding residue on this grid
        spec = tmp_path / "m8.json"
        spec.write_text(json.dumps(dict(SINGLE_MODE_SPEC, name="m8", symmetric=False,
                                        entries=[{"n": 8, "expr": "poly", "scale": 0.3}])))
        rc = main(["check", "--family", "custom", "--spec", str(spec), "--json"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["dominance"]["dominant_index"] == 8

    def test_json_output_parses(self, capsys):
        rc = main(["check", "--family", "exp", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["dominance"]["verdict"] == "dominant"
        assert payload["admissibility"]["cond_iii"] is True

    def test_json_grid_ends_are_the_given_ends(self, capsys):
        assert main(["check", "--family", "exp", "--json"]) == EXIT_OK
        grid = json.loads(capsys.readouterr().out)["dominance"]["grid"]
        assert len(grid) == 16
        assert [grid[0], grid[-1]] == [0.5, 20.0]

    # exp amplitudes at alpha near 1.7e308 are exactly 0 past |n| = 0 (the
    # rule clamps alpha at 746, so nothing overflows): valid input, no warning
    def test_grid_spanning_the_float_range(self, capsys):
        rc = main(["check", "--family", "exp", "--grid-min", "1e-3",
                   "--grid-max", "1.7e308", "--json"])
        assert rc == EXIT_OK
        grid = json.loads(capsys.readouterr().out)["dominance"]["grid"]
        assert [grid[0], grid[-1]] == [1e-3, 1.7e308]

    def test_inconclusive_family_exit_code(self, tmp_path, capsys):
        # two alpha-independent amplitudes with ratio 0.5: neither decayed
        # away nor tied, so the grid-tail heuristic cannot decide; the
        # table keys reproduce the exact log grid the command builds
        grid = [0.5 * (64.0) ** (i / 7.0) for i in range(8)]
        spec = tmp_path / "flat.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "flat_pair",
                    "symmetric": False,
                    "real": True,
                    "entries": [
                        {"n": 0, "expr": "table"},
                        {"n": 1, "expr": "table"},
                    ],
                    "table": {
                        repr(a): [[0, 1.0, 0.0], [1, 0.5, 0.0]] for a in grid
                    },
                }
            )
        )
        rc = main(
            ["check", "--family", "custom", "--spec", str(spec),
             "--grid-min", "0.5", "--grid-max", "32", "--grid-points", "8",
             "--eps", "5"]
        )
        assert rc == EXIT_INCONCLUSIVE
        assert "inconclusive" in capsys.readouterr().out

    def test_tail_of_a_support_past_the_first_ring_fails_condition_ii(self, tmp_path, capsys):
        # poly entries at +-1000 put n^2 |C_n|^2 = 1000^(2 - 2 alpha) past N = 50
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps(dict(SINGLE_MODE_SPEC, name="far", entries=[
            {"n": -1000, "expr": "poly"},
            {"n": 0, "expr": "exp"},
            {"n": 1000, "expr": "poly"},
        ])))
        rc = main(["check", "--family", "custom", "--spec", str(spec), "--json"])
        assert rc == EXIT_OK  # index 0 dominates
        adm = json.loads(capsys.readouterr().out)["admissibility"]
        assert adm["cond_ii"] is False
        assert adm["max_tail"] == pytest.approx(2000.0, rel=1e-14)

    def test_reversed_grid_is_invalid(self, capsys):
        rc = main(["check", "--family", "exp", "--grid-min", "2", "--grid-max", "1"])
        assert rc == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad grid [2.0, 1.0] x 16\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--min", "1", "--max", "2"],
            ["check"],
            ["crossing", "--target", "0.5"],
            ["alpha-star", "--epsilon", "0.1"],
            ["verify", "--alpha", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_spec_for_custom(self, argv, capsys):
        assert main([*argv, "--family", "custom"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --family custom requires --spec FILE.json\n"

    @pytest.mark.parametrize("n_probe", ["0", "-1"])
    def test_probe_width_below_one_is_invalid(self, n_probe, capsys):
        rc = main(["check", "--family", "exp", "--n-probe", n_probe])
        assert rc == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n_probe must be >= 1")

    @pytest.mark.parametrize("flag, name", [("--n-probe", "n_probe"), ("--tail-n", "N")])
    def test_index_range_wider_than_a_window_is_invalid(self, flag, name, evaluations, capsys):
        rc = main(["check", "--family", "exp", flag, str(DEFAULT_N_MAX + 1)])
        assert rc == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {name} must be <= {DEFAULT_N_MAX}, got {DEFAULT_N_MAX + 1}\n"
        )
        assert evaluations == []


class TestCrossing:
    def test_exponential_hr_target(self, capsys):
        rc = main(["crossing", "--family", "exp", "--target", "0.5", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["alpha"] - 1.29639) < 5e-4
        assert abs(payload["product"] - 0.5) < 1e-5

    def test_unreachable_target(self, capsys):
        rc = main(["crossing", "--family", "exp", "--target", "10"])
        assert rc == EXIT_NOT_ATTAINABLE
        assert "no crossing" in capsys.readouterr().out

    def test_polynomial_never_crosses(self):
        assert main(["crossing", "--family", "poly", "--target", "0.5"]) \
            == EXIT_NOT_ATTAINABLE

    def test_no_bracket_json(self, capsys):
        rc = main(["crossing", "--family", "poly", "--target", "0.1", "--json"])
        assert rc == EXIT_NOT_ATTAINABLE
        assert json.loads(capsys.readouterr().out) == {
            "error": "no_bracket",
            "detail": "product(alpha) - 0.1 has no sign change on [0.001, 50]",
        }


class TestAlphaStar:
    def test_exponential(self, capsys):
        rc = main(["alpha-star", "--family", "exp", "--epsilon", "0.01",
                   "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["product"] < 0.01

    def test_polynomial_not_attainable_reports_infimum(self, capsys):
        rc = main(["alpha-star", "--family", "poly", "--epsilon", "0.5",
                   "--json"])
        assert rc == EXIT_NOT_ATTAINABLE
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "not_attainable"
        assert abs(payload["edge_product"] - 1.9467583655134124) < 2e-3
        assert payload["best_product"] >= 1.0

    def test_polynomial_not_attainable_text(self, capsys):
        rc = main(["alpha-star", "--family", "poly", "--epsilon", "0.01"])
        assert rc == EXIT_NOT_ATTAINABLE
        assert capsys.readouterr().out.startswith(
            "not attainable: smallest product 1.889047 at alpha=4; "
        )

    def test_infinite_hint_is_invalid(self, capsys):
        rc = main(["alpha-star", "--family", "exp", "--epsilon", "0.01",
                   "--hint", "inf", "--json"])
        assert rc == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha_hint must be positive and finite")

    @pytest.mark.parametrize("family", ["exp", "poly"])
    def test_infinite_epsilon_is_invalid(self, family, capsys):
        rc = main(["alpha-star", "--family", family, "--epsilon", "inf", "--json"])
        assert rc == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: epsilon must be positive and finite")


class TestVerify:
    def test_exponential_alpha_one(self, capsys):
        rc = main(["verify", "--family", "exp", "--alpha", "1", "--tol", "1e-8"])
        assert rc == EXIT_OK
        assert "all passed: True" in capsys.readouterr().out

    def test_exponential_small_alpha_large_window(self, capsys):
        rc = main(["verify", "--family", "exp", "--alpha", "0.05",
                   "--tol", "1e-7"])
        assert rc == EXIT_OK

    def test_polynomial_divergent_rows_are_na(self, capsys):
        rc = main(["verify", "--family", "poly", "--alpha", "1.4",
                   "--rel-tol", "1e-5", "--tol", "1e-8"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "n/a" in out and "divergent" in out

    def test_polynomial_divergent_rows_json(self, capsys):
        rc = main(["verify", "--family", "poly", "--alpha", "1.4",
                   "--rel-tol", "1e-5", "--json"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        fields = {f.name for f in dataclasses.fields(ComparisonRow)}
        assert all(set(row) == fields for row in rows)
        lz = [row for row in rows if row["name"] in ("mean_lz", "second_lz", "var_lz")]
        assert len(lz) == 3
        assert all(row["passed"] is None and row["est_error"] is None for row in lz)

    def test_failed_tolerance_exit_code(self, capsys):
        # absurdly tight per-moment tolerance makes rows fail, not raise
        rc = main(["verify", "--family", "exp", "--alpha", "1",
                   "--tol", "1e-18"])
        assert rc == EXIT_VERIFY_FAILED

    def test_over_budget_is_a_clean_error(self, monkeypatch, capsys):
        monkeypatch.setattr(
            unclab.cli,
            "compare_report",
            functools.partial(unclab.cli.compare_report, max_evals=10),
        )
        rc = main(["verify", "--family", "exp", "--alpha", "1"])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_evals=10" in err

    @pytest.mark.parametrize("family, alpha", [("exp", "1e-8"), ("poly", "0.4")])
    def test_flat_normalization_fit_is_a_clean_error(self, family, alpha, capsys):
        # a normalization too flat for any window (exp) or divergent (poly):
        # the built-ins state the exact reason, from their closed-form tails
        reason = {
            "exp": "the sum |C_n|^2 tail test needs N >= 1381551056, above n_max=2000000",
            "poly": "sum |C_n|^2 diverges because 2 alpha <= 1",
        }[family]
        rc = main(["verify", "--family", family, "--alpha", alpha])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"error: family {family!r} at alpha={float(alpha)}: {reason}\n"

    def test_malformed_family_document_is_a_clean_error(self, malformed_spec, tmp_path,
                                                       capsys):
        spec, field = malformed_spec
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        rc = main(["verify", "--family", "custom", "--spec", str(path), "--alpha", "1"])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert "Traceback" not in err

    def test_unreadable_family_document_is_a_clean_error(self, unreadable_document, capsys):
        path, reason = unreadable_document
        rc = main(["verify", "--family", "custom", "--spec", str(path), "--alpha", "1"])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid UTF-8 JSON (")
        assert reason in err and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["verify", "--alpha", "1"], ["sweep", "--min", "1", "--max", "2", "--steps", "2"]],
        ids=["verify", "sweep"],
    )
    def test_all_zero_document_is_a_clean_error(self, command, tmp_path, capsys):
        spec = dict(SINGLE_MODE_SPEC, name="zero", entries=[{"n": 0, "expr": "table"}],
                    table={"1.0": [[0, 0, 0]]})
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(spec))
        rc = main([command[0], "--family", "custom", "--spec", str(path), *command[1:]])
        assert rc == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: family 'zero' at alpha=1.0: all amplitudes below the underflow threshold\n"
        )

    def test_overflowing_amplitude_is_a_clean_error(self, tmp_path, capsys):
        spec = dict(SINGLE_MODE_SPEC, entries=[
            {"n": 0, "expr": "exp"}, {"n": 1, "expr": "exp", "scale": 1e308}
        ])
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        rc = main(["verify", "--family", "custom", "--spec", str(path), "--alpha", "1"])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: family 'single' at alpha=1.0: amplitude modulus ")
        assert err.count("\n") == 1


class TestNonFiniteThresholds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha-star", "--family", "exp", "--epsilon", "nan"],
            ["verify", "--family", "exp", "--alpha", "1", "--tol", "nan"],
            ["check", "--family", "exp", "--kappa", "nan"],
            ["check", "--family", "exp", "--eps", "nan"],
            ["crossing", "--family", "exp", "--target", "nan"],
            ["crossing", "--family", "exp", "--target", "inf"],
            ["sweep", "--family", "exp", "--min", "0.5", "--max", "inf",
             "--steps", "3"],
            ["sweep", "--family", "exp", "--min", "nan", "--max", "2",
             "--steps", "3"],
            ["sweep", "--family", "exp", "--min", "0.5", "--max", "nan",
             "--steps", "3"],
            ["check", "--family", "exp", "--grid-max", "inf"],
            ["check", "--family", "exp", "--grid-max", "nan"],
        ],
    )
    def test_rejected_as_invalid(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_INVALID
        assert caught == []
        assert capsys.readouterr().err.startswith("error: ")
