"""End-to-end CLI checks: exit codes, formats, determinism, config merging."""

import io
import json
import math
import time

import numpy as np
import pytest

from fbmseries import cli
from fbmseries.cli import main, render_table
from fbmseries.expformula import exp_series
from fbmseries.fbm import McConfig, simulate
from fbmseries.functional import TimeGrid
from fbmseries.parser import parse


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    return code, out.getvalue()


def test_parser_built_once_gives_the_bytes_of_fresh_parsers():
    argvs = [
        ["expform", "--hurst", "0.75", "--T", "1", "--expr", "exp(IB(0,1))",
         "--order", "4", "--format", "json"],
        ["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3", "--expr", "IB(0,1)*B(1)",
         "--order", "2", "--mc.paths", "1", "--mc.seed", "5", "--format", "table"],
        ["simulate", "--hurst", "0.7", "--T", "1", "--mc.paths", "2", "--format", "csv"],
        ["merton", "--hurst", "0.7", "--T", "1", "--order", "3"],
        ["lognormal", "--hurst", "0.7", "--T", "1", "--sigma", "0.5", "--p", "2",
         "--format", "json"],
        ["expform", "--hurst", "0.4", "--T", "1", "--expr", "B(1)", "--format", "json"],
    ]
    cli._build_parser.cache_clear()
    back_to_back = [run_cli(a) for a in argvs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for a in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(a))
    assert back_to_back == fresh
    assert [code for code, _ in fresh] == [0, 0, 0, 0, 0, 2]


class TestSubcommands:
    def test_expform_reaches_integrated_exponential_limit(self):
        code, out = run_cli(["expform", "--hurst", "0.75", "--T", "1",
                             "--expr", "exp(IB(0,1))", "--order", "30",
                             "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(math.exp(1.0 / 7.0), rel=1e-12)
        assert doc["n_paths"] == 0  # closed evaluation, nothing simulated

    def test_taylor_two_time_cubic_on_seeded_path(self):
        code, out = run_cli(["taylor", "--hurst", "0.8", "--grid", "0.5,1",
                             "--r", "0.25", "--expr", "B(0.5)^2*B(1)",
                             "--order", "6", "--mc.paths", "1",
                             "--mc.seed", "42", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        # closed form B_r^3 + B_r (T^2H + 2 t^2H - 3 r^2H - (T-t)^2H) on
        # the same seeded path
        grid = TimeGrid((0.0, 0.25, 0.5, 1.0))
        ens = simulate(grid, 0.8, McConfig(n_paths=1, seed=42))
        br = float(ens.values[0][1])
        h = 0.8
        want = br ** 3 + br * (1.0 + 2.0 * 0.5 ** (2 * h)
                               - 3.0 * 0.25 ** (2 * h) - 0.5 ** (2 * h))
        assert doc["value"] == pytest.approx(want, rel=1e-12)

    def test_grid_may_spell_out_the_origin(self):
        args = ["--hurst", "0.8", "--r", "0.25", "--expr", "B(0.5)^2*B(1)",
                "--order", "6", "--mc.paths", "1", "--mc.seed", "42",
                "--format", "json"]
        code_a, out_a = run_cli(["taylor", "--grid", "0.5,1"] + args)
        code_b, out_b = run_cli(["taylor", "--grid", "0,0.5,1"] + args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_engines_agree_through_the_cli(self):
        args = ["--hurst", "0.7", "--r", "0.25", "--expr", "B(0.5)^2*B(1)",
                "--mc.paths", "1", "--mc.seed", "9", "--format", "json"]
        code_t, out_t = run_cli(["taylor", "--grid", "0.5,1", "--order", "8"] + args)
        code_e, out_e = run_cli(["expform", "--T", "1", "--order", "8"] + args)
        assert code_t == 0 and code_e == 0
        vt = json.loads(out_t)["value"]
        ve = json.loads(out_e)["value"]
        assert ve == pytest.approx(vt, rel=1e-9)

    def test_refined_grid_keeps_the_functional_times(self):
        # refining every cell by 3 must keep 0.45 on the simulation grid
        args = ["--hurst", "0.7", "--r", "0.1", "--expr", "B(0.45)*B(1)",
                "--order", "3", "--mc.refinement", "3", "--format", "json"]
        code_t, out_t = run_cli(["taylor", "--grid", "0,0.45,1"] + args)
        code_e, out_e = run_cli(["expform", "--T", "1"] + args)
        assert code_t == 0 and code_e == 0
        assert json.loads(out_t)["value"] == pytest.approx(
            json.loads(out_e)["value"], rel=1e-9)

    def test_expform_integrates_time_integrals_between_path_times(self):
        code, out = run_cli(["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
                             "--expr", "IB2(0,1)*IB(0,1)", "--order", "2",
                             "--format", "json"])
        assert code == 0
        assert "quadrature" in json.loads(out)["routes"][1]

    def test_expform_default_order_on_separable_levels(self):
        # every level from 2 up holds terms whose clusters differ by level;
        # E[exp(B_1/2) B_(1/2)] = Cov(B_1, B_(1/2)) / 2 e^(1/8), the covariance 1/2
        code, out = run_cli(["expform", "--hurst", "0.7", "--T", "1",
                             "--expr", "exp(0.5*B(1))*B(0.5)", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 10
        assert all("separable" in route for route in doc["routes"][2:])
        assert doc["value"] == pytest.approx(0.25 * math.exp(0.125), rel=1e-12)

    def test_expform_runs_the_engine_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("path") is not None)
            return exp_series(*args, **kwargs)

        monkeypatch.setattr("fbmseries.cli.exp_series", counted)
        code, out = run_cli(["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
                             "--expr", "IB2(0,1)", "--order", "2", "--format", "json"])
        assert code == 0
        assert calls == [True]
        assert json.loads(out)["n_paths"] == 1

    @pytest.mark.parametrize("expr,order", [("IB2(0,1)^2", 1), ("exp(-IB2(0,1))", 2)])
    def test_expform_at_the_horizon_has_only_level_zero(self, expr, order):
        # at r = T every level >= 1 integrates over the empty range [r, T]
        def run(k):
            code, out = run_cli(["expform", "--hurst", "0.7", "--T", "1", "--r", "1",
                                 "--expr", expr, "--order", str(k), "--mc.paths", "1",
                                 "--mc.seed", "5", "--format", "json"])
            assert code == 0
            return json.loads(out)

        doc = run(order)
        assert doc["terms"][1:] == [0.0] * order
        # level 0 is F on the simulated path, as the level-0 series has it
        assert doc["partial_sums"] == [run(0)["value"]] * (order + 1)

    def test_merton_csv_schema(self):
        code, out = run_cli(["merton", "--hurst", "0.75", "--T", "1",
                             "--order", "5", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "n,partial_sums,engine_sums,rel_gaps"
        assert sum(1 for l in lines if not l.startswith("#")) == 7

    def test_cir_reports_expansion_and_mc(self):
        code, out = run_cli(["cir", "--hurst", "0.7", "--T", "0.3",
                             "--mc.paths", "400", "--mc.refinement", "8",
                             "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["c1"] == pytest.approx(-1.0 / 2.4, rel=1e-14)
        assert abs(doc["mc"] - doc["approx"]) <= max(doc["band"],
                                                     doc["truncation_budget"]) + 5 * doc["stderr"]

    def test_lognormal_moment_mode(self):
        code, out = run_cli(["lognormal", "--hurst", "0.75", "--T", "1",
                             "--sigma", "0.5", "--p", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_lognormal_cf_mode_lists_terms(self):
        code, out = run_cli(["lognormal", "--hurst", "0.75", "--T", "1",
                             "--sigma", "1", "--z", "1", "--order", "30",
                             "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        mags = [math.hypot(a, b) for a, b in zip(doc["terms_real"],
                                                 doc["terms_imag"])]
        assert max(mags) > mags[1]

    def test_simulate_csv_is_one_row_per_path(self):
        code, out = run_cli(["simulate", "--hurst", "0.6", "--grid", "0.5,1",
                             "--mc.paths", "4", "--mc.seed", "3",
                             "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(len(l.split(",")) == 3 for l in lines)
        assert all(float(row.split(",")[0]) == 0.0 for row in lines[1:])


class TestExitCodes:
    def test_half_hurst_is_rejected_with_message(self, capsys):
        code, _ = run_cli(["merton", "--hurst", "0.5", "--T", "1"])
        assert code == 2
        assert "1/2" in capsys.readouterr().err

    def test_missing_required_flag(self):
        assert run_cli(["expform", "--hurst", "0.75",
                        "--expr", "exp(IB(0,1))"])[0] == 2

    def test_parse_error_is_configuration(self, capsys):
        code, _ = run_cli(["expform", "--hurst", "0.75", "--T", "1",
                           "--expr", "B(0.5"])
        assert code == 2
        assert "offset" in capsys.readouterr().err

    def test_time_beyond_horizon_is_configuration(self):
        assert run_cli(["expform", "--hurst", "0.75", "--T", "1",
                        "--expr", "exp(IB(0,2))"])[0] == 2

    def test_engine_limit_is_engine_error(self):
        # vectorized paths cannot feed the level quadrature
        code, _ = run_cli(["expform", "--hurst", "0.75", "--T", "1",
                           "--r", "0.5", "--expr", "exp(IB2(0,1))",
                           "--order", "1", "--mc.paths", "2"])
        assert code == 3

    def test_path_reading_level_factor_fails_fast(self, capsys):
        # a coupled level-2 term of exp(-IB2(0,1)) at r > 0 holds a time
        # integral of the path, which no route integrates; the engine says
        # so before it spends seconds on level 1
        import time

        t0 = time.perf_counter()
        code, _ = run_cli(["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
                           "--expr", "exp(-IB2(0,1))", "--order", "2",
                           "--mc.paths", "1", "--mc.seed", "1"])
        assert code == 3
        assert time.perf_counter() - t0 < 2.0
        assert "(IB (max 0.0 _u1) 0.3)" in capsys.readouterr().err

    @pytest.mark.parametrize("big_t", ["1e-66", "1e-70"])
    def test_cir_where_the_fourth_order_scale_leaves_the_normal_floats(self, big_t):
        # T^(4H+2) is subnormal at 1e-66 and underflows to 0 at 1e-70
        code, out = run_cli(["cir", "--hurst", "0.7", "--T", big_t,
                             "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["c2_integral"] == pytest.approx(doc["c2"], rel=1e-10)
        assert doc["approx"] == 1.0

    @pytest.mark.parametrize("argv", [
        ["simulate", "--hurst", "0.7", "--grid", "0,nan,1", "--mc.paths", "2"],
        ["taylor", "--hurst", "0.7", "--r", "0.3", "--grid", "0,-0.5,1",
         "--expr", "B(1)^2", "--order", "2", "--mc.paths", "2"],
    ], ids=["nan", "negative"])
    def test_invalid_grid_time_is_configuration(self, argv, capsys):
        assert run_cli(argv)[0] == 2
        assert "grid times" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, bad", [
        (["cir", "--T", "nan"], "T=nan"),
        (["cir", "--T", "inf"], "T=inf"),
        (["cir", "--T", "inf", "--mc.paths", "10"], "T=inf"),
        (["merton", "--T", "inf"], "T=inf"),
        (["merton", "--T", "nan"], "T=nan"),
        (["lognormal", "--T", "nan", "--sigma", "1", "--p", "2"], "T=nan"),
        (["lognormal", "--T", "1", "--sigma", "nan", "--p", "2"], "sigma=nan"),
        (["lognormal", "--T", "1", "--sigma", "1", "--z", "nan"], "z=nan"),
        (["lognormal", "--T", "1", "--sigma", "1", "--z", "1", "--mu", "inf"], "mu=inf"),
        (["expform", "--T", "1", "--expr", "1e400", "--order", "1"], "1e400"),
    ], ids=lambda a: a if isinstance(a, str) else " ".join(a[:3]))
    def test_non_finite_input_is_configuration(self, argv, bad, capsys):
        # refused by name before it can reach the output's non-finite check
        assert run_cli([argv[0], "--hurst", "0.7", *argv[1:]]) == (2, "")
        err = capsys.readouterr().err
        assert f"must be finite, got {bad}" in err and "non-finite" not in err

    @pytest.mark.parametrize("r", ["-1", "inf", "nan"])
    def test_taylor_r_off_the_grid_is_reported_as_r(self, r, capsys):
        # r is checked before the simulation grid that would carry it
        code, _ = run_cli(["taylor", "--hurst", "0.7", "--r", r, "--grid", "0,0.5,1",
                           "--expr", "B(1)", "--order", "1", "--mc.paths", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "need 0 <= r <= horizon, got r=" in err and "grid times" not in err

    @pytest.mark.parametrize("expr", ["(" * 1000 + "B(1)" + ")" * 1000,
                                      "exp(" * 1000 + "B(1)" + ")" * 1000],
                             ids=["parentheses", "exp"])
    def test_nesting_too_deep_to_parse_is_configuration(self, expr, capsys):
        assert run_cli(["expform", "--hurst", "0.7", "--T", "1", "--expr", expr,
                        "--order", "1"]) == (2, "")
        assert "expression nested too deeply" in capsys.readouterr().err

    def test_huge_moment_order_overflows_at_once(self, capsys):
        # the Stirling sums stop at l = 2n, so p = 100000 takes no big-integer
        # loop over p; the float conversion then overflows, an engine error
        start = time.perf_counter()
        assert run_cli(["lognormal", "--hurst", "0.7", "--T", "1", "--sigma", "1",
                        "--p", "100000"]) == (3, "")
        assert time.perf_counter() - start < 5.0
        assert "too large to convert to float" in capsys.readouterr().err

    def test_negative_moment_order_is_configuration(self):
        assert run_cli(["lognormal", "--hurst", "0.7", "--T", "1", "--sigma", "1",
                        "--p", "2", "--order", "-1"])[0] == 2

    @pytest.mark.parametrize("argv", [
        ["lognormal", "--hurst", "0.75", "--T", "1", "--sigma", "1e200", "--p", "2"],
        ["cir", "--hurst", "0.7", "--T", "1.5", "--mc.paths", "100"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_non_finite_output_is_engine_error(self, argv, fmt, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert run_cli(argv + ["--format", fmt]) == (3, "")
        assert "non-finite" in capsys.readouterr().err
        assert run_cli(argv + ["--format", fmt, "--output", str(target)]) == (3, "")
        assert not target.exists()

    def test_quadrature_error_is_engine_error(self, monkeypatch, capsys):
        # a quadrature that misses its tolerance raises QuadratureError, a
        # RuntimeError that is no EngineError
        from fbmseries import cli
        from fbmseries.quadrature import QuadratureError

        def fail(*args, **kwargs):
            raise QuadratureError("adaptive quadrature did not converge", 1e-3)

        monkeypatch.setattr(cli, "exp_series", fail)
        assert run_cli(["expform", "--hurst", "0.75", "--T", "1",
                        "--expr", "exp(IB(0,1))"]) == (3, "")
        assert "did not converge" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self):
        assert run_cli(["merton", "--hurst", "0.75", "--T", "1",
                        "--output", "/nonexistent/dir/out.json"])[0] == 4


class TestOutputContract:
    def test_json_round_trips_to_identical_table(self):
        argv = ["merton", "--hurst", "0.75", "--T", "1", "--order", "6"]
        _, table = run_cli(argv + ["--format", "table"])
        _, emitted = run_cli(argv + ["--format", "json"])
        assert render_table(json.loads(emitted)) == table

    def test_json_output_is_byte_identical_across_runs(self):
        argv = ["cir", "--hurst", "0.7", "--T", "0.3", "--mc.paths", "300",
                "--mc.refinement", "4", "--format", "json"]
        assert run_cli(argv) == run_cli(argv)

    def test_floats_carry_seventeen_significant_digits(self):
        _, out = run_cli(["merton", "--hurst", "0.75", "--T", "1",
                          "--order", "2", "--format", "json"])
        assert "1.1530612244897958" in out
        for x in json.loads(out)["partial_sums"]:
            assert float("%.17g" % x) == x

    def test_output_file_honors_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FBMSERIES_OUTPUT_DIR", str(tmp_path))
        code, out = run_cli(["merton", "--hurst", "0.75", "--T", "1",
                             "--output", "m.json", "--format", "json"])
        assert code == 0 and out == ""
        assert json.loads((tmp_path / "m.json").read_text())["subcommand"] == "merton"


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hurst = 0.75\nT = 1\norder = 5  # trailing comment\n")
        code, out = run_cli(["merton", "--config", str(cfg), "--order", "3",
                             "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 3 and doc["hurst"] == 0.75

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("paths = 7\n")
        assert run_cli(["merton", "--config", str(cfg), "--hurst", "0.75",
                        "--T", "1"])[0] == 2

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_unknown_format_rejected_as_flag_and_as_config_entry(self, where, tmp_path,
                                                                 capsys):
        argv = ["merton", "--hurst", "0.7", "--T", "1", "--order", "2"]
        if where == "flag":
            with pytest.raises(SystemExit) as exit_:
                run_cli(argv + ["--format", "xml"])
            assert exit_.value.code == 2
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("format = xml\n")
            assert run_cli(argv + ["--config", str(cfg)]) == (2, "")
        assert "format" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling, accepted", [
        (["--format", "xml"], "expected json, csv or table"),
        (["--grid", "0,x"], "expected comma-separated times"),
        ("format = xml\n", "expected json, csv or table"),
        ("grid = 0,x\n", "expected comma-separated times"),
    ], ids=["format-flag", "grid-flag", "format-config", "grid-config"])
    def test_bad_value_names_the_accepted_values(self, spelling, accepted, tmp_path,
                                                 capsys):
        argv = ["merton", "--hurst", "0.7", "--T", "1", "--order", "2"]
        if isinstance(spelling, list):
            with pytest.raises(SystemExit) as exit_:
                run_cli(argv + spelling)
            assert exit_.value.code == 2
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(spelling)
            assert run_cli(argv + ["--config", str(cfg)]) == (2, "")
        err = capsys.readouterr().err
        assert accepted in err
        assert "invalid" not in err and "_output_format" not in err
        assert "_grid_list" not in err

    def test_config_format_selects_the_output(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n")
        argv = ["merton", "--hurst", "0.7", "--T", "1", "--order", "2"]
        code, out = run_cli(argv + ["--config", str(cfg)])
        assert (code, out) == run_cli(argv + ["--format", "json"])
        assert json.loads(out)["order"] == 2

    def test_missing_config_file_rejected(self):
        assert run_cli(["merton", "--config", "/no/such/file",
                        "--hurst", "0.75", "--T", "1"])[0] == 2
