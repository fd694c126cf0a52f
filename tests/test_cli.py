"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import thintail as tt
from thintail import cli
from thintail.cli import main


@pytest.fixture()
def pre_file(tmp_path):
    """Quantile-matched Exp4(s=1) sample, written as a pre-aggregated CSV."""
    ps = (np.arange(1, 31) - 0.5) / 30
    losses = tt.Exp4Params(1.0).quantile(ps) * 80.0
    path = tmp_path / "losses.csv"
    path.write_text("amount\n" + "\n".join(repr(float(v)) for v in losses) + "\n")
    return path


@pytest.fixture()
def event_file(tmp_path):
    rows = ["amount,date,event_id,category"]
    rng = np.random.default_rng(3)
    for i in range(40):
        day = 1 + int(rng.integers(0, 27))
        month = 1 + int(rng.integers(0, 12))
        year = 2012 + int(rng.integers(0, 5))
        rows.append(f"{rng.uniform(0.5, 30.0):.4f},{year}-{month:02d}-{day:02d},EV{i % 12},CPBP")
    path = tmp_path / "events.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def run(args):
    return main([str(a) for a in args])


class TestFitCommand:
    def test_recovers_scale_and_writes_report(self, pre_file, tmp_path):
        out = tmp_path / "out"
        code = run(["fit", "--input", pre_file, "--mode", "pre", "--span-years", "5", "--out-dir", out])
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["s_hat_raw"] == pytest.approx(80.0, rel=0.01)
        assert report["power"] == 4
        assert report["reject"]["5%"] is False
        assert report["at_boundary"] is False and "converged" not in report  # the fit's one flag
        assert (out / "fit_manifest.json").exists()

    def test_single_loss_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("amount\n5.0\n")
        code = run(["fit", "--input", path, "--mode", "pre", "--span-years", "1"])
        assert code == 1
        assert "error: need at least 2 losses, got 1" in capsys.readouterr().err

    def test_power_four_matches_default_byte_for_byte(self, pre_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["fit", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--out-dir", out_a]) == 0
        assert run(["fit", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--out-dir", out_b, "--power", "4"]) == 0
        assert (out_a / "fit_report.json").read_bytes() == (out_b / "fit_report.json").read_bytes()

    def test_pre_mode_requires_span(self, pre_file, capsys):
        assert run(["fit", "--input", pre_file, "--mode", "pre"]) == 1
        assert "span-years" in capsys.readouterr().err

    def test_field_past_csv_limit_in_event_file_is_a_diagnostic(self, tmp_path, capsys):
        # The tokenizer takes the long id, but the bad row sends the file to the csv row loop.
        path = tmp_path / "events.csv"
        path.write_text("amount,date,event_id\n1.5,2016-01-01,a\nx,2016-01-02,b\n"
                        "2.5,2016-01-03," + "e" * 200_000 + "\n3,2016-02-01,a\n")
        assert run(["fit", "--input", path, "--mode", "event", "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: line 3: bad amount 'x'\nline 4: field larger than field limit (131072)\n"
        )

    def test_field_past_csv_limit_in_pre_aggregated_file_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("amount\n" + "1" * 200_000 + "\n")
        code = run(["fit", "--input", path, "--mode", "pre", "--span-years", "5", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == "error: line 2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("mode", [["--mode", "event"], ["--mode", "pre", "--span-years", "5"]])
    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys, mode):
        path = tmp_path / "latin1.csv"
        header = b"amount,date,event_id" if mode[1] == "event" else b"amount"
        row = b"1.5,2016-01-01,EV1" if mode[1] == "event" else b"1.5"
        path.write_bytes(b"\n".join([header, row, row + b"\xe9", row]) + b"\n")
        assert run(["fit", "--input", path, *mode, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"
        assert not (tmp_path / "out").exists()

    def test_field_past_the_header_is_not_an_event_id(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text("amount,date\n1.5,2016-01-01,EV1\n2.5,2016-02-01,EV2\n")
        assert run(["fit", "--input", path, "--mode", "event", "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: event aggregation requires event_id on every record; missing on 2 record(s)\n"
        )


class TestGofCommand:
    def test_reports_area_for_given_scale(self, pre_file, tmp_path):
        out = tmp_path / "out"
        code = run(["gof", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--scale", "1.7200", "--out-dir", out])
        assert code == 0
        report = json.loads((out / "gof_report.json").read_text())
        assert report["scale"] == 1.72
        assert report["tna_area"] < 0.068  # close to the fitted optimum


@pytest.mark.parametrize("command", [["fit"], ["gof", "--scale", "1"], ["density"], ["compare", "--models", "normal"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("losses, message", [
    ("1e308\n1.5e308", "the sum of the losses overflows a double, so they have no finite mean"),
    ("1e-300\n1e300\n3.0", "the least loss, 1e-300, divided by the mean, 3.3333333333333335e+299, "
                           "underflows to 0; the losses span too wide a range"),
], ids=["sum overflows", "least underflows"])
def test_losses_a_double_cannot_scale_are_an_error_line(tmp_path, capsys, command, losses, message):
    path = tmp_path / "losses.csv"
    path.write_text(f"amount\n{losses}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*command, "--input", path, "--mode", "pre", "--span-years", "5", "--out-dir", out])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestCapitalCommand:
    def test_defaults_and_reproducibility(self, pre_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                "--trials", "2000", "--seed", "7"]
        assert run(args + ["--out-dir", out_a]) == 0
        assert run(args + ["--out-dir", out_b]) == 0
        rep_a = json.loads((out_a / "capital_report.json").read_text())
        assert rep_a["percentile"] == 0.999
        assert rep_a["lambda"] == pytest.approx(6.0)
        assert (out_a / "capital_report.json").read_bytes() == (out_b / "capital_report.json").read_bytes()

    def test_trials_floor_rejected(self, pre_file, capsys):
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "500"])
        assert code == 1
        assert "trials" in capsys.readouterr().err

    def test_negative_seed_rejected_before_fitting(self, pre_file, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the seed was checked")

        monkeypatch.setattr("thintail.cli.fit_expn", no_fit)
        out = tmp_path / "out"
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--seed", "-1", "--out-dir", out])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_an_error_line(self, pre_file, tmp_path, capsys, monkeypatch):
        # numpy's allocation failure is a MemoryError; raising one here keeps the host's memory out of it
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000000,) and data type float64")

        monkeypatch.setattr("thintail.cli.run_lda", no_memory)
        out = tmp_path / "out"
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "3000000000", "--out-dir", out])
        assert code == 1
        assert capsys.readouterr().err == ("error: Unable to allocate 22.4 GiB for an array with shape "
                                           "(3000000000,) and data type float64\n")
        assert not out.exists()

    def test_event_mode_pipeline(self, event_file, tmp_path):
        out = tmp_path / "out"
        code = run(["capital", "--input", event_file, "--mode", "event",
                    "--trials", "2000", "--out-dir", out])
        assert code == 0
        report = json.loads((out / "capital_report.json").read_text())
        assert report["count"] == 12
        assert report["capital"] > 0.0

    @pytest.mark.parametrize("freq", ["negbin:3.0", "normal"])
    def test_alternative_frequency_models(self, pre_file, tmp_path, freq):
        out = tmp_path / "out"
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "2000", "--freq", freq, "--out-dir", out])
        assert code == 0
        report = json.loads((out / "capital_report.json").read_text())
        assert report["frequency"] == freq.split(":")[0]

    @pytest.mark.parametrize("freq, field", [("poisson", "lam"), ("normal", "lam"), ("negbin:3", "mean")])
    def test_event_rate_the_sampler_cannot_draw_is_an_error_line(self, pre_file, tmp_path, capsys, freq, field):
        # 30 losses over 1e-300 years: lambda = 3e301, past numpy's Poisson and negative-binomial
        # limits and past counts that fit int64
        out = tmp_path / "out"
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "1e-300",
                    "--freq", freq, "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must lie in (0, ")
        assert err.endswith(f"got {tt.annual_frequency(30, 1e-300)!r}\n") and err.count("\n") == 1
        assert not out.exists()

    def test_dispersion_that_moves_numpy_s_mean_is_an_error_line(self, pre_file, tmp_path, capsys):
        # at lambda = 6 and dispersion 1e17, p rounds to 1 and numpy would draw no events at all
        out = tmp_path / "out"
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--freq", "negbin:1e17", "--out-dir", out])
        assert code == 1
        assert capsys.readouterr().err == ("error: dispersion must let numpy draw counts of mean 6.0 to within "
                                           "1e-06, got 1e+17 (numpy's mean is 0.0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("span, freq, message", [
        ("3e-11", [], "event rate 1e+12 needs a draws buffer of 8e+12 bytes"),
        ("3e-17", ["--freq", "negbin:3"], "event rate 1e+18 needs a draws buffer of 5.42e+19 bytes"),
    ], ids=["poisson", "negbin"])
    def test_rate_no_memory_holds_is_an_error_line(self, pre_file, tmp_path, capsys, monkeypatch, span, freq,
                                                   message):
        monkeypatch.setattr("thintail.lda._run_chunks", None)  # a draw would call it
        out = tmp_path / "out"
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", span, *freq,
                    "--out-dir", out])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {message} for one trial (8 bytes x (mean + 10 sd + 1) events), "
                                           "above the 1073741824 bytes allowed\n")
        assert not out.exists()

    def test_huge_loss_scale_reports_a_finite_stderr(self, tmp_path, capsys):
        ps = (np.arange(1, 31) - 0.5) / 30
        path = tmp_path / "huge.csv"
        losses = tt.Exp4Params(1.0).quantile(ps) * 1e200
        path.write_text("amount\n" + "\n".join(repr(float(v)) for v in losses) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["capital", "--input", path, "--mode", "pre", "--span-years", "5", "--trials", "2000",
                        "--out-dir", out]) == 0

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads((out / "capital_report.json").read_text(), parse_constant=refuse)
        assert 0.0 < report["stderr_estimate"] < report["capital"]
        captured = capsys.readouterr()
        assert captured.err == ""
        # from 1e15 up the sum and capital print as .6g, not as 200-odd digits each
        (line,) = captured.out.splitlines()
        assert len(line) < 200
        assert f"sum={report['sum']:.6g} capital={report['capital']:.6g} " in line

    def test_bad_frequency_is_usage_error(self, pre_file):
        with pytest.raises(SystemExit) as exc:
            run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                 "--freq", "binomial"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", [["--freq", "negbin:x"], ["--freq", "negbin:0"], ["--freq", "negbin:nan"],
                                        ["--freq", "negbin:inf"], ["--mode", "bogus"]],
                             ids=" ".join)
    def test_bad_option_value_is_usage_error(self, pre_file, capsys, option):
        with pytest.raises(SystemExit) as exc:
            run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5", *option])
        assert exc.value.code == 2
        assert f"argument {option[0]}:" in capsys.readouterr().err

    def test_span_years_overrides_event_dates(self, event_file, tmp_path):
        out = tmp_path / "out"
        assert run(["capital", "--input", event_file, "--mode", "event", "--span-years", "4",
                    "--trials", "2000", "--out-dir", out]) == 0
        report = json.loads((out / "capital_report.json").read_text())
        assert report["count"] == 12 and report["lambda"] == 12 / 4

    # Each run writes the same report bytes with THINTAIL_THREADS unset (one worker) and at each worker count
    # listed.  Over 0.1125 years the 30 losses are lambda = 267: a chunk draws about 1.1M severities a model in
    # nine trial groups, and keeps its counts 2 bytes wide.
    @pytest.mark.parametrize("argv, threads", [
        (["capital", "--trials", "5000", "--seed", "3"], ["8"]),
        (["capital", "--power", "100", "--trials", "20000"], ["2"]),
        (["compare", "--trials", "20000"], ["2"]),
        (["compare", "--span-years", "0.1125", "--trials", "20000"], ["2", "3"]),
        (["curve", "--span-years", "0.1125", "--with-capital", "--trials", "20000"], ["2"]),
    ], ids=["capital", "capital --power 100", "compare", "compare lambda 267", "curve --with-capital lambda 267"])
    def test_threads_env_does_not_change_result(self, pre_file, tmp_path, monkeypatch, argv, threads):
        command, *options = argv
        monkeypatch.delenv("THINTAIL_THREADS", raising=False)
        reports = []
        for workers in [None, *threads]:
            if workers is not None:
                monkeypatch.setenv("THINTAIL_THREADS", workers)
            out = tmp_path / f"threads{workers}"
            assert run([command, "--input", pre_file, "--mode", "pre", "--span-years", "5", *options,
                        "--out-dir", out]) == 0
            reports.append((out / PINNED_ARGS[command][1]).read_bytes())
        assert reports[1:] == reports[:1] * len(threads)

    def test_bad_threads_env_names_itself(self, pre_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("THINTAIL_THREADS", "abc")
        code = run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "2000", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == "error: THINTAIL_THREADS must be an integer, got 'abc'\n"


class TestCompareCommand:
    def test_table_two_column_layout(self, pre_file, tmp_path):
        out = tmp_path / "out"
        code = run(["compare", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "2000", "--models", "exp4,normal,expn:100", "--out-dir", out])
        assert code == 0
        with open(out / "compare_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "count", "sum", "capital", "tna", "normal_capital", "expn_capital"]
        assert rows[1][0] == "losses"
        assert int(rows[1][1]) == 30
        assert float(rows[1][3]) > 0.0

    @pytest.mark.parametrize("models, columns", [("exp4", []), ("exp4,normal,normal", ["normal_capital"])],
                             ids=["exp4", "exp4,normal,normal"])
    def test_single_model_single_capital_column(self, pre_file, tmp_path, models, columns):
        # a repeated model spec runs once
        out = tmp_path / "out"
        code = run(["compare", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "2000", "--models", models, "--out-dir", out])
        assert code == 0
        with open(out / "compare_table.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["dataset", "count", "sum", "capital", "tna", *columns]

    def test_unknown_model_is_usage_error(self, pre_file):
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                 "--models", "exp4,cauchy"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("label", ["a,b", "two\r\nlines"])
    def test_stdout_rows_are_the_table_rows(self, pre_file, tmp_path, capsys, label):
        out = tmp_path / "out"
        assert run(["compare", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "2000", "--models", "exp4,normal", "--label", label,
                    "--out-dir", out]) == 0
        with open(out / "compare_table.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[1][0] == label
        stdout = capsys.readouterr().out
        assert not stdout.endswith("\r\n")
        assert list(csv.reader(io.StringIO(stdout, newline=""))) == table


class TestCurveCommand:
    def test_rows_ordered_by_n(self, pre_file, tmp_path):
        out = tmp_path / "out"
        code = run(["curve", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--powers", "8,4,6", "--out-dir", out])
        assert code == 0
        with open(out / "curve_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "q999"]
        assert [int(r[0]) for r in rows[1:]] == [4, 6, 8]
        qs = [float(r[1]) for r in rows[1:]]
        assert qs[0] > qs[1] > qs[2]
        # a repeated power gives one row
        assert run(["curve", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--powers", "4,4,6", "--out-dir", out]) == 0
        with open(out / "curve_data.csv", newline="") as fh:
            assert list(csv.reader(fh)) == rows[:3]

    def test_default_powers_are_even_and_silent(self, pre_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["curve", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--out-dir", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        with open(out / "curve_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [int(r[0]) for r in rows[1:]] == list(range(4, 21, 2))

    @pytest.mark.parametrize("powers, expected", [("4..7", [4, 6]), ("4..20", list(range(4, 21, 2)))],
                             ids=["4..7", "4..20"])
    def test_range_steps_by_two_and_is_silent(self, pre_file, tmp_path, capsys, powers, expected):
        out = tmp_path / "out"
        code = run(["curve", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--powers", powers, "--out-dir", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        with open(out / "curve_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [int(r[0]) for r in rows[1:]] == expected

    @pytest.mark.parametrize("powers, reason", [
        ("4,5,6", "ExpN power must be a positive even integer, got 5"),
        ("5", "ExpN power must be a positive even integer, got 5"),
        ("3,5", "ExpN power must be a positive even integer, got 3"),
        ("0", "ExpN power must be a positive even integer, got 0"),
        ("3..9", "ExpN power must be a positive even integer, got 3"),
        ("9..4", "bad power list '9..4'"),
        ("x", "bad power list 'x'"),
    ], ids=["4,5,6", "5", "3,5", "0", "3..9", "9..4", "x"])
    def test_refused_powers_are_usage_errors(self, tmp_path, capsys, powers, reason):
        # the input does not exist: a refused power is reported before it would be read
        with pytest.raises(SystemExit) as exc:
            run(["curve", "--input", tmp_path / "missing.csv", "--mode", "pre", "--span-years", "5",
                 "--powers", powers, "--out-dir", tmp_path / "out"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --powers: {reason}")
        assert not (tmp_path / "out").exists()

    def test_empty_powers_is_usage_error(self, pre_file):
        with pytest.raises(SystemExit) as exc:
            run(["curve", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                 "--powers", ","])
        assert exc.value.code == 2

    def test_capital_column_on_request(self, pre_file, tmp_path):
        out = tmp_path / "out"
        code = run(["curve", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--powers", "4,6", "--with-capital", "--trials", "2000", "--out-dir", out])
        assert code == 0
        with open(out / "curve_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "q999", "capital"]
        assert all(float(r[2]) > 0 for r in rows[1:])

    def test_huge_loss_scale_prints_short_lines(self, tmp_path, capsys):
        ps = (np.arange(1, 31) - 0.5) / 30
        path = tmp_path / "huge.csv"
        losses = tt.Exp4Params(1.0).quantile(ps) * 1e200
        path.write_text("amount\n" + "\n".join(repr(float(v)) for v in losses) + "\n")
        out = tmp_path / "out"
        assert run(["curve", "--input", path, "--mode", "pre", "--span-years", "5", "--powers", "4,8",
                    "--with-capital", "--trials", "2000", "--out-dir", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        with open(out / "curve_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # from 1e15 up q999 and capital print as .6g, not as 200-odd digits each
        assert captured.out.splitlines() == [
            f"n={int(n):3d} q999={float(q999):.6g} capital={float(capital):.6g}" for n, q999, capital in rows
        ]
        assert all(len(line) < 200 for line in captured.out.splitlines())


class TestDensityCommand:
    def test_columns_and_grid_span(self, pre_file, tmp_path):
        out = tmp_path / "out"
        code = run(["density", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--out-dir", out])
        assert code == 0
        with open(out / "density_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "fit", "empirical"]
        xs = [float(r[0]) for r in rows[1:]]
        losses = [float(v) for v in pre_file.read_text().splitlines()[1:]]
        scaled_max = max(losses) / (sum(losses) / len(losses))
        assert xs[0] == 0.0
        assert xs[-1] == pytest.approx(1.2 * scaled_max, rel=1e-12)

    def test_bimodal_data_shows_two_empirical_peaks(self, tmp_path):
        rng = np.random.default_rng(5)
        lo = rng.normal(10.0, 0.8, 25)
        hi = rng.normal(60.0, 2.5, 25)
        losses = np.abs(np.concatenate((lo, hi)))
        path = tmp_path / "bimodal.csv"
        path.write_text("amount\n" + "\n".join(repr(float(v)) for v in losses) + "\n")
        out = tmp_path / "out"
        code = run(["density", "--input", path, "--mode", "pre", "--span-years", "5",
                    "--out-dir", out])
        assert code == 0
        with open(out / "density_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        fit = np.array([float(r[1]) for r in rows])
        emp = np.array([float(r[2]) for r in rows])

        def peak_count(curve):
            inner = (curve[1:-1] > curve[:-2]) & (curve[1:-1] > curve[2:])
            meaningful = curve[1:-1] > 0.05 * curve.max()
            return int((inner & meaningful).sum())

        assert peak_count(emp) >= 2
        assert peak_count(fit) <= 1

    @pytest.mark.parametrize("power, reason", [
        ("0", "n must be an integer >= 1, got 0"),
        ("x", "invalid int value: 'x'"),
        ("expn:8", "invalid int value: 'expn:8'"),
    ], ids=["0", "x", "expn:8"])
    def test_refused_power_says_why(self, pre_file, tmp_path, capsys, power, reason):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["density", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                 "--power", power, "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --power: {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("power", [3, 8])
    def test_fit_column_is_the_density_of_the_fitted_power(self, pre_file, tmp_path, power):
        # any power fit accepts, the odd 3 included
        out = tmp_path / "out"
        assert run(["density", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--power", str(power), "--grid-points", "11", "--out-dir", out]) == 0
        with open(out / "density_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        losses = [float(v) for v in pre_file.read_text().splitlines()[1:]]
        params = tt.fit_expn(losses, power).model.params
        assert params.n == power
        assert [float(r[1]) for r in rows] == params.pdf(np.array([float(r[0]) for r in rows])).tolist()

    @pytest.mark.parametrize("points", ["-3", "0", "1"])
    def test_grid_points_below_two_is_usage_error(self, pre_file, tmp_path, capsys, points):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["density", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                 "--grid-points", points, "--out-dir", out])
        assert exc.value.code == 2
        assert "--grid-points" in capsys.readouterr().err
        assert not out.exists()

    def test_all_equal_losses_give_a_normal_bump(self, tmp_path):
        path = tmp_path / "equal.csv"
        path.write_text("amount\n" + "7.5\n" * 6)
        out = tmp_path / "out"
        assert run(["density", "--input", path, "--mode", "pre", "--span-years", "5",
                    "--out-dir", out]) == 0
        with open(out / "density_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 201
        x = np.array([float(r[0]) for r in rows])
        assert np.array_equal([float(r[2]) for r in rows], tt.NormalParams(1.0, 0.1).pdf(x))

    def test_two_grid_points_span_zero_to_past_the_largest_loss(self, pre_file, tmp_path):
        out = tmp_path / "out"
        assert run(["density", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--grid-points", "2", "--out-dir", out]) == 0
        with open(out / "density_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3 and float(rows[1][0]) == 0.0 and float(rows[2][0]) > 0.0


# Each bad option value, on a file whose line 3 is refused: the option is reported, not the line.
# A value argparse refuses is a usage error (status 2), one the command refuses is status 1.
# With no bad option, the file's line 3 is reported.
COMMA_FILE_OPTION_ERRORS = [
    (["fit"], {}, 1, "line 3: expected 1 field (amount), got 2"),
    (["capital", "--trials", "10"], {}, 1, "trials must be an integer >= 1000, got 10"),
    (["capital", "--percentile", "1.5"], {}, 1, "percentile must lie in (0, 1), got 1.5"),
    (["capital", "--percentile", "nan"], {}, 1, "percentile must lie in (0, 1), got nan"),
    (["capital", "--power", "0"], {}, 2, "argument --power: n must be an integer >= 1, got 0"),
    (["compare", "--seed", "-1"], {}, 1, "seed must be an integer >= 0, got -1"),
    (["gof", "--scale", "0"], {}, 1, "scale must be finite and > 0, got 0.0"),
    (["gof", "--power", "0"], {}, 2, "argument --power: n must be an integer >= 1, got 0"),
    (["fit", "--power", "0"], {}, 2, "argument --power: n must be an integer >= 1, got 0"),
    (["density", "--power", "0"], {}, 2, "argument --power: n must be an integer >= 1, got 0"),
    (["fit", "--power", "4.0"], {}, 2, "argument --power: invalid int value: '4.0'"),
    (["fit", "--span-years", "-1"], {}, 1, "span_years must be finite and > 0, got -1.0"),
    (["fit", "--span-years", "inf"], {}, 1, "span_years must be finite and > 0, got inf"),
    (["capital"], {"THINTAIL_THREADS": "abc"}, 1, "THINTAIL_THREADS must be an integer, got 'abc'"),
    (["compare"], {"THINTAIL_THREADS": "abc"}, 1, "THINTAIL_THREADS must be an integer, got 'abc'"),
    (["curve", "--with-capital"], {"THINTAIL_THREADS": "abc"}, 1, "THINTAIL_THREADS must be an integer, got 'abc'"),
    (["curve"], {"THINTAIL_THREADS": "abc"}, 1, "THINTAIL_THREADS must be an integer, got 'abc'"),
    (["capital"], {"THINTAIL_THREADS": "0"}, 1, "THINTAIL_THREADS must be an integer >= 1, got 0"),
]


@pytest.mark.parametrize("argv, env, status, message", COMMA_FILE_OPTION_ERRORS,
                         ids=[" ".join([*argv, *env]) for argv, env, _, _ in COMMA_FILE_OPTION_ERRORS])
def test_option_errors_come_before_the_input_is_read(tmp_path, capsys, monkeypatch, argv, env, status, message):
    path = tmp_path / "comma.csv"
    path.write_text("amount\n1.5\n2.0,7\n3.25\n0.8\n4.1\n")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    command, *options = argv
    out = tmp_path / "out"
    try:
        code = run([command, "--input", path, "--mode", "pre", "--span-years", "5", *options,
                    "--out-dir", out])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == status
    err = capsys.readouterr().err
    if status == 2:  # argparse prints the usage, then the program, the command and the message
        assert err.endswith(f"\nthintail {command}: error: {message}\n")
    else:
        assert err == f"error: {message}\n"
    assert not out.exists()


class TestManifests:
    def test_every_command_writes_manifest(self, pre_file, tmp_path):
        commands = {
            "fit": [],
            "gof": ["--scale", "1.7"],
            "capital": ["--trials", "2000"],
            "compare": ["--trials", "2000", "--models", "exp4"],
            "curve": ["--powers", "4,6"],
            "density": [],
        }
        for name, extra in commands.items():
            out = tmp_path / name
            code = run([name, "--input", pre_file, "--mode", "pre", "--span-years", "5",
                        "--out-dir", out] + extra)
            assert code == 0, name
            manifest = json.loads((out / f"{name}_manifest.json").read_text())
            assert manifest["command"] == name
            assert manifest["tool"] == "thintail"
            assert manifest["tool_version"] == tt.__version__
            assert "timestamp" in manifest and "config" in manifest
            assert manifest["python_version"] == platform.python_version()
            assert manifest["numpy_version"] == np.__version__
            assert manifest["scipy_version"] == scipy.__version__
            assert manifest["input_sha256"] == hashlib.sha256(pre_file.read_bytes()).hexdigest()

    def test_replaying_manifest_reproduces_report(self, pre_file, tmp_path):
        out_a = tmp_path / "a"
        assert run(["capital", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "2000", "--seed", "11", "--out-dir", out_a]) == 0
        manifest = json.loads((out_a / "capital_manifest.json").read_text())

        # the manifest argv starts with the subcommand; replay into a new out-dir
        out_b = tmp_path / "b"
        argv = list(manifest["argv"])
        argv[argv.index("--out-dir") + 1] = str(out_b)
        assert main(argv) == 0
        assert (out_a / "capital_report.json").read_bytes() == (out_b / "capital_report.json").read_bytes()

    def test_outputs_parse_with_own_readers(self, pre_file, tmp_path):
        out = tmp_path / "out"
        assert run(["compare", "--input", pre_file, "--mode", "pre", "--span-years", "5",
                    "--trials", "2000", "--models", "exp4", "--out-dir", out]) == 0
        with open(out / "compare_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and len(rows[0]) == len(rows[1])


# Every command's report, table or density file (SHA-256) and exact stdout on both fixtures,
# with the output directory printed as <out>.  Any change to a figure, a format or a
# summary line moves one of these.
PINNED_ARGS = {
    "fit": ([], "fit_report.json"),
    "gof": (["--scale", "1.7"], "gof_report.json"),
    "capital": (["--trials", "2000", "--seed", "7"], "capital_report.json"),
    "compare": (["--trials", "2000", "--seed", "7"], "compare_table.csv"),
    "curve": (["--with-capital", "--powers", "4,8", "--trials", "2000", "--seed", "7"], "curve_data.csv"),
    "density": ([], "density_data.csv"),
}
PINNED_MODES = {"pre_file": ["--mode", "pre", "--span-years", "5"], "event_file": ["--mode", "event"]}
PINNED_OUTPUTS = {
    ("pre_file", "fit"): (
        "22aa80f0a4f263617b1cb5e614bb7b790eb6358f33cc15352df16a6c257c638f",
        'fit [losses] power=4: s_hat=1.72351 (raw 80.0001 mEUR), scaling_mean=46.4169, area=0.0000, attained=0.0000\n  1% two-tailed: accept\n  5% two-tailed: accept\n  10% two-tailed: accept\n',
    ),
    ("pre_file", "gof"): (
        "e4505f03d284da2e4c68e8ce98e48a866f6abcccd38a1f883a6ecd1a1e26ca3c",
        'gof [losses] power=4 scale=1.7: area=0.0052, attained=0.0019\n  1% two-tailed: accept\n  5% two-tailed: accept\n  10% two-tailed: accept\n',
    ),
    ("pre_file", "capital"): (
        "dbd00ea3d0c1cf56e537cce41582c49da463cf60d2226ee6255f74f51995fd99",
        'capital [losses]: count=30 sum=1392.5 capital=819.9 tna=0.000 (lambda=6, trials=2000, converged=False)\n',
    ),
    ("pre_file", "compare"): (
        "3c465e7149e5f6ebf2d67c284f4a29539612425bd05eacae63a208affcaf6c56",
        'dataset,count,sum,capital,tna,normal_capital,expn_capital\nlosses,30,1392.5055381354548,819.928473414071,2.414762976506688e-07,840.2512914561119,769.8654132698434\n',
    ),
    ("pre_file", "curve"): (
        "f3a4fc469a616efe254c972c2644579c5449ea36ef9972d550a6c1572cf3e67a",
        'n=  4 q999=137.6031 capital=819.93\nn=  8 q999=109.8408 capital=777.65\n',
    ),
    ("pre_file", "density"): (
        "15b082888ed3b898441c2310f86d4ecb2c9681132f0c056939ec262437812a8e",
        'density [losses]: wrote 201 grid rows to <out>/density_data.csv\n',
    ),
    ("event_file", "fit"): (
        "a1f389d51e6cbd884ee5dfeb8a5e346420420bff00215430b4beb4125376b9b6",
        'fit [events] power=4: s_hat=1.58084 (raw 78.5994 mEUR), scaling_mean=49.7201, area=0.1008, attained=0.0376\n  1% two-tailed: reject\n  5% two-tailed: reject\n  10% two-tailed: accept\n',
    ),
    ("event_file", "gof"): (
        "6703aa2773d74c0097c57f83ced21d006547818149bf46a1848dd1f960836273",
        'gof [events] power=4 scale=1.7: area=0.1039, attained=0.0389\n  1% two-tailed: reject\n  5% two-tailed: reject\n  10% two-tailed: accept\n',
    ),
    ("event_file", "capital"): (
        "a3a75b248348e312c693dbb9427350febee11e370b1c6a94188fff9d0a8e46d7",
        'capital [events]: count=12 sum=596.6 capital=447.0 tna=0.101 (lambda=2.49, trials=2000, converged=False)\n',
    ),
    ("event_file", "compare"): (
        "9457391ca5f957cd3ad7159ea6af625279e97facb0032c0cdeb6fca5e4ad4c22",
        'dataset,count,sum,capital,tna,normal_capital,expn_capital\nevents,12,596.6413,446.96070753405957,0.10079530399722,455.1296026349199,472.37117651162924\n',
    ),
    ("event_file", "curve"): (
        "75c6f83ab6b4b72cc6109be839ed52c7d5df40217c77453a4aab220187e30742",
        'n=  4 q999=135.1940 capital=446.96\nn=  8 q999=109.3865 capital=462.96\n',
    ),
    ("event_file", "density"): (
        "f9d1d3c8b8f49f8cbc53fb0e24c01e2b260da3f285e38dced94a17fb316ad3b1",
        'density [events]: wrote 201 grid rows to <out>/density_data.csv\n',
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("fixture,command", list(PINNED_OUTPUTS))
    def test_output_digest_and_stdout(self, fixture, command, request, tmp_path, capsys):
        extra, report = PINNED_ARGS[command]
        out = tmp_path / "out"
        code = run([command, "--input", request.getfixturevalue(fixture), *PINNED_MODES[fixture],
                    "--out-dir", out, *extra])
        assert code == 0
        captured = capsys.readouterr()
        digest, stdout = PINNED_OUTPUTS[fixture, command]
        assert captured.out.replace(str(out), "<out>") == stdout
        assert captured.err == ""
        assert hashlib.sha256((out / report).read_bytes()).hexdigest() == digest


# Each argv as main gets it; _build_parser adds options only for the commands an argv names.
PARSER_ARGVS = [
    ["--help"],
    ["--version"],
    [],
    ["curv", "--input", "x.csv"],
    *([command, "--help"] for command in cli._COMMANDS),
    *([command, "--input", "x.csv"] for command in cli._COMMANDS),
    ["fit", "--input", "x.csv", "--power", "0"],
    ["capital", "--input", "x.csv", "--freq", "negbin:3", "--trials", "2000", "--seed", "7"],
    ["compare", "--input", "x.csv", "--label", "curve", "--models", "exp4,normal"],
    ["curve", "--input", "x.csv", "--powers", "4..8", "--with-capital"],
    ["curve", "--input", "x.csv", "--powers", "4,5"],
    ["curve", "--input", "x.csv", "--power", "4"],
    ["density", "--input", "x.csv", "--grid-points", "1"],
    ["fit", "density", "--input", "x.csv"],
    ["--", "fit", "--input", "x.csv"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=[" ".join(argv) for argv in PARSER_ARGVS])
def test_parser_for_an_argv_parses_it_as_a_parser_with_every_command_does(argv, capsys):
    def parse(parser):
        try:
            outcome = vars(parser.parse_args(argv))
        except SystemExit as exc:  # help, version or a usage error
            outcome = exc.code
        return outcome, capsys.readouterr()

    assert parse(cli._build_parser(argv)) == parse(cli._build_parser(list(cli._COMMANDS)))


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert tt.__version__ in capsys.readouterr().out


def python(*args):
    """Run a fresh interpreter that imports this thintail."""
    src = str(Path(tt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


# The process's exit status: 0 with a report, 1 with one error line, 2 on a usage error; no out-dir
# unless the run succeeds.  Each case starts an interpreter, which imports scipy.
@pytest.mark.parametrize("options, status, stderr", [
    ([], 0, ""),
    (["--span-years", "inf"], 1, "error: span_years must be finite and > 0, got inf\n"),
    (["--power", "0"], 2, "thintail fit: error: argument --power: n must be an integer >= 1, got 0\n"),
], ids=["report", "error line", "usage error"])
def test_exit_status_of_the_module_entry_point(pre_file, tmp_path, options, status, stderr):
    out = tmp_path / "out"
    done = python("-m", "thintail.cli", "fit", "--input", str(pre_file), "--mode", "pre", "--span-years", "5",
                  *options, "--out-dir", str(out))
    assert done.returncode == status
    if status == 2:  # argparse prints the usage first
        assert done.stderr.startswith("usage: thintail fit ") and done.stderr.endswith(f"\n{stderr}")
    else:
        assert done.stderr == stderr
    if status == 0:
        assert (out / "fit_report.json").stat().st_size > 0
    else:
        assert not out.exists()


def test_importing_the_cli_loads_neither_scipy_stats_nor_scipy_optimize():
    # Each adds to every command's start-up; density imports gaussian_kde only when it runs.
    code = "import sys, thintail.cli; print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))"
    done = python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
