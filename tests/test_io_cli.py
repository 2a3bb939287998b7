import argparse
import csv
import functools
import io
import json
import warnings

import numpy as np
import pytest

from permexp import cli
from permexp.cli import build_parser, main
from permexp.estimators import multi_estimate
from permexp.grids import get_score, score_grid
from permexp.io import (
    format_json_report,
    load_lottery_csv,
    load_permutation_csv,
    save_draws_csv,
    write_grid_csv,
)
from permexp.ipfp import IpfpNonConvergence, limit_matrix, variational_value
from permexp.mcmc import sample
from permexp.models import KendallModel, LinearModel
from permexp.perm import Permutation

from conftest import grid_mean, random_permutation, save_permutation_csv


class TestPermutationCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pi = random_permutation(rng, 37)
        path = tmp_path / "pi.csv"
        save_permutation_csv(pi, path)
        assert load_permutation_csv(path) == pi

    def test_rows_any_order(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("i,pi\n2,3\n1,1\n3,2\n")
        assert load_permutation_csv(path) == Permutation([1, 3, 2])

    def test_header_validated(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n1,1\n")
        with pytest.raises(ValueError):
            load_permutation_csv(path)

    def test_non_bijection_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("i,pi\n1,2\n2,2\n")
        with pytest.raises(ValueError):
            load_permutation_csv(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("i,pi\n1,1\n1,2\n")
        with pytest.raises(ValueError):
            load_permutation_csv(path)

    @pytest.mark.parametrize("rows", ["0,1\n1,2\n", "1,1\n3,2\n"],
                             ids=["index-0", "index-n+1"])
    def test_index_outside_range_rejected(self, tmp_path, rows):
        path = tmp_path / "p.csv"
        path.write_text("i,pi\n" + rows)
        with pytest.raises(ValueError, match="index column is not a bijection of 1..2"):
            load_permutation_csv(path)


class TestCsvRows:
    @pytest.mark.parametrize("text", [
        "i,pi\n2,3\n1,1\n3,2\n",
        "i,pi\r\n2,3\r\n1,1\r\n3,2\r\n",
        " i , pi \n\n2, 3\n \t \n1 ,1\n,\n3,\t2",
        "i,pi\n+2,3\n1,+1\n03,2\n\n\n",
    ], ids=["lf", "crlf", "blank-lines-and-spaces", "signs-zeros-trailing-blanks"])
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        assert load_permutation_csv(path) == Permutation([1, 3, 2])

    @pytest.mark.parametrize("rows, line, message", [
        ("1,1\n2,x\n", 3, "non-integer field in ['2', 'x']"),
        ("1,1\n\n2,1.0\n", 4, "non-integer field in ['2', '1.0']"),
        ("1,1\n2,2,2\n", 3, "expected 2 fields"),
        ("1\n2,2\n", 2, "expected 2 fields"),
        ('1,"2"\n2,1\n', 2, "non-integer field in ['1', '\"2\"']"),
        ("1,99999999999999999999\n2,1\n", 2, "integer beyond int64 in"),
        ("1,-9223372036854775809\n2,1\n", 2, "integer beyond int64 in"),
    ], ids=["letter", "float-after-blank", "three-fields", "one-field", "quoted",
            "above-int64", "below-int64"])
    def test_bad_rows_name_their_line(self, tmp_path, rows, line, message):
        path = tmp_path / "p.csv"
        path.write_text("i,pi\n" + rows)
        with pytest.raises(ValueError) as exc:
            load_permutation_csv(path)
        assert str(exc.value).startswith(f"{path}:{line}: ")
        assert message in str(exc.value)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_csv_module_reader(self, tmp_path, seed):
        # the former reader, csv.reader and int() per field, on files with
        # blank lines, padding and CRLF endings in random places
        rng = np.random.default_rng(seed)
        n = 200
        lines = ["i,pi"]
        for i, v in zip(rng.permutation(n) + 1, rng.permutation(n) + 1):
            pad = [" " * int(rng.integers(0, 2)), "\t" * int(rng.integers(0, 2))]
            lines.append(f"{pad[0]}{i}{pad[1]},{pad[1]}{v}{pad[0]}")
            if rng.random() < 0.1:
                lines.append(["", " ", "\t", ",", " , "][int(rng.integers(0, 5))])
        ends = rng.choice(["\n", "\r\n"], size=len(lines))
        path = tmp_path / "p.csv"
        path.write_bytes("".join(a + e for a, e in zip(lines, ends)).encode())
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["i", "pi"]
            rows = [[int(c) for c in row] for row in reader
                    if row and not all(not c.strip() for c in row)]
        want = Permutation(np.array(rows)[np.argsort([r[0] for r in rows]), 1])
        assert load_permutation_csv(path) == want

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_permutation_csv(path)

    def test_fit_reports_an_int64_overflow_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("i,pi\n1,99999999999999999999\n2,1\n")
        assert main(["fit", "--method", "pl", "--data", str(path)]) == 1
        assert f"{path}:2: integer beyond int64" in capsys.readouterr().err


class TestLotteryCsv:
    def test_loads_bundled(self, lottery):
        assert lottery.pi().n == 366
        # September 14 (day 258 of a leap year) drew number 1
        assert lottery.draw_order[257] == 1
        assert lottery.pi().values[0] == 258

    def test_tau_reflects_pi(self, lottery):
        assert np.array_equal(lottery.tau().values, 367 - lottery.pi().values)

    def test_row_count_enforced(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("day_of_year,draw_order\n1,1\n2,2\n")
        with pytest.raises(ValueError):
            load_lottery_csv(path)

    def test_bijectivity_enforced(self, tmp_path):
        rows = "\n".join(f"{d},{d}" for d in range(1, 366 + 1))
        rows = rows.replace("5,5", "5,4", 1)  # duplicate draw number 4
        path = tmp_path / "l.csv"
        path.write_text("day_of_year,draw_order\n" + rows + "\n")
        with pytest.raises(ValueError):
            load_lottery_csv(path)


class TestGridCsv:
    def test_format(self):
        buf = io.StringIO()
        write_grid_csv(np.array([[1.0, 0.5], [0.25, 2.0 / 3.0]]), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "2"
        assert lines[1] == "1,0.5"
        assert lines[2].split(",")[1] == "0.6666666667"

    def test_matches_per_value_formatting(self):
        rng = np.random.default_rng(11)
        grid = rng.normal(scale=1e3, size=(6, 6))
        grid[0, :5] = [0.0, -0.0, 1e-113, 1e300, -2.5]
        grid[1, 0] = 1.0 / 3.0
        buf = io.StringIO()
        write_grid_csv(grid, buf)
        want = "6\n" + "".join(
            ",".join(f"{x:.10g}" for x in row) + "\n" for row in grid.tolist()
        )
        assert buf.getvalue() == want


def _per_value_csv(grid: np.ndarray) -> str:
    return f"{grid.shape[0]}\n" + "".join(
        ",".join(f"{x:.10g}" for x in row) + "\n" for row in grid.tolist())


def _assert_per_value(grid: np.ndarray) -> str:
    """write_grid_csv's text for grid, checked against per-value formatting."""
    buf = io.StringIO()
    write_grid_csv(grid, buf)
    got, want = buf.getvalue(), _per_value_csv(grid)
    # compared as a bool, so that a failure names the first differing value
    # instead of diffing megabytes of text
    same = got == want
    assert same, next(((g, w) for g, w in zip(got.replace("\n", ",").split(","),
                                              want.replace("\n", ",").split(","))
                       if g != w), "line breaks differ")
    return got


def _with_neighbours(x: np.ndarray) -> np.ndarray:
    """x and the doubles one ulp below and above each value."""
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


@functools.cache
def _writer_cases():
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2**64, 257 * 257, dtype=np.uint64, endpoint=False).view(np.float64)
    log_uniform = (rng.choice([-1.0, 1.0], 257 * 257)
                   * 10.0 ** rng.uniform(-20, 35, 257 * 257))
    # (m + 1/2) * 10**(e - 9): the double nearest a tie of the 10th digit
    # (the tie itself where it is a double, as for 12345678905)
    mantissas = rng.integers(10**9, 10**10, 3000)
    exponents = rng.integers(-320, 300, 3000)
    halves = np.array([float(f"{m}5e{e - 10}") for m, e in zip(mantissas, exponents)]
                      + [12345678905.0, 0.00012345678905])
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    subnormal = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                               2.2250738585072014e-308, 1.7976931348623157e308],
                              subnormal, -subnormal])
    return {
        "random-bits": bits[np.isfinite(bits)],
        "log-uniform": log_uniform,
        "half-way": _with_neighbours(halves),
        "powers-of-ten": _with_neighbours(powers),
        "zeros-inf-nan-subnormal": special,
        # 1.0 +- 1ulp, 9.9999999995 (rounds up to 10) and 0.0001 / 1e10 edges
        "notation-edges": _with_neighbours(np.array(
            [1.0, 9.9999999995, 9999999999.5, 99999.999995, 0.0001, 0.00009999999999995,
             1e10, 9999999999.0, 123456.7890123, -0.5, 1e-5, 12345678901.0])),
    }


class TestGridCsvProperty:
    """write_grid_csv against per-value f"{x:.10g}", seeded."""

    @pytest.mark.parametrize("case", ["random-bits", "log-uniform", "half-way", "powers-of-ten",
                                      "zeros-inf-nan-subnormal", "notation-edges"])
    def test_grids_of_order_257(self, case):
        values = _writer_cases()[case]
        # grids of order 257 hold more values than one formatting block
        for start in range(0, values.size, 257 * 257):
            _assert_per_value(np.resize(values[start:start + 257 * 257], (257, 257)))

    def test_order_one_grids(self):
        for values in _writer_cases().values():
            for x in values[:40]:
                buf = io.StringIO()
                write_grid_csv(np.array([[x]]), buf)
                assert buf.getvalue() == f"1\n{x:.10g}\n"

    def test_rows_mix_fixed_and_exponent_notation(self):
        row = np.array([1e-5, 0.0001, 123.5, 1e10, -9999999999.0, 0.0, -0.0, 5e-324])
        text = _assert_per_value(np.array([np.roll(row, j) for j in range(row.size)]))
        assert text.split("\n")[1] == (
            "1e-05,0.0001,123.5,1e+10,-9999999999,0,-0,4.940656458e-324")

    def test_empty_and_integer_grids(self):
        buf = io.StringIO()
        write_grid_csv(np.zeros((0, 0)), buf)
        assert buf.getvalue() == "0\n"
        counts = np.arange(9).reshape(3, 3) * 123456789013
        assert _assert_per_value(counts).startswith("3\n0,1.23456789e+11,")


def _random_draws(rng, count: int, n: int) -> np.ndarray:
    """``count`` uniform permutations of 1..n as the rows of one int64 array."""
    return np.array([rng.permutation(n) + 1 for _ in range(count)]).reshape(count, n)


class TestDrawsCsv:
    def test_format(self):
        buf = io.StringIO()
        save_draws_csv(np.array([[2, 1], [1, 2]]), buf)
        assert buf.getvalue() == (
            "draw,i,pi\n1,1,2\n1,2,1\n2,1,1\n2,2,2\n"
        )

    def test_matches_per_row_formatting(self):
        # n = 300: the i and pi columns hold numbers of one to three digits
        rng = np.random.default_rng(12)
        draws = _random_draws(rng, 4, 300)
        buf = io.StringIO()
        save_draws_csv(draws, buf)
        want = "draw,i,pi\n" + "".join(
            f"{d},{i},{int(v)}\n"
            for d, row in enumerate(draws, start=1)
            for i, v in enumerate(row, start=1)
        )
        assert buf.getvalue() == want

    @pytest.mark.parametrize("draws", [
        [], [1, 2], [[[1]]], [Permutation([1, 2]), Permutation([2, 1])],
        np.array([[1, 3]]), np.array([[0, 1]]), np.array([[-1, 2]]),
    ], ids=["empty-list", "1-d", "3-d", "permutations", "above-n", "zero", "negative"])
    def test_rejects_anything_but_a_2d_array_of_1_to_n(self, draws):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="draws must form a 2-D array whose values lie in"):
            save_draws_csv(draws, buf)
        assert buf.getvalue() == ""


def _fstring_draws(draws) -> str:
    """The multi-draw CSV as the writer made it row by row with f-strings."""
    return "draw,i,pi\n" + "".join([f"{d},{i},{v}\n"
                                    for d, row in enumerate(draws.tolist(), start=1)
                                    for i, v in enumerate(row, start=1)])


def _assert_same_text(got: str, want: str) -> None:
    # line by line: on a failing == of two 10^4-row texts pytest would spend
    # minutes diffing them
    got_lines, want_lines = got.split("\n"), want.split("\n")
    bad = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
    assert bad is None, f"line {bad + 1}: {got_lines[bad]!r} != {want_lines[bad]!r}"
    assert len(got_lines) == len(want_lines)


class TestIntRowsAgainstFStrings:
    """The vectorised integer writer gives the f-string writer's bytes."""

    @pytest.mark.parametrize("n", [1, 9, 10, 99, 100, 10_000])
    def test_every_digit_width(self, tmp_path, n):
        rng = np.random.default_rng(n)
        draws = np.array([np.arange(1, n + 1), np.arange(n, 0, -1), rng.permutation(n) + 1])
        path = tmp_path / "draws.csv"
        save_draws_csv(draws, path)
        _assert_same_text(path.read_bytes().decode("ascii"), _fstring_draws(draws))

    @pytest.mark.parametrize("count", [9, 10, 99, 100, 10_000])
    def test_draw_column_widens(self, count):
        # n = 3: from 10 draws on, the draw column is the widest; 10^4 draws
        # span blocks of 1820 lines, which end inside a draw
        rng = np.random.default_rng(count)
        draws = _random_draws(rng, count, 3)
        buf = io.StringIO()
        save_draws_csv(draws, buf)
        _assert_same_text(buf.getvalue(), _fstring_draws(draws))

    def test_no_draws(self):
        buf = io.StringIO()
        save_draws_csv(np.empty((0, 3), dtype=np.int64), buf)
        assert buf.getvalue() == "draw,i,pi\n"

    def test_sample_to_stdout(self, capsys):
        assert main(["sample", "--f", "xy", "--theta", "3", "--n", "12", "--draws", "11",
                     "--burn", "5", "--thin", "1", "--sampler", "aux", "--seed", "8",
                     "--out", "-"]) == 0
        draws = sample(LinearModel(get_score("xy"), 3.0, 12), 11, burn=5, thin=1,
                       sampler="auxiliary", seed=8)
        _assert_same_text(capsys.readouterr().out, _fstring_draws(draws))


class TestJsonFormatting:
    def test_ten_significant_digits(self):
        out = format_json_report({"x": 1.0 / 3.0, "nested": {"y": 2.0 / 3.0}})
        data = json.loads(out)
        assert data["x"] == 0.3333333333
        assert data["nested"]["y"] == 0.6666666667


class TestCliFit:
    @pytest.fixture()
    def tau_csv(self, tmp_path, lottery):
        path = tmp_path / "tau.csv"
        save_permutation_csv(lottery.tau(), path)
        return str(path)

    def test_pl_on_lottery(self, tau_csv, capsys):
        code = main(["fit", "--model", "linear", "--f", "xy", "--method", "pl",
                     "--data", tau_csv])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "PL"
        assert abs(out["theta_hat"] - 2.92) <= 0.01

    def test_ld_small_grid(self, tau_csv, capsys):
        code = main(["fit", "--model", "linear", "--f", "xy", "--method", "ld",
                     "--data", tau_csv, "--k", "100", "--root-tol", "1e-4"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "LD" and out["k"] == 100
        # the k=100 grid is coarse; the k=1000 acceptance run pins 2.96
        assert abs(out["theta_hat"] - 2.96) <= 1.0

    def test_no_root_exit_code(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        save_permutation_csv(Permutation.identity(12), path)
        code = main(["fit", "--method", "pl", "--data", str(path)])
        assert code == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "no_root" and out["sign"] == "positive"

    @pytest.mark.parametrize("argv", [
        ["--method", "pl"], ["--method", "ld"], ["--method", "ml"],
        ["--model", "kendall", "--method", "ld"], ["--model", "kendall", "--method", "ml"],
    ], ids=["pl", "ld", "ml", "kendall-ld", "kendall-ml"])
    def test_one_element_is_degenerate(self, tmp_path, capsys, argv):
        # every equation is 0 at every theta on S_1: no fit may report a root
        path = tmp_path / "one.csv"
        path.write_text("i,pi\n1,1\n")
        assert main(["fit"] + argv + ["--data", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": "degenerate",
                       "detail": "one element carries no information about theta"}

    def test_nonpositive_root_tol_exit_code(self, tau_csv, capsys):
        code = main(["fit", "--method", "pl", "--data", tau_csv, "--root-tol", "0"])
        assert code == 1
        assert "root_tol must be positive" in capsys.readouterr().err

    def test_kendall_pl_incompatible(self, tau_csv, capsys):
        code = main(["fit", "--model", "kendall", "--method", "pl",
                     "--data", tau_csv])
        assert code == 1

    def test_kendall_ld(self, tau_csv, capsys):
        code = main(["fit", "--model", "kendall", "--method", "ld",
                     "--data", tau_csv])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "Kendall-LD"
        assert out["theta_hat"] < 0  # tau has fewer inversions than uniform

    def test_linear_ml(self, tmp_path, capsys):
        f = get_score("xy")
        pi = Permutation([2, 1, 3, 5, 4, 7, 6])
        path = tmp_path / "p.csv"
        save_permutation_csv(pi, path)
        code = main(["fit", "--method", "ml", "--data", str(path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        want = multi_estimate([pi], f, "ml")
        assert out == json.loads(format_json_report(want.to_json_dict()))
        assert out["method"] == "ML" and "k" not in out

    def test_missing_file(self, capsys):
        assert main(["fit", "--method", "pl", "--data", "/nonexistent.csv"]) == 1

    def test_unknown_flag_exits_1(self, tau_csv, capsys):
        # exit 2 is reserved for a fit with no root
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--method", "pl", "--data", tau_csv, "--multi"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --multi" in capsys.readouterr().err

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("permexp ")

    def test_multi_single_file_matches_plain(self, tau_csv, capsys):
        # one --data file is a pooled fit with m = 1
        main(["fit", "--method", "pl", "--data", tau_csv])
        pooled = json.loads(capsys.readouterr().out)
        plain = multi_estimate([load_permutation_csv(tau_csv)], get_score("xy"), "pl")
        single = json.loads(format_json_report(plain.to_json_dict()))
        assert single["theta_hat"] == pooled["theta_hat"]

    def test_kendall_pools_files(self, tmp_path, capsys):
        rows = sample(KendallModel(1.0, 60), 2, burn=20_000, thin=5_000,
                      sampler="swap", seed=3)
        draws = [Permutation(d) for d in rows]
        paths = []
        for i, d in enumerate(draws):
            path = tmp_path / f"k{i}.csv"
            save_permutation_csv(d, path)
            paths.append(str(path))
        for method in ("ld", "ml"):
            assert main(["fit", "--model", "kendall", "--method", method,
                         "--data", paths[0], "--data", paths[1]]) == 0
            pooled = json.loads(capsys.readouterr().out)
            want = multi_estimate(draws, None, method)
            assert pooled == json.loads(format_json_report(want.to_json_dict()))

    def test_kendall_file_copies_match_one_file(self, tau_csv, capsys):
        root_tol = 1e-8
        for method in ("ld", "ml"):
            argv = ["fit", "--model", "kendall", "--method", method,
                    "--root-tol", str(root_tol)]
            assert main(argv + ["--data", tau_csv]) == 0
            single = json.loads(capsys.readouterr().out)
            assert main(argv + ["--data", tau_csv] * 3) == 0
            pooled = json.loads(capsys.readouterr().out)
            assert abs(pooled["theta_hat"] - single["theta_hat"]) <= root_tol

    @pytest.mark.parametrize("flags", [["--f", "xy"], ["--k", "100"], ["--iters", "1"],
                                       ["--tol", "0.5"]])
    def test_kendall_rejects_linear_flags(self, tau_csv, capsys, flags):
        code = main(["fit", "--model", "kendall", "--method", "ld",
                     "--data", tau_csv] + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the Kendall model takes no {flags[0]}\n"

    @pytest.mark.parametrize("method", ["pl", "ml"])
    def test_linear_non_ld_rejects_ld_flags(self, tmp_path, capsys, method):
        path = tmp_path / "pi.csv"
        save_permutation_csv(Permutation([2, 4, 1, 3, 5]), path)
        code = main(["fit", "--method", method, "--k", "0", "--iters", "0", "--tol", "-1",
                     "--data", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: method {method} takes no --k, --iters, --tol\n"

    def test_multi_pools_two_files(self, tmp_path, capsys):
        f = get_score("xy")
        rows = sample(LinearModel(f, 2.0, 80), 2, burn=60, thin=5,
                      sampler="auxiliary", seed=33)
        draws = [Permutation(d) for d in rows]
        paths = []
        for i, d in enumerate(draws):
            path = tmp_path / f"d{i}.csv"
            save_permutation_csv(d, path)
            paths.append(str(path))
        code = main(["fit", "--method", "pl", "--data", paths[0],
                     "--data", paths[1]])
        assert code == 0
        pooled = json.loads(capsys.readouterr().out)
        want = multi_estimate(draws, f, "pl")
        assert pooled["theta_hat"] == pytest.approx(want.theta_hat, abs=1e-9)


@pytest.mark.parametrize("argv, message", [
    (["fit", "--method", "ld", "--data", "TAU", "--k", "0"], "grid order must be >= 1"),
    (["fit", "--method", "ld", "--data", "TAU", "--k", "-3"], "grid order must be >= 1"),
    (["fit", "--method", "ld", "--data", "TAU", "--iters", "0"], "max_iter must be >= 1"),
    (["fit", "--method", "ld", "--data", "TAU", "--tol", "nan"], "tol must be positive"),
    (["logz", "--theta-min", "-1", "--theta-max", "1", "--steps", "2", "--k", "0"],
     "grid order must be >= 1"),
    (["logz", "--theta-min", "-1", "--theta-max", "1", "--steps", "2", "--tol", "-1"],
     "tol must be positive"),
    (["density", "--theta", "1", "--k", "0"], "grid order must be >= 1"),
    (["density", "--theta", "1", "--k", "-2"], "grid order must be >= 1"),
    (["lottery", "--data", "LOTTERY", "--k", "0"], "grid order must be >= 1"),
    (["sample", "--theta", "1", "--n", "5", "--draws", "3", "--burn", "-5", "--thin", "1"],
     "burn must be >= 0"),
    (["sample", "--theta", "1", "--n", "5", "--draws", "3", "--burn", "5", "--thin", "0"],
     "thin must be >= 1"),
    (["sample", "--theta", "1", "--n", "5", "--draws", "3", "--burn", "5", "--thin", "-3"],
     "thin must be >= 1"),
    # a tolerance must be finite as well as positive
    (["fit", "--method", "ld", "--data", "TAU", "--tol", "inf"], "tol must be finite"),
    (["fit", "--method", "pl", "--data", "FIVE", "--root-tol", "inf"],
     "root_tol must be finite"),
    (["fit", "--method", "pl", "--data", "FIVE", "--root-tol", "nan"],
     "root_tol must be positive"),
    (["logz", "--theta-min", "-1", "--theta-max", "1", "--steps", "2", "--tol", "inf"],
     "tol must be finite"),
    (["density", "--theta", "20", "--k", "4", "--tol", "inf"], "tol must be finite"),
    (["lottery", "--data", "LOTTERY", "--tol", "inf"], "tol must be finite"),
    (["lottery", "--data", "LOTTERY", "--root-tol", "inf"], "root_tol must be finite"),
    (["logz", "--theta-min", "-1", "--theta-max", "1", "--steps", "1"],
     "need steps >= 2 and finite theta-min < theta-max"),
    (["sample", "--theta", "1", "--n", "5", "--draws", "0", "--hist", "3"],
     "--hist needs at least one draw"),
])
def test_invalid_work_size_exits_1(argv, message, tmp_path, lottery, lottery_path, capsys):
    tau = tmp_path / "tau.csv"
    save_permutation_csv(lottery.tau(), tau)
    five = tmp_path / "five.csv"
    save_permutation_csv(Permutation([2, 1, 4, 5, 3]), five)
    paths = {"TAU": str(tau), "FIVE": str(five), "LOTTERY": str(lottery_path)}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["density", "--theta", "50", "--k", "50", "--iters", "1"],
     "IPFP stopped at residual 1.678e-03 > tol 1.000e-12 after 1 sweeps"),
    (["density", "--f", "xy", "--theta=-1e20", "--k", "2"],
     "theta = -1e+20 needs potentials of size 1.25e+19 at k = 2, whose rounding moves "
     "the grid's sums by more than tol 1.000e-12"),
    (["sample", "--f", "footrule", "--sampler", "aux", "--theta", "1", "--n", "5"],
     "auxiliary sampler requires the Linear xy model with theta > 0; use sampler='swap'"),
], ids=["density-maxiter", "density-potentials-beyond-precision", "sample-aux-footrule"])
def test_command_failure_prints_one_error_line(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["density", "--theta", "2", "--k", "20", "--f", "xy"],
    ["density", "--theta", "2", "--k", "20", "--iters", "1"],
    ["density", "--theta", "2", "--k", "20", "--tol", "0.5"],
    ["sample", "--theta", "2", "--n", "8", "--f", "footrule"],
], ids=["density-f", "density-iters", "density-tol", "sample-f"])
def test_kendall_rejects_linear_flags(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--model", "kendall", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the Kendall model takes no {argv[-2]}\n"
    assert not out.exists()


class TestCliLogz:
    def test_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["logz", "--f", "xy", "--theta-min", "-6", "--theta-max", "6",
                     "--steps", "7", "--k", "40", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,w_k,w_k_prime,status"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 7
        mid = rows[3]
        assert float(mid[0]) == 0.0 and abs(float(mid[1])) < 1e-12
        primes = [float(r[2]) for r in rows]
        assert all(a < b for a, b in zip(primes, primes[1:]))
        assert all(r[3] == "ok" for r in rows)

    def test_theta_far_beyond_one_is_checked_to_its_rounding(self, tmp_path):
        # xy at k = 2 converges at any theta; w = 5 theta / 8 - log 2 there
        out = tmp_path / "curve.csv"
        code = main(["logz", "--f", "xy", "--theta-min=1e12", "--theta-max=1000000000001",
                     "--steps", "2", "--k", "2", "--out", str(out)])
        assert code == 0
        assert out.read_text() == ("theta,w_k,w_k_prime,status\n"
                                   "1e+12,6.25e+11,0.625,ok\n"
                                   "1e+12,6.25e+11,0.625,ok\n")

    def test_rows_refused_for_their_potentials_keep_the_rest(self, tmp_path):
        # footrule at k = 2 is refused below theta = -1.8e4, where rounding its
        # potentials could move a margin by more than tol; exit 0, as for maxiter
        out = tmp_path / "curve.csv"
        code = main(["logz", "--f", "footrule", "--theta-min=-1e5", "--theta-max=0",
                     "--steps", "3", "--k", "2", "--out", str(out)])
        assert code == 0
        assert out.read_text() == ("theta,w_k,w_k_prime,status\n"
                                   "-100000,,,refused\n"
                                   "-50000,,,refused\n"
                                   "0,-0,-0.25,ok\n")

    def test_iteration_capped_rows_flagged(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["logz", "--f", "xy", "--theta-min", "-500", "--theta-max",
                     "500", "--steps", "3", "--k", "30", "--iters", "5",
                     "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert rows[0][3] == "maxiter" and rows[2][3] == "maxiter"
        assert rows[1][3] == "ok"

    @pytest.mark.parametrize("f, lo, hi, iters", [("footrule", -40.0, 40.0, None),
                                                  ("xy", -500.0, 500.0, 5)])
    def test_rows_match_per_row_reference(self, tmp_path, f, lo, hi, iters):
        # the reference builds the score grid anew for each of theta * F,
        # variational_value and grid_mean
        out = tmp_path / "curve.csv"
        argv = ["logz", "--f", f, "--theta-min", repr(lo), "--theta-max", repr(hi),
                "--steps", "5", "--k", "30", "--out", str(out)]
        assert main(argv + (["--iters", str(iters)] if iters else [])) == 0
        score = get_score(f)
        want = ["theta,w_k,w_k_prime,status"]
        for theta in np.linspace(lo, hi, 5).tolist():
            status = "ok"
            try:
                res = limit_matrix(score, theta, 30, max_iter=iters)
            except IpfpNonConvergence as err:
                res, status = err.result, "maxiter"
            want.append(f"{theta:.10g},"
                        f"{variational_value(res):.10g},"
                        f"{grid_mean(res.grid.w, score_grid(score, 30)):.10g},{status}")
        assert out.read_text().splitlines() == want
        statuses = [row.rsplit(",", 1)[1] for row in want[1:]]
        assert statuses == (["maxiter"] * 2 + ["ok"] + ["maxiter"] * 2 if iters else ["ok"] * 5)

    @pytest.mark.parametrize("lo, hi", [("nan", "1"), ("-1", "inf"), ("2", "1")])
    def test_bad_range_keeps_existing_out(self, tmp_path, capsys, lo, hi):
        out = tmp_path / "curve.csv"
        out.write_text("earlier output\n")
        code = main(["logz", "--theta-min", lo, "--theta-max", hi, "--steps", "2",
                     "--k", "10", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: need steps >= 2 and finite theta-min < theta-max\n")
        assert out.read_text() == "earlier output\n"

    def test_range_too_wide_for_a_float(self, tmp_path, capsys):
        # both ends are finite, but hi - lo overflows inside np.linspace
        out = tmp_path / "curve.csv"
        out.write_text("earlier output\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["logz", "--theta-min=-1e308", "--theta-max=1e308", "--steps", "2",
                         "--k", "3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: need steps >= 2 and finite theta-min < theta-max\n")
        assert out.read_text() == "earlier output\n"


class TestCliDensity:
    @pytest.mark.parametrize("iters, message", [
        ([], "error: the default sweep cap overflows at theta = -1e+308; pass max_iter\n"),
        (["--iters", "5"], "error: IPFP stopped at residual 3.333e-02 > tol 1.000e-12 "
                           "after 5 sweeps\n"),
    ], ids=["default-cap", "given-cap"])
    def test_theta_near_float_max(self, tmp_path, capsys, iters, message):
        out = tmp_path / "d.csv"
        out.write_text("earlier output\n")
        code = main(["density", "--f", "xy", "--theta=-1e308", "--k", "3",
                     "--out", str(out)] + iters)
        assert code == 1
        assert capsys.readouterr().err == message
        assert out.read_text() == "earlier output\n"

    def test_theta_zero_flat(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["density", "--f", "xy", "--theta", "0", "--k", "8",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "8"
        vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.abs(vals - 1.0).max() <= 1e-10

    def test_kendall_density_margins(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["density", "--model", "kendall", "--theta", "2", "--k",
                     "400", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.abs(vals.mean(axis=0) - 1).max() <= 1e-4

    def test_failed_density_keeps_existing_out(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        out.write_text("earlier output\n")
        assert main(["density", "--theta", "50", "--k", "50", "--iters", "1",
                     "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"

    def test_file_and_stdout_get_the_same_bytes(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["density", "--f", "footrule", "--theta", "-7", "--k", "257"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv + ["--out", "-"]) == 0
        text = capsys.readouterr().out
        assert text.encode("ascii") == out.read_bytes()
        assert text.count("\n") == 258

    def test_spearman_density_peaks_on_diagonal(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["density", "--f", "xy", "--theta", "20", "--k", "60",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.abs(vals - vals.T).max() <= 1e-8
        assert np.abs(vals - vals[::-1, ::-1].T).max() <= 1e-8
        assert vals.diagonal().max() == vals.max()


class TestCliParser:
    def test_calls_parse_independently(self, tmp_path, lottery, capsys, monkeypatch):
        """main builds one parser per process, and no flag of a call reaches the next."""
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        tau = tmp_path / "tau.csv"
        save_permutation_csv(lottery.tau(), tau)
        kendall_fit = ["fit", "--model", "kendall", "--method", "ml", "--data", str(tau)]
        try:
            assert main(kendall_fit) == 0
            first = capsys.readouterr().out
            assert main(["fit", "--method", "ld", "--k", "20", "--data", str(tau),
                         "--data", str(tau)]) == 0
            assert main(["sample", "--theta", "1", "--n", "5", "--draws", "2", "--burn", "3",
                         "--thin", "1", "--seed", "4", "--out", str(tmp_path / "s.csv")]) == 0
            capsys.readouterr()
            # the Kendall fit rejects --k, and would pool two files if --data leaked
            assert main(kendall_fit) == 0
            assert capsys.readouterr().out == first
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    # the fewest words each command parses
    MINIMAL = {
        "fit": ["fit", "--data", "p.csv", "--method", "ld"],
        "logz": ["logz", "--theta-min", "0", "--theta-max", "1", "--steps", "2"],
        "density": ["density", "--theta", "1", "--k", "2"],
        "sample": ["sample", "--theta", "1", "--n", "3"],
        "lottery": ["lottery", "--data", "lottery.csv"],
    }

    @staticmethod
    def _float_flags(parser):
        """(command, flag, dest) of every float option of every command."""
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        return [(name, action.option_strings[0], action.dest)
                for name, sub in commands.items() for action in sub._actions
                if action.type is float]

    @pytest.mark.parametrize("value", ["-1e1", "-1e-3", "-2.5E+2"])
    def test_every_float_flag_takes_a_negative_exponent_joined_by_equals(self, value):
        parser = build_parser()
        flags = self._float_flags(parser)
        assert {(c, f) for c, f, _ in flags} == {
            ("fit", "--tol"), ("fit", "--root-tol"), ("logz", "--theta-min"),
            ("logz", "--theta-max"), ("logz", "--tol"), ("density", "--theta"),
            ("density", "--tol"), ("sample", "--theta"), ("lottery", "--tol"),
            ("lottery", "--root-tol")}
        for command, flag, dest in flags:
            args = parser.parse_args(self.MINIMAL[command] + [f"{flag}={value}"])
            assert getattr(args, dest) == float(value)
        assert "``--theta=-1e1``" in parser.format_help()

    def test_a_negative_exponent_as_its_own_word_parses_or_exits_1(self, capsys):
        # argparse reads "-1e1" as a number or as an option depending on its
        # version; either the value arrives, or one error line names the flag
        parser = build_parser()
        for command, flag, dest in self._float_flags(parser):
            try:
                args = parser.parse_args(self.MINIMAL[command] + [flag, "-1e1"])
            except SystemExit as exc:
                assert exc.code == 1
                err = capsys.readouterr().err
                errors = [line for line in err.splitlines() if "error:" in line]
                assert len(errors) == 1 and f"argument {flag}:" in errors[0], err
                assert "Traceback" not in err
            else:
                assert getattr(args, dest) == -10.0


class TestCliSample:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sample", "--model", "kendall", "--theta", "1.5", "--n", "12",
                "--draws", "3", "--burn", "500", "--thin", "100", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_mismatch_exit_code(self, tmp_path):
        code = main(["sample", "--model", "kendall", "--theta", "1", "--n", "8",
                     "--sampler", "aux", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("theta, sampler", [("nan", "swap"), ("inf", "aux")])
    def test_nonfinite_theta_exit_code(self, tmp_path, capsys, theta, sampler):
        out = tmp_path / "x.csv"
        code = main(["sample", "--f", "xy", "--theta", theta, "--n", "8",
                     "--sampler", sampler, "--out", str(out)])
        assert code == 1
        assert "theta must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_hist_grid_tracks_density(self, tmp_path):
        out = tmp_path / "draws.csv"
        hist = tmp_path / "hist.csv"
        code = main(["sample", "--f", "xy", "--theta", "20", "--n", "10000",
                     "--draws", "1", "--burn", "10", "--sampler", "aux",
                     "--seed", "4", "--hist", "10", "--out", str(out),
                     "--hist-out", str(hist)])
        assert code == 0
        dens = tmp_path / "limit.csv"
        assert main(["density", "--f", "xy", "--theta", "20", "--k", "10",
                     "--out", str(dens)]) == 0
        h = np.array([[float(v) for v in line.split(",")]
                      for line in hist.read_text().strip().split("\n")[1:]])
        d = np.array([[float(v) for v in line.split(",")]
                      for line in dens.read_text().strip().split("\n")[1:]])
        corr = np.corrcoef(h.ravel(), d.ravel())[0, 1]
        assert corr > 0.9

    def test_hist_needs_path_with_stdout(self, capsys):
        code = main(["sample", "--f", "xy", "--theta", "1", "--n", "6",
                     "--draws", "1", "--burn", "10", "--thin", "5",
                     "--hist", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --hist with stdout output needs --hist-out\n"

    @pytest.mark.parametrize("args, message", [
        (["--draws", "0", "--hist", "3"], "--hist needs at least one draw"),
        (["--draws", "2", "--hist", "9"], "--hist K=9 outside 1..5"),
    ], ids=["no-draws", "hist-above-n"])
    def test_bad_hist_keeps_existing_out(self, tmp_path, capsys, args, message):
        out = tmp_path / "s.csv"
        out.write_text("earlier output\n")
        code = main(["sample", "--theta", "1", "--n", "5", "--burn", "10", "--thin", "5",
                     "--out", str(out)] + args)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out.read_text() == "earlier output\n"
        assert not (tmp_path / "s.csv_hist.csv").exists()

    @pytest.mark.parametrize("hist", [-4, 0, 6])
    def test_hist_order_checked_before_the_chain(self, tmp_path, capsys, monkeypatch, hist):
        def chain_ran(*args, **kwargs):
            raise AssertionError("the chain ran")

        monkeypatch.setattr("permexp.cli.sample", chain_ran)
        out = tmp_path / "s.csv"
        out.write_text("earlier output\n")
        code = main(["sample", "--theta", "1", "--n", "5", "--burn", "3000000",
                     "--out", str(out), "--hist", str(hist)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --hist K={hist} outside 1..5\n"
        assert out.read_text() == "earlier output\n"
        assert not (tmp_path / "s.csv_hist.csv").exists()

    @pytest.mark.parametrize("sampler", ["swap", "aux"])
    def test_single_position(self, capsys, sampler):
        assert main(["sample", "--theta", "2", "--n", "1", "--draws", "2",
                     "--sampler", sampler]) == 0
        assert capsys.readouterr().out == "draw,i,pi\n1,1,1\n2,1,1\n"

    @pytest.mark.parametrize("model", ["linear", "kendall"])
    def test_empty_permutation_rejected(self, capsys, model):
        assert main(["sample", "--model", model, "--theta", "2", "--n", "0"]) == 1
        assert "n must be >= 1" in capsys.readouterr().err


class TestCliLottery:
    def test_full_report(self, lottery_path, capsys):
        code = main(["lottery", "--data", str(lottery_path), "--k", "300",
                     "--iters", "200", "--root-tol", "1e-4", "--seed", "1"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["n"] == 366
        assert rep["statistic"] == 0.2701750244
        assert abs(rep["spearman_r"] + 0.226) <= 0.001
        assert abs(rep["uniformity"]["z"] - 4.31) < 0.01
        assert abs(rep["pl"]["theta_hat"] - 2.92) <= 0.01
        assert abs(rep["ld"]["theta_hat"] - 2.96) <= 0.5  # k=300 grid
        tau_bins = np.array(rep["tau_bins"])
        ref_bins = np.array(rep["reference_bins"])
        assert tau_bins.shape == (10, 10) and tau_bins.sum() == 366
        assert ref_bins.shape == (10, 10) and ref_bins.sum() == 366
        # tau is identity-biased: its grid is further from flat than uniform's
        flat = 366 / 100
        assert ((tau_bins - flat) ** 2).sum() > ((ref_bins - flat) ** 2).sum()

    def test_root_tol_reaches_pl_fit(self, lottery_path, capsys):
        evaluations = []
        for root_tol in ("1e-3", "1e-8"):
            assert main(["lottery", "--data", str(lottery_path), "--k", "50",
                         "--iters", "100", "--root-tol", root_tol]) == 0
            evaluations.append(json.loads(capsys.readouterr().out)["pl"]["evaluations"])
        assert evaluations[0] != evaluations[1]

    @staticmethod
    def _reverse_data(tmp_path):
        # draw order = day of year, so tau is the reverse: neither fit has a root
        path = tmp_path / "reverse.csv"
        path.write_text("day_of_year,draw_order\n"
                        + "".join(f"{d},{d}\n" for d in range(1, 367)))
        return str(path)

    def test_each_fit_reports_its_own_missing_root(self, tmp_path, capsys):
        code = main(["lottery", "--data", self._reverse_data(tmp_path), "--k", "100"])
        assert code == 2
        rep = json.loads(capsys.readouterr().out)
        assert "error" not in rep
        for method in ("pl", "ld"):
            assert rep[method]["error"] == "no_root" and rep[method]["sign"] == "negative"
            assert set(rep[method]) == {"error", "sign", "bracket_lo", "bracket_hi",
                                        "evaluations"}

    def test_ipfp_stop_in_a_fit_keeps_the_report(self, tmp_path, capsys):
        # 30 sweeps do not reach tol at an extreme bracket probe of the LD fit
        code = main(["lottery", "--data", self._reverse_data(tmp_path), "--k", "50",
                     "--iters", "30"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        rep = json.loads(captured.out)
        assert rep["pl"]["error"] == "no_root" and rep["pl"]["sign"] == "negative"
        assert rep["ld"] == {"error": "ipfp_maxiter",
                             "detail": "IPFP stopped at residual 2.511e-11 > tol "
                                       "1.000e-12 after 30 sweeps"}
        assert rep["tau_bins"] and rep["reference_bins"]

    def test_shuffled_data_looks_null(self, tmp_path, capsys):
        rng = np.random.default_rng(123)
        days = np.arange(1, 367)
        order = rng.permutation(366) + 1
        path = tmp_path / "fake.csv"
        with open(path, "w") as fh:
            fh.write("day_of_year,draw_order\n")
            for d, o in zip(days, order):
                fh.write(f"{d},{o}\n")
        code = main(["lottery", "--data", str(path), "--k", "50",
                     "--iters", "100", "--root-tol", "1e-3"])
        rep = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert abs(rep["uniformity"]["z"]) < 4
