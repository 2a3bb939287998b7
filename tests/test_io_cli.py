import io
import json

import numpy as np
import pytest

from permexp.cli import main
from permexp.estimators import multi_estimate
from permexp.grids import get_score
from permexp.io import (
    format_json_report,
    load_lottery_csv,
    load_permutation_csv,
    save_draws_csv,
    save_permutation_csv,
    write_grid_csv,
)
from permexp.mcmc import sample
from permexp.models import KendallModel, LinearModel
from permexp.perm import Permutation

from conftest import random_permutation


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


class TestLotteryCsv:
    def test_loads_bundled(self, lottery):
        assert lottery.pi().n == 366
        # September 14 (day 258 of a leap year) drew number 1
        assert lottery.draw_order[257] == 1
        assert lottery.pi()(1) == 258

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


class TestDrawsCsv:
    def test_format(self):
        buf = io.StringIO()
        save_draws_csv([Permutation([2, 1]), Permutation([1, 2])], buf)
        assert buf.getvalue() == (
            "draw,i,pi\n1,1,2\n1,2,1\n2,1,1\n2,2,2\n"
        )

    def test_matches_per_row_formatting(self):
        rng = np.random.default_rng(12)
        draws = [random_permutation(rng, n) for n in (1, 9, 12, 300)]
        buf = io.StringIO()
        save_draws_csv(draws, buf)
        want = "draw,i,pi\n" + "".join(
            f"{d},{i},{int(v)}\n"
            for d, pi in enumerate(draws, start=1)
            for i, v in enumerate(pi.values, start=1)
        )
        assert buf.getvalue() == want
        buf = io.StringIO()
        save_permutation_csv(draws[3], buf)
        assert buf.getvalue() == "i,pi\n" + "".join(
            f"{i},{int(v)}\n" for i, v in enumerate(draws[3].values, start=1))


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
        draws = sample(KendallModel(1.0, 60), 2, burn=20_000, thin=5_000,
                       sampler="swap", seed=3)
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
        draws = sample(LinearModel(f, 2.0, 80), 2, burn=60, thin=5,
                       sampler="auxiliary", seed=33)
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
])
def test_invalid_work_size_exits_1(argv, message, tmp_path, lottery, lottery_path, capsys):
    tau = tmp_path / "tau.csv"
    save_permutation_csv(lottery.tau(), tau)
    paths = {"TAU": str(tau), "LOTTERY": str(lottery_path)}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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

    def test_iteration_capped_rows_flagged(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["logz", "--f", "xy", "--theta-min", "-500", "--theta-max",
                     "500", "--steps", "3", "--k", "30", "--iters", "5",
                     "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert rows[0][3] == "maxiter" and rows[2][3] == "maxiter"
        assert rows[1][3] == "ok"

    @pytest.mark.parametrize("lo, hi", [("nan", "1"), ("-1", "inf"), ("2", "1")])
    def test_bad_range_keeps_existing_out(self, tmp_path, capsys, lo, hi):
        out = tmp_path / "curve.csv"
        out.write_text("earlier output\n")
        code = main(["logz", "--theta-min", lo, "--theta-max", hi, "--steps", "2",
                     "--k", "10", "--out", str(out)])
        assert code == 1
        assert "theta-min < theta-max" in capsys.readouterr().err
        assert out.read_text() == "earlier output\n"


class TestCliDensity:
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

    def test_spearman_density_peaks_on_diagonal(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["density", "--f", "xy", "--theta", "20", "--k", "60",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.abs(vals - vals.T).max() <= 1e-8
        assert np.abs(vals - vals[::-1, ::-1].T).max() <= 1e-8
        assert vals.diagonal().max() == vals.max()


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
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("args", [["--draws", "0", "--hist", "3"],
                                      ["--draws", "2", "--hist", "9"]],
                             ids=["no-draws", "hist-above-n"])
    def test_bad_hist_keeps_existing_out(self, tmp_path, capsys, args):
        out = tmp_path / "s.csv"
        out.write_text("earlier output\n")
        code = main(["sample", "--theta", "1", "--n", "5", "--burn", "10", "--thin", "5",
                     "--out", str(out)] + args)
        assert code == 1
        assert "error" in capsys.readouterr().err
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
