import json
import math
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

from polyspec import cli


def run_cli(args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "polyspec.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def load_schema():
    import importlib.resources as res

    with res.files("polyspec").joinpath("schema/output.schema.json").open() as fh:
        return json.load(fh)


class TestDensityCommand:
    def test_closed_rows_satisfy_linear_law(self):
        proc = run_cli(
            ["density", "--d", "3", "--n", "2", "--route", "closed", "--points", "9"]
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "r,rho,err,route"
        for line in lines[1:]:
            r, rho, err, route = line.split(",")
            assert route == "ClosedForm2"
            if float(r) < 2.0:
                assert float(rho) == pytest.approx(float(r) / 2.0, rel=1e-12)

    def test_recursion_emits_inf_sentinel(self):
        proc = run_cli(
            ["density", "--d", "2", "--n", "3", "--route", "recursion",
             "--r-min", "0.5", "--r-max", "1.5", "--points", "3"]
        )
        rows = proc.stdout.strip().splitlines()[1:]
        middle = rows[1].split(",")
        assert middle[0] == "1" and middle[1] == "inf"

    def test_mc_route_byte_deterministic(self):
        args = ["density", "--d", "2", "--n", "4", "--route", "mc",
                "--points", "11", "--seed", "42"]
        out1 = run_cli(args).stdout
        out2 = run_cli(args).stdout
        assert out1 == out2

    def test_mc_route_zero_past_support(self):
        # every point past the support (0, n = 4] reads 0 +- 0
        proc = run_cli(["density", "--d", "2", "--n", "4", "--route", "mc",
                        "--r-max", "5", "--points", "23"])
        rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
        assert len(rows) == 22
        for r, rho, err, _ in rows:
            if float(r) > 4.0:
                assert (rho, err) == ("0", "0"), r
            else:
                assert float(rho) >= 0.0 and float(err) > 0.0, r

    @pytest.mark.parametrize("points", ["1", "0", "-2"])
    def test_empty_grid_rejected(self, points):
        # --points 1 and 0 printed only the header and exited 0 (the lone
        # radius r = 0 is dropped); -2 exited 2 with numpy's message
        proc = run_cli(["density", "--d", "3", "--n", "2", "--route", "closed",
                        "--points", points], check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "points" in proc.stderr and "Number of samples" not in proc.stderr


class TestConstantCommand:
    def test_closed_pi_over_four(self):
        proc = run_cli(["constant", "--d", "3", "--q", "3", "--route", "closed"])
        payload = json.loads(proc.stdout)
        assert payload["results"][0]["value"] == pytest.approx(math.pi / 4, rel=1e-12)

    def test_divergent_classification(self):
        proc = run_cli(["constant", "--d", "2", "--q", "4"])
        payload = json.loads(proc.stdout)
        assert payload["results"][0]["classification"] == "Divergent"
        assert payload["results"][0]["value"] is None

    def test_direct_agrees_with_closed(self):
        direct = json.loads(
            run_cli(["constant", "--d", "2", "--q", "3", "--route", "direct"]).stdout
        )["results"][0]["value"]
        closed = json.loads(
            run_cli(["constant", "--d", "2", "--q", "3", "--route", "closed"]).stdout
        )["results"][0]["value"]
        assert direct == pytest.approx(closed, abs=1e-6)

    def test_json_schema(self):
        payload = json.loads(run_cli(["constant", "--d", "3", "--q", "4"]).stdout)
        jsonschema.validate(payload, load_schema())


class TestVarianceCommand:
    def test_parity_zero_row(self):
        proc = run_cli(
            ["variance", "--geometry", "spherical", "--d", "2", "--q", "3",
             "--R", str(math.pi), "--freq", "11"]
        )
        rows = proc.stdout.strip().splitlines()
        assert rows[0] == "freq,value,method,err_lo,err_hi,regime,ratio_to_prediction"
        fields = rows[1].split(",")
        assert fields[5] == "ParityZero"
        assert abs(float(fields[1])) < 1e-12

    def test_grid_ratio_tends_to_one(self):
        proc = run_cli(
            ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3",
             "--R", "1.0", "--freq-grid", "25,50,100,200"]
        )
        rows = proc.stdout.strip().splitlines()[1:]
        ratios = [float(r.split(",")[-1]) for r in rows]
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[-1] == pytest.approx(1.0, abs=0.05)

    def test_mc_ci_brackets_exact(self):
        exact = float(
            run_cli(
                ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3",
                 "--R", "1.0", "--freq", "8", "--method", "exact"]
            ).stdout.strip().splitlines()[1].split(",")[1]
        )
        row = run_cli(
            ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3",
             "--R", "1.0", "--freq", "8", "--method", "mc",
             "--trials", "1200", "--resolution", "12"]
        ).stdout.strip().splitlines()[1].split(",")
        value, lo, hi = float(row[1]), float(row[3]), float(row[4])
        assert value - lo <= exact <= value + hi

    @pytest.mark.parametrize("geometry", ["euclidean", "spherical"],
                             ids=["planar", "spherical"])
    def test_mc_factor_follows_field(self, geometry, monkeypatch, tmp_path):
        # the planar wave draws through Fourier-Bessel, S^2 through the
        # pivoted Cholesky factor, which reads covariance columns
        calls = []
        covariance = cli.fieldsim._covariance
        monkeypatch.setattr(cli.fieldsim, "_covariance",
                            lambda *a: calls.append(a[2]) or covariance(*a))
        argv = ["variance", "--geometry", geometry, "--d", "2", "--q", "3",
                "--R", "1.0", "--freq", "10", "--method", "mc",
                "--trials", "200", "--resolution", "10"]
        outs = []
        for k in range(2):
            out = tmp_path / f"run{k}.csv"
            assert cli.main(argv + ["--output-path", str(out)]) == 0
            outs.append(out.read_bytes())
        assert (len(calls) == 0) == (geometry == "euclidean")
        assert outs[0] == outs[1]

    def test_indefinite_covariance_exit_code(self, monkeypatch, capsys):
        # [[1, 2], [2, 1]] has eigenvalue -1: no factor reproduces it
        def indefinite(spec, points, cols):
            cov = np.eye(len(points))
            cov[0, 1] = cov[1, 0] = 2.0
            return cov[:, cols]

        monkeypatch.setattr(cli.fieldsim, "_covariance", indefinite)
        argv = ["variance", "--geometry", "spherical", "--d", "2", "--q", "3",
                "--R", "1.0", "--freq", "10", "--method", "mc",
                "--trials", "200", "--resolution", "10"]
        assert cli.main(argv) == cli.EXIT_LINALG == 4
        assert "linear algebra failure" in capsys.readouterr().err


class TestTableCommand:
    def test_reproduction_table(self):
        proc = run_cli(["table"])
        rows = [r.split(",") for r in proc.stdout.strip().splitlines()[1:]]
        constants = [r for r in rows if r[0] == "constant"]
        d3q3 = next(r for r in constants if r[1] == "3" and r[2] == "3")
        assert float(d3q3[4]) == pytest.approx(math.pi / 4, rel=1e-12)
        assert float(d3q3[7]) < 1e-8 and float(d3q3[8]) < 1e-8
        classif = {(r[1], r[2]): r[3] for r in rows if r[0] == "classification"}
        assert classif[("2", "2")] == "Divergent"
        assert classif[("2", "4")] == "Divergent"
        assert classif[("3", "3")] == "Conditional"
        assert classif[("6", "8")] == "Absolute"

    def test_table_deterministic(self):
        a = run_cli(["table"]).stdout
        b = run_cli(["table"]).stdout
        assert a == b


class TestInfrastructure:
    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats alone is ~0.4 s of import; the chi-square tail is scipy.special's
        code = "import sys, polyspec.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"

    def test_usage_error_exit_code(self):
        proc = run_cli(["density", "--d", "3"], check=False)
        assert proc.returncode == 2
        # there is no worker pool to size
        proc = run_cli(["variance", "--geometry", "euclidean", "--d", "2", "--q", "3",
                        "--R", "1.0", "--freq", "8", "--threads", "2"], check=False)
        assert proc.returncode == 2
        # table runs at fixed tolerances and takes none
        proc = run_cli(["table", "--tol", "1e-3"], check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["density", "--d", "1", "--n", "3", "--route", "recursion"],
        ["density", "--d", "2", "--n", "9", "--route", "recursion"],
        ["density", "--d", "2", "--n", "3", "--route", "closed"],
        ["constant", "--d", "2", "--q", "1"],
        ["variance", "--geometry", "spherical", "--d", "2", "--q", "3", "--R", "4",
         "--freq", "10"],
        ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3", "--R", "1",
         "--freq", "10", "--method", "mc", "--trials", "50"],
        ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3", "--R", "1",
         "--freq", "10", "--method", "mc", "--resolution", "4"],
    ], ids=["d1", "n9", "closed-n3", "q1", "spherical-R4", "trials50", "resolution4"])
    def test_bad_flag_value_exit_code(self, argv):
        proc = run_cli(argv, check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["constant", "--d", "3", "--q", "5", "--tol", "0"],
        ["constant", "--d", "3", "--q", "5", "--tol", "-1"],
        ["constant", "--d", "3", "--q", "5", "--tol", "nan"],
        ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3", "--R", "1",
         "--freq", "10", "--tol", "nan"],
        ["density", "--d", "3", "--n", "4", "--route", "kluyver", "--tol", "nan"],
        ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3", "--R", "1",
         "--freq", "inf"],
        ["variance", "--geometry", "spherical", "--d", "2", "--q", "3", "--R", "1",
         "--freq", "inf"],
        ["variance", "--geometry", "euclidean", "--d", "2", "--q", "3", "--R", "inf",
         "--freq", "10"],
        ["density", "--d", "3", "--n", "2", "--route", "closed", "--r-max", "inf"],
    ], ids=["tol0", "tol-1", "tol-nan", "variance-tol-nan", "kluyver-tol-nan",
            "euclidean-freq-inf", "spherical-freq-inf", "R-inf", "r-max-inf"])
    def test_non_finite_or_non_positive_value_exit_code(self, argv, capsys):
        # each was a budget spent then exit 3, or exit 0 with a value that
        # never converged (a NaN tol passes every convergence check)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_oversized_mc_domain_exit_code(self, capsys):
        # the domain was allocated before it was refused: numpy's "Unable to
        # allocate 715. GiB", exit 1 with a traceback
        with pytest.raises(SystemExit) as exc:
            cli.main(["variance", "--geometry", "euclidean", "--d", "3", "--q", "3",
                      "--R", "1", "--freq", "5", "--method", "mc", "--resolution", "2000"])
        assert exc.value.code == 2
        assert "4096^2" in capsys.readouterr().err

    @pytest.mark.parametrize("freq", ["1e9", "1e300"])
    def test_oversized_exact_quadrature_exit_code(self, freq, capsys):
        # the first pass of the adaptive engine asked numpy for 19.0 GiB at
        # 1e9 (exit 1); at 1e300 its panel count overflowed int64 (exit 2
        # with numpy's "negative dimensions are not allowed")
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["variance", "--geometry", "euclidean", "--d", "2", "--q", "3",
                      "--R", "1", "--freq", freq])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"frequency {float(freq):g}" in err and "max_evals" in err

    def test_missing_config_file_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", "/nonexistent.cfg", "table"])
        assert exc.value.code == 2
        assert "/nonexistent.cfg" in capsys.readouterr().err

    def test_unwritable_output_path_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["density", "--d", "3", "--n", "2", "--route", "closed",
                      "--output-path", str(out)])
        assert exc.value.code == 2
        assert str(out) in capsys.readouterr().err

    def test_unknown_route_exit_code(self):
        proc = run_cli(
            ["density", "--d", "3", "--n", "2", "--route", "bogus"], check=False
        )
        assert proc.returncode == 2

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=5\nroute=closed\n")
        proc = run_cli(
            ["--config", str(cfg), "density", "--d", "3", "--n", "2"]
        )
        assert len(proc.stdout.strip().splitlines()) == 5  # header + 4 rows

    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_config_file_named_like_subcommand(self, form, tmp_path, monkeypatch,
                                               capsys):
        # the value of --config is never taken for the subcommand
        (tmp_path / "table").write_text("points=5\nroute=closed\n")
        monkeypatch.chdir(tmp_path)
        head = ["--config", "table"] if form == "separate" else ["--config=table"]
        assert cli.main(head + ["density", "--d", "3", "--n", "2"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=5\nroute=closed\n")
        proc = run_cli(
            ["--config", str(cfg), "density", "--d", "3", "--n", "2", "--points", "7"]
        )
        assert len(proc.stdout.strip().splitlines()) == 7

    def test_output_path(self, tmp_path):
        out = tmp_path / "rows.csv"
        run_cli(
            ["density", "--d", "3", "--n", "2", "--route", "closed",
             "--points", "5", "--output-path", str(out)]
        )
        assert out.read_text().startswith("r,rho,err,route")

    def test_json_meta_fields(self):
        payload = json.loads(
            run_cli(
                ["density", "--d", "3", "--n", "2", "--route", "closed",
                 "--points", "4", "--format", "json"]
            ).stdout
        )
        jsonschema.validate(payload, load_schema())
        assert payload["meta"]["seed"] == 42
        assert "wall_time_s" in payload["meta"]

    def test_csv_17_digit_precision(self):
        proc = run_cli(
            ["density", "--d", "2", "--n", "2", "--route", "closed",
             "--r-min", "0.3333333333333333", "--r-max", "1.0", "--points", "2"]
        )
        row = proc.stdout.strip().splitlines()[1]
        assert row.split(",")[0] == "0.33333333333333331"
