import gc
import json
import os
import re
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import finslercurv.cli as cli
from finslercurv import indicatrix as ind
from finslercurv.exceptions import UsageError
from finslercurv.metrics import FundamentalFunction, eval_F, parse_metric_spec

from test_indicatrix import reference_aggregate, report_columns


class TestParseArgs:
    def test_verify_defaults(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"order": 3, "entries": list(np.eye(3).ravel())}))
        config = cli.parse_args([
            "verify", "--metric", f"randers:a=@{a},b=0.3,0,0",
            "--dim", "3", "--samples", "200"])
        assert config.command == "verify"
        assert config.samples == 200
        assert config.seed == 42
        assert config.tol == 1e-8
        assert config.method == "hyperdual"
        assert config.fd_step == 1e-5
        assert config.fmt == "text"

    def test_odd_exponent_rejected(self):
        with pytest.raises(UsageError):
            cli.parse_args(["verify", "--metric", "pnorm:p=3", "--dim", "3"])

    def test_curvature_point(self):
        config = cli.parse_args(["curvature", "--metric", "euclidean",
                                 "--dim", "3", "--point", "0,0,1"])
        assert config.command == "curvature"
        assert np.array_equal(config.point, [0.0, 0.0, 1.0])

    def test_point_length_mismatch(self):
        with pytest.raises(UsageError):
            cli.parse_args(["curvature", "--metric", "euclidean",
                            "--dim", "3", "--point", "0,1"])

    @pytest.mark.parametrize("argv", [
        ["verify", "--metric", "euclidean"],                      # dim required
        ["verify", "--metric", "euclidean", "--dim", "1"],
        ["verify", "--metric", "euclidean", "--dim", "3", "--samples", "0"],
        ["verify", "--metric", "euclidean", "--dim", "3", "--tol", "0"],
        ["verify", "--metric", "euclidean", "--dim", "3", "--fd-step", "0.5"],
        ["verify"],                                               # missing metric
        ["frobnicate"],                                           # unknown command
    ])
    def test_invalid_configs(self, argv):
        with pytest.raises(UsageError):
            cli.parse_args(argv)

    def test_main_exit_code_two(self, capsys):
        assert cli.main(["verify", "--metric", "pnorm:p=3", "--dim", "3"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--metric", "randers:a=1,1,b=inf,0", "--dim", "2"],
         "randers covector must have finite entries"),
        (["verify", "--metric", "quadratic:A=1,1,nan"],
         "quadratic matrix must have finite entries"),
        (["curvature", "--metric", "euclidean", "--dim", "3", "--point=inf,1,1"],
         "cannot scale point [inf, 1.0, 1.0] onto the indicatrix: F = inf"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_parameters_exit_two(self, capsys, argv, message):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"finslercurv: error: {message}\n"

    def test_parser_built_once(self, monkeypatch):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for _ in range(3):
            cli.parse_args(["curvature", "--metric", "euclidean", "--dim", "3",
                            "--point", "0,0,1"])
        cli._parser.cache_clear()
        assert len(calls) == 1

    def test_metric_spec_parsed_once(self, capsys, monkeypatch):
        calls = []
        parse = cli.parse_metric_spec

        def counted(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(cli, "parse_metric_spec", counted)
        for command in ("verify", "sample"):
            calls.clear()
            assert cli.main([command, "--metric", "pnorm:p=4", "--dim", "3",
                             "--samples", "3"]) == 0
            assert len(calls) == 1


class TestVerifyCommand:
    def test_euclidean_json(self, capsys):
        code = cli.main(["verify", "--metric", "euclidean", "--dim", "5",
                         "--samples", "50", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["max_residual_H"] <= 1e-12
        assert payload["failures"] == []
        assert set(payload) == {
            "metric", "dim", "samples", "seed", "method", "max_residual_H",
            "mean_residual_H", "max_residual_trace", "max_residual_umbilic",
            "max_oracle_gap", "pass", "failures"}

    def test_impossible_tolerance_fails(self, capsys):
        code = cli.main(["verify", "--metric", "pnorm:p=4", "--dim", "3",
                         "--samples", "20", "--tol", "1e-15", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["pass"] is False
        assert payload["failures"]

    @pytest.mark.parametrize("p", [8, 12, 16])
    def test_high_exponent_pnorm_passes(self, capsys, p):
        # at the sampling guard cond(g) reaches 6e9 for p = 16: the oracle's step
        # must shrink with the pull-back's stretch, or truncation fails the gap bound
        code = cli.main(["verify", "--metric", f"pnorm:p={p}", "--dim", "3",
                         "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["max_oracle_gap"] <= ind.ORACLE_GAP_BOUND

    def test_text_output(self, capsys):
        code = cli.main(["verify", "--metric", "euclidean", "--dim", "3",
                         "--samples", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_csv_output(self, capsys):
        code = cli.main(["verify", "--metric", "euclidean", "--dim", "3",
                         "--samples", "5", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "index,y_1,y_2,y_3,F,H,residual_H"
        assert len(out) == 6
        row = out[1].split(",")
        assert row[0] == "0"
        assert abs(float(row[4]) - 1.0) <= 1e-12  # F column, 17 digits round-trips
        assert abs(float(row[5]) - 1.0) <= 1e-10  # H column

    def test_csv_reuses_sampled_points(self, capsys, monkeypatch):
        # verify_claims samples through _sample_chunks, which sample_indicatrix wraps
        sample, sample_chunks = ind.sample_indicatrix, ind._sample_chunks
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_chunks(*args)

        monkeypatch.setattr(ind, "_sample_chunks", counted)
        code = cli.main(["verify", "--metric", "pnorm:p=4", "--dim", "3",
                         "--samples", "9", "--format", "csv"])
        assert code == 0
        assert len(calls) == 1
        fund = parse_metric_spec("pnorm:p=4", 3)
        points = sample(fund, 9, 42)
        assert capsys.readouterr().out == cli._records_csv(
            cli._point_records(points, ind.adapted_reports(fund, points), fund), fund.dim)

    def test_repeated_runs_write_identical_files(self, tmp_path):
        outputs = []
        for _ in range(3):
            path = tmp_path / f"report_{len(outputs)}.json"
            code = cli.main(["verify", "--metric", "quadratic:A=4,1,2",
                             "--dim", "3", "--samples", "40",
                             "--format", "json", "--output", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_text_output_byte_identical(self, capsysbinary):
        argv = ["verify", "--metric", "randers:a=1,1,1,b=0.4,0,0", "--dim", "3",
                "--samples", "40"]
        outputs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert outputs[0] == outputs[1]
        assert b"result                 = PASS (tol 1e-08)\n" in outputs[0]

    def test_output_io_error(self, capsys):
        code = cli.main(["verify", "--metric", "euclidean", "--dim", "2",
                         "--samples", "1", "--output", "/nonexistent/dir/report.json"])
        assert code == 2


class TestOtherCommands:
    def test_curvature_json(self, capsys):
        code = cli.main(["curvature", "--metric", "euclidean", "--dim", "3",
                         "--point", "0,0,1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(payload["H"] - 1.0) <= 1e-12
        assert payload["normalized"] is False

    def test_curvature_negative_point(self, capsys):
        outputs = []
        for point_args in (["--point", "-0.35,0.2"], ["--point=-0.35,0.2"]):
            code = cli.main(["curvature", "--metric", "euclidean", "--dim", "2",
                             "--format", "json"] + point_args)
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["normalized"] is True
        assert payload["point"][0] < 0.0 < payload["point"][1]

    def test_curvature_normalizes_off_indicatrix_points(self, capsys):
        code = cli.main(["curvature", "--metric", "euclidean", "--dim", "2",
                         "--point", "3,4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["normalized"] is True
        assert np.allclose(payload["point"], [0.6, 0.8], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tol, gap_bound, code", [
        ("1e-8", 1e-5, 0), ("1e-20", 1e-5, 1), ("1e-8", 0.0, 1)])
    def test_curvature_verdict_is_the_verify_rule(self, capsys, monkeypatch,
                                                  tol, gap_bound, code):
        # the residuals and the oracle gap at this point are nonzero
        monkeypatch.setattr(ind, "ORACLE_GAP_BOUND", gap_bound)
        argv = ["--metric", "randers:a=1,1,b=0.4,0", "--dim", "2", "--tol", tol,
                "--format", "json"]
        assert cli.main(["curvature", "--point", "0.6,0.8"] + argv) == code
        assert json.loads(capsys.readouterr().out)["pass"] is (code == 0)

    @pytest.mark.parametrize("edit", [
        {"residual_H": 1e-8, "residual_trace": 1e-8, "residual_umbilic": 1e-8},
        {"residual_umbilic": float(np.nextafter(1e-8, 1.0))},
        {"oracle_gap": ind.ORACLE_GAP_BOUND},
        {"oracle_gap": float(np.nextafter(ind.ORACLE_GAP_BOUND, 1.0))},
        {"oracle_gap": float("nan")},
        {"residual_trace": float("nan")},
    ])
    def test_curvature_verdict_on_edge_reports(self, capsys, monkeypatch, edit):
        # residuals at tol, the gap at its bound, a NaN gap (skipped) or residual (fails)
        reports = []
        chunk_reports = ind._chunk_reports

        def edited(*args):
            reports[:] = [rep._replace(**edit) for rep in chunk_reports(*args)[0]]
            return reports, report_columns(reports)

        monkeypatch.setattr(ind, "_chunk_reports", edited)
        code = cli.main(["curvature", "--metric", "pnorm:p=4", "--dim", "3",
                         "--point", "1,-2,1.5", "--format", "json"])
        want = reference_aggregate("hyperdual", reports, 1e-8).passed
        assert json.loads(capsys.readouterr().out)["pass"] is want
        assert code == (0 if want else 1)

    def test_curvature_runs_the_verify_pipeline(self, capsys, monkeypatch):
        # one chunk through _chunk_reports and _statistics; no record is regathered
        calls = []

        def counted(name):
            original = getattr(ind, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("_chunk_reports", "_statistics"):
            monkeypatch.setattr(ind, name, counted(name))

        def unused(*args, **kwargs):
            raise AssertionError("curvature left verify's pipeline")

        for name in ("indicatrix_point", "adapted_report", "_gathered"):
            monkeypatch.setattr(ind, name, unused)
        assert cli.main(["curvature", "--metric", "pnorm:p=4", "--dim", "3",
                         "--point", "1,-2,1.5"]) == 0
        assert calls == ["_chunk_reports", "_statistics"]
        capsys.readouterr()

    @pytest.mark.parametrize("error, message", [
        (ValueError("bad step"), "bad step"),
        (ZeroDivisionError(), "ZeroDivisionError"),
        (ind.DomainViolation("off the guard"), "off the guard"),
    ])
    def test_curvature_point_error_exits_2(self, capsys, monkeypatch, error, message):
        # what verify isolates as a point's failure record ends curvature with one line
        def raising(*args):
            raise error

        monkeypatch.setattr(ind, "_chunk_reports", raising)
        assert cli.main(["curvature", "--metric", "euclidean", "--dim", "2",
                         "--point", "1,1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"finslercurv: error: {message}\n"

    def test_failed_point_records(self, capsys, monkeypatch):
        # one point raises in the report stage: sample's JSON record gives its error and
        # no H, and verify's CSV row reads nan for H and residual_H
        fund, bad = parse_metric_spec("pnorm:p=4", 3), 3
        point = ind.sample_indicatrix(fund, 7, 42)[bad]
        evaluation = ind.defining_evaluation

        def faulty(y, *args, **kwargs):
            if (y == point.y_adapted).all(axis=-1).any():
                raise ind.DomainViolation("injected fault")
            return evaluation(y, *args, **kwargs)

        monkeypatch.setattr(ind, "defining_evaluation", faulty)
        argv = ["--metric", "pnorm:p=4", "--dim", "3", "--samples", "7"]
        assert cli.main(["sample", *argv, "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[bad] == {"index": bad, "y": point.y.tolist(), "F": eval_F(fund, point.y),
                                "error": "injected fault"}
        assert all("H" in record and "error" not in record
                   for index, record in enumerate(records) if index != bad)
        assert cli.main(["verify", *argv, "--format", "csv"]) == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [index for index, row in enumerate(rows) if row.endswith(",nan,nan")] == [bad]
        assert rows[bad].startswith(f"{bad},")

    def test_sample_csv(self, capsys):
        code = cli.main(["sample", "--metric", "pnorm:p=4", "--dim", "3",
                         "--samples", "7", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == 8
        for line in out[1:]:
            assert abs(float(line.split(",")[4]) - 1.0) <= 1e-12

    def test_sample_json_bytes_match_per_point_f(self, capsys):
        # F comes from one stacked evaluation; the bytes are those of the
        # per-point form, F evaluated at each point alone
        argv = ["sample", "--metric", "pnorm:p=4", "--dim", "4", "--samples", "40",
                "--format", "json"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        fund = parse_metric_spec("pnorm:p=4", 4)
        points = ind.sample_indicatrix(fund, 40, 42)
        rows = [{"index": index, "y": [float(v) for v in point.y],
                 "F": eval_F(fund, point.y), "H": rep.H, "residual_H": rep.residual_H}
                for index, (point, rep) in enumerate(
                    zip(points, ind.adapted_reports(fund, points)))]
        assert out == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("method", ind.METHODS)
    def test_sample_csv_is_verify_csv(self, capsys, method):
        # one pipeline; the points at n = 6 cross a chunk boundary
        count = ind.chunk_points(6) + 9
        argv = ["--metric", "pnorm:p=4", "--dim", "6", "--samples", str(count), "--seed", "5",
                "--method", method, "--format", "csv"]
        cli.main(["verify"] + argv)
        verified = capsys.readouterr().out
        assert cli.main(["sample"] + argv) == 0
        assert capsys.readouterr().out == verified
        assert verified.count("\n") == count + 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sample_value_calls_do_not_grow_with_samples(self, capsys, monkeypatch, fmt):
        calls = []
        value = FundamentalFunction.value

        def counted(self, z):
            calls.append(1)
            return value(self, z)

        monkeypatch.setattr(FundamentalFunction, "value", counted)
        counts = []
        for samples in ("5", "300"):  # one chunk at n = 4
            calls.clear()
            assert cli.main(["sample", "--metric", "pnorm:p=4", "--dim", "4",
                             "--samples", samples, "--format", fmt]) == 0
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1]

    def test_curvature_evaluates_f_once(self, capsys, monkeypatch):
        calls = []

        def counted(fund, y):
            calls.append(1)
            return eval_F(fund, y)

        monkeypatch.setattr(cli, "eval_F", counted)
        monkeypatch.setattr(ind, "eval_F", counted)
        assert cli.main(["curvature", "--metric", "pnorm:p=4", "--dim", "3",
                         "--point", "1,-2,1.5"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_repeated_calls_retain_no_memory(self, monkeypatch):
        # 1000 in-process curvature calls over dims 2-6: nothing may pile
        # up per call (caches are per dimension, output goes to a sink)
        class Sink:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        rng = np.random.default_rng(5)
        argvs = []
        for dim in range(2, 7):
            diag = ",".join(str(1.0 + k) for k in range(dim))
            drift = ",".join("0.1" for _ in range(dim))
            specs = ("euclidean", f"quadratic:A={diag}", f"randers:a={diag},b={drift}",
                     "pnorm:p=4", "mroot:m=6")
            for index in range(200):
                point = rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
                argvs.append(["curvature", "--metric", specs[index % 5], "--dim", str(dim),
                              "--point=" + ",".join(f"{v:.6f}" for v in point)])
        tracemalloc.start()
        try:
            for argv in argvs[::40]:  # warm every dimension and family once
                cli.main(argv)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for argv in argvs:
                assert cli.main(argv) in (0, 1)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(argvs) == 1000
        assert retained < 256 * 1024

    @pytest.mark.parametrize("argv", [
        ["verify", "--metric", "euclidean", "--dim", "3", "--samples", "2"],
        ["curvature", "--metric", "euclidean", "--dim", "3", "--point", "1,2,3"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fd_step_without_a_normal_square_exits_two(self, capsys, argv):
        assert cli.main(argv + ["--method", "fd", "--fd-step", "1e-300"]) == 2
        assert capsys.readouterr().err == (
            "finslercurv: error: --fd-step: finite-difference step must lie in "
            "[2**-511, 2**511], where h * h is a normal float\n")

    @pytest.mark.parametrize("argv, message", [
        (["curvature", "--metric", "euclidean", "--dim", "3", "--point", "0,0,0"],
         "point [0. 0. 0.] is outside the guarded domain"),
        (["sample", "--metric", "mroot:m=6", "--dim", "45", "--samples", "3"],
         "no direction passes the sampling guard min|y_i| >= 0.15*|y| at dim 45; "
         "the largest dim it allows is 44"),
        (["curvature", "--metric", "quadratic:A=1e308,1e308", "--dim", "2", "--point", "1,1"],
         "cannot scale point [1.0, 1.0] onto the indicatrix: F = inf"),
        (["verify", "--metric", "pnorm:p=4", "--dim", "45", "--samples", "5"],
         "no direction passes the sampling guard min|y_i| >= 0.15*|y| at dim 45; "
         "the largest dim it allows is 44"),
        # the guard is checked again after the power-of-two rescale
        (["curvature", "--metric", "pnorm:p=4", "--dim", "3", "--point", "1e300,1e-300,1"],
         "point [1.e+300 1.e-300 1.e+000] is outside the guarded domain"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_library_error_exits_two(self, capsys, argv, message):
        # exit 1 means "claim failed"; a package error is an input error
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"finslercurv: error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--metric", "euclidean", "--dim", "400", "--samples", "1"],
        ["curvature", "--metric", "euclidean", "--dim", "400", "--point", ",".join(["1"] * 400)],
        ["lemma-test", "--dim", "20000", "--trials", "1"],
        ["verify", "--metric", "euclidean", "--dim", "3", "--samples", "100000000"],
    ])
    def test_out_of_memory_exits_two(self, argv):
        # each input needs more than the child's 512 MB of address space; never run
        # these without such a cap
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-m", "finslercurv", *argv], env=env,
                                capture_output=True, text=True, preexec_fn=cap, timeout=120)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("finslercurv: error: Unable to allocate ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("dim", ["16", "24", "44"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_sum_verify_passes_at_high_dims(self, capsys, dim):
        # draws land inside the sampling guard by construction, up to its last dim, 44
        argv = ["verify", "--metric", "pnorm:p=4", "--dim", dim, "--samples", "20"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--metric", "euclidean", "--dim", "3", "--samples", "3", "--seed", "-1"],
        ["sample", "--metric", "euclidean", "--dim", "3", "--samples", "3", "--seed", "-1"],
        ["lemma-test", "--trials", "3", "--seed", "-1"],
    ])
    def test_negative_seed_exits_two(self, capsys, argv):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "finslercurv: error: --seed must be >= 0\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--metric", "quadratic:A=2", "--samples", "3"],
        ["curvature", "--metric", "randers:a=2,b=0.1", "--point", "1"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_by_one_matrix_exits_two(self, capsys, argv):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "finslercurv: error: dim must be >= 2\n"

    @pytest.mark.parametrize("point", [
        "1e-160,1e-160,1e-160", "1e-170,2e-170,1e-170", "1e200,1e200,1e200", "5e-324,5e-324,1e-323",
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_and_huge_points_are_rescaled(self, capsys, point):
        code = cli.main(["curvature", "--metric", "euclidean", "--dim", "3",
                         "--point", point, "--format", "json"])
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert (code, out.err) == (0, "")
        assert payload["normalized"] and payload["pass"]
        assert abs(eval_F(parse_metric_spec("euclidean", 3), payload["point"]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("spec", ["euclidean", "quadratic:A=1,2,3", "randers:a=1,2,3,b=0.1,0,0.2"])
    @pytest.mark.parametrize("exponent", [-1060, -200, 200, 1020])
    def test_rescaling_by_a_power_of_two_is_exact(self, capsys, spec, exponent):
        # 2^e y is divided by an exact power of two, so its report is the report of y
        def report(y):
            argv = ["curvature", "--metric", spec, "--dim", "3", "--format", "json",
                    "--point=" + ",".join(repr(float(v)) for v in y)]
            assert cli.main(argv) == 0
            return json.loads(capsys.readouterr().out)
        base = np.array([1.0, -2.0, 3.0])
        scaled = report(np.ldexp(base, exponent))
        assert scaled == report(base) and scaled["normalized"]

    def test_lemma_test(self, capsys):
        code = cli.main(["lemma-test", "--trials", "1000", "--dim", "6",
                         "--seed", "7", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["max_delta"] <= 1e-10


class TestGrammarFuzz:
    def test_no_crash_on_fuzzed_specs(self):
        rng = np.random.default_rng(2718)
        alphabet = list(string.ascii_lowercase + string.digits
                        + ":,=@.-+ " + "AZ")
        seeds = ["euclidean", "quadratic:A=", "randers:a=,b=", "pnorm:p=",
                 "mroot:m=", ""]
        for index in range(10_000):
            base = seeds[index % len(seeds)]
            extra = "".join(rng.choice(alphabet)
                            for _ in range(int(rng.integers(0, 12))))
            spec = base + extra if index % 3 else extra
            try:
                parse_metric_spec(spec, dim=3)
            except UsageError:
                pass  # the only acceptable failure mode


COMMANDS = {
    "verify": ["verify", "--metric", "randers:a=1,1,1,b=0.4,0,0", "--dim", "3",
               "--samples", "12"],
    "curvature": ["curvature", "--metric", "pnorm:p=4", "--dim", "3", "--point", "1,-2,1.5"],
    "sample": ["sample", "--metric", "mroot:m=6", "--dim", "4", "--samples", "6",
               "--seed", "9"],
    "lemma-test": ["lemma-test", "--dim", "4", "--trials", "50", "--seed", "3"],
}


def formats_of(capsys, argv):
    """stdout of ``argv`` in every format, with the JSON parsed."""
    out = {}
    for fmt in cli.FORMATS:
        assert cli.main(argv + ["--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    out["json"] = json.loads(out["json"])
    return out


def csv_table(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestFormatConsistency:
    """Text and CSV render the numbers of the JSON record for the same arguments."""

    def test_verify(self, capsys):
        out = formats_of(capsys, COMMANDS["verify"])
        record, text = out["json"], out["text"]
        assert text.splitlines()[0] == (
            f"metric {record['metric']}  dim {record['dim']}  samples {record['samples']}  "
            f"seed {record['seed']}  method {record['method']}")
        for key in ("max_residual_H", "mean_residual_H", "max_residual_trace",
                    "max_residual_umbilic", "max_oracle_gap"):
            assert f"= {record[key]:.3e}\n" in text
        assert f"failures               = {len(record['failures'])}\n" in text
        assert "result                 = PASS (tol 1e-08)\n" in text
        header, rows = csv_table(out["csv"])
        assert len(rows) == record["samples"]
        residuals = [float(row[header.index("residual_H")]) for row in rows]
        assert f"{record['max_residual_H']:.17g}" in [row[-1] for row in rows]
        assert max(0.0, *residuals) == record["max_residual_H"]
        assert float(np.mean(residuals)) == record["mean_residual_H"]

    def test_curvature(self, capsys):
        out = formats_of(capsys, COMMANDS["curvature"])
        record, text = out["json"], out["text"]
        kappas = ", ".join(f"{v:.12f}" for v in record["principal_curvatures"])
        assert text == (
            f"metric {record['metric']}  point {record['point']}  "
            "(scaled onto the indicatrix)\n"
            f"H = {record['H']:.15f}   principal curvatures: [{kappas}]\n"
            f"|H - 1| = {record['residual_H']:.3e}   "
            f"|tr - n| = {record['residual_trace']:.3e}   "
            f"max |kappa - 1| = {record['residual_umbilic']:.3e}\n"
            f"formula-oracle gap = {record['oracle_gap']:.3e}   result = PASS\n")
        header, rows = csv_table(out["csv"])
        assert header == ["index", "y_1", "y_2", "y_3", "F", "H", "residual_H"]
        assert rows[0][1:4] == [f"{v:.17g}" for v in record["point"]]
        assert rows[0][5:] == [f"{record['H']:.17g}", f"{record['residual_H']:.17g}"]

    def test_sample(self, capsys):
        out = formats_of(capsys, COMMANDS["sample"])
        assert out["text"] == out["csv"]
        header, rows = csv_table(out["csv"])
        assert header == ["index", "y_1", "y_2", "y_3", "y_4", "F", "H", "residual_H"]
        assert len(rows) == len(out["json"]) == 6
        for row, record in zip(rows, out["json"]):
            values = record["y"] + [record["F"], record["H"], record["residual_H"]]
            assert row == [str(record["index"])] + [f"{v:.17g}" for v in values]

    def test_lemma_test(self, capsys):
        out = formats_of(capsys, COMMANDS["lemma-test"])
        record = out["json"]
        assert out["csv"] == out["text"] == (
            f"lemma-test dim {record['dim']} trials {record['trials']} seed {record['seed']}: "
            f"max |delta trace| = {record['max_delta']:.3e} -> PASS (tol 1e-08)\n")

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_output_file_bytes_equal_stdout(self, capsysbinary, tmp_path, command, fmt):
        argv = COMMANDS[command] + ["--format", fmt]
        assert cli.main(argv) == 0
        stdout = capsysbinary.readouterr().out
        path = tmp_path / "report"
        assert cli.main(argv + ["--output", str(path)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert path.read_bytes() == stdout


# Each subcommand's base command line, and for every option it takes a value that must
# change the run; None stands for a file under the test's tmp_path. --tol makes the
# verdict FAIL, and --fd-step is compared with both runs under --method fd.
OPTION_BASES = {
    "verify": ["verify", "--metric", "pnorm:p=4", "--dim", "3", "--samples", "3"],
    "curvature": ["curvature", "--metric", "pnorm:p=4", "--dim", "3", "--point", "1,-2,1.5"],
    "sample": ["sample", "--metric", "pnorm:p=4", "--dim", "3", "--samples", "3"],
    "lemma-test": ["lemma-test", "--trials", "3"],
}
OPTION_VALUES = {
    "verify": {"--metric": "euclidean", "--dim": "4", "--seed": "7", "--tol": "1e-20",
               "--method": "fd", "--fd-step": "1e-3", "--output": None, "--format": "json",
               "--samples": "4"},
    "curvature": {"--metric": "euclidean", "--dim": "4", "--tol": "1e-20", "--method": "fd",
                  "--fd-step": "1e-3", "--output": None, "--format": "json",
                  "--point": "1,2,1.5"},
    "sample": {"--metric": "euclidean", "--dim": "4", "--seed": "7", "--method": "fd",
               "--fd-step": "1e-3", "--output": None, "--format": "json", "--samples": "4"},
    "lemma-test": {"--dim": "4", "--seed": "7", "--tol": "1e-30", "--output": None,
                   "--format": "json", "--trials": "4"},
}
# options a subcommand's handler does not read, so the subcommand does not take them
UNREAD = [("curvature", "--seed", "1"), ("sample", "--tol", "1e-20"),
          ("lemma-test", "--method", "fd"), ("lemma-test", "--fd-step", "1e-3")]


def help_options(capsys, command):
    """The options ``command --help`` lists, one a line as ``  --name``."""
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)


def with_option(argv, option, value):
    """``argv`` with ``option`` set to ``value``, replacing any value it had."""
    argv = list(argv)
    if option in argv:
        at = argv.index(option)
        del argv[at:at + 2]
    return argv + [option, value]


class TestEveryOptionIsRead:
    def test_every_option_has_a_case(self, capsys):
        for command, values in OPTION_VALUES.items():
            unread = {option for name, option, _ in UNREAD if name == command}
            assert set(help_options(capsys, command)) <= set(values) | unread, command

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, values in OPTION_VALUES.items() for option in values],
        ids=lambda item: item)
    def test_option_changes_the_run(self, capsys, tmp_path, command, option):
        # stdout, stderr, the exit code or the --output file must differ from the base run
        assert option in help_options(capsys, command)
        base = OPTION_BASES[command] + (["--method", "fd"] if option == "--fd-step" else [])
        value = OPTION_VALUES[command][option] or str(tmp_path / "report")

        def run(argv):
            code = cli.main(argv)
            out, err = capsys.readouterr()
            written = [path.read_text() for path in tmp_path.iterdir()]
            return code, out, err, written

        before, after = run(base), run(with_option(base, option, value))
        assert before != after
        assert option != "--tol" or (before[0], after[0]) == (0, 1)  # the verdict flips

    @pytest.mark.parametrize("command, option, value", UNREAD, ids=lambda item: item)
    def test_unread_option_exits_two(self, capsys, command, option, value):
        assert option not in help_options(capsys, command)
        assert cli.main(OPTION_BASES[command] + [option, value]) == 2
        assert capsys.readouterr() == (
            "", f"finslercurv: error: unrecognized arguments: {option} {value}\n")


def parsed(argv):
    """parse_args's namespace for ``argv`` with plain values but no fund, or its usage error."""
    try:
        args = cli.parse_args(argv)
    except UsageError as exc:
        return str(exc)
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in vars(args).items() if key != "fund"}


class TestDirectDispatch:
    """A named subcommand's own parser reads its options as the top-level parser would."""

    def test_namespace_is_the_top_level_parse(self, monkeypatch):
        argvs = [argv for command, base in OPTION_BASES.items() for argv in [
            base, *[with_option(base, option, value or "report")
                    for option, value in OPTION_VALUES[command].items()]]]
        argvs += [OPTION_BASES[command] + [option, value] for command, option, value in UNREAD]
        direct = [parsed(argv) for argv in argvs]
        assert [config for config in direct if isinstance(config, str)] == [
            "--point has 3 coordinates but dim is 4",  # curvature --dim 4
            *[f"unrecognized arguments: {option} {value}" for _, option, value in UNREAD]]
        monkeypatch.setattr(cli._parser(), "commands", {})  # every argv through the top level
        assert [parsed(argv) for argv in argvs] == direct

    @pytest.mark.parametrize("command", OPTION_BASES)
    def test_help_is_the_top_level_help(self, capsys, monkeypatch, command):
        def help_text():
            with pytest.raises(SystemExit) as stop:
                cli.parse_args([command, "--help"])
            assert stop.value.code == 0
            return capsys.readouterr()

        direct = help_text()
        monkeypatch.setattr(cli._parser(), "commands", {})
        assert help_text() == direct
