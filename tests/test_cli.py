import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import asymptolim
from asymptolim import EULER_GAMMA
from asymptolim.accum import CHUNK
from asymptolim.problems import PROBLEMS, resolve_function
from asymptolim.cli import (
    MAX_GRID,
    RunConfig,
    config_from_args,
    build_parser,
    execute,
    main,
    parse_config_from_report,
    render_report,
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


class TestSolveCommand:
    def test_example1_sine(self, capsys):
        rep = report_of(
            ["solve", "example1", "--n", "10000", "--f", "sin", "--format", "json"],
            capsys,
        )
        result = rep["result"]
        assert result["closed_form"] == pytest.approx(1 - math.cos(1), abs=1e-9)
        assert result["abs_error"] <= 5e-3
        assert rep["schema"] == 1
        assert rep["version"] == "0.1.0"

    def test_dirichlet_small(self, capsys):
        rep = report_of(["solve", "dirichlet", "--n", "10"], capsys)
        result = rep["result"]
        assert result["empirical"] == pytest.approx(2.7 - math.log(10), abs=1e-12)
        assert result["closed_form"] == pytest.approx(2 * EULER_GAMMA - 1, abs=1e-15)

    def test_example3_threshold(self, capsys):
        rep = report_of(["solve", "example3", "--n", "1000", "--t", "1.0"], capsys)
        assert rep["result"]["empirical"] == 1.0

    def test_poly_defaults(self, capsys):
        rep = report_of(["solve", "poly", "--n", "1000000"], capsys)
        assert rep["result"]["closed_form"] == pytest.approx(1 / 3, abs=1e-8)

    def test_poly_divergent_verdict(self, capsys):
        rep = report_of(
            ["solve", "poly", "--n", "10000", "--poly-p", "1,0,0,0", "--poly-r", "1"],
            capsys,
        )
        assert rep["result"]["verdict"] == "divergent"
        assert "closed_form" not in rep["result"]

    def test_poly_closed_form_meets_tol_after_scaling(self, capsys):
        # (b/a)**(1/q) = 1.81 scales the quadrature error of the unscaled
        # integral; the closed form scale * (c0 + c1/3 + c2/5) is exact
        a, b = 0.6010001931024962, 1.9761564206223317
        c = (-0.47206934741542717, -0.4114487285251822, -0.5895048076443594)
        argv = [
            "solve",
            "poly",
            "--n=1002545315961",
            f"--poly-p={a!r},0.22121190351649034,1.7014627786769765",
            "--poly-r=2",
            f"--poly-b={b!r}",
            "--f=poly:" + ",".join(map(repr, c)),
        ]
        rep = report_of(argv, capsys)
        exact = math.sqrt(b / a) * (c[0] + c[1] / 3 + c[2] / 5)
        assert exact == pytest.approx(-1.3184976950120748, abs=1e-15)
        assert abs(rep["result"]["closed_form"] - exact) <= 1e-9

    @pytest.mark.parametrize("options", [["--poly-p=1,0,0", "--poly-r=2", "--poly-b=1e-320"],
                                         ["--poly-p=1,0", "--poly-b=1e-320"],
                                         ["--poly-b=inf"]])
    def test_poly_n_over_b_out_of_range_exits_2(self, options, capsys):
        # a subnormal b printed a silent 0.0 and b = inf exited 3
        code, out, err = run_cli(["solve", "poly", "--n=10", *options], capsys)
        assert (code, out) == (2, "")
        ratio = "0.0" if options == ["--poly-b=inf"] else "inf"
        assert err == f"error: n / b = {ratio} must be a finite normal float\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "example3", "--n", "100000", "--t", "nan"],
            ["solve", "example2", "--n", "10", "--lo", "nan"],
            ["special", "frac-limit-cdf", "--t", "NaN"],
            ["integrate", "--f", "sin", "--phi", "uniform", "--tol", "nan"],
        ],
    )
    def test_nan_option_exits_2_naming_the_flag(self, argv, capsys):
        # rejected while parsing: NaN passes every range check and counts as 0
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        flag = argv[[a.lower() for a in argv].index("nan") - 1]
        assert f"argument {flag}: not a number" in err

    def test_unknown_problem_exits_2(self, capsys):
        code, _, _ = run_cli(["solve", "nonsense", "--n", "10"], capsys)
        assert code == 2

    def test_nonpositive_n_exits_2(self, capsys):
        code, _, err = run_cli(["solve", "example1", "--n", "0"], capsys)
        assert code == 2
        assert "n" in err

    def test_n_above_kernel_domain_exits_2(self, monkeypatch, capsys):
        # the guard must fire before any chunk loop over 1..n starts
        from asymptolim import problems

        def no_loop(*args, **kwargs):
            raise AssertionError("chunk loop reached")

        monkeypatch.setattr(problems, "map_reduce_int", no_loop)
        code, out, err = run_cli(
            ["solve", "dirichlet", "--n", "10000000000000000000"], capsys
        )
        assert code == 2 and out == ""
        assert "2**52" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflow_prints_only_the_failure(self, threads):
        # a fresh interpreter: pytest would capture numpy's RuntimeWarning
        # before it reached stderr; 3 chunks put the overflow on pool threads
        src = str(Path(asymptolim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["solve", "example1", "--n", str(3 * CHUNK), "--f", "poly:1e308,1e308",
                "--threads", threads]
        proc = subprocess.run([sys.executable, "-m", "asymptolim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "numerical failure: intermediate overflow in fsum\n"


class TestSweepCommand:
    def test_choices_are_the_problem_table(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name in ("sweep", "probe"):
            actions = commands.choices[name]._actions
            problem = next(a for a in actions if a.dest == "problem")
            assert problem.choices == tuple(PROBLEMS)

    def test_canonical_uniform(self, capsys):
        rep = report_of(["sweep", "canonical-uniform", "--n", "10,100"], capsys)
        sup = rep["result"]["sup_errors"]
        assert sup[0] <= 0.1 and sup[1] <= 0.01

    def test_probe_alias(self, capsys):
        rep = report_of(["probe", "canonical-uniform", "--n", "10,100"], capsys)
        assert rep["config"]["command"] == "sweep"

    def test_example3_grid_spec(self, capsys):
        rep = report_of(
            ["sweep", "example3", "--n", "1000,10000,100000", "--grid", "0.1:0.9:0.1"],
            capsys,
        )
        assert rep["result"]["grid"] == pytest.approx(
            [0.1 + 0.1 * j for j in range(9)]
        )
        assert all(rep["result"]["monotone_decay"])

    def test_negative_grid_in_the_equals_form(self, capsys):
        # "--grid -0.9,0.5" reads -0.9,0.5 as an option (exit 2); "=" keeps it a value
        rep = report_of(["sweep", "example2", "--n", "1000", "--grid=-0.9,0.5"], capsys)
        assert rep["result"]["grid"] == [-0.9, 0.5]
        assert rep["config"]["grid"] == [-0.9, 0.5]

    def test_empty_grid_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "canonical-uniform", "--n", "10", "--grid", ""], capsys
        )
        assert code == 2

    def test_grid_outside_domain_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "canonical-uniform", "--n", "10", "--grid", "0.5,1.5"], capsys
        )
        assert code == 2

    def test_grid_range_at_the_bound(self, capsys):
        rep = report_of(
            ["sweep", "canonical-uniform", "--n", "1", "--grid", "1e-5:0.1:1e-5"], capsys
        )
        assert len(rep["result"]["grid"]) == MAX_GRID

    @pytest.mark.parametrize("step", ["1.25e-9", "1e-320"])
    def test_grid_range_over_the_bound_exits_2(self, step, capsys):
        # 6.4e8 values at 1.25e-9; an infinite count at 1e-320
        code, out, err = run_cli(
            ["sweep", "example1", "--n", "10", "--grid", f"0.1:0.9:{step}"], capsys
        )
        assert code == 2 and out == ""
        assert f"at most {MAX_GRID} values" in err

    def test_sweep_settles_the_sqrt_near_miss(self, capsys):
        # the float compare counted 1502: one rounded {sqrt k} falls to the
        # grid value while the exact one exceeds it
        rep = report_of(
            ["sweep", "example1", "--n", "1000002", "--grid", "0.0009999994999816408"], capsys
        )
        assert rep["result"]["cdf_values"] == [[1501 / 1000002]]

    def test_non_increasing_n_exits_2(self, capsys):
        code, _, _ = run_cli(["sweep", "canonical-uniform", "--n", "100,10"], capsys)
        assert code == 2

    def test_nonpositive_n_in_a_list_exits_2(self, monkeypatch, capsys):
        from asymptolim import problems

        def no_points(*args, **kwargs):
            raise AssertionError("point stream reached")

        monkeypatch.setattr(problems, "_reciprocal_frac_chunk", no_points)
        monkeypatch.setattr(problems, "map_reduce_int", no_points)
        code, out, err = run_cli(["sweep", "example3", "--n", "0,10"], capsys)
        assert code == 2 and out == ""
        assert "positive" in err

    @pytest.mark.parametrize("n", [2**52 + 1, 10**16])
    def test_n_above_kernel_domain_exits_2(self, n, monkeypatch, capsys):
        from asymptolim import problems

        def no_points(*args, **kwargs):
            raise AssertionError("point stream reached")

        monkeypatch.setattr(problems, "_reciprocal_frac_chunk", no_points)
        monkeypatch.setattr(problems, "map_reduce_int", no_points)
        code, out, err = run_cli(["sweep", "example3", "--n", f"10,{n}"], capsys)
        assert code == 2 and out == ""
        assert "2**52" in err

    def test_huge_n_streams_in_chunks(self, monkeypatch, capsys):
        # n = 1e11 is inside the kernel domain: the sweep reads it one chunk
        # at a time (stopped here after a few chunks) instead of allocating
        # all n points up front
        from asymptolim import problems
        from asymptolim.accum import CHUNK

        class Stop(Exception):
            pass

        kernel = problems._reciprocal_frac_chunk
        seen = []

        def bounded(n, start, stop, out=None):
            assert stop - start <= CHUNK
            seen.append(n)
            if seen.count(10**11) == 3:
                raise Stop
            return kernel(n, start, stop, out=out)

        monkeypatch.setattr(problems, "_reciprocal_frac_chunk", bounded)
        with pytest.raises(Stop):
            main(["sweep", "example3", "--n", "10,100000000000"])
        assert seen == [10] + [10**11] * 3

    def test_threads_reach_the_probe_and_leave_report_unchanged(self, monkeypatch, capsys):
        from asymptolim import cli

        probe = cli.cdf_sequence_probe
        passed = []

        def recording_probe(*args, **kwargs):
            passed.append(kwargs.get("threads"))
            return probe(*args, **kwargs)

        monkeypatch.setattr(cli, "cdf_sequence_probe", recording_probe)

        def report(threads):
            rep = report_of(
                ["sweep", "example3", "--n", "1000,300000", "--threads", threads], capsys
            )
            rep.pop("timestamp")
            assert rep["config"].pop("threads") == int(threads)
            return json.dumps(rep, sort_keys=True)

        assert report("2") == report("1")
        assert passed == [2, 1]


class TestIntegrateCommand:
    def test_sine_against_uniform(self, capsys):
        rep = report_of(
            ["integrate", "--f", "sin", "--phi", "uniform", "--tol", "1e-10"], capsys
        )
        assert rep["result"]["value"] == pytest.approx(1 - math.cos(1), abs=1e-9)

    def test_parts_method(self, capsys):
        rep = report_of(
            ["integrate", "--f", "id", "--phi", "frac-limit", "--method", "parts"],
            capsys,
        )
        assert rep["result"]["value"] == pytest.approx(1 - EULER_GAMMA, abs=1e-8)

    def test_oracle_method(self, capsys):
        rep = report_of(
            ["integrate", "--f", "id", "--phi", "sqrt", "--method", "oracle"],
            capsys,
        )
        levels = rep["result"]["levels"]
        assert len(levels) == 12
        assert levels[-1] == pytest.approx(1 / 3, abs=1e-2)

    @pytest.mark.parametrize("levels", ["-3", "0", "23", "40"])
    def test_oracle_levels_out_of_range_exit_2(self, levels, capsys):
        # 40 would ask for a 2**40-point partition; 0 used to run 12 levels
        code, out, err = run_cli(
            ["integrate", "--f", "id", "--phi", "sqrt", "--method", "oracle", "--levels", levels],
            capsys,
        )
        assert code == 2 and out == ""
        assert "levels must be in 1..22" in err

    def test_oracle_single_level(self, capsys):
        rep = report_of(
            ["integrate", "--f", "id", "--phi", "sqrt", "--method", "oracle", "--levels", "1"],
            capsys,
        )
        assert len(rep["result"]["levels"]) == 1

    def test_impossible_tolerance_exits_3(self, capsys):
        code, _, err = run_cli(
            ["integrate", "--f", "id", "--phi", "sqrt", "--tol", "1e-16"], capsys
        )
        assert code == 3
        assert "numerical failure" in err

    def test_unknown_function_exits_2(self, capsys):
        code, _, _ = run_cli(["integrate", "--f", "wat", "--phi", "uniform"], capsys)
        assert code == 2

    @pytest.mark.parametrize("method", ["parts", "oracle"])
    def test_overflow_exits_3(self, method, capsys):
        code, out, err = run_cli(
            ["integrate", "--f", "poly:1e308,1e308", "--phi", "uniform", "--method", method],
            capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("lower, upper", [("-1e308", "1e308"), ("-1.7e308", "1.7e308")])
    def test_oracle_on_a_window_wider_than_the_largest_float(self, lower, upper, capsys):
        # every grid point is a float though b - a is not
        rep = report_of(
            ["integrate", "--f", "const1", "--phi", "uniform", "--method", "oracle",
             f"--lower={lower}", f"--upper={upper}", "--levels", "3"],
            capsys,
        )
        assert rep["result"]["levels"] == [1.0, 1.0, 1.0]


class TestSpecialCommand:
    def test_digamma_at_one(self, capsys):
        rep = report_of(["special", "digamma", "--x", "1"], capsys)
        assert rep["result"]["value"] == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_hurwitz(self, capsys):
        rep = report_of(["special", "hurwitz", "--s", "2", "--x", "1"], capsys)
        assert rep["result"]["value"] == pytest.approx(math.pi**2 / 6, abs=1e-10)

    def test_harmonic(self, capsys):
        rep = report_of(["special", "harmonic", "--n", "4"], capsys)
        assert rep["result"]["value"] == pytest.approx(25 / 12, abs=1e-15)

    def test_harmonic_at_1e12_answers_at_once(self, capsys):
        start = time.perf_counter()
        rep = report_of(["special", "harmonic", "--n", "1000000000000"], capsys)
        assert time.perf_counter() - start < 0.5
        assert rep["result"]["value"] == pytest.approx(28.208236780830581, abs=1e-14)

    def test_series_reports_bound(self, capsys):
        rep = report_of(
            ["special", "frac-limit-series", "--t", "0.5", "--k-max", "40"], capsys
        )
        assert rep["result"]["truncation_bound"] < 1e-12

    def test_missing_argument_exits_2(self, capsys):
        code, _, _ = run_cli(["special", "digamma"], capsys)
        assert code == 2

    def test_trigamma_division_by_zero_exits_3(self, capsys):
        code, out, err = run_cli(["special", "trigamma", "--x", "1e-200"], capsys)
        assert (code, out) == (3, "")
        assert "numerical failure" in err

    @pytest.mark.parametrize("x,code", [("2", 0), ("0.5", 3)])
    def test_hurwitz_at_infinite_s_returns_at_once(self, x, code, capsys):
        start = time.perf_counter()
        assert run_cli(["special", "hurwitz", "--s", "inf", "--x", x], capsys)[0] == code
        assert time.perf_counter() - start < 0.5

    def test_hurwitz_overflow_exits_3(self, capsys):
        code, out, err = run_cli(["special", "hurwitz", "--s", "1e300", "--x", "0.5"], capsys)
        assert (code, out) == (3, "")
        assert "numerical failure" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_exits_3(self, fmt, capsys):
        code, out, err = run_cli(
            ["special", "digamma", "--x", "1e-320", "--format", fmt], capsys
        )
        assert (code, out) == (3, "")
        assert "non-finite" in err


class TestReports:
    def config_for(self, argv):
        args = build_parser().parse_args(argv)
        return config_from_args(args)

    # one argv per command; together they carry every RunConfig field type
    # (str, int, float, int tuple, float tuple)
    ROUND_TRIP_ARGVS = {
        "solve": ["solve", "poly", "--n", "1000", "--poly-p", "1,0.1,0.5", "--poly-r", "2",
                  "--poly-b", "1.5", "--f", "sin", "--threads", "2"],
        "sweep": ["sweep", "example1", "--n", "50,500", "--grid", "0.2,0.4,0.6"],
        "integrate": ["integrate", "--f", "id", "--phi", "sqrt", "--lower", "0.25",
                      "--upper", "0.75", "--method", "oracle", "--levels", "6"],
        "special": ["special", "frac-limit-series", "--t", "0.5", "--k-max", "40"],
    }

    def round_trip(self, command, fmt):
        config = self.config_for(self.ROUND_TRIP_ARGVS[command] + ["--format", fmt])
        text = render_report(execute(config), fmt)
        assert parse_config_from_report(text, fmt) == config

    @pytest.mark.parametrize("command", list(ROUND_TRIP_ARGVS))
    def test_json_round_trip(self, command):
        self.round_trip(command, "json")

    @pytest.mark.parametrize("command", list(ROUND_TRIP_ARGVS))
    def test_csv_round_trip(self, command):
        self.round_trip(command, "csv")

    def test_csv_has_header_and_full_precision(self):
        config = self.config_for(["solve", "dirichlet", "--n", "10", "--format", "csv"])
        text = render_report(execute(config), "csv")
        lines = text.splitlines()
        assert lines[0] == "key,value"
        value = next(
            line.split(",")[1] for line in lines if line.startswith("result.empirical")
        )
        assert float(value) == 2.7 - math.log(10)

    def test_reports_identical_except_timestamp(self):
        config = self.config_for(["solve", "example4", "--n", "1000"])
        a = execute(config)
        b = execute(config)
        a.pop("timestamp")
        b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_thread_count_changes_no_numeric_field(self):
        base = execute(self.config_for(["solve", "example1", "--n", "20000"]))
        for threads in ("4", "8"):
            other = execute(
                self.config_for(["solve", "example1", "--n", "20000", "--threads", threads])
            )
            assert other["result"] == base["result"]

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["solve", "dirichlet", "--n", "10", "--output", str(path)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["result"]["n"] == 10

    def test_unwritable_output_exits_2(self, capsys):
        code, _, err = run_cli(
            ["solve", "dirichlet", "--n", "10", "--output", "/nonexistent/dir/x.json"],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err


class TestBoundedLoops:
    """Inputs that used to run for as long as they asked: each exits 2 or
    finishes fast."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "poly", "--n", "1000000000000000000", "--poly-p", "1,0", "--poly-r", "1"],
            ["special", "frac-limit-series", "--t", "0.5", "--k-max", "1000000000"],
            ["solve", "example3", "--n", "1000", "--threads", "100000"],
        ],
        ids=["N(n)>2**52", "k-max", "threads"],
    )
    def test_rejected(self, argv, monkeypatch, capsys):
        from asymptolim import accum

        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(accum, "ThreadPoolExecutor", no_pool)
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error:")
        assert time.perf_counter() - start < 1.0

    def test_thread_environment_above_the_bound_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("ASYMPTOLIM_THREADS", "257")
        code, _, err = run_cli(["solve", "dirichlet", "--n", "10"], capsys)
        assert code == 2 and "threads" in err

    def test_poly_index_search_is_fast(self, capsys):
        argv = ["solve", "poly", "--n", "1000000000000", "--poly-p", "1e-10,1e6,0", "--poly-r", "2"]
        start = time.perf_counter()
        rep = report_of(argv, capsys)
        assert time.perf_counter() - start < 0.5
        assert rep["result"]["meta"].endswith("N(n) = 999999")


class TestThreadsEnvironment:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ASYMPTOLIM_THREADS", "3")
        config = config_from_args(
            build_parser().parse_args(["solve", "dirichlet", "--n", "10"])
        )
        assert config.threads == 3

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("ASYMPTOLIM_THREADS", "3")
        config = config_from_args(
            build_parser().parse_args(
                ["solve", "dirichlet", "--n", "10", "--threads", "2"]
            )
        )
        assert config.threads == 2

    def test_bad_env_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("ASYMPTOLIM_THREADS", "many")
        code, _, _ = run_cli(["solve", "dirichlet", "--n", "10"], capsys)
        assert code == 2


_TIMESTAMP = re.compile(r'(timestamp"?[:,] ?"?)[0-9T:.+-]+')


class TestSharedParser:
    """``main`` builds its parser once per process; every call then gives
    what a freshly built parser gives."""

    @staticmethod
    def sequence(tmp_path):
        """(argv, ASYMPTOLIM_THREADS) pairs: exit-2 argv between good ones,
        the probe alias, defaults after explicit values, CSV and --output."""
        out = str(tmp_path / "report.txt")
        integrate = ["integrate", "--f", "sin", "--phi", "uniform"]
        return [
            (integrate + ["--method", "oracle", "--levels", "3"], None),
            (integrate + ["--method", "oracle", "--levels", "0"], None),
            (integrate + ["--method", "oracle"], None),
            (integrate + ["--method", "parts", "--lower", "nan"], None),
            (integrate, None),
            (integrate + ["--method", "nosuch"], None),
            (["solve", "nosuch", "--n", "10"], None),
            (["probe", "example3", "--n", "100,1000", "--format", "csv"], None),
            (["sweep", "example3", "--n", "100,1000"], None),
            (["special", "digamma", "--x", "nan"], None),
            (["special", "digamma", "--x", "2", "--format", "csv"], None),
            (["solve", "example3", "--n", "1000", "--threads", "2"], None),
            (["solve", "example3", "--n", "1000"], "2"),
            (["solve", "example3", "--n", "1000"], "many"),
            (["solve", "example3", "--n", "1000"], None),
            (["solve", "dirichlet", "--n", "10", "--output", out], None),
            (["solve", "dirichlet", "--n", "10", "--format", "csv", "--output", out], None),
            (["solve", "dirichlet", "--n", "10"], None),
            ([], None),
            (["integrate", "--help"], None),
            (integrate + ["--levels", "23", "--method", "oracle"], None),
            (integrate + ["--method", "oracle", "--tol", "1e-3"], None),
        ]

    @staticmethod
    def run_all(steps, tmp_path, monkeypatch, capsys):
        results = []
        for argv, threads in steps:
            if threads is None:
                monkeypatch.delenv("ASYMPTOLIM_THREADS", raising=False)
            else:
                monkeypatch.setenv("ASYMPTOLIM_THREADS", threads)
            code = main(argv)
            out = capsys.readouterr()
            written = ""
            if "--output" in argv:
                path = tmp_path / "report.txt"
                written = path.read_text()
                path.unlink()
            results.append(
                (code, _TIMESTAMP.sub(r"\1T", out.out + written), out.err)
            )
        return results

    def test_every_call_matches_a_fresh_parser(self, tmp_path, monkeypatch, capsys):
        from asymptolim import cli

        builds = []
        parsers = cli._parsers

        def counting_build():
            builds.append(1)
            return parsers()

        steps = self.sequence(tmp_path)
        monkeypatch.setattr(cli, "_parsers", counting_build)
        cli._shared_parser.cache_clear()
        try:
            shared = self.run_all(steps, tmp_path, monkeypatch, capsys)
        finally:
            cli._shared_parser.cache_clear()
        assert len(builds) == 1
        monkeypatch.setattr(cli, "_shared_parser", counting_build)
        fresh = self.run_all(steps, tmp_path, monkeypatch, capsys)
        assert len(builds) == 1 + len(steps)
        assert shared == fresh
        assert {code for code, _, _ in shared} == {0, 2}

    def test_parser_is_built_at_the_first_call(self):
        # a fresh interpreter: this one has built the parser already
        code = (
            "from asymptolim import cli; "
            "assert cli._shared_parser.cache_info().currsize == 0; "
            "cli.main(['special', 'digamma', '--x', '1']); "
            "assert cli._shared_parser.cache_info().currsize == 1"
        )
        src = str(Path(asymptolim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


def _outcome(parse, argv, capsys):
    """(namespace, None, "", "") of a parse that returns, or (None, exit
    code, stdout, stderr) of one that exits."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return None, exc.code, out.out, out.err
    out = capsys.readouterr()
    return args, None, out.out, out.err


class TestParse:
    """``cli._parse`` gives what the whole parser's ``parse_args`` gives: the
    namespace, or the exit code, stdout and stderr."""

    # argparse-level argv beyond the golden file's: repeated and reordered
    # options, an ambiguous and a help abbreviation, missing and malformed
    # values, a value that looks like an option, "--" after every positional
    # and help before the command
    MATRIX = (["solve", "example1", "--n=10", "--n=20"],
              ["solve", "--n=10", "example1"],
              ["integrate", "--f", "sin", "--phi", "uniform", "--l=3"],
              ["solve", "example1", "--n=10", "--he"],
              ["sweep", "example1", "--n", "10,100", "--grid", "-0.5,0.5"],
              ["special", "digamma", "--x", "-1"],
              ["special", "digamma", "--x=1", "--x"],
              ["integrate", "--f=sin", "--phi=uniform", "--levels=abc"],
              ["special", "digamma", "--x=nan"],
              ["solve", "example1", "--n=10", "--", "extra"],
              ["solve", "example1", "--n=10", "-"],
              ["solve", "example1", "--n=10", "-x"],
              ["solve"],
              ["probe", "-h"],
              ["-h", "solve"],
              ["sweep", "example3", "--n=10,100", "--format", "csv", "--output"],
              ["integrate", "--f=sin", "--phi=uniform", "--method=oracle", "--lev", "3",
               "--low=0", "--upp=1"])

    @pytest.fixture(scope="class")
    def whole(self):
        return build_parser()

    def check(self, argv, whole, monkeypatch, capsys):
        from asymptolim.cli import _parse

        monkeypatch.setenv("COLUMNS", "80")
        got = _outcome(_parse, list(argv), capsys)
        assert got == _outcome(whole.parse_args, list(argv), capsys)
        return got

    def test_golden_argv(self, whole, monkeypatch, capsys):
        from make_golden_argv import argvs

        outcomes = [self.check(argv, whole, monkeypatch, capsys) for argv in argvs()]
        assert {code for _, code, _, _ in outcomes} == {None, 0, 2}

    @pytest.mark.parametrize("argv", MATRIX, ids=" ".join)
    def test_argparse_matrix(self, argv, whole, monkeypatch, capsys):
        self.check(argv, whole, monkeypatch, capsys)


class TestJsonWriter:
    """JSON reports are ``json.dumps(report, sort_keys=True, indent=2)``'s
    bytes, whatever the report holds."""

    @staticmethod
    def same(value):
        from asymptolim.cli import _json

        assert _json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("command", list(TestReports.ROUND_TRIP_ARGVS))
    def test_report_of_each_command(self, command):
        argv = TestReports.ROUND_TRIP_ARGVS[command]
        report = execute(config_from_args(build_parser().parse_args(argv)))
        assert render_report(report, "json") == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_edge_values_in_the_config(self):
        config = RunConfig(command="integrate", f="poly:0.5,-1.25,2", phi="uniform",
                           lower=-0.0, upper=5e-324, x=1e308, s=-math.inf, tolerance=math.inf,
                           grid=(-0.0, 5e-324, 1e308, math.inf, -math.inf), n_list=())
        self.same({"config": config.to_dict(), "result": {"value": 0.5}})

    @pytest.mark.parametrize("value", [
        {"flags": (True, False, None), "big": 2**64, "huge": -(10**30), "empty": (),
         "nested": [[], {}, [()]], "ints": (1, 2, 3), "mixed": [1.5, 2, True, None]},
        {"text": "é, ü, \u2211 and \U0001f600", "control": "tab\tnew\nline\x00\x1f\x7f",
         "quote": 'a "b" \\ c', "": "empty key", "\u00e9key": "non-ASCII key"},
        {"floats": [0.1, -0.0, 5e-324, 1e308, 1e16, 1e-5, 123456789.0],
         "non_finite": [1.0, math.nan, math.inf, -math.inf], "nan": math.nan},
        {"numpy": [np.float64(0.1), np.float64(-0.0)], "scalar": np.float64(2.5),
         "int_keys": {2: 1.5, 1: [1.0]}, "tuple_of_rows": ((1.0, 2.0), (3.0,))},
        [], {}, "top", 1.5, math.inf, 7, None, True,
    ], ids=["plain", "strings", "floats", "subclasses", "empty-list", "empty-dict", "str",
            "float", "inf", "int", "null", "bool"])
    def test_value_matrix(self, value):
        self.same(value)

    def test_random_nested_values(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text())
        values = st.recursive(scalars, lambda inner: (
            st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
            | st.lists(st.floats(), max_size=6)
            | st.dictionaries(st.text(max_size=5), inner, max_size=4)), max_leaves=20)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(values)
        def check(value):
            self.same(value)

        check()


class TestFinite:
    @staticmethod
    def reference(value) -> bool:
        # the recursive walk the flat check replaces
        if isinstance(value, (list, tuple)):
            return all(TestFinite.reference(v) for v in value)
        return not isinstance(value, float) or math.isfinite(value)

    @pytest.mark.parametrize("value", [
        1.0, math.nan, -math.inf, 10**400, "nan", True, None, (), [],
        (1.0, 2.0), (1.0, math.inf), [1, 2, True, "x"], [1, 10**400, math.nan],
        ((1.0, 2.0), (3.0, (4.0, (5.0, math.nan)))), ((1.0, 2.0), (3.0, (4.0, (5.0, 6.0)))),
        [np.float64(1.0), np.float64("nan")], [np.float64(1.0), 2.0], ["a", [1.0, [math.inf]]],
    ])
    def test_matches_the_recursive_walk(self, value):
        from asymptolim.cli import _finite

        assert _finite(value) == self.reference(value)

    def test_nan_deep_in_a_nested_tuple_names_the_first_field(self, monkeypatch, capsys):
        from asymptolim import cli

        result = {"value": 1.0, "meta": "ok", "rows": ((1.0, 2.0), (3.0, (4.0, (5.0, math.nan)))),
                  "later": math.inf}
        monkeypatch.setitem(cli.COMMANDS, "special", lambda config: dict(result))
        with pytest.raises(FloatingPointError, match="result field 'rows'"):
            execute(RunConfig(command="special", problem="digamma", x=1.0))
        code, out, err = run_cli(["special", "digamma", "--x=1"], capsys)
        assert (code, out) == (3, "")
        assert err == "numerical failure: non-finite value in result field 'rows'\n"


class TestFunctionRegistry:
    def test_polynomial_callback(self):
        named = resolve_function("poly:1,0,2")  # 1 + 2 t^2
        assert named.fn(0.5) == pytest.approx(1.5)
        assert named.derivative(0.5) == pytest.approx(2.0)

    def test_constant(self):
        named = resolve_function("const1")
        assert named.fn(123.0) == 1.0
        assert named.derivative(123.0) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown function 'tan'"):
            resolve_function("tan")

    def test_example4_with_named_f(self, capsys):
        # a named f streams; without one, the mean is exact, rounded once
        rep = report_of(["solve", "example4", "--n", "1000", "--f", "id"], capsys)
        short = report_of(["solve", "example4", "--n", "1000"], capsys)
        exact = float(sum(Fraction(1000 % i, i) for i in range(1, 1001)) / 1000)
        assert short["result"]["empirical"].hex() == exact.hex()
        assert abs(rep["result"]["empirical"] - exact) <= math.ulp(exact)
        # at n = 1000 the stream's rounded points also sum to that float
        assert rep["result"]["empirical"] == short["result"]["empirical"]
        assert rep["result"]["closed_form"] == pytest.approx(
            short["result"]["closed_form"], abs=1e-8
        )


class TestRunConfig:
    def test_dict_round_trip(self):
        config = RunConfig(
            command="sweep",
            problem="example3",
            n_list=(100, 1000),
            grid=(0.1, 0.5),
            threads=2,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        from asymptolim.cli import CliError

        with pytest.raises(CliError):
            RunConfig.from_dict({"command": "solve", "bogus": 1})


def _readme_block(section, fence):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split(section, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def _readme_cli_lines():
    block = _readme_block("## CLI", "```sh")
    return [line for line in block.splitlines() if line.startswith("asymptolim ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_exits_0(line, capsys):
    code, out, err = run_cli(shlex.split(line)[1:], capsys)
    assert code == 0, err
    assert out


def test_readme_library_example_prints_its_limits(capsys):
    exec(compile(_readme_block("## Library example", "```python"), "README.md", "exec"), {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert len(printed) == 4
    assert printed[0] == pytest.approx(1 - EULER_GAMMA, abs=1e-2)
    assert printed[1] == pytest.approx(1 - math.cos(1), abs=1e-2)
    # the mean at n = 1e12, and E sin(U**2) = sum_k (-1)**k / ((2k+1)! (4k+3))
    assert printed[2] == pytest.approx(1 - math.cos(1), abs=1e-6)
    series = math.fsum((-1) ** k / (math.factorial(2 * k + 1) * (4 * k + 3)) for k in range(12))
    assert printed[3] == pytest.approx(series, abs=1e-9)
