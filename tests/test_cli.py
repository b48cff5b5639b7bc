import argparse
import json
import math
import shlex
from pathlib import Path

import pytest

from asymptolim import EULER_GAMMA
from asymptolim.problems import PROBLEMS
from asymptolim.cli import (
    RunConfig,
    config_from_args,
    build_parser,
    execute,
    main,
    parse_config_from_report,
    render_report,
    resolve_function,
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

    def test_non_increasing_n_exits_2(self, capsys):
        code, _, _ = run_cli(["sweep", "canonical-uniform", "--n", "100,10"], capsys)
        assert code == 2

    @pytest.mark.parametrize("n", [2**52 + 1, 10**16])
    def test_n_above_kernel_domain_exits_2(self, n, monkeypatch, capsys):
        from asymptolim import convergence, problems

        def no_points(*args, **kwargs):
            raise AssertionError("point stream reached")

        monkeypatch.setattr(problems, "_reciprocal_frac_chunk", no_points)
        monkeypatch.setattr(convergence, "map_reduce_int", no_points)
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

        def bounded(n, start, stop):
            assert stop - start <= CHUNK
            seen.append(n)
            if seen.count(10**11) == 3:
                raise Stop
            return kernel(n, start, stop)

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

    def test_impossible_tolerance_exits_3(self, capsys):
        code, _, err = run_cli(
            ["integrate", "--f", "id", "--phi", "sqrt", "--tol", "1e-16"], capsys
        )
        assert code == 3
        assert "numerical failure" in err

    def test_unknown_function_exits_2(self, capsys):
        code, _, _ = run_cli(["integrate", "--f", "wat", "--phi", "uniform"], capsys)
        assert code == 2


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
        from asymptolim.cli import CliError

        with pytest.raises(CliError):
            resolve_function("tan")

    def test_example4_with_named_f(self, capsys):
        rep = report_of(["solve", "example4", "--n", "1000", "--f", "id"], capsys)
        short = report_of(["solve", "example4", "--n", "1000"], capsys)
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


def _readme_cli_lines():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("asymptolim ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_exits_0(line, capsys):
    code, out, err = run_cli(shlex.split(line)[1:], capsys)
    assert code == 0, err
    assert out
