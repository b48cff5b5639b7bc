"""Every argv in tests/data/golden_argv.json prints the bytes recorded there,
with the report timestamp masked, and every problem gives the counts
recorded there, at 1 and 2 threads (see make_golden_argv.py)."""

import json

import pytest

from make_golden_argv import (
    COUNT_NS,
    COUNT_TS,
    PATH,
    TIMESTAMP,
    argvs,
    platform_digest,
    threshold_text,
    threshold_value,
)

from asymptolim.cli import main
from asymptolim.problems import PROBLEMS

DATA = json.loads(PATH.read_text())
CASES = DATA["cases"]
COUNTS = DATA["counts"]


@pytest.fixture(scope="module")
def same_functions():
    if platform_digest() != DATA["digest"]:
        pytest.skip("numpy's sin or cos, or libm, give other bits here than on the "
                    "machine that wrote the file")


def test_the_file_holds_every_argv_of_the_generator():
    assert [case["argv"] for case in CASES] == argvs()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_argv_prints_the_recorded_bytes(case, same_functions, capsys):
    code = main(case["argv"])
    out = capsys.readouterr()
    assert code == case["code"]
    assert TIMESTAMP.sub(r"\1T", out.out) == case["stdout"]
    assert out.err == case["stderr"]


def test_the_file_holds_every_count_of_the_generator():
    assert [case["problem"] for case in COUNTS] == list(PROBLEMS)
    for case in COUNTS:
        assert case["ns"] == list(COUNT_NS)
        assert case["ts"] == [threshold_text(t) for t in COUNT_TS]
        assert [threshold_text(threshold_value(t)) for t in case["ts"]] == case["ts"]


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("case", COUNTS, ids=[c["problem"] for c in COUNTS])
def test_counts_are_the_recorded_counts(case, threads, request):
    # example2's points are values of np.sin
    if case["problem"] == "example2":
        request.getfixturevalue("same_functions")
    ts = [threshold_value(t) for t in case["ts"]]
    assert PROBLEMS[case["problem"]].counts(case["ns"], ts, threads).tolist() == case["counts"]
