"""Every argv in tests/data/golden_argv.json prints the bytes recorded there,
with the report timestamp masked (see make_golden_argv.py)."""

import json

import pytest

from make_golden_argv import PATH, TIMESTAMP, argvs, platform_digest

from asymptolim.cli import main

DATA = json.loads(PATH.read_text())
CASES = DATA["cases"]


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
