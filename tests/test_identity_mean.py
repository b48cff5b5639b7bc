"""example4's identity mean, H_n - D(n)/n rounded once, against exact oracles.

The mean of {n/i} = (n mod i)/i over i <= n is a rational; the solver must
return it correctly rounded, bit for bit.  Bits are compared by float.hex,
so that a -0.0 for +0.0 shows.  The stream, which rounds each point and then
their sum, stays the oracle within 1 ulp.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim import frac_n_over_i_mean
from asymptolim.accum import CHUNK
from asymptolim.problems import _divisor_sum, _harmonic, _identity_mean
from asymptolim.special import BERNOULLI_2J


def _split(n, a, b):
    """sum of (n mod i)/i over a <= i < b as a pair (p, q), q the product of
    the i, by binary splitting."""
    if b - a == 1:
        return n % a, a
    m = (a + b) // 2
    p1, q1 = _split(n, a, m)
    p2, q2 = _split(n, m, b)
    return p1 * q2 + p2 * q1, q1 * q2


def exact_mean(n):
    """The mean of (n mod i)/i over i <= n, correctly rounded: int / int
    rounds once."""
    p, q = _split(n, 1, n + 1)
    return p / (q * n)


def stream_mean(n, threads=1):
    return frac_n_over_i_mean(n, lambda t: t, threads=threads).empirical


def test_exact_oracle_is_the_fraction_sum():
    for n in (1, 2, 3, 10, 97, 360):
        assert exact_mean(n) == float(sum(Fraction(n % i, i) for i in range(1, n + 1)) / n)


def test_bits_against_the_exact_oracle_to_400():
    for n in range(1, 401):
        assert frac_n_over_i_mean(n).empirical.hex() == exact_mean(n).hex(), n


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1])
def test_bits_against_the_exact_oracle_at_chunk_edges(n):
    assert frac_n_over_i_mean(n).empirical.hex() == exact_mean(n).hex()


def test_zero_mean_is_positive_zero():
    # every point is 0 at n = 1 and 2, and the stream's sum is +0.0
    for n in (1, 2):
        assert frac_n_over_i_mean(n).empirical.hex() == "0x0.0p+0"
        assert stream_mean(n).hex() == "0x0.0p+0"


@pytest.mark.parametrize("n", [10**7 + 3, 2**40, 2**52 - 1])
def test_bits_against_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        exact = float(mpmath.harmonic(n) - mpmath.mpf(_divisor_sum(n)) / n)
    assert frac_n_over_i_mean(n).empirical.hex() == exact.hex()


@pytest.mark.parametrize("n", [2, 3, 1000, 12345, 2 * CHUNK + 5, 10**6])
def test_divisor_sum_by_brute_force(n):
    i = np.arange(1, n + 1, dtype=np.int64)
    assert _divisor_sum(n) == int((n // i).sum())


def test_stream_within_1_ulp():
    for n in list(range(1, 301)) + [1000, 12345, 10**5, 10**6 + 3]:
        exact = frac_n_over_i_mean(n).empirical
        assert abs(stream_mean(n) - exact) <= math.ulp(exact), n


@pytest.mark.parametrize("terms", range(1, len(BERNOULLI_2J)))
def test_euler_maclaurin_remainder_within_the_first_omitted_term(terms):
    # H_n - (ln n + gamma + 1/(2n) - sum_{j<=terms} B_2j / (2j n**2j)) lies
    # between 0 and the first omitted term, so it is at most that term
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(300):
        for n in (2, 3, 5, 10, 30, 100):
            series = mpmath.log(n) + mpmath.euler + mpmath.mpf(1) / (2 * n)
            for j, (p, q) in enumerate(BERNOULLI_2J[:terms], start=1):
                series -= mpmath.mpf(p) / (2 * j * q * mpmath.mpf(n) ** (2 * j))
            p, q = BERNOULLI_2J[terms]
            omitted = -mpmath.mpf(p) / (2 * (terms + 1) * q * mpmath.mpf(n) ** (2 * terms + 2))
            remainder = mpmath.harmonic(n) - series
            assert 0 <= remainder / omitted <= 1, (n, terms)


@pytest.mark.parametrize("n", [1025, 12345, 10**7 + 3, 2**40])
@pytest.mark.parametrize("digits", [4, 30, 50])
def test_harmonic_within_its_bound(n, digits):
    mpmath = pytest.importorskip("mpmath")
    value, bound = _harmonic(n, digits)
    with mpmath.workprec(300):
        gap = abs(mpmath.harmonic(n) - mpmath.mpf(value.numerator) / value.denominator)
        assert gap <= mpmath.mpf(bound.numerator) / bound.denominator
    assert bound < 10.0 ** (2 - digits)


@pytest.mark.parametrize("n", [1025, 12345678, 10**7 + 3])
def test_low_precision_retries_to_the_same_bits(n):
    d = _divisor_sum(n)
    # at 4 digits the error interval holds more than one float, so the
    # rounding test must fail and raise the precision
    harmonic, bound = _harmonic(n, 4)
    mean = harmonic - Fraction(d, n)
    assert float(mean - bound) != float(mean + bound)
    assert _identity_mean(n, d, digits=4).hex() == frac_n_over_i_mean(n).empirical.hex()


def test_undecided_rounding_stops_at_the_cap(monkeypatch):
    from asymptolim import problems

    monkeypatch.setattr(problems, "_MEAN_MAX_DIGITS", 8)
    with pytest.raises(ArithmeticError, match="rounding boundary"):
        _identity_mean(12345, _divisor_sum(12345), digits=4)


def test_bits_independent_of_threads():
    # isqrt(n) spans three chunks of the divisor sum
    n = (2 * CHUNK + 7) ** 2 + 11
    bits = {frac_n_over_i_mean(n, threads=t).empirical.hex() for t in (1, 2, 4)}
    assert len(bits) == 1
