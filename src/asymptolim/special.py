"""Special-function kernel: digamma, trigamma, Hurwitz zeta, harmonic numbers,
and the limit CDF of the fractional parts of n/i.

Digamma and trigamma use upward recurrence to a threshold plus the asymptotic
expansion with Bernoulli-number terms through B14; the Hurwitz zeta uses
Euler-Maclaurin from a start that grows with s.  The Euler-Mascheroni
constant is a 50-digit literal, and the Bernoulli numbers are exact rationals;
the floats are derived from them.  H_n, exact or enclosed, is rounded once
by ``round_once``, which also rounds example4's identity mean.
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .accum import is_vector, map_math

__all__ = [
    "EULER_GAMMA",
    "EULER_GAMMA_50",
    "BERNOULLI_2J",
    "digamma",
    "trigamma",
    "hurwitz_zeta",
    "harmonic",
    "harmonic_exact",
    "round_once",
    "frac_limit_cdf",
    "frac_limit_density",
    "frac_limit_cdf_series",
    "SeriesValue",
]

# The Euler-Mascheroni constant to 50 significant digits, correctly rounded
# (the digits after them are 35988...); EULER_GAMMA is its float.
EULER_GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"
EULER_GAMMA = float(EULER_GAMMA_50)

# B_{2j} for j = 1..12 as exact (numerator, denominator) pairs.
BERNOULLI_2J = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
)

# Argument above which the digamma expansion is accurate to ~1e-13.
_ASY_THRESHOLD = 6.0

# Argument above which the trigamma expansion is accurate to ~1e-16 relative:
# its first omitted term, B16/x**17, is 7e-17 at x = 10 (4e-13 at x = 6).
_TRI_THRESHOLD = 10.0

# The floats below divide Python ints, which rounds once, so each is the
# correctly rounded rational.
# B_{2n}/(2n) for n = 1..7 (through B14), as used by the digamma expansion.
_PSI_TAIL = tuple(p / (2 * j * q) for j, (p, q) in enumerate(BERNOULLI_2J[:7], start=1))

# B_{2j} for j = 1..8: trigamma's expansion takes B2..B14, the zeta sums all.
_B2J = tuple(p / q for p, q in BERNOULLI_2J[:8])

# Shift the Euler-Maclaurin start so the expansion argument is at least this.
_ZETA_START = 12.0

# log(|B18| / 18!): the first omitted Euler-Maclaurin term of the zeta sums is
# |B18|/18! (s)_17 a**(-s-17), against a leading term a**(1-s)/(s-1).
_LOG_B18 = math.log(BERNOULLI_2J[8][0] / BERNOULLI_2J[8][1]) - math.lgamma(19.0)

# The head of the zeta sum stops once the terms left are below this fraction
# of it.
_ZETA_NEGLIGIBLE = 2.0**-60

# Largest n whose H_n is summed exactly: there the sum takes as long as the
# expansion, about 0.12 ms.
_HARMONIC_EXACT_MAX = 1 << 8

# Digits of ln n in round_once's first try, and its cap: past 50 the error
# left is that of gamma's 50-digit literal.
_FIRST_DIGITS = 30
_MAX_DIGITS = 50


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function, for x > 0.

    Absolute error is below 1e-12 on (0, 50].
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < _ASY_THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_PSI_TAIL):
        tail = (tail + c) * w
    return acc + math.log(x) - 0.5 / x - tail


def _digamma_array(x: np.ndarray) -> np.ndarray:
    """``digamma`` of each element of a float64 array ``x``, which it
    overwrites: the scalar's IEEE steps in numpy, each element recurring
    until it reaches the threshold, and ``math.log`` once per element, since
    numpy's log differs from it in the last bit at some points.  Two arrays
    the size of ``x`` hold the work, in place."""
    if not (x > 0.0).all():
        raise ValueError("digamma requires x > 0")
    acc = np.zeros_like(x)
    r = np.empty_like(x)
    low = x < _ASY_THRESHOLD
    while low.any():
        np.divide(1.0, x, out=r, where=low)
        np.subtract(acc, r, out=acc, where=low)
        np.add(x, 1.0, out=x, where=low)
        np.less(x, _ASY_THRESHOLD, out=low)
    # acc + log x - 0.5/x - tail, left to right
    acc += map_math(math.log, x, out=r)
    acc -= np.divide(0.5, x, out=r)
    # the tail in x, with w = 1/x**2 in r
    w = np.divide(1.0, np.multiply(x, x, out=r), out=r)
    tail = x
    tail.fill(0.0)
    for c in reversed(_PSI_TAIL):
        tail += c
        tail *= w
    acc -= tail
    return acc


def trigamma(x: float) -> float:
    """Derivative of digamma: sum of 1/(m+x)^2 over m >= 0, for x > 0.

    Relative error is below 1e-15, measured against mpmath on [1e-6, 1e6].
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while x < _TRI_THRESHOLD:
        acc += 1.0 / (x * x)
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_B2J[:7]):
        tail = (tail + c) * w
    return acc + 1.0 / x + 0.5 * w + tail / x


def hurwitz_zeta(s: float, x: float) -> float:
    """Hurwitz zeta: sum of (m+x)^(-s) over m >= 0, for s > 1 and x > 0.

    Euler-Maclaurin with the correction series through B16, at the argument
    x + m shifted to at least 12 and to where the first omitted term is below
    2**-53 of the leading one (about 1.1 s for large s).  The head terms
    before it stop early once the rest of the series, at most
    (x+m)**(1-s)/(s-1), is below 2**-60 of their sum.  Measured against
    mpmath at 120 digits, the relative error is below 2e-15 for s <= 30 and
    x in [1e-3, 1e3].  At s = inf it is the limit x**-inf.
    """
    s = float(s)
    x = float(x)
    if not s > 1.0:
        raise ValueError("hurwitz_zeta requires s > 1")
    if not x > 0.0:
        raise ValueError("hurwitz_zeta requires x > 0")
    if s == math.inf:
        # the limit: every term after the first is 0
        return x ** -s
    start = _zeta_start(s)
    terms = []
    total = 0.0
    shift = 0
    while x + shift < start:
        term = (x + shift) ** (-s)
        terms.append(term)
        total += term
        shift += 1
        if term * (x + shift - 1) <= _ZETA_NEGLIGIBLE * (s - 1.0) * total:
            return math.fsum(terms)
    head = math.fsum(terms)
    a = x + shift
    value = head + a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s)
    poch = s
    apow = a ** (-s - 1.0)
    fact = 1.0
    correction = 0.0
    for j, b in enumerate(_B2J, start=1):
        fact *= (2 * j - 1) * (2 * j)
        correction += b / fact * poch * apow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        apow /= a * a
    return value + correction


@functools.lru_cache(maxsize=64)
def _zeta_start(s: float) -> float:
    """``hurwitz_zeta``'s start point for s, the same for every x, so kept:
    from the log of (first omitted term) / (2**-53 * leading term) at
    a = 1, a ratio that falls as a**-18 (the cap keeps exp finite for s
    near 1e308)."""
    log_ratio = math.fsum(
        [_LOG_B18, 53 * math.log(2.0), math.log(s - 1.0)] + [math.log(s + j) for j in range(17)]
    )
    return max(_ZETA_START, math.exp(min(log_ratio / 18.0, 709.0)))


def harmonic_exact(n: int, digits: int) -> tuple[Fraction, Fraction]:
    """H_n = 1 + 1/2 + ... + 1/n as a rational, and a bound on its error.

    Up to n = 256 the sum is exact, over lcm(1..n), and the bound is 0.
    Above it, H_n = psi(n) + 1/n + gamma is the Euler-Maclaurin expansion
    ln n + gamma + 1/(2n) - sum_j B_2j / (2j n**2j), whose terms stop at the
    first below 10**-(digits + 20), or at B24 (below 1e-54 for n > 256): the
    remainder is at most that first omitted term, since psi's expansion at
    a real positive argument encloses it (DLMF 5.11(ii)).  So a huge n
    builds no large power of n.  ln n is decimal's, correctly rounded to
    ``digits`` significant digits; gamma is the 50-digit literal, off by at
    most 5e-51.  The rest is exact, and the bound is the sum of the three.
    """
    if n <= _HARMONIC_EXACT_MAX:
        lcm = math.lcm(*range(1, n + 1))
        return Fraction(sum(lcm // i for i in range(1, n + 1)), lcm), Fraction(0)
    log = Decimal(n).ln(Context(prec=digits))
    value = Fraction(log) + Fraction(EULER_GAMMA_50) + Fraction(1, 2 * n)
    target = Fraction(1, 10 ** (digits + 20))
    for j, (p, q) in enumerate(BERNOULLI_2J, start=1):
        term = Fraction(p, 2 * j * q * n ** (2 * j))
        if abs(term) < target or j == len(BERNOULLI_2J):
            break
        value -= term
    half_ulp = Fraction(10) ** (log.adjusted() + 1 - digits) / 2
    return value, abs(term) + half_ulp + Fraction(1, 2 * 10**50)


def round_once(exact: Callable[[int], tuple[Fraction, Fraction]], what: str) -> float:
    """The float nearest a value that ``exact(digits)`` gives, with an
    error bound, from ``digits`` significant digits of ln n.  Following Ziv,
    the digits go from 30 up to 50 while the two ends of the error interval
    round to different floats; a value still undecided then raises
    ArithmeticError, naming it by ``what``, rather than risk a wrong bit.
    """
    digits = _FIRST_DIGITS
    while True:
        value, bound = exact(digits)
        # Fraction -> float divides Python ints, which rounds correctly
        lo, hi = float(value - bound), float(value + bound)
        if lo == hi:
            return lo
        if digits >= _MAX_DIGITS:
            raise ArithmeticError(f"{what} is within {float(bound):.1e} of a rounding boundary")
        digits = min(2 * digits, _MAX_DIGITS)


def harmonic(n: int) -> float:
    """n-th harmonic number 1 + 1/2 + ... + 1/n, correctly rounded.

    ``harmonic_exact`` encloses H_n, and ``round_once`` rounds it.  Enough
    digits always decide the rounding, as H_n is never a midpoint between
    floats: H_1 and H_2 are floats, and for n >= 3 Bertrand's postulate
    gives an odd prime p with n/2 < p <= n, the only multiple of p up to n,
    so H_n's reduced denominator keeps the factor p and is not a power of 2.
    n is an integer, or an integral float such as 1e6; anything else raises
    ValueError.
    """
    try:
        k = int(n)
    except (OverflowError, ValueError):
        raise ValueError(f"harmonic requires a finite integer n, got {n!r}") from None
    if k != n:
        raise ValueError(f"harmonic requires an integer n, got {n!r}")
    n = k
    if n < 1:
        raise ValueError("harmonic requires n >= 1")
    return round_once(functools.partial(harmonic_exact, n), "H_n")


def frac_limit_cdf(t):
    """Limit CDF of the fractional parts of n/i.

    0 for t <= 0, 1 for t >= 1, and digamma(t) + 1/t + gamma in between,
    computed as digamma(t+1) + gamma to avoid cancellation near 0.  A 1-D
    float64 array gives an array: each element the bits of the scalar call,
    or its ValueError at a NaN.
    """
    if is_vector(t):
        out = np.where(t >= 1.0, 1.0, 0.0)
        inside = ~((t <= 0.0) | (t >= 1.0))
        out[inside] = _digamma_array(t[inside] + 1.0) + EULER_GAMMA
        return out
    t = float(t)
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return digamma(t + 1.0) + EULER_GAMMA


def frac_limit_density(t: float) -> float:
    """Density of :func:`frac_limit_cdf` on (0, 1): sum of 1/(m+t)^2, m >= 1.

    Equals trigamma(t) - 1/t^2, evaluated as trigamma(t+1) so small t does
    not cancel; 0 outside (0, 1).
    """
    t = float(t)
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return trigamma(t + 1.0)


class SeriesValue(NamedTuple):
    value: float
    truncation_bound: float


# Most terms frac_limit_cdf_series sums: one term per k, about 4 us each on a
# first call.
MAX_SERIES_TERMS = 10**5


def frac_limit_cdf_series(t: float, k_max: int) -> SeriesValue:
    """Power-series form of the limit CDF: alternating zeta coefficients.

    Partial sum of (-1)**(k+1) * zeta(k+1) * t**k for k = 1..k_max, with the
    alternating-series bound (the magnitude of the next term) reported.
    Diverges at |t| >= 1.  The sum stops early at the first k where t**k
    underflows to 0, since every later term and the bound are zeros.
    """
    t = float(t)
    if abs(t) >= 1.0:
        raise ValueError("the series diverges for |t| >= 1")
    k_max = int(k_max)
    if not 0 <= k_max <= MAX_SERIES_TERMS:
        raise ValueError(f"k_max must be in 0..{MAX_SERIES_TERMS}")
    terms = []
    power = 1.0
    for k in range(1, k_max + 1):
        power *= t
        sign = 1.0 if k % 2 == 1 else -1.0
        terms.append(sign * _zeta_int(k + 1) * power)
        if power == 0.0:
            return SeriesValue(math.fsum(terms), 0.0)
    bound = _zeta_int(k_max + 2) * abs(power * t)
    return SeriesValue(math.fsum(terms), bound)


@functools.cache
def _zeta_int(k: int) -> float:
    return hurwitz_zeta(float(k), 1.0)
