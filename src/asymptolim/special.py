"""Special-function kernel: digamma, trigamma, Hurwitz zeta, harmonic numbers,
and the limit CDF of the fractional parts of n/i.

Digamma and trigamma use upward recurrence to a threshold plus the asymptotic
expansion with Bernoulli-number terms through B14; the Hurwitz zeta uses
Euler-Maclaurin.  The Euler-Mascheroni constant is a hard-coded literal.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .accum import fsum_array

__all__ = [
    "EULER_GAMMA",
    "digamma",
    "trigamma",
    "hurwitz_zeta",
    "harmonic",
    "frac_limit_cdf",
    "frac_limit_density",
    "frac_limit_cdf_series",
    "SeriesValue",
]

EULER_GAMMA = 0.5772156649015329

# Argument above which the asymptotic expansions are accurate to ~1e-13.
_ASY_THRESHOLD = 6.0

# B_{2n}/(2n) for n = 1..7 (through B14), as used by the digamma expansion.
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2n} for n = 1..7, as used by the trigamma expansion.
_TRI_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

# B_{2j} for j = 1..8, for the Euler-Maclaurin correction of the zeta sums.
_B2J = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# Shift the Euler-Maclaurin start so the expansion argument is at least this.
_ZETA_START = 12.0


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


def trigamma(x: float) -> float:
    """Derivative of digamma: sum of 1/(m+x)^2 over m >= 0, for x > 0.

    Absolute error is below 1e-10.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while x < _ASY_THRESHOLD:
        acc += 1.0 / (x * x)
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_TRI_TAIL):
        tail = (tail + c) * w
    return acc + 1.0 / x + 0.5 * w + tail / x


def hurwitz_zeta(s: float, x: float) -> float:
    """Hurwitz zeta: sum of (m+x)^(-s) over m >= 0, for s > 1 and x > 0.

    Euler-Maclaurin with the correction series through B16, at the argument
    shifted to at least 12.  The omitted remainder grows with s: measured
    against mpmath, the relative error reaches 2.0e-12 at s = 10, x = 12.
    """
    s = float(s)
    x = float(x)
    if not s > 1.0:
        raise ValueError("hurwitz_zeta requires s > 1")
    if not x > 0.0:
        raise ValueError("hurwitz_zeta requires x > 0")
    shift = 0
    while x + shift < _ZETA_START:
        shift += 1
    head = math.fsum((x + m) ** (-s) for m in range(shift))
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


def harmonic(n: int) -> float:
    """n-th harmonic number 1 + 1/2 + ... + 1/n, compensated."""
    n = int(n)
    if n < 1:
        raise ValueError("harmonic requires n >= 1")
    return math.fsum(1.0 / i for i in range(1, n + 1))


def frac_limit_cdf(t: float) -> float:
    """Limit CDF of the fractional parts of n/i.

    0 for t <= 0, 1 for t >= 1, and digamma(t) + 1/t + gamma in between,
    computed as digamma(t+1) + gamma to avoid cancellation near 0.
    """
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


def frac_limit_cdf_series(t: float, k_max: int) -> SeriesValue:
    """Power-series form of the limit CDF: alternating zeta coefficients.

    Partial sum of (-1)**(k+1) * zeta(k+1) * t**k for k = 1..k_max, with the
    alternating-series bound (the magnitude of the next term) reported.
    Diverges at |t| >= 1.
    """
    t = float(t)
    if abs(t) >= 1.0:
        raise ValueError("the series diverges for |t| >= 1")
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    terms = []
    power = 1.0
    for k in range(1, k_max + 1):
        power *= t
        sign = 1.0 if k % 2 == 1 else -1.0
        terms.append(sign * _zeta_int(k + 1) * power)
    bound = _zeta_int(k_max + 2) * abs(power * t)
    return SeriesValue(math.fsum(terms), bound)


@functools.cache
def _zeta_int(k: int) -> float:
    return hurwitz_zeta(float(k), 1.0)
