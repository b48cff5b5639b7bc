"""The named limit CDFs take 1-D float64 arrays and give each element the
bits of their scalar call, so the Riemann-Stieltjes oracle calls them once,
on its finest grid, and the variation estimator once per depth; the
per-element route,
forced by a callback that takes floats only, is the oracle of both."""

import math
from fractions import Fraction

import numpy as np
import pytest

from asymptolim.problems import resolve_cdf
from asymptolim.stieltjes import riemann_stieltjes_oracle, variation

# every --phi name, and a root of higher degree
NAMES = ("uniform", "sqrt", "root:3", "root:7", "frac-limit", "arcsin")

EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0,
    1.0 + 2.0**-52, -1.0, -1.0 + 2.0**-53, -1.0 - 2.0**-52, 2.0, -2.0, 1e300, -1e300,
    math.inf, -math.inf,
)


def phi_of(name):
    return resolve_cdf(name).value


def scalar_route(phi):
    return lambda t: phi(float(t))


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def outcome(call):
    """The bits of a call's result, or the type and text of what it raised."""
    try:
        return bits(call())
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", NAMES)
def test_array_call_equals_the_scalar_calls(name):
    phi = phi_of(name)
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.random(20_000), rng.uniform(-1.5, 1.5, 20_000),
                        np.ldexp(rng.random(2_000), -rng.integers(0, 1070, 2_000)),
                        1.0 - np.ldexp(rng.random(2_000), -rng.integers(1, 54, 2_000)),
                        np.array(EDGES)])
    got = phi(x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape and got.dtype == np.float64
    assert bits(got) == bits([phi(v) for v in x.tolist()])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("size", [0, 1, 2])
def test_short_arrays(name, size):
    phi = phi_of(name)
    x = np.linspace(0.25, 0.75, size)
    assert bits(phi(x)) == bits([phi(v) for v in x.tolist()])


@pytest.mark.parametrize("name", NAMES)
def test_nan_gives_the_scalar_value_or_exception(name):
    phi = phi_of(name)
    x = np.array([0.25, math.nan, 0.75])
    want = outcome(lambda: [phi(v) for v in x.tolist()])
    assert outcome(lambda: phi(x)) == want
    assert outcome(lambda: phi(x[1:2])) == outcome(lambda: [phi(math.nan)])


@pytest.mark.parametrize("name", ["sqrt", "root:3", "frac-limit", "arcsin"])
def test_other_arrays_go_one_value_at_a_time(name):
    # only a 1-D float64 array takes the array route; a scalar gives a float
    phi = phi_of(name)
    assert type(phi(0.5)) is float and type(phi(np.float64(0.5))) is float
    with pytest.raises(TypeError):
        phi(np.full((2, 2), 0.5))


def windows(name):
    """The support, a window inside it, one reaching past it and one of
    subnormal width, whose grids are evaluated whole at some levels."""
    support = resolve_cdf(name).support
    lo, hi = support.lower[0], support.upper[0]
    width = hi - lo
    return [(lo, hi), (lo + 0.125 * width, hi - 0.3 * width),
            (lo - 0.5 * width, hi + 0.25 * width), (lo, lo + 1e-310)]


@pytest.mark.parametrize("name", NAMES)
def test_oracle_equals_the_per_element_route(name):
    phi = phi_of(name)
    for window in windows(name):
        for f in (math.sin, np.cos):
            got = riemann_stieltjes_oracle(f, phi, window, 12)
            want = riemann_stieltjes_oracle(f, scalar_route(phi), window, 12)
            assert bits(got) == bits(want)


@pytest.mark.parametrize("name", NAMES)
def test_variation_equals_the_per_element_route(name):
    phi = phi_of(name)
    for window in windows(name):
        for tol, max_depth in ((1e-9, 22), (1e-300, 9)):
            got = outcome(lambda: variation(phi, window, tol, max_depth))
            want = outcome(lambda: variation(scalar_route(phi), window, tol, max_depth))
            assert got == want


class Counted:
    """A phi that records the size of each call's argument."""

    def __init__(self, phi):
        self.phi = phi
        self.sizes = []

    def __call__(self, t):
        self.sizes.append(np.size(t))
        return self.phi(t)


@pytest.mark.parametrize("name", NAMES)
def test_phi_is_called_once_per_level(name):
    # the oracle calls phi once, on its finest grid; variation on its first
    # grid whole, then on the new odd points of each finer grid
    window = windows(name)[0]
    phi = Counted(phi_of(name))
    riemann_stieltjes_oracle(np.sin, phi, window, 12)
    assert phi.sizes == [2**12 + 1]
    phi = Counted(phi_of(name))
    variation(phi, window)
    assert len(phi.sizes) >= 3
    assert phi.sizes == [5] + [2 ** (depth - 1) for depth in range(3, len(phi.sizes) + 2)]


def test_uniform_scalar_clamp_keeps_the_bits_of_the_array_clamp():
    # a scalar is clamped by min and max, an array still by np.clip; both
    # give the bits np.clip gives the scalar as a 0-d array
    value = resolve_cdf("uniform").value
    scalars = EDGES + (math.nan, -math.nan, 2.0**-1074 * 3, -(2.0**-1030), 2.0**-1022,
                       math.nextafter(0.0, -1.0), -0.5, math.nextafter(1.0, 2.0), 1.5,
                       np.float64(-0.0), np.float64(math.nan), 7, -3, Fraction(1, 3))
    for t in scalars:
        got = value(t)
        assert type(got) is float
        assert bits(got) == bits(float(np.clip(np.asarray(t, dtype=float), 0.0, 1.0))), t
    x = np.array([float(t) for t in scalars])
    assert bits(value(x)) == bits(np.clip(x, 0.0, 1.0))
    assert bits(value(x)) == bits([value(t) for t in x.tolist()])
