"""Property tests of the exact sums in ``asymptolim.accum`` (need hypothesis)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from asymptolim.accum import (  # noqa: E402
    _EXTRACT_MIN,
    _EXTRACT_PASSES,
    exact_partials,
    exact_units,
    round_units,
)
from test_accum import _outcome, _same_as_fsum  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestFsumArrayProperty:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(0, 2 * _EXTRACT_MIN), elements=finite))
    def test_matches_fsum(self, x):
        _same_as_fsum(x)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(finite, min_size=1, max_size=12),
        st.integers(_EXTRACT_MIN - 2, 4 * _EXTRACT_MIN),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_fsum_on_cancelling_draws(self, pool, size, seed):
        # few distinct values, each also drawn negated: heavy cancellation
        rng = np.random.default_rng(seed)
        values = np.array(pool + [-v for v in pool])
        _same_as_fsum(values[rng.integers(0, values.size, size)])


@st.composite
def binade_windows(draw):
    """Random 53-bit mantissas scaled into a drawn window of binades, from
    subnormal to overflowing, so that most arrays take the extraction route."""
    size = draw(st.integers(_EXTRACT_MIN - 2, 3 * _EXTRACT_MIN))
    low = draw(st.integers(-1130, 1000))
    spread = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissas = rng.integers(-(2**53), 2**53, size).astype(np.float64)
    with np.errstate(over="ignore"):
        return np.ldexp(mantissas, rng.integers(low, low + spread + 1, size))


class TestFsumArrayWindows:
    @settings(max_examples=300, deadline=None)
    @given(binade_windows())
    def test_matches_fsum(self, x):
        _same_as_fsum(x)


# pools of values that the extraction passes meet at their edges
_POOLS = {
    "zeros": lambda rng, k: np.where(rng.random(k) < 0.5, 0.0, -0.0),
    "subnormal": lambda rng, k: rng.integers(-(2**52), 2**52, k) * 5e-324,
    "tiny": lambda rng, k: np.ldexp(rng.standard_normal(k), rng.integers(-1074, -960, k)),
    "unit": lambda rng, k: rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, k),
    "huge": lambda rng, k: np.ldexp(rng.standard_normal(k), rng.integers(900, 1023, k)),
    "max": lambda rng, k: rng.choice([1.7976931348623157e308, -1.7976931348623157e308, 8.9e307], k),
}


@st.composite
def pooled_arrays(draw):
    """Arrays mixing signs and binades from a few drawn pools, each value
    sometimes negated, as long as the extraction route takes them."""
    names = draw(st.lists(st.sampled_from(sorted(_POOLS)), min_size=1, max_size=4))
    size = draw(st.integers(_EXTRACT_MIN, 3 * _EXTRACT_MIN))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [_POOLS[name](rng, size) for name in names]
    x = np.concatenate(parts)[rng.permutation(size * len(names))[:size]]
    if draw(st.booleans()):
        x = np.concatenate([x, -x[: size // 2]])
    return x.astype(np.float64)


class TestExactPartialsProperty:
    @settings(max_examples=300, deadline=None)
    @given(pooled_arrays())
    def test_exact_sum_and_fsum(self, x):
        parts = exact_partials(x)
        want = _outcome(lambda v: math.fsum(v.tolist()), x)
        assert _outcome(lambda v: math.fsum(parts), x) == want
        if all(map(math.isfinite, parts)):
            assert sum(map(exact_units, parts)) == sum(map(exact_units, x.tolist()))
        # a few partials, or the values handed on after the pass cap
        assert len(parts) <= _EXTRACT_PASSES or len(parts) >= x.size

    def test_pass_cap_hands_on_the_remainder(self):
        # 60 binades 30 apart need more passes than the cap allows
        x = np.ldexp(1.0, 30 * (np.arange(3000) % 60) - 900)
        x[::7] *= -1.0
        parts = exact_partials(x)
        assert len(parts) == _EXTRACT_PASSES + x.size
        assert sum(map(exact_units, parts)) == sum(map(exact_units, x.tolist()))


class TestExactUnits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, max_size=20))
    def test_running_total_rounds_as_fsum(self, values):
        try:
            expected = math.fsum(values)
        except OverflowError:
            return
        assert round_units(sum(exact_units(v) for v in values)) == expected
