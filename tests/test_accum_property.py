"""Property tests of the exact sums in ``asymptolim.accum`` (need hypothesis)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from asymptolim.accum import _EXTRACT_MIN, exact_units, round_units  # noqa: E402
from test_accum import _same_as_fsum  # noqa: E402

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


class TestExactUnits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, max_size=20))
    def test_running_total_rounds_as_fsum(self, values):
        try:
            expected = math.fsum(values)
        except OverflowError:
            return
        assert round_units(sum(exact_units(v) for v in values)) == expected
