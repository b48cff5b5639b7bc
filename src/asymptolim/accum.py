"""Deterministic exact accumulation helpers.

Every reduction in this package goes through these functions so that results
do not depend on atom order or thread count.  A float64 array is reduced by
error-free extraction (``exact_partials``) to a few floats with the same exact
sum; ``math.fsum`` of those rounds once, so ``fsum_array`` returns the
correctly rounded sum, bit for bit the value of ``math.fsum``.  Chunked
reductions pass each chunk's partials on unrounded, so a sum over all chunks
is correctly rounded as well: chunk boundaries, and the thread count, cannot
change it.

The chunk loops compute in per-thread workspaces, ``CHUNK``-length arrays
held in ``threading.local``: a reducer holds one for a chunk's points and
compare mask, and the point kernels and ``exact_partials`` inside it hold a
second for their temporaries.  Each has three float64 arrays and one bool
array (3.125 MiB); pages become resident only where written, at most
3.25 MiB per thread in a solve.  They are allocated on a thread's first
chunk, so a loop allocates no ``CHUNK``-sized temporaries of its own after
that.  A stream that writes into a reducer's workspace returns an array that
lives until the same thread's next chunk; a caller that keeps it copies it.
"""

from __future__ import annotations

import contextvars
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator

import numpy as np

# Fixed chunk width for index loops; never derived from the thread count.
CHUNK = 1 << 17

# Most worker threads a chunk loop starts: results never depend on the thread
# count, and each thread keeps its own workspaces.
MAX_THREADS = 256

# Block width for anchored cumulative sums.
_CUMSUM_BLOCK = 4096

# Shortest float64 array reduced by extraction.  Below it ``math.fsum`` of the
# list is faster: they break even at 600-800 values of one sign or 1-3 decades.
_EXTRACT_MIN = 1024

# Extraction passes before the remainder is handed on as it is.  Each pass
# clears the top 53 - log2(size) bits; values of 0-3 decades need 2-3 passes.
_EXTRACT_PASSES = 8

# Every finite float is an integer multiple of 2**-1074.
_UNIT = 1 << 1074


class Workspace:
    """Scratch arrays of ``size`` values: three float64 ``f`` and a bool
    ``mask``.  The holder may view an ``f`` array as int64 or bool."""

    __slots__ = ("f", "mask")

    def __init__(self, size: int = CHUNK):
        self.f = tuple(np.empty(size) for _ in range(3))
        self.mask = np.empty(size, dtype=bool)


_local = threading.local()


@contextmanager
def workspace(size: int = CHUNK) -> Iterator[Workspace]:
    """A workspace of the calling thread, for this block's use alone.

    Each thread keeps the workspaces it has made on a free list; a block
    takes one, or makes one when every one is in use (a kernel inside a
    reducer, a callback that calls a solver), and puts it back on exit.
    More than ``CHUNK`` values get a fresh workspace that is not kept.
    """
    if size > CHUNK:
        yield Workspace(size)
        return
    free = getattr(_local, "free", None)
    if free is None:
        free = _local.free = []
    ws = free.pop() if free else Workspace()
    try:
        yield ws
    finally:
        free.append(ws)


def fsum_array(values) -> float:
    """Correctly rounded sum of a 1-D array or iterable of floats; the same
    value, or the same exception, as ``math.fsum``."""
    if isinstance(values, np.ndarray):
        return math.fsum(exact_partials(values))
    return math.fsum(values)


def exact_partials(x: np.ndarray) -> list:
    """A short list of numbers whose exact sum is the exact sum of ``x``.

    For a 1-D float64 array of at least ``_EXTRACT_MIN`` finite values this is
    ExtractVector (Rump, Ogita and Oishi, "Accurate floating-point summation
    I", SIAM J. Sci. Comput. 31, 2008).  With 2**e > max|r| and
    2**M >= len(x) + 2, sigma = 2**(e+M) splits each remainder r exactly into
    q = (sigma + r) - sigma, a multiple of 2**(e+M-53) of size <= 2**e, and
    r - q; every partial sum of the q is such a multiple below sigma, so
    ``np.sum(q)`` is exact in any order.  Numpy releases the GIL in every pass.
    Only the first pass scans for max|x|: r - q is the rounding error of
    sigma + r, at most half an ulp of sigma, 2**(e+M-53), so the next pass
    takes e = e + M - 52, and one compare with 0 tells whether a remainder is
    left (into the workspace's mask: a float ``any`` is slower than max and
    min together).

    Anything else (other dtypes or shapes, short or non-finite arrays, a sigma
    that would overflow) is returned as ``x.tolist()``, as is the remainder
    left after ``_EXTRACT_PASSES`` passes, so ``math.fsum`` of the result
    raises or returns what it does for ``x``.  The passes compute in a
    workspace of their own.
    """
    if x.dtype != np.float64 or x.ndim != 1 or x.size < _EXTRACT_MIN:
        return x.tolist()
    return _extract(x)


def _extract(x: np.ndarray) -> list:
    """``exact_partials`` of a 1-D float64 array of any length."""
    if not x.size:
        return []
    top = max(float(x.max()), -float(x.min()))
    if top == 0.0:
        # the IEEE sum of zeros is -0.0 only when every term is
        return [-0.0 if np.signbit(x).all() else 0.0]
    if not math.isfinite(top):
        return x.tolist()
    shift = (x.size + 1).bit_length()
    exponent = math.frexp(top)[1] + shift
    if exponent > 1023:
        return x.tolist()
    partials: list = []
    r = x
    with workspace(x.size) as ws:
        q, rest = (a[: x.size] for a in ws.f[:2])
        nonzero = ws.mask[: x.size]
        for _ in range(_EXTRACT_PASSES):
            sigma = math.ldexp(1.0, exponent)
            np.add(r, sigma, out=q)
            q -= sigma
            partials.append(float(q.sum()))
            r = np.subtract(r, q, out=rest)
            if not np.not_equal(r, 0.0, out=nonzero).any():
                return partials
            exponent += shift - 52
        return partials + r.tolist()


def exact_units(x: float) -> int:
    """A finite float as the exact integer ``x * 2**1074``; a running total of
    these is exact, and ``round_units`` rounds it once, as ``math.fsum``."""
    num, den = x.as_integer_ratio()
    return num * (_UNIT // den)


def round_units(units: int) -> float:
    """The float nearest ``units * 2**-1074`` (int division rounds correctly)."""
    return units / _UNIT


def chunk_ranges(lo: int, hi: int, chunk: int = CHUNK) -> Iterator[tuple[int, int]]:
    """Half-open ``[start, stop)`` ranges of fixed width covering ``[lo, hi)``,
    produced lazily so that no work scales with the range count up front."""
    return ((s, min(s + chunk, hi)) for s in range(lo, hi, chunk))


def map_reduce_fsum(
    kernel: Callable[[int, int], Iterable[float]],
    lo: int,
    hi: int,
    threads: int = 1,
    divisor: int = 1,
) -> float:
    """Correctly rounded sum over the fixed chunks of ``[lo, hi)``, or with
    a ``divisor`` the correctly rounded quotient of that sum by it.

    ``kernel(start, stop)`` returns its chunk's partials: numbers whose exact
    sum is the chunk's sum, such as ``exact_partials`` of the chunk's values.
    It must not depend on shared mutable state.  All partials are summed by
    one ``math.fsum``, so the result is the correctly rounded sum of the whole
    range, bit-identical for every chunking and thread count.  A divisor
    other than 1 takes the exact sum of all partials, extracted again to a
    few, in ``exact_units`` (the partials must be finite), and one int
    division rounds the quotient.
    """
    partials = chain.from_iterable(_map_ordered(kernel, chunk_ranges(lo, hi), threads))
    if divisor == 1:
        return math.fsum(partials)
    units = sum(map(exact_units, _extract(np.fromiter(partials, dtype=float))))
    return units / (divisor * _UNIT)


def map_reduce_int(
    kernel: Callable[[int, int], int], lo: int, hi: int, threads: int = 1, chunk: int = CHUNK
) -> int:
    """Exact integer sum of ``kernel(start, stop)`` over fixed chunks of
    ``chunk`` indices.

    A kernel may also return an int64 array (a tally); the arrays are then
    summed elementwise.
    """
    return sum(_map_ordered(kernel, chunk_ranges(lo, hi, chunk), threads))


def _map_ordered(
    kernel: Callable[[int, int], object], ranges: Iterable[tuple[int, int]], threads: int
) -> Iterator:
    """Yield ``kernel(start, stop)`` for each range, in range order.

    A pool is started only for more than one range; at most ``2 * threads``
    chunks are in flight, so memory does not grow with the range count.
    Each runs in a copy of the caller's context, its ``np.errstate`` too.
    More than ``MAX_THREADS`` threads raise ValueError before any range runs.
    """
    if threads > MAX_THREADS:
        raise ValueError(f"threads must be <= {MAX_THREADS}, got {threads}")
    ranges = iter(ranges)
    head = list(islice(ranges, 2))
    if threads <= 1 or len(head) <= 1:
        yield from (kernel(start, stop) for start, stop in chain(head, ranges))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for start, stop in chain(head, ranges):
            pending.append(pool.submit(contextvars.copy_context().run, kernel, start, stop))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def anchored_cumsum(w: np.ndarray) -> np.ndarray:
    """Cumulative sums with per-block fsum anchoring.

    Plain ``np.cumsum`` drifts linearly with the array length; re-anchoring
    every block on the correctly rounded sum of the rounded block sums before
    it keeps the absolute error of each entry near one ulp of the running
    total, which the CDF invariants (1e-12 at up to 1e6 atoms) require.
    The weights must be finite.
    """
    w = np.asarray(w, dtype=float)
    out = np.empty(w.size)
    units = 0
    base = 0.0
    for start in range(0, w.size, _CUMSUM_BLOCK):
        seg = w[start : start + _CUMSUM_BLOCK]
        out[start : start + _CUMSUM_BLOCK] = base + np.cumsum(seg)
        units += exact_units(fsum_array(seg))
        base = round_units(units)
    return out


def is_vector(x) -> bool:
    """Whether ``x`` is a 1-D float64 array: the argument on which a callback
    that takes arrays is first called by ``apply_to_array``."""
    return isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64


def map_math(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """``fn(v, *args)`` of each value v of the 1-D float64 array ``x``, in a
    new array: a ``math`` function, where numpy's own differs from it in the
    last bit.  ``CHUNK`` values pass through Python floats at a time, so no
    list of all of ``x`` exists."""
    out = np.empty(x.size)
    for lo in range(0, x.size, CHUNK):
        part = x[lo : lo + CHUNK].tolist()
        out[lo : lo + len(part)] = np.fromiter(map(fn, part, *map(repeat, args)), float, len(part))
    return out


def apply_to_array(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a callback on a 1-D array, vectorized when supported.

    ``f`` is first called once on the whole array.  If it rejects arrays
    (e.g. ``math.sin``, anything branching on its argument or calling a float
    method) or returns another shape, it is called once per element, on the
    Python floats of ``x.tolist()``; there a vector-valued callback gives one
    row per element.  The named limit CDFs take arrays (``is_vector``) and
    give each element the bits of their scalar call, so a grid costs them
    one call; the per-element route is the oracle of that.
    """
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError, AttributeError):
        pass
    return np.asarray(list(map(f, x.tolist())), dtype=float)
