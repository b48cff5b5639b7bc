"""Convergence-in-distribution diagnostics.

Probes the point sets of a problem against a limit CDF on a grid, compares
characteristic functions, applies the countable-boundary continuity-set
criterion, and checks that variations converge to the variation of the
limit.  The probe counts through the problem's ``counts`` (see
``problems.Problem``), which settles exactly, by the problem's ``band`` and
``settle`` rule, every point that rounding could have moved across a grid
value.  A problem is counted by its count rule, or by streaming its n points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .accum import fsum_array
from .measure import AtomicMeasure
from .stieltjes import Partition1D, SmoothCdf, variation

__all__ = [
    "ConvergenceReport",
    "Boundary",
    "VariationLimitReport",
    "DEFAULT_GRID",
    "cdf_sequence_probe",
    "empirical_charfn",
    "charfn_compare",
    "continuity_set_check",
    "variation_limit_check",
]

# 19 points at 0.05 spacing: the default probe grid for problems on (0, 1),
# avoiding the endpoints where limit CDFs may be non-smooth.
DEFAULT_GRID = tuple(i / 20.0 for i in range(1, 20))

JUMP_STEP = 1e-7
JUMP_TOL = 1e-3
VARIATION_TOL = 1e-10


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid-wise CDF errors across an n-sweep.

    ``cdf_values[i][j]`` is the CDF of the i-th measure at grid[j];
    ``sup_errors[i]`` is the max deviation from the target over grid points
    not excluded by the jump detector; ``monotone_decay[i]`` says whether
    sup_errors[i+1] <= sup_errors[i].
    """

    grid: tuple[float, ...]
    n_list: tuple[int, ...]
    cdf_values: tuple[tuple[float, ...], ...]
    target_values: tuple[float, ...]
    sup_errors: tuple[float, ...]
    monotone_decay: tuple[bool, ...]
    excluded: tuple[int, ...] = ()

    def converged(self, abs_tol: float, decay_fraction: float = 0.8) -> bool:
        """Two-parameter verdict: the final sup error is within ``abs_tol``
        and at least ``decay_fraction`` of the consecutive steps decayed."""
        if not self.sup_errors or self.sup_errors[-1] > abs_tol:
            return False
        if not self.monotone_decay:
            return True
        return sum(self.monotone_decay) / len(self.monotone_decay) >= decay_fraction


@dataclass(frozen=True)
class Boundary:
    """Declared structure of a candidate continuity set's boundary.

    The framework cannot decide null-ness of arbitrary Borel sets, so the
    caller states what the boundary is: a finite point list, a countable
    set, or something of positive measure.
    """

    kind: str
    points: tuple[float, ...] = ()
    description: str = ""

    _KINDS = ("finite", "countable", "non_null")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"boundary kind must be one of {self._KINDS}")

    @classmethod
    def finite(cls, points: Sequence[float], description: str = "") -> "Boundary":
        return cls("finite", tuple(float(p) for p in points), description)

    @classmethod
    def countable(cls, description: str) -> "Boundary":
        return cls("countable", (), description)

    @classmethod
    def non_null(cls, description: str) -> "Boundary":
        return cls("non_null", (), description)


@dataclass(frozen=True)
class VariationLimitReport:
    var_n: tuple[float, ...]
    var_limit: float
    converged: bool


def _target_value(target) -> Callable[[float], float]:
    if isinstance(target, SmoothCdf):
        return target.value
    if callable(target):
        return target
    raise TypeError("target must be a SmoothCdf or a callable")


def _finite(value: Callable[[float], float], t: float) -> float:
    v = float(value(t))
    if not math.isfinite(v):
        raise ValueError(f"target must be finite, got {v!r} at t={t!r}")
    return v


def cdf_sequence_probe(
    problem,
    target,
    grid: Optional[Sequence[float]] = None,
    n_list: Sequence[int] = (10, 100, 1000),
    threads: int = 1,
) -> ConvergenceReport:
    """Evaluate the CDFs of a problem's point sets against the target CDF on
    a grid.

    ``problem.counts(n_list, grid, threads)`` returns, for each n and grid
    value t, how many of the n points of the n-th set are <= t, as
    ``problems.Problem`` does, in one call for the whole sweep; the n-th
    measure puts weight 1/n on each of its points.

    Grid points are expected to be continuity points of the target; as a
    guard, any point where target(x + JUMP_STEP) - target(x - JUMP_STEP)
    exceeds ``JUMP_TOL`` is recorded in ``excluded`` and left out of the sup
    errors.  Non-decaying errors are flagged, not failed.

    The CDF values are the exact counts over n, rounded once; a
    ``Problem`` counts by a count rule, or by the stream, in O(CHUNK)
    memory, and its chunking does not depend on ``threads``, so neither do
    the values.  A target value that is not finite, at a grid value or
    ``JUMP_STEP`` either side of it, raises ValueError: a NaN would pass the
    jump guard and drop out of the sup error unseen.
    """
    value = _target_value(target)
    pts = tuple(float(t) for t in (DEFAULT_GRID if grid is None else grid))
    if not pts:
        raise ValueError("grid must be nonempty")
    ns = tuple(n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    targets = tuple(_finite(value, t) for t in pts)
    excluded = tuple(
        j
        for j, t in enumerate(pts)
        if _finite(value, t + JUMP_STEP) - _finite(value, t - JUMP_STEP) > JUMP_TOL
    )
    included = [j for j in range(len(pts)) if j not in excluded]
    if not included:
        raise ValueError("every grid point sits on a target jump")

    counts = problem.counts(ns, pts, threads)
    ns = tuple(int(n) for n in ns)
    rows = []
    sups = []
    for n, count in zip(ns, counts):
        row = tuple(float(v) for v in count / n)
        rows.append(row)
        sups.append(max(abs(row[j] - targets[j]) for j in included))
    decay = tuple(bool(b <= a) for a, b in zip(sups, sups[1:]))
    return ConvergenceReport(
        grid=pts,
        n_list=ns,
        cdf_values=tuple(rows),
        target_values=targets,
        sup_errors=tuple(sups),
        monotone_decay=decay,
        excluded=excluded,
    )


def empirical_charfn(m: AtomicMeasure, t) -> complex:
    """Characteristic function of an atomic measure at frequency ``t``."""
    if m.dim == 1:
        phase = float(t) * m.points[:, 0]
    else:
        tv = np.asarray(t, dtype=float)
        if tv.shape != (m.dim,):
            raise ValueError("frequency dimension does not match the measure")
        phase = m.points @ tv
    re = fsum_array(m.weights * np.cos(phase))
    im = fsum_array(m.weights * np.sin(phase))
    return complex(re, im)


def charfn_compare(
    m: AtomicMeasure, target_charfn: Callable, t_list: Sequence
) -> float:
    """Max modulus gap between the empirical and target characteristic
    functions over the given frequencies.  A gap that is not finite (a NaN
    target value, or an infinite frequency) raises ValueError."""
    worst = 0.0
    for t in t_list:
        gap = abs(empirical_charfn(m, t) - complex(target_charfn(t)))
        if not math.isfinite(gap):
            raise ValueError(f"charfn gap must be finite, got {gap!r} at t={t!r}")
        worst = max(worst, gap)
    return worst


def continuity_set_check(
    target_density: Callable, boundary: Union[Boundary, Sequence[float]]
) -> bool:
    """Continuity-set criterion for a continuous target measure.

    For a measure that is absolutely continuous (witnessed by the supplied
    density callback), any set whose boundary is finite or countable is a
    continuity set.  The boundary structure is declared by the caller; a
    declared non-null boundary fails the criterion.
    """
    if not callable(target_density):
        raise TypeError("target_density must be callable")
    if not isinstance(boundary, Boundary):
        boundary = Boundary.finite(boundary)
    return boundary.kind in ("finite", "countable")


def variation_limit_check(
    cdf_sequence: Sequence[Callable],
    limit: Callable,
    probe_partition: Partition1D,
    tol: float = 1e-8,
) -> VariationLimitReport:
    """Check that the variations of a CDF sequence approach the limit's.

    Each callback's variation is estimated on the shared partition's
    intervals (summed across intervals), each to ``VARIATION_TOL``;
    ``converged`` states whether the last sequence variation is within
    ``tol`` of the limit's variation.
    """
    var_n = tuple(
        math.fsum(
            variation(phi, iv, tol=VARIATION_TOL) for iv in probe_partition
        )
        for phi in cdf_sequence
    )
    var_limit = math.fsum(
        variation(limit, iv, tol=VARIATION_TOL) for iv in probe_partition
    )
    converged = bool(var_n) and abs(var_n[-1] - var_limit) <= tol
    return VariationLimitReport(var_n=var_n, var_limit=var_limit, converged=converged)
