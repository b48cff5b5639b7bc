"""Empirical measures, Stieltjes integration, convergence-in-distribution
diagnostics and closed-form solvers for asymptotic limit problems."""

__version__ = "0.1.0"

from .measure import (
    AtomicMeasure,
    HyperBox,
    cdf_eval,
    expectation,
    from_points,
    measure_box,
    pushforward,
)
from .stieltjes import (
    Partition1D,
    QuadratureError,
    QuadratureResult,
    SmoothCdf,
    StepCdf,
    VariationError,
    delta_box,
    integrate_by_parts,
    integrate_smooth,
    integrate_step,
    riemann_stieltjes_oracle,
    variation,
    variation_nd,
)
from .special import (
    EULER_GAMMA,
    digamma,
    frac_limit_cdf,
    frac_limit_cdf_series,
    frac_limit_density,
    harmonic,
    hurwitz_zeta,
    trigamma,
)
from .convergence import (
    Boundary,
    ConvergenceReport,
    VariationLimitReport,
    cdf_sequence_probe,
    charfn_compare,
    continuity_set_check,
    empirical_charfn,
    variation_limit_check,
)
from .problems import (
    DivergentResult,
    PolySpec,
    SolveResult,
    dirichlet_weak,
    frac_n_over_i_cdf,
    frac_n_over_i_mean,
    interval_proportion_sin,
    polynomial_family,
    sequence_average,
    sqrt_frac_cdf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
