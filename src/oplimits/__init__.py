"""Positive lattice operators, their iterates, and their diffusion limits.

Three layers:

* single operator applications with explicit truncation budgets
  (:mod:`oplimits.operators`) over weighted function spaces
  (:mod:`oplimits.funcspace`);
* operator iterates, computed exactly through truncated transition kernels
  and stochastically through lattice Markov chains
  (:mod:`oplimits.iterates`), with the limiting degenerate generator and
  quantitative residuals (:mod:`oplimits.generator`);
* the limit diffusions with exact and Euler sampling
  (:mod:`oplimits.diffusion`), tied together by reproducible experiments
  and report emission (:mod:`oplimits.harness`, :mod:`oplimits.cli`).
"""

from .funcspace import (
    CATALOG,
    Grid,
    TestFunction,
    make_geometric_grid,
    weight_eval,
)
from .operators import (
    DEFAULT_POLICY,
    SeriesValue,
    TruncationPolicy,
    baskakov_apply,
    bernstein_apply,
    sm_apply,
    sm_apply_grid,
    sm_exponential_closed_form,
    sm_moment,
    truncation_index,
)
from .iterates import (
    LatticeFunction,
    TransitionKernel,
    bernstein_kernel,
    build_sm_kernel,
    chain_terminal_values,
    kelisky_rivlin_reference,
    kernel_iterate,
    lattice_cutoff,
)
from .generator import (
    fit_rate,
    generator_apply,
    m_alpha,
    semigroup_rate_bound,
    voronovskaya_bound,
    voronovskaya_residual,
)
from .diffusion import (
    EulerConfig,
    ScaledMoments,
    chain_scaling_moments,
    feller_euler_terminal,
    feller_exact_terminal,
    feller_semigroup_closed_form,
    semigroup_mc,
    wf_euler_terminal,
)
from .mc import MonteCarloEstimate, ks_distance
from .errors import (
    ConfigError,
    CutoffTooSmallError,
    EvaluationError,
    TruncationFailureError,
    UnsupportedMethodError,
)

__version__ = "0.1.0"
