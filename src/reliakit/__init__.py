"""Surrogate-assisted structural reliability analysis.

Estimate small failure probabilities P[g(X) <= 0] with sampling methods
(crude Monte Carlo, importance sampling), gradient methods (mean-value
index, design-point search), and surrogate methods (quadratic response
surfaces, polynomial chaos expansions, adaptively enriched Gaussian-process
models, and surrogate-shaped importance sampling with an exact correction
factor).
"""

from .errors import (
    ConditioningError,
    DomainError,
    EstimatorError,
    FitError,
    IterationError,
    MarginCollapsed,
    ModelError,
    SamplerError,
)
from .estimators import (
    InstrumentalDensity,
    ReliabilityResult,
    cornell_index,
    estimate_is,
    estimate_mc,
    form,
    mc_cov,
)
from .kriging import (
    AdaptiveResult,
    CorrelationKernel,
    KrigingModel,
    adaptive_margin_design,
    ak_mcs,
    classification_probability,
    enrich_margin,
    initial_design,
    kernel_cross,
    kernel_matrix,
    krig_build,
    krig_fit,
    krig_pf_bounds,
    krig_predict_batch,
    margin_probability,
    u_function,
)
from .limitstate import (
    EvalLedger,
    ExperimentalDesign,
    LimitState,
    benchmark_linear,
    benchmark_waarts,
    evaluate_batch,
    limit_state_from_expression,
)
from .mcmc import pcn_sample
from .metais import (
    MetaIsResult,
    estimate_alpha_corr,
    estimate_pf_epsilon,
    instrumental_density,
    metais_estimate,
    sample_instrumental,
)
from .pce import (
    PceBasis,
    PceModel,
    PolynomialFamily,
    basis_for,
    basis_to_physical,
    gauss_rule,
    orthonormal_table,
    pce_adaptive,
    pce_fit_projection,
    pce_fit_regression,
    pce_loo_error,
    pce_moments,
    pce_pf,
    physical_to_basis,
    truncation_set,
)
from .probmodel import Marginal, RandomVector, make_rng, standard_normal_vector
from .response_surface import QuadraticSurface, qrs_basis, qrs_fit, qrs_n_coeffs

__version__ = "0.1.0"
