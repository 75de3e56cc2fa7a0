"""Importance sampling driven by a probabilistic surrogate.

Instead of substituting the surrogate for the true model, the surrogate's
classification probability pi(x) = P[response at x <= 0] shapes an
instrumental density proportional to pi(x) f_X(x).  The failure
probability splits exactly into two factors:

    pf = alpha_corr x pf_epsilon

where pf_epsilon = E[pi(X)] costs only a surrogate sweep, drawn and summed
as crude Monte Carlo is, and alpha_corr averages 1{g <= 0} / pi over draws
of the instrumental density, which is where the few true-model calls go.  The product is unbiased conditional on
the surrogate, however coarse the surrogate is; the surrogate quality only
controls the variance.

Since 0 <= pi <= 1, the instrumental density is sampled exactly by
rejection: inputs drawn from f_X are kept with probability pi, so the
correction draws are i.i.d. and the coefficient of variation of
alpha_corr is exact.  Past 3,000 proposals per draw and input dimension
(in 2-D, below a pf_epsilon of about 1.7e-4), lock-step chains supply the
rest.  Chains started at draws already accepted stay unbiased, but their
draws are correlated, so the reported coefficient of variation is then
optimistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .errors import EstimatorError
from .estimators import _beta, _clean, _mean_cov, _sweep
from .kriging import (
    KrigingModel,
    _sample_weighted,
    adaptive_margin_design,
    classification_probability,
    krig_predict_batch,
)
from .limitstate import EvalLedger, LimitState, evaluate_batch
from .probmodel import RandomVector, make_rng

__all__ = [
    "MetaIsResult",
    "estimate_pf_epsilon",
    "sample_instrumental",
    "estimate_alpha_corr",
    "metais_estimate",
]


@dataclass
class MetaIsResult:
    """Two-factor estimate with its cost split.

    ``pf`` is stored as the exact product alpha_corr * pf_epsilon.  The
    combined coefficient of variation assumes the two factors are
    independent, which holds because they are estimated from disjoint
    random streams.
    """

    pf: float
    pf_epsilon: float
    alpha_corr: float
    cov_epsilon: float
    cov_alpha: float
    cov_total: float
    n_model_calls_doe: int
    n_model_calls_corr: int
    converged: bool
    extras: dict = field(default_factory=dict)

    @property
    def beta(self) -> float:
        return _beta(self.pf)

    def to_dict(self) -> dict:
        return _clean(
            {
                "method": "metais",
                "pf": float(self.pf),
                "beta": self.beta,
                "pf_epsilon": float(self.pf_epsilon),
                "alpha_corr": float(self.alpha_corr),
                "cov_epsilon": float(self.cov_epsilon),
                "cov_alpha": float(self.cov_alpha),
                "cov": float(self.cov_total),
                "n_calls_doe": int(self.n_model_calls_doe),
                "n_calls_corr": int(self.n_model_calls_corr),
                "n_calls": int(self.n_model_calls_doe + self.n_model_calls_corr),
                "converged": bool(self.converged),
                "extras": self.extras,
            }
        )


@one_blas_thread
def estimate_pf_epsilon(
    model: KrigingModel,
    rv: RandomVector,
    n_eps: int = 100_000,
    seed=None,
) -> tuple[float, float]:
    """Average classification probability over the input distribution.

    Surrogate-only Monte Carlo: zero true-model calls.  Returns the
    estimate and its coefficient of variation.
    """
    pi = lambda xs: classification_probability(*krig_predict_batch(model, xs))
    (mean,), (cov,) = _sweep(rv, pi, n_eps, seed)
    return mean, cov


@one_blas_thread
def sample_instrumental(model: KrigingModel, rv: RandomVector, n: int, seed=None):
    """Draw n points from the instrumental density pi(x) f_X(x), with the sampler's record.

    Inputs are drawn from f_X in batches and kept with probability pi, so
    the draws are i.i.d.; the expected number of proposals is
    n / pf_epsilon.  Once more than 3,000 proposals per accepted draw and
    input dimension have been spent, lock-step chains in standard normal
    coordinates, started at the accepted draws (at the design or probe
    point with the largest pi when there is none), supply the draws still
    missing.  :class:`SamplerError` is raised when no design or probe point
    has pi >= 1e-12, ``ValueError`` when n < 1.  Draws are deterministic
    per seed.  The record names the ``sampler`` used ("rejection" or "chain")
    with its ``n_proposals`` and ``acceptance``, plus ``n_chains``,
    ``n_steps`` and ``move_rate`` for "chain".
    """
    return _sample_weighted(model, rv, classification_probability, n, make_rng(seed))


@one_blas_thread
def estimate_alpha_corr(
    ls: LimitState,
    model: KrigingModel,
    samples_from_h,
    ledger: EvalLedger | None = None,
) -> tuple[float, float]:
    """Correction factor: average of 1{g <= 0} / pi over instrumental draws.

    This is the only place the true model is called; the ledger increments
    by exactly the number of samples.  A failing sample where pi has
    underflowed to zero makes the weight undefined and raises
    :class:`EstimatorError` (the sampler's support guarantee should
    preclude it).
    """
    xs = np.atleast_2d(np.asarray(samples_from_h, dtype=float))
    g = evaluate_batch(ls, xs, ledger=ledger)
    pi = classification_probability(*krig_predict_batch(model, xs))
    fail = g <= 0.0
    if np.any(fail & (pi <= 0.0)):
        raise EstimatorError(
            "a failing correction sample has zero classification "
            "probability; cannot weight it"
        )
    w = np.zeros(xs.shape[0])
    w[fail] = 1.0 / pi[fail]
    return _mean_cov(w)


@one_blas_thread
def metais_estimate(
    ls: LimitState,
    rv: RandomVector,
    n_epsilon: int = 100_000,
    n_corr: int = 200,
    k: float = 1.96,
    n_clusters: int = 4,
    tol: float = 0.10,
    budget: int = 100,
    n_bounds: int = 50_000,
    n_chain: int = 250,
    trend: str = "constant",
    model: KrigingModel | None = None,
    seed=None,
    ledger: EvalLedger | None = None,
) -> MetaIsResult:
    """Full pipeline: build or accept a surrogate, then the two-factor estimate.

    With ``model=None`` a surrogate is trained by margin-sampling
    enrichment until its failure-probability band is tighter than ``tol``
    (or the DoE budget runs out).  A supplied ``model`` is used as-is,
    which preserves unbiasedness: the surrogate only shapes the
    instrumental density, it never replaces the true model.  ``n_bounds``
    sizes the enrichment's one input pool, ``n_chain`` caps the margin draws
    clustered per step (see :func:`adaptive_margin_design`).  The sampler
    record of the correction draws (see :func:`sample_instrumental`) is
    returned under ``extras["sampler_stats"]``.

    The three stages (enrichment, normalization sweep, correction
    sampling) draw from independently spawned random streams, so the two
    estimated factors are independent and their squared coefficients of
    variation add.  The sweep does not reuse the enrichment's pool, whose
    rows chose the design and so are not independent of the surrogate.
    """
    rng = make_rng(seed)
    s_doe, s_eps, s_chain = rng.spawn(3)
    extras: dict = {}
    if model is None:
        doe = adaptive_margin_design(
            ls,
            rv,
            k=k,
            n_clusters=n_clusters,
            tol=tol,
            budget=budget,
            n_bounds=n_bounds,
            n_chain=n_chain,
            trend=trend,
            seed=s_doe,
            ledger=ledger,
        )
        model = doe.model
        n_doe = doe.n_calls
        converged = doe.converged
        extras["doe_stop_reason"] = doe.stop_reason
        extras["doe_trace"] = doe.trace
    else:
        n_doe = model.design.size
        converged = True
        extras["prebuilt_surrogate"] = True

    pf_eps, cov_eps = estimate_pf_epsilon(model, rv, n_eps=n_epsilon, seed=s_eps)
    if pf_eps <= 0.0:
        raise EstimatorError(
            "the surrogate assigns zero probability to failure everywhere; "
            "no instrumental density exists"
        )
    samples, stats = sample_instrumental(model, rv, n_corr, seed=s_chain)
    alpha, cov_alpha = estimate_alpha_corr(ls, model, samples, ledger=ledger)
    pf = alpha * pf_eps
    cov_total = math.sqrt(cov_alpha * cov_alpha + cov_eps * cov_eps)
    extras["sampler_stats"] = stats
    return MetaIsResult(
        pf=pf,
        pf_epsilon=pf_eps,
        alpha_corr=alpha,
        cov_epsilon=cov_eps,
        cov_alpha=cov_alpha,
        cov_total=cov_total,
        n_model_calls_doe=n_doe,
        n_model_calls_corr=samples.shape[0],
        converged=converged,
        extras=extras,
    )
