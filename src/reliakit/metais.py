"""Importance sampling driven by a probabilistic surrogate (meta-IS).

Instead of substituting the surrogate for the true model, the surrogate's
classification probability pi(x) = P[response at x <= 0] shapes an
instrumental density proportional to pi(x) f_X(x).  The failure
probability splits exactly into two factors:

    pf = alpha_corr x pf_epsilon

where pf_epsilon = E[pi(X)] costs only a surrogate sweep, drawn and summed
as crude Monte Carlo is, and alpha_corr averages 1{g <= 0} / pi over draws
of the instrumental density, which is where the few true-model calls go.
The product is unbiased conditional on the surrogate, however coarse the
surrogate is; the surrogate quality only controls the variance.

:func:`metais_estimate` composes the stages: the kriging DoE, the
pf_epsilon sweep, the instrumental sampler and the correction batch.
Since 0 <= pi <= 1, :func:`sample_instrumental` draws the instrumental
density exactly by rejection: inputs drawn from f_X are kept with
probability pi, so the correction draws are i.i.d. and the coefficient
of variation of alpha_corr is exact.  Past 3,000 proposals per draw and
input dimension (in 2-D, below a pf_epsilon of about 1.7e-4), lock-step
chains supply the rest.  Chains started at draws already accepted stay
unbiased, but their draws are correlated, so the reported coefficient of
variation is then optimistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .errors import EstimatorError, SamplerError
from .estimators import _beta, _checked, _is_weights, _mean_cov, _result_dict, _sweep
from .kriging import (
    _BATCH,
    KrigingModel,
    adaptive_margin_design,
    classification_probability,
    krig_predict_batch,
)
from .limitstate import EvalLedger, LimitState, evaluate_batch
from .mcmc import pcn_sample
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
    random streams.  It is first order: ``cov_total = sqrt(a^2 + e^2)``,
    with a = ``cov_alpha`` and e = ``cov_epsilon``, while the exact relative
    variance of a product of independent estimates is a^2 + e^2 + a^2 e^2.
    The term left out is small while either CoV is small.
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
        return _result_dict(
            "metais",
            self.pf,
            pf_epsilon=float(self.pf_epsilon),
            alpha_corr=float(self.alpha_corr),
            cov_epsilon=float(self.cov_epsilon),
            cov_alpha=float(self.cov_alpha),
            cov=float(self.cov_total),
            n_calls_doe=int(self.n_model_calls_doe),
            n_calls_corr=int(self.n_model_calls_corr),
            n_calls=int(self.n_model_calls_doe + self.n_model_calls_corr),
            converged=bool(self.converged),
            extras=self.extras,
        )


def _pi(model: KrigingModel, xs) -> np.ndarray:
    """Classification probability pi(x) = P[response at x <= 0] at rows xs."""
    return classification_probability(*krig_predict_batch(model, xs))


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
    (mean,), (cov,) = _sweep(rv, lambda xs: _pi(model, xs), n_eps, seed)
    return mean, cov


# Past this many proposals per accepted draw and per input dimension,
# rejection gives way to chains.  A chain draw (40 lock-step steps) costs
# 2,200-3,300 proposals per dimension for one chain in 2-D and 540-620 in
# 6-D, 230-350 and 62-69 for ten chains (CPU time, one BLAS thread, exact
# linear surrogates at beta = 4.5 on 12- and 18-point designs).  Rejection
# keeps the draws i.i.d., so their CoV is honest, and is kept longer.
_PROPOSALS_PER_DRAW_PER_DIM = 3_000


@one_blas_thread
def sample_instrumental(model: KrigingModel, rv: RandomVector, n: int, seed=None):
    """Draw n points from the instrumental density pi(x) f_X(x), with the sampler's record.

    First the design and 512 input draws (the probe) are weighed by pi;
    :class:`SamplerError` is raised when none reaches 1e-12, ``ValueError``
    when n < 1.  Then inputs are drawn from f_X in batches of 20,000 and
    each is kept with probability pi, which is exact i.i.d. sampling
    because pi <= 1; the first n kept rows are returned in draw order.  The
    expected number of proposals is n / pf_epsilon.

    Once more than 3,000 · d proposals per kept row have been spent (d the
    input dimension; a pf_epsilon below about 1.7e-4 in 2-D), the rows kept
    so far stay and the missing ones come from lock-step chains in standard
    normal coordinates (:func:`~reliakit.mcmc.pcn_sample`), one started at
    each of the first min(kept, missing) kept rows in draw order.  Those
    draws are exact in distribution but correlated.  When no row was kept,
    a single chain with burn-in starts at the design or probe point with
    the largest pi (the design winning ties); it may stay in one mode of a
    multimodal target.

    Draws are deterministic per seed.  The record names the ``sampler``
    used ("rejection" or "chain") with the ``n_proposals`` and
    ``acceptance`` of the rejection stage, plus ``n_chains``, ``n_steps``
    and ``move_rate`` for "chain".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    pts = model.design.points
    w_d = _pi(model, pts)
    probe = rv.sample(512, scheme="monte_carlo", seed=rng)
    w_p = _pi(model, probe)
    best_d, best_p = float(np.max(w_d)), float(np.max(w_p))
    if max(best_d, best_p) < 1e-12:
        raise SamplerError(
            "no design or probe point carries appreciable weight; "
            "the target density has no reachable support"
        )

    kept: list[np.ndarray] = []
    accepted = drawn = 0
    limit = _PROPOSALS_PER_DRAW_PER_DIM * rv.dimension
    while accepted < n and drawn <= limit * max(accepted, 1):
        xs = rv.sample(_BATCH, scheme="monte_carlo", seed=rng)
        hit = xs[rng.random(_BATCH) < _pi(model, xs)]
        kept.append(hit)
        accepted += hit.shape[0]
        drawn += _BATCH
    record = {"n_proposals": drawn, "acceptance": accepted / drawn}
    if accepted >= n:
        return np.concatenate(kept)[:n], {"sampler": "rejection", **record}

    missing = n - accepted
    if accepted:
        # A chain started at an exact draw stays exactly distributed, so it
        # needs no burn-in and its draws are unbiased, though correlated.
        starts, burn = np.concatenate(kept)[:missing], 0.0
    else:
        best = pts[int(np.argmax(w_d))] if best_d >= best_p else probe[int(np.argmax(w_p))]
        starts, burn = best[None, :], 0.2
    w_standard = lambda u: _pi(model, rv.from_standard(u))
    us, chains = pcn_sample(w_standard, rv.to_standard(starts), missing, rng, burn)
    kept.append(rv.from_standard(us))
    return np.concatenate(kept), {"sampler": "chain", **record, **chains}


@one_blas_thread
def estimate_alpha_corr(
    ls: LimitState,
    model: KrigingModel,
    samples_from_h,
    ledger: EvalLedger | None = None,
) -> tuple[float, float]:
    """Correction factor: average of 1{g <= 0} / pi over instrumental draws.

    This is the only place the true model is called; the ledger increments
    by exactly the number of samples.  The weights are those of importance
    sampling with f = 1 and h = pi, so a failing sample where pi has
    underflowed to zero raises :class:`EstimatorError` (the sampler's
    support guarantee should preclude it).
    """
    xs = np.atleast_2d(np.asarray(samples_from_h, dtype=float))
    g = evaluate_batch(ls, xs, ledger=ledger)
    return _mean_cov(_is_weights(g, 1.0, _pi(model, xs)))


@one_blas_thread
def metais_estimate(
    ls: LimitState,
    rv: RandomVector,
    n_epsilon: int = 100_000,
    n_corr: int = 200,
    model: KrigingModel | None = None,
    seed=None,
    ledger: EvalLedger | None = None,
    **options,
) -> MetaIsResult:
    """Full pipeline: build or accept a surrogate, then the two-factor estimate.

    With ``model=None`` the surrogate is trained by
    :func:`adaptive_margin_design`, which takes the DoE ``options`` and
    their defaults; with a ``model`` they raise ``TypeError`` before any
    model call.  A supplied ``model`` is used as-is, which preserves
    unbiasedness: the surrogate only shapes the instrumental density, it
    never replaces the true model.  The sampler record of the correction
    draws (see :func:`sample_instrumental`) is in ``extras["sampler_stats"]``.

    The three stages (enrichment, normalization sweep, correction
    sampling) draw from independently spawned random streams, so the two
    estimated factors are independent and their squared coefficients of
    variation add, to first order (see :class:`MetaIsResult`).  The sweep
    does not reuse the enrichment's pool, whose rows chose the design and
    so are not independent of the surrogate.
    """
    n_epsilon, n_corr = _checked(n_epsilon=n_epsilon, n_corr=n_corr).values()
    if model is not None and options:
        raise TypeError(f"DoE options {sorted(options)} have no effect with a prebuilt model")
    rng = make_rng(seed)
    s_doe, s_eps, s_chain = rng.spawn(3)
    extras: dict = {}
    if model is None:
        doe = adaptive_margin_design(ls, rv, seed=s_doe, ledger=ledger, **options)
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
