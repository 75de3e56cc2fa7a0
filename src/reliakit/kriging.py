"""Gaussian-process surrogates with adaptive enrichment.

The surrogate is a trend (constant or linear) plus a stationary Gaussian
process.  Fitting maximizes the profiled log-likelihood over the kernel
lengthscales; the trend coefficients and process variance then follow in
closed form.  The likelihood and the model sum every correlation from one
array per input dimension, so the model factors the very R the likelihood
scored.  Prediction (:func:`krig_predict_batch`, one row or many) returns
both a mean and a standard deviation.  The measures built on them
(:func:`u_function`, :func:`classification_probability`,
:func:`margin_probability`) take arrays of means and deviations, and that
epistemic deviation drives two enrichment strategies:

* deviation-to-mean ratio ("U"): add the candidate whose sign is most
  uncertain, the classic one-point-per-iteration scheme (AK-MCS);
* margin sampling: keep each pool point with its probability of lying
  inside the +-k sigma margin (exact draws from the margin density on the
  pool), cluster the kept points, and add one point per cluster.

Both methods run one shared loop that evaluates the initial design, then
refits the surrogate, predicts one fixed Monte Carlo pool, lets the
strategy judge the predictions and pick new points, and stops on the
strategy's criterion or the call budget, with every true-model call counted.
The pf band of the +-k sigma margin averages three indicators over the
Monte Carlo sweep that crude Monte Carlo and every surrogate pf share.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtri
from scipy.special import ndtr

from ._blas import one_blas_thread
from .errors import ConditioningError, FitError, MarginCollapsed
from .estimators import ReliabilityResult, _checked, _sweep, mc_cov
from .limitstate import EvalLedger, ExperimentalDesign, LimitState, evaluate_batch
from .probmodel import RandomVector, _latin_hypercube, make_rng

__all__ = [
    "CorrelationKernel",
    "kernel_matrix",
    "kernel_cross",
    "KrigingModel",
    "krig_build",
    "krig_fit",
    "krig_predict_batch",
    "u_function",
    "classification_probability",
    "margin_probability",
    "enrich_margin",
    "krig_pf_bounds",
    "initial_design",
    "AdaptiveResult",
    "ak_mcs",
    "ak_estimate",
    "adaptive_margin_design",
]

_NUGGET_START = 1e-10
_NUGGET_MAX = 1e-6


@dataclass(frozen=True)
class CorrelationKernel:
    """Stationary correlation exp(-sum_k (|h_k| / theta_k)^power).

    ``power`` may be any value in (0, 2]; the default 2 is the squared
    exponential.  R(0) = 1 and R(h) = R(-h) by construction.
    """

    theta: tuple[float, ...]
    power: float = 2.0

    def __post_init__(self):
        th = tuple(float(t) for t in np.atleast_1d(np.asarray(self.theta, dtype=float)))
        if any(t <= 0.0 for t in th):
            raise ValueError("lengthscales must be positive")
        object.__setattr__(self, "theta", th)
        q = float(self.power)
        if not 0.0 < q <= 2.0:
            raise ValueError("kernel power must lie in (0, 2]")
        object.__setattr__(self, "power", q)

    @property
    def dimension(self) -> int:
        return len(self.theta)


def _scaled_powers(kernel: CorrelationKernel, a: np.ndarray, b: np.ndarray):
    """Yield (|a_k - b_k| / theta_k)^power for rows a (n, M), b (m, M): one (n, m) array per k."""
    bt = np.ascontiguousarray(b.T)  # contiguous columns of b
    for k, t in enumerate(kernel.theta):
        h = np.subtract.outer(a[:, k], bt[k])
        h /= t
        if kernel.power == 2.0:
            np.multiply(h, h, out=h)
        else:
            np.abs(h, out=h)
            h **= kernel.power
        yield h


def _exp_neg_sum(terms) -> np.ndarray:
    """exp(-sum of terms), added in order into the first term and taken in place."""
    terms = iter(terms)
    acc = next(terms)
    for h in terms:
        acc += h
    return np.exp(np.negative(acc, out=acc), out=acc)


def kernel_cross(kernel: CorrelationKernel, a, b) -> np.ndarray:
    """Correlation matrix between the rows of a (n, M) and b (m, M), summed in dimension order."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return _exp_neg_sum(_scaled_powers(kernel, a, b))


def kernel_matrix(kernel: CorrelationKernel, points, nugget: float = 0.0) -> np.ndarray:
    """Correlation matrix of a point set, with ``nugget`` on the diagonal."""
    r = kernel_cross(kernel, points, points)
    if nugget:
        r[np.diag_indices_from(r)] += nugget
    return r


def _trend_matrix(trend: str, points: np.ndarray) -> np.ndarray:
    if trend == "constant":
        return np.ones((points.shape[0], 1))
    if trend == "linear":
        return np.hstack([np.ones((points.shape[0], 1)), points])
    raise ValueError(f"unknown trend {trend!r} (use 'constant' or 'linear')")


@dataclass
class KrigingModel:
    """A fitted surrogate with its cached factorization.

    The stored pieces let a prediction run as a handful of matrix-vector
    products: ``_linv`` is the inverse lower Cholesky factor of the
    regularized correlation matrix, ``_w`` the kriging weights of the
    residual, ``_ft`` the whitened trend matrix and ``_gci`` the inverse
    Cholesky factor of its normal matrix.
    """

    # The inverses are stored on purpose: a prediction is then matrix
    # products only (triangular solves in their place ran AK-MCS on
    # four-branch, 1e5 pool, 48 calls, 1e6-row band, about 1.25x slower in
    # CPU time).  _build forms each one once from its factor, by LAPACK dtrtri.

    design: ExperimentalDesign
    trend: str
    kernel: CorrelationKernel
    sigma2: float
    a: np.ndarray
    nugget: float
    diagnostics: dict = field(default_factory=dict)
    _linv: np.ndarray = field(repr=False, default=None)
    _w: np.ndarray = field(repr=False, default=None)
    _ft: np.ndarray = field(repr=False, default=None)
    _gci: np.ndarray = field(repr=False, default=None)


def _build(design: ExperimentalDesign, trend: str, kernel: CorrelationKernel,
           r0: np.ndarray) -> KrigingModel:
    """The surrogate at fixed lengthscales from its nugget-free correlation matrix r0.

    The nugget starts at 1e-10 and escalates tenfold until the Cholesky
    factorization succeeds, capped at 1e-6.
    """
    pts, y = design.points, design.responses
    n = pts.shape[0]
    nugget = _NUGGET_START
    while True:
        try:
            L = np.linalg.cholesky(r0 + nugget * np.eye(n))
            break
        except np.linalg.LinAlgError:
            nugget *= 10.0
            if nugget > _NUGGET_MAX * 1.0001:
                raise ConditioningError(
                    "correlation matrix stayed singular up to the nugget cap; "
                    "the design is too clustered for these lengthscales"
                ) from None
    f = _trend_matrix(trend, pts)
    if n <= f.shape[1]:
        raise FitError(f"need more than {f.shape[1]} design points for trend {trend!r}")
    # dtrtri's info is nonzero only for an exactly zero diagonal, which a
    # successful Cholesky factorization rules out
    linv = dtrtri(L, lower=1)[0]
    ft = linv @ f
    yt = linv @ y
    try:
        gci = dtrtri(np.linalg.cholesky(ft.T @ ft), lower=1)[0]
    except np.linalg.LinAlgError:
        raise ConditioningError("trend basis is degenerate on this design") from None
    a = gci.T @ (gci @ (ft.T @ yt))
    resid_t = yt - ft @ a
    return KrigingModel(
        design, trend, kernel, sigma2=float(resid_t @ resid_t) / n, a=a, nugget=nugget,
        _linv=linv, _w=linv.T @ resid_t, _ft=ft, _gci=gci,
    )


def krig_build(design: ExperimentalDesign, trend: str, kernel: CorrelationKernel) -> KrigingModel:
    """Assemble the surrogate at fixed lengthscales (no optimization).

    The trend coefficients and process variance are the closed-form
    generalized-least-squares values at the given kernel.
    """
    if kernel.dimension != design.dimension:
        raise ValueError("kernel dimension does not match the design")
    return _build(design, trend, kernel, kernel_matrix(kernel, design.points))


def _profiled_objective_grad(design, trend, kernel) -> tuple[float, np.ndarray]:
    """N log sigma2(theta) + log det R(theta), the quantity the MLE minimizes,
    and its gradient in the log-lengthscales.

    With w = R^-1 (y - F a), the closed form is
    d f / d log theta_k = tr(R^-1 D_k) - w' D_k w / sigma2, where D_k is
    the elementwise product of the nugget-free R and p (|h_k| / theta_k)^p
    (the nugget does not depend on theta).  The trend and variance terms
    vanish because both are profiled out.  A failed factorization returns
    1e30 with a zero gradient.
    """
    terms = list(_scaled_powers(kernel, design.points, design.points))
    r0 = _exp_neg_sum([terms[0].copy(), *terms[1:]])
    try:
        model = _build(design, trend, kernel, r0)
    except (ConditioningError, FitError):
        return 1e30, np.zeros(kernel.dimension)
    linv, w = model._linv, model._w
    s2 = max(model.sigma2, 1e-300)
    # log det R = -2 sum log diag(Linv)
    logdet = -2.0 * float(np.sum(np.log(np.diag(linv))))
    # tr(A D_k) for all k in one einsum (a sum per term moves fitted theta at
    # roundoff), with A = R^-1 - w w' / sigma2 symmetric
    weights = (linv.T @ linv - np.outer(w, w) / s2) * r0
    grad = kernel.power * np.einsum("ij,ijk->k", weights, np.stack(terms, axis=2))
    return design.size * math.log(s2) + logdet, grad


@one_blas_thread
def krig_fit(
    design: ExperimentalDesign,
    trend: str = "constant",
    power: float = 2.0,
    theta0=None,
    n_starts: int = 5,
    seed=0,
) -> KrigingModel:
    """Fit lengthscales by maximum likelihood, then assemble the surrogate.

    The profiled objective is minimized over log-lengthscales with a
    bounded quasi-Newton method, driven by the closed-form gradient of the
    objective, from ``n_starts`` starting points (the best point of an
    isotropic prescreen, ``theta0`` when given, the design span, and
    log-uniform random draws).
    Bounds are 1e-2 to 1e2 times the per-dimension design span; an optimum
    pinned at a bound is flagged in ``diagnostics['at_bounds']``.
    """
    from scipy.optimize import minimize  # here, not at the top: it adds about 0.1 s to every import
    pts = design.points
    m = pts.shape[1]
    span = np.ptp(pts, axis=0)
    span[span <= 0.0] = 1.0
    lo = np.log(1e-2 * span)
    hi = np.log(1e2 * span)
    rng = make_rng(seed)

    def kernel_at(log_theta):
        return CorrelationKernel(tuple(np.exp(log_theta)), power)

    def objective_grad(log_theta):
        return _profiled_objective_grad(design, trend, kernel_at(log_theta))

    starts = [np.log(span)]
    if theta0 is not None:
        th0 = np.broadcast_to(np.asarray(theta0, dtype=float), (m,))
        starts.insert(0, np.log(np.clip(th0, np.exp(lo), np.exp(hi))))
    # cheap isotropic prescreen; seeds the search in the best coarse basin,
    # since the likelihood can have several basins (on a 48-point
    # four-branch design the random starts alone miss the best one)
    scales = np.linspace(0.0, 1.0, 17)
    pre = min((objective_grad(lo + s * (hi - lo))[0], s) for s in scales)
    starts.insert(0, lo + pre[1] * (hi - lo))
    while len(starts) < max(1, n_starts):
        starts.append(lo + (hi - lo) * rng.random(m))

    best = None
    for s in starts[: max(1, n_starts)]:
        res = minimize(
            objective_grad,
            s,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": 80},
        )
        if best is None or res.fun < best.fun:
            best = res
    theta = np.exp(best.x)
    kern = CorrelationKernel(tuple(theta), power)
    model = krig_build(design, trend, kern)
    # L-BFGS-B can stop ~1e-7 log units inside a pinned bound, so detection
    # needs slack; 1e-4 log units is still only 0.01% in theta
    at_bounds = bool(np.any(best.x <= lo + 1e-4) or np.any(best.x >= hi - 1e-4))
    model.diagnostics.update(
        {
            "objective": float(best.fun),
            "at_bounds": at_bounds,
            "n_starts": max(1, n_starts),
        }
    )
    return model


def _predict_arrays(model: KrigingModel, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance for a block of points (no chunking)."""
    rc = kernel_cross(model.kernel, model.design.points, xs)  # (N, n)
    f = _trend_matrix(model.trend, xs)  # (n, P)
    mu = f @ model.a + rc.T @ model._w
    t = model._linv @ rc  # (N, n)
    u = model._ft.T @ t - f.T  # (P, n)
    v = model._gci @ u
    var = model.sigma2 * (1.0 - np.einsum("ij,ij->j", t, t) + np.einsum("ij,ij->j", v, v))
    neg = var < 0.0
    if neg.any():
        worst = float(-var[neg].min())
        if worst > 1e-8 * model.sigma2:
            model.diagnostics["variance_clamp"] = max(
                worst, model.diagnostics.get("variance_clamp", 0.0)
            )
        var = np.where(neg, 0.0, var)
    return mu, var


_BATCH = 20_000


def krig_predict_batch(model: KrigingModel, xs):
    """Vectorized prediction: (means, standard deviations) per row of xs, in blocks of 20,000."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[0]
    mu = np.empty(n)
    sd = np.empty(n)
    for s in range(0, n, _BATCH):
        e = min(s + _BATCH, n)
        m_blk, v_blk = _predict_arrays(model, xs[s:e])
        mu[s:e] = m_blk
        sd[s:e] = np.sqrt(v_blk)
    return mu, sd


def _ratio(num, sd) -> np.ndarray:
    """num / sd elementwise: +-inf where only sd vanishes, NaN where both do."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / sd


def u_function(mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Sign-uncertainty ratio |mu| / sd, elementwise.

    Zero deviation means the sign is certain: the ratio is +inf, except at
    mu = 0 where the point sits exactly on the predicted boundary and the
    ratio is 0.
    """
    u = _ratio(np.abs(mu), sd)
    u[np.isnan(u)] = 0.0
    return u


def classification_probability(mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Probability that the true response lies at or below 0, elementwise.

    With zero deviation this degenerates to the exact indicator of
    mu <= 0.
    """
    z = _ratio(-mu, sd)
    return np.where(np.isnan(z), 1.0, ndtr(z))


def margin_probability(mu: np.ndarray, sd: np.ndarray, k: float) -> np.ndarray:
    """Probability that the true response lies within +-k deviations of 0.

    This is the chance a point falls in the band where the surrogate's
    sign classification is still uncertain at level k; elementwise.
    """
    if k <= 0.0:
        raise ValueError("k must be > 0")
    z = _ratio(mu, sd)
    return np.where(np.isnan(z), 1.0, ndtr(k - z) - ndtr(-k - z))


def _most_uncertain(u: np.ndarray, sd: np.ndarray) -> int:
    """Row with the smallest U; exact ties go to the larger sd, then the lowest row."""
    tied = np.flatnonzero(u == u.min())
    return int(tied[np.argmax(sd[tied])])


def enrich_margin(model: KrigingModel, draws, n_clusters: int = 4, seed=None) -> np.ndarray:
    """Cluster margin draws and return one point per cluster.

    ``draws`` (n, M) come from the margin density, proportional to the
    +-k sigma band probability times the input density (see
    :func:`adaptive_margin_design`).  k-means splits them into
    ``n_clusters`` groups, and the member closest to each centroid is
    returned (an actual draw, never an artificial centroid).

    Raises :class:`MarginCollapsed` when there is no draw, or when no draw
    is a new point; adaptive drivers treat that as convergence.
    """
    from scipy.cluster.vq import kmeans2  # here, not at the top: only the margin design clusters
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    samples = np.asarray(draws, dtype=float)
    if samples.shape[0] == 0:
        raise MarginCollapsed("no margin draw to cluster")
    rng = make_rng(seed)
    kk = min(n_clusters, samples.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kmeans2 warns on empty clusters
        centroids, labels = kmeans2(samples, kk, minit="++", seed=rng)
    # _is_new_point also turns away a sample already chosen (distance 0).
    chosen: list[np.ndarray] = []
    for c in range(kk):
        members = np.flatnonzero(labels == c)
        d2 = np.sum((samples[members] - centroids[c]) ** 2, axis=1)
        for j in members[np.argsort(d2)]:
            if _is_new_point(samples[j], model.design.points, chosen):
                chosen.append(samples[j])
                break
    # Top up from unused samples if clusters collapsed onto each other.
    if len(chosen) < kk:
        for j in rng.permutation(samples.shape[0]):
            if len(chosen) >= kk:
                break
            if _is_new_point(samples[j], model.design.points, chosen):
                chosen.append(samples[j])
    if not chosen:
        raise MarginCollapsed("no margin draw is a new point")
    return np.array(chosen)


def _is_new_point(x: np.ndarray, design_pts: np.ndarray, chosen) -> bool:
    if np.any(np.max(np.abs(design_pts - x), axis=1) < 1e-10):
        return False
    return all(np.max(np.abs(c - x)) >= 1e-10 for c in chosen)


@one_blas_thread
def krig_pf_bounds(
    model: KrigingModel,
    rv: RandomVector,
    k: float = 1.96,
    n: int = 100_000,
    seed=None,
) -> tuple[float, float, float]:
    """Failure-probability band implied by the +-k sigma margin.

    One surrogate Monte Carlo sample of size n yields the fractions with
    mu <= -k sigma, mu <= 0 and mu <= +k sigma.  Computed on the same
    draws, so the ordering lower <= central <= upper holds eventwise.
    """
    means, _ = _sweep(rv, lambda xs: _band(*krig_predict_batch(model, xs), k), n, seed)
    return tuple(means)


def _band(mu: np.ndarray, sd: np.ndarray, k: float) -> np.ndarray:
    """Indicator rows of mu <= -k sigma, mu <= 0 and mu <= +k sigma."""
    return np.array([mu <= t for t in (-k * sd, 0.0, k * sd)])


def initial_design(rv: RandomVector, n: int, seed=None) -> np.ndarray:
    """Space-filling start for surrogate training.

    A Latin hypercube over the +-5 standard-space cube mapped through the
    inverse transform: covers the relevant probability content (5
    deviations) rather than just the bulk of the input density.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = _latin_hypercube(make_rng(seed), n, rv.dimension)
    return rv.from_standard(5.0 * (2.0 * u - 1.0))


@dataclass
class AdaptiveResult:
    """Outcome of an enrichment driver."""

    model: KrigingModel
    n_calls: int
    converged: bool
    stop_reason: str
    trace: list[dict] = field(default_factory=list)


def _enrich(ls, rv, budget, trend, s_design, s_fit, ledger, pool, step, full_every):
    """The loop both adaptive methods share: refit, predict the pool, judge, add points.

    The initial design of max(12, 3M) points is evaluated, then each round
    refits the surrogate (5 starts every ``full_every`` fits, else 2 from
    the last lengthscales), predicts ``pool`` and calls ``step(model, mu,
    sd)``, which returns its trace entry, a converged stop reason or None,
    and ``pick(room)``; the loop adds the design size and the fit's
    ``at_bounds`` flag to the entry.  The loop stops on that reason, then on
    the budget, then on a :class:`MarginCollapsed` from ``pick``; otherwise
    it evaluates the points ``pick`` returns (possibly none) and goes round
    again.
    """
    n0 = max(12, 3 * rv.dimension)
    if budget < n0:
        raise ValueError(f"budget {budget} is below the initial design size {n0}")
    pts = initial_design(rv, n0, seed=s_design)
    design = ExperimentalDesign(pts, evaluate_batch(ls, pts, ledger=ledger))
    theta = None
    trace: list[dict] = []
    for fits in itertools.count():
        model = krig_fit(
            design,
            trend=trend,
            theta0=theta,
            n_starts=5 if fits % full_every == 0 else 2,
            seed=s_fit.spawn(1)[0],
        )
        theta = model.kernel.theta
        entry, stop, pick = step(model, *krig_predict_batch(model, pool))
        at_bounds = model.diagnostics["at_bounds"]
        trace.append({"n_calls": design.size, **entry, "at_bounds": at_bounds})
        if stop is None and design.size >= budget:
            stop = "budget"
        if stop is None:
            try:
                new_pts = pick(budget - design.size)
            except MarginCollapsed:
                stop = "margin_collapsed"
        if stop is not None:
            return AdaptiveResult(model, design.size, stop != "budget", stop, trace)
        if new_pts.shape[0]:
            design = design.extended(new_pts, evaluate_batch(ls, new_pts, ledger=ledger))


@one_blas_thread
def ak_mcs(
    ls: LimitState,
    rv: RandomVector,
    n_pool: int = 10_000,
    u_stop: float = 2.0,
    budget: int = 150,
    trend: str = "constant",
    seed=None,
    ledger: EvalLedger | None = None,
) -> AdaptiveResult:
    """One-point-at-a-time enrichment against a fixed Monte Carlo pool.

    Starts from a space-filling design of max(12, 3M) points, then
    repeatedly adds the pool point with the most uncertain sign until every
    pool point has |mu| >= u_stop deviations (the misclassification
    probability of the pool is then below Phi(-u_stop) pointwise) or the
    call budget is exhausted.  A picked point that coincides with a design
    point is skipped without a call, and the surrogate is refitted.
    """
    n_pool, u_stop, budget = _checked(n_pool=n_pool, u_stop=u_stop, budget=budget).values()
    rng = make_rng(seed)
    s_design, s_pool, s_fit = rng.spawn(3)
    pool = rv.sample(n_pool, scheme="monte_carlo", seed=s_pool)
    added: set[int] = set()

    def step(model, mu, sd):
        u = u_function(mu, sd)
        if added:
            u[list(added)] = math.inf
        min_u = float(np.min(u))
        entry = {"min_u": min_u, "pf_pool": float(np.count_nonzero(mu <= 0.0)) / n_pool}

        def pick(room):
            j = _most_uncertain(u, sd)
            added.add(j)
            return pool[j : j + 1] if _is_new_point(pool[j], model.design.points, []) else pool[:0]

        return entry, "u_threshold" if min_u >= u_stop else None, pick

    return _enrich(ls, rv, budget, trend, s_design, s_fit, ledger, pool, step, full_every=10)


@one_blas_thread
def ak_estimate(
    ls: LimitState,
    rv: RandomVector,
    n_bounds: int = 1_000_000,
    k: float = 1.96,
    seed=None,
    ledger: EvalLedger | None = None,
    **options,
) -> ReliabilityResult:
    """AK-MCS estimate: :func:`ak_mcs` with ``options``, then its model's pf band.

    pf is the centre of the +-k sigma band over ``n_bounds`` draws, and the CoV
    only that sweep's sampling CoV, blind to the surrogate's error.  The band
    ends, the enrichment's stop and its trace are in ``extras``.
    """
    n_bounds, k = _checked(n_bounds=n_bounds, k=k).values()
    rng = make_rng(seed)
    res = ak_mcs(ls, rv, seed=rng, ledger=ledger, **options)
    lo, mid, hi = krig_pf_bounds(res.model, rv, k=k, n=n_bounds, seed=rng)
    spread = (hi - lo) / mid if mid > 0 else None
    extras = {"pf_lower": lo, "pf_upper": hi, "spread": spread, "converged": res.converged,
              "stop_reason": res.stop_reason, "n_surrogate": n_bounds, "doe_trace": res.trace}
    cov = mc_cov(mid, n_bounds) if 0.0 < mid < 1.0 else math.inf
    return ReliabilityResult(mid, cov, res.n_calls, "ak", extras)


@one_blas_thread
def adaptive_margin_design(
    ls: LimitState,
    rv: RandomVector,
    k: float = 1.96,
    n_clusters: int = 4,
    tol: float = 0.10,
    budget: int = 100,
    n_bounds: int = 50_000,
    n_chain: int = 250,
    trend: str = "constant",
    seed=None,
    ledger: EvalLedger | None = None,
) -> AdaptiveResult:
    """Margin-sampling enrichment until the pf band is tight.

    One pool of ``n_bounds`` input draws, predicted once per refit, gives the
    pf band of the +-k sigma margin.  While its relative width exceeds
    ``tol``, each pool row is kept with its margin probability and the first
    ``n_chain`` kept rows go to :func:`enrich_margin` for ``n_clusters`` new
    points.  A pool that keeps no row (a collapsed margin) also converges.
    """
    k, n_clusters, tol, budget, n_bounds, n_chain = _checked(
        k=k, n_clusters=n_clusters, tol=tol, budget=budget, n_bounds=n_bounds, n_chain=n_chain
    ).values()
    s_design, s_fit, s_chain, s_bounds = make_rng(seed).spawn(4)
    pool = rv.sample(n_bounds, scheme="monte_carlo", seed=s_bounds)

    def step(model, mu, sd):
        lo, mid, hi = _band(mu, sd, k).mean(axis=1)
        spread = (hi - lo) / mid if mid > 0.0 else math.inf
        entry = {"pf_lower": lo, "pf_central": mid, "pf_upper": hi, "spread": spread}

        def pick(room):
            pick_rng = make_rng(s_chain.spawn(1)[0])
            kept = pool[pick_rng.random(n_bounds) < margin_probability(mu, sd, k)]
            return enrich_margin(
                model, kept[:n_chain], n_clusters=min(n_clusters, room), seed=pick_rng
            )

        return entry, "bounds_tight" if spread <= tol else None, pick

    return _enrich(ls, rv, budget, trend, s_design, s_fit, ledger, pool, step, full_every=4)
