"""Failure-probability estimators on the true limit state.

Covers the sampling estimators (crude Monte Carlo, importance sampling) and
the gradient-based approximations (mean-value first-order index, and the
first-order index at the most probable failure point found by an iterated
projection search with line search and multiple starts).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from ._blas import one_blas_thread
from .errors import ConditioningError, EstimatorError, IterationError
from .limitstate import EvalLedger, LimitState, evaluate_batch
from .probmodel import RandomVector, make_rng

__all__ = [
    "ReliabilityResult",
    "mc_cov",
    "estimate_mc",
    "InstrumentalDensity",
    "estimate_is",
    "cornell_index",
    "form",
]


def _clean(v):
    """Plain JSON data: non-finite floats become None, numpy types plain Python."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return _clean(v.item())
    if isinstance(v, dict):
        return {k: _clean(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_clean(x) for x in v]
    return v


def _beta(pf: float) -> float:
    """Generalized reliability index -PhiInv(pf), infinite when pf is 0 or 1."""
    if pf <= 0.0:
        return math.inf
    if pf >= 1.0:
        return -math.inf
    return float(-ndtri(pf))


def _result_dict(method: str, pf: float, **fields) -> dict:
    """Plain JSON form of a result: method, pf and beta, then ``fields`` in order."""
    return _clean({"method": method, "pf": float(pf), "beta": _beta(pf), **fields})


def _cov_of_mean(mean: float, second: float, n: int) -> float:
    """CoV of a sample mean from the means of the values and of their squares.

    Infinite when the mean is not positive.
    """
    if mean <= 0.0:
        return math.inf
    return math.sqrt(max(second - mean * mean, 0.0) / n) / mean


_SWEEP_BLOCK = 100_000


def _sweep(rv: RandomVector, f, n: int, seed) -> tuple[list[float], list[float]]:
    """Monte Carlo means of f over n draws of X, and the CoV of each mean.

    ``f`` maps a block of rows to one value per row, or to J rows of such
    values; the result lists one mean and one CoV per row of f.  The draws
    come in blocks of at most 100,000 rows from one generator in order, so
    a seed gives the same draws in every whole block whatever n is, and
    memory stays bounded by one block.  A partial last block differs only
    in the columns ``RandomVector.sample`` draws directly, which depend on
    its size.  Block sums are compensated across blocks.  Raises
    ``ValueError`` when n < 1.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    rng = make_rng(seed)
    sums, squares = [], []
    for done in range(0, n, _SWEEP_BLOCK):
        rows = min(_SWEEP_BLOCK, n - done)
        v = np.atleast_2d(f(rv.sample(rows, scheme="monte_carlo", seed=rng)))
        sums.append(np.sum(v, axis=1))
        squares.append(np.sum(v * v, axis=1))
    means = [math.fsum(s) / n for s in np.transpose(sums)]
    seconds = [math.fsum(s) / n for s in np.transpose(squares)]
    return means, [_cov_of_mean(m, s2, n) for m, s2 in zip(means, seconds)]


# The type and range of every estimator option, by name: (type, least, greatest).
# A tol of 0 and a u_stop of inf are allowed: the adaptive designs then stop
# on their budget alone.
_POSITIVE = (float, math.ulp(0.0), sys.float_info.max)
_OPTION_RANGES = {
    **dict.fromkeys(("n", "n_design", "n_surrogate", "n_pool", "n_bounds", "n_epsilon", "n_corr",
                     "budget", "max_iter", "n_clusters", "n_chain"), (int, 1, 10**9)),
    **dict.fromkeys(("degree", "p_max"), (int, 1, 20)),
    **dict.fromkeys(("gtol", "step", "k", "target_error"), _POSITIVE),
    "tol": (float, 0.0, sys.float_info.max),
    "u_stop": (float, math.ulp(0.0), math.inf),
    "include_cross": (bool, False, True),
}


def _checked(**options) -> dict:
    """``options``, each one named in the option table checked and cast to its type.

    Sample sizes and counts are integers in [1, 10^9], ``degree`` and
    ``p_max`` integers in [1, 20], ``tol`` finite and >= 0, ``u_stop`` > 0,
    the other tolerances, steps and margins finite and > 0, and
    ``include_cross`` a bool.  An integral float such as 40.0 counts as an
    integer (see :func:`_fits`).  Other names pass unchanged.
    Raises ``ValueError`` at the first option out of range, so an estimator
    that checks its options first makes no draw and no model call with a
    bad one.
    """
    out = dict(options)
    for name, val in options.items():
        if name not in _OPTION_RANGES:
            continue
        kind, lo, hi = _OPTION_RANGES[name]
        if not _fits(val, kind, lo, hi):
            what = {bool: "true or false", int: f">= {lo} and <= {hi}, and whole",
                    float: f"{'>' if lo else '>='} 0" + (" and finite" if hi < math.inf else "")}
            raise ValueError(f"{name} must be {what[kind]}, not {val!r}")
        out[name] = kind(val)
    return out


def _fits(val, kind: type, lo, hi) -> bool:
    """Whether ``val`` is a ``kind`` (bool, int or float) in [lo, hi].

    An integral float counts as an int; a bool never counts as a number.
    """
    if kind is bool:
        return isinstance(val, bool)
    return (isinstance(val, numbers.Real) and not isinstance(val, bool) and lo <= val <= hi
            and (kind is float or val == int(val)))


def _mean_cov(w: np.ndarray) -> tuple[float, float]:
    """Sample mean of w and the coefficient of variation of that mean.

    Compensated sums make the result independent of the order of w.
    """
    n = w.size
    mean = math.fsum(w) / n
    return mean, _cov_of_mean(mean, math.fsum(w * w) / n, n)


@dataclass
class ReliabilityResult:
    """Outcome of a reliability analysis.

    ``beta`` is the generalized index -PhiInv(pf), infinite when pf is 0 or
    1.  ``n_calls`` counts true limit-state evaluations only; surrogate
    evaluations are free by construction.
    """

    pf: float
    cov: float
    n_calls: int
    method: str
    extras: dict = field(default_factory=dict)

    @property
    def beta(self) -> float:
        return _beta(self.pf)

    def to_dict(self) -> dict:
        return _result_dict(
            self.method, self.pf, cov=float(self.cov), n_calls=int(self.n_calls), extras=self.extras
        )


def mc_cov(pf: float, n: int) -> float:
    """Coefficient of variation of the crude Monte Carlo estimator.

    sqrt((1 - pf) / (n * pf)): the cost of rare events is that the sample
    size must grow like 1/pf for a fixed relative accuracy.
    """
    if not 0.0 < pf < 1.0:
        raise ValueError("pf must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt((1.0 - pf) / (n * pf))


@one_blas_thread
def estimate_mc(
    ls: LimitState,
    rv: RandomVector,
    n: int,
    seed=None,
    ledger: EvalLedger | None = None,
) -> ReliabilityResult:
    """Crude Monte Carlo estimate pf = (# failures) / n.

    Evaluates in batches of at most 100,000 rows to bound memory.  If no
    failure is observed the estimate is 0 with infinite uncertainty, and
    the result carries ``extras['no_failures'] = True``.
    """
    n = _checked(n=n)["n"]
    (pf,), (cov,) = _sweep(rv, lambda xs: evaluate_batch(ls, xs, ledger=ledger) <= 0.0, n, seed)
    extras = {"n_failures": round(pf * n)}
    if pf == 0.0:
        extras["no_failures"] = True
    return ReliabilityResult(pf=pf, cov=cov, n_calls=n, method="mc", extras=extras)


@dataclass(frozen=True)
class InstrumentalDensity:
    """A sampling density h with known pointwise values.

    ``sampler(rng, n)`` returns an (n, M) array of draws; ``density(xs)``
    the corresponding h values.  h only ever appears in the ratio f/h, so it
    must be properly normalized.
    """

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_random_vector(cls, rv: RandomVector) -> "InstrumentalDensity":
        return cls(
            sampler=lambda rng, n: rv.sample(n, scheme="monte_carlo", seed=rng),
            density=rv.joint_pdf,
        )

    @classmethod
    def gaussian_centered(cls, center, std: float = 1.0) -> "InstrumentalDensity":
        """Isotropic normal bump centered at a chosen point."""
        c = np.asarray(center, dtype=float)
        m = c.size
        norm = (2.0 * math.pi * std * std) ** (-0.5 * m)

        def sampler(rng, n):
            return c + std * rng.standard_normal((n, m))

        def density(xs):
            xs = np.atleast_2d(xs)
            q = np.sum((xs - c) ** 2, axis=1) / (std * std)
            return norm * np.exp(-0.5 * q)

        return cls(sampler=sampler, density=density)

    @classmethod
    def linear_optimal(cls, beta0: float, direction) -> "InstrumentalDensity":
        """Standard normal conditioned on the half-space e . u >= beta0.

        This is the zero-variance instrumental density for the linear limit
        state beta0 - e . u: every weighted sample contributes exactly
        Phi(-beta0).
        """
        e = np.asarray(direction, dtype=float)
        e = e / np.linalg.norm(e)
        m = e.size
        tail = float(ndtr(-beta0))
        norm = (2.0 * math.pi) ** (-0.5 * m)

        def sampler(rng, n):
            # Inverse-CDF draw of the axial coordinate t >= beta0, then an
            # unconditioned draw in the orthogonal complement.
            v = rng.random(n) * tail
            t = -ndtri(v)
            z = rng.standard_normal((n, m))
            z_perp = z - np.outer(z @ e, e)
            return np.outer(t, e) + z_perp

        def density(xs):
            xs = np.atleast_2d(xs)
            phi = norm * np.exp(-0.5 * np.sum(xs * xs, axis=1))
            return np.where(xs @ e >= beta0, phi / tail, 0.0)

        return cls(sampler=sampler, density=density)


def _is_weights(g: np.ndarray, f, h: np.ndarray) -> np.ndarray:
    """Importance weight 1{g <= 0} f / h of each row, 0 where f = h = 0.

    Raises :class:`EstimatorError` naming the first failing row with h <= 0 < f.
    """
    fail = g <= 0.0
    bad = np.flatnonzero(fail & (h <= 0.0) & (f > 0.0))
    if bad.size:
        raise EstimatorError(
            f"failing sample {bad[0]} has zero instrumental density where f > 0; "
            "the instrumental must cover the failure domain"
        )
    return np.divide(f, h, out=np.zeros(g.shape), where=fail & (h > 0.0))


@one_blas_thread
def estimate_is(
    ls: LimitState,
    instrumental: InstrumentalDensity,
    f_density: Callable[[np.ndarray], np.ndarray],
    n: int,
    seed=None,
    ledger: EvalLedger | None = None,
) -> ReliabilityResult:
    """Importance sampling: pf = mean of 1{g <= 0} f(x) / h(x) under h.

    The weighted sum uses compensated summation, so the result does not
    depend on how the draws would be chunked.  A failing sample with zero
    instrumental density makes the estimator undefined and raises
    :class:`EstimatorError`.
    """
    n = _checked(n=n)["n"]
    rng = make_rng(seed)
    xs = instrumental.sampler(rng, n)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    g = evaluate_batch(ls, xs, ledger=ledger)
    h = np.asarray(instrumental.density(xs), dtype=float).reshape(n)
    f = np.asarray(f_density(xs), dtype=float).reshape(n)
    pf, cov = _mean_cov(_is_weights(g, f, h))
    return ReliabilityResult(
        pf=pf,
        cov=cov,
        n_calls=n,
        method="is",
        extras={"n_failures": int(np.count_nonzero(g <= 0.0))},
    )


def _central_gradient(g_rows, x: np.ndarray, h) -> np.ndarray:
    """Central-difference gradient of g at x from one batch of 2M rows.

    ``g_rows`` maps an (n, M) array to n values; ``h`` is one step or one
    step per coordinate.  The rows are x + h_i e_i, then x - h_i e_i.
    """
    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    step = np.diag(h)
    vals = g_rows(np.vstack([x + step, x - step]))
    return (vals[: x.size] - vals[x.size :]) / (2.0 * h)


@one_blas_thread
def cornell_index(
    ls: LimitState,
    rv: RandomVector,
    step: float = 1e-6,
    ledger: EvalLedger | None = None,
) -> ReliabilityResult:
    """Mean-value first-order reliability index g(mu) / sqrt(grad' C grad).

    The gradient is taken at the mean by central differences with step
    ``step * std_i`` per coordinate.  Exact for a linear g; for anything
    else it is a first-order approximation that depends on how g is written
    (it is not invariant under equivalent reformulations of g).
    """
    step = _checked(step=step)["step"]
    g_rows = partial(evaluate_batch, ls, ledger=ledger)
    mu = rv.means()
    g0 = g_rows(mu)[0]
    grad = _central_gradient(g_rows, mu, step * rv.stds())
    var = float(grad @ rv.covariance() @ grad)
    if var <= 0.0 or not math.isfinite(var):
        raise ConditioningError(
            "limit-state variance at the mean is not positive; "
            "the first-order index is undefined"
        )
    beta_c = g0 / math.sqrt(var)
    pf = float(ndtr(-beta_c))
    return ReliabilityResult(
        pf=pf,
        cov=math.nan,
        n_calls=1 + 2 * rv.dimension,
        method="fosm",
        extras={"beta_mv": beta_c, "g_mean": float(g0), "gradient": grad.tolist()},
    )


@one_blas_thread
def form(
    ls: LimitState,
    rv: RandomVector,
    tol: float = 1e-8,
    gtol: float = 1e-8,
    max_iter: int = 100,
    extra_starts: Sequence | None = None,
    ledger: EvalLedger | None = None,
) -> ReliabilityResult:
    """Most-probable-point search in standard normal space.

    Runs an iterated projection scheme with a merit-function line search
    from several starts (the origin and the unit points on each axis, plus
    any ``extra_starts`` given in standard coordinates), and keeps the
    converged point closest to the origin.  The index is the distance to
    that point, signed by whether the origin is safe; pf = Phi(-beta).
    Gradients are central differences with step 1e-4 in standard
    coordinates.

    Raises :class:`IterationError` with the best iterate attached when no
    start converges.
    """
    tol, gtol, max_iter = _checked(tol=tol, gtol=gtol, max_iter=max_iter).values()
    m = rv.dimension
    calls = 0

    def g_rows(us: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += len(us)
        return evaluate_batch(ls, rv.from_standard(us), ledger=ledger)

    def g_std(u: np.ndarray) -> float:
        return float(g_rows(u[None, :])[0])

    g_origin = g_std(np.zeros(m))
    sign = 1.0 if g_origin > 0.0 else -1.0
    g_scale = max(abs(g_origin), 1e-12)

    starts = [np.zeros(m)]
    for i in range(m):
        for sgn in (+1.0, -1.0):
            s = np.zeros(m)
            s[i] = sgn
            starts.append(s)
    if extra_starts is not None:
        starts.extend(np.asarray(s, dtype=float) for s in extra_starts)

    solutions: list[tuple[np.ndarray, np.ndarray]] = []
    last_iterate = None

    for u0 in starts:
        u = u0.astype(float).copy()
        # the first start is the origin, where g is already known
        g = g_origin if u0 is starts[0] else g_std(u)
        converged = False
        for _ in range(max_iter):
            grad = _central_gradient(g_rows, u, 1e-4)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-12:
                break  # stationary start; nothing to project along
            alpha = -grad / gnorm
            # Convergence: on the surface, and u aligned with the normal.
            misalign = float(np.linalg.norm(u - (u @ alpha) * alpha))
            if abs(g) <= gtol * g_scale and misalign <= tol * max(1.0, np.linalg.norm(u)):
                converged = True
                break
            direction = ((grad @ u - g) / gnorm**2) * grad - u
            c = 2.0 * float(np.linalg.norm(u)) / gnorm + 10.0
            merit0 = 0.5 * float(u @ u) + c * abs(g)
            lam = 1.0
            for k in range(8):  # the last step, 1/128, is taken whatever its merit
                u_new = u + lam * direction
                g_new = g_std(u_new)
                if k == 7 or 0.5 * float(u_new @ u_new) + c * abs(g_new) < merit0:
                    break
                lam *= 0.5
            u, g = u_new, g_new
            last_iterate = u.copy()
        # converged points are kept once each
        if converged and all(np.linalg.norm(u - v) > 1e-6 for v, _ in solutions):
            solutions.append((u.copy(), alpha))

    if not solutions:
        raise IterationError(
            "no start of the design-point search converged",
            last_iterate=last_iterate,
        )

    solutions.sort(key=lambda ua: float(np.linalg.norm(ua[0])))
    u_star, alpha = solutions[0]
    beta = sign * float(np.linalg.norm(u_star))
    pf = float(ndtr(-beta))
    return ReliabilityResult(
        pf=pf,
        cov=math.nan,
        n_calls=calls,
        method="form",
        extras={
            "beta_hl": beta,
            "design_point_u": u_star.tolist(),
            "design_point_x": rv.from_standard(u_star[None, :])[0].tolist(),
            "alpha": alpha.tolist(),
            "n_solutions": len(solutions),
        },
    )
