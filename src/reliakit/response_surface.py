"""Quadratic response surfaces.

A quadratic surrogate ghat(x) = a0 + a.x + x'Bx fitted by least squares on
an evaluated design.  The fit standardizes the regressors internally and
maps the coefficients back, so callers see coefficients of the raw
monomials regardless of the scaling of the inputs.  :func:`qrs_estimate`
composes a design, the fit and a Monte Carlo sweep of the surface into one
failure-probability estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .errors import FitError
from .estimators import ReliabilityResult, _checked, _sweep
from .limitstate import EvalLedger, LimitState, evaluate_batch
from .pce import _loo, _lstsq
from .probmodel import RandomVector, make_rng

__all__ = ["qrs_basis", "qrs_n_coeffs", "QuadraticSurface", "qrs_fit", "qrs_estimate"]


def qrs_n_coeffs(m: int, include_cross: bool = True) -> int:
    """Number of quadratic-basis coefficients in dimension m."""
    base = 1 + 2 * m
    return base + m * (m - 1) // 2 if include_cross else base


def qrs_basis(x, include_cross: bool = True) -> np.ndarray:
    """Quadratic regression basis evaluated at rows x (n, m).

    Column order: constant, the m linear terms, the m pure squares, then
    the cross products x_i x_j for i < j in row-major pair order.
    """
    pts = np.asarray(x, dtype=float)
    n, m = pts.shape
    cols = [np.ones((n, 1)), pts, pts**2]
    if include_cross:
        i, j = np.triu_indices(m, 1)
        cols.append(pts[:, i] * pts[:, j])
    return np.hstack(cols)


@dataclass
class QuadraticSurface:
    """ghat(x) = constant + linear . x + x' quadratic x (quadratic symmetric)."""

    constant: float
    linear: np.ndarray
    quadratic: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.quadratic = np.asarray(self.quadratic, dtype=float)
        if self.quadratic.shape != (self.linear.size, self.linear.size):
            raise ValueError("quadratic matrix shape does not match the linear term")
        # coefficients() folds B_ij + B_ji into one cross coefficient, which
        # only represents the same form when B is symmetric
        if not np.allclose(self.quadratic, self.quadratic.T, atol=1e-12):
            raise ValueError("quadratic matrix must be symmetric")

    @property
    def dimension(self) -> int:
        return self.linear.size

    def predict(self, x) -> np.ndarray:
        """ghat at rows x (n, M)."""
        pts = np.asarray(x, dtype=float)
        return (
            self.constant
            + pts @ self.linear
            + np.einsum("ni,ij,nj->n", pts, self.quadratic, pts)
        )

    def coefficients(self, include_cross: bool = True) -> np.ndarray:
        """Coefficient vector in :func:`qrs_basis` column order."""
        parts = [np.array([self.constant]), self.linear, np.diag(self.quadratic)]
        if include_cross:
            parts.append(2.0 * self.quadratic[np.triu_indices(self.dimension, 1)])
        return np.concatenate(parts)

    def to_limit_state(self, name: str = "qrs") -> LimitState:
        return LimitState(
            dimension=self.dimension,
            name=name,
            vector_evaluator=self.predict,
        )


@one_blas_thread
def qrs_fit(points, responses, include_cross: bool = True) -> QuadraticSurface:
    """Least-squares quadratic fit on an evaluated design.

    The regression runs on standardized inputs (columns centered and scaled
    by their standard deviation) through the SVD solve that the chaos
    expansion's fit shares; the normal equations are never formed.  A
    design with fewer points than coefficients, a degenerate column, or a
    rank-deficient or ill-conditioned basis raises :class:`FitError`.
    Diagnostics carry the analytic leave-one-out error of the quadratic
    basis, normalized by the variance of the responses.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(responses, dtype=float).reshape(-1)
    n, m = pts.shape
    if y.size != n:
        raise ValueError("points and responses disagree on N")

    center = pts.mean(axis=0)
    scale = pts.std(axis=0)
    if np.any(scale <= 0.0):
        raise FitError("a design column is constant; the quadratic fit is degenerate")
    s = (pts - center) / scale

    a = qrs_basis(s, include_cross=include_cross)
    coef, cond = _lstsq(a, y, "quadratic fit")

    # Quadratic form of the standardized monomials.
    cmat = np.diag(coef[1 + m : 1 + 2 * m])
    if include_cross:
        i, j = np.triu_indices(m, 1)
        cmat[i, j] = cmat[j, i] = 0.5 * coef[1 + 2 * m :]

    # Substitute s = Dinv (x - center) to recover raw-monomial coefficients.
    dinv = 1.0 / scale
    clin = dinv * coef[1 : 1 + m]
    b = cmat * np.outer(dinv, dinv)
    lin = clin - 2.0 * b @ center
    const = float(coef[0] - clin @ center + center @ b @ center)

    resid = y - a @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else 1.0
    return QuadraticSurface(
        constant=const,
        linear=lin,
        quadratic=b,
        diagnostics={
            "cond": cond,
            "r_squared": r2,
            "rms_residual": float(np.sqrt(np.mean(resid**2))),
            "n_points": n,
            "n_coeffs": a.shape[1],
            **_loo(a, resid, float(np.var(y))),
        },
    )


@one_blas_thread
def qrs_estimate(
    ls: LimitState,
    rv: RandomVector,
    n_design: int | None = None,
    n_surrogate: int = 1_000_000,
    include_cross: bool = True,
    seed=None,
    ledger: EvalLedger | None = None,
) -> ReliabilityResult:
    """Failure probability of a quadratic surface fitted to the true model.

    A Latin-hypercube design of ``n_design`` points (default three times
    the number of coefficients) is evaluated and fitted by :func:`qrs_fit`;
    the surface is then swept by crude Monte Carlo over ``n_surrogate``
    draws.  Only the design costs true-model calls.  A design smaller than
    the number of coefficients raises ``ValueError`` before any draw.
    ``cov`` is the sweep's sampling CoV alone; the fit's own error estimate
    is ``extras["fit"]["loo_error"]``.
    """
    rng = make_rng(seed)
    p = qrs_n_coeffs(rv.dimension, include_cross)
    n_design, n_surrogate, include_cross = _checked(
        n_design=3 * p if n_design is None else n_design, n_surrogate=n_surrogate,
        include_cross=include_cross).values()
    if n_design < p:
        raise ValueError(f"n_design {n_design} is below the {p} quadratic coefficients")
    pts = rv.sample(n_design, scheme="latin_hypercube", seed=rng)
    surf = qrs_fit(pts, evaluate_batch(ls, pts, ledger=ledger), include_cross=include_cross)
    (pf,), (cov,) = _sweep(rv, lambda xs: surf.predict(xs) <= 0.0, n_surrogate, rng)
    extras = {"n_surrogate": n_surrogate, "fit": surf.diagnostics}
    return ReliabilityResult(pf, cov, n_design, "qrs", extras)
