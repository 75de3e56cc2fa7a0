"""Quadratic response surfaces.

A quadratic surrogate ghat(x) = a0 + a.x + x'Bx fitted by least squares on
an evaluated design.  The fit standardizes the regressors internally and
maps the coefficients back, so callers see coefficients of the raw
monomials regardless of the scaling of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .errors import FitError
from .limitstate import LimitState

__all__ = ["qrs_basis", "qrs_n_coeffs", "QuadraticSurface", "qrs_fit"]

_COND_LIMIT = 1e10


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
    if include_cross and m > 1:
        cross = [pts[:, [i]] * pts[:, [j]] for i in range(m) for j in range(i + 1, m)]
        cols.append(np.hstack(cross))
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
        m = self.dimension
        parts = [np.array([self.constant]), self.linear, np.diag(self.quadratic)]
        if include_cross and m > 1:
            cross = [
                2.0 * self.quadratic[i, j] for i in range(m) for j in range(i + 1, m)
            ]
            parts.append(np.array(cross))
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
    by their standard deviation) through an orthogonal decomposition; the
    normal equations are never formed.  A design with fewer points than
    coefficients, a degenerate column, or a rank-deficient basis raises
    :class:`FitError`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(responses, dtype=float).reshape(-1)
    n, m = pts.shape
    if y.size != n:
        raise ValueError("points and responses disagree on N")
    p = qrs_n_coeffs(m, include_cross)
    if n < p:
        raise FitError(f"quadratic fit needs at least {p} points in dimension {m}, got {n}")

    center = pts.mean(axis=0)
    scale = pts.std(axis=0)
    if np.any(scale <= 0.0):
        raise FitError("a design column is constant; the quadratic fit is degenerate")
    s = (pts - center) / scale

    a = qrs_basis(s, include_cross=include_cross)
    coef, _, rank, sv = np.linalg.lstsq(a, y, rcond=None)
    if rank < a.shape[1]:
        raise FitError(f"rank-deficient quadratic basis (rank {rank} < {a.shape[1]})")
    cond = float(sv[0] / sv[-1])
    if cond > _COND_LIMIT:
        raise FitError(f"quadratic basis is ill conditioned (cond {cond:.3g})")

    # Coefficients of the standardized monomials.
    c0 = coef[0]
    clin = coef[1 : 1 + m]
    csq = coef[1 + m : 1 + 2 * m]
    cmat = np.diag(csq)
    if include_cross and m > 1:
        k = 1 + 2 * m
        for i in range(m):
            for j in range(i + 1, m):
                cmat[i, j] = cmat[j, i] = 0.5 * coef[k]
                k += 1

    # Substitute s = Dinv (x - center) to recover raw-monomial coefficients.
    dinv = 1.0 / scale
    b = cmat * np.outer(dinv, dinv)
    lin = dinv * clin - 2.0 * b @ center
    const = float(c0 - (dinv * clin) @ center + center @ b @ center)

    resid = y - a @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else 1.0
    surf = QuadraticSurface(
        constant=const,
        linear=lin,
        quadratic=b,
        diagnostics={
            "cond": cond,
            "r_squared": r2,
            "rms_residual": float(np.sqrt(np.mean(resid**2))),
            "n_points": n,
            "n_coeffs": p,
        },
    )
    return surf
