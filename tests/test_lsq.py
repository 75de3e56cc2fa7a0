"""The least-squares core that the quadratic surface and the chaos expansion share.

Each fit is held bitwise to the body it had while it ran its own solve, kept
here as an oracle, and each raises FitError for the same three bad designs.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from reliakit import (
    ExperimentalDesign,
    FitError,
    QuadraticSurface,
    basis_for,
    benchmark_waarts,
    evaluate_batch,
    pce_fit_regression,
    physical_to_basis,
    qrs_basis,
    qrs_fit,
    standard_normal_vector,
)
from reliakit._blas import one_blas_thread
from reliakit.cli import _build_problem

COMPARE = Path(__file__).resolve().parents[1] / "perfbench" / "compare_physical.json"


@one_blas_thread
def qrs_oracle(pts, y, include_cross):
    """Surface and diagnostics of the separate QRS solve."""
    n, m = pts.shape
    center, scale = pts.mean(axis=0), pts.std(axis=0)
    a = qrs_basis((pts - center) / scale, include_cross=include_cross)
    coef, _, rank, sv = np.linalg.lstsq(a, y, rcond=None)
    assert rank == a.shape[1]
    cmat = np.diag(coef[1 + m : 1 + 2 * m])
    if include_cross and m > 1:
        k = 1 + 2 * m
        for i in range(m):
            for j in range(i + 1, m):
                cmat[i, j] = cmat[j, i] = 0.5 * coef[k]
                k += 1
    dinv = 1.0 / scale
    clin = coef[1 : 1 + m]
    b = cmat * np.outer(dinv, dinv)
    lin = dinv * clin - 2.0 * b @ center
    const = float(coef[0] - (dinv * clin) @ center + center @ b @ center)
    resid = y - a @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return QuadraticSurface(const, lin, b), {
        "cond": float(sv[0] / sv[-1]),
        "r_squared": 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else 1.0,
        "rms_residual": float(np.sqrt(np.mean(resid**2))),
        "n_points": n,
        "n_coeffs": a.shape[1],
    }


@one_blas_thread
def pce_oracle(rv, basis, design):
    """Coefficients and diagnostics of the separate PCE solve, with its own LOO."""
    y = design.responses
    psi = basis.evaluate(physical_to_basis(rv, design.points))
    scale = np.linalg.norm(psi, axis=0)
    psi_eq = psi / scale
    coef_eq, _, rank, sv = np.linalg.lstsq(psi_eq, y, rcond=None)
    assert rank == basis.size
    coef = coef_eq / scale
    resid = y - psi @ coef
    y_var = float(np.var(y))
    q, _ = np.linalg.qr(psi_eq, mode="reduced")
    leverage = np.sum(q * q, axis=1)
    assert not np.any(leverage >= 1.0 - 1e-10)
    return coef, {
        "n_points": design.size,
        "basis_size": basis.size,
        "cond": float(sv[0] / sv[-1]),
        "empirical_error": float(np.mean(resid**2)) / y_var,
        "loo_error": float(np.mean((resid / (1.0 - leverage)) ** 2)) / y_var,
    }


def four_branch():
    return benchmark_waarts(), standard_normal_vector(2)


def compare_problem():
    return _build_problem(json.loads(COMPARE.read_text())["problem"])


def lhs_design(problem, n):
    ls, rv = problem
    pts = rv.sample(n, scheme="latin_hypercube", seed=0)
    return ExperimentalDesign(pts, evaluate_batch(ls, pts))


@pytest.mark.parametrize(
    "problem, n, include_cross",
    [(four_branch, 18, True), (four_branch, 18, False), (compare_problem, 45, True)],
    ids=["four_branch", "four_branch_no_cross", "compare"],
)
def test_qrs_matches_its_own_solve_bitwise(problem, n, include_cross):
    design = lhs_design(problem(), n)
    surf = qrs_fit(design.points, design.responses, include_cross=include_cross)
    expected, oracle = qrs_oracle(design.points, design.responses, include_cross)
    assert surf.constant == expected.constant
    assert surf.linear.tobytes() == expected.linear.tobytes()
    assert surf.quadratic.tobytes() == expected.quadratic.tobytes()
    assert {k: surf.diagnostics[k] for k in oracle} == oracle
    assert math.isfinite(surf.diagnostics["loo_error"])


@pytest.mark.parametrize(
    "problem, degree", [(four_branch, 3), (compare_problem, 6)], ids=["four_branch", "compare"]
)
def test_pce_matches_its_own_solve_bitwise(problem, degree):
    ls, rv = problem()
    basis = basis_for(rv, degree)
    design = lhs_design((ls, rv), 2 * basis.size)
    model = pce_fit_regression(rv, basis, design)
    coef, oracle = pce_oracle(rv, basis, design)
    assert model.coefficients.tobytes() == coef.tobytes()
    assert model.diagnostics == oracle


def qrs_on(pts, y):
    return qrs_fit(pts, y)


def pce_on(pts, y):
    rv = standard_normal_vector(2)
    return pce_fit_regression(rv, basis_for(rv, 2), ExperimentalDesign(pts, y))


def near_line(offset):
    # 12 distinct points on the line x2 = x1, moved off it by up to offset;
    # the squares and the cross term then span a direction of size offset^2
    t = np.linspace(-1.0, 1.0, 12)
    return np.column_stack([t, t + offset * np.random.default_rng(3).uniform(-1.0, 1.0, 12)])


@pytest.mark.parametrize("fit", [qrs_on, pce_on], ids=["qrs", "pce"])
class TestFitErrors:
    # the quadratic basis and the degree-2 expansion in 2-D both have 6 terms

    def test_too_few_points(self, fit):
        pts = np.random.default_rng(7).normal(size=(5, 2))
        with pytest.raises(FitError, match="needs at least 6 points, got 5"):
            fit(pts, pts.sum(axis=1))

    def test_rank_deficient_design(self, fit):
        pts = near_line(0.0)
        with pytest.raises(FitError, match="rank-deficient"):
            fit(pts, pts[:, 0])

    def test_ill_conditioned_design(self, fit):
        pts = near_line(1e-6)  # cond about 1e13, rank still full
        with pytest.raises(FitError, match="ill conditioned"):
            fit(pts, pts[:, 0])
