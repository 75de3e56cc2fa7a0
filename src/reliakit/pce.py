"""Polynomial chaos expansions.

A response is expanded on a basis of polynomials that are orthonormal with
respect to the joint input density: Hermite for Gaussian inputs, Legendre
for uniform, generalized Laguerre for gamma, Jacobi for beta.  The module
provides the univariate families (evaluated by three-term recurrence,
normalized against probability weights), tensorized multivariate bases with
total-degree truncation, least-squares fitting, analytic leave-one-out
error, moment and failure-probability post-processing, a degree-adaptive
fitting loop, and :func:`pce_estimate`, which composes a design, a fit and
the surrogate sweep into one estimate.

Multi-index sets are kept in graded lexicographic order: ascending total
degree, and within one degree the index with the higher power on the
earlier coordinate comes first.  The coefficient vector of a fitted model
is aligned with that order, so coefficient files are comparable across
runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, roots_genlaguerre, roots_jacobi

from ._blas import one_blas_thread
from .errors import FitError
from .estimators import ReliabilityResult, _checked, _clean, _sweep
from .limitstate import EvalLedger, ExperimentalDesign, LimitState, evaluate_batch
from .probmodel import RandomVector, make_rng, standard_normal_vector

__all__ = [
    "PolynomialFamily",
    "orthonormal_table",
    "gauss_rule",
    "truncation_set",
    "PceBasis",
    "basis_for",
    "physical_to_basis",
    "basis_to_physical",
    "PceModel",
    "pce_fit_regression",
    "pce_moments",
    "pce_pf",
    "pce_adaptive",
    "pce_estimate",
]

_KINDS = ("hermite", "legendre", "laguerre", "jacobi")

_COND_LIMIT = 1e10

# Most basis terms pce_estimate accepts: at 1e4 terms the 2P x P design
# matrix of the fit alone holds 1.6 GB.
_MAX_TERMS = 10_000

# Rows per tile of a surrogate sum, so that its tables and sums stay in L2 cache.
_TILE = 16_384


@dataclass(frozen=True)
class PolynomialFamily:
    """One univariate orthonormal family.

    ``laguerre`` takes one shape parameter ``alpha`` > -1 (weight
    x^alpha e^-x on (0, inf)); ``jacobi`` takes ``alpha``, ``beta`` > -1
    (weight (1-x)^alpha (1+x)^beta on (-1, 1)).  Hermite and Legendre are
    parameter-free.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown polynomial family {self.kind!r}")
        if self.kind in ("laguerre", "jacobi") and self.alpha <= -1.0:
            raise ValueError("laguerre/jacobi parameter alpha must exceed -1")
        if self.kind == "jacobi" and self.beta <= -1.0:
            raise ValueError("jacobi parameter beta must exceed -1")


def orthonormal_table(family: PolynomialFamily, degree: int, x) -> np.ndarray:
    """Values of the orthonormal polynomials 0..degree at point(s) x.

    Returns an array of shape x.shape + (degree+1,).  Each family is
    evaluated by its classical three-term recurrence and then scaled so the
    polynomials have unit norm against the family's probability weight
    (standard normal, uniform on (-1,1), gamma, or scaled beta).  In
    particular the degree-0 polynomial is the constant 1 for every family.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((degree + 1,) + x.shape)  # one contiguous row per degree
    ks = np.arange(degree + 1)
    out[0] = 1.0
    kind = family.kind
    # rows are built and scaled in place; out[k, ...] stays a view when x is 0-d
    if kind == "hermite":
        if degree >= 1:
            out[1] = x
        for k in range(1, degree):
            row = np.multiply(x, out[k], out=out[k + 1, ...])
            row -= k * out[k - 1]
        op, scale = np.divide, np.exp(0.5 * gammaln(ks + 1.0))
    elif kind == "legendre":
        if degree >= 1:
            out[1] = x
        for k in range(1, degree):
            row = np.multiply((2 * k + 1) * x, out[k], out=out[k + 1, ...])
            row -= k * out[k - 1]
            row /= k + 1
        op, scale = np.multiply, np.sqrt(2.0 * ks + 1.0)
    elif kind == "laguerre":
        a = family.alpha
        if degree >= 1:
            out[1] = 1.0 + a - x
        for k in range(1, degree):
            row = np.multiply(2 * k + a + 1 - x, out[k], out=out[k + 1, ...])
            row -= (k + a) * out[k - 1]
            row /= k + 1
        # norm^2 against the gamma(a+1) probability weight: Gamma(k+a+1)/(k! Gamma(a+1))
        op = np.multiply
        scale = np.exp(0.5 * (gammaln(ks + 1.0) + gammaln(a + 1.0) - gammaln(ks + a + 1.0)))
    else:  # jacobi
        a, b = family.alpha, family.beta
        if degree >= 1:
            out[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
        for k in range(2, degree + 1):
            c1 = 2.0 * k * (k + a + b) * (2 * k + a + b - 2)
            c2 = (2 * k + a + b - 1) * (a * a - b * b)
            c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
            c4 = 2.0 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
            row = np.multiply(c2 + c3 * x, out[k - 1], out=out[k, ...])
            row -= c4 * out[k - 2]
            row /= c1
        # squared norms against the raw weight (1-x)^a (1+x)^b; the k=0 form
        # avoids the Gamma pole at a+b = -1.
        ks = ks[1:]
        ln_h0 = (
            (a + b + 1.0) * math.log(2.0)
            + gammaln(a + 1.0)
            + gammaln(b + 1.0)
            - gammaln(a + b + 2.0)
        )
        ln_hk = (
            (a + b + 1.0) * math.log(2.0)
            - np.log(2.0 * ks + a + b + 1.0)
            + gammaln(ks + a + 1.0)
            + gammaln(ks + b + 1.0)
            - gammaln(ks + a + b + 1.0)
            - gammaln(ks + 1.0)
        )
        op, scale = np.multiply, np.concatenate([[1.0], np.exp(0.5 * (ln_h0 - ln_hk))])
    for k in range(degree + 1):
        op(out[k, ...], scale[k], out=out[k, ...])
    return np.moveaxis(out, 0, -1)  # the x.shape + (degree + 1,) view


def gauss_rule(family: PolynomialFamily, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and probability weights (summing to 1) for one family.

    A level-n rule integrates polynomials up to degree 2n-1 exactly against
    the family's probability weight.
    """
    if level < 1:
        raise ValueError("quadrature level must be >= 1")
    if family.kind == "hermite":
        x, w = hermegauss(level)
    elif family.kind == "legendre":
        x, w = leggauss(level)
    elif family.kind == "laguerre":
        x, w = roots_genlaguerre(level, family.alpha)
    else:
        x, w = roots_jacobi(level, family.alpha, family.beta)
    w = np.asarray(w, dtype=float)
    return np.asarray(x, dtype=float), w / w.sum()


def truncation_set(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of total degree <= p in graded lexicographic order."""
    if m < 1 or p < 0:
        raise ValueError("need m >= 1 and p >= 0")
    if m == 1:  # O(p); the general path below copies range(d) per degree, O(p^2) here
        return tuple((d,) for d in range(p + 1))
    idx = []
    for d in range(p + 1):
        # an index of degree d is m - 1 bars among d + m - 1 slots, and the
        # lexicographic order of the bars is that of the index, reversed here
        for bars in reversed(list(combinations(range(d + m - 1), m - 1))):
            edges = (-1, *bars, d + m - 1)
            idx.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return tuple(idx)


@dataclass(frozen=True)
class PceBasis:
    """Tensorized multivariate orthonormal basis over a truncated index set."""

    families: tuple[PolynomialFamily, ...]
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.families)
        if m < 1:
            raise ValueError("basis needs at least one dimension")
        seen = set()
        for a in self.indices:
            if len(a) != m:
                raise ValueError(f"index {a} does not match dimension {m}")
            if any(c < 0 for c in a):
                raise ValueError(f"negative entry in index {a}")
            if a in seen:
                raise ValueError(f"duplicate index {a}")
            seen.add(a)

    @property
    def dimension(self) -> int:
        return len(self.families)

    @property
    def size(self) -> int:
        return len(self.indices)

    def evaluate(self, xi) -> np.ndarray:
        """Basis matrix at basis-space point(s) xi: shape (n, size)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        psi = np.empty((xi.shape[0], self.size))
        for j, prod in self._products(xi):
            psi[:, j] = prod
        return psi

    def _products(self, xi):
        """Yield (j, Psi_j(xi)) per index, from contiguous (degree + 1, n) tables.

        Indices run in lexicographic order, so each product reuses the prefix
        it shares with the one before; a zero power is skipped.  The yielded
        vector is scratch, valid until the next one is asked for.
        """
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        n, m = xi.shape
        if m != self.dimension:
            raise ValueError(f"expected {self.dimension} columns, got {xi.shape}")
        tables = [orthonormal_table(f, max(a[i] for a in self.indices), xi[:, i]).T
                  for i, f in enumerate(self.families)]
        # pre[i + 1] is the product over coordinates 0..i of the current index
        pre, prev, buf = [np.ones(n)] * (m + 1), (-1,) * m, np.empty((m, n))
        for a, j in sorted(zip(self.indices, range(self.size))):
            for i in range(next(i for i in range(m) if a[i] != prev[i]), m):
                pre[i + 1] = np.multiply(pre[i], tables[i][a[i]], out=buf[i]) if a[i] else pre[i]
            prev = a
            yield j, pre[-1]


def _basis_map(marg) -> tuple[PolynomialFamily, bool, float, float, float]:
    """(family, log, loc, scale, shift) of one independent marginal.

    The basis variable is xi = (t(x) - loc) / scale - shift, where t is log
    for lognormal inputs and the identity otherwise.  Uniform and beta
    inputs on (lo, hi) map onto (-1, 1).
    """
    p = marg.params
    if marg.family in ("gaussian", "lognormal"):
        return PolynomialFamily("hermite"), marg.family == "lognormal", p[0], p[1], 0.0
    if marg.family == "uniform":
        return PolynomialFamily("legendre"), False, p[0], (p[1] - p[0]) / 2.0, 1.0
    if marg.family == "gamma":
        return PolynomialFamily("laguerre", alpha=p[0] - 1.0), False, 0.0, p[1], 0.0
    # beta(a, b) on (-1, 1): density carries (1-x)^(b-1) (1+x)^(a-1)
    fam = PolynomialFamily("jacobi", alpha=p[1] - 1.0, beta=p[0] - 1.0)
    return fam, False, p[2], (p[3] - p[2]) / 2.0, 1.0


def basis_for(rv: RandomVector, degree: int) -> PceBasis:
    """Total-degree basis matched to the input model.

    Independent inputs get their natural family per marginal; under a
    correlation structure the expansion is built in the independent
    standard-normal coordinates instead, so every dimension is Hermite.
    """
    if rv.is_independent:
        fams = tuple(_basis_map(m)[0] for m in rv.marginals)
    else:
        fams = tuple(PolynomialFamily("hermite") for _ in rv.marginals)
    return PceBasis(families=fams, indices=truncation_set(rv.dimension, degree))


def physical_to_basis(rv: RandomVector, x) -> np.ndarray:
    """Map physical rows x (n, M) to the basis-variable coordinates."""
    x = np.asarray(x, dtype=float)
    rv._check_dim(x)
    if not rv.is_independent:
        return rv.to_standard(x)
    out = np.empty_like(x)
    for i, marg in enumerate(rv.marginals):
        _, log, loc, scale, shift = _basis_map(marg)
        col = np.log(x[:, i]) if log else x[:, i]
        out[:, i] = (col - loc) / scale - shift
    return out


def basis_to_physical(rv: RandomVector, xi) -> np.ndarray:
    """Inverse of :func:`physical_to_basis`, on rows xi (n, M)."""
    xi = np.asarray(xi, dtype=float)
    rv._check_dim(xi)
    if not rv.is_independent:
        return rv.from_standard(xi)
    out = np.empty_like(xi)
    for i, marg in enumerate(rv.marginals):
        _, log, loc, scale, shift = _basis_map(marg)
        t = loc + scale * (xi[:, i] + shift)
        out[:, i] = np.exp(t) if log else t
    return out


@dataclass
class PceModel:
    """A fitted expansion: basis, aligned coefficients, and diagnostics."""

    basis: PceBasis
    coefficients: np.ndarray
    rv: RandomVector
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.basis.size,):
            raise ValueError("coefficient count must equal the basis size")

    def predict(self, x) -> np.ndarray:
        """Surrogate response at physical rows x (n, M), summed term by term in place."""
        return self._at_basis(physical_to_basis(self.rv, x))

    def _at_basis(self, xi: np.ndarray) -> np.ndarray:
        out, term = np.zeros(xi.shape[0]), np.empty(min(_TILE, xi.shape[0]))
        for lo in range(0, xi.shape[0], _TILE):
            part = out[lo:lo + _TILE]
            for j, prod in self.basis._products(xi[lo:lo + _TILE]):
                part += np.multiply(prod, self.coefficients[j], out=term[:part.size])
        return out

    def coefficient(self, alpha: tuple[int, ...]) -> float:
        try:
            j = self.basis.indices.index(tuple(alpha))
        except ValueError:
            raise KeyError(f"index {alpha} not in the basis") from None
        return float(self.coefficients[j])

    def to_limit_state(self, name: str = "pce") -> LimitState:
        return LimitState(
            dimension=self.basis.dimension,
            name=name,
            vector_evaluator=self.predict,
        )

    def to_json(self) -> str:
        doc = {
            "families": [
                {"kind": f.kind, "alpha": f.alpha, "beta": f.beta}
                for f in self.basis.families
            ],
            "indices": [list(a) for a in self.basis.indices],
            "coefficients": self.coefficients.tolist(),
            "diagnostics": _clean(self.diagnostics),
        }
        return json.dumps(doc, sort_keys=True, indent=2)


@one_blas_thread
def pce_fit_regression(
    rv: RandomVector,
    basis: PceBasis,
    design: ExperimentalDesign,
) -> PceModel:
    """Least-squares fit of the coefficients on an evaluated design.

    The basis matrix is column-equilibrated and solved by :func:`_lstsq`,
    which raises :class:`FitError` on too few points, a rank deficiency or
    a condition number beyond 1e10 (try a larger or redrawn design).
    Diagnostics carry the normalized empirical and leave-one-out errors.
    """
    pts, y = design.points, design.responses
    psi = basis.evaluate(physical_to_basis(rv, pts))
    scale = np.linalg.norm(psi, axis=0)
    if np.any(scale <= 0.0):
        raise FitError("a basis column vanishes on the design")
    psi_eq = psi / scale
    coef_eq, cond = _lstsq(psi_eq, y, "regression")
    coef = coef_eq / scale
    resid = y - psi @ coef
    y_var = float(np.var(y))
    emp = float(np.mean(resid**2)) / y_var if y_var > 0.0 else (
        0.0 if np.allclose(resid, 0.0, atol=1e-12) else math.inf
    )
    diagnostics = {
        "n_points": pts.shape[0],
        "basis_size": basis.size,
        "cond": cond,
        "empirical_error": emp,
        **_loo(psi_eq, resid, y_var),
    }
    return PceModel(basis=basis, coefficients=coef, rv=rv, diagnostics=diagnostics)


def _lstsq(a: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Coefficients of the SVD least-squares fit a c = y, and the condition number of a."""
    n, p = a.shape
    if n < p:
        raise FitError(f"{what} needs at least {p} points, got {n}")
    coef, _, rank, sv = np.linalg.lstsq(a, y, rcond=None)
    hint = "increase the design size or redraw it"
    if rank < p:
        raise FitError(f"rank-deficient {what} basis (rank {rank} < {p}); {hint}")
    cond = float(sv[0] / sv[-1])
    if cond > _COND_LIMIT:
        raise FitError(f"{what} basis ill conditioned (cond {cond:.3g}); {hint}")
    return coef, cond


def _loo(a: np.ndarray, resid: np.ndarray, y_var: float) -> dict:
    """Leave-one-out MSE over y_var from the hat-matrix diagonal, which
    depends on the column space of ``a`` only, not on its scaling."""
    q, _ = np.linalg.qr(a, mode="reduced")
    leverage = np.sum(q * q, axis=1)
    if np.any(leverage >= 1.0 - 1e-10):
        return {"loo_error": math.inf, "loo_undefined": True}
    mse = float(np.mean((resid / (1.0 - leverage)) ** 2))
    if y_var > 0.0:
        return {"loo_error": mse / y_var}
    return {"loo_error": 0.0 if mse < 1e-24 else math.inf}


def pce_moments(model: PceModel) -> tuple[float, float]:
    """Mean and variance of the surrogate from its coefficients.

    Orthonormality makes these exact: the mean is the constant-term
    coefficient and the variance is the sum of squares of all others.
    """
    zero = tuple([0] * model.basis.dimension)
    mean = 0.0
    var = 0.0
    for a, c in zip(model.basis.indices, model.coefficients):
        if a == zero:
            mean = float(c)
        else:
            var += float(c) * float(c)
    return mean, var


@one_blas_thread
def pce_pf(model: PceModel, n: int, seed=None) -> ReliabilityResult:
    """Failure probability of the surrogate by crude Monte Carlo over ``model.rv``.

    Zero true-model calls: only the fitted expansion is sampled.  Under a
    correlation the basis lives in the standard-normal germ u, so the sweep
    predicts at each drawn u rather than at x(u).
    """
    rv, g = model.rv, model.predict
    if not rv.is_independent:
        rv, g = standard_normal_vector(rv.dimension), model._at_basis
    (pf,), (cov,) = _sweep(rv, lambda xs: g(xs) <= 0.0, n, seed)
    return ReliabilityResult(
        pf=pf, cov=cov, n_calls=0, method="pce", extras={"n_surrogate": n}
    )


@one_blas_thread
def pce_adaptive(
    ls: LimitState,
    rv: RandomVector,
    target_err: float,
    p_max: int,
    seed=None,
    ledger: EvalLedger | None = None,
) -> PceModel:
    """Raise the expansion degree until the leave-one-out error is small.

    For p = 1, 2, ... the design is grown to twice the basis size (new
    points from a fresh space-filling draw, earlier evaluations kept) and
    the expansion refitted.  Stops at the first degree whose LOO error
    meets ``target_err``; past ``p_max`` the best model so far is returned
    with ``diagnostics['converged'] = False``.
    """
    target_err, p_max = _checked(target_error=target_err, p_max=p_max).values()
    rng = make_rng(seed)
    design: ExperimentalDesign | None = None
    best: PceModel | None = None
    best_err = math.inf
    for p in range(1, p_max + 1):
        basis = basis_for(rv, p)
        have = 0 if design is None else design.size  # each degree adds terms, so the design grows
        new = rv.sample(2 * basis.size - have, scheme="latin_hypercube", seed=rng)
        gnew = evaluate_batch(ls, new, ledger=ledger)
        design = ExperimentalDesign(new, gnew) if design is None else design.extended(new, gnew)
        try:
            model = pce_fit_regression(rv, basis, design)
        except FitError:
            continue
        err = model.diagnostics["loo_error"]
        model.diagnostics.update(degree=p, n_true_calls=design.size)
        if err < best_err:
            best, best_err = model, err
        if err <= target_err:
            model.diagnostics["converged"] = True
            return model
    if best is None:
        raise FitError("no degree up to p_max produced a usable fit")
    best.diagnostics["converged"] = False
    return best


@one_blas_thread
def pce_estimate(
    ls: LimitState,
    rv: RandomVector,
    degree: int = 3,
    target_error: float | None = None,
    p_max: int = 5,
    n_surrogate: int = 1_000_000,
    seed=None,
    ledger: EvalLedger | None = None,
) -> ReliabilityResult:
    """Failure probability of an expansion fitted to the true model.

    With ``target_error`` the degree is chosen by :func:`pce_adaptive` (up
    to ``p_max``); otherwise a total-degree ``degree`` basis is fitted on a
    Latin-hypercube design of twice its size.  :func:`pce_pf` then sweeps
    the expansion over ``n_surrogate`` draws.  ``n_calls`` counts every
    true-model call, including designs of degrees the adaptive loop passed.
    A top-degree basis of more than 10,000 terms raises ``ValueError``
    before any design is drawn.  ``cov`` is the sweep's sampling CoV alone;
    the fit's own error estimate is ``extras["fit"]["loo_error"]``.
    """
    degree, p_max, n_surrogate = _checked(
        degree=degree, p_max=p_max, n_surrogate=n_surrogate).values()
    top = p_max if target_error is not None else degree
    terms = math.comb(rv.dimension + top, top)
    if terms > _MAX_TERMS:
        raise ValueError(f"degree {top} in {rv.dimension} inputs needs {terms} > {_MAX_TERMS} terms")
    rng = make_rng(seed)
    ledger = EvalLedger() if ledger is None else ledger
    start = ledger.count
    if target_error is not None:
        model = pce_adaptive(ls, rv, target_error, p_max, seed=rng, ledger=ledger)
    else:
        basis = basis_for(rv, degree)
        pts = rv.sample(2 * basis.size, scheme="latin_hypercube", seed=rng)
        g = evaluate_batch(ls, pts, ledger=ledger)
        model = pce_fit_regression(rv, basis, ExperimentalDesign(pts, g))
    sur = pce_pf(model, n_surrogate, seed=rng)
    extras = {"n_surrogate": n_surrogate, "fit": dict(model.diagnostics)}
    return ReliabilityResult(sur.pf, sur.cov, ledger.count - start, "pce", extras)
