"""Probabilistic input models.

A joint input model is a :class:`RandomVector`: a list of independent
marginals plus an optional Gaussian-copula correlation matrix.  The module
provides the isoprobabilistic transform between physical coordinates and
independent standard normal coordinates, joint density evaluation, and
Monte Carlo / Latin Hypercube sampling.

All randomness flows through ``numpy.random.Generator`` seeded with the
PCG64 bit generator (``numpy.random.default_rng``), so results are
bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import namedtuple
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import (betainc, betaincc, betainccinv, betaincinv, betaln, gammainc, gammaincc,
                           gammainccinv, gammaincinv, gammaln, ndtr, ndtri, xlog1py, xlogy)

from .errors import DomainError, ModelError

__all__ = [
    "Marginal",
    "RandomVector",
    "standard_normal_vector",
    "make_rng",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Each family: ``needs`` is (number of params, their check, what the error asks for);
# ``layout`` maps the params to (loc, scale, shapes) of the standard form y = (x - loc) / scale,
# as scipy.stats lays it out; its functions take y (a probability for ``ppf`` and ``isf``),
# then the shapes; ``isf`` exists where the inverse transform needs it (gamma and beta);
# and ``moments`` gives the mean and variance of y.
_Family = namedtuple("_Family", "needs layout support pdf cdf sf ppf isf moments")


def _lognormal_pdf(y, s):
    dens = np.exp(-np.log(y) ** 2 / (2 * (s * s)) - np.log(s * y * _SQRT_2PI))
    return np.where(y == 0.0, 0.0, dens)  # log(0) makes nan above; the density there is 0


def _beta_inverse(q, a, b, upper: bool):
    # betaincinv and betainccinv read nan where their root search fails (q < 1e-107 at a = b = 3);
    # there q = t^c / (c B(a, b)) holds to double precision, t the distance to the end, c its shape.
    y, c = (betainccinv(a, b, q), b) if upper else (betaincinv(a, b, q), a)
    t = np.exp((np.log(q) + math.log(c) + betaln(a, b)) / c)
    return np.where(np.isnan(y), 1.0 - t if upper else t, y)


_FAMILIES = {
    "gaussian": _Family(
        (2, lambda mean, std: std > 0, "(mean, std) with std > 0"),
        lambda mean, std: (mean, std, ()), (-math.inf, math.inf),
        lambda y: np.exp(-y * y / 2.0) / _SQRT_2PI, ndtr, lambda y: ndtr(-y), ndtri, None,
        lambda: (0.0, 1.0)),
    "uniform": _Family(
        (2, lambda lo, hi: hi > lo, "(lower, upper) with upper > lower"),
        lambda lo, hi: (lo, hi - lo, ()), (0.0, 1.0), lambda y: np.where(y == y, 1.0, np.nan),
        lambda y: y, lambda y: 1.0 - y, lambda q: q, None, lambda: (0.5, 1.0 / 12)),
    "lognormal": _Family(
        (2, lambda mu, s: s > 0, "(mu_log, sigma_log) with sigma_log > 0"),
        lambda mu, s: (0.0, math.exp(mu), (s,)), (0.0, math.inf), _lognormal_pdf,
        lambda y, s: ndtr(np.log(y) / s), lambda y, s: ndtr(-(np.log(y) / s)),
        lambda q, s: np.exp(s * ndtri(q)), None,
        lambda s: (np.sqrt(np.exp(s * s)), np.exp(s * s) * (np.exp(s * s) - 1))),
    "gamma": _Family(
        (2, lambda a, scale: a > 0 and scale > 0, "(shape, scale), both > 0"),
        lambda a, scale: (0.0, scale, (a,)), (0.0, math.inf),
        lambda y, a: np.exp(xlogy(a - 1.0, y) - y - gammaln(a)), lambda y, a: gammainc(a, y),
        lambda y, a: gammaincc(a, y), lambda q, a: gammaincinv(a, q),
        lambda q, a: gammainccinv(a, q), lambda a: (a, a)),
    "beta": _Family(
        (4, lambda a, b, lo, hi: a > 0 and b > 0 and hi > lo, "(alpha, beta, lower, upper)"),
        lambda a, b, lo, hi: (lo, hi - lo, (a, b)), (0.0, 1.0),
        lambda y, a, b: np.exp(xlogy(a - 1.0, y) + xlog1py(b - 1.0, -y) - betaln(a, b)),
        lambda y, a, b: betainc(a, b, y), lambda y, a, b: betaincc(a, b, y),
        lambda q, a, b: _beta_inverse(q, a, b, False), lambda q, a, b: _beta_inverse(q, a, b, True),
        lambda a, b: (a / (a + b), a * b / ((a + b) * (a + b) * (a + b + 1)))),
}

# Probabilities are clipped to this band before applying the normal quantile,
# so deep-tail points map to large-but-finite standard coordinates.
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16


def make_rng(seed) -> np.random.Generator:
    """Return a PCG64 generator; passes through an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _latin_hypercube(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n points in the unit cube of dimension m, one in each of n equal strata per axis."""
    u = np.empty((n, m))
    for j in range(m):
        u[:, j] = (rng.permutation(n) + rng.random(n)) / n
    return u


@dataclass(frozen=True)
class Marginal:
    """A univariate input distribution.

    Supported families and parameter layout:

    ==========  ======================================
    gaussian    (mean, std)
    uniform     (lower, upper)
    lognormal   (mu_log, sigma_log) of the underlying normal
    gamma       (shape, scale)
    beta        (alpha, beta, lower, upper)
    ==========  ======================================

    Each function is a closed form over ``scipy.special``, equal to ``scipy.stats``
    bit for bit but for the beta pdf's roundoff (< 1e-13 relative).

    Use the family classmethods rather than the raw constructor.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ModelError(f"unknown marginal family {self.family!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        if not all(math.isfinite(v) for v in p):
            raise ModelError(f"{self.family} marginal parameters must be finite, got {p}")
        n, valid, needs = _FAMILIES[self.family].needs
        if len(p) != n or not valid(*p):
            raise ModelError(f"{self.family} marginal needs {needs}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "Marginal":
        return cls("gaussian", (mean, std))

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "Marginal":
        return cls("uniform", (lower, upper))

    @classmethod
    def lognormal(cls, mu_log: float, sigma_log: float) -> "Marginal":
        """Lognormal with underlying normal N(mu_log, sigma_log^2)."""
        return cls("lognormal", (mu_log, sigma_log))

    @classmethod
    def gamma(cls, shape: float, scale: float = 1.0) -> "Marginal":
        return cls("gamma", (shape, scale))

    @classmethod
    def beta(cls, alpha: float, beta: float, lower: float = 0.0, upper: float = 1.0) -> "Marginal":
        return cls("beta", (alpha, beta, lower, upper))

    # -- distribution interface -------------------------------------------
    # As in scipy.stats, y = (x - loc) / scale goes through the standard form, and elements
    # outside the support (for the inverses, outside [0, 1]) are then overwritten; the
    # floating-point errors ignored arise there, or as the infinite density at a pole.

    @property
    def _form(self) -> tuple[float, float, tuple[float, ...], _Family]:
        form = _FAMILIES[self.family]  # not cached: a cached family's lambdas would not pickle
        return (*form.layout(*self.params), form)

    @property
    def support(self) -> tuple[float, float]:
        loc, scale, _, form = self._form
        return float(form.support[0] * scale + loc), float(form.support[1] * scale + loc)

    def _at(self, name: str, x, below: float, above: float):
        loc, scale, shapes, form = self._form
        with np.errstate(all="ignore"):
            y = (np.asarray(x, dtype=float) - loc) / scale
            v = getattr(form, name)(y, *shapes) / (scale if name == "pdf" else 1.0)
        return np.where(y < form.support[0], below, np.where(y > form.support[1], above, v))[()]

    def pdf(self, x):
        return self._at("pdf", x, 0.0, 0.0)

    def cdf(self, x):
        return self._at("cdf", x, 0.0, 1.0)

    def sf(self, x):
        return self._at("sf", x, 1.0, 0.0)

    def _inverse(self, name: str, q):
        loc, scale, shapes, form = self._form
        q = np.asarray(q, dtype=float)
        with np.errstate(all="ignore"):
            x = getattr(form, name)(q, *shapes) * scale + loc
        return np.where((q >= 0.0) & (q <= 1.0), x, np.nan)[()]

    def quantile(self, p):
        return self._inverse("ppf", p)

    def mean(self) -> float:
        loc, scale, shapes, form = self._form
        return float(form.moments(*shapes)[0] * scale + loc)

    def std(self) -> float:
        loc, scale, shapes, form = self._form
        return float(np.sqrt(form.moments(*shapes)[1] * scale * scale))

    def to_dict(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "Marginal":
        return cls(d["family"], tuple(d["params"]))


def _as_correlation(corr, m: int) -> np.ndarray | None:
    """Validate a correlation matrix; None means independence."""
    if corr is None:
        return None
    c = np.asarray(corr, dtype=float)
    if c.shape != (m, m):
        raise ModelError(f"correlation must be {m}x{m}, got {c.shape}")
    if not np.allclose(c, c.T, atol=1e-12):
        raise ModelError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        raise ModelError("correlation matrix must have unit diagonal")
    if np.allclose(c, np.eye(m), atol=1e-14):
        return None
    try:
        cholesky(c, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises LinAlgError
        raise ModelError("correlation matrix is not positive definite") from exc
    except Exception as exc:
        raise ModelError("correlation matrix is not positive definite") from exc
    return c


@dataclass(frozen=True, eq=False)
class RandomVector:
    """Joint input model: independent marginals + Gaussian-copula correlation.

    The isoprobabilistic transform maps physical coordinates x to
    independent standard normal coordinates u:

        z_i = PhiInv(F_i(x_i)),   u = L^-1 z

    where L is the lower Cholesky factor of the copula correlation matrix
    (L = I for independent inputs).  ``from_standard`` is the exact inverse.
    """

    marginals: tuple[Marginal, ...]
    correlation: np.ndarray | None = None

    def __post_init__(self):
        margs = tuple(self.marginals)
        if len(margs) < 1:
            raise ModelError("RandomVector needs at least one marginal")
        object.__setattr__(self, "marginals", margs)
        corr = _as_correlation(self.correlation, len(margs))
        object.__setattr__(self, "correlation", corr)

    @property
    def dimension(self) -> int:
        return len(self.marginals)

    @property
    def is_independent(self) -> bool:
        return self.correlation is None

    @cached_property
    def _chol(self) -> np.ndarray | None:
        if self.correlation is None:
            return None
        return cholesky(self.correlation, lower=True)

    # -- transforms --------------------------------------------------------

    def to_standard(self, x) -> np.ndarray:
        """Map physical rows (n, M) to independent standard normal coordinates.

        Raises :class:`DomainError` if any component lies outside the open
        support of its marginal.
        """
        pts = np.asarray(x, dtype=float)
        self._check_dim(pts)
        z = np.empty_like(pts)
        for i, marg in enumerate(self.marginals):
            lo, hi = marg.support
            col = pts[:, i]
            if np.any(col <= lo) or np.any(col >= hi):
                raise DomainError(
                    f"component {i} outside open support ({lo}, {hi}) of {marg.family}"
                )
            # Gaussian-type marginals map by arithmetic; the rest by the CDF,
            # or above the median by the survival function, which keeps the tail.
            p = marg.params
            if marg.family == "gaussian":
                z[:, i] = (col - p[0]) / p[1]
            elif marg.family == "lognormal":
                z[:, i] = (np.log(col) - p[0]) / p[1]
            else:
                cdf = marg.cdf(col)
                up = cdf > 0.5
                z[:, i] = ndtri(np.maximum(cdf, _P_LO))
                z[up, i] = -ndtri(np.maximum(marg.sf(col[up]), _P_LO))
        if self._chol is not None:
            z = solve_triangular(self._chol, z.T, lower=True).T
        return z

    def from_standard(self, u) -> np.ndarray:
        """Inverse isoprobabilistic transform of rows (n, M), standard normal -> physical."""
        pts = np.asarray(u, dtype=float)
        self._check_dim(pts)
        if not np.isfinite(pts).all():
            raise DomainError("standard-space point has non-finite components")
        return self._physical(pts)

    def _physical(self, u: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """x from standard normal rows u; with ``rng``, the free columns are drawn from it."""
        z = u @ self._chol.T if self._chol is not None else u
        x = np.empty_like(z)
        free = self._free if rng is not None else ()
        for i, marg in enumerate(self.marginals):
            if i in free:
                continue
            p = marg.params
            if marg.family == "gaussian":
                x[:, i] = p[0] + p[1] * z[:, i]
            elif marg.family == "lognormal":
                x[:, i] = np.exp(p[0] + p[1] * z[:, i])
            elif marg.family == "uniform":
                x[:, i] = p[0] + (p[1] - p[0]) * ndtr(z[:, i])
            else:  # above the median by the inverse survival function, which keeps the tail
                up = z[:, i] > 0.0
                x[~up, i] = marg.quantile(ndtr(z[~up, i]))
                x[up, i] = marg._inverse("isf", ndtr(-z[up, i]))
        for i in free:  # drawn after u, so that the other columns keep their draws
            p, n = self.marginals[i].params, x.shape[0]
            if self.marginals[i].family == "gamma":
                x[:, i] = rng.gamma(p[0], p[1], n)
            else:
                x[:, i] = p[2] + (p[3] - p[2]) * rng.beta(p[0], p[1], n)
        if not np.all(np.isfinite(x)):
            raise OverflowError("inverse transform overflowed the marginal range")
        return x

    @cached_property
    def _free(self) -> tuple[int, ...]:
        """The beta and gamma columns that the copula leaves independent of the others."""
        c = np.eye(self.dimension) if self.correlation is None else self.correlation
        lone = np.count_nonzero(c, axis=0) + np.count_nonzero(c, axis=1) == 2  # the diagonal only
        families = [marg.family for marg in self.marginals]
        return tuple(i for i, f in enumerate(families) if f in ("beta", "gamma") and lone[i])

    # -- densities ---------------------------------------------------------

    def joint_pdf(self, x) -> np.ndarray:
        """Joint density at rows x (n, M); zero outside the support."""
        pts = np.asarray(x, dtype=float)
        self._check_dim(pts)
        dens = np.ones(pts.shape[0])
        for i, marg in enumerate(self.marginals):
            dens *= marg.pdf(pts[:, i])
        if self._chol is not None:
            dens *= self._copula_density(pts)
        return np.where(np.isfinite(dens), dens, 0.0)

    def _copula_density(self, pts: np.ndarray) -> np.ndarray:
        """Gaussian-copula factor of the density; 0 on rows outside an open support."""
        lo, hi = np.array([marg.support for marg in self.marginals]).T
        inside = np.all((pts > lo) & (pts < hi), axis=1)
        y = self.to_standard(pts[inside])
        z = y @ self._chol.T
        quad = np.einsum("ij,ij->i", y, y) - np.einsum("ij,ij->i", z, z)
        dens = np.zeros(pts.shape[0])
        dens[inside] = np.exp(-0.5 * quad) / np.prod(np.diag(self._chol))
        return dens

    # -- moments -----------------------------------------------------------

    def means(self) -> np.ndarray:
        return np.array([m.mean() for m in self.marginals])

    def stds(self) -> np.ndarray:
        return np.array([m.std() for m in self.marginals])

    def covariance(self) -> np.ndarray:
        """Covariance matrix D C D with D = diag(marginal stds).

        Exact for Gaussian marginals; for non-Gaussian marginals under the
        Gaussian copula this treats the copula correlation as the
        product-moment correlation, which is the usual first-order model.
        """
        d = self.stds()
        c = np.eye(self.dimension) if self.correlation is None else self.correlation
        return np.outer(d, d) * c

    # -- sampling ----------------------------------------------------------

    def sample(self, n: int, scheme: str = "monte_carlo", seed=None) -> np.ndarray:
        """Draw n rows of X.

        ``scheme``:
          * ``"monte_carlo"`` -- independent draws: ``from_standard`` of an
            (n, M) block of standard normals, except that a beta or gamma
            column left independent by the correlation is then drawn by
            numpy's own generator (exact in law, no inverse CDF).
          * ``"latin_hypercube"`` -- one point in each of the n equiprobable
            strata of every marginal; for correlated inputs the
            stratification applies to the independent copula coordinates.

        Deterministic for a given integer seed.
        """
        if n < 1:
            raise ValueError("sample size must be >= 1")
        rng = make_rng(seed)
        m = self.dimension
        if scheme == "monte_carlo":
            return self._physical(rng.standard_normal((n, m)), rng)
        if scheme == "latin_hypercube":
            p = _latin_hypercube(rng, n, m)
            if self.is_independent:
                x = np.empty((n, m))
                for j, marg in enumerate(self.marginals):
                    x[:, j] = marg.quantile(p[:, j])
                return x
            return self.from_standard(ndtri(np.clip(p, _P_LO, _P_HI)))
        raise ValueError(f"unknown sampling scheme {scheme!r}")

    def _check_dim(self, pts: np.ndarray):
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(
                f"expected points with {self.dimension} columns, got shape {pts.shape}"
            )

    def to_dict(self) -> dict:
        return {
            "marginals": [m.to_dict() for m in self.marginals],
            "correlation": None if self.correlation is None else self.correlation.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomVector":
        corr = d.get("correlation")
        return cls(
            tuple(Marginal.from_dict(m) for m in d["marginals"]),
            None if corr is None else np.asarray(corr, dtype=float),
        )


def standard_normal_vector(m: int) -> RandomVector:
    """Independent standard normal inputs of dimension m."""
    return RandomVector(tuple(Marginal.gaussian(0.0, 1.0) for _ in range(m)))
