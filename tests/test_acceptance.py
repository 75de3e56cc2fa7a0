"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints the measured numbers next to the stated
tolerance so a failure is diagnosable from the log alone.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from reliakit import (
    CorrelationKernel,
    ExperimentalDesign,
    InstrumentalDensity,
    LimitState,
    PceBasis,
    PolynomialFamily,
    RandomVector,
    Marginal,
    ak_mcs,
    basis_for,
    benchmark_linear,
    benchmark_waarts,
    estimate_is,
    estimate_mc,
    evaluate_batch,
    form,
    gauss_rule,
    initial_design,
    kernel_matrix,
    krig_build,
    krig_pf_bounds,
    krig_predict_batch,
    mc_cov,
    metais_estimate,
    pce_fit_regression,
    pce_moments,
    physical_to_basis,
    standard_normal_vector,
    truncation_set,
)

# reference failure probability of the four-branch benchmark.  In rotated
# coordinates s = (x1 + x2)/sqrt(2), t = (x1 - x2)/sqrt(2) failure is
# |s| >= 3 + t^2/5 or |t| >= 3.5, so
#   pf = 2 Phi(-3.5) + int_{|t| < 3.5} phi(t) 2 Phi(-(3 + t^2/5)) dt
#      = 2.222795e-3 (scipy.integrate.quad)
FOUR_BRANCH_PF = 2.2228e-3


def test_acceptance_01_four_branch_crude_monte_carlo():
    """Five seeded MC runs at N=172000 all land in the 3-sigma band."""
    n = 172_000
    sigma = math.sqrt(FOUR_BRANCH_PF * (1.0 - FOUR_BRANCH_PF) / n)
    lo, hi = FOUR_BRANCH_PF - 3.0 * sigma, FOUR_BRANCH_PF + 3.0 * sigma
    ls = benchmark_waarts()
    rv = standard_normal_vector(2)
    estimates = [estimate_mc(ls, rv, n, seed=s).pf for s in range(5)]
    print(f"[criterion 1] pf estimates {estimates} vs band [{lo:.4e}, {hi:.4e}]")
    for pf in estimates:
        assert lo <= pf <= hi


def test_acceptance_02_four_branch_meta_is():
    """Surrogate-corrected IS: 15% accuracy at <= 100+200 calls, under a minute."""
    ls = benchmark_waarts()
    rv = standard_normal_vector(2)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = metais_estimate(ls, rv, n_corr=200, budget=100, seed=0)
    elapsed = time.perf_counter() - t0
    rel_err = abs(res.pf - FOUR_BRANCH_PF) / FOUR_BRANCH_PF
    print(
        f"[criterion 2] pf={res.pf:.4e} err={rel_err:.1%} cov={res.cov_total:.3f} "
        f"calls={res.n_model_calls_doe}+{res.n_model_calls_corr} t={elapsed:.1f}s"
    )
    assert res.n_model_calls_doe <= 100
    assert res.n_model_calls_corr == 200
    assert rel_err <= 0.15
    assert res.cov_total <= 0.10
    assert elapsed < 60.0


def test_acceptance_03_meta_is_unbiased_where_substitution_is_not():
    """A deliberately coarse surrogate biases substitution but not meta-IS."""
    rv = standard_normal_vector(2)
    ls = benchmark_linear(2.0, dimension=2)
    pf_true = float(ndtr(-2.0))
    pts = initial_design(rv, 8, seed=77)
    coarse = krig_build(
        ExperimentalDesign(pts, evaluate_batch(ls, pts)),
        "constant",
        CorrelationKernel((0.8, 0.8)),
    )
    n_seeds, n_sweep = 50, 30_000
    meta = np.empty(n_seeds)
    sub = np.empty(n_seeds)
    for s in range(n_seeds):
        res = metais_estimate(ls, rv, n_epsilon=n_sweep, n_corr=200, model=coarse, seed=s)
        meta[s] = res.pf
        xs = rv.sample(n_sweep, seed=1000 + s)
        mu, _ = krig_predict_batch(coarse, xs)
        sub[s] = float(np.mean(mu <= 0.0))
    se_meta = meta.std(ddof=1) / math.sqrt(n_seeds)
    se_sub = sub.std(ddof=1) / math.sqrt(n_seeds)
    z_meta = (meta.mean() - pf_true) / se_meta
    z_sub = (sub.mean() - pf_true) / se_sub
    print(
        f"[criterion 3] meta mean={meta.mean():.4e} z={z_meta:+.2f} | "
        f"substitution mean={sub.mean():.4e} z={z_sub:+.1f} (truth {pf_true:.4e})"
    )
    assert abs(z_meta) <= 3.0
    assert abs(z_sub) > 3.0


def test_acceptance_04_form_exactness():
    """Linear problems solved to 1e-6; four-branch index 3.0 to 1e-3."""
    betas = []
    for beta0 in (1.0, 2.0, 3.0, 4.0):
        res = form(benchmark_linear(beta0, dimension=2), standard_normal_vector(2))
        betas.append(res.beta)
        assert res.beta == pytest.approx(beta0, abs=1e-6)
        assert res.pf == pytest.approx(float(ndtr(-beta0)), rel=1e-5)
    waarts = form(benchmark_waarts(), standard_normal_vector(2))
    print(f"[criterion 4] linear betas {betas}; four-branch beta {waarts.beta:.6f}")
    assert waarts.beta == pytest.approx(3.0, abs=1e-3)


@pytest.mark.parametrize(
    "family",
    [
        PolynomialFamily("hermite"),
        PolynomialFamily("legendre"),
        PolynomialFamily("laguerre", alpha=1.4),
        PolynomialFamily("jacobi", alpha=2.0, beta=0.5),
    ],
    ids=["hermite", "legendre", "laguerre", "jacobi"],
)
def test_acceptance_05_orthonormality(family):
    """Gram matrices equal identity to 1e-10 for M <= 3, p <= 5."""
    worst = 0.0
    for m in (1, 2, 3):
        basis = PceBasis((family,) * m, truncation_set(m, 5))
        nodes, wts = gauss_rule(family, 6)
        grids = np.meshgrid(*([nodes] * m), indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        wgrids = np.meshgrid(*([wts] * m), indexing="ij")
        w = np.prod([wg.ravel() for wg in wgrids], axis=0)
        psi = basis.evaluate(pts)
        gram = (psi * w[:, None]).T @ psi
        dev = float(np.max(np.abs(gram - np.eye(len(basis.indices)))))
        worst = max(worst, dev)
        assert dev <= 1e-10
    print(f"[criterion 5] {family.kind}: worst Gram deviation {worst:.2e}")


def test_acceptance_06_exact_polynomial_recovery():
    """Random polynomials recovered from 3x-oversampled designs to 1e-9."""
    cases = [
        (
            RandomVector((Marginal.gaussian(1.0, 2.0), Marginal.uniform(-1.0, 3.0))),
            3,
        ),
        (
            RandomVector(
                (
                    Marginal.gaussian(0.0, 1.0),
                    Marginal.gamma(2.5, 1.2),
                    Marginal.beta(2.0, 3.0, 0.0, 1.0),
                )
            ),
            2,
        ),
    ]
    worst_c = worst_m = 0.0
    for case_i, (rv, degree) in enumerate(cases):
        basis = basis_for(rv, degree)
        rng = np.random.default_rng(40 + case_i)
        coeffs = rng.normal(size=len(basis.indices))

        def g_vec(xs, _c=coeffs, _b=basis, _rv=rv):
            return _b.evaluate(physical_to_basis(_rv, np.atleast_2d(xs))) @ _c

        ls = LimitState(rv.dimension, lambda x: float(g_vec(x)[0]), vector_evaluator=g_vec)
        n = 3 * len(basis.indices)
        x = rv.sample(n, scheme="latin_hypercube", seed=50 + case_i)
        design = ExperimentalDesign(x, evaluate_batch(ls, x))
        model = pce_fit_regression(rv, basis, design)
        c_err = float(np.max(np.abs(model.coefficients - coeffs)))
        mean, var = pce_moments(model)
        m_err = max(
            abs(mean - coeffs[0]), abs(var - float(np.sum(coeffs[1:] ** 2)))
        )
        worst_c, worst_m = max(worst_c, c_err), max(worst_m, m_err)
        assert c_err <= 1e-9
        assert m_err <= 1e-9
    print(f"[criterion 6] worst coefficient error {worst_c:.2e}, moment error {worst_m:.2e}")


def test_acceptance_07_kriging_closed_forms():
    """Interpolation to 1e-6 of the response range; GLS terms to 1e-8."""
    rng = np.random.default_rng(60)
    x = np.sort(rng.uniform(0.0, 3.0, size=12))[:, None]
    y = np.sin(2.0 * x[:, 0]) + 0.3 * x[:, 0]
    design = ExperimentalDesign(x, y)
    kernel = CorrelationKernel((0.7,))
    model = krig_build(design, "constant", kernel)

    mu, _ = krig_predict_batch(model, x)
    interp = float(np.max(np.abs(mu - y))) / float(np.ptp(y))

    r = kernel_matrix(kernel, x, nugget=model.nugget)
    rinv = np.linalg.inv(r)
    f = np.ones((12, 1))
    a_oracle = float(np.linalg.solve(f.T @ rinv @ f, f.T @ rinv @ y)[0])
    resid = y - a_oracle
    s2_oracle = float(resid @ rinv @ resid) / 12.0
    a_err = abs(float(model.a[0]) - a_oracle)
    s2_err = abs(model.sigma2 - s2_oracle)
    print(
        f"[criterion 7] interpolation {interp:.2e} of range; "
        f"trend error {a_err:.2e}, variance error {s2_err:.2e}"
    )
    assert interp <= 1e-6
    assert a_err <= 1e-8
    assert s2_err <= 1e-8


def test_acceptance_08_adaptive_kriging_efficiency():
    """Bounds spread <= 10% within 150 calls; surrogate pf within 10%."""
    ls = benchmark_waarts()
    rv = standard_normal_vector(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = ak_mcs(ls, rv, n_pool=100_000, budget=150, seed=2026)
    lo, mid, hi = krig_pf_bounds(out.model, rv, k=1.96, n=1_000_000, seed=103)
    spread = (hi - lo) / mid
    rel_err = abs(mid - FOUR_BRANCH_PF) / FOUR_BRANCH_PF
    print(
        f"[criterion 8] calls={out.n_calls} spread={spread:.3f} "
        f"pf={mid:.4e} err={rel_err:.1%}"
    )
    assert out.n_calls <= 150
    assert spread <= 0.10
    assert rel_err <= 0.10


def test_acceptance_09_optimal_is_zero_variance():
    """The conditional-density instrumental yields constant weights = Pf."""
    beta0 = 2.5
    pf = float(ndtr(-beta0))
    direction = np.array([1.0, 0.0])
    ls = benchmark_linear(beta0, direction=direction)
    rv = standard_normal_vector(2)
    h = InstrumentalDensity.linear_optimal(beta0, direction)
    xs = h.sampler(np.random.default_rng(70), 2000)
    w = rv.joint_pdf(xs) / h.density(xs)
    spread = float(np.max(w) - np.min(w))
    res = estimate_is(ls, h, rv.joint_pdf, 2000, seed=71)
    print(
        f"[criterion 9] weight spread {spread:.2e}; pf {res.pf:.10e} "
        f"(target {pf:.10e}); cov {res.cov:.2e}"
    )
    assert spread <= 1e-12
    np.testing.assert_allclose(w, pf, rtol=1e-12)
    assert res.pf == pytest.approx(pf, rel=1e-12)
    assert res.cov <= 1e-12


def test_acceptance_10_monte_carlo_cov_law():
    """Empirical CoV over 100 repetitions matches the 1/sqrt(N pf) law."""
    pf = 1e-2
    beta0 = -float(stats.norm.ppf(pf))
    ls = benchmark_linear(beta0, dimension=2)
    rv = standard_normal_vector(2)
    n = 10_000
    reps = np.array([estimate_mc(ls, rv, n, seed=s).pf for s in range(100)])
    empirical = reps.std(ddof=1) / reps.mean()
    theory = mc_cov(pf, n)
    rel_dev = abs(empirical - theory) / theory
    print(
        f"[criterion 10] empirical CoV {empirical:.4f} vs theory {theory:.4f} "
        f"({rel_dev:.1%} relative)"
    )
    assert rel_dev <= 0.20
