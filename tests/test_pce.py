"""Orthonormal polynomial bases and chaos expansions."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import reliakit
from reliakit import (
    EvalLedger,
    ExperimentalDesign,
    FitError,
    LimitState,
    Marginal,
    PceBasis,
    PceModel,
    PolynomialFamily,
    RandomVector,
    basis_for,
    basis_to_physical,
    benchmark_linear,
    evaluate_batch,
    gauss_rule,
    orthonormal_table,
    pce_adaptive,
    pce_estimate,
    pce_fit_regression,
    pce_moments,
    pce_pf,
    physical_to_basis,
    qrs_fit,
    standard_normal_vector,
    truncation_set,
)

HERMITE = PolynomialFamily("hermite")
LEGENDRE = PolynomialFamily("legendre")


def gamma_family(shape):
    return PolynomialFamily("laguerre", alpha=shape - 1.0)


def beta_family(p, q):
    return PolynomialFamily("jacobi", alpha=q - 1.0, beta=p - 1.0)


class TestUnivariateTables:
    def test_degree_zero_is_one_everywhere(self):
        x = np.linspace(-3, 3, 7)
        for fam in (HERMITE, LEGENDRE, gamma_family(2.5), beta_family(2, 3)):
            np.testing.assert_allclose(orthonormal_table(fam, 0, np.abs(x) + 0.1)[:, 0], 1.0)

    def test_hermite_reference_points(self):
        assert orthonormal_table(HERMITE, 2, 0.0)[2] == pytest.approx(-1.0 / math.sqrt(2.0))
        assert orthonormal_table(HERMITE, 1, 1.5)[1] == pytest.approx(1.5)

    def test_legendre_reference_points(self):
        assert orthonormal_table(LEGENDRE, 1, 1.0)[1] == pytest.approx(math.sqrt(3.0))
        assert orthonormal_table(LEGENDRE, 2, 0.0)[2] == pytest.approx(-math.sqrt(5.0) / 2.0)

    def test_hermite_against_scipy(self):
        x = np.linspace(-4, 4, 41)
        tab = orthonormal_table(HERMITE, 8, x)
        for k in range(9):
            oracle = special.eval_hermitenorm(k, x) / math.sqrt(special.factorial(k))
            np.testing.assert_allclose(tab[:, k], oracle, rtol=1e-12, atol=1e-12)

    def test_legendre_against_scipy(self):
        x = np.linspace(-1, 1, 41)
        tab = orthonormal_table(LEGENDRE, 8, x)
        for k in range(9):
            oracle = special.eval_legendre(k, x) * math.sqrt(2.0 * k + 1.0)
            np.testing.assert_allclose(tab[:, k], oracle, rtol=1e-11, atol=1e-12)

    def test_laguerre_against_scipy(self):
        a = 1.7
        x = np.linspace(0.05, 12.0, 41)
        tab = orthonormal_table(PolynomialFamily("laguerre", alpha=a), 8, x)
        for k in range(9):
            # squared norm of L_k^a under the gamma weight is C(k+a, k)
            norm2 = math.exp(
                special.gammaln(k + a + 1) - special.gammaln(k + 1) - special.gammaln(a + 1)
            )
            oracle = special.eval_genlaguerre(k, a, x) / math.sqrt(norm2)
            np.testing.assert_allclose(tab[:, k], oracle, rtol=1e-10, atol=1e-12)

    def test_jacobi_against_scipy(self):
        a, b = 1.3, 0.4
        x = np.linspace(-0.98, 0.98, 41)
        tab = orthonormal_table(PolynomialFamily("jacobi", alpha=a, beta=b), 8, x)
        for k in range(9):
            ln_hk = (
                (a + b + 1.0) * math.log(2.0)
                - math.log(2.0 * k + a + b + 1.0)
                + special.gammaln(k + a + 1.0)
                + special.gammaln(k + b + 1.0)
                - special.gammaln(k + a + b + 1.0)
                - special.gammaln(k + 1.0)
            )
            ln_h0 = (
                (a + b + 1.0) * math.log(2.0)
                + special.gammaln(a + 1.0)
                + special.gammaln(b + 1.0)
                - special.gammaln(a + b + 2.0)
            )
            oracle = special.eval_jacobi(k, a, b, x) * math.exp(0.5 * (ln_h0 - ln_hk))
            np.testing.assert_allclose(tab[:, k], oracle, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize(
        "fam",
        [HERMITE, LEGENDRE, gamma_family(3.0), beta_family(2.0, 5.0)],
        ids=["hermite", "legendre", "laguerre", "jacobi"],
    )
    def test_univariate_gram_is_identity(self, fam):
        nodes, weights = gauss_rule(fam, 8)
        tab = orthonormal_table(fam, 5, nodes)
        gram = (tab * weights[:, None]).T @ tab
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)

    def test_gauss_weights_are_a_probability(self):
        for fam in (HERMITE, LEGENDRE, gamma_family(1.5), beta_family(3, 2)):
            _, w = gauss_rule(fam, 7)
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)
            assert np.all(w > 0)

    def test_gauss_nodes_match_scipy_hermite(self):
        nodes, _ = gauss_rule(HERMITE, 5)
        oracle = np.polynomial.hermite_e.hermegauss(5)[0]
        np.testing.assert_allclose(np.sort(nodes), np.sort(oracle), atol=1e-12)


class TestTruncation:
    def test_counts(self):
        assert len(truncation_set(2, 3)) == 10
        assert len(truncation_set(1, 5)) == 6
        assert truncation_set(3, 0) == ((0, 0, 0),)
        assert len(truncation_set(4, 3)) == math.comb(7, 3)

    def test_graded_lexicographic_order(self):
        got = truncation_set(2, 2)
        assert got == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_no_duplicates_and_bounded_degree(self):
        idx = truncation_set(3, 4)
        assert len(set(idx)) == len(idx)
        assert all(sum(a) <= 4 for a in idx)

    @pytest.mark.parametrize("m", range(1, 17))
    def test_same_as_the_filtered_tensor_grid(self, m):
        def brute_force(p):
            idx = [a for a in itertools.product(range(p + 1), repeat=m) if sum(a) <= p]
            return tuple(sorted(idx, key=lambda a: (sum(a), tuple(-c for c in a))))

        p_max = 0
        while (p_max + 2) ** m <= 100_000:
            p_max += 1
        # the set of degree <= p is the first C(m + p, p) indices of the largest
        want = brute_force(p_max)
        for p in sorted({*range(min(p_max, 12) + 1), p_max}):
            assert truncation_set(m, p) == want[: math.comb(m + p, p)], p

    def test_many_dimensions_without_the_tensor_grid(self):
        # the grid would hold 4^30 tuples
        script = "from reliakit import truncation_set; assert len(truncation_set(30, 3)) == 5456"
        env = dict(os.environ, PYTHONPATH=str(Path(reliakit.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr


class TestMultivariateBasis:
    def test_reference_evaluations(self):
        basis = PceBasis((HERMITE, HERMITE), truncation_set(2, 2))
        x = np.array([[1.0, 2.0]])
        vals = basis.evaluate(x)[0]
        assert vals[0] == pytest.approx(1.0)  # alpha = (0,0)
        assert vals[basis.indices.index((1, 1))] == pytest.approx(2.0)
        one = PceBasis(basis.families, ((2, 0),))
        assert one.evaluate(np.array([[0.0, 7.0]]))[0, 0] == pytest.approx(-1.0 / math.sqrt(2.0))

    def test_tensor_product_structure(self):
        basis = PceBasis((HERMITE, LEGENDRE), truncation_set(2, 3))
        x = np.array([[0.7, -0.2]])
        for i, alpha in enumerate(basis.indices):
            want = (
                orthonormal_table(HERMITE, alpha[0], 0.7)[alpha[0]]
                * orthonormal_table(LEGENDRE, alpha[1], -0.2)[alpha[1]]
            )
            assert basis.evaluate(x)[0, i] == pytest.approx(want, rel=1e-12)

    def test_basis_for_family_mapping(self):
        rv = RandomVector(
            (
                Marginal.gaussian(0, 1),
                Marginal.lognormal(0.1, 0.4),
                Marginal.uniform(-1, 2),
                Marginal.gamma(3.0, 2.0),
                Marginal.beta(2.0, 5.0, 0.0, 1.0),
            )
        )
        basis = basis_for(rv, 2)
        kinds = [f.kind for f in basis.families]
        assert kinds == ["hermite", "hermite", "legendre", "laguerre", "jacobi"]
        assert basis.families[3].alpha == pytest.approx(2.0)  # shape - 1
        assert basis.families[4].alpha == pytest.approx(4.0)  # q - 1
        assert basis.families[4].beta == pytest.approx(1.0)  # p - 1

    def test_correlated_vector_uses_hermite_everywhere(self):
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        rv = RandomVector((Marginal.uniform(0, 1), Marginal.gamma(2.0, 1.0)), corr)
        basis = basis_for(rv, 2)
        assert all(f.kind == "hermite" for f in basis.families)


class TestGramIdentity:
    @pytest.mark.parametrize(
        "families",
        [
            (HERMITE, LEGENDRE),
            (gamma_family(2.5), HERMITE),
            (beta_family(2, 4), LEGENDRE),
            (gamma_family(1.2), beta_family(3, 2)),
        ],
        ids=["hermite-legendre", "laguerre-hermite", "jacobi-legendre", "laguerre-jacobi"],
    )
    def test_mixed_family_gram_under_tensor_quadrature(self, families):
        basis = PceBasis(families, truncation_set(2, 3))
        n0, w0 = gauss_rule(families[0], 6)
        n1, w1 = gauss_rule(families[1], 6)
        xx, yy = np.meshgrid(n0, n1, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        w = np.outer(w0, w1).ravel()
        psi = basis.evaluate(pts)
        gram = (psi * w[:, None]).T @ psi
        np.testing.assert_allclose(gram, np.eye(len(basis.indices)), atol=1e-10)

    def test_monte_carlo_gram_converges(self):
        # sample average of psi_i psi_j under f drifts to delta_ij; loose
        # band because higher-degree terms have heavy-tailed products
        rv = RandomVector((Marginal.gamma(2.5, 1.3), Marginal.gaussian(1, 2)))
        basis = basis_for(rv, 2)
        from reliakit import physical_to_basis

        x = rv.sample(200_000, seed=0)
        psi = basis.evaluate(physical_to_basis(rv, x))
        gram = psi.T @ psi / x.shape[0]
        np.testing.assert_allclose(gram, np.eye(len(basis.indices)), atol=0.1)


class TestBasisMaps:
    MARGINALS = (
        Marginal.gaussian(1.0, 2.0),
        Marginal.uniform(-1.0, 3.0),
        Marginal.lognormal(0.5, 0.2),
        Marginal.gamma(3.0, 0.5),
        Marginal.beta(2.0, 5.0, 1.0, 4.0),
    )

    @pytest.mark.parametrize("correlated", [False, True], ids=["independent", "correlated"])
    def test_round_trip(self, correlated):
        corr = None
        if correlated:
            corr = np.eye(5)
            corr[0, 3] = corr[3, 0] = 0.4
            corr[1, 4] = corr[4, 1] = -0.3
        rv = RandomVector(self.MARGINALS, corr)
        x = rv.sample(200, seed=5)
        xi = physical_to_basis(rv, x)
        np.testing.assert_allclose(basis_to_physical(rv, xi), x, rtol=1e-10)
        one = basis_to_physical(rv, physical_to_basis(rv, x[:1]))
        assert one.shape == (1, 5)
        np.testing.assert_allclose(one, x[:1], rtol=1e-10)

    @pytest.mark.parametrize("correlated", [False, True], ids=["independent", "correlated"])
    def test_maps_take_rows_only(self, correlated):
        # one 1-D point is refused the same way whatever the input model
        corr = None
        if correlated:
            corr = np.eye(5)
            corr[0, 3] = corr[3, 0] = 0.4
        rv = RandomVector(self.MARGINALS, corr)
        assert rv.is_independent is not correlated
        point = rv.sample(1, seed=7)[0]
        for fn in (physical_to_basis, basis_to_physical):
            with pytest.raises(ValueError, match=r"expected points with 5 columns, got shape \(5,\)"):
                fn(rv, point)

    def test_basis_variables_lie_on_each_family_support(self):
        rv = RandomVector(self.MARGINALS)
        x = rv.sample(500, seed=6)
        xi = physical_to_basis(rv, x)
        np.testing.assert_allclose(xi[:, 0], (x[:, 0] - 1.0) / 2.0)
        np.testing.assert_allclose(xi[:, 2], (np.log(x[:, 2]) - 0.5) / 0.2)
        assert np.all(np.abs(xi[:, [1, 4]]) < 1.0)  # legendre, jacobi
        assert np.all(xi[:, 3] > 0.0)  # laguerre


class TestBasisFreeSum:
    """predict sums the expansion term by term; the basis matrix is the oracle."""

    @pytest.mark.parametrize(
        "degree, rows", [(4, 500), (0, 50), (4, 1)], ids=["degree4", "degree0", "one-row"]
    )
    def test_predict_matches_basis_matrix(self, degree, rows):
        rv = RandomVector(TestBasisMaps.MARGINALS)  # all five marginal families
        basis = basis_for(rv, degree)
        coef = np.random.default_rng(degree).normal(size=basis.size)
        model = PceModel(basis, coef, rv)
        x = rv.sample(rows, seed=8)
        want = basis.evaluate(physical_to_basis(rv, x)) @ coef
        got = model.predict(x)
        assert got.shape == (rows,)
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def _parent_table(family, degree, x):
    """orthonormal_table as it read before rows were built in place: the oracle."""
    x = np.asarray(x, dtype=float)
    out = np.empty((degree + 1,) + x.shape)
    tab = np.moveaxis(out, 0, -1)
    out[0] = 1.0
    ks = np.arange(degree + 1)
    if family.kind == "hermite":
        if degree >= 1:
            out[1] = x
        for k in range(1, degree):
            out[k + 1] = x * out[k] - k * out[k - 1]
        tab /= np.exp(0.5 * special.gammaln(ks + 1.0))
    elif family.kind == "legendre":
        if degree >= 1:
            out[1] = x
        for k in range(1, degree):
            out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
        tab *= np.sqrt(2.0 * ks + 1.0)
    elif family.kind == "laguerre":
        a = family.alpha
        if degree >= 1:
            out[1] = 1.0 + a - x
        for k in range(1, degree):
            out[k + 1] = ((2 * k + a + 1 - x) * out[k] - (k + a) * out[k - 1]) / (k + 1)
        g = special.gammaln
        tab *= np.exp(0.5 * (g(ks + 1.0) + g(a + 1.0) - g(ks + a + 1.0)))
    else:
        a, b = family.alpha, family.beta
        if degree >= 1:
            out[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
        for k in range(2, degree + 1):
            c1 = 2.0 * k * (k + a + b) * (2 * k + a + b - 2)
            c2 = (2 * k + a + b - 1) * (a * a - b * b)
            c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
            c4 = 2.0 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
            out[k] = ((c2 + c3 * x) * out[k - 1] - c4 * out[k - 2]) / c1
        g, ks = special.gammaln, ks[1:]
        ln_h0 = (a + b + 1.0) * math.log(2.0) + g(a + 1.0) + g(b + 1.0) - g(a + b + 2.0)
        ln_hk = (
            (a + b + 1.0) * math.log(2.0) - np.log(2.0 * ks + a + b + 1.0)
            + g(ks + a + 1.0) + g(ks + b + 1.0) - g(ks + a + b + 1.0) - g(ks + 1.0)
        )
        tab[..., 1:] *= np.exp(0.5 * (ln_h0 - ln_hk))
    return tab


def _untiled_sum(model, xi):
    """PceModel._at_basis as it read before the sum was tiled: the oracle."""
    out, term = np.zeros(xi.shape[0]), np.empty(xi.shape[0])
    for j, prod in model.basis._products(xi):
        out += np.multiply(prod, model.coefficients[j], out=term)
    return out


class TestInPlaceSum:
    """Tables built in place and tiled sums give the parent's bits exactly."""

    FAMILIES = (
        HERMITE,
        LEGENDRE,
        gamma_family(2.5),
        gamma_family(0.5),
        beta_family(2, 3),
        PolynomialFamily("jacobi", alpha=-0.5, beta=-0.5),  # the a + b = -1 pole
    )

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.kind}{f.alpha}")
    @pytest.mark.parametrize("degree", [0, 1, 2, 7])
    def test_table_is_the_parent_expression(self, fam, degree):
        x = np.random.default_rng(degree).uniform(-0.99, 0.99, size=300)
        if fam.kind == "laguerre":
            x = 4.0 * np.abs(x)
        for pts in (x, x[::3], x.reshape(20, 15), float(x[0])):
            got = orthonormal_table(fam, degree, pts)
            want = _parent_table(fam, degree, pts)
            assert got.shape == want.shape == np.shape(pts) + (degree + 1,)
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def models():
        rv, _ = TestGermSweep.compare_problem()
        compare = basis_for(rv, 6)  # the correlated compare problem: a Hermite germ
        mixed = PceBasis(
            (HERMITE, LEGENDRE, gamma_family(2.5), beta_family(2, 3)), truncation_set(4, 4)
        )
        rng = np.random.default_rng(3)
        return {
            "compare_degree6": PceModel(compare, rng.normal(size=compare.size), rv),
            "mixed_families": PceModel(mixed, rng.normal(size=mixed.size), rv),
        }

    @staticmethod
    def germ(kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "compare_degree6":
            return rng.standard_normal((n, 4))
        return np.column_stack(
            [rng.standard_normal(n), rng.uniform(-1, 1, n), rng.gamma(2.5, size=n),
             rng.uniform(-1, 1, n)]
        )

    @pytest.mark.parametrize("kind", ["compare_degree6", "mixed_families"])
    def test_tiled_sum_is_the_untiled_sum(self, kind):
        model = self.models()[kind]
        tile = reliakit.pce._TILE
        for rows in (1, tile - 1, tile, tile + 1, 3 * tile + 7):
            xi = self.germ(kind, rows, rows)
            np.testing.assert_array_equal(model._at_basis(xi), _untiled_sum(model, xi))

    def test_sum_memory_stays_within_tiles(self):
        model = self.models()["compare_degree6"]
        xi = self.germ("compare_degree6", 100_000, 4)
        tracemalloc.start()
        try:
            model._at_basis(xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # whole-block tables alone hold 4 x 7 x 100,000 floats (22.4 MB)
        assert peak < 8e6


def _design_for(rv, ls, n, seed):
    x = rv.sample(n, scheme="latin_hypercube", seed=seed)
    return ExperimentalDesign(x, evaluate_batch(ls, x))


class TestRegression:
    def test_constant_function(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: 2.0)
        model = pce_fit_regression(rv, basis_for(rv, 2), _design_for(rv, ls, 30, 0))
        assert model.coefficient((0, 0)) == pytest.approx(2.0, abs=1e-10)
        others = [c for a, c in zip(model.basis.indices, model.coefficients) if sum(a) > 0]
        np.testing.assert_allclose(others, 0.0, atol=1e-10)

    def test_thin_design_is_recorded_without_warning(self):
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        basis = basis_for(rv, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = pce_fit_regression(rv, basis, _design_for(rv, ls, basis.size + 1, 1))
        assert model.diagnostics["n_points"] < 2 * model.diagnostics["basis_size"]

    def test_too_few_points_raises(self):
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        basis = basis_for(rv, 3)
        with pytest.raises(FitError):
            pce_fit_regression(rv, basis, _design_for(rv, ls, 5, 2))

    def test_empirical_error_near_zero_on_exact_model(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: 1.0 + x[0] + 0.5 * x[0] * x[1])
        model = pce_fit_regression(rv, basis_for(rv, 2), _design_for(rv, ls, 40, 3))
        assert model.diagnostics["empirical_error"] < 1e-16
        assert model.diagnostics["loo_error"] < 1e-12

    def test_residual_orthogonality(self):
        # least-squares residuals are orthogonal to every regressor column
        from reliakit import physical_to_basis

        rv = standard_normal_vector(2)
        ls = benchmark_waarts_like()
        basis = basis_for(rv, 3)
        design = _design_for(rv, ls, 60, 4)
        model = pce_fit_regression(rv, basis, design)
        psi = basis.evaluate(physical_to_basis(rv, design.points))
        resid = design.responses - psi @ model.coefficients
        inner = psi.T @ resid
        scale = np.linalg.norm(psi, axis=0) * np.linalg.norm(resid) + 1e-30
        np.testing.assert_allclose(inner / scale, 0.0, atol=1e-8)


def benchmark_waarts_like():
    from reliakit import benchmark_waarts

    return benchmark_waarts()


class TestMomentsAndPf:
    def test_mean_is_leading_coefficient(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: 2.0)
        model = pce_fit_regression(rv, basis_for(rv, 1), _design_for(rv, ls, 20, 6))
        mean, var = pce_moments(model)
        assert mean == pytest.approx(2.0, abs=1e-10)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_variance_sums_squared_coefficients(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: 3.0 * x[0])
        model = pce_fit_regression(rv, basis_for(rv, 1), _design_for(rv, ls, 20, 7))
        mean, var = pce_moments(model)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(9.0, rel=1e-9)

    def test_quadratic_mixed_moments(self):
        # g = u1^2 + u1 u2 has mean 1 and variance 2 + 1 = 3
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: x[0] ** 2 + x[0] * x[1])
        model = pce_fit_regression(rv, basis_for(rv, 2), _design_for(rv, ls, 40, 8))
        mean, var = pce_moments(model)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert var == pytest.approx(3.0, rel=1e-9)

    def test_moments_match_surrogate_sampling(self):
        rv = RandomVector((Marginal.uniform(-1, 1), Marginal.gamma(2.0, 1.0)))
        ls = LimitState(2, lambda x: math.sin(x[0]) + 0.1 * x[1] ** 2)
        model = pce_fit_regression(rv, basis_for(rv, 4), _design_for(rv, ls, 150, 9))
        mean, var = pce_moments(model)
        x = rv.sample(1_000_000, seed=10)
        y = model.predict(x)
        assert mean == pytest.approx(float(np.mean(y)), abs=4.0 * y.std() / 1000.0)
        assert var == pytest.approx(float(np.var(y)), rel=0.01)

    def test_pf_of_certain_failure(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: -1.0)
        model = pce_fit_regression(rv, basis_for(rv, 1), _design_for(rv, ls, 20, 11))
        res = pce_pf(model, 10_000, seed=12)
        assert res.pf == 1.0
        assert res.cov == 0.0
        assert res.n_calls == 0  # surrogate sweeps are free

    def test_pf_linear_matches_normal_tail(self):
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        model = pce_fit_regression(rv, basis_for(rv, 1), _design_for(rv, ls, 20, 13))
        res = pce_pf(model, 1_000_000, seed=14)
        pf = float(stats.norm.cdf(-2.0))
        assert abs(res.pf - pf) <= 3.0 * res.cov * res.pf

    def test_pf_cov_halves_with_quadruple_n(self):
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        model = pce_fit_regression(rv, basis_for(rv, 1), _design_for(rv, ls, 20, 15))
        small = pce_pf(model, 50_000, seed=16)
        large = pce_pf(model, 200_000, seed=16)
        assert large.cov == pytest.approx(small.cov / 2.0, rel=0.15)


class TestGermSweep:
    """Under a correlation pce_pf predicts at the drawn standard-normal germ."""

    N = 250_001  # three sweep blocks, the last one partial

    @staticmethod
    def compare_problem():
        # the inputs of the benchmark's compare problem: g = x1 x2 - x3 - x4
        corr = np.eye(4)
        corr[0, 3] = corr[3, 0] = 0.3
        rv = RandomVector(
            (
                Marginal.lognormal(2.7, 0.1),
                Marginal.beta(8.0, 2.0, 0.0, 1.0),
                Marginal.gamma(4.0, 0.5),
                Marginal.gaussian(2.0, 0.5),
            ),
            corr,
        )
        ls = LimitState(4, vector_evaluator=lambda x: x[:, 0] * x[:, 1] - x[:, 2] - x[:, 3])
        return rv, pce_fit_regression(rv, basis_for(rv, 3), _design_for(rv, ls, 70, 17))

    def test_pf_is_a_count_over_the_standard_normal_stream(self, monkeypatch):
        rv, model = self.compare_problem()
        assert not rv.is_independent
        with monkeypatch.context() as mp:  # no map from x back to the germ
            mp.setattr(RandomVector, "to_standard", None)
            res = pce_pf(model, self.N, seed=18)
        u = np.random.default_rng(18).standard_normal((self.N, 4))
        g = np.concatenate(
            [model.basis.evaluate(b) @ model.coefficients for b in np.array_split(u, 3)]
        )
        nf = int(np.count_nonzero(g <= 0.0))
        assert 0 < nf < self.N
        assert res.pf == nf / self.N
        # the same rows as the physical draws they are mapped to
        x = rv.from_standard(u)
        assert nf == np.count_nonzero(model.predict(x) <= 0.0)

    def test_germ_predictions_match_physical_round_trip(self):
        rv, model = self.compare_problem()
        u = np.random.default_rng(19).standard_normal((10_000, 4))
        want = model.predict(rv.from_standard(u))
        got = model._at_basis(u)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


class TestLeaveOneOut:
    def test_near_zero_on_exact_recovery(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: 1.0 + x[0] - 0.3 * x[1])
        basis = basis_for(rv, 1)
        err = pce_fit_regression(rv, basis, _design_for(rv, ls, 30, 17)).diagnostics["loo_error"]
        assert err < 1e-10

    @staticmethod
    def pce_on(rv, basis, pts, y):
        model = pce_fit_regression(rv, basis, ExperimentalDesign(pts, y))
        return model.diagnostics["loo_error"], model.predict

    @staticmethod
    def qrs_on(rv, basis, pts, y):
        surf = qrs_fit(pts, y)
        return surf.diagnostics["loo_error"], surf.predict

    @pytest.mark.parametrize("fit", ["pce", "qrs"])
    def test_matches_brute_force_refits(self, fit):
        # hat-matrix shortcut against literally refitting without each point
        fit_on = getattr(self, f"{fit}_on")
        rv = standard_normal_vector(2)
        ls = benchmark_waarts_like()
        basis = basis_for(rv, 2)
        design = _design_for(rv, ls, 20, 18)
        x, y = design.points, design.responses
        fast, _ = fit_on(rv, basis, x, y)

        n = design.size
        sq = []
        for i in range(n):
            keep = np.arange(n) != i
            _, predict = fit_on(rv, basis, x[keep], y[keep])
            sq.append((y[i] - float(predict(x[i][None, :])[0])) ** 2)
        brute = (sum(sq) / n) / float(np.var(y))
        assert fast == pytest.approx(brute, rel=1e-8)

    def test_noise_only_model_scores_near_one(self):
        # predicting white noise with a constant leaves the variance intact
        rng = np.random.default_rng(19)
        rv = standard_normal_vector(1)
        basis = basis_for(rv, 0)
        vals = []
        for _ in range(50):
            x = rv.sample(40, seed=int(rng.integers(1 << 31)))
            y = rng.normal(size=40)
            model = pce_fit_regression(rv, basis, ExperimentalDesign(x, y))
            vals.append(model.diagnostics["loo_error"])
        assert np.mean(vals) == pytest.approx(1.0, rel=0.25)


class TestAdaptive:
    def test_quadratic_stops_at_degree_two(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: 1.0 + x[0] ** 2 + 0.5 * x[0] * x[1])
        model = pce_adaptive(ls, rv, target_err=1e-8, p_max=6, seed=20)
        assert model.diagnostics["degree"] == 2
        assert model.diagnostics["converged"] is True

    def test_pure_quartic_needs_degree_four(self):
        rv = standard_normal_vector(1)
        ls = LimitState(1, lambda x: x[0] ** 4)
        model = pce_adaptive(ls, rv, target_err=1e-8, p_max=6, seed=21)
        assert model.diagnostics["degree"] == 4

    def test_discontinuous_target_does_not_converge(self):
        rv = standard_normal_vector(1)
        ls = LimitState(1, lambda x: 1.0 if x[0] > 0 else -1.0)
        model = pce_adaptive(ls, rv, target_err=1e-4, p_max=3, seed=22)
        assert model.diagnostics["converged"] is False

    def test_a_degree_whose_fit_fails_is_skipped(self, monkeypatch):
        # degree 1 would fit this plane exactly; with its fit failing, degree 2 does,
        # on the design grown to twice its 6 terms
        fit = reliakit.pce.pce_fit_regression

        def failing_at_degree_one(rv, basis, design):
            if max(map(sum, basis.indices)) == 1:
                raise FitError("rank-deficient design")
            return fit(rv, basis, design)

        monkeypatch.setattr(reliakit.pce, "pce_fit_regression", failing_at_degree_one)
        rv = standard_normal_vector(2)
        model = pce_adaptive(benchmark_linear(2.0, dimension=2), rv, 1e-8, 4, seed=23)
        assert model.diagnostics["converged"] is True
        assert (model.diagnostics["degree"], model.diagnostics["n_true_calls"]) == (2, 12)

    def test_no_usable_degree_raises_fit_error(self, monkeypatch):
        def failing(rv, basis, design):
            raise FitError("rank-deficient design")

        monkeypatch.setattr(reliakit.pce, "pce_fit_regression", failing)
        rv = standard_normal_vector(2)
        with pytest.raises(FitError, match="no degree up to p_max"):
            pce_adaptive(benchmark_linear(2.0, dimension=2), rv, 1e-8, 3, seed=23)

    def test_estimate_counts_every_design_of_the_loop(self):
        # degrees 1 to 3 grow one design to 4, 6, then 8 points
        rv = standard_normal_vector(1)
        ls = LimitState(1, lambda x: 1.0 if x[0] > 0 else -1.0)
        ledger = EvalLedger()
        ledger.record(5)
        opts = dict(target_error=1e-4, p_max=3, n_surrogate=1000, seed=22)
        res = pce_estimate(ls, rv, ledger=ledger, **opts)
        fit = res.extras["fit"]
        assert fit["converged"] is False
        # the best fit was at degree 2, whose design had only 6 points
        assert (fit["degree"], fit["n_true_calls"]) == (2, 6)
        assert res.n_calls == 8 and ledger.count == 13
        assert pce_estimate(ls, rv, **opts).to_dict() == res.to_dict()


class TestStabilityInvariants:
    def test_degree_inflation_leaves_exact_fit_unchanged(self):
        rv = standard_normal_vector(2)
        ls = LimitState(2, lambda x: 1.0 + 2.0 * x[0] - x[1] + 0.25 * x[0] * x[1])
        fit2 = pce_fit_regression(rv, basis_for(rv, 2), _design_for(rv, ls, 40, 23))
        fit3 = pce_fit_regression(rv, basis_for(rv, 3), _design_for(rv, ls, 60, 24))
        for alpha in fit2.basis.indices:
            assert fit3.coefficient(alpha) == pytest.approx(
                fit2.coefficient(alpha), abs=1e-8
            )
        extra = [
            c
            for a, c in zip(fit3.basis.indices, fit3.coefficients)
            if sum(a) == 3
        ]
        np.testing.assert_allclose(extra, 0.0, atol=1e-8)

    def test_serialization_round_trip(self):
        import json

        rv = RandomVector((Marginal.uniform(-1, 1), Marginal.gaussian(0, 1)))
        ls = LimitState(2, lambda x: x[0] + 0.5 * x[1] ** 2)
        model = pce_fit_regression(rv, basis_for(rv, 2), _design_for(rv, ls, 40, 25))
        blob = model.to_json()
        data = json.loads(blob)
        np.testing.assert_allclose(data["coefficients"], model.coefficients)
        assert len(data["indices"]) == len(model.basis.indices)
