"""Orthonormal polynomial bases and chaos expansions."""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from reliakit import (
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
    pce_fit_projection,
    pce_fit_regression,
    pce_moments,
    pce_pf,
    physical_to_basis,
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


class TestProjection:
    def test_recovers_single_basis_function(self):
        rv = standard_normal_vector(2)
        basis = basis_for(rv, 3)
        target = (2, 1)
        one = PceBasis(basis.families, (target,))

        def func(x):
            return float(one.evaluate(rv.to_standard(x[None, :]))[0, 0])

        ls = LimitState(2, func)
        model = pce_fit_projection(ls, rv, basis, quad_level=5)
        for alpha in basis.indices:
            want = 1.0 if alpha == target else 0.0
            assert model.coefficient(alpha) == pytest.approx(want, abs=1e-12)

    def test_matches_regression_on_smooth_function(self):
        rv = RandomVector((Marginal.uniform(-1, 1), Marginal.gaussian(0, 1)))
        ls = LimitState(2, lambda x: math.exp(0.3 * x[0]) + 0.2 * x[1] ** 2)
        basis = basis_for(rv, 4)
        proj = pce_fit_projection(ls, rv, basis, quad_level=8)
        reg = pce_fit_regression(rv, basis, _design_for(rv, ls, 120, 5))
        np.testing.assert_allclose(proj.coefficients, reg.coefficients, atol=2e-5)

    def test_matches_basis_matrix_oracle(self):
        # four families, degree 6: the term-by-term projection against the
        # weighted basis matrix on the same 7^4 tensor grid
        rv = RandomVector(
            (
                Marginal.gaussian(1.0, 0.5),
                Marginal.uniform(-1.0, 3.0),
                Marginal.gamma(3.0, 0.5),
                Marginal.beta(2.0, 5.0, 1.0, 4.0),
            )
        )
        basis = basis_for(rv, 6)

        def func(x):
            return np.exp(0.3 * x[:, 0]) + np.sin(x[:, 1]) * x[:, 2] - x[:, 3] ** 2

        model = pce_fit_projection(func, rv, basis, quad_level=7)
        rules = [gauss_rule(fam, 7) for fam in basis.families]
        nodes = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        weights = np.meshgrid(*[r[1] for r in rules], indexing="ij")
        xi = np.column_stack([g.ravel() for g in nodes])
        w = np.prod([g.ravel() for g in weights], axis=0)
        want = basis.evaluate(xi).T @ (w * func(basis_to_physical(rv, xi)))
        np.testing.assert_allclose(model.coefficients, want, rtol=0.0, atol=1e-12)

    def test_zero_function_gives_zero_coefficients(self):
        rv = standard_normal_vector(2)
        model = pce_fit_projection(LimitState(2, lambda x: 0.0), rv, basis_for(rv, 2), 4)
        np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-15)

    def test_grid_budget_guard(self):
        rv = standard_normal_vector(8)
        with pytest.raises(ValueError):
            pce_fit_projection(LimitState(8, lambda x: 0.0), rv, basis_for(rv, 2), 12)

    def test_ledger_charges_full_grid(self):
        from reliakit import EvalLedger

        rv = standard_normal_vector(2)
        ledger = EvalLedger()
        pce_fit_projection(
            LimitState(2, lambda x: x[0]), rv, basis_for(rv, 2), 4, ledger=ledger
        )
        assert ledger.count == 16


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
        res = pce_pf(model, rv, 10_000, seed=12)
        assert res.pf == 1.0
        assert res.cov == 0.0
        assert res.n_calls == 0  # surrogate sweeps are free

    def test_pf_linear_matches_normal_tail(self):
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        model = pce_fit_regression(rv, basis_for(rv, 1), _design_for(rv, ls, 20, 13))
        res = pce_pf(model, rv, 1_000_000, seed=14)
        pf = float(stats.norm.cdf(-2.0))
        assert abs(res.pf - pf) <= 3.0 * res.cov * res.pf

    def test_pf_cov_halves_with_quadruple_n(self):
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        model = pce_fit_regression(rv, basis_for(rv, 1), _design_for(rv, ls, 20, 15))
        small = pce_pf(model, rv, 50_000, seed=16)
        large = pce_pf(model, rv, 200_000, seed=16)
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
            res = pce_pf(model, rv, self.N, seed=18)
        u = np.random.default_rng(18).standard_normal((self.N, 4))
        g = np.concatenate(
            [model.basis.evaluate(b) @ model.coefficients for b in np.array_split(u, 3)]
        )
        nf = int(np.count_nonzero(g <= 0.0))
        assert 0 < nf < self.N
        assert res.pf == nf / self.N
        # the same rows as the physical draws they are mapped to
        x = rv.sample(self.N, seed=18)
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

    def test_matches_brute_force_refits(self):
        # hat-matrix shortcut against literally refitting without each point
        rv = standard_normal_vector(2)
        ls = benchmark_waarts_like()
        basis = basis_for(rv, 2)
        design = _design_for(rv, ls, 20, 18)
        fast = pce_fit_regression(rv, basis, design).diagnostics["loo_error"]

        n = design.size
        sq = []
        for i in range(n):
            keep = np.arange(n) != i
            sub = ExperimentalDesign(design.points[keep], design.responses[keep])
            sub_model = pce_fit_regression(rv, basis, sub)
            pred = float(sub_model.predict(design.points[i][None, :])[0])
            sq.append((design.responses[i] - pred) ** 2)
        brute = (sum(sq) / n) / float(np.var(design.responses))
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
