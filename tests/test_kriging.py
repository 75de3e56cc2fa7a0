"""Kriging surrogates, uncertainty measures and adaptive enrichment."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from reliakit import (
    AdaptiveResult,
    ConditioningError,
    CorrelationKernel,
    EvalLedger,
    ExperimentalDesign,
    MarginCollapsed,
    RandomVector,
    Marginal,
    adaptive_margin_design,
    ak_mcs,
    benchmark_linear,
    benchmark_waarts,
    classification_probability,
    enrich_margin,
    evaluate_batch,
    initial_design,
    kernel_cross,
    kernel_matrix,
    krig_build,
    krig_fit,
    krig_pf_bounds,
    krig_predict_batch,
    margin_probability,
    standard_normal_vector,
    u_function,
)
from reliakit.kriging import _build, _most_uncertain


def one_d_design(n=8, seed=0, fn=None):
    fn = fn or (lambda x: np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 0])
    x = np.linspace(0.0, 2.0, n)[:, None]
    return ExperimentalDesign(x, fn(x))


def dense_gls_oracle(design, trend, kernel, nugget):
    """Closed-form trend/variance from explicit dense inverses."""
    r = kernel_matrix(kernel, design.points, nugget=nugget)
    rinv = np.linalg.inv(r)
    if trend == "constant":
        f = np.ones((design.size, 1))
    else:
        f = np.column_stack([np.ones(design.size), design.points])
    y = design.responses
    a = np.linalg.solve(f.T @ rinv @ f, f.T @ rinv @ y)
    resid = y - f @ a
    sigma2 = float(resid @ rinv @ resid) / design.size
    return a, sigma2, r, rinv, f


class TestKernel:
    def test_reference_values(self):
        k = CorrelationKernel((1.0,))
        assert kernel_cross(k, np.array([[0.0]]), np.array([[0.0]]))[0, 0] == pytest.approx(1.0)
        assert kernel_cross(k, np.array([[0.0]]), np.array([[1.0]]))[0, 0] == pytest.approx(
            math.exp(-1.0)
        )

    def test_generalized_exponential_power_one(self):
        k = CorrelationKernel((2.0,), power=1.0)
        got = kernel_cross(k, np.array([[0.0]]), np.array([[3.0]]))[0, 0]
        assert got == pytest.approx(math.exp(-1.5))

    def test_long_lengthscale_saturates(self):
        k = CorrelationKernel((1e6, 1e6))
        a = np.random.default_rng(0).normal(size=(4, 2))
        np.testing.assert_allclose(kernel_cross(k, a, a), 1.0, atol=1e-9)

    def test_matrix_symmetry_and_nugget(self):
        k = CorrelationKernel((0.7, 1.3))
        pts = np.random.default_rng(1).normal(size=(6, 2))
        r = kernel_matrix(k, pts, nugget=1e-6)
        np.testing.assert_allclose(r, r.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(r), 1.0 + 1e-6, atol=1e-15)

    @pytest.mark.parametrize("power", [2.0, 1.5])
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_matches_per_entry_oracle(self, m, power):
        rng = np.random.default_rng(m)
        k = CorrelationKernel(tuple(rng.uniform(0.5, 2.0, m)), power)
        a, b = rng.normal(size=(5, m)), rng.normal(size=(7, m))
        expected = np.empty((5, 7))
        for i, j in np.ndindex(expected.shape):
            s = 0.0
            for ak, bk, t in zip(a[i], b[j], k.theta):
                s += (abs(ak - bk) / t) ** power
            expected[i, j] = math.exp(-s)
        np.testing.assert_allclose(kernel_cross(k, a, b), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (48, 20_000)], ids=str)
    @pytest.mark.parametrize("power", [2.0, 1.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_bit_identical_to_reference_expression(self, m, power, shape):
        # the in-place kernel must give the bits of the plain expression: a
        # fingerprinted fit or sweep moves whenever one correlation does
        n_a, n_b = shape
        rng = np.random.default_rng([m, n_b])
        k = CorrelationKernel(tuple(rng.uniform(0.3, 3.0, m)), power)
        a = rng.normal(size=(n_a, m))
        big = rng.normal(size=(2 * n_b, m))
        layouts = {"C": big[:n_b].copy(), "F": np.asfortranarray(big[:n_b]), "strided": big[::2]}
        for layout, b in layouts.items():
            a0, b0 = a.copy(), b.copy()
            expected = np.exp(
                -sum(
                    (np.abs(np.subtract.outer(a[:, i], b[:, i])) / t) ** power
                    for i, t in enumerate(k.theta)
                )
            )
            np.testing.assert_array_equal(kernel_cross(k, a, b), expected, err_msg=layout)
            np.testing.assert_array_equal(a, a0)
            np.testing.assert_array_equal(b, b0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CorrelationKernel((-1.0,))
        with pytest.raises(ValueError):
            CorrelationKernel((1.0,), power=2.5)


class TestClosedForms:
    @pytest.mark.parametrize("trend", ["constant", "linear"])
    def test_trend_and_variance_match_dense_oracle(self, trend):
        design = one_d_design(10, seed=2)
        kernel = CorrelationKernel((0.5,))
        model = krig_build(design, trend, kernel)
        a, sigma2, *_ = dense_gls_oracle(design, trend, kernel, model.nugget)
        np.testing.assert_allclose(model.a, a, rtol=1e-8)
        assert model.sigma2 == pytest.approx(sigma2, rel=1e-8)

    @pytest.mark.parametrize("trend", ["constant", "linear"])
    @pytest.mark.parametrize("dims", ["1d", "2d"])
    def test_prediction_matches_dense_formulas(self, trend, dims):
        # with the linear trend (P > 1) the trend-block inverse and the
        # coefficients taken from it enter both the mean and the variance
        if dims == "1d":
            design = one_d_design(9)
            kernel = CorrelationKernel((0.6,))
            xs = np.linspace(-0.3, 2.3, 25)[:, None]
        else:
            rng = np.random.default_rng(4)
            x = rng.uniform(0.0, 2.0, size=(14, 2))
            design = ExperimentalDesign(x, np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1] ** 2)
            kernel = CorrelationKernel((0.6, 1.4))
            xs = rng.uniform(-0.3, 2.3, size=(25, 2))
        model = krig_build(design, trend, kernel)
        a, sigma2, r, rinv, f = dense_gls_oracle(design, trend, kernel, model.nugget)
        fs = np.ones((25, 1)) if trend == "constant" else np.column_stack([np.ones(25), xs])
        rx = kernel_cross(kernel, xs, design.points)
        mu_oracle = fs @ a + rx @ rinv @ (design.responses - f @ a)
        mu, sd = krig_predict_batch(model, xs)
        np.testing.assert_allclose(mu, mu_oracle, rtol=1e-8, atol=1e-10)
        # variance from the blockwise formula with the trend correction
        u_t = f.T @ rinv @ rx.T - fs.T
        gram = f.T @ rinv @ f
        var_oracle = sigma2 * (
            1.0
            - np.einsum("ij,jk,ik->i", rx, rinv, rx)
            + np.einsum("ji,jk,ki->i", u_t, np.linalg.inv(gram), u_t)
        )
        np.testing.assert_allclose(sd**2, np.maximum(var_oracle, 0.0), atol=1e-10)

    def test_interpolation_at_design_points(self):
        design = one_d_design(8)
        model = krig_build(design, "constant", CorrelationKernel((0.5,)))
        mu, sd = krig_predict_batch(model, design.points)
        span = np.ptp(design.responses)
        np.testing.assert_allclose(mu, design.responses, atol=1e-6 * span)
        assert np.all(sd <= 1e-4 * math.sqrt(model.sigma2) + 1e-12)

    def test_far_field_reverts_to_trend(self):
        design = one_d_design(8)
        model = krig_build(design, "constant", CorrelationKernel((0.3,)))
        mu, sd = krig_predict_batch(model, np.array([[50.0]]))
        assert mu[0] == pytest.approx(float(model.a[0]), abs=1e-8)
        assert sd[0] ** 2 >= 0.9 * model.sigma2

    def test_midpoint_of_two_equal_observations(self):
        design = ExperimentalDesign(np.array([[0.0], [1.0]]), np.array([2.0, 2.0]))
        model = krig_build(design, "constant", CorrelationKernel((0.8,)))
        assert krig_predict_batch(model, np.array([[0.5]]))[0][0] == pytest.approx(2.0, abs=1e-10)

    def test_response_scaling_linearity(self):
        design = one_d_design(8)
        kernel = CorrelationKernel((0.5,))
        m1 = krig_build(design, "constant", kernel)
        scaled = ExperimentalDesign(design.points, 3.0 * design.responses)
        m3 = krig_build(scaled, "constant", kernel)
        xs = np.linspace(0.1, 1.9, 12)[:, None]
        mu1, sd1 = krig_predict_batch(m1, xs)
        mu3, sd3 = krig_predict_batch(m3, xs)
        np.testing.assert_allclose(mu3, 3.0 * mu1, rtol=1e-9)
        np.testing.assert_allclose(sd3, 3.0 * sd1, rtol=1e-9, atol=1e-12)

    def test_variance_nonnegative_everywhere(self):
        design = one_d_design(12)
        model = krig_build(design, "linear", CorrelationKernel((0.2,)))
        xs = np.linspace(-1.0, 3.0, 400)[:, None]
        _, sd = krig_predict_batch(model, xs)
        assert np.all(sd >= 0.0)

    @staticmethod
    def shifted_build(min_eigenvalue):
        """Build from the design's correlation matrix shifted to the given
        smallest eigenvalue, as roundoff leaves a near-singular matrix."""
        design = one_d_design(8)
        kernel = CorrelationKernel((0.5,))
        r0 = kernel_matrix(kernel, design.points)
        shift = np.linalg.eigvalsh(r0)[0] - min_eigenvalue
        return design, _build(design, "constant", kernel, r0 - shift * np.eye(design.size))

    def test_nugget_escalates_until_the_factorization_succeeds(self):
        # 1e-10 and 1e-9 leave an eigenvalue below zero; 1e-8 lifts it
        _, model = self.shifted_build(-5e-9)
        assert model.nugget == pytest.approx(1e-8)

    def test_nugget_past_the_cap_raises(self):
        with pytest.raises(ConditioningError, match="nugget cap"):
            self.shifted_build(-1e-5)

    def test_negative_variance_is_clamped_and_recorded(self):
        # the shifted factor no longer matches the kernel the prediction
        # uses, so the variance at the design rows comes out negative
        design, model = self.shifted_build(-5e-9)
        assert "variance_clamp" not in model.diagnostics
        _, sd = krig_predict_batch(model, design.points)
        assert np.all(sd >= 0.0)
        assert model.diagnostics["variance_clamp"] > 1e-8 * model.sigma2

    def test_too_few_points_for_trend(self):
        from reliakit import FitError

        design = ExperimentalDesign(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(FitError):
            krig_build(design, "linear", CorrelationKernel((0.5,)))


class TestMle:
    def test_fitted_theta_beats_grid(self):
        from reliakit.kriging import _profiled_objective_grad

        design = one_d_design(12, fn=lambda x: np.sin(2.0 * x[:, 0]))
        model = krig_fit(design, trend="constant", seed=0)
        best = _profiled_objective_grad(design, "constant", model.kernel)[0]
        for theta in np.geomspace(0.02, 20.0, 100):
            val = _profiled_objective_grad(
                design, "constant", CorrelationKernel((float(theta),))
            )[0]
            assert best <= val + 1e-6

    @pytest.mark.parametrize("trend", ["constant", "linear"])
    def test_objective_matches_dense_oracle(self, trend):
        from reliakit.kriging import _profiled_objective_grad

        design = one_d_design(10, seed=2)
        kernel = CorrelationKernel((0.5,))
        nugget = krig_build(design, trend, kernel).nugget
        _, sigma2, r, *_ = dense_gls_oracle(design, trend, kernel, nugget)
        sign, logdet = np.linalg.slogdet(r)
        assert sign == 1.0
        expected = design.size * math.log(sigma2) + logdet
        value = _profiled_objective_grad(design, trend, kernel)[0]
        assert value == pytest.approx(expected, rel=1e-10)

    def test_objective_failure_branch(self):
        from reliakit.kriging import _profiled_objective_grad

        # two points cannot carry a linear trend in 1-D (FitError inside)
        design = ExperimentalDesign(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        kernel = CorrelationKernel((0.5,))
        value, grad = _profiled_objective_grad(design, "linear", kernel)
        assert value == 1e30
        np.testing.assert_array_equal(grad, np.zeros(1))
        assert _profiled_objective_grad(design, "linear", kernel)[0] == 1e30

    @pytest.mark.parametrize("power", [2.0, 1.5])
    def test_gradient_matches_central_differences(self, power):
        from reliakit.kriging import _profiled_objective_grad

        rng = np.random.default_rng(5)
        x = rng.uniform(-2.0, 2.0, size=(15, 2))
        cases = [
            (one_d_design(12, fn=lambda x: np.sin(2.0 * x[:, 0])), "constant", np.log([0.4])),
            # anisotropic: g varies fast in x1, slowly in x2, lengthscales differ
            (ExperimentalDesign(x, np.sin(2.0 * x[:, 0]) + 0.3 * x[:, 1]), "linear",
             np.log([0.7, 3.0])),
        ]
        step = 1e-4
        for design, trend, log_theta in cases:
            def objective(lt):
                kern = CorrelationKernel(tuple(np.exp(lt)), power)
                return _profiled_objective_grad(design, trend, kern)[0]

            value, grad = _profiled_objective_grad(
                design, trend, CorrelationKernel(tuple(np.exp(log_theta)), power)
            )
            assert value == objective(log_theta)
            fd = [
                (objective(log_theta + step * e) - objective(log_theta - step * e)) / (2.0 * step)
                for e in np.eye(log_theta.size)
            ]
            np.testing.assert_allclose(grad, fd, rtol=1e-6)

    def test_constant_responses_degenerate(self):
        x = np.linspace(0.0, 1.0, 6)[:, None]
        design = ExperimentalDesign(x, np.full(6, 4.0))
        model = krig_fit(design, seed=1)
        assert float(model.a[0]) == pytest.approx(4.0, abs=1e-8)
        assert model.sigma2 == pytest.approx(0.0, abs=1e-10)

    def test_bound_pinning_flagged(self):
        # a small design on a linear 2-D g pushes one lengthscale to its
        # upper search bound
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        pts = initial_design(rv, 8, seed=77)
        design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = krig_fit(design, trend="constant", seed=2)
        assert model.diagnostics["at_bounds"] is True

    def test_every_refit_records_bound_pinning(self):
        # the linear g above pins a lengthscale on every AK-MCS refit; the
        # infinite u_stop runs the loop to its budget (12 + 4 calls)
        rv = standard_normal_vector(2)
        ls = benchmark_linear(2.0, dimension=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ak_mcs(ls, rv, n_pool=2_000, u_stop=math.inf, budget=16, seed=2)
        assert [e["n_calls"] for e in res.trace] == [12, 13, 14, 15, 16]
        assert all(e["at_bounds"] is True for e in res.trace)
        assert res.trace[-1]["at_bounds"] == res.model.diagnostics["at_bounds"]

    @pytest.mark.parametrize("power", [2.0, 1.5])
    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_model_correlation_is_the_likelihood_one(self, monkeypatch, m, power):
        from reliakit import kriging

        x = np.random.default_rng(m).uniform(-2.0, 2.0, size=(5 * m, m))
        design = ExperimentalDesign(x, np.sin(x[:, 0]) + 0.2 * np.sum(x**2, axis=1))
        model = krig_fit(design, power=power, seed=0)
        factored = []
        build = kriging._build

        def recording_build(design, trend, kernel, r0):
            factored.append(r0)
            return build(design, trend, kernel, r0)

        monkeypatch.setattr(kriging, "_build", recording_build)
        kriging._profiled_objective_grad(design, "constant", model.kernel)
        assert len(factored) == 1
        np.testing.assert_array_equal(kernel_matrix(model.kernel, x), factored[0])

    def test_anisotropic_lengthscales(self):
        # g varies fast in x1 and not at all in x2
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(40, 2))
        y = np.sin(6.0 * x[:, 0])
        design = ExperimentalDesign(x, y)
        model = krig_fit(design, seed=3)
        assert model.kernel.theta[1] > 3.0 * model.kernel.theta[0]


def arrays(*values):
    return tuple(np.array(v, dtype=float) for v in values)


class TestUncertaintyMeasures:
    def test_u_reference_values(self):
        u = u_function(*arrays([2.0, -3.0, 0.5, 0.0], [1.0, 1.5, 0.0, 0.0]))
        np.testing.assert_allclose(u[:2], [2.0, 2.0])
        assert u[2] == math.inf
        assert u[3] == 0.0

    def test_pi_reference_values(self):
        pi = classification_probability(*arrays([0.0, -1.96, 0.3, -0.3], [1.0, 1.0, 0.0, 0.0]))
        assert pi[0] == pytest.approx(0.5)
        assert pi[1] == pytest.approx(0.975, abs=1e-4)
        assert pi[2] == 0.0
        assert pi[3] == 1.0

    def test_pi_is_a_probability(self):
        mu = np.linspace(-40.0, 40.0, 161)
        for sd in (0.0, 1e-300, 0.3, 1e3):
            pi = classification_probability(mu, np.full_like(mu, sd))
            assert np.all((pi >= 0.0) & (pi <= 1.0))

    def test_pi_monotone_in_mu(self):
        mu = np.linspace(-3, 3, 25)
        vals = classification_probability(mu, np.full_like(mu, 0.7))
        assert np.all(vals[:-1] >= vals[1:])

    def test_pi_point_symmetry(self):
        mu, sd = arrays([0.0, 0.4, 1.7], [1.3, 1.3, 1.3])
        p = classification_probability(mu, sd)
        q = classification_probability(-mu, sd)
        np.testing.assert_allclose(p + q, 1.0, atol=1e-12)

    def test_margin_reference_values(self):
        m = margin_probability(*arrays([0.0, 50.0, 0.0, 0.5], [1.0, 1.0, 0.0, 0.0]), 1.96)
        assert m[0] == pytest.approx(0.95, abs=1e-3)
        assert m[1] == pytest.approx(0.0, abs=1e-12)
        assert m[2] == 1.0
        assert m[3] == 0.0

    def test_margin_grows_with_k(self):
        mu, sd = arrays([0.8], [1.0])
        ks = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [float(margin_probability(mu, sd, k)[0]) for k in ks]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    def test_margin_requires_positive_k(self):
        with pytest.raises(ValueError):
            margin_probability(*arrays([0.0], [1.0]), 0.0)


def margin_draws(model, rv, n, seed, k=1.96):
    """Exact margin-density draws: pool rows kept with their margin probability."""
    pool = rv.sample(20_000, seed=seed)
    mu, sd = krig_predict_batch(model, pool)
    keep = np.random.default_rng(seed).random(pool.shape[0]) < margin_probability(mu, sd, k)
    return pool[keep][:n]


class TestEnrichment:
    def waarts_model(self, n=20, seed=4):
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        pts = initial_design(rv, n, seed=seed)
        design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
        return krig_fit(design, seed=seed), rv

    def test_ak_picks_most_ambiguous(self):
        model, rv = self.waarts_model()
        pool = rv.sample(2000, seed=5)
        mu, sd = krig_predict_batch(model, pool)
        u = u_function(mu, sd)
        chosen = pool[_most_uncertain(u, sd)]
        mu_c, sd_c = krig_predict_batch(model, chosen[None, :])
        assert abs(mu_c[0]) / sd_c[0] == pytest.approx(float(np.min(u)), rel=1e-12)

    def test_ak_tie_goes_to_lowest_index(self):
        # duplicate candidates share identical predictions
        model, rv = self.waarts_model()
        pool = rv.sample(50, seed=6)
        pool[7] = pool[31]
        mu, sd = krig_predict_batch(model, pool)
        u = u_function(mu, sd)
        chosen = pool[_most_uncertain(u, sd)]
        if int(np.argmin(u)) in (7, 31):
            np.testing.assert_array_equal(chosen, pool[7])

    def test_margin_enrichment_returns_informative_points(self):
        model, rv = self.waarts_model()
        draws = margin_draws(model, rv, 200, seed=8)
        assert draws.shape[0] == 200
        pts = enrich_margin(model, draws, n_clusters=4, seed=8)
        assert pts.shape[1] == 2
        assert 1 <= pts.shape[0] <= 4
        # every pick is one of the draws, never an artificial centroid
        assert all(np.any(np.all(draws == p, axis=1)) for p in pts)
        mu, sd = krig_predict_batch(model, pts)
        assert np.all(margin_probability(mu, sd, 1.96) > 1e-6)
        # never duplicates an existing design point
        for p in pts:
            d = np.min(np.linalg.norm(model.design.points - p, axis=1))
            assert d > 1e-8

    def test_margin_enrichment_deterministic(self):
        model, rv = self.waarts_model()
        draws = margin_draws(model, rv, 250, seed=9)
        a = enrich_margin(model, draws, seed=9)
        b = enrich_margin(model, draws, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_margin_collapse_on_certain_surrogate(self):
        # responses exactly in the trend span make sigma2 = 0, so no point
        # carries any margin probability and the pool keeps no draw
        rv = standard_normal_vector(1)
        x = np.linspace(-2, 2, 6)[:, None]
        design = ExperimentalDesign(x, np.full(6, 3.0))
        model = krig_build(design, "constant", CorrelationKernel((1.0,)))
        draws = margin_draws(model, rv, 250, seed=10)
        assert draws.shape == (0, 1)
        with pytest.raises(MarginCollapsed, match="no margin draw"):
            enrich_margin(model, draws, seed=10)
        # draws that are all design points leave nothing new either
        with pytest.raises(MarginCollapsed, match="no margin draw is a new point"):
            enrich_margin(model, x, seed=10)

    def test_top_up_when_clusters_hold_only_design_points(self):
        # three clusters are copies of design points and yield nothing; the
        # fourth yields its closest member, and the top-up fills the other
        # three picks from its remaining new draws
        model, _ = self.waarts_model()
        design_pts = model.design.points[:3]
        fresh = np.array([5.0, 5.0]) + 0.01 * np.arange(5)[:, None]
        draws = np.vstack([np.repeat(design_pts, 4, axis=0), fresh])
        pts = enrich_margin(model, draws, n_clusters=4, seed=11)
        assert pts.shape == (4, 2)
        assert all(np.any(np.all(fresh == p, axis=1)) for p in pts)
        assert np.unique(pts, axis=0).shape[0] == 4

    def test_empty_cluster_is_skipped(self, monkeypatch):
        # k-means can leave a cluster empty; the clusters after it still give their
        # closest members, and the top-up makes up the one pick short
        model, _ = self.waarts_model()
        draws = np.array([[4.0, 4.0], [4.2, 4.0], [-4.0, 4.0], [-4.2, 4.0],
                          [0.2, -4.0], [0.0, -4.0], [0.1, -4.2]])
        centroids = np.array([[4.0, 4.0], [9.0, 9.0], [-4.0, 4.0], [0.0, -4.0]])
        labels = np.array([0, 0, 2, 2, 3, 3, 3])
        monkeypatch.setattr("scipy.cluster.vq.kmeans2", lambda *a, **kw: (centroids, labels))
        pts = enrich_margin(model, draws, n_clusters=4, seed=12)
        assert pts.shape == (4, 2)
        np.testing.assert_array_equal(pts[:3], draws[[0, 2, 5]])


class TestBounds:
    def test_ordering_holds_eventwise(self):
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        pts = initial_design(rv, 15, seed=11)
        design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
        model = krig_fit(design, seed=11)
        lo, mid, hi = krig_pf_bounds(model, rv, n=20_000, seed=12)
        assert lo <= mid <= hi

    def test_degenerate_surrogate_collapses_bounds(self):
        rv = standard_normal_vector(1)
        x = np.linspace(-3, 3, 7)[:, None]
        design = ExperimentalDesign(x, 2.0 - x[:, 0])  # exactly linear
        model = krig_build(design, "linear", CorrelationKernel((2.0,)))
        lo, mid, hi = krig_pf_bounds(model, rv, n=50_000, seed=13)
        assert lo == mid == hi
        assert mid == pytest.approx(float(ndtr(-2.0)), rel=0.1)


class TestInitialDesign:
    def test_size_and_dimension(self):
        rv = standard_normal_vector(3)
        pts = initial_design(rv, 14, seed=14)
        assert pts.shape == (14, 3)

    def test_respects_probability_box(self):
        rv = RandomVector((Marginal.uniform(2.0, 4.0),))
        pts = initial_design(rv, 20, seed=15)
        assert pts.min() >= 2.0 and pts.max() <= 4.0

    def test_spreads_over_tails(self):
        # the +-5 sigma box reaches far beyond where plain sampling would
        rv = standard_normal_vector(2)
        pts = initial_design(rv, 30, seed=16)
        assert np.abs(pts).max() > 3.0

    def test_deterministic(self):
        rv = standard_normal_vector(2)
        np.testing.assert_array_equal(
            initial_design(rv, 10, seed=17), initial_design(rv, 10, seed=17)
        )


class TestAdaptiveDrivers:
    def test_ak_mcs_on_linear_problem(self):
        ls = benchmark_linear(2.0, dimension=2)
        rv = standard_normal_vector(2)
        ledger = EvalLedger()
        out = ak_mcs(ls, rv, n_pool=20_000, budget=60, seed=18, ledger=ledger)
        assert isinstance(out, AdaptiveResult)
        assert out.converged
        assert out.stop_reason == "u_threshold"
        assert out.n_calls == ledger.count <= 60
        lo, mid, hi = krig_pf_bounds(out.model, rv, n=100_000, seed=19)
        assert mid == pytest.approx(float(ndtr(-2.0)), rel=0.15)

    def test_ak_mcs_budget_exhaustion(self):
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        out = ak_mcs(ls, rv, n_pool=5_000, budget=14, seed=20)
        assert not out.converged
        assert out.stop_reason == "budget"
        assert out.n_calls == 14

    def test_margin_driver_on_waarts(self):
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        out = adaptive_margin_design(
            ls, rv, tol=0.35, budget=60, n_bounds=20_000, n_chain=150, seed=21
        )
        assert out.converged
        assert out.trace  # spread recorded per iteration
        lo, mid, hi = krig_pf_bounds(out.model, rv, n=200_000, seed=22)
        assert mid == pytest.approx(2.22e-3, rel=0.5)

    def test_margin_driver_collapse_counts_as_converged(self):
        # a linear trend reproduces a linear g exactly after the first fit,
        # so the pf band has zero width and the loop stops on it before
        # the margin is ever sampled (the collapse path is the next test)
        ls = benchmark_linear(2.0, dimension=2)
        rv = standard_normal_vector(2)
        out = adaptive_margin_design(
            ls, rv, trend="linear", budget=40, n_bounds=10_000, seed=23
        )
        assert out.converged
        assert out.stop_reason == "bounds_tight"
        assert out.n_calls == 12

    def test_margin_design_stops_on_collapsed_margin(self, monkeypatch):
        from reliakit import kriging

        def collapsed(*args, **kwargs):
            raise MarginCollapsed("no margin left")

        monkeypatch.setattr(kriging, "enrich_margin", collapsed)
        ledger = EvalLedger()
        out = adaptive_margin_design(
            benchmark_waarts(), standard_normal_vector(2), budget=40, n_bounds=10_000,
            seed=5, ledger=ledger,
        )
        assert out.converged
        assert out.stop_reason == "margin_collapsed"
        assert out.n_calls == ledger.count == 12
        assert len(out.trace) == 1

    def test_margin_design_budget_exhaustion(self):
        ledger = EvalLedger()
        out = adaptive_margin_design(
            benchmark_waarts(), standard_normal_vector(2), tol=0.0, budget=30, seed=5,
            ledger=ledger,
        )
        assert not out.converged
        assert out.stop_reason == "budget"
        assert out.n_calls == ledger.count == 30
        assert [t["n_calls"] for t in out.trace] == [12, 16, 20, 24, 28, 30]

    def test_margin_design_predicts_only_its_pool(self, monkeypatch):
        # one prediction of the pool per refit: no sampler, no band sweep
        from reliakit import kriging

        rows = []
        predict = kriging._predict_arrays

        def counted(model, xs):
            rows.append(xs.shape[0])
            return predict(model, xs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the margin design sampled or swept outside its pool")

        monkeypatch.setattr(kriging, "_predict_arrays", counted)
        monkeypatch.setattr(kriging, "krig_pf_bounds", forbidden)
        out = adaptive_margin_design(
            benchmark_waarts(), standard_normal_vector(2), tol=0.0, budget=30,
            n_bounds=10_000, seed=5,
        )
        assert out.stop_reason == "budget"
        assert sum(rows) == len(out.trace) * 10_000

    @pytest.mark.parametrize(
        "size",
        [{"n_chain": 0}, {"n_chain": -3}, {"n_bounds": 0}, {"n_clusters": 0}],
        ids=["n_chain=0", "n_chain=-3", "n_bounds=0", "n_clusters=0"],
    )
    def test_bad_doe_sizes_rejected_before_any_call(self, size):
        ledger = EvalLedger()
        (name,) = size
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            adaptive_margin_design(
                benchmark_waarts(), standard_normal_vector(2), budget=30, seed=5, ledger=ledger,
                **{"n_bounds": 10_000, **size},
            )
        assert ledger.count == 0

    def test_margin_mass_trends_down(self):
        # average margin probability is allowed one up-tick over five rounds
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        pts = initial_design(rv, 12, seed=24)
        design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
        probe = rv.sample(20_000, seed=25)
        masses = []
        model = krig_fit(design, seed=24)
        for it in range(5):
            mu, sd = krig_predict_batch(model, probe)
            masses.append(float(np.mean(margin_probability(mu, sd, 1.96))))
            draws = margin_draws(model, rv, 250, seed=26 + it)
            new_pts = enrich_margin(model, draws, seed=26 + it)
            design = design.extended(new_pts, evaluate_batch(ls, new_pts))
            model = krig_fit(design, seed=24)
        ups = sum(1 for a, b in zip(masses, masses[1:]) if b > a)
        assert ups <= 1
