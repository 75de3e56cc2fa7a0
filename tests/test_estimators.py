"""Sampling estimators, moment-based indices and FORM."""

import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy import stats

from reliakit import (
    ConditioningError,
    CorrelationKernel,
    EstimatorError,
    EvalLedger,
    ExperimentalDesign,
    InstrumentalDensity,
    IterationError,
    LimitState,
    Marginal,
    ModelError,
    RandomVector,
    ReliabilityResult,
    basis_for,
    benchmark_linear,
    benchmark_waarts,
    classification_probability,
    cornell_index,
    estimate_alpha_corr,
    estimate_is,
    estimate_mc,
    estimate_pf_epsilon,
    evaluate_batch,
    form,
    initial_design,
    krig_build,
    krig_pf_bounds,
    krig_predict_batch,
    limit_state_from_expression,
    mc_cov,
    pce_fit_regression,
    pce_pf,
    sample_instrumental,
    standard_normal_vector,
)
import reliakit
from reliakit.estimators import _OPTION_RANGES, _mean_cov


def batch_recording(ls):
    """A copy of a vector limit state that records the size of every batch."""
    sizes = []

    def vec(xs):
        sizes.append(len(xs))
        return ls.vector_evaluator(xs)

    return LimitState(ls.dimension, name=ls.name, vector_evaluator=vec), sizes


class TestReliabilityResult:
    def test_beta_from_pf(self):
        assert ReliabilityResult(0.5, 0.0, 0, "mc").beta == pytest.approx(0.0)
        assert ReliabilityResult(float(ndtr(-2.0)), 0.0, 0, "mc").beta == pytest.approx(2.0)
        assert ReliabilityResult(0.0, 0.0, 0, "mc").beta == math.inf
        assert ReliabilityResult(1.0, 0.0, 0, "mc").beta == -math.inf

    def test_to_dict_keys(self):
        d = ReliabilityResult(0.01, 0.1, 5, "mc", extras={"n_failures": 3}).to_dict()
        assert list(d) == ["method", "pf", "beta", "cov", "n_calls", "extras"]

    def test_to_dict_cleans_nonfinite(self):
        r = ReliabilityResult(0.0, float("nan"), 5, "mc", extras={"a": np.arange(3)})
        d = r.to_dict()
        assert d["beta"] is None
        assert d["cov"] is None
        assert d["extras"]["a"] == [0, 1, 2]


class TestMcCov:
    def test_reference_value(self):
        assert mc_cov(1e-2, 10_000) == pytest.approx(math.sqrt(0.99 / 100.0))
        assert mc_cov(1e-2, 10_000) == pytest.approx(0.0995, abs=5e-4)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            mc_cov(0.0, 100)
        with pytest.raises(ValueError):
            mc_cov(0.5, 0)


class TestMonteCarlo:
    def test_halfspace_within_three_sigma(self):
        ls = benchmark_linear(1.0, dimension=1)
        rv = standard_normal_vector(1)
        res = estimate_mc(ls, rv, 200_000, seed=0)
        pf = float(ndtr(-1.0))
        assert abs(res.pf - pf) <= 3.0 * pf * mc_cov(pf, 200_000)
        assert res.n_calls == 200_000
        assert res.method == "mc"

    def test_no_failures_flagged(self):
        ls = benchmark_linear(8.0, dimension=1)
        rv = standard_normal_vector(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = estimate_mc(ls, rv, 1000, seed=1)
        assert res.pf == 0.0
        assert res.extras["no_failures"] is True
        assert res.extras["n_failures"] == 0

    def test_ledger_counts_every_sample(self):
        ledger = EvalLedger()
        estimate_mc(benchmark_waarts(), standard_normal_vector(2), 5000, seed=2, ledger=ledger)
        assert ledger.count == 5000

    def test_deterministic(self):
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        a = estimate_mc(ls, rv, 40_000, seed=7)
        b = estimate_mc(ls, rv, 40_000, seed=7)
        assert a.pf == b.pf and a.cov == b.cov


class TestSharedSweep:
    """Surrogate sweeps draw, sum and take the CoV exactly as crude Monte Carlo does."""

    N = 250_001  # three sweep blocks, the last one partial

    @staticmethod
    def waarts_design(pts):
        return ExperimentalDesign(pts, evaluate_batch(benchmark_waarts(), pts))

    def test_pce_pf_is_crude_mc_on_the_expansion(self):
        rv = standard_normal_vector(2)
        pts = rv.sample(40, scheme="latin_hypercube", seed=20)
        model = pce_fit_regression(rv, basis_for(rv, 3), self.waarts_design(pts))
        sur = pce_pf(model, self.N, seed=21)
        mc = estimate_mc(model.to_limit_state(), rv, self.N, seed=21)
        assert 0.0 < sur.pf < 1.0
        assert (sur.pf, sur.cov) == (mc.pf, mc.cov)
        # the blocks are one stream: the draws of one unblocked sample
        nf = int(np.count_nonzero(model.predict(rv.sample(self.N, seed=21)) <= 0.0))
        assert mc.extras["n_failures"] == nf and type(nf) is type(mc.extras["n_failures"])

    def test_kriging_band_centre_is_crude_mc_on_the_mean(self):
        rv = standard_normal_vector(2)
        pts = initial_design(rv, 20, seed=22)
        model = krig_build(self.waarts_design(pts), "constant", CorrelationKernel((1.5, 1.5)))
        mean = LimitState(2, vector_evaluator=lambda x: krig_predict_batch(model, x)[0])
        mid = krig_pf_bounds(model, rv, n=self.N, seed=23)[1]
        assert 0.0 < mid < 1.0
        assert mid == estimate_mc(mean, rv, self.N, seed=23).pf

    def test_certain_failure_pf_epsilon_is_exactly_one(self):
        rv = standard_normal_vector(2)
        pts = initial_design(rv, 6, seed=0)
        design = ExperimentalDesign(pts, np.full(6, -2.0))
        model = krig_build(design, "constant", CorrelationKernel((1.0, 1.0)))
        assert estimate_pf_epsilon(model, rv, n_eps=self.N, seed=24) == (1.0, 0.0)


class TestImportanceSampling:
    def test_centered_at_design_point_recovers_pf(self):
        beta0 = 3.0
        ls = benchmark_linear(beta0, dimension=2)
        rv = standard_normal_vector(2)
        h = InstrumentalDensity.gaussian_centered(np.array([beta0, 0.0]))
        res = estimate_is(ls, h, rv.joint_pdf, 20_000, seed=0)
        pf = float(ndtr(-beta0))
        assert abs(res.pf - pf) <= 3.0 * res.cov * res.pf
        assert res.cov < mc_cov(pf, 20_000)  # beats crude MC at equal n

    def test_from_random_vector_mirrors_mc(self):
        # h = f makes every weight one, so the estimate is a plain failure rate
        ls = benchmark_linear(1.5, dimension=2)
        rv = standard_normal_vector(2)
        h = InstrumentalDensity.from_random_vector(rv)
        res = estimate_is(ls, h, rv.joint_pdf, 30_000, seed=3)
        assert res.pf == pytest.approx(res.extras["n_failures"] / 30_000, rel=1e-12)
        pf = float(ndtr(-1.5))
        assert abs(res.pf - pf) <= 4.0 * pf * mc_cov(pf, 30_000)

    def test_zero_density_at_failing_sample_raises(self):
        ls = benchmark_linear(1.0, dimension=1)
        rv = standard_normal_vector(1)
        bad = InstrumentalDensity(
            sampler=lambda rng, n: rng.normal(2.0, 1.0, size=(n, 1)),
            density=lambda xs: np.zeros(xs.shape[0]),
        )
        with pytest.raises(EstimatorError):
            estimate_is(ls, bad, rv.joint_pdf, 100, seed=0)

    def test_optimal_linear_weights_are_constant(self):
        beta0 = 2.5
        ls = benchmark_linear(beta0, dimension=2)
        rv = standard_normal_vector(2)
        h = InstrumentalDensity.linear_optimal(beta0, np.array([1.0, 0.0]))
        res = estimate_is(ls, h, rv.joint_pdf, 2000, seed=5)
        assert res.pf == pytest.approx(float(ndtr(-beta0)), rel=1e-12)
        assert res.cov == pytest.approx(0.0, abs=1e-12)

    def test_optimal_sampler_matches_conditional_law(self):
        # axial coordinate must follow the normal truncated to [beta0, inf)
        beta0 = 2.0
        h = InstrumentalDensity.linear_optimal(beta0, np.array([0.0, 1.0]))
        xs = h.sampler(np.random.default_rng(8), 20_000)
        axial = xs[:, 1]
        assert axial.min() >= beta0
        res = stats.kstest(axial, stats.truncnorm(beta0, np.inf).cdf)
        assert res.pvalue > 0.01


# Importance weights 1{g <= 0} f / h: estimate_is with f = 1 and h = pi weighs
# rows exactly as estimate_alpha_corr does, so both run on the same cases.
WEIGHT_LS = benchmark_linear(0.5, dimension=2)  # fails where x1 >= 0.5


def pi(model, xs):
    return classification_probability(*krig_predict_batch(model, xs))


def weights_by_is(model, rows):
    h = InstrumentalDensity(sampler=lambda rng, n: rows, density=lambda xs: pi(model, xs))
    res = estimate_is(WEIGHT_LS, h, lambda xs: np.ones(len(xs)), len(rows), seed=0)
    return res.pf, res.cov


def weights_by_alpha_corr(model, rows):
    return estimate_alpha_corr(WEIGHT_LS, model, rows)


def surrogate(beta0, kernel, trend, n=12, seed=1):
    rv = standard_normal_vector(2)
    pts = initial_design(rv, n, seed=seed)
    ls = benchmark_linear(beta0, dimension=2)
    return krig_build(ExperimentalDesign(pts, evaluate_batch(ls, pts)), trend, kernel)


@pytest.mark.parametrize("run", [weights_by_is, weights_by_alpha_corr], ids=["is", "alpha_corr"])
class TestImportanceWeights:
    def test_first_uncovered_failing_row_is_named(self, run):
        # an exact surrogate of x1 >= 2: pi is 0 at rows 1 and 2, which truly fail
        model = surrogate(2.0, CorrelationKernel((2.0, 2.0)), "linear")
        rows = np.array([[-1.0, 0.0], [1.0, 0.3], [1.2, -0.5], [3.0, 0.0]])
        assert list(pi(model, rows)) == [0.0, 0.0, 0.0, 1.0]
        with pytest.raises(EstimatorError, match="failing sample 1 "):
            run(model, rows)

    def test_mean_of_inverse_probability_on_failures(self, run):
        model = surrogate(0.5, CorrelationKernel((1.5, 1.5)), "constant", n=8, seed=4)
        rows, _ = sample_instrumental(model, standard_normal_vector(2), 400, seed=5)
        p = pi(model, rows)
        fail = evaluate_batch(WEIGHT_LS, rows) <= 0.0
        assert 0 < np.count_nonzero(fail) < len(rows)
        w = np.zeros(len(rows))
        w[fail] = 1.0 / p[fail]
        assert run(model, rows) == _mean_cov(w)


def test_failing_row_without_density_weighs_zero():
    # f = h = 0 on a failing row: no mass to miss, so the row weighs 0
    model = surrogate(2.0, CorrelationKernel((2.0, 2.0)), "linear")
    rows = np.array([[1.0, 0.0], [3.0, 0.0]])
    h = InstrumentalDensity(sampler=lambda rng, n: rows, density=lambda xs: pi(model, xs))
    res = estimate_is(WEIGHT_LS, h, h.density, 2, seed=0)
    assert (res.pf, res.extras["n_failures"]) == (0.5, 2)


def test_is_weights_match_the_direct_ratio():
    rv = standard_normal_vector(2)
    h = InstrumentalDensity.gaussian_centered([0.5, 0.0], std=1.2)
    res = estimate_is(WEIGHT_LS, h, rv.joint_pdf, 3000, seed=6)
    xs = h.sampler(np.random.default_rng(6), 3000)
    fail = evaluate_batch(WEIGHT_LS, xs) <= 0.0
    w = np.zeros(3000)
    w[fail] = rv.joint_pdf(xs)[fail] / h.density(xs)[fail]
    assert (res.pf, res.cov) == _mean_cov(w)


class TestCornell:
    def test_linear_reference(self):
        # g = x1 - x2 with means (8, 3), unit stds: beta = 5/sqrt(2)
        ls = LimitState(2, lambda x: x[0] - x[1])
        rv = RandomVector((Marginal.gaussian(8.0, 1.0), Marginal.gaussian(3.0, 1.0)))
        res = cornell_index(ls, rv)
        assert res.beta == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-6)

    def test_correlated_linear_oracle(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        rv = RandomVector((Marginal.gaussian(4.0, 2.0), Marginal.gaussian(1.0, 1.0)), corr)
        a = np.array([1.0, -2.0])
        ls = LimitState(2, lambda x: a @ x + 1.0)
        res = cornell_index(ls, rv)
        mu = a @ rv.means() + 1.0
        sd = math.sqrt(a @ rv.covariance() @ a)
        assert res.beta == pytest.approx(mu / sd, abs=1e-6)
        assert res.pf == pytest.approx(float(ndtr(-mu / sd)), rel=1e-5)

    def test_constant_function_raises(self):
        ls = LimitState(2, lambda x: 4.0)
        with pytest.raises(ConditioningError):
            cornell_index(ls, standard_normal_vector(2))

    def test_waarts_origin_gradient_degenerate(self):
        # branch symmetry makes the central-difference gradient vanish at the
        # mean, so the first-order index is undefined there
        with pytest.raises(ConditioningError):
            cornell_index(benchmark_waarts(), standard_normal_vector(2))

    def test_ledger_charged(self):
        ledger = EvalLedger()
        cornell_index(benchmark_linear(2.0, dimension=2), standard_normal_vector(2), ledger=ledger)
        assert ledger.count == 5  # center + two per input

    def test_stencil_is_one_batch(self):
        ls, sizes = batch_recording(benchmark_linear(2.0, dimension=3))
        res = cornell_index(ls, standard_normal_vector(3))
        assert sizes == [1, 6]
        assert res.n_calls == 7


class TestForm:
    @pytest.mark.parametrize("beta0", [1.0, 2.0, 3.0, 4.0])
    def test_linear_exact(self, beta0):
        ls = benchmark_linear(beta0, dimension=2)
        res = form(ls, standard_normal_vector(2))
        assert res.beta == pytest.approx(beta0, abs=1e-6)
        assert res.pf == pytest.approx(float(ndtr(-beta0)), rel=1e-5)

    def test_quadratic_known_design_point(self):
        # g(u) = 3 - u1 + 0.1 u2^2 has its nearest failure point at (3, 0)
        ls = LimitState(2, lambda u: 3.0 - u[0] + 0.1 * u[1] ** 2)
        res = form(ls, standard_normal_vector(2))
        assert res.beta == pytest.approx(3.0, abs=1e-6)
        np.testing.assert_allclose(res.extras["design_point_u"], [3.0, 0.0], atol=1e-5)

    def test_physical_design_point_reported(self):
        rv = RandomVector((Marginal.lognormal(0.0, 0.25), Marginal.gaussian(1.0, 0.5)))
        ls = LimitState(2, lambda x: x[0] - x[1])
        res = form(ls, rv)
        x_star = np.asarray(res.extras["design_point_x"])
        assert ls(x_star) == pytest.approx(0.0, abs=1e-6)
        u_star = rv.to_standard(x_star[None, :])[0]
        assert np.linalg.norm(u_star) == pytest.approx(res.extras["beta_hl"], abs=1e-6)

    def test_negative_beta_when_origin_fails(self):
        # g(u) = u1 - 1 fails at the origin; pf = Phi(1)
        ls = LimitState(1, lambda u: u[0] - 1.0)
        res = form(ls, standard_normal_vector(1))
        assert res.beta == pytest.approx(-1.0, abs=1e-6)
        assert res.pf == pytest.approx(float(ndtr(1.0)), rel=1e-6)

    def test_waarts_nearest_branch(self):
        res = form(benchmark_waarts(), standard_normal_vector(2))
        assert res.beta == pytest.approx(3.0, abs=1e-3)

    def test_alignment_of_alpha(self):
        ls = benchmark_linear(2.0, direction=[1.0, 1.0])
        res = form(ls, standard_normal_vector(2))
        alpha = np.asarray(res.extras["alpha"])
        np.testing.assert_allclose(alpha, [1 / math.sqrt(2)] * 2, atol=1e-5)

    def test_no_failure_surface_raises_iteration_error(self):
        ls = LimitState(2, lambda u: 1.0 + u[0] ** 2 + u[1] ** 2)
        with pytest.raises(IterationError) as exc:
            form(ls, standard_normal_vector(2), max_iter=30)
        assert exc.value.last_iterate is not None

    def test_stalled_line_search_takes_its_smallest_step(self):
        # g jumps from 3 - x1 to 10 past x1 = 0.001, so from the origin no trial lowers
        # the merit: the search tries steps 1, 1/2, ..., 1/64, then takes 1/128 anyway
        inner = limit_state_from_expression("3 - x1 if x1 < 0.001 else 10", 2)
        batches = []

        def vec(xs):
            batches.append(xs.copy())
            return inner.vector_evaluator(xs)

        with pytest.raises(IterationError):
            form(LimitState(2, vector_evaluator=vec), standard_normal_vector(2))
        # the origin, its gradient stencil, the eight trials, then the next stencil
        assert [len(b) for b in batches[:11]] == [1, 4] + [1] * 8 + [4]
        trials = np.vstack(batches[2:10])
        np.testing.assert_allclose(trials[:, 0], 3.0 / 2.0 ** np.arange(8), rtol=1e-9)
        assert np.all(trials[:, 1] == 0.0)
        # the next stencil is taken about the last trial
        assert np.all(batches[10][[1, 3], 0] == trials[-1, 0])

    def test_extra_starts_reach_a_surface_the_default_starts_cannot(self):
        # g is flat for u1 <= 1.5, so every default start stops on a zero gradient
        ls = LimitState(1, vector_evaluator=lambda u: np.minimum(10.0, 16.0 - 4.0 * u[:, 0]))
        with pytest.raises(IterationError):
            form(ls, standard_normal_vector(1))
        res = form(ls, standard_normal_vector(1), extra_starts=[[2.0]])
        assert res.beta == pytest.approx(4.0, abs=1e-6)
        assert res.extras["n_solutions"] == 1

    def test_ledger_counts_fd_stencils(self):
        ledger = EvalLedger()
        form(benchmark_linear(2.0, dimension=2), standard_normal_vector(2), ledger=ledger)
        assert ledger.count > 0

    @pytest.mark.parametrize("m", [2, 4])
    def test_stencils_are_single_batches(self, m):
        ls, sizes = batch_recording(benchmark_linear(2.0, direction=np.arange(1.0, m + 1)))
        res = form(ls, standard_normal_vector(m))
        assert set(sizes) == {1, 2 * m}
        assert sum(sizes) == res.n_calls

    def test_waarts_call_count(self):
        # four starts converge; each keeps the gradient it converged with
        ledger = EvalLedger()
        res = form(benchmark_waarts(), standard_normal_vector(2), ledger=ledger)
        assert res.n_calls == ledger.count <= 378
        assert res.beta == pytest.approx(3.0, abs=1e-3)

    def test_nan_response_raises_model_error(self):
        # finite at the origin, NaN from u1 = 0.5 on, short of the surface at 2
        ls = LimitState(2, lambda u: 2.0 - u[0] if u[0] < 0.5 else math.nan)
        with pytest.raises(ModelError, match="non-finite"):
            form(ls, standard_normal_vector(2))


# Every function that takes an option the CLI exposes, its other arguments
# bound, so that a case names only the option it puts out of range.
OPTION_TAKERS = {
    "estimate_mc": lambda ls, rv, **kw: reliakit.estimate_mc(ls, rv, **{"n": 100, **kw}),
    "estimate_is": lambda ls, rv, **kw: reliakit.estimate_is(
        ls, InstrumentalDensity.from_random_vector(rv), rv.joint_pdf, **{"n": 100, **kw}),
    "pce_adaptive": lambda ls, rv, **kw: reliakit.pce_adaptive(
        ls, rv, **{"target_err": 1e-3, "p_max": 3, **kw}),
    **{name: getattr(reliakit, name) for name in (
        "cornell_index", "form", "qrs_estimate", "pce_estimate", "ak_estimate", "ak_mcs",
        "metais_estimate", "adaptive_margin_design")},
}

# The 16 cases of the roadmap's option item: 13 of them reached the model
# before they failed.
ROADMAP_CASES = [
    ("form", {"max_iter": 0}), ("form", {"tol": -1}), ("cornell_index", {"step": -1}),
    ("qrs_estimate", {"n_surrogate": 0}), ("pce_estimate", {"degree": 0}),
    ("pce_estimate", {"degree": 25}), ("pce_estimate", {"n_surrogate": 0}),
    ("ak_estimate", {"u_stop": -1}), ("ak_estimate", {"k": -1}),
    ("metais_estimate", {"n_corr": 0}), ("metais_estimate", {"tol": -1}),
    ("metais_estimate", {"k": -1}), ("metais_estimate", {"n_epsilon": 0}),
    ("estimate_mc", {"n": 0}), ("ak_estimate", {"n_pool": 0}), ("ak_estimate", {"budget": 0}),
]


def bad_values(name):
    """Values outside the option's range, and values of the wrong type."""
    kind, lo, hi = _OPTION_RANGES[name]
    if kind is bool:
        return [1]
    if kind is int:
        return [lo - 1, True] + ([hi + 1] if hi <= 20 else [])
    return [0.0 if lo > 0 else -1.0, math.nan, "1"] + ([math.inf] if hi < math.inf else [])


# One case per option of each function, and per way of being out of range.
# A size past 10^9 is left to the CLI's subprocess test: it would draw that
# many rows if its check went missing.
OPTION_CASES = [("pce_adaptive", {"target_err": 0.0})] + [
    (function, {name: bad})
    for function in OPTION_TAKERS
    for name in inspect.signature(getattr(reliakit, function)).parameters
    if name in _OPTION_RANGES
    for bad in bad_values(name)
]


@pytest.mark.parametrize(
    "function, options", ROADMAP_CASES + OPTION_CASES,
    ids=[f"{tag}-{f}-{k}={v!r}" for tag, cases in (("roadmap", ROADMAP_CASES), ("each", OPTION_CASES))
         for f, opts in cases for k, v in opts.items()],
)
def test_bad_option_raises_before_any_model_call(function, options):
    def first_call_raises(xs):
        raise AssertionError("the model was called")

    ledger = EvalLedger()
    ls = LimitState(2, vector_evaluator=first_call_raises)
    (name,) = options
    with pytest.raises(ValueError, match=name):
        OPTION_TAKERS[function](ls, standard_normal_vector(2), ledger=ledger, **options)
    assert ledger.count == 0
