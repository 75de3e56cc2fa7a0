"""Surrogate-corrected importance sampling."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from reliakit import (
    CorrelationKernel,
    EstimatorError,
    EvalLedger,
    ExperimentalDesign,
    MetaIsResult,
    benchmark_linear,
    benchmark_waarts,
    classification_probability,
    estimate_alpha_corr,
    estimate_pf_epsilon,
    evaluate_batch,
    initial_design,
    krig_build,
    krig_fit,
    krig_predict_batch,
    metais_estimate,
    sample_instrumental,
    standard_normal_vector,
)


def certain_all_fail_model(rv, dim=2):
    """Surrogate with zero deviation and negative mean everywhere."""
    pts = initial_design(rv, 6, seed=0)
    design = ExperimentalDesign(pts, np.full(6, -2.0))
    return krig_build(design, "constant", CorrelationKernel((1.0,) * dim))


def exact_linear_model(rv, beta0=2.0, n=12, seed=1):
    """Linear trend on a linear g: interpolates exactly, sigma ~ 0."""
    ls = benchmark_linear(beta0, dimension=rv.dimension)
    pts = initial_design(rv, n, seed=seed)
    design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
    return krig_build(
        design, "linear", CorrelationKernel((2.0,) * rv.dimension)
    )


def instrumental_density(model, rv, x):
    """Unnormalized instrumental density pi(x) f_X(x) at rows x."""
    return classification_probability(*krig_predict_batch(model, x)) * rv.joint_pdf(x)


def ambiguous_waarts_model(n=25, seed=3):
    ls = benchmark_waarts()
    rv = standard_normal_vector(2)
    pts = initial_design(rv, n, seed=seed)
    design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
    return krig_fit(design, seed=seed), rv


class TestPfEpsilon:
    def test_certain_failure_gives_one(self):
        rv = standard_normal_vector(2)
        model = certain_all_fail_model(rv)
        val, cov = estimate_pf_epsilon(model, rv, n_eps=2000, seed=5)
        assert val == 1.0
        assert cov == 0.0

    def test_zero_true_model_cost(self):
        model, rv = ambiguous_waarts_model()
        ledger = EvalLedger()
        # nothing here touches the ledger because only the surrogate is swept
        estimate_pf_epsilon(model, rv, n_eps=10_000, seed=6)
        assert ledger.count == 0

    def test_exact_linear_surrogate_matches_normal_tail(self):
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)
        val, cov = estimate_pf_epsilon(model, rv, n_eps=400_000, seed=7)
        pf = float(ndtr(-2.0))
        assert abs(val - pf) <= 3.5 * cov * val

    def test_cov_shrinks_with_root_n(self):
        model, rv = ambiguous_waarts_model()
        _, cov1 = estimate_pf_epsilon(model, rv, n_eps=20_000, seed=8)
        _, cov2 = estimate_pf_epsilon(model, rv, n_eps=80_000, seed=8)
        assert cov2 == pytest.approx(cov1 / 2.0, rel=0.2)

    def test_chunking_does_not_change_the_sum(self):
        # 250,000 draws span three sweep blocks; the blockwise sum must equal
        # the compensated sum over one unblocked sample of the same stream
        model, rv = ambiguous_waarts_model()
        pi = classification_probability(
            *krig_predict_batch(model, rv.sample(250_000, seed=np.random.default_rng(9)))
        )
        value = estimate_pf_epsilon(model, rv, n_eps=250_000, seed=9)[0]
        assert value == math.fsum(pi) / 250_000


class TestSampler:
    def test_reduces_to_input_law_when_pi_is_one(self):
        # all-fail surrogate: the instrumental is exactly f_X
        rv = standard_normal_vector(2)
        model = certain_all_fail_model(rv)
        xs, _ = sample_instrumental(model, rv, 1500, seed=10)
        for j in range(2):
            res = stats.kstest(xs[:, j], stats.norm.cdf)
            assert res.pvalue > 0.01

    def test_all_draws_have_positive_pi(self):
        model, rv = ambiguous_waarts_model()
        xs, _ = sample_instrumental(model, rv, 500, seed=11)
        dens = instrumental_density(model, rv, xs)
        assert np.all(dens > 0.0)

    def test_linear_surrogate_shifts_mass_to_failure_side(self):
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)
        xs, _ = sample_instrumental(model, rv, 800, seed=12)
        assert float(np.mean(xs[:, 0])) > 1.5

    def test_no_support_raises(self):
        # all-safe certain surrogate has pi = 0 everywhere
        from reliakit import SamplerError

        rv = standard_normal_vector(2)
        pts = initial_design(rv, 6, seed=13)
        design = ExperimentalDesign(pts, np.full(6, 5.0))
        model = krig_build(design, "constant", CorrelationKernel((1.0, 1.0)))
        with pytest.raises(SamplerError):
            sample_instrumental(model, rv, 100, seed=14)

    def test_deterministic_per_seed(self):
        model, rv = ambiguous_waarts_model()
        a, info_a = sample_instrumental(model, rv, 200, seed=15)
        b, info_b = sample_instrumental(model, rv, 200, seed=15)
        np.testing.assert_array_equal(a, b)
        assert info_a == info_b

    def test_returns_the_sampler_record(self):
        model, rv = ambiguous_waarts_model()
        xs, info = sample_instrumental(model, rv, 100, seed=16)
        assert xs.shape == (100, 2)
        assert info["sampler"] == "rejection"
        assert info["n_proposals"] > 100
        assert 0.0 < info["acceptance"] <= 1.0

    def test_exact_linear_surrogate_draws_truncated_normal(self):
        # pi is the exact failure indicator, so h is N(0, 1) truncated to
        # x1 > 2 in x1 and untouched N(0, 1) in x2, drawn i.i.d.
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)
        xs, info = sample_instrumental(model, rv, 1000, seed=30)
        assert info["sampler"] == "rejection"
        assert info["acceptance"] == pytest.approx(float(ndtr(-2.0)), rel=0.2)
        assert stats.kstest(xs[:, 0], stats.truncnorm(2.0, np.inf).cdf).pvalue > 0.01
        assert stats.kstest(xs[:, 1], stats.norm.cdf).pvalue > 0.01

    def test_rare_event_falls_back_to_slice_chain(self):
        # pf_epsilon = Phi(-4.5) ~ 3.4e-6 would need ~1.5e7 proposals for 50
        # draws; the switch comes after a few batches at most
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=4.5)
        xs, info = sample_instrumental(model, rv, 50, seed=31)
        assert info["sampler"] == "chain"
        assert 0 < info["n_proposals"] < 100_000
        assert info["n_steps"] > 50
        assert xs.shape == (50, 2)
        assert np.all(xs[:, 0] > 4.4)

    def test_fallback_keeps_the_rows_already_accepted(self, monkeypatch):
        # with the switch forced after one batch, the rejection rows come
        # first, exactly as rejection alone draws them, and the chain adds
        # the rest
        from reliakit import metais

        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)
        alone, _ = sample_instrumental(model, rv, 1000, seed=32)
        monkeypatch.setattr(metais, "_PROPOSALS_PER_DRAW_PER_DIM", 1)
        xs, info = sample_instrumental(model, rv, 1000, seed=32)
        kept = round(info["acceptance"] * info["n_proposals"])
        assert info["sampler"] == "chain"
        assert 0 < kept < 1000
        assert info["n_chains"] == kept
        assert xs.shape == (1000, 2)
        np.testing.assert_array_equal(xs[:kept], alone[:kept])
        assert np.all(xs[:, 0] > 2.0)

    def test_fallback_chains_keep_the_mode_weights(self, monkeypatch):
        # w = 1{|x1| > 2.5} has two equal modes that no chain crosses;
        # chains started at the accepted rows still split their draws evenly
        from reliakit import metais

        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)  # mean 2 - x1
        monkeypatch.setattr(metais, "_PROPOSALS_PER_DRAW_PER_DIM", 1)
        monkeypatch.setattr(
            metais,
            "classification_probability",
            lambda mu, sd: (np.abs(mu - 2.0) > 2.5).astype(float),
        )
        xs, info = sample_instrumental(model, rv, 2000, seed=np.random.default_rng(34))
        assert info["sampler"] == "chain"
        assert info["acceptance"] * info["n_proposals"] < 500
        assert np.all(np.abs(xs[:, 0]) > 2.5)
        assert 0.4 < float(np.mean(xs[:, 0] > 0.0)) < 0.6

    def test_zero_draws_rejected(self):
        model, rv = ambiguous_waarts_model()
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_instrumental(model, rv, 0, seed=33)


class TestAlphaCorr:
    def test_perfect_surrogate_gives_exactly_one(self):
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)
        ls = benchmark_linear(2.0, dimension=2)
        xs, _ = sample_instrumental(model, rv, 400, seed=17)
        alpha, cov = estimate_alpha_corr(ls, model, xs)
        assert alpha == 1.0
        assert cov == 0.0

    def test_ledger_charged_per_sample(self):
        model, rv = ambiguous_waarts_model()
        xs, _ = sample_instrumental(model, rv, 150, seed=18)
        ledger = EvalLedger()
        estimate_alpha_corr(benchmark_waarts(), model, xs, ledger=ledger)
        assert ledger.count == 150

    def test_order_invariance(self):
        model, rv = ambiguous_waarts_model()
        xs, _ = sample_instrumental(model, rv, 200, seed=19)
        a, _ = estimate_alpha_corr(benchmark_waarts(), model, xs)
        perm = np.random.default_rng(20).permutation(200)
        b, _ = estimate_alpha_corr(benchmark_waarts(), model, xs[perm])
        assert a == pytest.approx(b, rel=1e-13)

    def test_misclassifying_surrogate_blows_up_variance(self):
        # surrogate believes failure starts four units late, so true failing
        # points carry tiny pi and huge weights; constant trend keeps a
        # residual deviation so pi stays positive
        rv = standard_normal_vector(2)
        ls = benchmark_linear(3.0, dimension=2)
        pts = initial_design(rv, 12, seed=21)
        shifted = evaluate_batch(benchmark_linear(7.0, dimension=2), pts)
        model = krig_build(
            ExperimentalDesign(pts, shifted),
            "constant",
            CorrelationKernel((2.0, 2.0)),
        )
        # samples concentrated where g truly fails but pi is minuscule
        failing = np.column_stack([np.full(50, 3.5), np.linspace(-1, 1, 50)])
        alpha, cov = estimate_alpha_corr(ls, model, failing)
        assert alpha > 100.0  # weights 1/pi explode

    def test_zero_pi_failing_sample_raises(self):
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)  # sigma ~ 0 past the plane
        ls = benchmark_linear(0.5, dimension=2)  # truly fails where pi = 0
        bad = np.array([[1.0, 0.0]])
        with pytest.raises(EstimatorError):
            estimate_alpha_corr(ls, model, bad)


class TestFullEstimate:
    def test_product_identity_and_accounting(self):
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        ledger = EvalLedger()
        res = metais_estimate(
            ls,
            rv,
            n_epsilon=20_000,
            n_corr=60,
            budget=40,
            n_bounds=20_000,
            n_chain=120,
            seed=22,
            ledger=ledger,
        )
        assert res.pf == pytest.approx(res.pf_epsilon * res.alpha_corr, rel=1e-14)
        assert res.n_model_calls_corr == 60
        assert res.n_model_calls_doe + res.n_model_calls_corr == ledger.count
        assert res.cov_total == pytest.approx(
            math.hypot(res.cov_epsilon, res.cov_alpha), rel=1e-12
        )

    def test_linear_benchmark_unbiased(self):
        ls = benchmark_linear(2.0, dimension=2)
        rv = standard_normal_vector(2)
        res = metais_estimate(
            ls, rv, n_epsilon=50_000, n_corr=100, budget=40, n_bounds=20_000, seed=23
        )
        pf = float(ndtr(-2.0))
        se = res.cov_total * res.pf
        assert abs(res.pf - pf) <= 3.0 * se + 1e-12

    def test_prebuilt_model_skips_enrichment(self):
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)
        ls = benchmark_linear(2.0, dimension=2)
        ledger = EvalLedger()
        res = metais_estimate(
            ls, rv, n_epsilon=30_000, n_corr=50, model=model, seed=24, ledger=ledger
        )
        # the embedded design cost is reported, but this run only pays for
        # the correction stage
        assert res.n_model_calls_doe == model.design.size
        assert ledger.count == 50
        assert res.extras.get("prebuilt_surrogate") is True
        assert res.converged

    @pytest.mark.parametrize(
        "prebuilt, options",
        [(True, {"budget": 10}), (True, {"bogus": 1}), (False, {"bogus": 1})],
        ids=["budget-with-model", "bogus-with-model", "bogus-without-model"],
    )
    def test_doe_options_that_cannot_apply_raise_before_any_call(self, prebuilt, options):
        # a DoE option next to a prebuilt model would be dropped silently,
        # and an unknown one is rejected by the DoE's own signature
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0) if prebuilt else None
        ledger = EvalLedger()
        with pytest.raises(TypeError, match="budget|bogus"):
            metais_estimate(
                benchmark_linear(2.0, dimension=2), rv, model=model, seed=24, ledger=ledger,
                **options,
            )
        assert ledger.count == 0

    def test_exact_surrogate_stops_on_tight_bounds(self):
        # a linear trend fits the linear g exactly after the 12-point initial
        # design, so the pf band has zero width and the DoE stops there
        ls = benchmark_linear(2.0, dimension=2)
        rv = standard_normal_vector(2)
        res = metais_estimate(
            ls,
            rv,
            n_epsilon=30_000,
            n_corr=50,
            budget=40,
            n_bounds=20_000,
            trend="linear",
            seed=25,
        )
        assert res.converged
        assert res.extras["doe_stop_reason"] == "bounds_tight"
        assert res.n_model_calls_doe == 12

    def test_result_dict_shape(self):
        rv = standard_normal_vector(2)
        model = exact_linear_model(rv, beta0=2.0)
        res = metais_estimate(
            benchmark_linear(2.0, dimension=2),
            rv,
            n_epsilon=10_000,
            n_corr=30,
            model=model,
            seed=26,
        )
        d = res.to_dict()
        assert d["method"] == "metais"
        assert d["n_calls"] == d["n_calls_doe"] + d["n_calls_corr"]
        assert d["pf"] > 0.0
        assert isinstance(res, MetaIsResult)

    def test_deterministic_per_seed(self):
        ls = benchmark_waarts()
        rv = standard_normal_vector(2)
        kw = dict(n_epsilon=10_000, n_corr=30, budget=30, n_bounds=10_000, n_chain=80)
        a = metais_estimate(ls, rv, seed=27, **kw)
        b = metais_estimate(ls, rv, seed=27, **kw)
        assert a.pf == b.pf
        assert a.n_model_calls_doe == b.n_model_calls_doe
