"""Marginals, joint models, transforms and sampling."""

import json
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from reliakit import (
    DomainError,
    Marginal,
    ModelError,
    RandomVector,
    cli,
    estimate_mc,
    standard_normal_vector,
)


def frozen(marg: Marginal):
    """The scipy.stats distribution that a marginal's closed forms reproduce."""
    p = marg.params
    if marg.family == "gaussian":
        return stats.norm(loc=p[0], scale=p[1])
    if marg.family == "uniform":
        return stats.uniform(loc=p[0], scale=p[1] - p[0])
    if marg.family == "lognormal":
        return stats.lognorm(s=p[1], scale=math.exp(p[0]))
    if marg.family == "gamma":
        return stats.gamma(a=p[0], scale=p[1])
    return stats.beta(a=p[0], b=p[1], loc=p[2], scale=p[3] - p[2])


def mixed_vector():
    return RandomVector(
        (
            Marginal.gaussian(1.0, 2.0),
            Marginal.uniform(-1.0, 3.0),
            Marginal.lognormal(0.3, 0.8),
            Marginal.gamma(2.0, 1.5),
            Marginal.beta(2.0, 5.0, 0.0, 10.0),
        )
    )


class TestMarginal:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            Marginal.gaussian(0.0, -1.0)
        with pytest.raises(ModelError):
            Marginal.uniform(2.0, 2.0)
        with pytest.raises(ModelError):
            Marginal.gamma(-1.0, 1.0)
        with pytest.raises(ModelError):
            Marginal.beta(1.0, 1.0, 3.0, 2.0)
        with pytest.raises(ModelError):
            Marginal("cauchy", (0.0, 1.0))

    @pytest.mark.parametrize(
        "family, params",
        [
            ("gaussian", (0.0, math.nan)),
            ("gaussian", (-math.inf, 1.0)),
            ("uniform", (0.0, math.inf)),
            ("lognormal", (math.nan, 0.2)),
            ("gamma", (math.inf, 1.0)),
            ("beta", (2.0, 3.0, -math.inf, 1.0)),
        ],
    )
    def test_rejects_non_finite_parameters(self, family, params):
        with pytest.raises(ModelError, match="finite"):
            Marginal(family, params)

    def test_moments_against_closed_forms(self):
        assert Marginal.gaussian(3.0, 2.0).mean() == pytest.approx(3.0)
        assert Marginal.gaussian(3.0, 2.0).std() == pytest.approx(2.0)
        u = Marginal.uniform(-1.0, 3.0)
        assert u.mean() == pytest.approx(1.0)
        assert u.std() == pytest.approx(4.0 / math.sqrt(12.0))
        ln = Marginal.lognormal(0.3, 0.8)
        assert ln.mean() == pytest.approx(math.exp(0.3 + 0.32))
        g = Marginal.gamma(2.0, 1.5)
        assert g.mean() == pytest.approx(3.0)
        assert g.std() == pytest.approx(1.5 * math.sqrt(2.0))
        b = Marginal.beta(2.0, 5.0, 0.0, 10.0)
        assert b.mean() == pytest.approx(10.0 * 2.0 / 7.0)

    def test_quantile_inverts_cdf(self):
        for marg in mixed_vector().marginals:
            p = np.linspace(0.01, 0.99, 23)
            np.testing.assert_allclose(marg.cdf(marg.quantile(p)), p, atol=1e-10)

    def test_dict_round_trip(self):
        m = Marginal.beta(2.0, 5.0, 0.0, 10.0)
        assert Marginal.from_dict(m.to_dict()) == m

    def test_pickles_after_use(self):
        m = Marginal.gamma(2.0, 1.5)
        m.pdf(1.0)
        assert pickle.loads(pickle.dumps(m)).cdf(1.0) == m.cdf(1.0)


ORACLE_MARGINALS = [
    Marginal.gaussian(1.0, 2.0),
    Marginal.uniform(-1.0, 3.0),
    Marginal.lognormal(0.3, 0.8),
    Marginal.gamma(0.6, 1.5),
    Marginal.gamma(4.0, 0.5),
    Marginal.beta(8.0, 2.0),
    Marginal.beta(2.5, 3.5, 2.0, 5.0),
    Marginal.beta(0.5, 0.5),
]


def oracle_at(f, points):
    """scipy.stats at each point in turn, its warnings silenced; boost's overflow error
    at the pole of a beta density reads inf."""
    out = []
    for pt in points:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                out.append(float(f(pt)))
            except OverflowError:
                out.append(math.inf)
    return np.array(out)


def assert_pdf_matches(marg, got, want):
    # scipy.stats takes the beta density from boost, whose formula differs in roundoff
    if marg.family == "beta":
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("marg", ORACLE_MARGINALS, ids=lambda m: f"{m.family}{m.params}")
class TestClosedFormsAgainstScipyStats:
    def test_interior_points(self, marg):
        dist = frozen(marg)
        q = np.random.default_rng(7).random(2000)
        x = dist.ppf(q)
        assert_pdf_matches(marg, marg.pdf(x), dist.pdf(x))
        np.testing.assert_array_equal(marg.cdf(x), dist.cdf(x))
        np.testing.assert_array_equal(marg.sf(x), dist.sf(x))
        np.testing.assert_array_equal(marg.quantile(q), x)

    def test_moments_and_support(self, marg):
        dist = frozen(marg)
        assert marg.mean() == float(dist.mean())
        assert marg.std() == float(dist.std())
        assert marg.support == tuple(float(v) for v in dist.support())

    def test_at_below_and_above_each_end_of_the_support(self, marg):
        dist = frozen(marg)
        lo, hi = marg.support
        x = np.array([lo, hi, lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf),
                      np.nextafter(hi, np.inf), lo + 1e-3, hi - 1e-3, np.nan])
        assert_pdf_matches(marg, marg.pdf(x), oracle_at(dist.pdf, x))
        np.testing.assert_array_equal(marg.cdf(x), oracle_at(dist.cdf, x))
        np.testing.assert_array_equal(marg.sf(x), oracle_at(dist.sf, x))

    def test_quantile_edges(self, marg):
        dist = frozen(marg)
        q = np.array([0.0, 1.0, -0.5, 1.5, np.nan])
        got = marg.quantile(q)
        np.testing.assert_array_equal(got, oracle_at(dist.ppf, q))
        assert tuple(got[:2]) == marg.support

    def test_smallest_probability(self, marg):
        got = marg.quantile(5e-324)
        assert marg.support[0] <= got <= marg.quantile(1e-300)
        if marg.params[:2] != (2.5, 3.5):  # see test_beta_quantile_past_the_root_search
            assert got == oracle_at(frozen(marg).ppf, [5e-324])[0]

    def test_scalars_in_scalars_out(self, marg):
        x = float(frozen(marg).median())
        for value in (marg.pdf(x), marg.cdf(x), marg.sf(x), marg.quantile(0.5)):
            assert np.ndim(value) == 0 and isinstance(value, np.floating)


@pytest.mark.parametrize("q", [1e-150, 1e-200, 1e-300])
def test_beta_quantile_past_the_root_search(q):
    # betaincinv reads nan below q ~ 1e-170 at (2.5, 3.5), where scipy.stats' beta ppf
    # warns and returns its last iterate; the quantile keeps the leading term instead
    marg = Marginal.beta(2.5, 3.5)
    y = marg.quantile(q)
    assert 0.0 < y < 1e-50
    assert marg.cdf(y) == pytest.approx(q, rel=1e-12)
    assert marg.quantile(5e-324) < marg.quantile(q)


class TestTransform:
    def test_identity_for_standard_normal(self):
        rv = standard_normal_vector(3)
        x = np.array([[0.3, -1.2, 2.0]])
        np.testing.assert_allclose(rv.to_standard(x), x, atol=1e-12)
        np.testing.assert_allclose(rv.from_standard(x), x, atol=1e-12)

    def test_uniform_median_maps_to_origin(self):
        rv = RandomVector((Marginal.uniform(2.0, 6.0),))
        assert rv.to_standard(np.array([[4.0]]))[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_lognormal_map_against_cdf_oracle(self):
        # u = PhiInv(F(x)) computed independently from the lognormal CDF
        rv = RandomVector((Marginal.lognormal(0.3, 0.8),))
        x = 2.4
        u_oracle = ndtri(stats.lognorm(s=0.8, scale=math.exp(0.3)).cdf(x))
        assert rv.to_standard(np.array([[x]]))[0, 0] == pytest.approx(u_oracle, abs=1e-10)
        assert rv.to_standard(np.array([[x]]))[0, 0] == pytest.approx((math.log(x) - 0.3) / 0.8)

    def test_gamma_median_maps_near_origin(self):
        marg = Marginal.gamma(2.0, 1.5)
        rv = RandomVector((marg,))
        med = marg.quantile(0.5)
        assert rv.to_standard(np.array([[med]]))[0, 0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_round_trip_batches(self, seed):
        rv = mixed_vector()
        x = rv.sample(1000, seed=seed)
        u = rv.to_standard(x)
        np.testing.assert_allclose(rv.from_standard(u), x, rtol=1e-8, atol=1e-8)

    def test_round_trip_with_correlation(self):
        corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 1.0]])
        rv = RandomVector(
            (Marginal.gaussian(0, 1), Marginal.uniform(0, 1), Marginal.gamma(3.0, 2.0)),
            corr,
        )
        x = rv.sample(500, seed=3)
        np.testing.assert_allclose(rv.from_standard(rv.to_standard(x)), x, rtol=1e-8)

    @pytest.mark.parametrize("u", [7.0, 9.0, 20.0])
    def test_gamma_upper_tail_round_trips(self, u):
        # above the median the map inverts the survival function, so z = 20 stays 20
        marg = Marginal.gamma(4.0, 0.5)
        rv = RandomVector((marg,))
        x = rv.from_standard(np.array([[u]]))[0, 0]
        assert x == frozen(marg).isf(ndtr(-u))
        assert rv.to_standard(np.array([[x]]))[0, 0] == pytest.approx(u, rel=1e-14)

    @pytest.mark.parametrize("u", [-30.0, 30.0])
    def test_beta_far_tails_stay_finite(self, u):
        rv = RandomVector((Marginal.beta(3.0, 3.0),))
        x = rv.from_standard(np.array([[u]]))[0, 0]
        assert 0.0 < x <= 1.0
        if u < 0:
            assert rv.marginals[0].cdf(x) == pytest.approx(ndtr(u), rel=1e-12)

    def test_outside_support_raises(self):
        rv = RandomVector((Marginal.uniform(0.0, 1.0),))
        with pytest.raises(DomainError):
            rv.to_standard(np.array([[1.5]]))
        with pytest.raises(DomainError):
            rv.to_standard(np.array([[0.0]]))  # boundary excluded

    @pytest.mark.parametrize(
        "marg, u", [(Marginal.lognormal(0.0, 1.0), 800.0), (Marginal.gaussian(0.0, 1e300), 1e10)]
    )
    def test_overflow_raises_its_own_error_and_no_warning(self, marg, u):
        # exp(800) and 1e300 * 1e10 overflow; numpy's RuntimeWarning (an error in this
        # suite) must not get out before the transform's own OverflowError
        with pytest.raises(OverflowError, match="overflowed the marginal range"):
            RandomVector((marg,)).from_standard(np.array([[u]]))

    @pytest.mark.parametrize(
        "marg, x, z",
        [
            (Marginal.gaussian(0.0, 1e-300), 1e10, math.inf),
            (Marginal.gaussian(0.0, 1e-300), -1e10, -math.inf),
            (Marginal.lognormal(0.0, 1e-308), 1e10, math.inf),
        ],
    )
    def test_far_point_maps_to_infinity_without_a_warning(self, marg, x, z):
        # 1e10 / 1e-300 overflows; z is ±inf, as the exact z is past the doubles
        assert RandomVector((marg,)).to_standard(np.array([[x]]))[0, 0] == z

    def test_nonfinite_standard_point_raises(self):
        rv = standard_normal_vector(2)
        with pytest.raises(DomainError):
            rv.from_standard(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize(
        "marg", [Marginal.gaussian(0.0, 1.0), Marginal.gamma(2.0, 1.0)], ids=["gaussian", "gamma"]
    )
    def test_nan_physical_point_raises(self, marg):
        # NaN fails both the lower and the upper support test, so neither may pass it
        rv = RandomVector((marg, Marginal.gaussian(0.0, 1.0)))
        with pytest.raises(DomainError, match="component 0"):
            rv.to_standard(np.array([[np.nan, 0.0]]))


class TestCorrelationValidation:
    def test_asymmetric_rejected(self):
        c = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ModelError):
            RandomVector((Marginal.gaussian(0, 1),) * 2, c)

    def test_bad_diagonal_rejected(self):
        c = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ModelError):
            RandomVector((Marginal.gaussian(0, 1),) * 2, c)

    def test_indefinite_rejected(self):
        c = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        with pytest.raises(ModelError):
            RandomVector((Marginal.gaussian(0, 1),) * 3, c)

    def test_identity_collapses_to_independent(self):
        rv = RandomVector((Marginal.gaussian(0, 1),) * 2, np.eye(2))
        assert rv.is_independent


class TestJointPdf:
    def test_standard_normal_at_origin(self):
        rv = standard_normal_vector(2)
        assert rv.joint_pdf(np.zeros((1, 2)))[0] == pytest.approx(1.0 / (2.0 * math.pi))

    def test_unit_square_uniform(self):
        rv = RandomVector((Marginal.uniform(-1, 1), Marginal.uniform(-1, 1)))
        np.testing.assert_allclose(rv.joint_pdf(np.array([[0.2, -0.7], [1.5, 0.0]])), [0.25, 0.0])

    def test_independent_product(self):
        rv = mixed_vector()
        x = rv.sample(50, seed=8)
        expect = np.ones(50)
        for i, m in enumerate(rv.marginals):
            expect *= m.pdf(x[:, i])
        np.testing.assert_allclose(rv.joint_pdf(x), expect, rtol=1e-12)

    def test_correlated_gaussian_matches_scipy(self):
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        rv = RandomVector((Marginal.gaussian(1.0, 2.0), Marginal.gaussian(-1.0, 0.5)), corr)
        cov = np.outer([2.0, 0.5], [2.0, 0.5]) * corr
        oracle = stats.multivariate_normal(mean=[1.0, -1.0], cov=cov)
        x = rv.sample(200, seed=4)
        np.testing.assert_allclose(rv.joint_pdf(x), oracle.pdf(x), rtol=1e-9)


    def test_far_row_of_a_strong_correlation_reads_zero_without_a_warning(self):
        # y'y and z'z both overflow to inf; their difference is NaN, which joint_pdf maps to 0
        rv = RandomVector((Marginal.gaussian(0, 1),) * 2, np.array([[1.0, 0.99], [0.99, 1.0]]))
        assert rv.joint_pdf(np.array([[1e200, -1e200]]))[0] == 0.0

    def test_far_row_of_a_narrow_marginal_reads_zero_without_a_warning(self):
        # the narrow column's z overflows to inf, and the copula factor is NaN, read as 0
        rv = RandomVector((Marginal.gaussian(0, 1e-300), Marginal.gaussian(0, 1)),
                          np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert rv.joint_pdf(np.array([[1e10, 0.0]]))[0] == 0.0


class TestCopulaTails:
    """The copula factor stays exact past the reach of the clipped normal quantile."""

    RHO = 0.6
    CORR = np.array([[1.0, RHO], [RHO, 1.0]])

    def pair_density(self, a, b):
        """Closed-form standard bivariate normal density at correlation RHO."""
        r = self.RHO
        q = (a * a - 2.0 * r * a * b + b * b) / (1.0 - r * r)
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(1.0 - r * r))

    @pytest.mark.parametrize("k", [8.5, 9.0, 10.0])
    def test_gaussian_pair_upper_tail(self, k):
        rv = RandomVector((Marginal.gaussian(1.0, 2.0), Marginal.gaussian(-1.0, 0.5)), self.CORR)
        for a, b in ((k, k), (k, 0.5 * k)):
            got = rv.joint_pdf(np.array([[1.0 + 2.0 * a, -1.0 + 0.5 * b]]))[0]
            assert got / (self.pair_density(a, b) / (2.0 * 0.5)) == pytest.approx(1.0, rel=1e-9)

    def test_lognormal_column_upper_tail(self):
        rv = RandomVector((Marginal.lognormal(0.2, 0.5), Marginal.gaussian(0.0, 1.0)), self.CORR)
        x1 = math.exp(0.2 + 0.5 * 9.0)
        got = rv.joint_pdf(np.array([[x1, 8.0]]))[0]
        assert got / (self.pair_density(9.0, 8.0) / (0.5 * x1)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("x1", [35.0, 45.0, 50.0])  # 7.2, 8.4 and 8.9 sigma
    def test_gamma_column_upper_tail(self, x1):
        # the normal score comes from the survival function above the median
        rv = RandomVector((Marginal.gamma(3.0, 1.0), Marginal.gaussian(0.0, 1.0)), self.CORR)
        z1 = stats.norm.isf(stats.gamma.sf(x1, 3.0))
        got = rv.joint_pdf(np.array([[x1, z1]]))[0]
        phi = math.exp(-0.5 * z1 * z1) / math.sqrt(2.0 * math.pi)
        want = self.pair_density(z1, z1) * stats.gamma.pdf(x1, 3.0) / phi
        assert got / want == pytest.approx(1.0, rel=1e-9)

    def test_row_on_a_uniform_bound_reads_zero(self):
        rv = RandomVector((Marginal.uniform(0.0, 1.0), Marginal.gaussian(0.0, 1.0)), self.CORR)
        dens = rv.joint_pdf(np.array([[0.0, 0.3], [0.5, 0.3], [1.0, 0.3], [1.5, 0.3]]))
        assert dens[0] == dens[2] == dens[3] == 0.0
        assert dens[1] > 0.0


class TestSampling:
    def test_deterministic_per_seed(self):
        rv = mixed_vector()
        a = rv.sample(64, seed=5)
        b = rv.sample(64, seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, rv.sample(64, seed=6))

    def test_lhs_hits_every_stratum(self):
        rv = standard_normal_vector(3)
        n = 50
        x = rv.sample(n, scheme="latin_hypercube", seed=2)
        for j in range(3):
            strata = np.floor(ndtr(x[:, j]) * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_lhs_under_correlation_stratifies_base_coordinates(self):
        corr = np.array([[1.0, 0.7], [0.7, 1.0]])
        rv = RandomVector((Marginal.gaussian(0, 1), Marginal.uniform(0, 1)), corr)
        n = 40
        x = rv.sample(n, scheme="latin_hypercube", seed=2)
        u = rv.to_standard(x)
        # first base coordinate equals z1, so its strata survive the copula mix
        strata = np.floor(ndtr(u[:, 0]) * n).astype(int)
        assert sorted(strata) == list(range(n))

    @pytest.mark.parametrize("idx", [0, 2, 3])
    def test_marginal_distribution_ks(self, idx):
        rv = mixed_vector()
        x = rv.sample(20_000, seed=idx)
        res = stats.kstest(x[:, idx], frozen(rv.marginals[idx]).cdf)
        assert res.pvalue > 0.01

    def test_correlation_is_realized(self):
        corr = np.array([[1.0, 0.8], [0.8, 1.0]])
        rv = RandomVector((Marginal.gaussian(0, 1), Marginal.gaussian(0, 1)), corr)
        x = rv.sample(50_000, seed=11)
        assert np.corrcoef(x.T)[0, 1] == pytest.approx(0.8, abs=0.01)

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            standard_normal_vector(1).sample(0)
        with pytest.raises(ValueError):
            standard_normal_vector(1).sample(10, scheme="sobol")


class TestDirectDraws:
    """Independent beta and gamma columns come from numpy's own generators."""

    N = 100_000

    @staticmethod
    def normal_map(rv, n, seed):
        return rv.from_standard(np.random.default_rng(seed).standard_normal((n, rv.dimension)))

    def free_vector(self):
        corr = np.eye(5)
        corr[0, 4] = corr[4, 0] = 0.4
        return RandomVector(
            (
                Marginal.gaussian(1.0, 2.0),
                Marginal.beta(8.0, 2.0, -1.0, 3.0),
                Marginal.gamma(4.0, 0.5),
                Marginal.uniform(-1.0, 3.0),
                Marginal.lognormal(0.3, 0.8),
            ),
            corr,
        )

    def test_free_columns_follow_their_marginals(self):
        rv = self.free_vector()
        assert rv._free == (1, 2)
        x = rv.sample(self.N, seed=7)
        for j in rv._free:
            assert stats.kstest(x[:, j], rv.marginals[j].cdf).pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 1000, 100_000])
    def test_other_columns_keep_the_normal_stream(self, n):
        rv = self.free_vector()
        x, want = rv.sample(n, seed=8), self.normal_map(rv, n, 8)
        np.testing.assert_array_equal(x[:, [0, 3, 4]], want[:, [0, 3, 4]])
        assert not np.array_equal(x[:, [1, 2]], want[:, [1, 2]])

    def test_coupled_columns_keep_the_inverse_cdf(self):
        corr = np.eye(4)
        corr[0, 1] = corr[1, 0] = 0.3
        corr[2, 3] = corr[3, 2] = -0.2
        rv = RandomVector(
            (
                Marginal.beta(2.0, 5.0, 0.0, 10.0),
                Marginal.gaussian(0.0, 1.0),
                Marginal.gamma(2.0, 1.5),
                Marginal.lognormal(0.3, 0.8),
            ),
            corr,
        )
        assert rv._free == ()
        np.testing.assert_array_equal(rv.sample(5000, seed=9), self.normal_map(rv, 5000, 9))
        gaussian = standard_normal_vector(3)
        np.testing.assert_array_equal(gaussian.sample(5000, seed=9), self.normal_map(gaussian, 5000, 9))

    def test_compare_problem_mc_matches_its_reference(self):
        config = Path(__file__).resolve().parents[1] / "perfbench" / "compare_physical.json"
        spec = json.loads(config.read_text())
        ls, rv = cli._build_problem(spec["problem"])
        assert rv._free == (1, 2)
        ref = spec["reference"]["pf"]
        pfs, sigmas = [], []
        for seed in range(1, 11):
            res = estimate_mc(ls, rv, 200_000, seed=seed)
            sigma = res.pf * res.cov
            assert abs(res.pf - ref) <= 4.0 * sigma, (seed, res.pf)
            pfs.append(res.pf)
            sigmas.append(sigma)
        pooled_sigma = math.sqrt(sum(s * s for s in sigmas)) / len(sigmas)
        assert abs(sum(pfs) / len(pfs) - ref) <= 2.0 * pooled_sigma


def test_moment_helpers():
    rv = mixed_vector()
    np.testing.assert_allclose(rv.means(), [m.mean() for m in rv.marginals])
    np.testing.assert_allclose(rv.stds(), [m.std() for m in rv.marginals])
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    rv2 = RandomVector((Marginal.gaussian(0, 2), Marginal.gaussian(0, 3)), corr)
    np.testing.assert_allclose(rv2.covariance(), [[4.0, 3.0], [3.0, 9.0]])


def test_vector_dict_round_trip():
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    rv = RandomVector((Marginal.gaussian(0, 2), Marginal.uniform(0, 1)), corr)
    clone = RandomVector.from_dict(rv.to_dict())
    assert clone.marginals == rv.marginals
    np.testing.assert_allclose(clone.correlation, corr)
