"""Quadratic response surfaces."""

import numpy as np
import pytest

from reliakit import (
    FitError,
    QuadraticSurface,
    benchmark_waarts,
    estimate_mc,
    evaluate_batch,
    make_rng,
    qrs_basis,
    qrs_estimate,
    qrs_fit,
    qrs_n_coeffs,
    standard_normal_vector,
)


def random_quadratic(m, seed):
    rng = np.random.default_rng(seed)
    c0 = float(rng.normal())
    lin = rng.normal(size=m)
    b = rng.normal(size=(m, m))
    b = 0.5 * (b + b.T)

    def g(x):
        x = np.atleast_2d(x)
        return c0 + x @ lin + np.einsum("ni,ij,nj->n", x, b, x)

    return g, c0, lin, b


class TestBasis:
    def test_reference_row(self):
        row = qrs_basis(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(row[0], [1.0, 1.0, 2.0, 1.0, 4.0, 2.0])

    def test_no_cross_terms(self):
        row = qrs_basis(np.array([[1.0, 2.0]]), include_cross=False)
        np.testing.assert_allclose(row[0], [1.0, 1.0, 2.0, 1.0, 4.0])

    def test_column_count(self):
        assert qrs_n_coeffs(2) == 6
        assert qrs_n_coeffs(3) == 10
        assert qrs_n_coeffs(3, include_cross=False) == 7
        assert qrs_basis(np.zeros((4, 5))).shape == (4, qrs_n_coeffs(5))

    def test_cross_ordering_i_lt_j(self):
        # for m=3 the tail is x1x2, x1x3, x2x3
        row = qrs_basis(np.array([[2.0, 3.0, 5.0]]))[0]
        np.testing.assert_allclose(row[-3:], [6.0, 10.0, 15.0])


class TestFit:
    def test_exact_recovery_of_random_quadratic(self):
        m = 3
        g, c0, lin, b = random_quadratic(m, seed=0)
        rng = np.random.default_rng(1)
        # three orders of magnitude of scale spread exercises the internal
        # column standardization; wider spreads push the small-scale squared
        # column below the double-precision floor of the big responses
        scale = np.array([1e2, 1.0, 1e-1])
        x = rng.normal(size=(40, m)) * scale
        surf = qrs_fit(x, g(x))
        assert surf.constant == pytest.approx(c0, rel=1e-7, abs=1e-7)
        np.testing.assert_allclose(surf.linear, lin, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(surf.quadratic, b, rtol=1e-7, atol=1e-7)
        fresh = rng.normal(size=(20, m)) * scale
        np.testing.assert_allclose(surf.predict(fresh), g(fresh), rtol=1e-8)

    def test_offset_design_keeps_predictions_stable(self):
        # large offsets cost digits in the mapped-back coefficients through
        # cancellation, but predictions on the data scale stay accurate
        m = 3
        g, *_ = random_quadratic(m, seed=2)
        rng = np.random.default_rng(1)
        scale = np.array([1e3, 1.0, 1e-2])
        center = np.array([5e3, 0.0, 0.3])
        x = rng.normal(size=(40, m)) * scale + center
        surf = qrs_fit(x, g(x))
        fresh = rng.normal(size=(20, m)) * scale + center
        np.testing.assert_allclose(surf.predict(fresh), g(fresh), rtol=1e-6)

    def test_coefficient_vector_matches_basis_layout(self):
        g, *_ = random_quadratic(2, seed=3)
        x = np.random.default_rng(4).normal(size=(20, 2))
        surf = qrs_fit(x, g(x))
        coeffs = surf.coefficients()
        np.testing.assert_allclose(qrs_basis(x) @ coeffs, g(x), rtol=1e-8)

    def test_diagnostics_on_exact_data(self):
        g, *_ = random_quadratic(2, seed=5)
        x = np.random.default_rng(6).normal(size=(25, 2))
        surf = qrs_fit(x, g(x))
        assert surf.diagnostics["r_squared"] == pytest.approx(1.0, abs=1e-10)
        assert surf.diagnostics["n_points"] == 25

    def test_underdetermined_raises(self):
        x = np.random.default_rng(7).normal(size=(5, 2))  # needs 6
        with pytest.raises(FitError):
            qrs_fit(x, np.zeros(5))

    def test_degenerate_geometry_raises(self):
        # all points on a line in the plane
        t = np.linspace(0.0, 1.0, 12)
        x = np.column_stack([t, 2.0 * t])
        with pytest.raises(FitError):
            qrs_fit(x, t)

    def test_noisy_fit_is_least_squares(self):
        # against the normal-equations solution on the raw basis
        g, *_ = random_quadratic(2, seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 2))
        y = np.asarray(g(x)) + rng.normal(scale=0.1, size=60)
        surf = qrs_fit(x, y)
        a = qrs_basis(x)
        oracle, *_ = np.linalg.lstsq(a, y, rcond=None)
        np.testing.assert_allclose(surf.coefficients(), oracle, rtol=1e-7, atol=1e-9)


class TestSurfaceObject:
    def test_single_point_predict(self):
        surf = QuadraticSurface(
            constant=1.0,
            linear=np.array([2.0, 0.0]),
            quadratic=np.array([[0.5, 0.25], [0.25, 0.0]]),
        )
        # 1 + 2*1 + (0.5*1 + 2*0.25*1*2) = 4.5
        assert surf.predict(np.array([[1.0, 2.0]])) == pytest.approx([4.5])

    def test_to_limit_state_round_trip(self):
        g, *_ = random_quadratic(2, seed=10)
        x = np.random.default_rng(11).normal(size=(30, 2))
        surf = qrs_fit(x, g(x))
        ls = surf.to_limit_state(name="qrs")
        pts = np.random.default_rng(12).normal(size=(10, 2))
        np.testing.assert_allclose(evaluate_batch(ls, pts), surf.predict(pts), rtol=1e-12)
        assert ls.dimension == 2

    def test_asymmetric_quadratic_rejected(self):
        with pytest.raises(ValueError):
            QuadraticSurface(0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimate_sweeps_the_surface_as_crude_mc(seed):
    # the surface's sweep is crude Monte Carlo on the stream left after the design
    ls, rv, n = benchmark_waarts(), standard_normal_vector(2), 150_000  # two sweep blocks
    res = qrs_estimate(ls, rv, n_surrogate=n, seed=seed)
    rng = make_rng(seed)
    pts = rv.sample(3 * qrs_n_coeffs(2), scheme="latin_hypercube", seed=rng)
    mc = estimate_mc(qrs_fit(pts, evaluate_batch(ls, pts)).to_limit_state(), rv, n, seed=rng)
    assert 0.0 < res.pf < 1.0
    assert (res.pf, res.cov) == (mc.pf, mc.cov)


def test_fit_feeds_reliability_workflow():
    # surface fitted to a linear g reproduces its failure surface
    from reliakit import benchmark_linear, estimate_mc

    ls = benchmark_linear(2.0, dimension=2)
    rv = standard_normal_vector(2)
    x = rv.sample(30, scheme="latin_hypercube", seed=13)
    surf = qrs_fit(x, evaluate_batch(ls, x))
    res = estimate_mc(surf.to_limit_state(), rv, 100_000, seed=14)
    direct = estimate_mc(ls, rv, 100_000, seed=14)
    assert res.pf == pytest.approx(direct.pf, rel=1e-6)
