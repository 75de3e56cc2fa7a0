"""Lock-step chain checks against known target laws."""

import math

import numpy as np
import pytest
from scipy import stats

from reliakit import SamplerError, pcn_sample
from reliakit.mcmc import _THIN


def ones(u):
    return np.ones(u.shape[0])


def test_standard_normal_target():
    # w = 1 leaves phi itself: chains started at exact N(0, I) draws stay exact
    rng = np.random.default_rng(0)
    out, info = pcn_sample(ones, rng.standard_normal((200, 2)), 4000, rng)
    assert out.shape == (4000, 2)
    assert info["move_rate"] == 1.0
    for j in range(2):
        assert stats.kstest(out[:, j], stats.norm.cdf).pvalue > 0.01


def test_bounded_support_stays_inside():
    # w = 1{u1 > 2}: N(0, 1) truncated to u1 > 2 in u1, N(0, 1) in u2
    rng = np.random.default_rng(2)
    starts = np.column_stack(
        [stats.truncnorm(2.0, np.inf).rvs(100, random_state=rng), rng.standard_normal(100)]
    )
    out, info = pcn_sample(lambda u: (u[:, 0] > 2.0).astype(float), starts, 3000, rng)
    assert out[:, 0].min() > 2.0
    assert 0.0 < info["move_rate"] < 1.0
    assert stats.kstest(out[:, 0], stats.truncnorm(2.0, np.inf).cdf).pvalue > 0.01
    assert stats.kstest(out[:, 1], stats.norm.cdf).pvalue > 0.01


def test_start_outside_support_rejected():
    starts = np.array([[3.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SamplerError):
        pcn_sample(lambda u: (u[:, 0] > 2.0).astype(float), starts, 10, np.random.default_rng(4))


def test_deterministic_per_seed():
    a, _ = pcn_sample(ones, np.zeros((3, 2)), 200, np.random.default_rng(7))
    b, _ = pcn_sample(ones, np.zeros((3, 2)), 200, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_stats_accounting():
    # 3 chains for 10 draws: 4 states per chain, the last chain cut to 2,
    # every state kept after _THIN steps and no burn-in
    calls = []

    def counted(u):
        calls.append(u.shape[0])
        return np.ones(u.shape[0])

    out, info = pcn_sample(counted, np.zeros((3, 1)), 10, np.random.default_rng(5))
    assert out.shape == (10, 1)
    assert info["n_chains"] == 3
    assert info["n_steps"] == _THIN * math.ceil(10 / 3)
    assert calls == [3] * (1 + info["n_steps"])


def test_burn_in_lengthens_the_run():
    _, plain = pcn_sample(ones, np.zeros((1, 1)), 50, np.random.default_rng(6))
    _, burnt = pcn_sample(ones, np.zeros((1, 1)), 50, np.random.default_rng(6), burn_frac=0.2)
    assert plain["n_steps"] == 50 * _THIN
    assert burnt["n_steps"] == math.ceil(50 * _THIN / 0.8)
