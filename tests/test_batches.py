"""Every evaluator takes (n, M) rows and returns an array over rows."""

import numpy as np
import pytest

from reliakit import (
    CorrelationKernel,
    ExperimentalDesign,
    Marginal,
    PceModel,
    QuadraticSurface,
    RandomVector,
    basis_for,
    classification_probability,
    initial_design,
    krig_build,
    krig_predict_batch,
    qrs_basis,
)

RV = RandomVector(
    (Marginal.gaussian(1.0, 2.0), Marginal.lognormal(0.0, 0.3)),
    np.array([[1.0, 0.4], [0.4, 1.0]]),
)
X = RV.sample(20, seed=0)


def _pce_predict():
    basis = basis_for(RV, 3)
    coef = np.random.default_rng(2).normal(size=basis.size)
    return PceModel(basis, coef, RV).predict


def _instrumental_density():
    pts = initial_design(RV, 12, seed=1)
    design = ExperimentalDesign(pts, 4.0 - pts[:, 0] - pts[:, 1])
    model = krig_build(design, "constant", CorrelationKernel((2.0, 2.0)))
    return lambda x: classification_probability(*krig_predict_batch(model, x)) * RV.joint_pdf(x)


EVALUATORS = {
    "to_standard": lambda: RV.to_standard,
    "from_standard": lambda: RV.from_standard,
    "joint_pdf": lambda: RV.joint_pdf,
    "qrs_basis": lambda: qrs_basis,
    "QuadraticSurface.predict": lambda: QuadraticSurface(
        1.0, np.array([2.0, -1.0]), np.array([[0.5, 0.25], [0.25, -0.3]])
    ).predict,
    "PceModel.predict": _pce_predict,
    "instrumental_density": _instrumental_density,
}


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_one_row_batch_matches_full_batch(name):
    fn = EVALUATORS[name]()
    full = fn(X)
    one = fn(X[:1])
    assert isinstance(one, np.ndarray)
    assert one.shape == (1,) + full.shape[1:]
    np.testing.assert_allclose(one[0], full[0], rtol=1e-12)
