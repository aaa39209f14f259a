import numpy as np
import pytest

from spectral_tta import linalg
from spectral_tta.errors import ContractViolationError, RankDeficientError
from spectral_tta.ridge import (
    RegressionProblem,
    ridge_closed_form,
    spectral_ridge,
    verify_equivalence,
)


def test_identity_design_shrinks_targets():
    # X = I makes ridge a pure scalar shrinkage: theta = Y / (1 + gamma)
    y = np.array([[2.0], [-4.0], [6.0]])
    for gamma in [0.0, 0.5, 3.0]:
        prob = RegressionProblem(x=np.eye(3), y=y, gamma=gamma)
        expected = y / (1.0 + gamma)
        assert np.allclose(ridge_closed_form(prob), expected, atol=1e-12)
        assert np.allclose(spectral_ridge(prob), expected, atol=1e-12)


def test_gamma_zero_is_ols(rng):
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=(20, 2))
    prob = RegressionProblem(x=x, y=y, gamma=0.0)
    theta = ridge_closed_form(prob)
    # OLS residuals are orthogonal to the column space of X
    residual = y - x @ theta
    assert np.abs(x.T @ residual).max() <= 1e-8
    assert np.allclose(spectral_ridge(prob), theta, atol=1e-8)


def test_matches_lstsq_oracle(rng):
    # ridge as an augmented least-squares problem: stack sqrt(gamma) I
    x = rng.normal(size=(15, 5))
    y = rng.normal(size=(15, 3))
    for gamma in [0.1, 1.0, 10.0]:
        xa = np.vstack([x, np.sqrt(gamma) * np.eye(5)])
        ya = np.vstack([y, np.zeros((5, 3))])
        oracle, *_ = np.linalg.lstsq(xa, ya, rcond=None)
        prob = RegressionProblem(x=x, y=y, gamma=gamma)
        assert np.allclose(ridge_closed_form(prob), oracle, atol=1e-10)
        assert np.allclose(spectral_ridge(prob), oracle, atol=1e-10)


def test_equivalence_trials():
    report = verify_equivalence(trials=50, seed=0)
    assert report["passed"]
    assert report["max_relative_deviation"] <= 1e-8
    assert len(report["results"]) == 50


def test_equivalence_report_schema():
    report = verify_equivalence(trials=4, seed=7)
    assert set(report) == {
        "trials",
        "seed",
        "tolerance",
        "max_relative_deviation",
        "passed",
        "results",
    }
    row = report["results"][0]
    assert set(row) == {"trial", "n", "d", "k", "gamma", "relative_deviation"}
    import json

    json.dumps(report)  # JSON-ready


def test_near_singular_design_looser_tolerance(rng):
    # nearly collinear columns with a tiny regularizer still agree
    base = rng.normal(size=(30, 1))
    x = np.hstack([base, base + 1e-7 * rng.normal(size=(30, 1)), rng.normal(size=(30, 1))])
    y = rng.normal(size=(30, 2))
    prob = RegressionProblem(x=x, y=y, gamma=1e-6)
    a = ridge_closed_form(prob)
    b = spectral_ridge(prob)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-6


def test_shrinkage_monotone_in_gamma(rng):
    x = rng.normal(size=(25, 4))
    y = rng.normal(size=(25, 1))
    norms = [
        np.linalg.norm(spectral_ridge(RegressionProblem(x=x, y=y, gamma=g)))
        for g in [0.0, 0.1, 1.0, 10.0, 100.0]
    ]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_huge_gamma_limit(rng):
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=(12, 2))
    prob = RegressionProblem(x=x, y=y, gamma=1e8)
    # theta -> X'Y / gamma as gamma dominates the spectrum
    limit = x.T @ y / 1e8
    assert np.allclose(ridge_closed_form(prob), limit, rtol=1e-4)
    assert np.allclose(spectral_ridge(prob), limit, rtol=1e-4)


def test_rank_deficient_design_with_positive_gamma_matches_closed_form(rng):
    # an exact zero column is a zero mode, which the SVD leaves out
    x = rng.normal(size=(12, 4))
    x[:, 2] = 0.0
    y = rng.normal(size=(12, 2))
    prob = RegressionProblem(x=x, y=y, gamma=0.5)
    assert len(linalg.svd(x).s) == 3
    assert np.allclose(spectral_ridge(prob), ridge_closed_form(prob), atol=1e-12)


def test_singular_design_gamma_zero_raises(rng):
    col = rng.normal(size=(10, 1))
    x = np.hstack([col, 2 * col])  # rank 1
    y = rng.normal(size=(10, 1))
    prob = RegressionProblem(x=x, y=y, gamma=0.0)
    with pytest.raises(RankDeficientError):
        ridge_closed_form(prob)
    with pytest.raises(RankDeficientError):
        spectral_ridge(prob)
    # any positive gamma restores solvability
    ok = RegressionProblem(x=x, y=y, gamma=0.1)
    assert np.allclose(ridge_closed_form(ok), spectral_ridge(ok), atol=1e-10)


def test_problem_validation(rng):
    with pytest.raises(ContractViolationError):
        RegressionProblem(x=rng.normal(size=(5, 2)), y=rng.normal(size=(4, 1)), gamma=1.0)
    with pytest.raises(ContractViolationError):
        RegressionProblem(x=rng.normal(size=(5, 2)), y=rng.normal(size=(5, 1)), gamma=-0.5)
    with pytest.raises(ContractViolationError):
        verify_equivalence(trials=0, seed=0)
