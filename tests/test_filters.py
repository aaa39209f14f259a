import warnings

import numpy as np
import pytest

from spectral_tta import pca
from spectral_tta.errors import ContractViolationError
from spectral_tta.filters import (
    NEG_EXP,
    RELU_RIDGE,
    SpectralFilter,
    apply_filter,
    apply_filter_backward,
)


def test_relu_ridge_diag_values():
    f = SpectralFilter(RELU_RIDGE, lambda_ref=[2.0, 2.0, 1.0], gamma=[0.0, 2.0, -5.0])
    assert np.allclose(f.diag(), [1.0, 0.5, 1.0], atol=1e-15)


def test_neg_exp_diag_values():
    lam = np.array([0.7, 3.0])
    f = SpectralFilter(NEG_EXP, lambda_ref=lam, gamma=np.sqrt(lam))
    assert np.allclose(f.diag(), [0.5, 0.5], atol=1e-12)


def test_filter_validation():
    with pytest.raises(ContractViolationError):
        SpectralFilter("other", [1.0])
    with pytest.raises(ContractViolationError):
        SpectralFilter(RELU_RIDGE, [1.0, 0.0])
    with pytest.raises(ContractViolationError, match="finite"):
        SpectralFilter(RELU_RIDGE, [np.inf, 1.0])
    with pytest.raises(ContractViolationError):
        SpectralFilter(RELU_RIDGE, [1.0], gamma=[np.inf])
    with pytest.raises(ContractViolationError):
        SpectralFilter(RELU_RIDGE, [1.0, 2.0], gamma=[0.0])


def test_grad_trivial_zeros():
    f = SpectralFilter(NEG_EXP, [1.0, 5.0], gamma=[0.0, 0.0])
    assert np.array_equal(f.diag_grad(), [0.0, 0.0])
    f = SpectralFilter(RELU_RIDGE, [1.0], gamma=[-1.0])
    assert np.array_equal(f.diag_grad(), [0.0])


@pytest.mark.parametrize("kind", [RELU_RIDGE, NEG_EXP])
def test_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        lam = rng.uniform(0.1, 10.0, size=4)
        gamma = rng.uniform(-3.0, 3.0, size=4)
        # stay off the relu kink
        gamma[np.abs(gamma) < 10 * h] = 0.5
        f = SpectralFilter(kind, lam, gamma)
        analytic = f.diag_grad()
        fp = SpectralFilter(kind, lam, gamma + h).diag()
        fm = SpectralFilter(kind, lam, gamma - h).diag()
        fd = (fp - fm) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(fd - analytic) / denom) <= 1e-5


def test_range_fuzz_extreme_grids():
    lams = [1e-12, 1e-6, 1.0, 1e3, 1e6]
    gammas = [-1e3, -1.0, 0.0, 1.0, 1e3]
    with np.errstate(over="raise", invalid="raise"):
        for lam in lams:
            for g in gammas:
                fr = SpectralFilter(RELU_RIDGE, [lam], [g]).diag()[0]
                assert 0.0 < fr <= 1.0
                fe = SpectralFilter(NEG_EXP, [lam], [g]).diag()[0]
                assert 0.0 < fe < 1.0
                SpectralFilter(RELU_RIDGE, [lam], [g]).diag_grad()
                SpectralFilter(NEG_EXP, [lam], [g]).diag_grad()


@pytest.mark.parametrize("gamma", [1e300, -1e300])
@pytest.mark.parametrize("kind", [RELU_RIDGE, NEG_EXP])
def test_huge_gamma_keeps_diag_in_range_and_grad_finite_without_warning(kind, gamma):
    f = SpectralFilter(kind, [1e-6, 1.0, 95.0], [gamma] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag, grad = f.diag(), f.diag_grad()
    top = 1.0 if kind == RELU_RIDGE else np.nextafter(1.0, 0.0)
    assert np.all((0 < diag) & (diag <= top))
    assert np.all(np.isfinite(grad))


def test_relu_ridge_monotone_decreasing_in_gamma():
    lam = np.array([2.5])
    gammas = np.linspace(0.1, 50.0, 40)
    vals = [SpectralFilter(RELU_RIDGE, lam, [g]).diag()[0] for g in gammas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert SpectralFilter(RELU_RIDGE, lam, [1e12]).diag()[0] < 1e-10


def _full_rank_basis(rng, n=12, p=5):
    return pca.fit_incremental([rng.normal(size=(n, p))], rank=p)


def _filter(basis, f, x):
    """Decompose x, filter the scores, reconstruct with (V, mean)."""
    return apply_filter(f, pca.transform(basis, x), basis.components, basis.mean)


def test_apply_identity_filter_round_trip(rng):
    basis = _full_rank_basis(rng)
    f = SpectralFilter(RELU_RIDGE, basis.singular_values)  # gamma = 0
    x = rng.normal(size=(6, 5))
    out, _ = _filter(basis, f, x)
    assert np.linalg.norm(out - x) / np.linalg.norm(x) <= 1e-8


def test_apply_zero_filter_returns_mean(rng, monkeypatch):
    basis = _full_rank_basis(rng)
    f = SpectralFilter(RELU_RIDGE, basis.singular_values)
    monkeypatch.setattr(f, "diag", lambda: np.zeros(basis.rank))
    x = rng.normal(size=(4, 5))
    out, _ = _filter(basis, f, x)
    assert np.allclose(out, np.tile(basis.mean, (4, 1)), atol=1e-12)


def test_apply_matches_dense_projector(rng):
    basis = pca.fit_incremental([rng.normal(size=(12, 5))], rank=3)
    f = SpectralFilter(NEG_EXP, basis.singular_values, gamma=rng.normal(size=3))
    x = rng.normal(size=(7, 5))
    out, _ = _filter(basis, f, x)
    v = basis.components.T  # p x L
    dense = v @ np.diag(f.diag()) @ v.T
    expected = (x - basis.mean) @ dense + basis.mean
    assert np.allclose(out, expected, atol=1e-10)


def test_apply_shape_checks(rng):
    basis = _full_rank_basis(rng)
    f = SpectralFilter(RELU_RIDGE, basis.singular_values)
    with pytest.raises(ContractViolationError, match="scores have 4 columns, filter length is 5"):
        apply_filter(f, rng.normal(size=(3, 4)), basis.components[:4], basis.mean)
    short = SpectralFilter(RELU_RIDGE, basis.singular_values[:3])
    with pytest.raises(ContractViolationError, match="scores have 5 columns, filter length is 3"):
        _filter(basis, short, rng.normal(size=(3, 5)))


def test_backward_zero_upstream(rng):
    basis = _full_rank_basis(rng)
    f = SpectralFilter(RELU_RIDGE, basis.singular_values, gamma=rng.uniform(0.5, 2, 5))
    _, cache = _filter(basis, f, rng.normal(size=(3, 5)))
    ggamma, gscores = apply_filter_backward(cache, np.zeros((3, 5)))
    assert np.array_equal(ggamma, np.zeros(5))
    assert np.array_equal(gscores, np.zeros((3, 5)))


def test_backward_neg_exp_gamma_zero(rng):
    basis = _full_rank_basis(rng)
    f = SpectralFilter(NEG_EXP, basis.singular_values)  # gamma = 0
    _, cache = _filter(basis, f, rng.normal(size=(3, 5)))
    ggamma, _ = apply_filter_backward(cache, rng.normal(size=(3, 5)))
    assert np.array_equal(ggamma, np.zeros(5))


def test_backward_stale_cache_rejected(rng):
    basis = _full_rank_basis(rng)
    f = SpectralFilter(RELU_RIDGE, basis.singular_values)
    _, cache = _filter(basis, f, rng.normal(size=(3, 5)))
    with pytest.raises(ContractViolationError):
        apply_filter_backward(cache, rng.normal(size=(4, 5)))


@pytest.mark.parametrize("kind", [RELU_RIDGE, NEG_EXP])
def test_backward_matches_loss_finite_differences(kind):
    rng = np.random.default_rng(42)
    h = 1e-6
    for trial in range(20):
        basis = pca.fit_incremental([rng.normal(size=(10, 4))], rank=3)
        gamma = rng.uniform(0.3, 2.0, size=3)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 4))  # loss = sum(w * out)
        f = SpectralFilter(kind, basis.singular_values, gamma)
        _, cache = _filter(basis, f, x)
        ggamma, _ = apply_filter_backward(cache, w)
        for i in range(3):
            gp = gamma.copy()
            gp[i] += h
            lp = np.sum(w * _filter(basis, SpectralFilter(kind, basis.singular_values, gp), x)[0])
            gm = gamma.copy()
            gm[i] -= h
            lm = np.sum(w * _filter(basis, SpectralFilter(kind, basis.singular_values, gm), x)[0])
            fd = (lp - lm) / (2 * h)
            assert abs(fd - ggamma[i]) / max(abs(fd), 1e-8) <= 1e-5


def test_apply_linear_in_centered_features(rng):
    basis = pca.fit_incremental([rng.normal(size=(10, 4))], rank=2)
    f = SpectralFilter(NEG_EXP, basis.singular_values, gamma=[0.3, -0.7])
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    a, b = 1.7, -0.4

    def centered_map(z):
        out, _ = _filter(basis, f, z + basis.mean)
        return out - basis.mean

    lhs = centered_map(a * x + b * y)
    rhs = a * centered_map(x) + b * centered_map(y)
    assert np.allclose(lhs, rhs, atol=1e-9)
