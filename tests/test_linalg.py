import numpy as np
import pytest

from spectral_tta import bench, linalg
from spectral_tta.errors import ContractViolationError, NumericalFailureError


def test_svd_identity():
    res = linalg.svd(np.eye(3))
    assert np.allclose(res.s, [1.0, 1.0, 1.0], atol=1e-12)


def test_svd_diagonal():
    res = linalg.svd(np.diag([3.0, 1.0]))
    assert np.allclose(res.s, [3.0, 1.0], atol=1e-12)
    # sign convention orients every right vector positively, so vt is I exactly
    assert np.allclose(res.vt, np.eye(2), atol=1e-12)


def _assert_compact_svd_of(res, a):
    """``a`` is reconstructed from its projection onto the rows of ``vt``,
    and the columns of that projection have norms ``s``."""
    proj = a @ res.vt.T
    assert np.linalg.norm(proj @ res.vt - a) / np.linalg.norm(a) <= 1e-8
    assert np.allclose(np.linalg.norm(proj, axis=0), res.s, rtol=1e-10, atol=1e-12)


def test_svd_reconstruction_seeded():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 3))
    _assert_compact_svd_of(linalg.svd(a), a)


@pytest.mark.parametrize("shape", [(2, 2), (8, 3), (3, 8), (17, 17), (64, 64), (64, 31)])
def test_svd_properties_random(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    res = linalg.svd(a)
    r = min(shape)
    assert np.all(res.s >= 0)
    assert np.all(np.diff(res.s) <= 1e-15)
    assert res.s.shape == (r,) and res.vt.shape == (r, shape[1])
    assert np.allclose(res.vt @ res.vt.T, np.eye(r), atol=1e-10)
    _assert_compact_svd_of(res, a)


@pytest.mark.parametrize("kind", ["random", "rank1"])
@pytest.mark.parametrize("shape", [(8, 3), (3, 8), (64, 31)], ids=lambda s: "x".join(map(str, s)))
def test_svd_of_the_transpose_swaps_the_factors(shape, kind):
    rng = np.random.default_rng(11)
    if kind == "random":
        a = rng.normal(size=shape)
    else:
        a = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))
    # a and a.T feed Jacobi the same rows (those of the short side), so the
    # singular values agree bitwise, and the right vectors of a.T are the
    # left vectors (a @ vt.T) / s of a up to sign; round-off modes of the
    # rank-1 input have no well-defined vectors
    r, rt = linalg.svd(a), linalg.svd(a.T)
    assert np.array_equal(rt.s, r.s)
    big = r.s > 1e-8 * r.s[0]
    left = (a @ r.vt[big].T / r.s[big]).T
    assert np.allclose(np.abs(rt.vt[big]), np.abs(left), atol=1e-10)


def test_svd_orthogonal_matrix_singular_values_one():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    res = linalg.svd(q)
    assert np.allclose(res.s, np.ones(6), atol=1e-10)


def test_svd_deterministic_and_sign_convention():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4))
    r1 = linalg.svd(a)
    r2 = linalg.svd(a)
    assert np.array_equal(r1.s, r2.s)
    assert np.array_equal(r1.vt, r2.vt)
    for row in r1.vt:
        assert row[np.argmax(np.abs(row))] > 0


def test_svd_rank_deficient_still_orthonormal():
    rng = np.random.default_rng(5)
    a = np.outer(rng.normal(size=7), rng.normal(size=4))
    res = linalg.svd(a)
    assert np.allclose(res.vt @ res.vt.T, np.eye(len(res.s)), atol=1e-10)
    assert np.allclose(a @ res.vt.T @ res.vt, a, atol=1e-10)


def test_svd_of_a_zero_matrix_has_no_modes():
    res = linalg.svd(np.zeros((3, 5)))
    assert res.s.shape == (0,) and res.vt.shape == (0, 5)


def test_svd_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        linalg.svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ContractViolationError):
        linalg.svd(np.ones(3))


def test_svd_nonconvergence_error_carries_residual(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 12))
    with pytest.raises(NumericalFailureError) as exc:
        linalg.svd(a)
    assert exc.value.residual is not None and exc.value.residual > 0


def _reference_jacobi_rows(x):
    """The textbook per-pair Jacobi loop that ``linalg._jacobi_rows`` must
    reproduce bit for bit: every pair recomputes its three dot products,
    and a rotation rebuilds both rows of ``x`` and of ``rot`` from copies."""
    m = x.shape[0]
    x = x.copy()
    rot = np.eye(m)
    for _ in range(linalg.MAX_SWEEPS):
        off = 0.0
        for i in range(m - 1):
            for j in range(i + 1, m):
                ri = x[i]
                rj = x[j]
                aii = ri @ ri
                ajj = rj @ rj
                aij = ri @ rj
                if aii == 0.0 or ajj == 0.0:
                    continue
                rel = abs(aij) / np.sqrt(aii * ajj)
                if rel > off:
                    off = rel
                if rel <= linalg.OFFDIAG_TOL:
                    continue
                zeta = (ajj - aii) / (2.0 * aij)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ri = ri.copy()
                x[i] = c * ri - s * rj
                x[j] = s * ri + c * rj
                gi = rot[i].copy()
                gj = rot[j].copy()
                rot[i] = c * gi - s * gj
                rot[j] = s * gi + c * gj
        if off <= linalg.OFFDIAG_TOL:
            return x, rot
    raise NumericalFailureError("reference Jacobi did not converge", residual=float(off))


def _reference_svd(monkeypatch, a):
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_jacobi_rows", _reference_jacobi_rows)
        return linalg.svd(a)


def _assert_bitwise_equal(res, ref):
    assert np.array_equal(res.s, ref.s)
    assert np.array_equal(res.vt, ref.vt)


def _reference_inputs():
    rng = np.random.default_rng(17)
    shapes = [(2, 2), (8, 3), (3, 8), (17, 17), (40, 40), (64, 31), (31, 64)]
    inputs = [rng.normal(size=shape) for shape in shapes]
    inputs.append(np.outer(rng.normal(size=7), rng.normal(size=4)))
    # an exact zero row of the Jacobi input takes the a_ii == 0 skip: wide
    # inputs are orthogonalized by rows, tall ones by columns
    wide = rng.normal(size=(6, 11))
    wide[2] = 0.0
    tall = rng.normal(size=(11, 6))
    tall[:, 4] = 0.0
    return inputs + [wide, tall]


@pytest.mark.parametrize("a", _reference_inputs()[-2:], ids=["wide", "tall"])
def test_svd_leaves_out_the_zero_mode_of_an_exact_zero_row(a):
    res = linalg.svd(a)
    k = min(a.shape) - 1
    assert res.s.shape == (k,) and res.vt.shape == (k, a.shape[1])
    assert np.all(res.s > 0)
    assert np.allclose(res.vt @ res.vt.T, np.eye(k), atol=1e-10)
    _assert_compact_svd_of(res, a)


@pytest.mark.parametrize("a", _reference_inputs(), ids=lambda a: "x".join(map(str, a.shape)))
def test_svd_bitwise_equals_reference_jacobi(monkeypatch, a):
    _assert_bitwise_equal(linalg.svd(a), _reference_svd(monkeypatch, a))


def test_svd_bitwise_equals_reference_on_incremental_stacks(monkeypatch, tiny_config, tiny_model):
    stacks = []
    svd = linalg.svd

    def recording_svd(a):
        stacks.append(np.array(a, dtype=np.float64))
        return svd(a)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "svd", recording_svd)
        bench.fit_basis_from_config(tiny_config, tiny_model)
    assert len(stacks) == 2
    assert stacks[1].shape[0] > stacks[0].shape[0]  # factor + batch + mean row
    for a in stacks:
        _assert_bitwise_equal(linalg.svd(a), _reference_svd(monkeypatch, a))


def test_svd_nonconvergence_residual_matches_reference(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    a = np.random.default_rng(0).normal(size=(12, 12))
    with pytest.raises(NumericalFailureError) as exc:
        linalg.svd(a)
    with pytest.raises(NumericalFailureError) as ref:
        _reference_svd(monkeypatch, a)
    assert exc.value.residual == ref.value.residual


def test_svd_orthogonal_rows_with_underflowing_norm_product():
    # a_ii * a_jj underflows to 0 for these rows; they are exactly
    # orthogonal, so no pair is rotated and the factors stay finite
    res = linalg.svd(np.diag([3e-100, 1e-100, 1e-100]))
    assert np.array_equal(res.s, [3e-100, 1e-100, 1e-100])
    assert np.array_equal(res.vt, np.eye(3))


@pytest.mark.parametrize("scale", [1e160, 1e-100])
def test_svd_extreme_scale_is_scaled_by_a_power_of_two(scale):
    # unscaled, the squared row norms overflow (1e160) or their products
    # underflow (1e-100)
    a = np.random.default_rng(0).normal(size=(5, 3))
    ref = linalg.svd(a)
    res = linalg.svd(a * scale)
    assert np.all(np.isfinite(res.s))
    assert np.abs(res.s / (ref.s * scale) - 1.0).max() <= 1e-12
    assert np.allclose(res.vt, ref.vt, atol=1e-12)
    assert np.allclose(linalg.svd(a.T * scale).s, res.s, rtol=1e-12)
