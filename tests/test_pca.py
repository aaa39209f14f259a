import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spectral_tta import pca
from spectral_tta.errors import ContractViolationError, EmptyBasisError


def test_fit_rank1_line():
    t = np.linspace(-2, 2, 9)
    data = np.stack([1.0 + 2 * t, -1.0 - 4 * t], axis=1)  # points on a line
    basis = pca.fit(data, rank=1)
    direction = np.array([2.0, -4.0]) / np.linalg.norm([2.0, -4.0])
    comp = basis.components[0]
    assert abs(abs(comp @ direction) - 1.0) <= 1e-10
    # the dropped second singular value is zero: rank 2 request still yields 1
    basis2 = pca.fit(data, rank=2)
    assert basis2.rank == 1


def test_fit_three_points_hand_svd():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    basis = pca.fit(data, rank=1)
    assert np.allclose(basis.components[0], np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    assert abs(basis.singular_values[0] - 2.0) <= 1e-12


def test_fit_full_rank_noise():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(20, 5))
    basis = pca.fit(data, rank=5)
    assert basis.rank == 5
    assert np.allclose(basis.components @ basis.components.T, np.eye(5), atol=1e-8)
    rec = pca.inverse_transform(basis, pca.transform(basis, data))
    assert np.linalg.norm(rec - data) / np.linalg.norm(data) <= 1e-8


def test_fit_rank_out_of_range():
    data = np.random.default_rng(2).normal(size=(4, 3))
    with pytest.raises(ContractViolationError):
        pca.fit(data, rank=0)
    with pytest.raises(ContractViolationError):
        pca.fit(data, rank=4)
    with pytest.raises(ContractViolationError):
        pca.fit(data[:1], rank=1)


@pytest.mark.parametrize(
    "shape, rank",
    [((12, 4), 3), ((40, 12), 5), ((10, 30), 8), ((64, 48), 48)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"r{v}",
)
def test_incremental_single_batch_matches_fit(shape, rank):
    data = np.random.default_rng(3).normal(size=shape)
    a = pca.fit(data, rank=rank)
    b = pca.fit_incremental([data], rank=rank)
    for name in ("mean", "components", "singular_values", "n_fitted"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_incremental_matches_batch_split():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(32, 5))
    batch = pca.fit(data, rank=5)
    inc = pca.fit_incremental(np.array_split(data, 4), rank=5)
    assert np.allclose(
        inc.singular_values, batch.singular_values, rtol=1e-6
    )
    assert np.allclose(inc.mean, batch.mean, atol=1e-12)


def test_incremental_subspace_alignment_long_stream():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(512, 6))
    batch = pca.fit(data, rank=6)
    inc = pca.fit_incremental(np.array_split(data, 16), rank=6)
    assert np.allclose(inc.singular_values, batch.singular_values, rtol=1e-6)
    # principal angles between the spans
    overlap = batch.components @ inc.components.T
    angles = np.arccos(np.clip(np.linalg.svd(overlap, compute_uv=False), -1, 1))
    assert angles.max() < 1e-4


def test_incremental_after_a_one_row_first_batch_matches_fit():
    # one centered row has no mode, so the second stack has no factor block
    data = np.random.default_rng(6).normal(size=(20, 4))
    inc = pca.fit_incremental([data[:1], data[1:]], rank=4)
    batch = pca.fit(data, rank=4)
    assert np.allclose(inc.singular_values, batch.singular_values, rtol=1e-10)
    assert np.allclose(np.abs(inc.components), np.abs(batch.components), atol=1e-10)
    assert np.allclose(inc.mean, batch.mean, atol=1e-12)


def test_incremental_zero_stream_raises():
    with pytest.raises(EmptyBasisError):
        pca.fit_incremental([np.zeros((4, 3)), np.zeros((4, 3))], rank=2)


def test_incremental_inconsistent_width_raises():
    with pytest.raises(ContractViolationError):
        pca.fit_incremental([np.ones((2, 3)), np.ones((2, 4))], rank=2)


def test_incremental_rank_above_width_raises_before_any_svd(monkeypatch):
    calls = []
    monkeypatch.setattr(pca.linalg, "svd", lambda a: calls.append(a))
    batches = (np.ones((64, 48)) for _ in range(4))
    with pytest.raises(ContractViolationError, match="p=48"):
        pca.fit_incremental(batches, rank=100)
    assert calls == []


def test_incremental_memory_bound_is_rank_by_p():
    # the retained state after any number of batches is rank x p
    rng = np.random.default_rng(6)
    batches = [rng.normal(size=(64, 8)) for _ in range(8)]
    basis = pca.fit_incremental(batches, rank=3)
    assert basis.components.shape == (3, 8)
    assert basis.n_fitted == 512


def test_transform_trivial_cases():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(10, 4))
    basis = pca.fit(data, rank=3)
    scores = pca.transform(basis, np.tile(basis.mean, (3, 1)))
    assert np.abs(scores).max() <= 1e-12
    # component rows offset by the mean project to identity score rows
    scores = pca.transform(basis, basis.components + basis.mean)
    assert np.allclose(scores, np.eye(3), atol=1e-8)


def test_transform_projector_oracle():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(16, 6))
    basis = pca.fit(data, rank=3)
    x = rng.normal(size=(5, 6))
    rec = pca.inverse_transform(basis, pca.transform(basis, x))
    projector = basis.components.T @ basis.components
    expected = (x - basis.mean) @ projector + basis.mean
    assert np.allclose(rec, expected, atol=1e-10)


def test_inverse_transform_trivial_and_residual():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(16, 6))
    basis = pca.fit(data, rank=3)
    rec = pca.inverse_transform(basis, np.zeros((2, 3)))
    assert np.allclose(rec, np.tile(basis.mean, (2, 1)), atol=1e-12)
    x = rng.normal(size=(4, 6))
    residual = x - pca.inverse_transform(basis, pca.transform(basis, x))
    assert np.abs(residual @ basis.components.T).max() <= 1e-8


def test_shape_mismatches_raise():
    data = np.random.default_rng(10).normal(size=(8, 4))
    basis = pca.fit(data, rank=2)
    with pytest.raises(ContractViolationError):
        pca.transform(basis, np.ones((2, 5)))
    with pytest.raises(ContractViolationError):
        pca.inverse_transform(basis, np.ones((2, 3)))


def test_eckart_young_beats_random_bases():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(16, 8)) @ np.diag([8, 5, 4, 3, 2, 1.5, 1.0, 0.5])
    centered = data - data.mean(axis=0)
    for rank in range(1, 9):
        basis = pca.fit(data, rank=rank)
        rec = pca.inverse_transform(basis, pca.transform(basis, data))
        pca_err = np.linalg.norm(rec - data)
        for _ in range(100):
            q, _r = np.linalg.qr(rng.normal(size=(8, rank)))
            rand_rec = centered @ q @ q.T
            rand_err = np.linalg.norm(rand_rec - centered)
            assert pca_err <= rand_err + 1e-12


def test_basis_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    basis = pca.fit(rng.normal(size=(10, 5)), rank=3)
    path = tmp_path / "basis.json"
    basis.save(path)
    loaded = pca.PcaBasis.load(path)
    assert np.array_equal(loaded.mean, basis.mean)
    assert np.array_equal(loaded.components, basis.components)
    assert np.array_equal(loaded.singular_values, basis.singular_values)
    assert loaded.n_fitted == basis.n_fitted


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def bases(draw):
    """A basis that passes the load checks: any finite mean, orthonormal
    component rows, positive non-increasing singular values and an
    integer n_fitted of at least 2 and at least rank."""
    p = draw(st.integers(1, 6))
    rank = draw(st.integers(1, p))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(p, p)))
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    sv = draw(hnp.arrays(np.float64, rank, elements=positive))
    return pca.PcaBasis(
        mean=draw(hnp.arrays(np.float64, p, elements=FINITE)),
        components=q.T[:rank].copy(),
        singular_values=-np.sort(-sv),
        n_fitted=draw(st.integers(max(2, rank), 10**6)),
    )


@settings(max_examples=60, deadline=None, database=None)
@given(basis=bases())
def test_basis_file_round_trip_is_bitwise(basis, tmp_path_factory):
    path = tmp_path_factory.mktemp("basis") / "basis.json"
    basis.save(path)
    loaded = pca.PcaBasis.load(path)
    for name in ("mean", "components", "singular_values"):
        assert getattr(loaded, name).tobytes() == getattr(basis, name).tobytes()
    assert loaded.n_fitted == basis.n_fitted
