import contextlib
import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tta import bench, network, pca
from spectral_tta.adapt import entropy, entropy_grad
from spectral_tta.errors import ContractViolationError, EmptyBasisError
from spectral_tta.filters import RELU_RIDGE, SpectralFilter
from spectral_tta.network import (
    BN_BATCH,
    BN_MODES,
    BN_TRAIN,
    BatchNorm2d,
    Conv2d,
    Model,
    SpectralAdapterLayer,
    build_model,
    fit_pca_from_source,
    insert_adapter,
    load_model,
    remove_adapter,
    save_model,
    softmax_cross_entropy,
    stack_shapes,
    train_model,
)

IN_SHAPE = (2, 4, 4)


def small_model(seed=0):
    return build_model(seed, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)


def full_rank_basis_at(model, j, rng, n=96):
    """Fit a basis covering the whole feature space at layer j's output."""
    if j < 0:
        shape = model.input_shape
    else:
        shape = model.layer_output_shapes()[j]
    p = int(np.prod(shape))
    batches = [rng.normal(size=(n // 2,) + IN_SHAPE) for _ in range(2)]
    if j < 0:
        flat = [b.reshape(len(b), -1) for b in batches]
        return pca.fit_incremental([np.vstack(flat)], rank=p)
    return fit_pca_from_source(model, batches, j + 1, rank=p)


def test_forward_zero_propagation():
    model = small_model()
    # bias-free network with centered batch-norm: zero in, zero logits out
    for layer in model.layers:
        if isinstance(layer, (Conv2d, network.Linear)):
            layer.b[:] = 0.0
        if isinstance(layer, BatchNorm2d):
            layer.shift[:] = 0.0
            layer.running_mean[:] = 0.0
    logits, _ = model.forward(np.zeros((3,) + IN_SHAPE))
    assert np.abs(logits).max() <= 1e-12


def test_forward_shape_check():
    model = small_model()
    with pytest.raises(ContractViolationError):
        model.forward(np.zeros((2, 3, 4, 4)))


def test_forward_matches_naive_reimplementation(rng):
    model = small_model(seed=4)
    x = rng.normal(size=(3,) + IN_SHAPE)
    logits, _ = model.forward(x)

    def naive_conv(x, w, b):
        n, c, h, wd = x.shape
        oc, _, k, _ = w.shape
        p = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        out = np.zeros((n, oc, h, wd))
        for ni in range(n):
            for o in range(oc):
                for i in range(h):
                    for j in range(wd):
                        acc = b[o]
                        for ci in range(c):
                            for ki in range(k):
                                for kj in range(k):
                                    acc += w[o, ci, ki, kj] * xp[ni, ci, i + ki, j + kj]
                        out[ni, o, i, j] = acc
        return out

    z = x
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            z = naive_conv(z, layer.w, layer.b)
        elif isinstance(layer, BatchNorm2d):
            inv = 1.0 / np.sqrt(layer.running_var + layer.eps)
            z = (z - layer.running_mean[None, :, None, None]) * inv[None, :, None, None]
            z = layer.scale[None, :, None, None] * z + layer.shift[None, :, None, None]
        elif isinstance(layer, network.ReLU):
            z = np.maximum(z, 0.0)
        elif isinstance(layer, network.Flatten):
            z = z.reshape(z.shape[0], -1)
        elif isinstance(layer, network.Linear):
            z = z @ layer.w.T + layer.b
    assert np.allclose(logits, z, atol=1e-10)


def test_insert_identity_filter_preserves_logits(rng):
    model = small_model(seed=1)
    x = rng.normal(size=(5,) + IN_SHAPE)
    base_logits, _ = model.forward(x)
    for j in [0, 1, 2, 3]:
        basis = full_rank_basis_at(model, j - 1, rng)
        filt = SpectralFilter(RELU_RIDGE, basis.singular_values)  # identity
        with_adapter = insert_adapter(model, j, basis, filt)
        logits, _ = with_adapter.forward(x)
        assert np.abs(logits - base_logits).max() <= 1e-8, f"j={j}"


def test_insert_then_remove_is_exact(rng):
    model = small_model(seed=2)
    x = rng.normal(size=(4,) + IN_SHAPE)
    base_logits, _ = model.forward(x)
    basis = full_rank_basis_at(model, 2, rng)
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values, gamma=rng.uniform(0, 2, basis.rank))
    with_adapter = insert_adapter(model, 3, basis, filt)
    restored = remove_adapter(with_adapter)
    logits, _ = restored.forward(x)
    assert np.array_equal(logits, base_logits)
    assert restored.weight_hash() == model.weight_hash()
    with pytest.raises(ContractViolationError, match="no adapter layer"):
        remove_adapter(restored)


def test_insert_at_every_legal_position(rng):
    model = small_model(seed=3)
    shapes = model.layer_output_shapes()
    legal = [0] + [j + 1 for j, s in enumerate(shapes) if len(s) == 3]
    assert len(legal) >= 4
    x = rng.normal(size=(2,) + IN_SHAPE)
    for j in legal:
        basis = full_rank_basis_at(model, j - 1, rng, n=80)
        filt = SpectralFilter(RELU_RIDGE, basis.singular_values)
        with_adapter = insert_adapter(model, j, basis, filt)
        logits, _ = with_adapter.forward(x)  # composes without shape errors
        assert logits.shape == (2, 3)


def test_insert_rejects_mismatched_basis(rng):
    model = small_model()
    basis = pca.fit_incremental([rng.normal(size=(20, 7))], rank=4)
    with pytest.raises(ContractViolationError):
        insert_adapter(model, 3, basis, SpectralFilter(RELU_RIDGE, basis.singular_values))
    # 2-D position (after flatten) is illegal
    good = full_rank_basis_at(model, 2, rng)
    with pytest.raises(ContractViolationError):
        insert_adapter(model, 7, good, SpectralFilter(RELU_RIDGE, good.singular_values))
    for j in (-1, len(model.layers) + 1):
        with pytest.raises(ContractViolationError, match=f"insertion index {j} out of range"):
            insert_adapter(model, j, good, SpectralFilter(RELU_RIDGE, good.singular_values))


def test_insert_refuses_a_basis_fitted_for_another_position(rng):
    """Positions 1 to 5 all take a 48-wide map, so only the position the
    basis records tells them apart; a basis that records none fits any."""
    model = small_model()
    fitted = fit_pca_from_source(model, [rng.normal(size=(40,) + IN_SHAPE)], 3, rank=8)
    assert fitted.insert_index == 3
    for j in (1, 2, 4, 5):
        with pytest.raises(ContractViolationError, match=f"fitted for position 3, not position {j}"):
            insert_adapter(model, j, fitted, SpectralFilter(RELU_RIDGE, fitted.singular_values))
    insert_adapter(model, 3, fitted, SpectralFilter(RELU_RIDGE, fitted.singular_values))
    unplaced = pca.fit_incremental([rng.normal(size=(40, 48))], rank=8)
    for j in (1, 2, 3, 4, 5):
        insert_adapter(model, j, unplaced, SpectralFilter(RELU_RIDGE, unplaced.singular_values))


def test_backward_adapt_zero_loss_grad(rng):
    model = small_model(seed=5)
    basis = full_rank_basis_at(model, 2, rng)
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values, gamma=rng.uniform(0.2, 1, basis.rank))
    adapted = insert_adapter(model, 3, basis, filt)
    logits, caches = adapted.forward(rng.normal(size=(3,) + IN_SHAPE))
    grads = adapted.backward_adapt(caches, np.zeros_like(logits))
    assert np.array_equal(grads, np.zeros(basis.rank))


def test_backward_adapt_requires_cache_consistency(rng):
    model = small_model(seed=5)
    basis = full_rank_basis_at(model, 2, rng)
    adapted = insert_adapter(model, 3, basis, SpectralFilter(RELU_RIDGE, basis.singular_values))
    with pytest.raises(ContractViolationError):
        adapted.backward_adapt([], np.zeros((3, 3)))
    with pytest.raises(ContractViolationError):
        model.backward_adapt([], np.zeros((3, 3)))  # no adaptation params at all


def test_entropy_gradient_over_gamma_finite_differences(rng):
    model = small_model(seed=6)
    basis = full_rank_basis_at(model, 2, rng)
    gamma = rng.uniform(0.3, 1.5, basis.rank)
    adapted = insert_adapter(
        model, 3, basis, SpectralFilter(RELU_RIDGE, basis.singular_values, gamma)
    )
    x = rng.normal(size=(4,) + IN_SHAPE)
    logits, caches = adapted.forward(x)
    analytic = adapted.backward_adapt(caches, entropy_grad(logits))
    h = 1e-5
    layer = [l for l in adapted.layers if isinstance(l, network.SpectralAdapterLayer)][0]
    for i in range(basis.rank):
        old = layer.filt.gamma[i]
        layer.filt.gamma[i] = old + h
        hp = entropy(adapted.forward(x)[0])
        layer.filt.gamma[i] = old - h
        hm = entropy(adapted.forward(x)[0])
        layer.filt.gamma[i] = old
        fd = (hp - hm) / (2 * h)
        assert abs(fd - analytic[i]) / max(abs(fd), 1e-7) <= 1e-4


def test_theta_frozen_across_adaptation(rng):
    model = small_model(seed=7)
    basis = full_rank_basis_at(model, 2, rng)
    adapted = insert_adapter(
        model, 3, basis, SpectralFilter(RELU_RIDGE, basis.singular_values, np.full(basis.rank, 0.01))
    )
    before = adapted.weight_hash()
    x = rng.normal(size=(4,) + IN_SHAPE)
    for _ in range(100):
        logits, caches = adapted.forward(x)
        grads = adapted.backward_adapt(caches, entropy_grad(logits))
        adapted.set_adapt_params(adapted.adapt_params() - 0.05 * grads)
    assert adapted.weight_hash() == before


def test_layer_output_shapes_match_a_forward(rng):
    model = small_model(seed=3)
    basis = full_rank_basis_at(model, 2, rng)
    adapted = insert_adapter(model, 3, basis, SpectralFilter(RELU_RIDGE, basis.singular_values))
    for m in (model, adapted):
        x = rng.normal(size=(2,) + IN_SHAPE)
        forwarded = []
        for layer in m.layers:
            x, _ = layer.forward(x)
            forwarded.append(x.shape[1:])
        assert m.layer_output_shapes() == forwarded


@settings(max_examples=100, deadline=None, database=None)
@given(
    input_shape=st.tuples(*[st.integers(1, 5)] * 3),
    conv_channels=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    kernel=st.sampled_from([1, 3]),
    n_classes=st.integers(2, 4),
)
def test_stack_shapes_are_the_built_models_position_shapes(input_shape, conv_channels, kernel, n_classes):
    """stack_shapes gives, from build_model's arguments alone, the shape
    each position of the built stack receives."""
    model = build_model(0, input_shape, conv_channels, n_classes, kernel)
    assert stack_shapes(input_shape, conv_channels, n_classes) == [input_shape] + model.layer_output_shapes()


def running_statistics(model):
    return [
        (bn.running_mean.tobytes(), bn.running_var.tobytes())
        for bn in model.layers
        if isinstance(bn, BatchNorm2d)
    ]


@pytest.mark.parametrize("j", [0, 3])
def test_insert_adapter_leaves_a_train_mode_model_unchanged(rng, j):
    model = small_model(seed=3)
    basis = full_rank_basis_at(model, j - 1, rng)
    model.set_bn_mode(BN_TRAIN)
    before = (model.weight_hash(), running_statistics(model))
    insert_adapter(model, j, basis, SpectralFilter(RELU_RIDGE, basis.singular_values))
    assert (model.weight_hash(), running_statistics(model)) == before


@pytest.mark.parametrize("mode", [BN_BATCH, BN_TRAIN])
def test_fit_pca_refuses_a_model_not_in_frozen_mode(rng, mode):
    model = small_model(seed=3)
    model.layers[4].mode = mode  # one batch norm is enough
    before = (model.weight_hash(), running_statistics(model))
    message = re.escape(f"needs batch norms in 'frozen-stats' mode, got ['{mode}']")
    with pytest.raises(ContractViolationError, match=message):
        fit_pca_from_source(model, [rng.normal(size=(8,) + IN_SHAPE)], 3, rank=4)
    assert (model.weight_hash(), running_statistics(model)) == before


@pytest.mark.parametrize(
    "j, refusal",
    [(-1, "insertion index -1 out of range"), (9, "insertion index 9 out of range"),
     (7, "layer at position 7 receives shape (512,), need a 4-D map")],
)
def test_fit_pca_refuses_a_bad_position_before_any_forward(rng, monkeypatch, j, refusal):
    """The default stack's 8 layers take positions 0 to 8; position 7
    consumes Flatten's output. The fit refuses as insert_adapter does."""
    model = build_model(0)

    def no_forward(*args):
        raise AssertionError("the fit ran a forward")

    monkeypatch.setattr(Model, "forward_until", no_forward)
    with pytest.raises(ContractViolationError, match=re.escape(refusal)):
        fit_pca_from_source(model, [rng.normal(size=(8, 3, 8, 8))], j, rank=4)


def test_model_refuses_a_parameter_vector_of_another_length_and_an_unknown_bn_mode(rng):
    spectral, bn = adapted_models(rng)
    for model in (spectral, bn):
        count = model.adapt_params().size
        for bad in (np.zeros(count - 1), np.zeros(count + 1)):
            with pytest.raises(ContractViolationError, match=f"expected {count} adaptation"):
                model.set_adapt_params(bad)
        with pytest.raises(ContractViolationError, match="unknown batch-norm mode 'eval'"):
            model.set_bn_mode("eval")


def test_bn_mode_algebra(rng):
    model = small_model(seed=8)
    x = rng.normal(size=(16,) + IN_SHAPE)
    # force running statistics to this batch's empirical feature statistics
    z = x
    for layer in model.layers:
        if isinstance(layer, BatchNorm2d):
            layer.running_mean = z.mean(axis=(0, 2, 3))
            layer.running_var = z.var(axis=(0, 2, 3))
        z, _ = layer.forward(z)
    frozen_logits, _ = model.forward(x)
    model.set_bn_mode(BN_BATCH)
    batch_logits, _ = model.forward(x)
    assert np.abs(frozen_logits - batch_logits).max() <= 1e-8


def test_fit_pca_constant_layer_degenerate(rng):
    model = small_model(seed=9)
    conv = model.layers[0]
    conv.w[:] = 0.0
    conv.b[:] = 1.0
    with pytest.raises(EmptyBasisError):
        fit_pca_from_source(model, [rng.normal(size=(8,) + IN_SHAPE)], 1, rank=4)


def test_fit_pca_streamed_vs_concatenated(rng):
    model = small_model(seed=10)
    data = rng.normal(size=(64,) + IN_SHAPE)
    # rank covering the full stream keeps the incremental update lossless
    streamed = fit_pca_from_source(model, np.array_split(data, 4), 3, rank=48)
    flat = model.forward_until(data, 2).reshape(64, -1)
    batch = pca.fit_incremental([flat], rank=48)
    assert np.allclose(streamed.singular_values, batch.singular_values, rtol=1e-6)


def test_fit_pca_records_its_layer_and_model(rng):
    model = small_model(seed=10)
    basis = fit_pca_from_source(model, [rng.normal(size=(16,) + IN_SHAPE)], 3, rank=4)
    assert (basis.insert_index, basis.model_hash) == (3, model.weight_hash())
    plain = pca.fit_incremental([rng.normal(size=(4, 3))], 2)  # fitted on no model
    assert (plain.insert_index, plain.model_hash) == (None, None)


def test_fit_pca_full_rank_round_trip(rng):
    model = small_model(seed=11)
    data = rng.normal(size=(120,) + IN_SHAPE)
    p = int(np.prod(model.layer_output_shapes()[2]))
    basis = fit_pca_from_source(model, [data], 3, rank=p)
    feats = model.forward_until(data[:10], 2).reshape(10, -1)
    rec = pca.inverse_transform(basis, pca.transform(basis, feats))
    assert np.linalg.norm(rec - feats) / np.linalg.norm(feats) <= 1e-8


def test_checkpoint_round_trip(tmp_path, rng):
    model = small_model(seed=12)
    x = rng.normal(size=(3,) + IN_SHAPE)
    logits, _ = model.forward(x)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    logits2, _ = loaded.forward(x)
    assert np.array_equal(logits, logits2)
    assert loaded.weight_hash() == model.weight_hash()


def _stack(kernels=(3, 3), relu=True):
    """small_model's stack, or one like it with other kernels or no ReLUs."""
    rng = np.random.default_rng(0)
    layers, prev = [], IN_SHAPE[0]
    for k in kernels:
        layers += [Conv2d(prev, 3, k, rng), BatchNorm2d(3)] + ([network.ReLU()] if relu else [])
        prev = 3
    return Model(layers + [network.Flatten(), network.Linear(3 * 16, 3, rng)], IN_SHAPE)


def _adapted_stack():
    model = small_model()
    basis = full_rank_basis_at(model, 2, np.random.default_rng(0))
    return insert_adapter(model, 3, basis, SpectralFilter(RELU_RIDGE, basis.singular_values))


@pytest.mark.parametrize(
    "stack, problem",
    [
        (lambda: _stack(kernels=(2, 2)), "kernel=2"),
        (lambda: _stack(kernels=(3, 5)), "does not rebuild"),
        (lambda: _stack(relu=False), "does not rebuild"),
        (lambda: Model(_stack().layers[:-1], IN_SHAPE), "n_classes=None"),
        (_adapted_stack, "remove the adapter"),
    ],
)
def test_save_model_refuses_a_stack_build_model_cannot_make(tmp_path, stack, problem):
    path = tmp_path / "model.npz"
    save_model(_stack(), path)  # the helper's own stack is build_model's
    assert load_model(path).weight_hash() == _stack().weight_hash()
    with pytest.raises(ContractViolationError, match=problem):
        save_model(stack(), tmp_path / "refused.npz")
    assert not (tmp_path / "refused.npz").exists()


# ---- im2col, prefix reuse and truncated backward ------------------------


def im2col_loop(x, k):
    """The k x k copy loop: the reference for Conv2d._im2col."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((n, c, k, k, h, w))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + h, j : j + w]
    return cols.reshape(n, c * k * k, h * w)


@pytest.mark.parametrize(
    "shape, k",
    [((64, 8, 8, 8), 3), ((3, 2, 4, 4), 1), ((5, 3, 7, 6), 5), ((1, 1, 1, 1), 3), ((2, 4, 5, 9), 3)],
)
def test_im2col_matches_copy_loop(shape, k, rng):
    conv = Conv2d(shape[1], 2, k, rng)
    x = rng.normal(size=shape)
    cols = conv._im2col(x)
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, im2col_loop(x, k))


@pytest.mark.parametrize("mode", [network.BN_FROZEN, BN_BATCH])
def test_bn_backward_input_grad_does_not_depend_on_param_grads(mode, rng):
    bn = BatchNorm2d(3)
    bn.scale = rng.uniform(0.5, 1.5, 3)
    bn.mode = mode
    _, cache = bn.forward(rng.normal(size=(4, 3, 2, 2)))
    gy = rng.normal(size=(4, 3, 2, 2))
    gx_with, pg = bn.backward(cache, gy, need_param_grads=True)
    gx_without, none = bn.backward(cache, gy, need_param_grads=False)
    assert np.array_equal(gx_with, gx_without) and none == {}
    xhat = cache[0]
    assert np.array_equal(pg["scale"], np.sum(gy * xhat, axis=(0, 2, 3)))
    assert np.array_equal(pg["shift"], np.sum(gy, axis=(0, 2, 3)))


@pytest.mark.parametrize("mode", BN_MODES)
def test_only_the_training_mode_moves_running_statistics(mode, rng):
    bn = BatchNorm2d(3)
    bn.running_mean, bn.running_var = rng.normal(size=3), rng.uniform(0.5, 2, 3)
    before = bn.running_mean.copy(), bn.running_var.copy()
    bn.mode = mode
    x = rng.normal(2.0, 3.0, size=(4, 3, 2, 2))
    _, cache = bn.forward(x)
    bn.forward(x)
    bn.forward(x, frozen=cache)  # reuses the normalisation: no update
    if mode != BN_TRAIN:
        assert np.array_equal(bn.running_mean, before[0])
        assert np.array_equal(bn.running_var, before[1])
        return
    batch, expected = (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))), before
    for _ in range(2):  # one update per normalisation, momentum 0.1
        expected = [0.9 * e + 0.1 * b for e, b in zip(expected, batch)]
    assert np.allclose(bn.running_mean, expected[0]) and np.allclose(bn.running_var, expected[1])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_im2col(x, k):
    """``Conv2d._im2col`` as the windows of the ``np.pad``-ded maps in a
    C-order matrix, which the gather must reproduce bit for bit."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, h * w))


@pytest.mark.parametrize("n", [1, 16, 64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_im2col_matches_the_np_pad_formula_bitwise(k, n, rng):
    conv = Conv2d(3, 2, k, rng)
    x = rng.normal(size=(n, 3, 8, 8))
    x[0, 0, 0, 0] = -0.0  # a signed zero keeps its sign; the padding is +0.0
    for batch in (x, x.astype(np.float32)):
        cols = conv._im2col(batch)
        assert cols.dtype == batch.dtype
        assert _same_bits(cols, _reference_im2col(batch, k))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_im2col_matches_the_reference_in_bytes_and_layout_on_every_small_shape(dtype, rng):
    # all 1,728 (n, c, h, w, k) shapes give one C-order layout
    for n in (1, 2, 16):
        for c in (1, 2, 3, 8):
            for h in (1, 2, 3, 5, 8, 9):
                for w in (1, 2, 3, 5, 8, 9):
                    x = rng.normal(size=(n, c, h, w)).astype(dtype)
                    x[0, 0, 0, 0] = -0.0
                    for k in (1, 3, 5, 7):
                        cols = Conv2d(c, 2, k, rng)._im2col(x)
                        assert _same_bits(cols, _reference_im2col(x, k)), (n, c, h, w, k)
                        assert cols.flags.c_contiguous, (n, c, h, w, k)


def test_im2col_index_is_a_bounded_read_only_cache():
    assert network._im2col_index.cache_info().maxsize is not None
    index = network._im2col_index(3, 8, 8, 3)
    assert network._im2col_index(3, 8, 8, 3) is index
    assert not index.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        index[0, 0] = 0


def test_im2col_gives_each_conv_of_a_model_its_own_columns(rng):
    # conv0 (c -> 8) and conv1 (8 -> 8) take turns through the cache; a
    # one-channel map one pixel wide takes the same gather as any other
    for input_shape in ((3, 8, 8), (1, 6, 1)):
        model = build_model(0, input_shape=input_shape)
        for n in (16, 4, 16):
            x = rng.normal(size=(n,) + input_shape)
            _, caches = model.forward(x)
            for cols, h in ((caches[0][1], x), (caches[3][1], model.forward_until(x, 2))):
                assert _same_bits(cols, _reference_im2col(h, 3)) and cols.flags.c_contiguous


def test_conv_forward_matches_the_bias_add_formula_bitwise(rng):
    conv = Conv2d(3, 4, 3, rng)
    conv.b = rng.normal(size=4)
    x = rng.normal(size=(16, 3, 8, 8))
    y, _ = conv.forward(x)
    cols = _reference_im2col(x, 3)
    expected = np.matmul(conv.w.reshape(4, -1), cols) + conv.b[None, :, None]
    assert _same_bits(y, expected.reshape(16, 4, 8, 8))


# The per-sample convolution formulas: the np.pad im2col with one matmul
# per sample, and the k*k loop of slice adds for col2im. Conv2d's forward
# and its one-add-per-tap col2im must match them bit for bit.


def _reference_conv_forward(conv, x):
    n, _, h, w = x.shape
    cols = _reference_im2col(x, conv.kernel)
    y = np.matmul(conv.w.reshape(conv.w.shape[0], -1), cols)
    y += conv.b[None, :, None]
    return y.reshape(n, -1, h, w), (x.shape, cols)


def _reference_conv_backward(conv, cache, gy, need_param_grads=True, need_input_grad=True):
    (n, c, h, w), cols = cache
    k = conv.kernel
    p = k // 2
    out_ch = conv.w.shape[0]
    gy2 = gy.reshape(n, out_ch, h * w)
    w2 = conv.w.reshape(out_ch, -1)
    pgrads = {}
    if need_param_grads:
        gw2 = np.einsum("nof,ncf->oc", gy2, cols)
        pgrads = {"w": gw2.reshape(conv.w.shape), "b": gy2.sum(axis=(0, 2))}
    if not need_input_grad:
        return None, pgrads
    gcols = np.matmul(w2.T, gy2).reshape(n, c, k, k, h, w)
    gxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + h, j : j + w] += gcols[:, :, i, j]
    return gxp[:, :, p : p + h, p : p + w], pgrads


_CONV_CASES = pytest.mark.parametrize(
    "n, k, channels, hw",
    [
        pytest.param(n, k, channels, hw, id=f"n{n}-k{k}-{channels[0]}to{channels[1]}-{hw[0]}x{hw[1]}")
        for n in (1, 16, 64)
        for k in (1, 3, 5)
        for channels in ((1, 2), (2, 1), (3, 8), (8, 8))
        for hw in ((8, 8), (5, 9), (3, 1))
    ]
    # a map smaller than the kernel's reach, where a tap's shift passes
    # the whole map
    + [pytest.param(16, 7, (2, 3), (2, 2), id="n16-k7-2to3-2x2")],
)


def _conv_case(n, k, channels, hw, rng):
    """A conv with a bias, and an input and an output gradient that each
    hold a -0.0."""
    c_in, c_out = channels
    conv = Conv2d(c_in, c_out, k, rng)
    conv.b = rng.normal(size=c_out)
    x = rng.normal(size=(n, c_in) + hw)
    gy = rng.normal(size=(n, c_out) + hw)
    x[0, 0, 0, 0] = -0.0
    gy[0, 0, 0, 0] = -0.0
    return conv, x, gy


@_CONV_CASES
def test_conv_forward_matches_the_per_sample_formula_bitwise(n, k, channels, hw, rng):
    conv, x, _ = _conv_case(n, k, channels, hw, rng)
    y, _ = conv.forward(x)
    # C order: the batch norm above reduces in memory order
    assert _same_bits(y, _reference_conv_forward(conv, x)[0]) and y.flags.c_contiguous


@_CONV_CASES
def test_conv_forward_caches_its_im2col_in_the_reference_layout(n, k, channels, hw, rng):
    # the weight-gradient einsum picks its order of operations by the
    # layout of the cached columns
    conv, x, _ = _conv_case(n, k, channels, hw, rng)
    _, (_, cols) = conv.forward(x)
    assert _same_bits(cols, _reference_conv_forward(conv, x)[1][1]) and cols.flags.c_contiguous


@_CONV_CASES
def test_conv_gradients_match_the_per_sample_formulas_bitwise(n, k, channels, hw, rng):
    conv, x, gy = _conv_case(n, k, channels, hw, rng)
    _, cache = conv.forward(x)
    gx, pg = conv.backward(cache, gy)
    ref_gx, ref_pg = _reference_conv_backward(conv, _reference_conv_forward(conv, x)[1], gy)
    assert _same_bits(gx, ref_gx) and gx.flags.c_contiguous
    assert pg.keys() == ref_pg.keys()
    assert all(_same_bits(pg[name], ref_pg[name]) for name in pg)


def _reference_bn_forward(bn, x):
    """``BatchNorm2d.forward`` as written with a temporary per operation:
    ``(y, xhat, invstd)``, moving ``bn``'s running statistics as it does."""
    if bn.mode == network.BN_FROZEN:
        mean, var = bn.running_mean, bn.running_var
    else:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        if bn.mode == BN_TRAIN:
            m = bn.momentum
            bn.running_mean = (1 - m) * bn.running_mean + m * mean
            bn.running_var = (1 - m) * bn.running_var + m * var
    invstd = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean[None, :, None, None]) * invstd[None, :, None, None]
    y = bn.scale[None, :, None, None] * xhat + bn.shift[None, :, None, None]
    return y, xhat, invstd


def _reference_bn_batch_backward(bn, cache, gy):
    """The batch-statistics input gradient as written with temporaries."""
    xhat, invstd, _ = cache
    gdot = np.sum(gy * xhat, axis=(0, 2, 3))
    gsum = np.sum(gy, axis=(0, 2, 3))
    sc = (bn.scale * invstd)[None, :, None, None]
    nhw = gy.shape[0] * gy.shape[2] * gy.shape[3]
    return sc * (gy - gsum[None, :, None, None] / nhw - xhat * gdot[None, :, None, None] / nhw)


def random_bn(rng, ch=8):
    bn = BatchNorm2d(ch)
    bn.scale, bn.shift = rng.uniform(0.5, 1.5, ch), rng.normal(size=ch)
    bn.running_mean, bn.running_var = rng.normal(size=ch), rng.uniform(0.5, 2.0, ch)
    return bn


@pytest.mark.parametrize("mode", BN_MODES)
def test_bn_forward_and_backward_match_the_temporary_formulas_bitwise(mode, rng):
    bn = random_bn(rng)
    bn.mode = mode
    ref, start = copy.deepcopy(bn), bn.running_mean.copy()
    gy = rng.normal(size=(64, 8, 8, 8))
    for x in (rng.normal(2.0, 3.0, size=(64, 8, 8, 8)), rng.normal(size=(16, 8, 8, 8)).astype(np.float32)):
        y, cache = bn.forward(x)
        y_ref, xhat_ref, invstd_ref = _reference_bn_forward(ref, x)
        assert _same_bits(y, y_ref)
        assert _same_bits(cache[0], xhat_ref) and _same_bits(cache[1], invstd_ref)
        assert _same_bits(bn.running_mean, ref.running_mean)
        assert _same_bits(bn.running_var, ref.running_var)
        y_reused, _ = bn.forward(x, frozen=cache)
        assert _same_bits(y_reused, y_ref)
        if mode != network.BN_FROZEN:
            for need_param_grads in (True, False):
                gx, _ = bn.backward(cache, gy[: len(x)], need_param_grads=need_param_grads)
                assert _same_bits(gx, _reference_bn_batch_backward(ref, cache, gy[: len(x)]))
    # the comparison of running statistics is not vacuous: train-stats moved them
    assert np.array_equal(bn.running_mean, start) == (mode != BN_TRAIN)


@pytest.mark.parametrize("mode", [BN_BATCH, BN_TRAIN])
@pytest.mark.parametrize(
    "shape", [(1, 3, 5, 7), (5, 4, 1, 1), (7, 1, 3, 3), (1, 1, 1, 1), (3, 5, 7, 9)], ids=str
)
def test_bn_batch_statistics_match_numpys_mean_and_var_bitwise(mode, shape, rng):
    """The forward's batch mean and var, one reduction each on x centred
    once, are ``x.mean`` and ``x.var`` bit for bit: with one sample, 1x1
    maps, one channel, odd sizes, -0.0 entries (a whole channel of them),
    and on a view that is not C-contiguous."""
    bn = random_bn(rng, ch=shape[1])
    bn.mode = mode
    ref = copy.deepcopy(bn)
    signed_zeros = rng.normal(size=shape)
    signed_zeros[..., ::2] = -0.0
    signed_zeros[:, 0] = -0.0
    n, c, h, w = shape
    strided = rng.normal(size=(c, h, w, n)).transpose(3, 0, 1, 2)
    for x in (rng.normal(2.0, 3.0, size=shape), signed_zeros, strided):
        y, (xhat, invstd, _) = bn.forward(x)
        y_ref, xhat_ref, invstd_ref = _reference_bn_forward(ref, x)
        assert _same_bits(y, y_ref) and _same_bits(xhat, xhat_ref)
        assert _same_bits(invstd, invstd_ref)
        assert _same_bits(bn.running_mean, ref.running_mean)
        assert _same_bits(bn.running_var, ref.running_var)


@pytest.mark.parametrize("mode", BN_MODES)
def test_writing_into_the_bn_output_leaves_its_cache_untouched(mode, rng):
    bn = random_bn(rng, ch=3)
    bn.mode = mode
    x = rng.normal(size=(4, 3, 2, 2))
    before = x.copy()
    y, cache = bn.forward(x)
    xhat = cache[0].copy()
    y[...] = 7.0
    y_reused, reused = bn.forward(x, frozen=cache)
    y_reused += 1.0
    assert reused is cache and _same_bits(cache[0], xhat)
    assert _same_bits(x, before)


def adapted_models(rng):
    """A spectral model (adapter at 3) and a bn-modulator model (bn0 at 1)."""
    model = small_model(seed=6)
    basis = full_rank_basis_at(model, 2, rng)
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values, rng.uniform(0.2, 1, basis.rank))
    spectral = insert_adapter(model, 3, basis, filt)
    bn = model.clone()
    bn.set_bn_mode(BN_BATCH)
    bn.adapt_target = BatchNorm2d
    return spectral, bn


def test_adapt_start_is_the_lowest_adaptation_layer(rng):
    spectral, bn = adapted_models(rng)
    assert spectral.adapt_start() == 3
    assert bn.adapt_start() == 1
    with pytest.raises(ContractViolationError):
        small_model().adapt_start()


def test_forward_from_start_matches_full_forward_bitwise(rng):
    """A forward resumed from an earlier forward's caches starts at the
    lowest adaptation layer and gives forward(x) bitwise."""
    x = rng.normal(size=(6,) + IN_SHAPE)
    for model in adapted_models(rng):
        k = model.adapt_start()
        full_logits, full_caches = model.forward(x)
        logits, caches = model.forward(x, frozen=full_caches)
        assert np.array_equal(logits, full_logits)
        assert len(caches) == len(model.layers)
        assert caches[:k] == [None] * k
        assert all(c is not None for c in caches[k:])
        with pytest.raises(ContractViolationError, match="cache does not match the layer stack"):
            model.forward(x, frozen=full_caches[:-1])


def test_truncated_backward_matches_full_cache_backward(rng):
    x = rng.normal(size=(6,) + IN_SHAPE)
    for model in adapted_models(rng):
        full_logits, full_caches = model.forward(x)
        _, caches = model.forward(x, frozen=full_caches)
        gloss = entropy_grad(full_logits)
        grads = model.backward_adapt(caches, gloss)
        assert grads.shape == (model.adapt_params().size,)
        assert np.array_equal(grads, model.backward_adapt(full_caches, gloss))
        assert np.any(grads != 0)


@pytest.mark.parametrize("mode", [network.BN_FROZEN, BN_BATCH])
def test_bn_forward_is_its_input_half_then_its_adapted_half(mode, rng):
    """forward(x, frozen=cache) reuses the normalisation of an earlier
    forward(x) and gives its output bitwise, after the scale and shift
    moved too."""
    bn = BatchNorm2d(3)
    bn.scale, bn.shift = rng.uniform(0.5, 1.5, 3), rng.normal(size=3)
    bn.running_mean, bn.running_var = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
    bn.mode = mode
    x = rng.normal(size=(4, 3, 2, 2))
    _, cache = bn.forward(x)
    bn.scale, bn.shift = rng.uniform(0.5, 1.5, 3), rng.normal(size=3)
    y, fresh = bn.forward(x)
    y_reused, reused = bn.forward(x, frozen=cache)
    assert np.array_equal(y, y_reused)
    assert reused is cache and reused[2] == fresh[2] == mode
    assert all(np.array_equal(a, b) for a, b in zip(fresh[:2], reused[:2]))


def test_adapter_forward_is_its_input_half_then_its_adapted_half(rng):
    spectral, _ = adapted_models(rng)
    folded = spectral.layers[3]
    assert folded.absorbed  # conv1 and bn1 are folded into the reconstruction
    h = spectral.forward_until(rng.normal(size=(5,) + IN_SHAPE), 2)
    unfolded = SpectralAdapterLayer(folded.basis, folded.filt, (), h.shape[1:])
    for layer in (folded, unfolded):
        _, cache = layer.forward(h)
        layer.filt.gamma = rng.uniform(0.2, 1, len(layer.filt))
        out, (shape, fcache) = layer.forward(h)
        out_reused, (shape_reused, fcache_reused) = layer.forward(h, frozen=cache)
        assert np.array_equal(out, out_reused)
        assert shape == shape_reused == h.shape
        assert shape_reused is cache[0] and fcache_reused.scores is cache[1].scores
        assert np.array_equal(fcache.scores, fcache_reused.scores)
        assert np.array_equal(fcache.diag, fcache_reused.diag)
        with pytest.raises(ContractViolationError, match="expects a 4-D feature map"):
            layer.forward(h.reshape(len(h), -1))
    short = SpectralFilter(RELU_RIDGE, folded.basis.singular_values[:-1])
    with pytest.raises(ContractViolationError, match="!= filter length"):
        SpectralAdapterLayer(folded.basis, short, (), h.shape[1:])


def test_forward_reusing_the_first_cache_matches_full_forward_bitwise(rng):
    """Resumed from the batch's first forward, and then from each resumed
    one, a forward gives a full forward's logits and adaptation gradient
    bitwise after the adaptation parameters moved."""
    x = rng.normal(size=(6,) + IN_SHAPE)
    for model in adapted_models(rng):
        k = model.adapt_start()
        _, caches = model.forward(x)
        for _ in range(2):
            moved = model.adapt_params() + rng.normal(0.0, 0.1, model.adapt_params().size)
            model.set_adapt_params(moved)
            full_logits, full_caches = model.forward(x)
            logits, caches = model.forward(x, frozen=caches)
            assert np.array_equal(logits, full_logits)
            assert caches[:k] == [None] * k
            gloss = entropy_grad(full_logits)
            assert np.array_equal(
                model.backward_adapt(caches, gloss), model.backward_adapt(full_caches, gloss)
            )


def test_forward_until_minus_1_checks_the_raw_batch(rng):
    model = small_model()
    basis = full_rank_basis_at(model, -1, rng)
    adapted = insert_adapter(model, 0, basis, SpectralFilter(RELU_RIDGE, basis.singular_values))
    assert adapted.adapt_start() == 0
    x = rng.normal(size=(3,) + IN_SHAPE)
    h = adapted.forward_until(x, -1)
    assert np.array_equal(h, x)
    logits, caches = adapted.forward(x)
    assert np.array_equal(adapted.forward(x, frozen=caches)[0], logits)
    # a 4-D batch of the wrong shape would reach the projection otherwise
    with pytest.raises(ContractViolationError, match="input spec"):
        adapted.forward_until(rng.normal(size=(3, 1, 4, 8)), -1)
    with pytest.raises(ContractViolationError, match="out of range"):
        adapted.forward_until(x, -2)


def test_backward_without_input_grad_returns_none_and_same_param_grads(rng):
    x = rng.normal(size=(5,) + IN_SHAPE)
    # every layer kind, the batch norms on stored and on batch statistics
    for model in adapted_models(rng):
        h = x
        for layer in model.layers:
            out, cache = layer.forward(h)
            gy = rng.normal(size=out.shape)
            gx, pg = layer.backward(cache, gy)
            none, pg_skip = layer.backward(cache, gy, need_input_grad=False)
            assert gx.shape == h.shape and none is None
            assert pg.keys() == pg_skip.keys()
            assert all(np.array_equal(pg[k], pg_skip[k]) for k in pg)
            h = out


def test_training_without_layer0_input_grad_matches_full_backward(monkeypatch, rng):
    """backward_all skips the network-input gradient; the trained weights
    must equal those of a backward pass that computes it."""

    def full_backward_all(model, caches, gloss):
        grads = []
        g = gloss
        for layer, cache in zip(reversed(model.layers), reversed(caches)):
            g, pg = layer.backward(cache, g, need_param_grads=True)
            grads.append(pg)
        return list(reversed(grads))

    x = rng.uniform(size=(48,) + IN_SHAPE)
    y = rng.integers(0, 3, size=48)
    trained = train_model(small_model(seed=4), x, y, epochs=3, batch_size=16, seed=2)
    with monkeypatch.context() as patch:
        patch.setattr(Model, "backward_all", full_backward_all)
        reference = train_model(small_model(seed=4), x, y, epochs=3, batch_size=16, seed=2)
    assert trained.weight_hash() == reference.weight_hash()
    assert trained.weight_hash() != small_model(seed=4).weight_hash()


# The log-softmax as each caller wrote it before they shared
# network.log_softmax: the references the shared helper must reproduce bit
# for bit, and the overflow warning that only training lets through.


def _reference_softmax_cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    loss = -logp[np.arange(n), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def _reference_shifted(logits):
    with np.errstate(over="ignore"):
        return logits - logits.max(axis=1, keepdims=True)


def _reference_entropy(logits):
    z = _reference_shifted(logits)
    lse = np.log(np.exp(z).sum(axis=1))
    p = np.exp(z - lse[:, None])
    z = np.where(p > 0, z, 0.0)
    h = lse - np.sum(p * z, axis=1)
    return float(h.mean())


def _reference_entropy_grad(logits):
    z = _reference_shifted(logits)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    p = np.exp(z - lse)
    z = np.where(p > 0, z, 0.0)
    zbar = np.sum(p * z, axis=1, keepdims=True)
    return -p * (z - zbar) / logits.shape[0]


_LOGITS = {
    "random": np.random.default_rng(7).normal(scale=4.0, size=(9, 5)),
    "tied": np.array([[0.37, 0.37, 0.37], [2.0, -1.0, 2.0], [-3.0, 5.0, 5.0], [0.0, 0.0, -0.0]]),
    "past-float64": np.array([[-1e308, 1e308], [1e308, -1e308]]),
}


@pytest.mark.parametrize("case", list(_LOGITS))
def test_entropy_and_cross_entropy_match_their_own_log_softmax_bitwise(case):
    logits = _LOGITS[case]
    labels = np.arange(len(logits)) % logits.shape[1]
    assert _same_bits(np.float64(entropy(logits)), np.float64(_reference_entropy(logits)))
    assert _same_bits(entropy_grad(logits), _reference_entropy_grad(logits))
    # training lets an overflow in the shift warn, the entropy pair does not
    warns = case == "past-float64"
    with pytest.warns(RuntimeWarning, match="overflow") if warns else contextlib.nullcontext():
        loss, grad = softmax_cross_entropy(logits, labels)
    with pytest.warns(RuntimeWarning, match="overflow") if warns else contextlib.nullcontext():
        ref_loss, ref_grad = _reference_softmax_cross_entropy(logits, labels)
    assert _same_bits(np.float64(loss), np.float64(ref_loss))
    assert _same_bits(grad, ref_grad)


def test_training_with_the_shared_log_softmax_matches_its_own(monkeypatch, tiny_config, tiny_model):
    with monkeypatch.context() as patch:
        patch.setattr(network, "softmax_cross_entropy", _reference_softmax_cross_entropy)
        reference = bench.train_from_config(tiny_config)
    assert tiny_model.weight_hash() == reference.weight_hash()


def test_training_and_adaptation_with_the_per_sample_conv_match_their_own(
    monkeypatch, tiny_config, tiny_model, tiny_basis
):
    cells = [(method, "gaussian-noise", 5) for method in ("bn-modulators", "spectral-relu")]
    records = [bench.run_cell(tiny_config, tiny_model, tiny_basis, *cell) for cell in cells]
    with monkeypatch.context() as patch:
        patch.setattr(Conv2d, "forward", _reference_conv_forward)
        patch.setattr(Conv2d, "backward", _reference_conv_backward)
        reference = bench.train_from_config(tiny_config)
        ref_basis = bench.fit_basis_from_config(tiny_config, reference)
        ref_records = [bench.run_cell(tiny_config, reference, ref_basis, *cell) for cell in cells]
    assert tiny_model.weight_hash() == reference.weight_hash()
    assert _same_bits(tiny_basis.components, ref_basis.components)
    assert _same_bits(tiny_basis.mean, ref_basis.mean)
    for rec, ref in zip(records, ref_records):
        assert rec.batches == ref.batches  # errors, both entropies, params_hash
