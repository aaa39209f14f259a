"""The frozen layers after the spectral adapter fold into its reconstruction.

The reference is the adapter as its own layer, (V, mean) reconstruction and
nothing absorbed, followed by the real layers of the stack.
"""

import numpy as np
import pytest

from spectral_tta import pca
from spectral_tta.adapt import entropy_grad
from spectral_tta.errors import ContractViolationError
from spectral_tta.filters import NEG_EXP, RELU_RIDGE, SpectralFilter
from spectral_tta.network import (
    BN_BATCH,
    BN_FROZEN,
    BN_MODES,
    BN_TRAIN,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    Model,
    SpectralAdapterLayer,
    build_model,
    fit_pca_from_source,
    insert_adapter,
    remove_adapter,
)

IN_SHAPE = (2, 4, 4)
RTOL = 1e-10


def unfolded(model, j, basis, filt):
    in_shape = ([model.input_shape] + model.layer_output_shapes())[j]
    adapter = SpectralAdapterLayer(basis, filt, (), in_shape)
    layers = model.layers[:j] + [adapter] + model.layers[j:]
    return Model(layers, model.input_shape, adapt_target=SpectralAdapterLayer)


def adapter_of(model):
    return next(l for l in model.layers if isinstance(l, SpectralAdapterLayer))


def assert_close(a, b):
    """Equal to RTOL relative to b's largest entry (exactly, if b is 0)."""
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= RTOL * np.abs(b).max()


def gammas(basis, rng):
    """Gamma vectors spanning both filters' active ranges: zero, moderate,
    mixed-sign and around sqrt(lambda), where neg-exp switches modes off."""
    root = np.sqrt(basis.singular_values)
    return [
        np.zeros(basis.rank),
        rng.uniform(0.1, 2.0, basis.rank),
        rng.uniform(-2.0, 2.0, basis.rank),
        root * rng.uniform(0.5, 1.5, basis.rank),
    ]


def randomised(model, rng):
    """The model with random conv and linear biases and random batch-norm
    statistics, scales and shifts. Biases trained before a batch norm stay
    near 0, build_model's are 0, and its batch norms scale by about 1, which
    would leave the offset's bias terms and a folded batch norm untested."""
    model = model.clone()
    for layer in model.layers:
        if isinstance(layer, (Conv2d, Linear)):
            layer.b = rng.normal(size=layer.b.shape)
        if isinstance(layer, BatchNorm2d):
            ch = len(layer.scale)
            layer.scale, layer.shift = rng.uniform(0.5, 1.5, ch), rng.normal(size=ch)
            layer.running_mean, layer.running_var = rng.normal(size=ch), rng.uniform(0.5, 2.0, ch)
    return model


def small_model(seed, rng):
    model = build_model(seed, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)
    return randomised(model, rng)


def both(model, j, basis, kind, gamma):
    """The folded model and its unfolded reference, each with its own filter."""
    folded = insert_adapter(model, j, basis, SpectralFilter(kind, basis.singular_values, gamma))
    return folded, unfolded(model, j, basis, SpectralFilter(kind, basis.singular_values, gamma))


def full_rank_basis_at(model, j, rng):
    p = int(np.prod(model.layer_output_shapes()[j]))
    batches = [rng.normal(size=(48,) + IN_SHAPE) for _ in range(2)]
    return fit_pca_from_source(model, batches, j + 1, rank=p)


def assert_adapts_like(folded, ref, x):
    """The folded model's logits and gamma gradient are the reference's."""
    logits, caches = folded.forward(x)
    ref_logits, ref_caches = ref.forward(x)
    assert_close(logits, ref_logits)
    assert_close(
        folded.backward_adapt(caches, entropy_grad(logits)),
        ref.backward_adapt(ref_caches, entropy_grad(ref_logits)),
    )


@pytest.mark.parametrize("kind", [RELU_RIDGE, NEG_EXP])
def test_folded_conv_matches_unfolded_reference(
    kind, tiny_config, tiny_model, tiny_basis, tiny_test_set, rng
):
    x = tiny_test_set[0][:32]
    j = tiny_config["model"]["insert_index"]
    model = randomised(tiny_model, rng)
    assert isinstance(model.layers[j], Conv2d)
    for gamma in gammas(tiny_basis, rng):
        folded, ref = both(model, j, tiny_basis, kind, gamma)
        adapter = adapter_of(folded)
        assert adapter.absorbed == model.layers[j : j + 2]  # conv1 and the frozen bn1
        assert len(folded.layers) == len(model.layers) - 1
        assert folded.layers[j + 1] is model.layers[j + 2]  # the fold stops at relu1
        assert_adapts_like(folded, ref, x)

        # one layer against adapter + conv + batch norm, input gradient included
        h = model.forward_until(x, j - 1)
        out, cache = adapter.forward(h)
        mid, ref_cache = ref.layers[j].forward(h)
        conv_out, conv_cache = ref.layers[j + 1].forward(mid)
        ref_out, bn_cache = ref.layers[j + 2].forward(conv_out)
        assert_close(out, ref_out)
        gy = rng.normal(size=out.shape)
        gx, pg = adapter.backward(cache, gy)
        gconv, _ = ref.layers[j + 2].backward(bn_cache, gy, need_param_grads=False)
        gmid, _ = ref.layers[j + 1].backward(conv_cache, gconv, need_param_grads=False)
        ref_gx, ref_pg = ref.layers[j].backward(ref_cache, gmid)
        assert_close(gx, ref_gx)
        assert_close(pg["gamma"], ref_pg["gamma"])


@pytest.mark.parametrize("j, n_absorbed", [(1, 1), (3, 2)], ids=["before-bn0", "conv1-absorbed"])
def test_adapter_input_grad_matches_finite_differences(j, n_absorbed, rng):
    model = small_model(7, rng)
    in_shape = model.layer_output_shapes()[j - 1]  # (3, 4, 4) at both
    basis = pca.fit_incremental([rng.normal(size=(64, int(np.prod(in_shape))))], rank=12)
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values, rng.uniform(0.1, 2.0, basis.rank))
    adapter = adapter_of(insert_adapter(model, j, basis, filt))
    assert len(adapter.absorbed) == n_absorbed
    x = rng.normal(size=(3,) + in_shape)
    out, cache = adapter.forward(x)
    w = rng.normal(size=out.shape)  # loss = sum(w * out)
    gx, _ = adapter.backward(cache, w, need_param_grads=False)
    assert gx.shape == x.shape
    h = 1e-6
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd = (np.sum(w * adapter.forward(xp)[0]) - np.sum(w * adapter.forward(xm)[0])) / (2 * h)
        assert abs(fd - gx[idx]) <= 1e-6 * max(1.0, abs(fd))


def test_nothing_absorbed_before_a_relu_or_batch_norm_is_bitwise(rng):
    """Nothing folds before a ReLU, or before a batch norm on batch
    statistics."""
    model = small_model(4, rng)
    batch_stats = model.clone()
    batch_stats.set_bn_mode(BN_BATCH)
    x = rng.normal(size=(6,) + IN_SHAPE)
    # before relu0, relu1, and bn0, bn1 on batch statistics
    for j, stack in ((2, model), (5, model), (1, batch_stats), (4, batch_stats)):
        assert not isinstance(stack.layers[j], (Conv2d, Flatten, Linear))
        basis = full_rank_basis_at(model, j - 1, rng)
        folded, ref = both(stack, j, basis, RELU_RIDGE, rng.uniform(0.1, 2.0, basis.rank))
        adapter = adapter_of(folded)
        assert adapter.absorbed == []
        # the reconstruction is a copy of (V, mean), equal in every bit
        assert not np.shares_memory(adapter.out_components, basis.components)
        assert np.array_equal(adapter.out_components, basis.components)
        assert not np.shares_memory(adapter.out_offset, basis.mean)
        assert np.array_equal(adapter.out_offset, basis.mean)
        logits, caches = folded.forward(x)
        ref_logits, ref_caches = ref.forward(x)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(
            folded.backward_adapt(caches, entropy_grad(logits)),
            ref.backward_adapt(ref_caches, entropy_grad(ref_logits)),
        )


@pytest.mark.parametrize("kind", [RELU_RIDGE, NEG_EXP])
def test_flatten_and_linear_fold_together(kind, rng):
    model = small_model(4, rng)
    j = 6  # after relu1: flatten and the linear head follow
    basis = full_rank_basis_at(model, j - 1, rng)
    x = rng.normal(size=(6,) + IN_SHAPE)
    for gamma in gammas(basis, rng)[1:]:
        folded, ref = both(model, j, basis, kind, gamma)
        assert [type(l) for l in adapter_of(folded).absorbed] == [Flatten, Linear]
        assert folded.layers[-1] is adapter_of(folded)
        assert adapter_of(folded).out_components.shape == (basis.rank, 3)
        assert_adapts_like(folded, ref, x)


@pytest.mark.parametrize("kind", [RELU_RIDGE, NEG_EXP])
@pytest.mark.parametrize(
    "j, kinds", [(1, [BatchNorm2d]), (3, [Conv2d, BatchNorm2d])], ids=["bn0", "conv1-bn1"]
)
def test_an_absorbed_batch_norm_matches_the_unfolded_reference(j, kinds, kind, rng):
    model = small_model(4, rng)
    basis = full_rank_basis_at(model, j - 1, rng)
    x = rng.normal(size=(6,) + IN_SHAPE)
    for gamma in gammas(basis, rng):
        folded, ref = both(model, j, basis, kind, gamma)
        assert [type(l) for l in adapter_of(folded).absorbed] == kinds
        assert_adapts_like(folded, ref, x)


@pytest.mark.parametrize("j, n_frozen", [(1, 1), (3, 2)], ids=["bn0", "conv1-bn1"])
def test_a_batch_norm_folds_on_its_stored_statistics_only(j, n_frozen, rng):
    """On batch statistics a batch norm is not affine: the fold stops
    before it and the insertion never runs it, so no statistic moves."""
    model = small_model(8, rng)
    basis = full_rank_basis_at(model, j - 1, rng)
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values)
    for mode in BN_MODES:
        model.set_bn_mode(mode)
        before = model.weight_hash()
        absorbed = adapter_of(insert_adapter(model, j, basis, filt)).absorbed
        n = n_frozen if mode == BN_FROZEN else n_frozen - 1
        assert absorbed == model.layers[j : j + n]
        assert model.weight_hash() == before  # it covers the running statistics
        assert all(l.mode == mode for l in model.layers if isinstance(l, BatchNorm2d))


@pytest.mark.parametrize("j", [1, 3])
def test_set_bn_mode_refuses_to_unfreeze_an_absorbed_batch_norm(j, rng):
    model = small_model(9, rng)
    basis = full_rank_basis_at(model, j - 1, rng)
    folded = insert_adapter(model, j, basis, SpectralFilter(RELU_RIDGE, basis.singular_values))
    for mode in (BN_BATCH, BN_TRAIN):
        with pytest.raises(ContractViolationError, match=f"absorbed a batch norm.*not '{mode}'"):
            folded.set_bn_mode(mode)
        # refused before any batch norm moved, the unabsorbed one included
        assert all(l.mode == BN_FROZEN for l in model.layers if isinstance(l, BatchNorm2d))
    folded.set_bn_mode(BN_FROZEN)
    base = remove_adapter(folded)
    base.set_bn_mode(BN_BATCH)  # the base model reaches every batch norm again
    assert all(l.mode == BN_BATCH for l in base.layers if isinstance(l, BatchNorm2d))


def test_remove_adapter_restores_the_absorbed_layers(rng):
    model = small_model(5, rng)
    x = rng.normal(size=(4,) + IN_SHAPE)
    base_logits, _ = model.forward(x)
    for j in (0, 3, 6):
        if j == 0:
            basis = pca.fit_incremental([rng.normal(size=(64, int(np.prod(IN_SHAPE))))], rank=12)
        else:
            basis = full_rank_basis_at(model, j - 1, rng)
        folded, _ = both(model, j, basis, RELU_RIDGE, rng.uniform(0.1, 2.0, basis.rank))
        assert adapter_of(folded).absorbed
        restored = remove_adapter(folded)
        assert [type(l) for l in restored.layers] == [type(l) for l in model.layers]
        logits, _ = restored.forward(x)
        assert np.array_equal(logits, base_logits)
        assert restored.weight_hash() == model.weight_hash()


def test_weight_hash_covers_the_absorbed_layers(rng):
    model = small_model(6, rng)
    basis = full_rank_basis_at(model, 2, rng)
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values)
    folded = insert_adapter(model.clone(), 3, basis, filt)
    # absorbed layers keep the names they have after an unfolded adapter
    assert folded.weight_hash() == unfolded(model, 3, basis, filt).weight_hash()
    names = [name for name, _ in folded.frozen_param_items()]
    assert "layer4.w" in names and "layer4.b" in names and "layer5.running_var" in names
    before = folded.weight_hash()
    conv = adapter_of(folded).absorbed[0]
    conv.w[0, 0, 1, 1] += 1e-3
    assert folded.weight_hash() != before
    assert folded.clone().weight_hash() == folded.weight_hash()
