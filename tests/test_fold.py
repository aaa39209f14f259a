"""The frozen layers after the spectral adapter fold into its reconstruction.

The reference is the adapter as its own layer, (V, mean) reconstruction and
nothing absorbed, followed by the real layers of the stack.
"""

import numpy as np
import pytest

from spectral_tta import pca
from spectral_tta.adapt import entropy_grad
from spectral_tta.filters import NEG_EXP, RELU_RIDGE, SpectralFilter
from spectral_tta.network import (
    ADAPT_FILTER,
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
    layers = model.layers[:j] + [SpectralAdapterLayer(basis, filt)] + model.layers[j:]
    return Model(layers, model.input_shape, adapt_target=ADAPT_FILTER)


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


def with_biases(model, rng):
    """The model with random conv and linear biases. Biases trained before a
    batch norm stay near 0, and build_model's are 0, which would leave the
    offset's bias terms untested."""
    model = model.clone()
    for layer in model.layers:
        if isinstance(layer, (Conv2d, Linear)):
            layer.b = rng.normal(size=layer.b.shape)
    return model


def small_model(seed, rng):
    model = build_model(seed, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)
    return with_biases(model, rng)


def both(model, j, basis, kind, gamma):
    """The folded model and its unfolded reference, each with its own filter."""
    folded = insert_adapter(model, j, basis, SpectralFilter(kind, basis.singular_values, gamma))
    return folded, unfolded(model, j, basis, SpectralFilter(kind, basis.singular_values, gamma))


def full_rank_basis_at(model, j, rng):
    p = int(np.prod(model.layer_output_shapes()[j]))
    batches = [rng.normal(size=(48,) + IN_SHAPE) for _ in range(2)]
    return fit_pca_from_source(model, batches, j, rank=p)


@pytest.mark.parametrize("kind", [RELU_RIDGE, NEG_EXP])
def test_folded_conv_matches_unfolded_reference(
    kind, tiny_config, tiny_model, tiny_basis, tiny_test_set, rng
):
    x = tiny_test_set[0][:32]
    j = tiny_config["model"]["insert_index"]
    model = with_biases(tiny_model, rng)
    assert isinstance(model.layers[j], Conv2d)
    for gamma in gammas(tiny_basis, rng):
        folded, ref = both(model, j, tiny_basis, kind, gamma)
        adapter = adapter_of(folded)
        assert adapter.absorbed == [model.layers[j]]
        assert len(folded.layers) == len(model.layers)
        assert folded.layers[j + 1] is model.layers[j + 1]  # the fold stops at bn1

        logits, caches = folded.forward(x)
        ref_logits, ref_caches = ref.forward(x)
        assert_close(logits, ref_logits)
        assert_close(
            folded.backward_adapt(caches, entropy_grad(logits)),
            ref.backward_adapt(ref_caches, entropy_grad(ref_logits)),
        )

        # one layer against adapter + conv, input gradient included
        h = model.forward_until(x, j - 1)
        out, cache = adapter.forward(h)
        mid, ref_cache = ref.layers[j].forward(h)
        ref_out, conv_cache = ref.layers[j + 1].forward(mid)
        assert_close(out, ref_out)
        gy = rng.normal(size=out.shape)
        gx, pg = adapter.backward(cache, gy)
        gmid, _ = ref.layers[j + 1].backward(conv_cache, gy, need_param_grads=False)
        ref_gx, ref_pg = ref.layers[j].backward(ref_cache, gmid)
        assert_close(gx, ref_gx)
        assert_close(pg["gamma"], ref_pg["gamma"])


def test_nothing_absorbed_before_a_relu_or_batch_norm_is_bitwise(rng):
    model = small_model(4, rng)
    x = rng.normal(size=(6,) + IN_SHAPE)
    for j in (1, 2, 4, 5):  # before bn0, relu0, bn1, relu1
        assert not isinstance(model.layers[j], (Conv2d, Flatten, Linear))
        basis = full_rank_basis_at(model, j - 1, rng)
        folded, ref = both(model, j, basis, RELU_RIDGE, rng.uniform(0.1, 2.0, basis.rank))
        adapter = adapter_of(folded)
        assert adapter.absorbed == []
        assert adapter.out_components is basis.components
        assert adapter.out_offset is basis.mean
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
        logits, caches = folded.forward(x)
        ref_logits, ref_caches = ref.forward(x)
        assert_close(logits, ref_logits)
        assert_close(
            folded.backward_adapt(caches, entropy_grad(logits)),
            ref.backward_adapt(ref_caches, entropy_grad(ref_logits)),
        )


def test_remove_adapter_restores_the_absorbed_layers(rng):
    model = small_model(5, rng)
    x = rng.normal(size=(4,) + IN_SHAPE)
    base_logits, _ = model.forward(x)
    for j in (0, 3, 6):
        if j == 0:
            basis = pca.fit(rng.normal(size=(64, int(np.prod(IN_SHAPE)))), rank=12)
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
    assert "layer4.w" in names and "layer4.b" in names
    before = folded.weight_hash()
    conv = adapter_of(folded).absorbed[0]
    conv.w[0, 0, 1, 1] += 1e-3
    assert folded.weight_hash() != before
    assert folded.clone().weight_hash() == folded.weight_hash()
