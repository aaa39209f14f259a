"""A small frozen-weight convolutional network with manual backprop.

Layers: Conv2d (stride 1, same padding), BatchNorm2d, ReLU, Flatten,
Linear, and the PCA spectral adapter layer. The network is trained once
with plain SGD and cross-entropy; after that every weight is frozen and
only the adaptation parameters (the adapter's gamma, or the batch-norm
scale/shift for the modulator baseline) ever receive gradients.

Every layer's ``backward(cache, gy, need_param_grads, need_input_grad)``
returns ``(input_grad, param_grads)``. With ``need_param_grads=False`` the
dict is empty; with ``need_input_grad=False`` the input gradient is
``None`` and is not computed, which is how a backward pass skips the work
at the lowest layer it visits.
"""

import copy
import hashlib
import json

import numpy as np

from . import pca as pca_mod
from .errors import ContractViolationError
from .filters import SpectralFilter, apply_filter, apply_filter_backward
from .pca import PcaBasis

MODEL_FORMAT_VERSION = 1

BN_FROZEN = "frozen-stats"
BN_BATCH = "batch-stats"


class Conv2d:
    """3x3 (or k x k) convolution, stride 1, zero padding keeping h, w."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator):
        fan_in = in_ch * kernel * kernel
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, kernel, kernel))
        self.b = np.zeros(out_ch)
        self.kernel = kernel

    def params(self):
        return {"w": self.w, "b": self.b}

    def _im2col(self, x):
        n, c, h, w = x.shape
        k = self.kernel
        p = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        # (n, c, h, w, k, k) window view -> (n, c, k, k, h, w); the reshape
        # makes the one copy
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, h * w)

    def forward(self, x):
        n, c, h, w = x.shape
        cols = self._im2col(x)
        w2 = self.w.reshape(self.w.shape[0], -1)
        y = np.matmul(w2, cols) + self.b[None, :, None]
        return y.reshape(n, -1, h, w), (x.shape, cols)

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        (n, c, h, w), cols = cache
        k = self.kernel
        p = k // 2
        out_ch = self.w.shape[0]
        gy2 = gy.reshape(n, out_ch, h * w)
        w2 = self.w.reshape(out_ch, -1)
        pgrads = {}
        if need_param_grads:
            gw2 = np.einsum("nof,ncf->oc", gy2, cols)
            pgrads = {"w": gw2.reshape(self.w.shape), "b": gy2.sum(axis=(0, 2))}
        if not need_input_grad:
            return None, pgrads
        gcols = np.matmul(w2.T, gy2).reshape(n, c, k, k, h, w)
        gxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
        for i in range(k):
            for j in range(k):
                gxp[:, :, i : i + h, j : j + w] += gcols[:, :, i, j]
        gx = gxp[:, :, p : p + h, p : p + w]
        return gx, pgrads


class BatchNorm2d:
    """Per-channel batch norm over (n, h, w).

    ``mode`` selects frozen running statistics or per-batch statistics;
    ``track`` additionally updates the running statistics (training only).
    """

    def __init__(self, ch: int, eps: float = 1e-5, momentum: float = 0.1):
        self.scale = np.ones(ch)
        self.shift = np.zeros(ch)
        self.running_mean = np.zeros(ch)
        self.running_var = np.ones(ch)
        self.eps = eps
        self.momentum = momentum
        self.mode = BN_FROZEN
        self.track = False

    def params(self):
        return {"scale": self.scale, "shift": self.shift}

    @property
    def channels(self) -> int:
        return len(self.scale)

    def forward(self, x):
        if self.mode == BN_BATCH:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            if self.track:
                m = self.momentum
                self.running_mean = (1 - m) * self.running_mean + m * mean
                self.running_var = (1 - m) * self.running_var + m * var
        else:
            mean = self.running_mean
            var = self.running_var
        invstd = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None, None]) * invstd[None, :, None, None]
        y = self.scale[None, :, None, None] * xhat + self.shift[None, :, None, None]
        return y, (xhat, invstd, self.mode)

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        xhat, invstd, mode = cache
        # the per-channel sums are the scale/shift gradients; batch-stats
        # mode also needs them for the input gradient
        if need_param_grads or (need_input_grad and mode == BN_BATCH):
            gdot = np.sum(gy * xhat, axis=(0, 2, 3))
            gsum = np.sum(gy, axis=(0, 2, 3))
        pgrads = {"scale": gdot, "shift": gsum} if need_param_grads else {}
        if not need_input_grad:
            return None, pgrads
        sc = (self.scale * invstd)[None, :, None, None]
        if mode == BN_FROZEN:
            gx = gy * sc
        else:
            # standard batch-norm backward
            nhw = gy.shape[0] * gy.shape[2] * gy.shape[3]
            gx = sc * (
                gy
                - gsum[None, :, None, None] / nhw
                - xhat * gdot[None, :, None, None] / nhw
            )
        return gx, pgrads


class ReLU:
    def params(self):
        return {}

    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        return (gy * cache if need_input_grad else None), {}


class Flatten:
    def params(self):
        return {}

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        return (gy.reshape(cache) if need_input_grad else None), {}


class Linear:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.w = rng.normal(0.0, np.sqrt(2.0 / in_features), size=(out_features, in_features))
        self.b = np.zeros(out_features)

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x):
        return x @ self.w.T + self.b, x

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        pgrads = {}
        if need_param_grads:
            pgrads = {"w": gy.T @ cache, "b": gy.sum(axis=0)}
        return (gy @ self.w if need_input_grad else None), pgrads


class SpectralAdapterLayer:
    """Flatten -> PCA spectral filter -> unflatten, on a 4-D feature map."""

    def __init__(self, basis: PcaBasis, filt: SpectralFilter):
        if basis.rank != len(filt):
            raise ContractViolationError(
                f"basis rank {basis.rank} != filter length {len(filt)}"
            )
        self.basis = basis
        self.filt = filt

    def params(self):
        return {"gamma": self.filt.gamma}

    def forward(self, x):
        if x.ndim != 4:
            raise ContractViolationError("adapter layer expects a 4-D feature map")
        flat = x.reshape(x.shape[0], -1)
        out, fcache = apply_filter(self.basis, self.filt, flat)
        return out.reshape(x.shape), (x.shape, fcache)

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        shape, fcache = cache
        gflat = gy.reshape(gy.shape[0], -1)
        gamma_grad, ginput = apply_filter_backward(fcache, gflat, need_input_grad)
        pgrads = {"gamma": gamma_grad} if need_param_grads else {}
        return (ginput.reshape(shape) if need_input_grad else None), pgrads


# adaptation targets
ADAPT_NONE = None
ADAPT_FILTER = "filter"
ADAPT_BN = "bn-modulators"


class Model:
    """An ordered layer stack with a designated adaptation parameter set."""

    def __init__(self, layers, input_shape, adapt_target=ADAPT_NONE):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)  # (c, h, w)
        self.adapt_target = adapt_target

    # ---- forward / backward -------------------------------------------

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ContractViolationError(
                f"batch shape {x.shape} does not match input spec {self.input_shape}"
            )
        return x

    def forward(self, x, start=0):
        """Logits and per-layer caches, running layers ``start`` onwards.

        For ``start > 0``, ``x`` is the output of layer ``start - 1`` (see
        :meth:`forward_until`) and the skipped layers get ``None`` caches,
        so the cache list still lines up with the layer stack.
        """
        if not 0 <= start < len(self.layers):
            raise ContractViolationError(f"start index {start} out of range")
        if start == 0:
            x = self._check_input(x)
        caches = [None] * start
        for layer in self.layers[start:]:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def forward_until(self, x, j):
        """Output of layer index j (inclusive)."""
        if not 0 <= j < len(self.layers):
            raise ContractViolationError(f"layer index {j} out of range")
        x = self._check_input(x)
        for layer in self.layers[: j + 1]:
            x, _ = layer.forward(x)
        return x

    def backward_all(self, caches, gloss):
        """Full backward pass; returns per-layer param grads (training).
        The gradient w.r.t. the network input is not computed."""
        grads = []
        g = gloss
        for idx in range(len(self.layers) - 1, -1, -1):
            g, pg = self.layers[idx].backward(
                caches[idx], g, need_param_grads=True, need_input_grad=idx > 0
            )
            grads.append(pg)
        return list(reversed(grads))

    def backward_adapt(self, caches, gloss):
        """Backward pass collecting gradients only for adaptation params.

        It stops at :meth:`adapt_start`: nothing below the lowest
        adaptation layer has a gradient to collect, so those caches may be
        the ``None`` slots of ``forward(h, start=model.adapt_start())``.
        """
        if self.adapt_target is ADAPT_NONE:
            raise ContractViolationError("model has no adaptation parameter set")
        if len(caches) != len(self.layers):
            raise ContractViolationError("cache does not match the layer stack")
        per_layer = {}
        g = gloss
        start = self.adapt_start()
        for idx in range(len(self.layers) - 1, start - 1, -1):
            layer = self.layers[idx]
            need = self._is_adapt_layer(layer)
            g, pg = layer.backward(
                caches[idx], g, need_param_grads=need, need_input_grad=idx > start
            )
            if need:
                per_layer[idx] = pg
        return self._collect_adapt(per_layer)

    # ---- adaptation parameter plumbing --------------------------------

    def _is_adapt_layer(self, layer) -> bool:
        if self.adapt_target == ADAPT_FILTER:
            return isinstance(layer, SpectralAdapterLayer)
        if self.adapt_target == ADAPT_BN:
            return isinstance(layer, BatchNorm2d)
        return False

    def adapt_start(self) -> int:
        """Index of the lowest adaptation layer. The layers below it are
        frozen, so their output is a fixed function of the input batch."""
        for idx, layer in enumerate(self.layers):
            if self._is_adapt_layer(layer):
                return idx
        raise ContractViolationError("model has no adaptation parameter set")

    def _adapt_layers(self):
        return [l for l in self.layers if self._is_adapt_layer(l)]

    def _collect_adapt(self, per_layer):
        chunks = []
        for idx, layer in enumerate(self.layers):
            if not self._is_adapt_layer(layer):
                continue
            pg = per_layer.get(idx, {})
            if isinstance(layer, SpectralAdapterLayer):
                chunks.append(pg.get("gamma", np.zeros(len(layer.filt))))
            else:
                chunks.append(pg.get("scale", np.zeros(layer.channels)))
                chunks.append(pg.get("shift", np.zeros(layer.channels)))
        return np.concatenate(chunks)

    def adapt_params(self) -> np.ndarray:
        chunks = []
        for layer in self._adapt_layers():
            if isinstance(layer, SpectralAdapterLayer):
                chunks.append(layer.filt.gamma.copy())
            else:
                chunks.append(layer.scale.copy())
                chunks.append(layer.shift.copy())
        if not chunks:
            raise ContractViolationError("model has no adaptation parameter set")
        return np.concatenate(chunks)

    def set_adapt_params(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.adapt_param_count(),):
            raise ContractViolationError(
                f"expected {self.adapt_param_count()} adaptation parameters, "
                f"got {vec.shape}"
            )
        pos = 0
        for layer in self._adapt_layers():
            if isinstance(layer, SpectralAdapterLayer):
                n = len(layer.filt)
                layer.filt.gamma = vec[pos : pos + n].copy()
                pos += n
            else:
                n = layer.channels
                layer.scale = vec[pos : pos + n].copy()
                layer.shift = vec[pos + n : pos + 2 * n].copy()
                pos += 2 * n

    def adapt_param_count(self) -> int:
        total = 0
        for layer in self._adapt_layers():
            if isinstance(layer, SpectralAdapterLayer):
                total += len(layer.filt)
            else:
                total += 2 * layer.channels
        return total

    # ---- state management ----------------------------------------------

    def set_bn_mode(self, mode: str) -> None:
        if mode not in (BN_FROZEN, BN_BATCH):
            raise ContractViolationError(f"unknown batch-norm mode {mode!r}")
        for layer in self.layers:
            if isinstance(layer, BatchNorm2d):
                layer.mode = mode

    def clone(self) -> "Model":
        return copy.deepcopy(self)

    def frozen_param_items(self, include_bn_modulators: bool = True):
        """(name, array) pairs for everything that is not an adaptation param."""
        items = []
        for idx, layer in enumerate(self.layers):
            for name, arr in sorted(layer.params().items()):
                if isinstance(layer, SpectralAdapterLayer):
                    continue  # gamma is never part of theta
                if (
                    not include_bn_modulators
                    and isinstance(layer, BatchNorm2d)
                ):
                    continue
                items.append((f"layer{idx}.{name}", arr))
            if isinstance(layer, BatchNorm2d):
                items.append((f"layer{idx}.running_mean", layer.running_mean))
                items.append((f"layer{idx}.running_var", layer.running_var))
        return items

    def weight_hash(self, include_bn_modulators: bool = True) -> str:
        h = hashlib.sha256()
        for name, arr in self.frozen_param_items(include_bn_modulators):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()

    def layer_output_shapes(self):
        """Per-layer output shapes (excluding the batch axis)."""
        x = np.zeros((1,) + self.input_shape)
        shapes = []
        for layer in self.layers:
            x, _ = layer.forward(x)
            shapes.append(x.shape[1:])
        return shapes


def build_model(
    seed: int,
    input_shape=(3, 8, 8),
    conv_channels=(8, 8),
    n_classes: int = 4,
    kernel: int = 3,
) -> Model:
    """conv-bn-relu blocks, then flatten and a linear classifier head."""
    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    layers = []
    prev = c
    for ch in conv_channels:
        layers.append(Conv2d(prev, ch, kernel, rng))
        layers.append(BatchNorm2d(ch))
        layers.append(ReLU())
        prev = ch
    layers.append(Flatten())
    layers.append(Linear(prev * h * w, n_classes, rng))
    return Model(layers, input_shape)


def insert_adapter(model: Model, j: int, basis: PcaBasis, filt: SpectralFilter) -> Model:
    """Insert the spectral adapter at position j of the layer stack.

    The adapter consumes the output of layer j - 1 (or the raw input for
    j == 0), which must be a 4-D map whose flattened width equals the
    basis dimension. The original model object is left untouched, so
    dropping the returned model restores pre-insertion behavior exactly.
    """
    if not 0 <= j <= len(model.layers):
        raise ContractViolationError(f"insertion index {j} out of range")
    if j == 0:
        in_shape = model.input_shape
    else:
        shapes = model.layer_output_shapes()
        in_shape = shapes[j - 1]
    if len(in_shape) != 3:
        raise ContractViolationError(
            f"layer at position {j} receives shape {in_shape}, need a 4-D map"
        )
    p = int(np.prod(in_shape))
    if p != basis.p:
        raise ContractViolationError(
            f"flattened width {p} at position {j} != basis dimension {basis.p}"
        )
    layers = list(model.layers)
    layers.insert(j, SpectralAdapterLayer(basis, filt))
    return Model(layers, model.input_shape, adapt_target=ADAPT_FILTER)


def remove_adapter(model: Model) -> Model:
    layers = [l for l in model.layers if not isinstance(l, SpectralAdapterLayer)]
    if len(layers) == len(model.layers):
        raise ContractViolationError("model has no adapter layer")
    return Model(layers, model.input_shape, adapt_target=ADAPT_NONE)


def fit_pca_from_source(model: Model, source_batches, j: int, rank: int) -> PcaBasis:
    """Fit a PCA basis on the layer-j outputs of the source batches.

    Streams batches through :func:`pca.fit_incremental`, so the source
    data is never concatenated or retained.
    """

    def feature_stream():
        for batch in source_batches:
            out = model.forward_until(batch, j)
            if out.ndim != 4:
                raise ContractViolationError(
                    f"layer {j} output is not a 4-D feature map"
                )
            yield pca_mod.flatten_features(out)

    return pca_mod.fit_incremental(feature_stream(), rank)


# ---- supervised pre-training ------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    loss = -logp[np.arange(n), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def train_model(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int = 20,
    lr: float = 0.05,
    batch_size: int = 64,
    seed: int = 0,
) -> Model:
    """Plain SGD training; afterwards all weights are frozen and batch
    norm switches to its stored running statistics."""
    rng = np.random.default_rng(seed)
    model.set_bn_mode(BN_BATCH)
    for layer in model.layers:
        if isinstance(layer, BatchNorm2d):
            layer.track = True
    n = len(x)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            logits, caches = model.forward(x[idx])
            _, gloss = softmax_cross_entropy(logits, y[idx])
            grads = model.backward_all(caches, gloss)
            for layer, pg in zip(model.layers, grads):
                for name, g in pg.items():
                    layer.params()[name] -= lr * g
    for layer in model.layers:
        if isinstance(layer, BatchNorm2d):
            layer.track = False
    model.set_bn_mode(BN_FROZEN)
    return model


# ---- checkpointing -----------------------------------------------------


def save_model(model: Model, path) -> None:
    spec = {
        "version": MODEL_FORMAT_VERSION,
        "input_shape": list(model.input_shape),
        "layers": [],
    }
    arrays = {}
    for idx, layer in enumerate(model.layers):
        kind = type(layer).__name__
        entry = {"kind": kind}
        if isinstance(layer, Conv2d):
            entry["kernel"] = layer.kernel
            arrays[f"layer{idx}.w"] = layer.w
            arrays[f"layer{idx}.b"] = layer.b
        elif isinstance(layer, BatchNorm2d):
            arrays[f"layer{idx}.scale"] = layer.scale
            arrays[f"layer{idx}.shift"] = layer.shift
            arrays[f"layer{idx}.running_mean"] = layer.running_mean
            arrays[f"layer{idx}.running_var"] = layer.running_var
        elif isinstance(layer, Linear):
            arrays[f"layer{idx}.w"] = layer.w
            arrays[f"layer{idx}.b"] = layer.b
        elif isinstance(layer, SpectralAdapterLayer):
            raise ContractViolationError(
                "checkpoints store the base network; remove the adapter first"
            )
        spec["layers"].append(entry)
    arrays["spec"] = np.frombuffer(json.dumps(spec).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path) -> Model:
    data = np.load(path)
    spec = json.loads(bytes(data["spec"]).decode())
    if spec.get("version") != MODEL_FORMAT_VERSION:
        raise ContractViolationError(
            f"unsupported checkpoint version {spec.get('version')!r}"
        )
    rng = np.random.default_rng(0)
    layers = []
    for idx, entry in enumerate(spec["layers"]):
        kind = entry["kind"]
        if kind == "Conv2d":
            w = data[f"layer{idx}.w"]
            layer = Conv2d(w.shape[1], w.shape[0], entry["kernel"], rng)
            layer.w = w.astype(np.float64)
            layer.b = data[f"layer{idx}.b"].astype(np.float64)
        elif kind == "BatchNorm2d":
            scale = data[f"layer{idx}.scale"].astype(np.float64)
            layer = BatchNorm2d(len(scale))
            layer.scale = scale
            layer.shift = data[f"layer{idx}.shift"].astype(np.float64)
            layer.running_mean = data[f"layer{idx}.running_mean"].astype(np.float64)
            layer.running_var = data[f"layer{idx}.running_var"].astype(np.float64)
        elif kind == "ReLU":
            layer = ReLU()
        elif kind == "Flatten":
            layer = Flatten()
        elif kind == "Linear":
            w = data[f"layer{idx}.w"].astype(np.float64)
            layer = Linear(w.shape[1], w.shape[0], rng)
            layer.w = w
            layer.b = data[f"layer{idx}.b"].astype(np.float64)
        else:
            raise ContractViolationError(f"unknown layer kind {kind!r}")
        layers.append(layer)
    return Model(layers, tuple(spec["input_shape"]))
