"""A small frozen-weight convolutional network with manual backprop.

Layers: Conv2d (stride 1, same padding), BatchNorm2d, ReLU, Flatten,
Linear, and the PCA spectral adapter layer. The network is trained once
with plain SGD and cross-entropy; after that every weight is frozen and
only the adaptation parameters (the adapter's gamma, or the batch-norm
scale/shift for the modulator baseline) ever receive gradients.

An adaptation layer's ``forward(x, frozen=cache)`` takes its own cache
from an earlier forward on the same ``x`` and reuses the part of it that
no adaptation parameter reaches.

A model's caches hold only what a backward will read. A backward consumes
them: it sets each cache above the layer where it stops to ``None`` once
that layer's backward has run, and keeps the stop layer's, which a
resumed forward reads. A conv's cache keeps its im2col columns only when
the conv trains (a model with no ``adapt_target``, or one whose target is
``Conv2d``); they feed its weight gradient alone, as its input gradient
reads only the weights.

Every layer's ``backward(cache, gy, need_param_grads, need_input_grad)``
returns ``(input_grad, param_grads)``. With ``need_param_grads=False`` the
dict is empty; with ``need_input_grad=False`` the input gradient is
``None`` and is not computed, which is how a backward pass skips the work
at the lowest layer it visits.
"""

import copy
import dataclasses
import functools
import hashlib

import numpy as np

from . import archive, pca as pca_mod
from .errors import ContractViolationError, EmptyBasisError, NumericalFailureError
from .filters import SpectralFilter, apply_filter, apply_filter_backward
from .pca import PcaBasis

# a checkpoint stores build_model's arguments (MODEL_ARGS) and the frozen arrays
MODEL_FORMAT_VERSION = 2
MODEL_ARGS = ("input_shape", "conv_channels", "kernel", "n_classes")

# batch-norm modes: the stored running statistics, the batch's statistics,
# or (training) the batch's statistics, which also update the running ones
BN_FROZEN = "frozen-stats"
BN_BATCH = "batch-stats"
BN_TRAIN = "train-stats"
BN_MODES = (BN_FROZEN, BN_BATCH, BN_TRAIN)


@functools.lru_cache(maxsize=8)
def _im2col_index(c, h, w, k):
    """The read-only ``(c*k*k, h*w)`` gather index of ``Conv2d._im2col``.

    It is the im2col of the ``(c, h, w)`` map of flat positions, padded
    with ``c*h*w``, the position of the zero slot after the map, so an
    off-map tap reads +0.0. It depends on the shape alone, so each conv
    shape builds it once; it is read-only because every call shares it.
    """
    p = k // 2
    at = np.full((c, h + 2 * p, w + 2 * p), c * h * w)
    at[:, p : p + h, p : p + w] = np.arange(c * h * w).reshape(c, h, w)
    windows = np.lib.stride_tricks.sliding_window_view(at, (k, k), axis=(1, 2))
    index = windows.transpose(0, 3, 4, 1, 2).reshape(c * k * k, h * w)
    index.flags.writeable = False
    return index


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
        """The ``(n, c*k*k, h*w)`` matrix of the zero-padded k x k windows.

        Each sample's map is laid flat with one +0.0 slot after it, and one
        ``np.take`` through the cached ``_im2col_index`` copies every tap,
        an off-map tap from the zero slot. ``np.take`` returns a C-order
        matrix; the matmul and the weight-gradient einsum fix their order
        of operations by that layout.
        """
        n, c, h, w = x.shape
        flat = np.empty((n, c * h * w + 1), dtype=x.dtype)
        flat[:, :-1] = x.reshape(n, -1)
        flat[:, -1] = 0.0
        return np.take(flat, _im2col_index(c, h, w, self.kernel), axis=1)

    def forward(self, x):
        n, c, h, w = x.shape
        cols = self._im2col(x)
        w2 = self.w.reshape(self.w.shape[0], -1)
        y = np.matmul(w2, cols)
        y += self.b[None, :, None]
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
            if cols is None:
                raise ContractViolationError("the conv's cache holds no columns: it does not train")
            gw2 = np.einsum("nof,ncf->oc", gy2, cols)
            pgrads = {"w": gw2.reshape(self.w.shape), "b": gy2.sum(axis=(0, 2))}
        if not need_input_grad:
            return None, pgrads
        # col2im over the (n, c) planes laid end to end: tap (i, j) moves
        # every product by one flat offset, (i - p)*w + (j - p), so each tap
        # is one add, in the (i, j) order of a k*k loop of slice adds. A
        # product whose pixel (y + i - p, x + j - p) is off the map would
        # land in a neighbouring row or plane, so it is set to +0.0 first.
        # Adding +0.0 to a sum that started at +0.0 changes no bit (such a
        # sum is never -0.0), so every pixel sums the same products in the
        # same order.
        gcols = np.matmul(w2.T, gy2).reshape(n, c, k, k, h, w)
        for t in range(k):
            s = t - p
            if s:
                rows = slice(max(h - s, 0), None) if s > 0 else slice(None, -s)
                columns = slice(max(w - s, 0), None) if s > 0 else slice(None, -s)
                gcols[:, :, t, :, rows] = 0.0
                gcols[:, :, :, t, :, columns] = 0.0
        g = p * w + p  # the largest shift
        m = n * c * h * w
        flat = np.zeros(g + m + g)
        for i in range(k):
            for j in range(k):
                at = g + (i - p) * w + (j - p)
                planes = flat[at : at + m].reshape(n, c, h, w)
                planes += gcols[:, :, i, j]
        return flat[g : g + m].reshape(n, c, h, w), pgrads


class BatchNorm2d:
    """Per-channel batch norm over (n, h, w); ``mode`` is one of BN_MODES."""

    eps, momentum = 1e-5, 0.1  # constants, because a checkpoint stores neither

    def __init__(self, ch: int):
        self.scale = np.ones(ch)
        self.shift = np.zeros(ch)
        self.running_mean = np.zeros(ch)
        self.running_var = np.ones(ch)
        self.mode = BN_FROZEN

    def params(self):
        return {"scale": self.scale, "shift": self.shift}

    def forward(self, x, frozen=None):
        """The cache is ``(xhat, invstd, mode)``, the normalisation, which
        the scale and shift do not reach; a ``frozen`` cache of this ``x``
        is reused as it is (and moves no running statistics)."""
        if frozen is None:
            if self.mode == BN_FROZEN:
                var = self.running_var
                xhat = np.subtract(x, self.running_mean[None, :, None, None])
            else:
                # numpy's mean and var, bit for bit, with x centred once: the
                # var's reduction and the normalisation share it
                count = x.shape[0] * x.shape[2] * x.shape[3]
                mean = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
                mean /= count
                xhat = x - mean
                var = np.add.reduce(xhat * xhat, axis=(0, 2, 3)) / count
                if self.mode == BN_TRAIN:
                    m = self.momentum
                    self.running_mean = (1 - m) * self.running_mean + m * mean.reshape(-1)
                    self.running_var = (1 - m) * self.running_var + m * var
            invstd = 1.0 / np.sqrt(var + self.eps)
            # in place on the centred x, in the order (x - mean) * invstd
            xhat *= invstd[None, :, None, None]
            frozen = (xhat, invstd, self.mode)
        y = np.multiply(self.scale[None, :, None, None], frozen[0])
        y += self.shift[None, :, None, None]
        return y, frozen

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        xhat, invstd, mode = cache
        # the per-channel sums are the scale/shift gradients; batch
        # statistics also need them for the input gradient
        if need_param_grads or (need_input_grad and mode != BN_FROZEN):
            gdot = np.sum(gy * xhat, axis=(0, 2, 3))
            gsum = np.sum(gy, axis=(0, 2, 3))
        pgrads = {"scale": gdot, "shift": gsum} if need_param_grads else {}
        if not need_input_grad:
            return None, pgrads
        sc = (self.scale * invstd)[None, :, None, None]
        if mode == BN_FROZEN:
            gx = gy * sc
        else:
            # standard batch-norm backward, sc * (gy - gsum / nhw - xhat *
            # gdot / nhw), in that order on two new arrays
            nhw = gy.shape[0] * gy.shape[2] * gy.shape[3]
            gx = np.subtract(gy, gsum[None, :, None, None] / nhw)
            proj = np.multiply(xhat, gdot[None, :, None, None])
            proj /= nhw
            gx -= proj
            gx *= sc
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
    """Flatten -> PCA spectral filter -> unflatten, on a 4-D feature map.

    ``absorbed`` is a run of frozen layers that follow the filter and are
    affine as they stand (see :func:`_folds`). Their composition with the
    reconstruction is computed once here, by the run's own forward on two
    batches, the (mean, zero map) pair and the basis rows, so that at a rank
    equal to the batch size no fold buffer is larger than an adaptation
    step's; each sample's image is the same in any batch. The mean's image
    is ``out_offset``, and each row's image minus the zero map's is a row of
    ``out_components`` (L x q). ``in_shape`` is the per-sample input map
    shape. With nothing absorbed the reconstruction is (V, mean), copied
    bit for bit, and the output has the input's shape.
    """

    def __init__(self, basis: PcaBasis, filt: SpectralFilter, absorbed, in_shape):
        if basis.rank != len(filt):
            raise ContractViolationError(
                f"basis rank {basis.rank} != filter length {len(filt)}"
            )
        self.basis = basis
        self.filt = filt
        self.absorbed = list(absorbed)

        def absorb(rows):
            batch = rows.reshape((len(rows),) + tuple(in_shape))
            for layer in self.absorbed:
                batch, _ = layer.forward(batch)
            return batch

        offset, zero = absorb(np.vstack([basis.mean, np.zeros_like(basis.mean)]))
        images = absorb(basis.components)
        self.out_shape = images.shape[1:]
        self.out_offset = offset.reshape(-1)
        self.out_components = images.reshape(basis.rank, -1) - zero.reshape(-1)

    def params(self):
        return {"gamma": self.filt.gamma}

    def forward(self, x, frozen=None):
        """The cache is ``(x.shape, FilterCache)``; a ``frozen`` cache of
        this ``x`` gives the projection ``scores``, which gamma does not
        reach."""
        if frozen is not None:
            in_shape, scores = frozen[0], frozen[1].scores
        elif x.ndim != 4:
            raise ContractViolationError("adapter layer expects a 4-D feature map")
        else:
            in_shape, scores = x.shape, pca_mod.transform(self.basis, x.reshape(x.shape[0], -1))
        out, fcache = apply_filter(self.filt, scores, self.out_components, self.out_offset)
        return out.reshape((in_shape[0],) + self.out_shape), (in_shape, fcache)

    def backward(self, cache, gy, need_param_grads=True, need_input_grad=True):
        shape, fcache = cache
        gamma_grad, gscores = apply_filter_backward(fcache, gy.reshape(gy.shape[0], -1))
        pgrads = {"gamma": gamma_grad} if need_param_grads else {}
        ginput = (gscores @ self.basis.components).reshape(shape) if need_input_grad else None
        return ginput, pgrads


def _folds(layer) -> bool:
    """Whether ``layer`` is affine as it stands, so that a run of such layers
    right after an adapter folds into its reconstruction."""
    frozen_bn = isinstance(layer, BatchNorm2d) and layer.mode == BN_FROZEN
    return frozen_bn or isinstance(layer, (Conv2d, Flatten, Linear))


class Model:
    """An ordered layer stack; ``adapt_target`` is the layer class whose
    ``params()`` are adapted (SpectralAdapterLayer or BatchNorm2d), or None."""

    def __init__(self, layers, input_shape, adapt_target=None):
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

    def _check_caches(self, caches):
        if len(caches) != len(self.layers):
            raise ContractViolationError("cache does not match the layer stack")

    def forward(self, x, frozen=None):
        """Logits and per-layer caches.

        ``frozen``, if given, is the cache list of an earlier forward on
        the same ``x``; only its entry at :meth:`adapt_start` is read, so a
        list that a backward has consumed resumes as well. The forward then
        resumes at that layer, which reuses the input-only part of its
        cache; the frozen layers below it are not run and get ``None``
        caches, so the cache list still lines up with the layer stack. A
        conv that does not train (the model has an ``adapt_target`` other
        than ``Conv2d``) caches no columns, which only its weight gradient
        reads.
        """
        x = self._check_input(x)
        caches, start = [], 0
        convs_train = self.adapt_target in (None, Conv2d)
        if frozen is not None:
            self._check_caches(frozen)
            start = self.adapt_start()
            # the layer reads its input from its cache, not from x
            x, cache = self.layers[start].forward(x, frozen=frozen[start])
            caches = [None] * start + [cache]
            start += 1
        for layer in self.layers[start:]:
            x, cache = layer.forward(x)
            if isinstance(layer, Conv2d) and not convs_train:
                cache = (cache[0], None)
            caches.append(cache)
        return x, caches

    def forward_until(self, x, j):
        """Output of layer index j (inclusive); ``j = -1`` gives the
        checked input."""
        if not -1 <= j < len(self.layers):
            raise ContractViolationError(f"layer index {j} out of range")
        x = self._check_input(x)
        for layer in self.layers[: j + 1]:
            x, _ = layer.forward(x)
        return x

    def _backward(self, caches, gloss, stop, collect):
        """The backward pass from the top down to layer ``stop``, which
        computes no input gradient; ``{index: param grads}`` for the layers
        in ``collect``.

        It consumes ``caches``: each entry above ``stop`` is set to ``None``
        once its layer's backward has run, so its arrays go as soon as
        they are read. The entry at ``stop`` is kept, for a forward that
        resumes from this list."""
        self._check_caches(caches)
        grads = {}
        g = gloss
        for idx in range(len(self.layers) - 1, stop - 1, -1):
            need = idx in collect
            g, pg = self.layers[idx].backward(
                caches[idx], g, need_param_grads=need, need_input_grad=idx > stop
            )
            if idx > stop:
                caches[idx] = None
            if need:
                grads[idx] = pg
        return grads

    def backward_all(self, caches, gloss):
        """Per-layer param grads of every layer (training). The gradient
        w.r.t. the network input is not computed."""
        grads = self._backward(caches, gloss, 0, range(len(self.layers)))
        return [grads[idx] for idx in range(len(self.layers))]

    def backward_adapt(self, caches, gloss):
        """The adaptation params' gradient, one flat vector.

        It stops at :meth:`adapt_start`: nothing below the lowest
        adaptation layer has a gradient to collect, so ``caches`` may be
        those of a resumed ``forward(x, frozen=...)``.
        """
        adapt_idx = self._adapt_indices()
        grads = self._backward(caches, gloss, adapt_idx[0], adapt_idx)
        return np.concatenate(
            [grads[i][name] for i in adapt_idx for name in self.layers[i].params()]
        )

    # ---- adaptation parameters -----------------------------------------
    # The adaptation parameters are the arrays that ``params()`` returns on
    # each layer of class ``adapt_target``, in stack order.

    def _adapt_indices(self) -> list:
        """Stack indices of the adaptation layers, lowest first."""
        kind = self.adapt_target or ()
        idx = [i for i, layer in enumerate(self.layers) if isinstance(layer, kind)]
        if not idx:
            raise ContractViolationError("model has no adaptation parameter set")
        return idx

    def _adapt_arrays(self) -> list:
        return [a for i in self._adapt_indices() for a in self.layers[i].params().values()]

    def adapt_start(self) -> int:
        """Index of the lowest adaptation layer. The layers below it are
        frozen, so their output is a fixed function of the input batch."""
        return self._adapt_indices()[0]

    def adapt_params(self) -> np.ndarray:
        return np.concatenate(self._adapt_arrays())

    def set_adapt_params(self, vec: np.ndarray) -> None:
        """Write ``vec`` into the adaptation arrays, in place."""
        vec = np.asarray(vec, dtype=np.float64)
        arrays = self._adapt_arrays()
        count = sum(a.size for a in arrays)
        if vec.shape != (count,):
            raise ContractViolationError(
                f"expected {count} adaptation parameters, got {vec.shape}"
            )
        pos = 0
        for a in arrays:
            a[...] = vec[pos : pos + a.size]
            pos += a.size

    # ---- state management ----------------------------------------------

    def set_bn_mode(self, mode: str) -> None:
        """Set each batch norm to ``mode``. One that the adapter absorbed is
        out of reach, so then every mode but ``BN_FROZEN`` is refused."""
        if mode not in BN_MODES:
            raise ContractViolationError(f"unknown batch-norm mode {mode!r}")
        folded = [l for a in self.layers for l in getattr(a, "absorbed", ())]
        if mode != BN_FROZEN and any(isinstance(l, BatchNorm2d) for l in folded):
            raise ContractViolationError(
                f"the adapter absorbed a batch norm, which stays {BN_FROZEN!r}, not {mode!r}"
            )
        for layer in self.layers:
            if isinstance(layer, BatchNorm2d):
                layer.mode = mode

    def clone(self) -> "Model":
        return copy.deepcopy(self)

    def frozen_param_items(self):
        """(name, array) pairs for everything but the spectral filter's gamma.

        Layers absorbed by an adapter are named by their place after it, as
        in the stack without the fold."""
        items = []
        for idx, layer in enumerate(_unfold(self.layers)):
            if isinstance(layer, SpectralAdapterLayer):
                continue  # gamma is never part of theta
            for name, arr in sorted(layer.params().items()):
                items.append((f"layer{idx}.{name}", arr))
            if isinstance(layer, BatchNorm2d):
                items.append((f"layer{idx}.running_mean", layer.running_mean))
                items.append((f"layer{idx}.running_var", layer.running_var))
        return items

    def weight_hash(self) -> str:
        h = hashlib.sha256()
        for name, arr in self.frozen_param_items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()

    def layer_output_shapes(self):
        """Per-layer output shapes (excluding the batch axis), read from
        each layer's attributes: nothing runs, so no statistic moves."""
        shape, shapes = self.input_shape, []
        for layer in self.layers:
            if isinstance(layer, (Conv2d, Linear)):
                shape = (layer.w.shape[0],) + shape[1:]  # keeps h, w; a Linear's input is flat
            elif isinstance(layer, Flatten):
                shape = (int(np.prod(shape)),)
            elif isinstance(layer, SpectralAdapterLayer):
                shape = layer.out_shape
            shapes.append(shape)  # BatchNorm2d and ReLU keep their input's shape
        return shapes


def bad_model_args(input_shape, conv_channels, kernel, n_classes) -> dict:
    """The arguments of :func:`build_model` that break its rule, name ->
    value: three positive input dims, at least one conv block of width >= 1,
    a positive odd kernel (same padding) and >= 2 classes (for entropy)."""

    def ints(values, low):
        return isinstance(values, (list, tuple)) and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= low
            for v in values
        )

    ok = (
        ints(input_shape, 1) and len(input_shape) == 3,
        ints(conv_channels, 1) and len(conv_channels) > 0,
        ints([kernel], 1) and kernel % 2 == 1,
        ints([n_classes], 2),
    )
    given = (input_shape, conv_channels, kernel, n_classes)
    return {name: v for name, v, good in zip(MODEL_ARGS, given, ok) if not good}


def build_model(
    seed: int,
    input_shape=(3, 8, 8),
    conv_channels=(8, 8),
    n_classes: int = 4,
    kernel: int = 3,
) -> Model:
    """conv-bn-relu blocks, then flatten and a linear classifier head."""
    bad = bad_model_args(input_shape, conv_channels, kernel, n_classes)
    if bad:
        problems = ", ".join(f"{k}={v!r}" for k, v in bad.items())
        raise ContractViolationError(f"bad build_model arguments: {problems}")
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


def stack_shapes(input_shape, conv_channels, n_classes):
    """The per-sample shape each position of :func:`build_model`'s stack
    receives: the input, then each layer's output. Nothing is built."""
    _, h, w = input_shape
    shapes = [tuple(input_shape)]
    for ch in conv_channels:
        shapes += [(ch, h, w)] * 3  # conv, batch norm and ReLU keep h and w
    return shapes + [(conv_channels[-1] * h * w,), (n_classes,)]


def _unfold(layers):
    """The layer stack with each adapter followed by the layers it absorbed."""
    out = []
    for layer in layers:
        out.append(layer)
        out.extend(getattr(layer, "absorbed", ()))
    return out


def adapter_input_shape(shapes, j: int):
    """The per-sample shape an adapter at position j consumes, from the
    shapes the positions receive (as :func:`stack_shapes` lists them);
    ContractViolationError if j is out of range or its input is no 4-D map."""
    if not 0 <= j < len(shapes):
        raise ContractViolationError(f"insertion index {j} out of range")
    if len(shapes[j]) != 3:
        raise ContractViolationError(
            f"layer at position {j} receives shape {shapes[j]}, need a 4-D map"
        )
    return shapes[j]


def insert_adapter(model: Model, j: int, basis: PcaBasis, filt: SpectralFilter) -> Model:
    """Insert the spectral adapter at position j of the layer stack.

    The adapter consumes the output of layer j - 1 (the raw input for
    j == 0), which must be a 4-D map whose flattened width equals the
    basis dimension; a basis that records its position (one from
    :func:`fit_pca_from_source`) is refused at any other. The layers from
    j up to the first one not affine as it stands (a ReLU, or a batch norm
    on batch statistics) are folded into the adapter's reconstruction (see
    :class:`SpectralAdapterLayer`); this is exact in real arithmetic, not
    bitwise, and :meth:`Model.set_bn_mode` then refuses to unfreeze a
    folded batch norm. The original model object is left untouched, so
    dropping the returned model restores pre-insertion behavior exactly.
    """
    in_shape = adapter_input_shape([model.input_shape, *model.layer_output_shapes()], j)
    p = int(np.prod(in_shape))
    if p != basis.p:
        raise ContractViolationError(
            f"flattened width {p} at position {j} != basis dimension {basis.p}"
        )
    if basis.insert_index not in (None, j):
        raise ContractViolationError(
            f"basis was fitted for position {basis.insert_index}, not position {j}"
        )
    end = j
    while end < len(model.layers) and _folds(model.layers[end]):
        end += 1
    adapter = SpectralAdapterLayer(basis, filt, model.layers[j:end], in_shape)
    layers = model.layers[:j] + [adapter] + model.layers[end:]
    return Model(layers, model.input_shape, adapt_target=SpectralAdapterLayer)


def remove_adapter(model: Model) -> Model:
    """The base model: the adapter goes and the layers it absorbed return."""
    if not any(isinstance(l, SpectralAdapterLayer) for l in model.layers):
        raise ContractViolationError("model has no adapter layer")
    layers = [l for l in _unfold(model.layers) if not isinstance(l, SpectralAdapterLayer)]
    return Model(layers, model.input_shape)


def fit_pca_from_source(model: Model, source_batches, j: int, rank: int) -> PcaBasis:
    """Fit a PCA basis on what an adapter at position ``j`` consumes (see
    :func:`insert_adapter`): the output of layer ``j - 1`` for each source
    batch. The basis records ``j`` and ``model.weight_hash()``. A position
    ``insert_adapter`` refuses is refused here too, before any forward.

    Streams batches through :func:`pca.fit_incremental`, so the source
    data is never concatenated or retained. The model's batch norms must
    be in ``BN_FROZEN`` mode: in another mode the features would depend on
    the batching, and in ``BN_TRAIN`` the fit would move the statistics
    whose hash the basis records.
    """
    modes = {l.mode for l in model.layers if isinstance(l, BatchNorm2d)} - {BN_FROZEN}
    if modes:
        raise ContractViolationError(
            f"fit_pca_from_source needs batch norms in {BN_FROZEN!r} mode, got {sorted(modes)}"
        )
    adapter_input_shape([model.input_shape, *model.layer_output_shapes()], j)
    features = (model.forward_until(b, j - 1).reshape(len(b), -1) for b in source_batches)
    try:
        basis = pca_mod.fit_incremental(features, rank)
    except EmptyBasisError as exc:
        raise EmptyBasisError(f"the input of position {j} has no variance: {exc}") from exc
    return dataclasses.replace(basis, insert_index=j, model_hash=model.weight_hash())


# ---- supervised pre-training ------------------------------------------


def log_softmax(logits: np.ndarray):
    """``(z, lse)``: ``logits`` minus each row's max, and the log of each
    row's sum of ``exp(z)`` (an m x 1 column), so ``z - lse`` is the
    log-softmax. Past the float64 range an entry of ``z`` is -inf, a class
    whose probability is 0."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z, np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    z, lse = log_softmax(logits)
    logp = z - lse
    n = len(labels)
    loss = -logp[np.arange(n), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def train_model(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> Model:
    """Plain SGD training; afterwards all weights are frozen and batch
    norm switches to its stored running statistics."""
    rng = np.random.default_rng(seed)
    model.set_bn_mode(BN_TRAIN)
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
    model.set_bn_mode(BN_FROZEN)
    bad = [name for name, arr in model.frozen_param_items() if not np.all(np.isfinite(arr))]
    if bad:
        raise NumericalFailureError(f"training diverged at lr {lr!r}: non-finite {', '.join(bad)}")
    return model


# ---- checkpointing -----------------------------------------------------


def model_args(model: Model) -> dict:
    """The :func:`build_model` arguments (all but the seed) read off the
    layer stack of ``model``; an argument the stack does not show is None."""
    convs = [layer for layer in model.layers if isinstance(layer, Conv2d)]
    head = model.layers[-1]
    return {
        "input_shape": list(model.input_shape),
        "conv_channels": [conv.w.shape[0] for conv in convs],
        "kernel": convs[0].kernel if convs else None,
        "n_classes": head.w.shape[0] if isinstance(head, Linear) else None,
    }


def save_model(model: Model, path) -> None:
    """Write ``build_model``'s arguments for the stack, plus its frozen
    arrays (:meth:`Model.frozen_param_items`). A stack that ``build_model``
    does not rebuild with the same layer kinds and array shapes is refused,
    and so is one with an adapter."""
    if any(isinstance(layer, SpectralAdapterLayer) for layer in model.layers):
        raise ContractViolationError("checkpoints store the base network; remove the adapter first")
    args = model_args(model)
    rebuilt = build_model(0, **args)

    def layout(m):
        return [type(l) for l in m.layers], [(n, a.shape) for n, a in m.frozen_param_items()]

    if layout(rebuilt) != layout(model):
        raise ContractViolationError(f"build_model({args}) does not rebuild this layer stack")
    archive.write(path, {"version": MODEL_FORMAT_VERSION, **args}, dict(model.frozen_param_items()))


def load_model(path) -> Model:
    """Read a checkpoint written by :func:`save_model` (see :func:`archive.read`).

    The model is ``build_model``'s, from the stored arguments; each of its
    frozen arrays must be stored, of the built shape, and each running
    variance non-negative. A failed check raises ContractViolationError
    naming the file.
    """
    spec, data = archive.read(path, "checkpoint", MODEL_FORMAT_VERSION)
    try:
        model = build_model(0, **{name: spec[name] for name in MODEL_ARGS})
    except KeyError as exc:
        raise archive.invalid("checkpoint", path, f"no build_model argument {exc}") from exc
    except ContractViolationError as exc:
        raise archive.invalid("checkpoint", path, exc) from exc
    for name, arr in model.frozen_param_items():
        if name not in data:
            raise archive.invalid("checkpoint", path, f"missing array {name}")
        stored = data[name]
        if stored.shape != arr.shape:
            problem = f"{name} has shape {stored.shape}, expected {arr.shape}"
            raise archive.invalid("checkpoint", path, problem)
        if name.endswith(".running_var") and np.any(stored < 0):
            raise archive.invalid("checkpoint", path, f"negative entries in {name}")
        arr[...] = stored
    return model
