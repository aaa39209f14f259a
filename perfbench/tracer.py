"""Outside-in span tracer for the ``spectral_tta`` package.

The tracer records spans from the benchmark's side: it replaces public
callables of ``linalg``, ``pca``, ``filters``, ``network``, ``adapt`` and
``bench`` with timing wrappers for the duration of a ``with
tracer.installed():`` block and restores the originals afterwards. The
package itself is not edited.

Two rules decide where a wrapper goes:

* Layers are wrapped at class level (``Conv2d.forward`` and so on),
  because ``Model.clone()`` deep-copies layer objects and a wrapper put
  on one instance would be lost or would keep pointing at the original.
  Each layer call is keyed by its position in the stack of the model
  that called it, e.g. ``conv0`` or ``adapter``.
* A function is wrapped under the name its caller looks up, because
  ``from ... import name`` binds the object at import time: the filter
  is wrapped as ``network.apply_filter``, the protocol as both
  ``bench.run_adaptation`` and ``adapt.run_adaptation``.

Spans are aggregated as they close: per span name the inclusive time,
the self time (span minus the time its child spans cover) and the call
count. Time inside the traced region but outside every span is the
coverage gap, reported as ``trace.unattributed_ms``. The tracer's own
bookkeeping (each wrapper's work around the call it times: re-keying a
model's layers, fingerprinting prefix inputs, the span accounting) is
counted as child time of the enclosing span, so it leaves the package's
self times, and is reported as ``trace.bookkeeping_ms``.
"""

import hashlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from spectral_tta import adapt, bench, linalg, network, pca

# stack-position names: conv/bn/relu are numbered per kind, the rest are
# unique in the desk-scale stack
_NUMBERED = {network.Conv2d: "conv", network.BatchNorm2d: "bn", network.ReLU: "relu"}
_SINGLE = {
    network.Flatten: "flatten",
    network.Linear: "linear",
    network.SpectralAdapterLayer: "adapter",
}
LAYER_CLASSES = tuple(_NUMBERED) + tuple(_SINGLE)

# the layer names reported per layer; they match build_model's default
# two-block stack with the adapter inserted at index 3
REPORTED_LAYERS = (
    "conv0", "bn0", "relu0", "adapter", "conv1", "bn1", "relu1", "flatten", "linear",
)

# Model methods that drive layer calls; each re-keys the model's layers
# by stack position before it runs
_MODEL_METHODS = {
    "forward": "network.model_forward",
    "forward_until": "network.forward_until",
    "backward_all": "network.backward_all",
    "backward_adapt": "network.backward_adapt",
    "layer_output_shapes": "network.layer_output_shapes",
}

# (module, attribute looked up by the caller, span name)
_FUNCTIONS = (
    (network, "apply_filter", "filters.apply_filter"),
    (network, "apply_filter_backward", "filters.apply_filter_backward"),
    (adapt, "adam_step", "adapt.adam_step"),
    (adapt, "entropy", "adapt.entropy"),
    (adapt, "entropy_grad", "adapt.entropy_grad"),
    (bench, "baseline_no_adapt", "adapt.protocol"),
    (bench, "baseline_bn_stats", "adapt.protocol"),
    (bench, "baseline_bn_modulators", "adapt.protocol"),
    (bench, "gen_dataset", "bench.gen_dataset"),
    (bench, "corrupt", "bench.corrupt"),
    (bench, "train_model", "network.train_model"),
    (bench, "fit_pca_from_source", "network.fit_pca_from_source"),
)

# entropy-trained protocol entry points: bench calls its own binding for
# the spectral methods, baseline_bn_modulators calls adapt's
_ADAPTATION = ((bench, "run_adaptation"), (adapt, "run_adaptation"))


def layer_names(layers) -> list[str]:
    """Stack-position names for a layer list, e.g. conv0, bn0, relu0, adapter."""
    seen = defaultdict(int)
    names = []
    for layer in layers:
        kind = type(layer)
        if kind in _NUMBERED:
            names.append(f"{_NUMBERED[kind]}{seen[kind]}")
            seen[kind] += 1
        else:
            names.append(_SINGLE.get(kind, kind.__name__.lower()))
    return names


_UNKEYED = (-1, {"fwd": "network.unkeyed.fwd", "bwd": "network.unkeyed.bwd"})


def _fingerprint(x) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16).digest()


class Tracer:
    """Aggregated spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.total = defaultdict(float)   # span name -> inclusive seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.svd_seconds = []
        self.root_seconds = 0.0           # time covered by top-level spans
        self.adapt_batches = 0
        self.pca_batches = 0
        # the prefix is the stack below the adapter; its input is the raw
        # batch, so calls of stack position 0 inside an adaptation
        # call count prefix passes
        self.prefix_fwd = 0
        self.prefix_bwd = 0
        self.prefix_distinct = 0
        self._call_inputs = None          # set while an adaptation call runs
        self._open = []                   # child seconds of each open span
        self._layer_key = {}              # id(layer) -> (stack position, span names)
        self.bookkeeping_seconds = 0.0    # the wrappers' own time

    # ---- spans -------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        return self.span_from(time.perf_counter(), name, fn, *args, **kwargs)

    def span_from(self, entered, name, fn, *args, **kwargs):
        """Time ``fn`` as span ``name`` for a wrapper entered at ``entered``.
        The wrapper's own time (its work before the call and the accounting
        after it) is tracer bookkeeping: the enclosing span counts it as
        child time, so it stays out of every self time."""
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            children = self._open.pop()
            self.total[name] += seconds
            self.self_time[name] += seconds - children
            self.calls[name] += 1
            spent = time.perf_counter() - entered
            self.bookkeeping_seconds += spent - seconds
            if self._open:
                self._open[-1] += spent
            else:
                self.root_seconds += spent

    # ---- wrappers ----------------------------------------------------

    def _model_method(self, orig, name):
        def wrapper(model, *args, **kwargs):
            entered = time.perf_counter()
            for pos, (layer, key) in enumerate(zip(model.layers, layer_names(model.layers))):
                spans = {d: f"network.{key}.{d}" for d in ("fwd", "bwd")}
                self._layer_key[id(layer)] = (pos, spans)
            return self.span_from(entered, name, orig, model, *args, **kwargs)

        return wrapper

    def _layer_method(self, orig, direction):
        def wrapper(layer, *args, **kwargs):
            entered = time.perf_counter()
            pos, spans = self._layer_key.get(id(layer), _UNKEYED)
            if pos == 0 and self._call_inputs is not None:
                if direction == "fwd":
                    self.prefix_fwd += 1
                    self._call_inputs.add(_fingerprint(args[0]))
                else:
                    self.prefix_bwd += 1
            return self.span_from(entered, spans[direction], orig, layer, *args, **kwargs)

        return wrapper

    def _adaptation(self, orig):
        def wrapper(*args, **kwargs):
            outer = self._call_inputs is None
            if outer:
                self._call_inputs = set()
            try:
                record = self.span("adapt.protocol", orig, *args, **kwargs)
            finally:
                if outer:
                    self.prefix_distinct += len(self._call_inputs)
                    self._call_inputs = None
            self.adapt_batches += len(record.batches)
            return record

        return wrapper

    def _svd(self, orig):
        def wrapper(*args, **kwargs):
            before = self.total["linalg.svd"]
            try:
                return self.span("linalg.svd", orig, *args, **kwargs)
            finally:
                self.svd_seconds.append(self.total["linalg.svd"] - before)

        return wrapper

    def _fit_incremental(self, orig):
        def counted(batches):
            for batch in batches:
                self.pca_batches += 1
                yield batch

        def wrapper(batches, *args, **kwargs):
            return self.span("pca.fit_incremental", orig, counted(batches), *args, **kwargs)

        return wrapper

    def _function(self, orig, name):
        def wrapper(*args, **kwargs):
            return self.span(name, orig, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; the originals are restored on exit."""
        patches = []
        for method, name in _MODEL_METHODS.items():
            orig = network.Model.__dict__[method]
            patches.append((network.Model, method, self._model_method(orig, name)))
        for cls in LAYER_CLASSES:
            patches.append((cls, "forward", self._layer_method(cls.__dict__["forward"], "fwd")))
            patches.append((cls, "backward", self._layer_method(cls.__dict__["backward"], "bwd")))
        for module, attr, name in _FUNCTIONS:
            patches.append((module, attr, self._function(getattr(module, attr), name)))
        for module, attr in _ADAPTATION:
            patches.append((module, attr, self._adaptation(getattr(module, attr))))
        patches.append((linalg, "svd", self._svd(linalg.svd)))
        patches.append((pca, "fit_incremental", self._fit_incremental(pca.fit_incremental)))

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    # ---- metrics -----------------------------------------------------

    def metrics(self, traced_seconds: float, overhead_ratio: float | None) -> dict:
        """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json;
        the overhead is left out when it could not be measured."""
        ms = lambda name: 1e3 * self.total[name]
        self_ms = lambda name: 1e3 * self.self_time[name]
        out = {}
        for layer in REPORTED_LAYERS:
            for direction in ("fwd", "bwd"):
                span = f"network.{layer}.{direction}"
                out[f"network.{layer}.{direction}_ms"] = ms(span)
                out[f"network.{layer}.{direction}_calls"] = self.calls[span]
        for name in ("model_forward", "backward_adapt", "backward_all", "train_model"):
            out[f"network.{name}.self_ms"] = self_ms(f"network.{name}")
        batches = self.adapt_batches
        out["network.prefix.fwd_per_batch"] = self.prefix_fwd / batches if batches else 0.0
        out["network.prefix.bwd_per_batch"] = self.prefix_bwd / batches if batches else 0.0
        out["network.prefix.useful_ratio"] = (
            self.prefix_distinct / self.prefix_fwd if self.prefix_fwd else 0.0
        )
        for name in ("apply_filter", "apply_filter_backward"):
            out[f"filters.{name}.ms"] = ms(f"filters.{name}")
            out[f"filters.{name}.calls"] = self.calls[f"filters.{name}"]
        for name in ("adam_step", "entropy", "entropy_grad"):
            out[f"adapt.{name}.ms"] = ms(f"adapt.{name}")
        out["adapt.protocol.self_ms"] = self_ms("adapt.protocol")
        out["adapt.steps"] = self.calls["adapt.adam_step"]
        out["adapt.batches"] = batches
        out["pca.fit_incremental.self_ms"] = self_ms("pca.fit_incremental")
        out["pca.fit_incremental.batches"] = self.pca_batches
        out["linalg.svd.ms"] = ms("linalg.svd")
        out["linalg.svd.calls"] = self.calls["linalg.svd"]
        out["linalg.svd.ms_per_call.p50"] = (
            1e3 * statistics.median(self.svd_seconds) if self.svd_seconds else 0.0
        )
        out["bench.gen_dataset.ms"] = ms("bench.gen_dataset")
        out["bench.corrupt.ms"] = ms("bench.corrupt")
        out["trace.bookkeeping_ms"] = 1e3 * self.bookkeeping_seconds
        out["trace.unattributed_ms"] = 1e3 * (traced_seconds - self.root_seconds)
        if overhead_ratio is not None:
            out["trace.overhead_ratio"] = overhead_ratio
        return out
