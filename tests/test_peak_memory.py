"""Peak numpy allocation of each stage at the default config's shapes.

Each stage's peak is measured with tracemalloc, counting only what the
stage allocates. numpy's allocations repeat to the byte from run to run,
so each bound sits a few percent above what the stage needs today: an
array kept past its last reader pushes the peak over it. The bounds are
in units of the arrays that set each peak: the train set, and conv1's
im2col columns at a batch of 64 (64 x 72 x 64 float64s, 2.36 MB).
"""

import tracemalloc

import numpy as np
import pytest

from spectral_tta import adapt, bench, network

CFG = bench.load_config()
COLS = 64 * 8 * 9 * 64 * 8  # conv1's columns: n, c*k*k, h*w, bytes per float64


def peak_bytes(fn, *args):
    """The largest total that the allocations made during ``fn(*args)`` reach."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def model():
    return network.build_model(CFG["seed"], **bench._model_args(CFG))


@pytest.fixture(scope="module")
def batches():
    """Two corrupted test batches of 64, the grid's batch size."""
    _, (x, y) = bench.gen_dataset(bench._dataset_spec(CFG))
    x = bench.corrupt(x[:128], bench.CorruptionSpec("gaussian-noise", 5, 0))
    return bench.make_batches(x, y[:128], CFG["adapt"]["batch_size"])


def test_the_dataset_is_built_in_one_buffer_per_set():
    # the train set and its jitter, with nothing beside them
    spec = bench._dataset_spec(CFG)
    bench.gen_dataset.cache_clear()
    peak = peak_bytes(bench.gen_dataset, spec)
    (train_x, _), _ = bench.gen_dataset(spec)
    assert peak < 2.1 * train_x.nbytes


def test_a_training_epoch_holds_one_generation_of_caches(model):
    # conv1's backward: its columns, their gradient products and the rest
    (x, y), _ = bench.gen_dataset(bench._dataset_spec(CFG))
    work = model.clone()
    m = CFG["model"]
    peak = peak_bytes(network.train_model, work, x, y, 1, m["train_lr"], m["train_batch"], 0)
    assert peak < 2.9 * COLS


@pytest.mark.parametrize("baseline", [adapt.baseline_no_adapt, adapt.baseline_bn_stats])
def test_inference_keeps_no_caches(baseline, model, batches):
    # conv1's forward: its columns, while nothing else of the batch is kept
    assert peak_bytes(baseline, model, batches) < 1.45 * COLS


def test_bn_modulators_keep_no_columns_and_one_batch_of_caches(model, batches):
    peak = peak_bytes(adapt.baseline_bn_modulators, model, batches, bench._adapt_config(CFG))
    assert peak < 1.45 * COLS
